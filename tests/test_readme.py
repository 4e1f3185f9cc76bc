import re
from pathlib import Path

from compactga.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_lists_the_columns_that_the_cli_writes(tmp_path, capsys):
    text = README.read_text()
    out, trace = tmp_path / "r.csv", tmp_path / "r_runs.csv"
    assert main(["--bits", "8", "--pop", "4", "--cache", "0,2", "--runs", "2",
                 "--out", str(out), "--trace", str(trace)]) == 0
    for heading, path in (("CSV columns", out), ("`--trace` columns", trace)):
        listed = re.search(rf"^{re.escape(heading)}, in order:\s*`([^`]*)`", text, re.M)
        assert listed, f"README lists no {heading}"
        assert path.read_text().splitlines()[0] == listed.group(1)


def test_readme_flag_table_lists_the_flags_that_the_cli_defines():
    listed = re.findall(r"^\| `(--[a-z-]+)` \|", README.read_text(), re.M)
    defined = [flag for action in build_parser()._actions if action.dest != "help"
               for flag in action.option_strings]
    assert listed == defined
