import csv
import os
import subprocess
import sys

import pytest

import compactga
from compactga import (
    ExperimentConfig,
    Variant,
    run_cell,
    sweep,
    write_csv,
)
from compactga.cli import load_config_file, main, parse_int_list
from compactga.harness import CSV_COLUMNS
from test_golden_csv import GOLDEN, sha256


def small_config(**overrides):
    base = dict(
        variant=Variant("cga"),
        problem="onemax",
        bits=12,
        n_values=(8,),
        capacities=(4,),
        policy="fifo",
        runs=3,
        base_seed=9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        small_config(n_values=())
    with pytest.raises(ValueError):
        small_config(n_values=(1,))
    with pytest.raises(ValueError):
        small_config(capacities=())
    with pytest.raises(ValueError):
        small_config(capacities=(-1,))
    with pytest.raises(ValueError):
        small_config(runs=0)
    with pytest.raises(ValueError):
        small_config(problem="knapsack")
    with pytest.raises(ValueError):
        small_config(problem="binint", bits=64)
    with pytest.raises(ValueError):
        small_config(bits=0)
    with pytest.raises(ValueError):
        small_config(base_seed=-3)


@pytest.mark.parametrize(
    "field,value",
    [("n_values", (4.9,)), ("capacities", (2.5,)), ("base_seed", 1.5), ("bits", 12.0), ("runs", 2.0)],
)
def test_config_rejects_non_integral_numbers(field, value):
    with pytest.raises(TypeError, match=field):
        small_config(**{field: value})


def test_config_normalizes_axis_order():
    config = small_config(n_values=(20, 8, 8), capacities=(5, 0, 5))
    assert config.n_values == (8, 20)
    assert config.capacities == (0, 5)


def test_capacity_zero_cell_has_speedup_exactly_one():
    cell = run_cell(small_config(capacities=(0,)), 8, 0)
    assert cell.speedup == 1.0
    assert cell.speedup_mean_of_runs == 1.0
    assert cell.hits_sum == 0
    assert cell.reduction_pct == 0.0
    assert cell.hitratio_pct == 0.0
    assert cell.neval_nocache == cell.neval_cache


def test_cells_differing_only_in_capacity_share_trajectories():
    config = small_config(capacities=(0, 2, 16), runs=5)
    result = sweep(config)
    lookups = {cell.capacity: cell.neval_nocache for cell in result.cells}
    iters = {cell.capacity: cell.iterations_mean for cell in result.cells}
    assert len(set(lookups.values())) == 1
    assert len(set(iters.values())) == 1


def test_sweep_runs_every_cell_and_averages():
    config = small_config(n_values=(4, 8, 12), capacities=(1, 5), runs=2)
    result = sweep(config)
    assert [(c.pop, c.capacity) for c in result.cells] == [
        (4, 1), (4, 5), (8, 1), (8, 5), (12, 1), (12, 5)
    ]


def test_per_run_rows_use_base_seed_plus_run_index():
    rows = []
    run_cell(small_config(runs=4, base_seed=100), 8, 4, per_run=rows)
    assert [r["seed"] for r in rows] == [100, 101, 102, 103]
    assert [r["run"] for r in rows] == [0, 1, 2, 3]


def test_write_csv_single_cell(tmp_path):
    config = small_config()
    result = sweep(config)
    path = tmp_path / "out.csv"
    write_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["algo"] == "cga"
    assert row["problem"] == "onemax"
    assert row["policy"] == "fifo"
    assert (int(row["bits"]), int(row["pop"]), int(row["capacity"])) == (12, 8, 4)


def test_csv_rows_are_internally_consistent(tmp_path):
    config = small_config(n_values=(6, 10), capacities=(0, 1, 8), runs=4)
    result = sweep(config)
    for cell in result.cells:
        assert abs(cell.speedup - (cell.hits_sum + cell.misses_sum) / cell.misses_sum) < 1e-9
        assert abs(cell.reduction_pct - 100 * cell.hits_sum / (cell.hits_sum + cell.misses_sum)) < 1e-9
        assert cell.hitratio_pct == cell.reduction_pct
    path = tmp_path / "out.csv"
    write_csv(result, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        hits, misses = int(row["hits_sum"]), int(row["misses_sum"])
        assert int(row["neval_nocache"]) == hits + misses
        assert int(row["neval_cache"]) == misses
        # printed metrics carry 6 fractional digits
        assert abs(float(row["speedup"]) - (hits + misses) / misses) < 5e-7
        assert abs(float(row["reduction_pct"]) - 100 * hits / (hits + misses)) < 5e-7
        assert row["hitratio_pct"] == row["reduction_pct"]
        assert float(row["speedup"]) >= 1.0


def test_csv_is_a_pure_function_of_the_config(tmp_path):
    config = small_config(n_values=(4, 8), capacities=(1, 3), runs=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep(config), str(a))
    write_csv(sweep(config), str(b))
    assert a.read_bytes() == b.read_bytes()
    write_csv(sweep(small_config(n_values=(4, 8), capacities=(1, 3), runs=3, base_seed=10)), str(b))
    assert a.read_bytes() != b.read_bytes()


def test_parse_int_list():
    assert parse_int_list("10,20,30") == (10, 20, 30)
    assert parse_int_list("5") == (5,)
    with pytest.raises(Exception):
        parse_int_list("5,x")


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# sweep\nalgo = pe-cga\npop=4,6\n\nruns=2  # replicates\n")
    assert load_config_file(str(path)) == {"algo": "pe-cga", "pop": "4,6", "runs": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("runs 2\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("pops=4,6\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "--algo", "cga", "--problem", "onemax", "--bits", "10",
            "--pop", "6", "--cache", "0,2", "--policy", "lru",
            "--runs", "2", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "wrote" in capsys.readouterr().out


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "algo=cga\nproblem=onemax\nbits=10\npop=6\ncache=1\npolicy=fifo\nruns=5\nseed=3\n"
    )
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--runs", "2", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["runs"] == "2"
    assert rows[0]["bits"] == "10"


@pytest.mark.parametrize(
    "file_lines,flags",
    [
        (["policy=lru", "runs=3"], []),
        (["policy=fifo", "runs=5"], ["--policy", "lru", "--runs", "3"]),
    ],
    ids=["file-only", "flags-override-file"],
)
def test_cli_config_file_reproduces_recorded_digests(tmp_path, file_lines, flags):
    out, trace = tmp_path / "results.csv", tmp_path / "runs.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join(["algo=ne-cga", "eta=2", "problem=binint", "bits=12", "pop=6,12",
                   "cache=0,1,4", "seed=1", f"out={out}", *file_lines]) + "\n"
    )
    assert main(["--config", str(cfg), "--trace", str(trace), *flags]) == 0
    assert (sha256(out), sha256(trace)) == GOLDEN[("ne-cga(eta=2)", "binint", 12, "lru")]


@pytest.mark.parametrize(
    "line,flag", [("pop=4,x", "--pop"), ("policy=LRU", "--policy"), ("runs=2.5", "--runs")]
)
def test_cli_checks_config_file_values_like_flags(tmp_path, capsys, line, flag):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_cli_bad_config_value_exits_without_traceback(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("pop=4,x\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(compactga.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "compactga", "--config", str(cfg), "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --pop:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    for shown in ("(default cga)", "(default 100)", "(default 20)", "(default fifo)",
                  "(default 50)", "(default results.csv)"):
        assert shown in help_text


def test_cli_trace_writes_per_run_detail(tmp_path):
    out, trace = tmp_path / "r.csv", tmp_path / "runs.csv"
    code = main(
        ["--bits", "10", "--pop", "6", "--cache", "2", "--runs", "3",
         "--seed", "5", "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [r["seed"] for r in rows] == ["5", "6", "7"]


def test_cli_reports_errors(tmp_path, capsys):
    code = main(["--bits", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_ne_cga_default_eta_resolves_per_population(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["--algo", "ne-cga", "--bits", "10", "--pop", "6,20", "--cache", "2",
         "--runs", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["algo"] == "ne-cga(eta=auto)" for r in rows)


def test_reduction_hierarchy_across_variants(cell_runner):
    """At a fixed population and capacity, stronger selection caches better.

    Ordering checked with a 2-percentage-point slack on the mean reduction.
    """
    runs, pop, cap = 50, 100, 20
    reduction = {}
    for label, variant in [
        ("pe", Variant("pe-cga")),
        ("ne", Variant("ne-cga")),
        ("rr4", Variant("cga-rr", m=4)),
        ("t4", Variant("cga-t", s=4)),
        ("cga", Variant("cga")),
    ]:
        cell, _ = cell_runner.cell(variant, "onemax", 100, pop, cap, "fifo", runs)
        reduction[label] = cell.reduction_pct
    order = ["pe", "ne", "rr4", "t4", "cga"]
    for better, worse in zip(order, order[1:]):
        assert reduction[better] >= reduction[worse] - 2.0, reduction
