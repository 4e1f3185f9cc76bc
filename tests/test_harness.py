import csv
import enum
import os
import pickle
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

import compactga
from compactga import algorithms, cli
from compactga import (
    CachePolicy,
    CellResult,
    ExperimentConfig,
    IterationLimitError,
    Variant,
    run_cell,
    sweep,
    write_csv,
)
from compactga.cli import build_parser, load_config_file, main, parse_int_list
from compactga.problems import DEFAULT_BITS, FITNESS_FUNCTIONS
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
    with pytest.raises(TypeError, match="variant"):
        small_config(variant="cga")


@pytest.mark.parametrize(
    "field,value",
    [("n_values", (4.9,)), ("capacities", (2.5,)), ("base_seed", 1.5), ("bits", 12.0), ("runs", 2.0),
     ("runs", True), ("capacities", (True,)), ("base_seed", False), ("bits", True), ("n_values", (True,))],
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
    cells = sweep(config)
    lookups = {cell.capacity: cell.neval_nocache for cell in cells}
    iters = {cell.capacity: cell.iterations_mean for cell in cells}
    assert len(set(lookups.values())) == 1
    assert len(set(iters.values())) == 1


def test_sweep_runs_every_cell_and_averages():
    expected = [(4, 1), (4, 5), (8, 1), (8, 5), (12, 1), (12, 5)]
    # the config's axis normalisation alone puts unsorted, duplicated axes in (pop, capacity) order
    for n_values, capacities in [((4, 8, 12), (1, 5)), ((12, 4, 8, 4), (5, 1))]:
        config = small_config(n_values=n_values, capacities=capacities, runs=2)
        assert [(c.pop, c.capacity) for c in sweep(config)] == expected


def test_per_run_rows_use_base_seed_plus_run_index():
    rows = []
    run_cell(small_config(runs=4, base_seed=100), 8, 4, per_run=rows)
    assert [r["seed"] for r in rows] == [100, 101, 102, 103]
    assert [r["run"] for r in rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("capacity", [0, 4])
def test_cell_is_the_aggregate_of_its_own_per_run_rows(capacity):
    rows = []
    # four runs, so iterations_mean * runs is exact in floating point
    cell = run_cell(small_config(runs=4, capacities=(capacity,)), 8, capacity, per_run=rows)
    assert len(rows) == cell.runs == 4
    assert (cell.hits_sum > 0) == (capacity > 0)
    assert cell.hits_sum == sum(r["hits"] for r in rows)
    assert cell.misses_sum == sum(r["misses"] for r in rows)
    assert cell.iterations_mean * cell.runs == sum(r["iterations"] for r in rows)
    assert cell.speedup_mean_of_runs == sum((r["hits"] + r["misses"]) / r["misses"] for r in rows) / cell.runs


def test_write_csv_single_cell(tmp_path):
    config = small_config()
    path = tmp_path / "out.csv"
    write_csv([asdict(c) for c in sweep(config)], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    columns = [f.name for f in fields(CellResult)]
    assert lines[0] == ",".join(columns)
    row = dict(zip(columns, lines[1].split(",")))
    assert row["algo"] == "cga"
    assert row["problem"] == "onemax"
    assert row["policy"] == "fifo"
    assert (int(row["bits"]), int(row["pop"]), int(row["capacity"])) == (12, 8, 4)


def test_csv_rows_are_internally_consistent(tmp_path):
    config = small_config(n_values=(6, 10), capacities=(0, 1, 8), runs=4)
    cells = sweep(config)
    for cell in cells:
        assert abs(cell.speedup - (cell.hits_sum + cell.misses_sum) / cell.misses_sum) < 1e-9
        assert abs(cell.reduction_pct - 100 * cell.hits_sum / (cell.hits_sum + cell.misses_sum)) < 1e-9
        assert cell.hitratio_pct == cell.reduction_pct
    path = tmp_path / "out.csv"
    write_csv([asdict(c) for c in cells], str(path))
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
    write_csv([asdict(c) for c in sweep(config)], str(a))
    write_csv([asdict(c) for c in sweep(config)], str(b))
    assert a.read_bytes() == b.read_bytes()
    other = small_config(n_values=(4, 8), capacities=(1, 3), runs=3, base_seed=10)
    write_csv([asdict(c) for c in sweep(other)], str(b))
    assert a.read_bytes() != b.read_bytes()


def test_write_csv_keeps_the_first_rows_key_order_and_prints_floats_with_six_digits(tmp_path):
    path = tmp_path / "runs.csv"
    rows = [{"seed": 3, "run": 0, "solution_fitness": 0.1, "solution": "0101"},
            {"run": 1, "solution": "1111", "seed": 4, "solution_fitness": 2.0}]
    write_csv(rows, str(path))
    assert path.read_text().splitlines() == [
        "seed,run,solution_fitness,solution",
        "3,0,0.100000,0101",
        "4,1,2.000000,1111",
    ]


def test_write_csv_refuses_a_row_that_lacks_a_key_of_the_first_row(tmp_path):
    with pytest.raises(ValueError, match="row 1 lacks key 'b'"):
        write_csv([{"a": 1, "b": 2.5}, {"a": 3}], str(tmp_path / "r.csv"))


def test_cli_asks_for_bits_when_a_problem_has_no_default_length(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(FITNESS_FUNCTIONS, "zeros", lambda c: 0)
    out = tmp_path / "r.csv"
    argv = ["--problem", "zeros", "--pop", "4", "--cache", "1", "--runs", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "problem 'zeros' has no default length; give --bits" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--bits", "6"]) == 0
    assert out.exists()


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
    bad.write_text("pop=4\nruns=2\npop = 8\n")
    with pytest.raises(ValueError) as err:
        load_config_file(str(bad))
    assert str(err.value) == f"{bad}:3: duplicate config key 'pop'"


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


@pytest.mark.parametrize(
    "file_lines,flags,stray",
    [
        ([], ["--algo", "cga", "--s", "7"], "s"),
        ([], ["--algo", "pe-cga", "--eta", "3"], "eta"),
        ([], ["--algo", "cga-t", "--m", "3"], "m"),
        (["algo=cga", "s=7"], [], "s"),
        (["algo=cga-rr", "eta=2"], [], "eta"),
        (["s=7"], ["--algo", "cga-rr"], "s"),
    ],
    ids=["cga-s", "pe-cga-eta", "cga-t-m", "file-cga-s", "file-cga-rr-eta", "file-s-flag-cga-rr"],
)
def test_cli_rejects_a_parameter_the_algo_does_not_take(tmp_path, capsys, file_lines, flags, stray):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(line + "\n" for line in file_lines))
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--bits", "8", "--pop", "4", "--runs", "1", "--out", str(out), *flags])
    assert code == 2
    assert f"does not take {stray!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo,label", [("cga-t", "cga-t(s=4)"), ("cga-rr", "cga-rr(m=4)")])
def test_cli_group_size_defaults_to_four(tmp_path, algo, label):
    out = tmp_path / "r.csv"
    assert main(["--algo", algo, "--bits", "8", "--pop", "4", "--runs", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [r["algo"] for r in csv.DictReader(fh)] == [label]


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


def test_cli_help_shows_defaults(capsys, monkeypatch):
    def help_text():
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    text = help_text()
    for shown in ("(default cga)", "(default 100)", "(default 20)", "(default fifo)",
                  "(default 50)", "(default results.csv)", "(default 100 for onemax, 30 for binint)"):
        assert shown in text
    # a registered problem brings its default length into --help
    monkeypatch.setitem(FITNESS_FUNCTIONS, "zeros", lambda c: 0)
    monkeypatch.setitem(DEFAULT_BITS, "zeros", 17)
    assert "(default 100 for onemax, 30 for binint, 17 for zeros)" in help_text()


def test_cli_policy_choices_are_the_cache_policies(tmp_path, monkeypatch):
    for policy in CachePolicy:
        out = tmp_path / f"{policy.value}.csv"
        argv = ["--bits", "6", "--pop", "4", "--cache", "2", "--runs", "1", "--policy", policy.value, "--out", str(out)]
        assert main(argv) == 0
        assert next(csv.DictReader(out.read_text().splitlines()))["policy"] == policy.value
    # a policy added to the enum needs no edit of the parser
    extended = enum.Enum("CachePolicy", {p.name: p.value for p in CachePolicy} | {"MRU": "mru"})
    monkeypatch.setattr(cli, "CachePolicy", extended)
    assert build_parser().parse_args(["--policy", "mru"]).policy == "mru"


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


@pytest.mark.parametrize("trace", ["same.csv", "./same.csv", "{tmp}/same.csv", "link.csv", "hard.csv"])
def test_cli_rejects_out_and_trace_naming_one_file(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.chdir(tmp_path)
    os.symlink("same.csv", "link.csv")  # names the same file as same.csv
    if trace == "hard.csv":  # a hard link needs an existing file
        (tmp_path / "same.csv").write_text("kept\n")
        os.link("same.csv", "hard.csv")
    code = main(["--pop", "4", "--bits", "8", "--runs", "2", "--cache", "0,2",
                 "--out", "same.csv", "--trace", trace.format(tmp=tmp_path)])
    assert code == 2
    assert "error: --out and --trace name the same file: same.csv" in capsys.readouterr().err
    if trace == "hard.csv":
        assert (tmp_path / "same.csv").read_text() == "kept\n"
    else:
        assert not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize(
    "name,extra,argv,other",
    [
        ("run.cfg", "", ["--out", "run.cfg"], "--out"),
        ("run.cfg", "", ["--trace", "./run.cfg"], "--trace"),
        ("results.csv", "", [], "--out"),  # the default --out
        ("self.cfg", "out=self.cfg\n", [], "--out"),  # named by the file itself
        ("run.cfg", "", ["--out", "link.cfg"], "--out"),  # a symlink to the config
        ("run.cfg", "", ["--out", "hard.cfg"], "--out"),  # a hard link to the config
    ],
    ids=["out", "trace", "default-out", "out-in-file", "out-symlink", "out-hardlink"],
)
def test_cli_never_overwrites_its_config_file(tmp_path, monkeypatch, capsys, name, extra, argv, other):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / name
    config.write_text("bits=8\npop=4\ncache=0,2\nruns=2\n" + extra)
    os.symlink(name, "link.cfg")
    os.link(name, "hard.cfg")
    before = config.read_bytes()
    code = main(["--config", name] + argv)
    assert code == 2
    assert f"error: --config and {other} name the same file: {name}" in capsys.readouterr().err
    assert config.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted([name, "link.cfg", "hard.cfg"])


@pytest.mark.parametrize("flag", ["--out", "--trace"])
@pytest.mark.parametrize("target,message", [
    ("missing/x.csv", "names a file in a missing directory"),
    ("a_directory", "names a directory"),
    ("", "names a directory"),
], ids=["missing-directory", "directory", "empty"])
def test_cli_checks_output_paths_before_the_sweep(tmp_path, monkeypatch, capsys, flag, target, message):
    monkeypatch.chdir(tmp_path)
    calls = []
    run = Variant.run
    monkeypatch.setattr(Variant, "run", lambda self, *args, **kw: calls.append(args) or run(self, *args, **kw))
    (tmp_path / "a_directory").mkdir()
    paths = {"--out": "r.csv", "--trace": "runs.csv", flag: target}
    code = main(["--bits", "8", "--pop", "4", "--runs", "2", "--cache", "0,2",
                 "--out", paths["--out"], "--trace", paths["--trace"]])
    assert code == 2
    assert f"error: {flag} {message}: {target!r}" in capsys.readouterr().err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["a_directory"]


def test_cli_rejects_an_empty_config_path_before_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(Variant, "run", lambda self, *args, **kw: calls.append(args))
    code = main(["--config", "", "--bits", "8", "--pop", "4", "--runs", "1", "--cache", "0", "--out", "x.csv"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == []


def test_cli_reports_errors(tmp_path, capsys):
    code = main(["--bits", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


NAN_PREFIX = "cga on nan: bits=6 pop=4 capacity=2 run=0 seed=9: "


@pytest.fixture
def nan_problem(monkeypatch):
    monkeypatch.setitem(FITNESS_FUNCTIONS, "nan", lambda c: float("nan"))


def test_run_cell_names_the_cell_and_seed_of_a_value_error(nan_problem):
    config = small_config(problem="nan", bits=6, n_values=(4,), capacities=(2,))
    with pytest.raises(ValueError) as err:
        run_cell(config, 4, 2)
    assert str(err.value).startswith(NAN_PREFIX)
    assert str(err.value).endswith("is NaN")
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value) == NAN_PREFIX + str(err.value.__cause__)


def test_cli_names_the_cell_and_seed_of_a_value_error(nan_problem, tmp_path, capsys):
    code = main(["--problem", "nan", "--bits", "6", "--pop", "4", "--cache", "2",
                 "--runs", "3", "--seed", "9", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert f"error: {NAN_PREFIX}" in capsys.readouterr().err


CAP_MESSAGE = "pe-cga on onemax: bits=60 pop=60 capacity=4 run=0 seed=5: not converged after 3 iterations"


@pytest.fixture
def cap_of_three(monkeypatch):
    monkeypatch.setattr(algorithms, "DEFAULT_ITERATION_CAP", 3)


def test_run_cell_names_the_cell_and_seed_of_an_iteration_limit_error(cap_of_three):
    config = small_config(variant=Variant("pe-cga"), bits=60, n_values=(60,), base_seed=5)
    with pytest.raises(IterationLimitError) as err:
        run_cell(config, 60, 4)
    assert str(err.value) == CAP_MESSAGE
    assert err.value.iterations == 3
    assert isinstance(err.value.__cause__, IterationLimitError)
    assert str(err.value.__cause__) == "not converged after 3 iterations"
    # pickles, so a multiprocessing pool can pass it back from a worker
    copy = pickle.loads(pickle.dumps(err.value))
    assert str(copy) == CAP_MESSAGE
    assert copy.iterations == 3


def test_cli_names_the_cell_and_seed_of_an_iteration_limit_error(cap_of_three, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["--algo", "pe-cga", "--bits", "60", "--pop", "60", "--cache", "4",
                 "--runs", "1", "--seed", "5", "--out", str(out)])
    assert code == 2
    assert f"error: {CAP_MESSAGE}" in capsys.readouterr().err
    assert not out.exists()


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
