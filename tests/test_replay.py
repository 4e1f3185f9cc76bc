"""Capacity replay: a sweep samples each replicate once and replays it at the other capacities.

``ENGINES`` names every sweep engine that must give exactly what live
``run_cell`` calls give. Another engine joins the equivalence test by adding
an entry there.
"""

import csv
import itertools
import os
import sys

import pytest

from compactga import ExperimentConfig, ProbabilityVector, Variant, cli, harness, run_cell, sweep
from compactga.problems import FITNESS_FUNCTIONS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

ENGINES = {"sweep": sweep}

VARIANTS = [
    Variant("cga"),
    Variant("cga-t", s=3),
    Variant("cga-rr", m=3),
    Variant("pe-cga"),
    Variant("ne-cga"),
]


def live_sweep(config, per_run):
    """Every cell run live, one ``run_cell`` call per cell, in (pop, capacity) order."""
    return [run_cell(config, pop, capacity, per_run)
            for pop in config.n_values for capacity in config.capacities]


def config_of(variant=Variant("cga"), problem="onemax", bits=12, n_values=(6, 12),
              capacities=tuple(range(21)), policy="fifo", runs=3, base_seed=11):
    return ExperimentConfig(variant, problem, bits, n_values, capacities, policy, runs, base_seed)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("policy", ["fifo", "lru"])
@pytest.mark.parametrize("problem,bits", [("onemax", 12), ("binint", 10)])
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.label)
def test_sweep_equals_live_run_cell_at_every_capacity(engine, variant, problem, bits, policy):
    config = config_of(variant, problem, bits, policy=policy)
    rows, live_rows = [], []
    cells = ENGINES[engine](config, rows)
    live_cells = live_sweep(config, live_rows)
    assert len(cells) == len(live_cells) == 2 * 21
    for cell, live in zip(cells, live_cells):
        assert cell == live
    assert len(rows) == len(live_rows) == 2 * 21 * 3
    for row, live in zip(rows, live_rows):
        assert row == live


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv", [
    ["--algo", "cga-rr", "--m", "3", "--policy", "lru"],
    ["--algo", "ne-cga", "--problem", "binint", "--bits", "10"],
])
def test_a_multi_capacity_call_writes_what_per_capacity_calls_write(tmp_path, argv, capsys):
    common = argv + ["--pop", "6,12", "--runs", "3", "--seed", "4"]
    capacities = (0, 3, 20)
    out, trace = tmp_path / "all.csv", tmp_path / "all_runs.csv"
    assert cli.main(common + ["--cache", ",".join(map(str, capacities)),
                              "--out", str(out), "--trace", str(trace)]) == 0
    header, *cells = read_csv(out)
    runs_header, *runs = read_csv(trace)
    per_capacity_cells, per_capacity_runs = [], []
    for capacity in capacities:
        one, one_trace = tmp_path / f"{capacity}.csv", tmp_path / f"{capacity}_runs.csv"
        assert cli.main(common + ["--cache", str(capacity), "--out", str(one), "--trace", str(one_trace)]) == 0
        one_header, *one_cells = read_csv(one)
        one_runs_header, *one_runs = read_csv(one_trace)
        assert (one_header, one_runs_header) == (header, runs_header)
        per_capacity_cells += one_cells
        per_capacity_runs += one_runs

    def order(header, *columns):
        return lambda row: tuple(int(row[header.index(column)]) for column in columns)

    # the multi-capacity call orders its rows by (pop, capacity[, run]); a per-capacity call by (pop[, run])
    assert cells == sorted(per_capacity_cells, key=order(header, "pop", "capacity"))
    assert runs == sorted(per_capacity_runs, key=order(runs_header, "pop", "capacity", "run"))


@pytest.fixture
def sample_calls(monkeypatch):
    calls = []
    original = ProbabilityVector.sample

    def counting(self, rng):
        calls.append(None)
        return original(self, rng)

    monkeypatch.setattr(ProbabilityVector, "sample", counting)
    return calls


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.label)
def test_a_three_capacity_sweep_samples_as_often_as_one_capacity(variant, sample_calls):
    sweep(config_of(variant, capacities=(4,)))
    one = len(sample_calls)
    sample_calls.clear()
    sweep(config_of(variant, capacities=(0, 4, 16)))
    assert one > 0
    assert len(sample_calls) == one


@pytest.fixture
def flaky_problem(monkeypatch):
    """onemax plus a tenth of the number of calls so far, mod 3: a repeat call may differ."""
    calls = itertools.count()
    monkeypatch.setitem(FITNESS_FUNCTIONS, "flaky", lambda c: c.ones() + next(calls) % 3 / 10)


def test_a_replay_that_diverges_raises_naming_the_cell_and_seed(flaky_problem):
    config = config_of(problem="flaky", n_values=(8,), capacities=(0, 4), base_seed=9)
    with pytest.raises(RuntimeError) as err:
        sweep(config)
    message = str(err.value)
    assert message.startswith("cga on flaky: bits=12 pop=8 capacity=4 run=0 seed=9: ")
    assert "capacity 0" in message


def test_a_run_past_the_record_bound_runs_live_at_every_capacity(tmp_path, monkeypatch, sample_calls, capsys):
    argv = ["--algo", "pe-cga", "--pop", "6,12", "--cache", "0,3,20", "--runs", "3", "--seed", "2"]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv"), "--trace", str(tmp_path / "a_runs.csv")]) == 0
    replayed = len(sample_calls)
    sample_calls.clear()
    monkeypatch.setattr(harness, "_RECORD_BYTES", 0)
    assert cli.main(argv + ["--out", str(tmp_path / "b.csv"), "--trace", str(tmp_path / "b_runs.csv")]) == 0
    assert len(sample_calls) == 3 * replayed
    for a, b in (("a.csv", "b.csv"), ("a_runs.csv", "b_runs.csv")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def test_the_benchmark_tracer_counts_what_the_csv_counts(tmp_path, monkeypatch, capsys):
    """The benchmark's traced pass ties the CSV's runs, iterations, hits and
    misses to ``Variant.run`` spans, ``is_converged`` calls and lookup spans;
    a sweep engine that skips any of them fails here."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("tracer", "checks", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import checks
    from tracer import Tracer

    out = tmp_path / "r.csv"
    tracer = Tracer()
    with tracer:
        status = cli.main(["--algo", "cga-rr", "--m", "3", "--bits", "20", "--pop", "8,16",
                           "--cache", "0,4,16", "--runs", "3", "--out", str(out)])
    assert status == 0
    layers = tracer.layer_metrics()
    counted = checks.totals([checks.read_rows(str(out))])
    assert counted["runs"] == 2 * 3 * 3
    for key, metric in (("runs", "algorithms.runs"), ("hits", "cache.hits"),
                        ("misses", "cache.misses"), ("iterations", "algorithms.iterations")):
        assert layers[metric] == counted[key], metric
