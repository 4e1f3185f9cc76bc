"""Capacity replay: a sweep runs each replicate live once and replays it at the other capacities.

Each other capacity's cache follows the live run: it looks up every
chromosome the live run looks up, as the live run looks it up. The replay
then steps through as many iterations as the live run made and loads the
live run's final numerators at the last, sampling, looking up, competing
and updating nothing.

``ENGINES`` names every sweep engine that must give exactly what live
``run_cell`` calls give. Another engine joins the equivalence tests, the
fixed grid and the random configurations, by adding an entry there.
"""

import csv
import itertools
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactga import (CachedEvaluator, Chromosome, ExperimentConfig, FitnessCache, ProbabilityVector,
                       Rng, Variant, algorithms, cli, harness, run_cell, sweep)
from compactga.problems import FITNESS_FUNCTIONS, fitness_function

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


@st.composite
def variants(draw):
    kind = draw(st.sampled_from(algorithms.VARIANT_KINDS))
    if kind == "cga-t":
        return Variant(kind, s=draw(st.integers(2, 5)))
    if kind == "cga-rr":
        return Variant(kind, m=draw(st.integers(2, 5)))
    if kind == "ne-cga":
        return Variant(kind, eta=draw(st.none() | st.integers(1, 6)))
    return Variant(kind)


@st.composite
def sweep_configs(draw):
    runs = draw(st.integers(1, 3))
    return ExperimentConfig(
        variant=draw(variants()),
        problem=draw(st.sampled_from(["onemax", "binint"])),
        bits=draw(st.integers(1, 24)),
        n_values=draw(st.lists(st.integers(2, 16), min_size=1, max_size=3, unique=True)),
        capacities=draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True)),
        policy=draw(st.sampled_from(["fifo", "lru"])),
        runs=runs,
        base_seed=draw(st.integers(0, 2**64 - runs)),
    )


# derandomized, so every run of the suite draws the same configurations
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(config=sweep_configs())
def test_every_engine_equals_live_run_cell_on_random_configs(config):
    live_rows = []
    live_cells = live_sweep(config, live_rows)
    for engine in sorted(ENGINES):
        rows = []
        assert ENGINES[engine](config, rows) == live_cells, engine
        assert rows == live_rows, engine
    for pop in config.n_values:
        # the trajectory, and so its length and its lookups, is the same at every capacity
        assert len({(cell.iterations_mean, cell.neval_nocache) for cell in live_cells if cell.pop == pop}) == 1
    if config.policy.value == "lru":
        # LRU is a stack algorithm: a larger cache never misses more, run by run
        for pop in config.n_values:
            for r in range(config.runs):
                misses = [row["misses"] for row in live_rows if (row["pop"], row["run"]) == (pop, r)]
                assert misses == sorted(misses, reverse=True)


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
def update_calls(monkeypatch):
    calls = []
    original = ProbabilityVector.update

    def counting(self, winner, loser):
        calls.append(None)
        return original(self, winner, loser)

    monkeypatch.setattr(ProbabilityVector, "update", counting)
    return calls


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.label)
def test_a_three_capacity_sweep_updates_as_often_as_one_capacity(variant, update_calls):
    sweep(config_of(variant, capacities=(4,)))
    one = len(update_calls)
    update_calls.clear()
    sweep(config_of(variant, capacities=(0, 4, 16)))
    assert one > 0
    assert len(update_calls) == one


@pytest.mark.parametrize("bits", [400, 1000, 2000])
def test_a_long_genome_keeps_ne_cga_at_n100_on_the_replay_path(bits, sample_calls):
    # a sweep keeps nothing per lookup, so no genome length sends a replicate back to live runs
    sweep(config_of(Variant("ne-cga"), bits=bits, n_values=(100,), capacities=(4,), runs=2))
    one = len(sample_calls)
    sample_calls.clear()
    sweep(config_of(Variant("ne-cga"), bits=bits, n_values=(100,), capacities=(0, 4), runs=2))
    assert len(sample_calls) == one


def test_an_update_on_a_replayed_vector_changes_neither_the_live_run_nor_a_later_replay():
    config = config_of(n_values=(8,), capacities=(0,), runs=1)
    onemax = fitness_function("onemax")
    live = harness._run(config, CachedEvaluator(onemax, FitnessCache(0, "fifo")), 8, 0, Rng(config.base_seed))
    final = live.final_pv

    def replayed():
        pv = ProbabilityVector(config.bits, 8)
        assert [list(pairs) for pairs in harness._replay(live, pv, None, None)] == [[]] * live.iterations
        assert pv.numerators == final
        return pv

    first = replayed()
    first.update(Chromosome([0] * config.bits), Chromosome([1] * config.bits))
    assert first.numerators != final
    assert live.final_pv == final
    assert replayed().numerators == final


def test_a_sweep_passes_steps_only_to_the_replays(monkeypatch):
    calls = []
    run = Variant.run

    def recorded(self, length, population_size, evaluator, rng, **kwargs):
        calls.append((evaluator.cache.capacity, kwargs.get("steps") is None))
        return run(self, length, population_size, evaluator, rng, **kwargs)

    monkeypatch.setattr(Variant, "run", recorded)
    sweep(config_of(capacities=(0, 4, 16), n_values=(6,), runs=3))
    assert calls == [(0, True), (4, False), (16, False)] * 3


@pytest.fixture
def step_calls(monkeypatch):
    """One entry per step that a kind's generator yields and per ``compete`` call."""
    calls = []

    def counted(kind):
        def steps(*args):
            for pairs in kind(*args):
                calls.append(None)
                yield pairs
        return steps

    for name in ("_round_robin", "_tournament", "_elitist"):
        monkeypatch.setattr(algorithms, name, counted(getattr(algorithms, name)))
    compete = algorithms.compete
    monkeypatch.setattr(algorithms, "compete", lambda *args: calls.append(None) or compete(*args))
    return calls


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.label)
def test_a_three_capacity_sweep_competes_as_often_as_one_capacity(variant, step_calls):
    sweep(config_of(variant, capacities=(4,)))
    one = len(step_calls)
    step_calls.clear()
    sweep(config_of(variant, capacities=(0, 4, 16)))
    assert one > 0
    assert len(step_calls) == one


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


def test_the_cli_reports_a_replay_that_diverges_as_an_error(flaky_problem, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["--problem", "flaky", "--bits", "12", "--pop", "8", "--cache", "0,4",
                     "--runs", "1", "--seed", "9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cga on flaky: bits=12 pop=8 capacity=4 run=0 seed=9: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def nan_on_repeat(monkeypatch):
    """onemax, but NaN when called twice in a row on one chromosome.

    At capacities (0, 4) the live run at capacity 0 calls it once per lookup,
    and capacity 4's follower, missing too, calls it again at the first.
    """
    last = [None]

    def fitness(c):
        repeat, last[0] = c == last[0], c
        return float("nan") if repeat else c.ones()

    monkeypatch.setitem(FITNESS_FUNCTIONS, "nan-on-repeat", fitness)


def test_a_follower_that_gets_nan_raises_naming_its_own_cell(nan_on_repeat):
    config = config_of(problem="nan-on-repeat", n_values=(8,), capacities=(0, 4), base_seed=9)
    with pytest.raises(RuntimeError) as err:
        sweep(config)
    assert str(err.value).startswith("cga on nan-on-repeat: bits=12 pop=8 capacity=4 run=0 seed=9: ")
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__).endswith("is NaN")


def test_the_cli_reports_a_follower_that_gets_nan_with_its_own_cell(nan_on_repeat, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["--problem", "nan-on-repeat", "--bits", "12", "--pop", "8", "--cache", "0,4",
                     "--runs", "1", "--seed", "9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cga on nan-on-repeat: bits=12 pop=8 capacity=4 run=0 seed=9: ")
    assert not out.exists()


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


def test_the_eviction_counter_and_the_tracer_count_every_eviction(tmp_path, monkeypatch, capsys):
    """A run's cache starts empty and stores every miss, so it evicts
    max(0, misses - capacity) entries; a live run and a replayed one alike."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    caches = []

    def kept(capacity, policy):
        caches.append(FitnessCache(capacity, policy))
        return caches[-1]

    monkeypatch.setattr(harness, "FitnessCache", kept)
    trace = tmp_path / "r_runs.csv"
    tracer = Tracer()
    with tracer:
        status = cli.main(["--algo", "ne-cga", "--problem", "binint", "--bits", "12", "--pop", "6,12",
                           "--cache", "0,2,5", "--policy", "lru", "--runs", "3", "--seed", "4",
                           "--out", str(tmp_path / "r.csv"), "--trace", str(trace)])
    assert status == 0
    header, *rows = read_csv(trace)
    capacity, misses = header.index("capacity"), header.index("misses")
    evictions = sum(max(0, int(row[misses]) - int(row[capacity])) for row in rows if int(row[capacity]))
    assert len(caches) == len(rows) == 2 * 3 * 3
    assert evictions > 0
    assert tracer.layer_metrics()["cache.evictions"] == evictions
    assert sum(cache.evictions for cache in caches) == evictions
