"""Outside-in tracer: times calls into compactga's public functions.

The package is not changed. While a ``Tracer`` is active, each traced
function is replaced, at every place the sweep path looks it up, by a
wrapper that records one span (name, parent, start, end, note) and calls the
original; leaving the ``with`` block puts every original back.

Two lookups need care. The runners call ``evaluator(x)``, which resolves to
``CachedEvaluator.__call__``, an alias bound when the class was created, so
the alias itself is wrapped. ``cli`` imported ``sweep`` and ``write_csv`` by
name and ``sweep`` finds ``run_cell`` in the harness module globals, so the
names are replaced in those namespaces.

Spans are kept in flat arrays in memory and written out by ``write``. The
``note`` of a span carries one number the layer metrics need: the variate
count of an RNG draw, 1 for an update whose winner equals its loser, the
byte size of a written CSV, or 1 for a run whose (variant, problem, bits,
pop, seed) was already run under this tracer.
"""

from __future__ import annotations

import json
import os
import time
from array import array

from compactga import algorithms, cache, chromosome, cli, harness, problems, pv

SPANS = (
    "cli.main",
    "harness.sweep",
    "harness.run_cell",
    "harness.write_csv",
    "algorithms.run",
    "pv.sample",
    "pv.update",
    "pv.is_converged",
    "chromosome.rng",
    "chromosome.init",
    "cache.lookup",
    "cache.evict",
    "problems.fitness",
)
_CODE = {name: code for code, name in enumerate(SPANS)}


def _csv_bytes(args, result):
    return os.path.getsize(args[1])


def _same_pair(args, result):
    return int(args[1].packed == args[2].packed)


def _variates(args, result):
    return args[1]


class Tracer:
    """Context manager that wraps the package's functions for one traced pass."""

    def __init__(self):
        self.names = array("b")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.notes = array("q")
        self._stack = [-1]
        self._seen_runs = set()
        self._saved = []
        pv_cls = pv.ProbabilityVector
        self._targets = [
            ("cli.main", cli, "main", None),
            ("harness.sweep", harness, "sweep", None),
            ("harness.sweep", cli, "sweep", None),
            ("harness.run_cell", harness, "run_cell", None),
            ("harness.write_csv", harness, "write_csv", _csv_bytes),
            ("harness.write_csv", cli, "write_csv", _csv_bytes),
            ("algorithms.run", algorithms.Variant, "run", self._repeated_run),
            ("pv.sample", pv_cls, "sample", None),
            ("pv.update", pv_cls, "update", _same_pair),
            ("pv.is_converged", pv_cls, "is_converged", None),
            ("chromosome.rng", chromosome.Rng, "uniforms", _variates),
            ("chromosome.init", chromosome.Chromosome, "__init__", None),
            ("cache.lookup", cache.CachedEvaluator, "__call__", None),
            ("cache.evict", cache.FitnessCache, "evict_front", None),
        ] + [
            ("problems.fitness", problems.FITNESS_FUNCTIONS, name, None)
            for name in problems.FITNESS_FUNCTIONS
        ]

    def _repeated_run(self, args, result):
        variant, bits, pop, evaluator, rng = args
        key = (variant, evaluator.fitness_fn, bits, pop, rng.seed)
        if key in self._seen_runs:
            return 1
        self._seen_runs.add(key)
        return 0

    def _wrap(self, span: str, fn, note):
        code = _CODE[span]
        names, parents, starts, ends, notes = self.names, self.parents, self.starts, self.ends, self.notes
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            notes.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def __enter__(self):
        for span, owner, key, note in self._targets:
            if isinstance(owner, dict):
                original = owner[key]
                owner[key] = self._wrap(span, original, note)
            else:
                # vars() gives the class's own function object, so restoring
                # puts back exactly what was there (the __call__ alias too)
                original = vars(owner)[key]
                setattr(owner, key, self._wrap(span, original, note))
            self._saved.append((owner, key, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        return False

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays in header order."""
        header = {
            "spans": len(self.names),
            "span_names": list(SPANS),
            "arrays": [["name", "b"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"], ["note", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends, self.notes):
                arr.tofile(fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times from the recorded spans.

        A span's self time is its duration minus its children's durations.
        A cache lookup that called the fitness function is a miss, any other
        is a hit; ``cache.miss_ns`` excludes the fitness call.
        """
        names, parents, starts, ends, notes = self.names, self.parents, self.starts, self.ends, self.notes
        n = len(names)
        fitness, lookup = _CODE["problems.fitness"], _CODE["cache.lookup"]
        child_ns = array("q", bytes(8 * n))
        fitness_ns = array("q", bytes(8 * n))
        called_fitness = bytearray(n)
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                d = ends[i] - starts[i]
                child_ns[parent] += d
                if names[i] == fitness:
                    fitness_ns[parent] += d
                    called_fitness[parent] = 1

        calls = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        total_ns = [0] * len(SPANS)
        note_sum = [0] * len(SPANS)
        hits = hit_ns = misses = miss_ns = 0
        for i in range(n):
            code = names[i]
            d = ends[i] - starts[i]
            calls[code] += 1
            total_ns[code] += d
            self_ns[code] += d - child_ns[i]
            note_sum[code] += notes[i]
            if code == lookup:
                if called_fitness[i]:
                    misses += 1
                    miss_ns += d - fitness_ns[i]
                else:
                    hits += 1
                    hit_ns += d

        def c(span):
            return calls[_CODE[span]]

        def self_s(*spans):
            return sum(self_ns[_CODE[s]] for s in spans) / 1e9

        def note(span):
            return note_sum[_CODE[span]]

        runs = c("algorithms.run")
        lookups = c("cache.lookup")
        return {
            "harness.redundant_run_frac": note("algorithms.run") / runs,
            "pv.sample.calls": c("pv.sample"),
            "pv.sample.self_s": self_s("pv.sample"),
            "chromosome.init.calls": c("chromosome.init"),
            "chromosome.init.self_s": self_s("chromosome.init"),
            "pv.update.calls": c("pv.update"),
            "pv.update.self_s": self_s("pv.update"),
            "pv.update.noop_frac": note("pv.update") / c("pv.update"),
            "pv.is_converged.calls": c("pv.is_converged"),
            "pv.is_converged.self_s": self_s("pv.is_converged"),
            "chromosome.rng.calls": c("chromosome.rng"),
            "chromosome.rng.variates": note("chromosome.rng"),
            "chromosome.rng.self_s": self_s("chromosome.rng"),
            "problems.calls": c("problems.fitness"),
            "problems.self_s": self_s("problems.fitness"),
            "cache.hit_ns": hit_ns / hits if hits else 0.0,
            "cache.miss_ns": miss_ns / misses if misses else 0.0,
            "cache.self_s": self_s("cache.lookup", "cache.evict"),
            "cache.evictions": c("cache.evict"),
            "cache.lookups": lookups,
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / lookups,
            "algorithms.runs": runs,
            # every runner tests convergence once per iteration plus once to stop
            "algorithms.iterations": c("pv.is_converged") - runs,
            "algorithms.self_s": self_s("algorithms.run"),
            "harness.self_s": self_s("harness.sweep", "harness.run_cell", "harness.write_csv"),
            "harness.write_csv.s": total_ns[_CODE["harness.write_csv"]] / 1e9,
            "harness.write_csv.bytes": note("harness.write_csv"),
            "cli.self_s": self_s("cli.main"),
        }
