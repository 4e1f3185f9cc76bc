"""Runs the passes of one benchmark run in a process of its own.

Started by ``run.py`` with the package source on ``PYTHONPATH``. It drives
``compactga.cli.main`` sequentially, checks every pass's CSVs, and prints
one JSON object on its last stdout line.

After every CLI call it runs the reference probe (reference.py), once per
``PROBE_EVERY_S`` of the call's time. The mean pass time is scaled by
``PROBE_REF_S / mean probe time`` to seconds at the reference speed, which
takes the host's speed drift out of it. The median set-up time is scaled
by ``IMPORT_REF_S / median time of the reference import``, which runs in a
fresh interpreter next to each set-up sample. Raw times are reported too.

Untraced mode runs passes until ``--seconds`` is used up (at least
``MIN_PASSES``), times set-up in fresh interpreters between passes, and
reports end-to-end numbers. Traced mode alternates an untraced and a
traced pass (at least one pair) and reports the per-layer metrics of the
traced passes, plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import reference
from tracer import Tracer
from workloads import WORKLOADS

from compactga import cli

MIN_PASSES = 3
# one probe per this much CLI time, at least one per call, so that long
# calls get as many speed samples as several short ones
PROBE_EVERY_S = 0.25
SETUP_SAMPLES_PER_PASS = 3
SETUP_TIMEOUT_S = 30
TIMED_CODE = """
import time
start = time.perf_counter()
{}
print(time.perf_counter() - start)
"""
SETUP_CODE = TIMED_CODE.format("import compactga.cli\ncompactga.cli.build_parser()")
REFERENCE_IMPORT_CODE = TIMED_CODE.format(reference.REFERENCE_IMPORT)


class Run:
    def __init__(self, workload, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.paths = [os.path.join(out_dir, f"{i}.csv") for i in range(len(workload.invocations))]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None

    def one_pass(self) -> tuple[float, list[float], list[list[dict]]]:
        """Run every invocation once, probing the host's speed after each.

        Returns (wall seconds without the probes, probe seconds, CSV rows).
        """
        for path in self.paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        failed_runs = 0
        wall, probes = 0.0, []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for inv, path in zip(self.workload.invocations, self.paths):
                start = time.perf_counter()
                # looked up on the module each time, so a tracer's wrapper is seen
                status = cli.main(inv.argv(self.seed, path))
                elapsed = time.perf_counter() - start
                if status != 0:
                    failed_runs += inv.total_runs
                wall += elapsed
                probes += [reference.probe() for _ in range(max(1, round(elapsed / PROBE_EVERY_S)))]
        problems, rows, digests = checks.check_pass(self.workload, self.paths, self.seed)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("CSVs differ between passes of the same seed")
        self.attempted += self.workload.runs_per_pass
        self.failed += failed_runs + len(problems)
        self.problems += problems
        return wall, probes, rows

    def traced_pass(self) -> tuple[float, list[float], dict[str, float]]:
        """Returns (wall seconds, probe seconds, layer metrics)."""
        tracer = Tracer()
        with tracer:
            wall, probes, rows = self.one_pass()
        tracer.write(os.path.join(self.out_dir, "spans.bin"))
        layers = tracer.layer_metrics()
        # the tracer counts at the call boundaries; the CSV counts inside the package
        counted = checks.totals(rows)
        for key, metric in (("runs", "algorithms.runs"), ("hits", "cache.hits"),
                            ("misses", "cache.misses"), ("iterations", "algorithms.iterations")):
            if counted[key] != layers[metric]:
                self.problems.append(f"traced {metric} = {layers[metric]} but the CSVs give {counted[key]}")
                self.failed += 1
        return wall, probes, layers


def at_reference_speed(walls: list[float], probes: list[float]) -> float:
    """Mean pass time scaled to the reference speed.

    The ratio of the means is steadier than a median of per-pass ratios,
    because each pass has only a few probes and each probe is short.
    """
    return statistics.fmean(walls) * reference.PROBE_REF_S / statistics.fmean(probes)


def _enough(start: float, budget: float, per_round: list[float], minimum: int) -> bool:
    """True once `minimum` rounds ran and another median-length round would overrun."""
    if len(per_round) < minimum:
        return False
    return time.perf_counter() - start + statistics.median(per_round) > budget


def fresh_interpreter_seconds(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup_sample() -> tuple[float, float]:
    """Seconds to import compactga and build the CLI parser in a fresh
    interpreter, and seconds of the reference import in another."""
    return fresh_interpreter_seconds(SETUP_CODE), fresh_interpreter_seconds(REFERENCE_IMPORT_CODE)


def measure(run: Run, seconds: float) -> dict[str, float]:
    # Set-up samples are taken between passes rather than all at the start,
    # so both are averaged over the same stretch of a host whose speed drifts.
    walls, probes, pass_probes, setups, ref_imports, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    while not _enough(start, seconds, rounds, MIN_PASSES):
        t = time.perf_counter()
        wall, pass_probe, rows = run.one_pass()
        walls.append(wall)
        probes += pass_probe
        pass_probes.append(statistics.fmean(pass_probe))
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setup, ref_import = setup_sample()
            setups.append(setup)
            ref_imports.append(ref_import)
        rounds.append(time.perf_counter() - t)
    # every pass wrote the same CSVs (one_pass checks that), so the last one stands for all
    counted = checks.totals(rows)
    wall_s = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups) * reference.IMPORT_REF_S / statistics.median(ref_imports),
        "wall_ref_s": at_reference_speed(walls, probes),
        "cache_speedup": counted["lookups"] / counted["evaluations"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "runs_per_s": run.workload.runs_per_pass / wall_s,
        "pass_walls_s": walls,
        "pass_mean_probe_s": pass_probes,
        "setup_samples_s": setups,
        "reference_import_samples_s": ref_imports,
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    plain, plain_probes, traced, traced_probes, layers, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    while not _enough(start, seconds, rounds, 1):
        t = time.perf_counter()
        wall, probes, _ = run.one_pass()
        plain.append(wall)
        plain_probes += probes
        wall, probes, metrics = run.traced_pass()
        traced.append(wall)
        traced_probes += probes
        layers.append(metrics)
        rounds.append(time.perf_counter() - t)
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    out["trace.overhead_pct"] = 100.0 * (at_reference_speed(traced, traced_probes)
                                         / at_reference_speed(plain, plain_probes) - 1.0)
    out["pass_walls_s"] = plain
    out["traced_walls_s"] = traced
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.out_dir)
    metrics = (measure_traced if args.trace else measure)(run, args.seconds)
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "numpy": sys.modules["numpy"].__version__,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
