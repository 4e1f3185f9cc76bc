"""compactga benchmark: one run of one workload.

    python3 perfbench/run.py --workload capacity-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. It starts one worker process (worker.py)
that runs the workload's passes. With ``--trace 0`` the worker also times
set-up in fresh interpreters between passes and the end-to-end metrics are
reported; with ``--trace 1`` it alternates untraced and traced passes and
the per-layer metrics are reported. Every pass's CSVs are checked (see
checks.py). Set-up and pass times are in seconds at the reference speed of
reference.py; the raw times are printed and recorded beside them.

The metric names and units printed are those listed in BENCHMARK.json. The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate. A record with the seed, the environment and every pass time is
written under ``.perfbench_out/``. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "compactga")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# well inside the 180 s a run may take, whatever --seconds asks for
WORKER_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def git_revision() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package's source files, which names the code outside git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one compactga benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"harness base seed; the CSV digests are checked at {DEFAULT_SEED}")
    parser.add_argument("--seconds", type=int, default=40, help="measuring time of the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced passes")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no compactga package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(OUT_ROOT, args.workload)
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = worker["metrics"]

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = worker["attempted"], worker["failed"]
    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": worker["numpy"],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": worker["problems"],
        "measured": measured,
    }
    with open(os.path.join(out_dir, f"seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in worker["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'wall_s':28s} {measured['wall_s']:.6g} s (raw, not scaled to the reference speed)")
        print(f"  {'runs_per_s':28s} {measured['runs_per_s']:.6g} 1/s (raw)")
        print(f"  {'raw_setup_s':28s} {measured['raw_setup_s']:.6g} s (raw)")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} failed of {attempted} runs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
