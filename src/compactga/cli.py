"""Command-line sweep runner.

Flags mirror the config-file keys; values given on the command line override
the file. The config file is line-oriented ``key=value`` with ``#`` comments.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .algorithms import VARIANT_KINDS, IterationLimitError, Variant
from .harness import ExperimentConfig, sweep, write_csv, write_per_run_csv
from .problems import FITNESS_FUNCTIONS

DEFAULTS = {
    "algo": "cga",
    "problem": "onemax",
    "pop": "100",
    "cache": "20",
    "policy": "fifo",
    "runs": "50",
    "seed": "1",
    "out": "results.csv",
    "s": "4",
    "m": "4",
}

DEFAULT_BITS = {"onemax": "100", "binint": "30"}


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list like '10,20,30'."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def load_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactga",
        description="Run a compact-GA experiment sweep and write per-cell aggregates as CSV.",
    )
    parser.add_argument("--algo", choices=VARIANT_KINDS,
                        help="algorithm variant (default cga)")
    parser.add_argument("--s", type=int, help="tournament size for cga-t (default 4)")
    parser.add_argument("--m", type=int, help="round-robin size for cga-rr (default 4)")
    parser.add_argument("--eta", type=int,
                        help="elite survival limit for ne-cga (default ceil(pop/10))")
    parser.add_argument("--problem", choices=list(FITNESS_FUNCTIONS),
                        help="fitness function (default onemax)")
    parser.add_argument("--bits", type=int,
                        help="chromosome length (default 100 for onemax, 30 for binint)")
    parser.add_argument("--pop", type=parse_int_list, metavar="LIST",
                        help="comma-separated population sizes (default 100)")
    parser.add_argument("--cache", type=parse_int_list, metavar="LIST",
                        help="comma-separated cache capacities, 0 = no cache (default 20)")
    parser.add_argument("--policy", choices=["fifo", "lru"],
                        help="cache replacement policy (default fifo)")
    parser.add_argument("--runs", type=int, help="replicates per cell (default 50)")
    parser.add_argument("--seed", type=int,
                        help="base seed; replicate r uses seed+r (default 1)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default results.csv)")
    parser.add_argument("--config", metavar="PATH",
                        help="optional key=value config file; flags override it")
    parser.add_argument("--trace", metavar="PATH",
                        help="also write per-replicate detail CSV to this path")
    return parser


def _resolve(args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, str]:
    known = set(DEFAULTS) | {"eta", "bits"}
    unknown = set(file_values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(DEFAULTS)
    merged.update(file_values)
    for key in ("algo", "problem", "policy", "out", "s", "m", "eta", "bits", "runs", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = str(val)
    for key in ("pop", "cache"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = ",".join(str(v) for v in val)
    merged.setdefault("bits", DEFAULT_BITS[merged["problem"]])
    return merged


def config_from_values(values: dict[str, str]) -> ExperimentConfig:
    algo = values["algo"]
    variant = Variant(
        algo,
        s=int(values["s"]) if algo == "cga-t" else None,
        m=int(values["m"]) if algo == "cga-rr" else None,
        eta=int(values["eta"]) if algo == "ne-cga" and "eta" in values else None,
    )
    return ExperimentConfig(
        variant=variant,
        problem=values["problem"],
        bits=int(values["bits"]),
        n_values=parse_int_list(values["pop"]),
        capacities=parse_int_list(values["cache"]),
        policy=values["policy"],
        runs=int(values["runs"]),
        base_seed=int(values["seed"]),
        output_path=values["out"],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        config = config_from_values(_resolve(args, file_values))
        per_run = [] if args.trace else None
        result = sweep(config, per_run)
        write_csv(result, config.output_path)
        if args.trace:
            write_per_run_csv(per_run, args.trace)
    except (ValueError, OSError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {config.output_path} ({len(result.cells)} cells, {config.runs} runs each)")
    if args.trace:
        print(f"wrote {args.trace} ({len(per_run)} replicate rows)")
    return 0
