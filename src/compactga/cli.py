"""Command-line sweep runner.

A config file holds line-oriented ``key=value`` pairs with ``#`` comments,
one key per flag (``pop=6,12`` for ``--pop 6,12``). Its pairs are parsed by
the same parser as the flags, ahead of the command line, so a file value
gets the same checks as the flag and a flag given on the command line
overrides it.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .algorithms import VARIANT_KINDS, VARIANT_PARAMETERS, IterationLimitError, Variant
from .harness import ExperimentConfig, _Diverged, sweep, write_csv
from .problems import DEFAULT_BITS, FITNESS_FUNCTIONS

# s for cga-t and m for cga-rr when the flag is not given
DEFAULT_GROUP_SIZE = 4

# the flags a config file may set; --config and --trace are command-line only
CONFIG_KEYS = ("algo", "s", "m", "eta", "problem", "bits", "pop", "cache", "policy", "runs", "seed", "out")


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list like '10,20,30'."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def load_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; blank lines and '#' comments are ignored.

    Raises ValueError on a line without '=', on a key given twice and on a
    key that is not one of ``CONFIG_KEYS``.
    """
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = value.strip()
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactga",
        description="Run a compact-GA experiment sweep and write per-cell aggregates as CSV.",
    )
    parser.add_argument("--algo", choices=VARIANT_KINDS, default="cga",
                        help="algorithm variant (default %(default)s)")
    parser.add_argument("--s", type=int,
                        help=f"tournament size, cga-t only (default {DEFAULT_GROUP_SIZE})")
    parser.add_argument("--m", type=int,
                        help=f"round-robin size, cga-rr only (default {DEFAULT_GROUP_SIZE})")
    parser.add_argument("--eta", type=int,
                        help="elite survival limit, ne-cga only (default ceil(pop/10))")
    parser.add_argument("--problem", choices=list(FITNESS_FUNCTIONS), default="onemax",
                        help="fitness function (default %(default)s)")
    defaults = ", ".join(f"{bits} for {name}" for name, bits in DEFAULT_BITS.items())
    parser.add_argument("--bits", type=int, help=f"chromosome length (default {defaults})")
    parser.add_argument("--pop", type=parse_int_list, metavar="LIST", default="100",
                        help="comma-separated population sizes (default %(default)s)")
    parser.add_argument("--cache", type=parse_int_list, metavar="LIST", default="20",
                        help="comma-separated cache capacities, 0 = no cache (default %(default)s)")
    parser.add_argument("--policy", choices=["fifo", "lru"], default="fifo",
                        help="cache replacement policy (default %(default)s)")
    parser.add_argument("--runs", type=int, default=50,
                        help="replicates per cell (default %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed; replicate r uses seed+r (default %(default)s)")
    parser.add_argument("--out", metavar="PATH", default="results.csv",
                        help="output CSV path (default %(default)s)")
    parser.add_argument("--config", metavar="PATH",
                        help="optional key=value config file; flags override it")
    parser.add_argument("--trace", metavar="PATH",
                        help="also write per-replicate detail CSV to this path")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The sweep described by parsed flags.

    Every given s, m or eta goes to the variant, which raises ValueError for
    one its kind does not take; cga-t and cga-rr default to size 4. Without
    ``--bits``, a problem with no ``DEFAULT_BITS`` entry raises ValueError.
    """
    if args.bits is None and args.problem not in DEFAULT_BITS:
        raise ValueError(f"problem {args.problem!r} has no default length; give --bits")
    params = {key: getattr(args, key) for key in ("s", "m", "eta") if getattr(args, key) is not None}
    name = VARIANT_PARAMETERS.get(args.algo, (None,))[0]
    if name in ("s", "m"):
        params.setdefault(name, DEFAULT_GROUP_SIZE)
    return ExperimentConfig(
        variant=Variant(args.algo, **params),
        problem=args.problem,
        bits=DEFAULT_BITS[args.problem] if args.bits is None else args.bits,
        n_values=args.pop,
        capacities=args.cache,
        policy=args.policy,
        runs=args.runs,
        base_seed=args.seed,
    )


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file: by inode when both exist, so a hard
    link counts, else by resolved path, so a symlink names its target."""
    if os.path.exists(path) and os.path.exists(other):
        return os.path.samefile(path, other)
    return os.path.realpath(path) == os.path.realpath(other)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:  # '' too: it names no file
            # file values first: argparse keeps the last value, so flags win
            file_args = [f"--{key}={value}" for key, value in load_config_file(args.config).items()]
            args = parser.parse_args(file_args + argv)
        config = config_from_args(args)
        # after the merge, so a file's own out= counts too
        given = [(f"--{key}", getattr(args, key)) for key in ("config", "out", "trace")
                 if getattr(args, key) is not None]
        for (flag, path), (other, other_path) in itertools.combinations(given, 2):
            if _same_file(path, other_path):
                raise ValueError(f"{flag} and {other} name the same file: {path}")
        # found here, not when the CSV is opened after the whole sweep
        for flag, path in given:
            if flag == "--config":
                continue
            if os.path.isdir(os.path.abspath(path)):  # "" too: it names the working directory
                raise ValueError(f"{flag} names a directory: {path!r}")
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError(f"{flag} names a file in a missing directory: {path!r}")
        per_run = [] if args.trace else None
        cells = sweep(config, per_run)
        write_csv([asdict(cell) for cell in cells], args.out)
        if args.trace:
            write_csv(per_run, args.trace)
    except (ValueError, OSError, IterationLimitError, _Diverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out} ({len(cells)} cells, {config.runs} runs each)")
    if args.trace:
        print(f"wrote {args.trace} ({len(per_run)} replicate rows)")
    return 0
