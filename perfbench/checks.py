"""Correctness checks on the CSVs one benchmark pass wrote.

Every check returns a list of problems, one string each; an empty list
means the output is correct. Each problem counts as one failure in the
benchmark's ``failed`` count.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict

from workloads import DEFAULT_SEED, Invocation, Workload


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_rows(inv: Invocation, rows: list[dict[str, str]], where: str) -> list[str]:
    """Counter identities and capacity invariants that hold at any seed."""
    problems = []
    if len(rows) != inv.cells:
        problems.append(f"{where}: {len(rows)} rows, expected {inv.cells}")
    by_pop = defaultdict(list)
    for row in rows:
        hits, misses = int(row["hits_sum"]), int(row["misses_sum"])
        if hits + misses != int(row["neval_nocache"]):
            problems.append(f"{where}: hits_sum + misses_sum != neval_nocache in {row}")
        if misses != int(row["neval_cache"]):
            problems.append(f"{where}: misses_sum != neval_cache in {row}")
        if int(row["runs"]) != inv.runs:
            problems.append(f"{where}: runs {row['runs']}, expected {inv.runs}")
        by_pop[(row["algo"], row["pop"])].append(row)
    for (algo, pop), group in by_pop.items():
        # caching never changes a run: the trajectory is the same at every capacity
        for column in ("iterations_mean", "neval_nocache"):
            if len({row[column] for row in group}) != 1:
                problems.append(f"{where}: {column} differs across capacities for {algo} pop={pop}")
        if inv.policy == "lru":
            # LRU is a stack algorithm: a larger cache never misses more. FIFO
            # is not (Belady's anomaly), so it gets no such check.
            group = sorted(group, key=lambda row: int(row["capacity"]))
            misses = [int(row["misses_sum"]) for row in group]
            if any(b > a for a, b in zip(misses, misses[1:])):
                problems.append(f"{where}: LRU misses grow with capacity for {algo} pop={pop}")
    return problems


def check_pass(workload: Workload, paths: list[str], seed: int):
    """Check every CSV of one pass.

    Returns (problems, rows per invocation, SHA-256 per invocation); a CSV
    that could not be read has no rows and digest None.
    """
    problems, all_rows, digests = [], [], []
    for i, (inv, path) in enumerate(zip(workload.invocations, paths)):
        where = f"{workload.name}[{i}] {inv.algo}"
        try:
            rows = read_rows(path)
            digest = file_digest(path)
        except OSError as exc:
            problems.append(f"{where}: cannot read output: {exc}")
            rows, digest = [], None
        all_rows.append(rows)
        digests.append(digest)
        problems += check_rows(inv, rows, where)
        if seed == DEFAULT_SEED and digest != workload.digests[i]:
            problems.append(f"{where}: CSV digest differs from the recorded one at seed {seed}")
    return problems, all_rows, digests


def totals(all_rows: list[list[dict]]) -> dict[str, int]:
    """Exact counters summed over every row of a pass."""
    out = dict.fromkeys(("runs", "hits", "misses", "iterations", "lookups", "evaluations"), 0)
    for rows in all_rows:
        for row in rows:
            runs = int(row["runs"])
            out["runs"] += runs
            out["hits"] += int(row["hits_sum"])
            out["misses"] += int(row["misses_sum"])
            # iterations_mean carries six decimals, far finer than 1/runs
            out["iterations"] += round(float(row["iterations_mean"]) * runs)
            out["lookups"] += int(row["neval_nocache"])
            out["evaluations"] += int(row["neval_cache"])
    return out
