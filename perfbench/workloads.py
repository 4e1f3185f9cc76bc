"""The benchmark's workloads: sequences of ``compactga`` CLI invocations.

A pass runs every invocation of a workload once, in order, in one process.
Every pass of a benchmark run uses the same harness seed, so replicate ``r``
of every cell runs with ``--seed + r`` and the passes of one run repeat the
same work; different ``--seed`` values give different trajectories.

``digests`` holds the SHA-256 of each invocation's CSV at ``DEFAULT_SEED``,
recorded from the code the benchmark was introduced with. The CSV is a pure
function of its configuration, so any change in a digest means a run's
behaviour changed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Invocation:
    """One ``compactga`` CLI call: a variant/problem pair over pops x capacities."""

    algo: str
    problem: str
    bits: int
    pops: tuple[int, ...]
    capacities: tuple[int, ...]
    policy: str
    runs: int
    extra: tuple[str, ...] = ()
    # replicate r runs with harness seed `seed + seed_offset + r`
    seed_offset: int = 0

    def argv(self, seed: int, out_path: str) -> list[str]:
        return [
            "--algo", self.algo, *self.extra,
            "--problem", self.problem,
            "--bits", str(self.bits),
            "--pop", ",".join(map(str, self.pops)),
            "--cache", ",".join(map(str, self.capacities)),
            "--policy", self.policy,
            "--runs", str(self.runs),
            "--seed", str(seed + self.seed_offset),
            "--out", out_path,
        ]

    @property
    def cells(self) -> int:
        return len(self.pops) * len(self.capacities)

    @property
    def total_runs(self) -> int:
        return self.cells * self.runs


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    digests: tuple[str, ...]

    @property
    def runs_per_pass(self) -> int:
        return sum(inv.total_runs for inv in self.invocations)


# SHA-256 of each invocation's CSV at DEFAULT_SEED, in invocation order.
DIGESTS_CAPACITY_SWEEP = (
    "b621a8feb837a5312204b3e95fa867523f9b039b5f6a59467f8bd07a1803ea97",
    "46b48af0d32f128043b04410c26d5d4a5b50820168f07098e118f14354a50a9e",
    "e83b2a4cce56f43169c5d688b98830d732c8dd863bc9acf526cf67cc34e50803",
    "5cbc6c454c8973ce0608a81df39ae7334a0907223b1e638291107e4776f80276",
    "748f86350fe46050049c5f45bbff0e93b4188fc82d56e247c389a26d0c3b322e",
    "dc60ce075420bfe37ca6dba41816defe36aede057c2d49e5e03ffa58b3bb056c",
    "087007688d50e6660a6cc6cea04e9ac3c78d4e01759f8c4239c596c7691e33d8",
    "9c4e881a9c0359e5cf77a9cea7bbbe46378007fa824d957190a571935d965bbf",
    "a610e1cce645047769647e5aed927607ed7ea383e9b1114353fa468cac85e3ce",
    "013a60daa96b7bead58132b8008bc1c87324d957e3caf591fabbd404068db29d",
    "604538e22a7d868fe3fedeeafe1c572b72c9810aba06d3ec5e937db53b227557",
    "48b9d2b209d5f96710a3b0a2ee271592440a15e957be33afd0546f4c9ba10602",
    "39d299df0226c94a071a3964d13a6b9129593b1a327e265c0ae57b3f67fe11f1",
    "c0bd65a120eb2c0971c4c615780c7efd37cb177858f7bee44909986bd7b9feff",
    "26d92b2562801fcaf5599254617ea56c8428a94aed95f14d2247cc0dba4b6a7a",
)
DIGESTS_LONG_GENOME = (
    "9d045a61e4774b69b3bbb947b4a1ee59dcc86976df9555f37f3533fd6745e0e9",
    "07009a049d61e7e87af39587f0a14c0024b40e5d169e35ad1a172be0e93772ca",
    "0e66887d7e4860f25f4ca6905e22a1ae0a2e9824fa42c9cd74203f889d92c3fa",
)
DIGESTS_HIT_HEAVY_LRU = (
    "8618ef7dc498ccf14c826349b0edd10f4c63c947526302805669ded4e56928be",
    "629a74d9bbdb166e4bc7e95d95c90d1ea57f984cee342a55da6522fb269b61f5",
    "9859e618fb4be2f05cc7707d442a502b918eaf44b6b3d92607b7357e79a1f661",
    "d4aa1f82d680dc364c495a308f175145d8fbed63aebc16c70822ecefab4caef4",
    "c41d8435cd3124e36161baf4732c66157b25b009d9c44a7d9f18b287e218b945",
    "9f1669569559a764323e4820525618acedde9cfbaf5f44a058b4ee4a52a08b13",
)


def _grid(algo: str, *extra: str) -> tuple[Invocation, ...]:
    return tuple(
        Invocation(algo, "onemax", 100, (pop,), (0, 1, 4, 16, 64), "fifo", 2, extra)
        for pop in (25, 50, 100)
    )


def _hit_heavy(algo: str) -> tuple[Invocation, ...]:
    return tuple(Invocation(algo, "binint", 30, (pop,), (256,), "lru", 10) for pop in (50, 100, 200))


# A pass is split into CLI calls of at most about a second, because the
# worker runs the reference probe after each call (see reference.py); finer
# splits follow the host's speed more closely. Splitting a sweep by
# population, or by replicate with a seed offset, runs exactly the same
# trajectories as one call over the whole grid.
#
# Why each workload exists, and which layer metric should move which
# end-to-end metric on it, is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's grid: four of every five runs repeat a trajectory
        # already run at another capacity; per-call overhead dominates.
        Workload(
            "capacity-sweep",
            (*_grid("cga"), *_grid("cga-t", "--s", "4"), *_grid("cga-rr", "--m", "4"),
             *_grid("pe-cga"), *_grid("ne-cga")),
            DIGESTS_CAPACITY_SWEEP,
        ),
        # Per-gene cost dominates; the cache mostly inserts and evicts
        # 1250-byte keys. One capacity, so capacity replay has nothing to skip.
        Workload(
            "long-genome",
            tuple(Invocation("cga", "onemax", 10_000, (60,), (64,), "fifo", 1, seed_offset=r)
                  for r in range(3)),
            DIGESTS_LONG_GENOME,
        ),
        # Cache reads: most lookups hit and reorder the LRU list, one lookup
        # per elitist iteration. One capacity, so capacity replay is bypassed.
        Workload(
            "hit-heavy-lru",
            (*_hit_heavy("pe-cga"), *_hit_heavy("ne-cga")),
            DIGESTS_HIT_HEAVY_LRU,
        ),
    )
}
