"""Fixed reference work that measures the host's current speed.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds and stay in one state for minutes, so raw times of identical work
differ by more than any useful regression bound. The worker runs ``probe``
after every CLI invocation. Dividing a pass time by the probe time next to
it removes the host's speed; multiplying by ``PROBE_REF_S`` turns the ratio
back into seconds at a fixed reference speed.

Starting a fresh interpreter drifts in a way of its own that the probe does
not follow, so each set-up sample is paired with a fresh interpreter that
runs ``REFERENCE_IMPORT``, numpy, the package's one dependency, and is
scaled by ``IMPORT_REF_S`` over that import's time.

The probe does not use compactga, so a change to the package cannot change
it. It mixes the package's two kinds of cost: short-vector interpreter work
(sample, cache lookup, update on 30 genes) and long-vector numpy work on
10,000 genes. Changing anything here changes the unit every end-to-end time
is reported in, so results before and after such a change do not compare.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

# Probe time, in seconds, that defines the reference speed: about the probe's
# median on a 2-core x86_64 Xeon VM, Python 3.11.7, numpy 2.4.6.
PROBE_REF_S = 0.05
# Seconds of the reference import that define the reference speed for
# set-up; about its median on the same box.
REFERENCE_IMPORT = "import numpy"
IMPORT_REF_S = 0.07

SHORT_STEPS = 2000
LONG_STEPS = 100


def _step(gen, p: np.ndarray, cache: OrderedDict, capacity: int, rate: float) -> np.ndarray:
    """One compact-GA step on onemax: two samples, cached fitness, vector update."""
    a = (gen.random(p.shape[0]) < p).astype(np.int8)
    b = (gen.random(p.shape[0]) < p).astype(np.int8)
    fitness = []
    for x in (a, b):
        key = np.packbits(x).tobytes()
        f = cache.get(key)
        if f is None:
            f = cache[key] = int.from_bytes(key, "big").bit_count()
            if len(cache) > capacity:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        fitness.append(f)
    winner, loser = (a, b) if fitness[0] >= fitness[1] else (b, a)
    return np.clip(p + (winner - loser) * rate, 0.0, 1.0)


def probe() -> float:
    """Run the reference computation once; returns its wall seconds."""
    gen = np.random.Generator(np.random.PCG64(2024))
    start = time.perf_counter()
    p, cache = np.full(30, 0.5), OrderedDict()
    for _ in range(SHORT_STEPS):
        p = _step(gen, p, cache, 64, 1 / 50)
    p, cache = np.full(10_000, 0.5), OrderedDict()
    for _ in range(LONG_STEPS):
        p = _step(gen, p, cache, 64, 1 / 60)
    return time.perf_counter() - start
