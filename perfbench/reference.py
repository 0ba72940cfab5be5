"""A fixed reference computation that measures the host's current speed.

On a shared VM the speed of pure-Python code drifts by up to half over
periods of a minute or more, which no run of at most a minute can
average away.  Each sample times this computation in its own process
beside what it measures, and the benchmark reports times scaled by
``REF_S / reference time``: seconds on a host as fast as the one where
``REF_S`` was measured.  The computation uses nothing from
``shapespace``, so no change to the library can move it.
"""

import gc
import hashlib
import time

# Typical reference time in samples on the machine the benchmark was
# built on (2-vCPU Intel Xeon VM, 2.0 GHz, Python 3.11).
REF_S = 0.18

_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n"
    f"    x = [a + b * {i} for _ in range(3)]\n"
    f"    return {{k: v for k, v in enumerate(x)}}\n"
    for i in range(10))


def _arithmetic():
    s = 0
    for i in range(400000):
        s += i * i % 7
    return s


def _colour_refinement():
    """Hashing, sorting and small containers, like certificate work."""
    acc = 0
    for k in range(150):
        nodes = [(i * 7 + k) % 13 for i in range(12)]
        edges = frozenset((a, f"l{a % 3}", b) for a in nodes for b in nodes[:4])
        colour = {v: hashlib.sha256(str(v).encode()).hexdigest()[:16]
                  for v in set(nodes)}
        for _ in range(3):
            colour = {v: hashlib.sha256((colour[v] + "|" + ";".join(sorted(
                f"{l}:{colour[w]}" for (s, l, w) in edges if s == v)))
                .encode()).hexdigest()[:16] for v in colour}
        acc += len(sorted(colour.values()))
    return acc


def _compile():
    # Many small compiles: one large one would raise the process's peak
    # resident set, which the benchmark reports.
    for _ in range(120):
        compile(_SOURCE, "<reference>", "exec")


def reference_s() -> float:
    """Seconds the reference computation takes now.

    The collector is paused so that the size of the caller's heap does
    not change the reference's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _arithmetic()
        _colour_refinement()
        _compile()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
