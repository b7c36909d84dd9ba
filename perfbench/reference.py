"""A fixed reference kernel that measures how fast the host runs Python now.

The benchmark's host shares its cores and memory system with other
tenants, and the rate at which it runs Python drifts by up to 1.8x over
seconds to minutes.  Programs on it mostly slow down together: over a
150-second probe, a gislat command and a mix of a dict/set loop and an
integer loop kept the ratio of their times within about 5% while each
drifted by 60%.  So the benchmark runs this kernel next to every timed
command and rescales the command's time to the host speed at which the
kernel takes ``NOMINAL_S``:

    rescaled time = measured time * NOMINAL_S / kernel time nearby

The kernel never calls gislat, so no change to gislat can change it.  Its
mix follows gislat's: tuple keys, dicts, sets, frozensets, sorting and a
tight integer loop.  The rescaling is not exact: at times the host slows
one kind of work more than the other, which is what is left of the
spread between runs.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0145  # the kernel's time at the reference host speed
_N = 3500
_LOOP = 100000


def kernel() -> int:
    """Fixed work, about ``NOMINAL_S`` of it; returns a checksum.  About
    half is container work and half a tight integer loop like the trial
    division in ``triples.divisors``, because the host's drift does not
    always slow the two alike."""
    table: dict[tuple[int, int], frozenset[int]] = {}
    for i in range(_N):
        table[i, i * 7 % 97] = frozenset((i % 53, i * 3 % 61, i * i % 89))
    seen: set[int] = set()
    acc = 0
    for (a, b), block in table.items():
        seen |= block
        if (a - 1, (a - 1) * 7 % 97) in table:
            acc += a * b + len(block)
        acc ^= hash((b, a)) & 0xFFFF
    order = sorted(table, key=lambda k: (k[1], -k[0]))
    acc += sum(1 for d in range(1, _LOOP) if 720720 % d == 0)
    return acc + len(seen) + order[0][0]


def measure() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(kernel_s: float) -> float:
    """Host speed relative to the reference: above 1 is faster."""
    return NOMINAL_S / kernel_s
