"""A fixed calibration kernel that tracks how fast the machine runs right now.

A shared host changes speed for minutes at a time: the same loop of Python
and big-integer work takes up to twice as long in a slow spell, with CPU
time equal to wall time. A run sees one spell; ten runs see several.
The benchmark therefore runs this kernel between blocks of calls and scales
each block's times by REFERENCE_S / (kernel time around the block), which
gives every time as it would read on a machine where the kernel takes
exactly REFERENCE_S. The kernel never calls npnmatch, so a change to the
library moves the scaled times as much as the raw ones.

The kernel mixes the two kinds of work the workloads do: masked bit counts
and shifts on a 2^20-bit integer (the n = 20 truth tables) and cofactor
bookkeeping in interpreted loops over 2^12-bit integers (n = 10..14).
"""

from __future__ import annotations

import random
import statistics
import time

# What one sample reads on the reference machine: a round figure inside the
# 4 to 9 ms it reads on a 2-vCPU cloud host, depending on the spell.
REFERENCE_S = 6.0e-3
# Kernel runs per sample; the sample is their sum less the slowest, so one
# interrupted run does not move it.
RUNS = 4

_rng = random.Random(20260101)


def _masks(n: int) -> list[int]:
    out = []
    for i in range(n):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        while period < (1 << n):
            block |= block << period
            period <<= 1
        out.append(block)
    return out


_BIG = _rng.getrandbits(1 << 20)
_BIG_MASKS = _masks(20)[:8]
_SMALL = [_rng.getrandbits(1 << 12) for _ in range(8)]
_SMALL_MASKS = _masks(12)


def kernel() -> int:
    acc = 0
    x = _BIG
    for m in _BIG_MASKS:
        pos = x & m
        acc += pos.bit_count()
        x ^= pos >> 1
    for f in _SMALL:
        total = f.bit_count()
        classes: dict = {}
        for i, m in enumerate(_SMALL_MASKS):
            p = (f & m).bit_count()
            classes.setdefault((max(p, total - p), min(p, total - p)), []).append(i)
        acc += len(sorted(classes.items()))
        for i, mi in enumerate(_SMALL_MASKS):
            for mj in _SMALL_MASKS[i + 1:]:
                acc += (f & mi & mj).bit_count()
    return acc


def sample() -> float:
    """Seconds of one sample of the kernel, now."""
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sum(times) - max(times)


class Gauge:
    """Samples the kernel between blocks of work and gives each block the
    factor that scales its times to the reference machine."""

    def __init__(self):
        for _ in range(3):  # warm-up
            sample()
        self.last = sample()
        self.samples = [self.last]

    def factor(self) -> float:
        """Scale for the work done since the previous call (or since the
        gauge was made): the reference over the mean of the samples taken
        just before and just after it."""
        now = sample()
        self.samples.append(now)
        before, self.last = self.last, now
        return REFERENCE_S / ((before + now) / 2)

    def summary(self) -> dict:
        s = self.samples
        return {"reference_ms": REFERENCE_S * 1e3, "samples": len(s),
                "min_ms": min(s) * 1e3, "median_ms": statistics.median(s) * 1e3,
                "max_ms": max(s) * 1e3}


class ScaledTimer:
    """Times work done in steps: every stretch of about block_s seconds,
    ended by a call to tick(), is scaled by the gauge. The kernel's own
    time is left out of both totals."""

    def __init__(self, gauge: Gauge, block_s: float):
        self.gauge, self.block_s = gauge, block_s
        self.raw = self.scaled = 0.0

    def __enter__(self):
        self.gauge.factor()
        self._t0 = time.perf_counter()
        return self

    def tick(self):
        elapsed = time.perf_counter() - self._t0
        if elapsed >= self.block_s:
            self._close(elapsed)

    def _close(self, elapsed: float):
        scale = self.gauge.factor()
        self.raw += elapsed
        self.scaled += elapsed * scale
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self._close(time.perf_counter() - self._t0)
