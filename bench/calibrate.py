"""A fixed reference computation that tells how fast the machine runs right now.

The benchmark's host is a shared virtual machine: other tenants slow it
down by up to a half, in spells from under a second to tens of minutes, so
the same pass of the same code can take 11 s once and 19 s the next. The
reference kernel below does a fixed amount of the kinds of work the
workloads do (interpreter dispatch, big-integer and ``Fraction``
arithmetic, small LAPACK eigensolves) and never touches the package under
test. Timed right before and right after a job, it measures the speed the
job ran at; ``run.py`` scales the job's seconds by ``REFERENCE_S`` over
the kernel's mean time, which turns them into seconds at the speed at which
the kernel takes ``REFERENCE_S``.

``builtin_kernel`` uses nothing but builtins and ``math``, so that the
set-up probe can time it before ``import epspectra.cli`` without loading
any module the import would otherwise pay for.
"""

from __future__ import annotations

import math
import statistics
import time

# Seconds the kernels take at the reference speed: about their median on
# the 2-core x86-64 VM the seed baseline in README.md was measured on. Any
# fixed value would do; these keep scaled seconds close to raw ones there.
REFERENCE_S = 0.015
BUILTIN_REFERENCE_S = 0.010


def _interpreter(rounds):
    table, total = {}, 0
    for i in range(rounds):
        total += i * i % 7
        table[i & 255] = total
    return total + len(table)


def _bigint(rounds):
    a, b = 3**200, 7**150
    for i in range(1, rounds):
        num, den = a * (i + 1) + b, b * i + 1
        g = math.gcd(num, den)
        a, b = num // g % 10**60 + 1, den // g % 10**60 + 1
    return a


def builtin_kernel():
    """Seconds of one run of the builtins-only kernel."""
    start = time.perf_counter()
    _interpreter(25000)
    _bigint(2500)
    return time.perf_counter() - start


class Kernel:
    """The full reference kernel; ``Kernel()()`` returns the seconds of one run."""

    def __init__(self):
        from fractions import Fraction

        import numpy

        rng = numpy.random.default_rng(0)
        self._fraction = Fraction
        self._eigvals = numpy.linalg.eigvals
        self._mats = [rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
                      for _ in range(40)]

    def _fractions(self, rounds):
        F = self._fraction
        f = F(1, 3)
        for i in range(1, rounds):
            f = f * F(i + 1, i) + F(1, i * i + 1)
            f = F(f.numerator % 10**40, f.denominator % 10**40 + 1)
        return f

    def __call__(self):
        start = time.perf_counter()
        _interpreter(40000)
        _bigint(1000)
        self._fractions(750)
        for m in self._mats:
            self._eigvals(m)
        return time.perf_counter() - start


def scaled_wall(passes, kernels):
    """Seconds of one pass at the reference speed: each job at its median.

    Each job's seconds are scaled by ``REFERENCE_S`` over the
    mean of the kernel runs just before and just after it. The machine is
    shared, and its speed changes by up to a half in spells from under a
    second to tens of minutes; the scaling takes out most of that, and the
    median over passes most of the rest. Over ten-run sets the spread
    (quartile distance over median) of this figure was 0.015 to 0.057,
    against 0.07 to 0.18 for the median unscaled pass.
    """
    scaled = [[t * 2 * REFERENCE_S / (k[i] + k[i + 1]) for i, t in enumerate(times)]
              for times, k in zip(passes, kernels)]
    return sum(statistics.median(job) for job in zip(*scaled))
