"""Polynomial root finding: companion-matrix eigenvalues plus Newton polish.

Zero roots are taken exactly by stripping vanishing low-order coefficients
before forming the companion matrix; this is what makes a fully degenerate
characteristic polynomial lambda^M return exact zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RootFindingError", "polynomial_roots"]


class RootFindingError(RuntimeError):
    """The roots of a polynomial could not be computed."""


# Newton polishing stops after this many steps, or once every step is below
# this relative size.
_POLISH_ITERATIONS = 30
_REL_TOL = 1e-12


def polynomial_roots(coeffs):
    """All complex roots of sum_k coeffs[k] x^k (ascending coefficients).

    Companion-matrix eigenvalues seeded into Newton iteration on the
    polynomial itself; relative accuracy of simple roots is limited only by
    coefficient rounding. Exact zero roots (vanishing low coefficients) are
    returned as exact zeros.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0 or not np.any(c):
        raise RootFindingError("zero polynomial has no defined roots")
    if not np.all(np.isfinite(c)):
        raise RootFindingError("non-finite polynomial coefficients")
    # strip exactly-zero trailing (high-order) coefficients
    top = c.size - 1
    while top > 0 and c[top] == 0:
        top -= 1
    c = c[: top + 1]
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    # exact zero roots from vanishing low-order coefficients
    low = 0
    while low < c.size and c[low] == 0:
        low += 1
    zero_roots = np.zeros(low, dtype=complex)
    cc = c[low:]
    m = cc.size - 1
    if m == 0:
        return zero_roots
    comp = np.zeros((m, m), dtype=complex)
    if m > 1:
        comp[np.arange(1, m), np.arange(m - 1)] = 1.0
    comp[:, -1] = -cc[:-1] / cc[-1]
    try:
        roots = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigensolve failed: {exc}") from exc
    dc = cc[1:] * np.arange(1, m + 1)
    rev, drev = cc[::-1], dc[::-1]
    for _ in range(_POLISH_ITERATIONS):
        val = np.polyval(rev, roots)
        der = np.polyval(drev, roots)
        step = np.where(der != 0, val / np.where(der != 0, der, 1), 0)
        roots = roots - step
        if np.all(np.abs(step) <= _REL_TOL * np.maximum(1.0, np.abs(roots))):
            break
    if not np.all(np.isfinite(roots)):
        raise RootFindingError("Newton polishing diverged")
    return np.concatenate([zero_roots, roots])
