"""Polynomial root finding, and the optimal assignment that matches spectra.

Polynomial roots are companion-matrix eigenvalues plus Newton polish. Zero
roots are taken exactly by stripping vanishing low-order coefficients
before forming the companion matrix; this is what makes a fully degenerate
characteristic polynomial lambda^M return exact zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumericalError", "RootFindingError", "polynomial_roots", "min_cost_assignment"]


class NumericalError(RuntimeError):
    """Base of the errors the CLI reports as a numerical failure (exit 2).

    It lives in the lowest layer, so that the CLI catches them all without
    importing every module.
    """


class RootFindingError(NumericalError):
    """The roots of a polynomial could not be computed."""


# Newton polishing stops after this many steps, or once every step is below
# this relative size.
_POLISH_ITERATIONS = 30
_REL_TOL = 1e-12
# Stacked eigensolves, of companion matrices here and of Hamiltonians in
# ``spectra.stacked_spectra``, take at most this many bytes of complex
# matrices at a time (half of it for a real PT form: as many matrices).
_STACK_BYTES = 1 << 20


def polynomial_roots(coeffs):
    """All complex roots of sum_k coeffs[k] x^k (ascending coefficients).

    Companion-matrix eigenvalues seeded into Newton iteration on the
    polynomial itself; relative accuracy of simple roots is limited only by
    coefficient rounding. Exact zero roots (vanishing low coefficients) are
    returned as exact zeros. A stack of rows (2-D) gives the list of each
    row's roots, the same bits as one call per row: rows of equal degree
    once stripped of zero coefficients share one eigensolve per block of at
    most _STACK_BYTES of companion matrices; each row's polish stops alone.
    """
    c = np.asarray(coeffs, dtype=complex)
    rows = c.reshape(1, -1) if c.ndim < 2 else c
    if rows.shape[1] == 0 or not rows.any(axis=1).all():
        raise RootFindingError("zero polynomial has no defined roots")
    if not np.isfinite(rows).all():
        raise RootFindingError("non-finite polynomial coefficients")
    nonzero = rows != 0
    low = nonzero.argmax(axis=1)
    top = rows.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    degree, out = top - low, [np.zeros(n, dtype=complex) for n in low.tolist()]
    for m in sorted(set(degree.tolist()) - {0}):
        idx = np.flatnonzero(degree == m)
        cc = rows[idx[:, None], low[idx, None] + np.arange(m + 1)]
        step, roots = max(1, _STACK_BYTES // (16 * m * m)), []
        for block in np.array_split(cc, range(step, len(cc), step)):
            comp = np.zeros((len(block), m, m), dtype=complex)
            comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            comp[:, :, -1] = -block[:, :-1] / block[:, -1:]
            try:
                roots.append(np.linalg.eigvals(comp))
            except np.linalg.LinAlgError as exc:
                raise RootFindingError(f"companion eigensolve failed: {exc}") from exc
        for i, r in zip(idx, _polished(cc, np.concatenate(roots))):
            out[i] = np.concatenate([out[i], r])
    return out[0] if c.ndim < 2 else out


def _horner(rev, x):
    """Each row of ``rev`` (highest power first) at that row of ``x``, as np.polyval does it."""
    y = np.zeros_like(x)
    for j in range(rev.shape[1]):
        y = y * x + rev[:, j:j + 1]
    return y


def _polished(cc, roots):
    """Newton steps on each row's roots until every step of that row is below _REL_TOL.

    A step that overflows leaves inf or nan in the roots, without a numpy
    warning; the final finiteness check turns it into RootFindingError.
    """
    rev, drev = cc[:, ::-1], (cc[:, 1:] * np.arange(1, cc.shape[1]))[:, ::-1]
    active = np.arange(len(cc))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_POLISH_ITERATIONS):
            x = roots[active]
            val, der = _horner(rev[active], x), _horner(drev[active], x)
            step = np.where(der != 0, val / np.where(der != 0, der, 1), 0)
            x = x - step
            roots[active] = x
            active = active[~np.all(np.abs(step) <= _REL_TOL * np.maximum(1.0, np.abs(x)),
                                    axis=1)]
            if not active.size:
                break
    if not np.all(np.isfinite(roots)):
        raise RootFindingError("Newton polishing diverged")
    return roots


def min_cost_assignment(cost):
    """Columns of a minimum-total-cost assignment: row i goes to column cols[i].

    The answer is scipy's ``linear_sum_assignment``, ties included. When
    the row argmins (each row's first minimum) form a permutation, they are
    returned at once: the sum of row minima bounds every assignment from
    below, and any other assignment that reached it would move some row to
    a later minimum and none to an earlier one, which no permutation can.
    Otherwise the shortest-augmenting-path solver of Crouse (2016) runs, as
    scipy's ``rectangular_lsap`` does it: the same float operations in the
    same order and the same tie rules, so ties resolve as in scipy. The
    matrix must be square and free of NaN and -inf, else ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, not of shape {cost.shape}")
    if not (cost > -np.inf).all():
        raise ValueError("cost matrix has NaN or -inf entries")
    cols = cost.argmin(axis=1)
    if len(set(cols.tolist())) == len(cols):
        return cols
    return _shortest_augmenting_paths(cost)


def _shortest_augmenting_paths(cost):
    """Crouse's solver, line for line as scipy's ``rectangular_lsap`` (square case)."""
    n = len(cost)
    c = cost.tolist()
    inf = float("inf")
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest augmenting path from row cur; columns are scanned in
        # reverse so that a constant matrix gives the identity
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [False] * n, [False] * n
        shortest = [inf] * n
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            index, lowest = -1, inf
            rows_seen[i] = True
            row, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # on equal cost prefer a free column: it ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the dual variables, then augment along the path
        u[cur] += min_val
        for i in range(n):
            if rows_seen[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n):
            if cols_seen[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row)
