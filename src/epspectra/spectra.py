"""Floating-point spectra, parameter sweeps, branch matching, classification.

Two eigenvalue routes are kept deliberately independent:

* dense LAPACK (Hessenberg + shifted QR) on the floating matrix, and
* exact characteristic polynomial -> companion matrix -> Newton polish.

The first is fast and backward stable; the second stays accurate even at
strongly non-normal points (near higher-order degeneracies the dense solver
loses up to half the digits per Jordan order, while polynomial roots from
exact coefficients do not). Each serves as the other's oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._roots import polynomial_roots
from .exact_poly import charpoly_of_tridiagonal
from .operators import ModelParams, OperatorMatrix, build_generalized_hamiltonian

__all__ = [
    "SpectralError",
    "ClassificationError",
    "Spectrum",
    "Trajectory",
    "Classification",
    "eigenvalues",
    "eigenvalues_from_charpoly",
    "exact_spectrum",
    "analytic_c0_spectrum",
    "stacked_spectra",
    "sweep",
    "match_branches",
    "matched_sweep",
    "classify",
    "optimal_match_distance",
]


class SpectralError(RuntimeError):
    """Eigensolver failure, carrying the offending parameters."""


class ClassificationError(RuntimeError):
    """Krein pairing violated: an unpaired non-real eigenvalue."""


# Stacked eigensolves take at most this many bytes of matrices at a time.
_STACK_BYTES = 1 << 20


def _sorted_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def eigenvalues(matrix, context: str = "") -> np.ndarray:
    """All eigenvalues, deterministically ordered by (Re, Im).

    Floating matrices go through the dense LAPACK solver; a stack of shape
    (..., M, M) gives each matrix's sorted eigenvalues along the last axis,
    the same bits as one call per matrix. Exact parameter-free tridiagonal
    matrices go through the exact characteristic polynomial and polished
    companion roots, which is the accurate route at and near exceptional
    points.
    """
    if isinstance(matrix, OperatorMatrix) and matrix.entry_kind == "exact":
        return exact_spectrum(matrix, context=context)
    arr = matrix.array if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise SpectralError(f"matrix is not square {context}")
    if not np.all(np.isfinite(arr)):
        raise SpectralError(f"matrix has non-finite entries {context}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver did not converge {context}: {exc}") from exc
    return _sorted_eigs(vals)


def eigenvalues_from_charpoly(charpoly, value) -> np.ndarray:
    """Roots of the exact characteristic polynomial at a parameter value."""
    coeffs = np.array(charpoly.monic_at(value))
    return _sorted_eigs(polynomial_roots(coeffs))


def exact_spectrum(matrix: OperatorMatrix, context: str = "") -> np.ndarray:
    """Eigenvalues of an exact tridiagonal matrix via its characteristic polynomial.

    The matrix must be parameter-free: one that still carries the formal
    parameter raises ValueError.
    """
    if matrix.entry_kind != "exact":
        raise TypeError("exact_spectrum needs an exact matrix")
    if any(e for row in matrix.entries for p in row for e in p.coeffs):
        raise ValueError(
            f"matrix depends on the formal parameter {matrix.param or 'c'!r}; "
            f"fix its value first {context}".rstrip()
        )
    return eigenvalues_from_charpoly(charpoly_of_tridiagonal(matrix), 0)


def analytic_c0_spectrum(params: ModelParams) -> np.ndarray:
    """Closed-form spectrum at c = 0: lambda_n = n sqrt(v^2 - gamma^2).

    n runs over -N, -N+2, ..., N. The root is real for |gamma| <= |v| and
    positive imaginary beyond the breaking point.
    """
    if params.c is None or float(params.c) != 0.0:
        raise ValueError("analytic spectrum requires c = 0")
    g, v = float(params.gamma), float(params.v)
    disc = v * v - g * g
    s = np.sqrt(disc) if disc >= 0 else 1j * np.sqrt(-disc)
    N = params.particles
    vals = np.array([n * s for n in range(-N, N + 1, 2)], dtype=complex)
    return _sorted_eigs(vals)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues at one parameter point, sorted by (Re, Im)."""

    params: ModelParams
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """One branch of an eigenvalue sweep: (parameter, eigenvalue) pairs."""

    branch: int
    parameters: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Classification:
    real_count: int
    conjugate_pair_count: int


def stacked_spectra(family, vary: str, values, context):
    """Sorted eigenvalues and scale max(1, max|H|) of a family's H at each value.

    ``family`` is the ``HamiltonianFamily`` of an orthonormal build. Yields
    (values, eigenvalues, scales) per stacked eigensolve of at most
    _STACK_BYTES of matrices, so memory does not grow with the number of
    values. A failing block is solved again one matrix at a time, so the
    error names its first failing value by ``context(value)``.
    """
    values = [float(x) for x in values]
    step = max(1, _STACK_BYTES // (16 * family.dim**2))
    for i in range(0, len(values), step):
        xs = values[i:i + step]
        H = family.stack(vary, xs)
        try:
            vals = eigenvalues(H)
        except SpectralError:
            for x, h in zip(xs, H):
                eigenvalues(h, context=context(x))
            raise
        yield xs, vals, np.maximum(1.0, np.abs(H).max(axis=(1, 2))).tolist()


def _context(params: ModelParams) -> str:
    return (f"(N={params.particles}, gamma={float(params.gamma)}, "
            f"v={float(params.v)}, c={float(params.c)})")


def _family_spectra(family, vary: str, values) -> list:
    """One Spectrum per value of ``vary``."""
    at = lambda x: replace(family.params, **{vary: x})
    return [
        Spectrum(params=at(x), eigenvalues=ev)
        for block in stacked_spectra(family, vary, values, lambda x: _context(at(x)))
        for x, ev in zip(*block[:2])
    ]


def sweep(params: ModelParams, vary: str, grid) -> list:
    """One Spectrum per grid point of gamma or c; points are independent."""
    if vary not in ("gamma", "c"):
        raise ValueError("vary must be 'gamma' or 'c'")
    return _family_spectra(build_generalized_hamiltonian(params, "orthonormal").family, vary, grid)


def optimal_match_distance(a, b) -> float:
    """Max pair distance under the optimal assignment of two eigenvalue sets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


_JUMP_RATIO = 10.0
_SHRINK_RATIO = 0.6  # between smooth (0.5) and square-root (0.71) jump shrinkage


def _match_step(prev, cur):
    """Order ``cur`` to continue ``prev`` by minimum-total-distance assignment.

    Returns (ordered, flagged, jump): jump is the largest matched distance,
    flagged when it exceeds _JUMP_RATIO times the median jump. The jumps,
    hence the flag, do not depend on the order of ``prev``.
    """
    cost = np.abs(prev[:, None] - cur[None, :])
    r, c = linear_sum_assignment(cost)
    ordered = np.empty(len(prev), dtype=complex)
    ordered[r] = cur[c]
    jumps = np.abs(ordered - prev)
    floor = 1e-14 * max(1.0, np.abs(cur).max())
    return ordered, jumps.max() > _JUMP_RATIO * max(np.median(jumps), floor), jumps.max()


def match_branches(spectra, vary: str = "gamma"):
    """Pair eigenvalues across a sweep by minimum-total-distance assignment.

    Returns (trajectories, flagged_steps). A step is flagged when its
    largest matched jump exceeds _JUMP_RATIO (10) times the median jump of
    that step, which indicates the grid is too coarse there (typically near
    an exceptional point).
    """
    if len(spectra) < 2:
        raise ValueError("branch matching needs at least two grid points")
    params = [float(getattr(s.params, vary)) for s in spectra]
    rows = [spectra[0].eigenvalues.copy()]
    flagged = []
    for i, spec in enumerate(spectra[1:]):
        ordered, jumped, _ = _match_step(rows[-1], spec.eigenvalues)
        if jumped:
            flagged.append(i)
        rows.append(ordered)
    table = np.array(rows)  # (points, branches)
    trajectories = [
        Trajectory(branch=b, parameters=np.array(params), values=table[:, b].copy())
        for b in range(table.shape[1])
    ]
    return trajectories, flagged


def matched_sweep(params: ModelParams, vary: str, grid, max_levels: int = 12,
                  evaluate=None):
    """Sweep with automatic dyadic refinement of flagged steps.

    Each grid step is refined on its own. A flagged grid step is halved;
    a flagged half is halved again only while its largest matched jump
    exceeds _SHRINK_RATIO (0.6) times that of the piece it came from, and
    while it is wider than 2^-max_levels of the step. Fast smooth motion
    halves its jump with the step and stops there; a square-root branch
    point shrinks it only by 1/sqrt(2) and is followed to the floor. Flags
    depend only on a piece's two end spectra, so the sweep is matched once.

    ``evaluate`` maps a parameter value to a Spectrum and defaults to the
    model Hamiltonian at ``params`` with ``vary`` replaced; it is called
    once per returned point.

    Returns (trajectories, unresolved_intervals): the floor pieces still
    flagged and square-root-like, one per branch point crossed inside a
    flagged step, ready to hand to the EP locator.
    """
    if evaluate is None:
        family = build_generalized_hamiltonian(params, "orthonormal").family
        evaluate = lambda x: _family_spectra(family, vary, [x])[0]
    grid = sorted(float(g) for g in grid)
    if len(grid) < 2:
        raise ValueError("refinement needs at least two grid points")
    points, spectra = [grid[0]], [evaluate(grid[0])]
    unresolved = []
    for lo, hi in zip(grid, grid[1:]):
        floor = (hi - lo) / 2**max_levels
        # (right end, spectrum, parent jump) nearest on top; points[-1] is the left end
        pending = [(hi, evaluate(hi), 0.0)]  # a grid step has no parent: halve if flagged
        while pending:
            x, spec, parent = pending[-1]
            _, flagged, jump = _match_step(spectra[-1].eigenvalues, spec.eigenvalues)
            if flagged and jump > _SHRINK_RATIO * parent:
                if x - points[-1] > floor:
                    mid = (points[-1] + x) / 2.0
                    pending[-1] = (x, spec, jump)
                    pending.append((mid, evaluate(mid), jump))
                    continue
                unresolved.append((points[-1], x))
            pending.pop()
            points.append(x)
            spectra.append(spec)
    trajectories, _ = match_branches(spectra, vary)
    return trajectories, unresolved


def classify(vals, imag_tol, pair_tol=None) -> Classification:
    """Split a PT-symmetric spectrum into real values and conjugate pairs.

    Eigenvalues with |Im| <= imag_tol count as real; the rest must pair
    under conjugation, else the Krein symmetry is numerically violated and
    an error is raised. ``pair_tol`` bounds the pairing residual, by default
    max(4 imag_tol, 1e-10 * scale) with scale = max(1, max|lambda|); callers
    bisecting toward an exceptional point pass a looser value because
    dense-solver noise there grows like sqrt(eps) / (distance to the
    EP)^(1/4).
    """
    vals = np.asarray(vals, dtype=complex)
    real_mask = np.abs(vals.imag) <= imag_tol
    upper = vals[~real_mask & (vals.imag > 0)]
    lower = vals[~real_mask & (vals.imag < 0)]
    if len(upper) != len(lower):
        raise ClassificationError(
            f"unpaired non-real eigenvalues: {len(upper)} above vs {len(lower)} below axis"
        )
    if len(upper):
        cost = np.abs(upper[:, None] - np.conj(lower)[None, :])
        r, c = linear_sum_assignment(cost)
        residual = cost[r, c].max()
        if pair_tol is None:
            pair_tol = max(4.0 * imag_tol, 1e-10 * max(1.0, float(np.abs(vals).max())))
        if residual > pair_tol:
            raise ClassificationError(
                f"conjugate pairing residual {residual:.3e} exceeds {pair_tol:.3e}"
            )
    return Classification(real_count=int(real_mask.sum()), conjugate_pair_count=len(upper))
