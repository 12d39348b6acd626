"""Floating-point spectra, parameter sweeps, branch matching, pair counts.

Two eigenvalue routes are kept deliberately independent:

* dense LAPACK (Hessenberg + shifted QR) on the floating matrix
  (``stacked_spectra``), and
* exact characteristic polynomial -> companion matrix -> Newton polish
  (``exact_spectra``, ``exact_spectrum``): exact parameters, the
  Gaussian-integer continuant of ``exact_poly``, correctly rounded monic
  coefficients, and one stacked ``polynomial_roots`` for every point.

The first is fast and backward stable; the second starts from exact
coefficients, so near higher-order degeneracies, where the dense solver
loses up to half the digits per Jordan order, it usually keeps more. It is
not exact: its companion roots were off by 8.7e-7 at N = 30, gamma = 0.5,
c = 0.01 and by 7.3e-5 at N = 11, gamma = 1e-5, c = 7.3 (against 80-digit
roots of the same polynomial), and no error radius is attached yet. Each
route serves as the other's oracle in the tests.

The dense route solves what ``HamiltonianFamily.stack`` gives: for even k
the real PT form of H, by real LAPACK (dgeev), at half the cost of a
complex solve and with every non-real eigenvalue paired with its exact
conjugate; for odd k, which has no PT symmetry, the complex H by zgeev.
Sweeps, trajectories and the EP locator's pair counts all go through
``stacked_spectra``. Both routes are counted by ``classify``, at a
tolerance on the one scale max(1, max|H|) of ``HamiltonianFamily.scales``.
Branch matching pairs eigenvalues by the package's own optimal
assignment, ``_roots.min_cost_assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._roots import _STACK_BYTES, NumericalError, min_cost_assignment, polynomial_roots
from .exact_poly import ExactTridiagonal, monic_floats, rat
from .operators import ModelParams, build_generalized_hamiltonian

__all__ = [
    "SpectralError",
    "ClassificationError",
    "Trajectory",
    "eigenvalues",
    "exact_spectra",
    "exact_spectrum",
    "analytic_c0_spectrum",
    "stacked_spectra",
    "sweep",
    "match_branches",
    "matched_sweep",
    "classify",
    "optimal_match_distance",
]


class SpectralError(NumericalError):
    """Eigensolver failure, carrying the offending parameters."""


class ClassificationError(NumericalError):
    """Krein pairing violated: an unpaired non-real eigenvalue."""


def _sorted_eigs(vals: np.ndarray) -> np.ndarray:
    """``vals`` with each row ordered by (Re, Im), sorted in place.

    The stable complex sort puts finite values, ties and signed zeros
    included, in the order of a lexsort on (Re, Im).
    """
    vals.sort(axis=-1, kind="stable")
    return vals


def eigenvalues(matrix, context: str = "") -> np.ndarray:
    """All eigenvalues of a float matrix by the dense LAPACK solver, in LAPACK's order.

    A stack of shape (..., M, M) gives each matrix's eigenvalues along the
    last axis, the same bits as one call per matrix. A float64
    matrix is solved as real (LAPACK dgeev), so every non-real eigenvalue
    comes with its exact conjugate; any other matrix is solved as complex.
    The result is complex either way. Exact matrices go through
    ``exact_spectrum``, the route from exact coefficients (see the module
    docstring for its measured errors near exceptional points).
    """
    arr = np.asarray(matrix)
    if arr.dtype != np.float64:
        arr = np.asarray(arr, dtype=complex)
    try:
        # LinAlgError also stands for a non-square or non-finite matrix
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed {context}: {exc}") from exc
    return vals.astype(complex, copy=False)


def exact_spectrum(tri: ExactTridiagonal) -> np.ndarray:
    """Eigenvalues of an exact tridiagonal matrix via its characteristic polynomial.

    The matrix must be parameter-free: one whose polynomial still depends
    on the formal parameter raises ValueError.
    """
    return _sorted_eigs(polynomial_roots(monic_floats(tri)))


def exact_spectra(params: ModelParams, vary: str, values):
    """Sorted eigenvalues of the exact H at each value of ``vary``.

    ``stacked_spectra`` on the exact route, with the same bits as
    ``exact_spectrum`` of each point's matrix: each value of ``vary``
    ("gamma" or "c") taken exactly, with ``params`` fixing the other, gives
    the monomial-basis H (``build_generalized_hamiltonian``), its continuant
    gives correctly rounded monic coefficients, and one stacked
    ``polynomial_roots`` solves them. A tolerance on these rows takes its
    scale from ``HamiltonianFamily.scales`` at the same point, as on the
    dense route.
    """
    if vary not in ("gamma", "c"):
        raise ValueError("vary must be 'gamma' or 'c'")
    points = (replace(params, **{vary: rat(x)}) for x in values)
    rows = [monic_floats(build_generalized_hamiltonian(p, "monomial")) for p in points]
    if not rows:
        return np.empty((0, params.particles + 1), dtype=complex)
    return _sorted_eigs(np.array(polynomial_roots(np.array(rows))))


def analytic_c0_spectrum(params: ModelParams) -> np.ndarray:
    """Closed-form spectrum at c = 0: lambda_n = n sqrt(v^2 - gamma^2).

    n runs over -N, -N+2, ..., N. The root is real for |gamma| <= |v| and
    positive imaginary beyond the breaking point.
    """
    if params.c != 0:
        raise ValueError("analytic spectrum requires c = 0")
    g, v = float(params.gamma), float(params.v)
    disc = v * v - g * g
    s = np.sqrt(disc) if disc >= 0 else 1j * np.sqrt(-disc)
    N = params.particles
    vals = np.array([n * s for n in range(-N, N + 1, 2)], dtype=complex)
    return _sorted_eigs(vals)


@dataclass(frozen=True)
class Trajectory:
    """One branch of an eigenvalue sweep: (parameter, eigenvalue) pairs."""

    branch: int
    parameters: np.ndarray
    values: np.ndarray


def stacked_spectra(family, vary: str, values):
    """Eigenvalues and scale max(1, max|H|) of a family's H at each value of ``vary``.

    ``family`` is an orthonormal ``HamiltonianFamily``. Returns the
    (len(values), N+1) eigenvalue array, each row in LAPACK's order (see
    ``eigenvalues``), and the array of scales, those of the complex H. Even
    k solves the real PT form of H (``family.stack``), odd k H itself.
    Matrices are eigensolved in stacks of at most
    _STACK_BYTES / (16 (N+1)^2) matrices, so the matrices held at once do
    not grow with the number of values. A failing stack is solved again
    one matrix at a time, so the error names its first failing point.
    """
    values = [float(x) for x in values]
    step = max(1, _STACK_BYTES // (16 * family.dim**2))
    rows = []
    for i in range(0, len(values), step):
        xs = values[i:i + step]
        H = family.stack(vary, xs)
        try:
            rows.append(eigenvalues(H))
        except SpectralError:
            p = family.params
            for x, h in zip(xs, H):
                gamma, c = (x, family.c) if vary == "gamma" else (family.gamma, x)
                eigenvalues(h, context=f"(N={p.particles}, gamma={gamma}, v={float(p.v)}, c={c})")
            raise
    rows = rows[0] if len(rows) == 1 else np.concatenate(
        rows or [np.empty((0, family.dim), dtype=complex)])
    return rows, family.scales(vary, values)


def sweep(params: ModelParams, vary: str, grid) -> np.ndarray:
    """The (points, N+1) array of eigenvalues at each grid point of gamma or c, by (Re, Im)."""
    if vary not in ("gamma", "c"):
        raise ValueError("vary must be 'gamma' or 'c'")
    family = build_generalized_hamiltonian(params, "orthonormal")
    return _sorted_eigs(stacked_spectra(family, vary, grid)[0])


def optimal_match_distance(a, b) -> float:
    """Max pair distance under the optimal assignment of two eigenvalue sets.

    Not ``_match_step``, which also orders the set and takes the median
    jump: ``exact-verify`` calls this 353 times a pass.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    return float(cost[np.arange(len(a)), min_cost_assignment(cost)].max())


_JUMP_RATIO = 10.0
_SHRINK_RATIO = 0.6  # between smooth (0.5) and square-root (0.71) jump shrinkage


def _match_step(prev, cur):
    """Order ``cur`` to continue ``prev`` by minimum-total-distance assignment.

    Returns (ordered, flagged, jump): jump is the largest matched distance,
    flagged when it exceeds _JUMP_RATIO times the median jump. The jumps,
    hence the flag, do not depend on the order of ``prev``.
    """
    ordered = cur[min_cost_assignment(np.abs(prev[:, None] - cur[None, :]))]
    jumps = np.abs(ordered - prev)
    floor = 1e-14 * max(1.0, np.abs(cur).max())
    return ordered, jumps.max() > _JUMP_RATIO * max(_median(jumps), floor), jumps.max()


def _median(values) -> float:
    """``np.median`` of a finite 1-d array, without the ``numpy.ma`` it imports on first use."""
    s, h = sorted(values.tolist()), len(values) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def match_branches(params, spectra):
    """Pair eigenvalues across a sweep by minimum-total-distance assignment.

    ``params`` are the swept parameter values and ``spectra`` the eigenvalue
    rows at them, at least one. Returns (trajectories, flagged_steps). A
    step is flagged when its largest matched jump exceeds _JUMP_RATIO (10)
    times the median jump of that step, which indicates the grid is too
    coarse there (typically near an exceptional point).
    """
    if len(spectra) < 1:
        raise ValueError("branch matching needs at least one grid point")
    rows = [np.array(spectra[0], dtype=complex)]
    flagged = []
    for i, spec in enumerate(spectra[1:]):
        ordered, jumped, _ = _match_step(rows[-1], spec)
        if jumped:
            flagged.append(i)
        rows.append(ordered)
    return _trajectories(params, rows), flagged


def _trajectories(params, rows):
    """One Trajectory per column of the matched eigenvalue rows."""
    table = np.array(rows)  # (points, branches)
    return [
        Trajectory(branch=b, parameters=np.array(params, dtype=float),
                   values=table[:, b].copy())
        for b in range(table.shape[1])
    ]


def matched_sweep(params: ModelParams, vary: str, grid, max_levels: int = 12,
                  evaluate=None):
    """Sweep with automatic dyadic refinement of flagged steps.

    Each grid step is refined on its own. A flagged grid step is halved;
    a flagged half is halved again only while its largest matched jump
    exceeds _SHRINK_RATIO (0.6) times that of the piece it came from, and
    while it is wider than 2^-max_levels of the step. Fast smooth motion
    halves its jump with the step and stops there; a square-root branch
    point shrinks it only by 1/sqrt(2) and is followed to the floor. Each
    piece is matched to the matched row at its left end, and a kept piece
    keeps that match: the trajectories are those of ``match_branches`` on
    the returned points, with no second pass. A one-point grid has no
    step, so nothing is refined.

    ``evaluate`` maps a list of ``vary`` values to eigenvalue rows (default:
    ``stacked_spectra`` of H at ``params``, each row ordered by (Re, Im));
    it gets the whole grid, then each inserted midpoint, so every returned
    point is evaluated once.

    Returns (trajectories, unresolved_intervals): the floor pieces still
    flagged and square-root-like, one per branch point crossed inside a
    flagged step, ready to hand to the EP locator.
    """
    if evaluate is None:
        family = build_generalized_hamiltonian(params, "orthonormal")
        evaluate = lambda xs: _sorted_eigs(stacked_spectra(family, vary, xs)[0])
    grid = sorted(float(g) for g in grid)
    if len(grid) < 1:
        raise ValueError("refinement needs at least one grid point")
    rows = evaluate(grid)
    # the matched rows: each kept piece appends its right end, ordered
    points, spectra = [grid[0]], [np.array(rows[0], dtype=complex)]
    unresolved = []
    for lo, hi, row in zip(grid, grid[1:], rows[1:]):
        floor = (hi - lo) / 2**max_levels
        # (right end, spectrum, parent jump) nearest on top; points[-1] is the left end
        pending = [(hi, row, 0.0)]  # a grid step has no parent: halve if flagged
        while pending:
            x, spec, parent = pending[-1]
            ordered, flagged, jump = _match_step(spectra[-1], spec)
            if flagged and jump > _SHRINK_RATIO * parent:
                if x - points[-1] > floor:
                    mid = (points[-1] + x) / 2.0
                    pending[-1] = (x, spec, jump)
                    pending.append((mid, evaluate([mid])[0], jump))
                    continue
                unresolved.append((points[-1], x))
            pending.pop()
            points.append(x)
            spectra.append(ordered)
    return _trajectories(points, spectra), unresolved


def classify(vals, imag_tol):
    """The number of conjugate pairs of a PT-symmetric spectrum, per row of a stack.

    A row's count is the number of its eigenvalues with Im > ``imag_tol``;
    |Im| <= ``imag_tol`` counts as real. ``imag_tol`` broadcasts against
    the rows, so a stack may carry one tolerance per row. A row with a
    different number of eigenvalues below -``imag_tol`` violates the Krein
    symmetry and raises ClassificationError. The dense route's real PT
    form pairs exactly, so there only the tolerance decides.
    """
    im = np.asarray(vals).imag
    above, below = (im > imag_tol).sum(axis=-1), (im < -imag_tol).sum(axis=-1)
    unbalanced = above != below
    if unbalanced.any():
        i = np.flatnonzero(unbalanced)[0]
        raise ClassificationError(f"unpaired non-real eigenvalues: {np.ravel(above)[i]} above "
                                  f"vs {np.ravel(below)[i]} below axis")
    return above
