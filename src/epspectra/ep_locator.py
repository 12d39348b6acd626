"""Locating second-order exceptional points and the mother EP.

Detection rides on a robust integer: the number of complex-conjugate
eigenvalue pairs. Each EP is a transition of that count along gamma, so a
coarse scan plus bisection pins the position without ever minimizing an
ill-conditioned eigenvalue gap. The count comes from real LAPACK solves of
the real PT form of H, whose non-real eigenvalues come in exact conjugate
pairs, so ``spectra.classify`` counts them with one threshold on Im.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from ._roots import NumericalError
from .exact_poly import _continuant, rat
from .operators import ModelParams, UsageError, build_generalized_hamiltonian

__all__ = [
    "EPRecord",
    "EPMap",
    "EPLocationError",
    "NilpotencyError",
    "locate_eps",
    "ep_map",
    "mother_ep_check",
]


# The coarse scan's grid size, the splits allowed per cell, and the
# method every record names.
_COARSE_POINTS = 512
_MAX_SPLITS = 48
_METHOD = "pair-count-bisection"


class EPLocationError(NumericalError):
    """A scan cell could not be resolved into single transitions."""


class NilpotencyError(RuntimeError):
    """The exact mother-EP nilpotency check failed."""


@dataclass(frozen=True)
class EPRecord:
    """A located exceptional point on the gamma >= 0 half-line."""

    gamma: float
    order: int
    method: str
    bracket_width: float


@dataclass
class EPMap:
    """EP positions over a c grid; per-c lists sorted ascending in gamma."""

    c_values: list
    records: list  # one list of EPRecord per c value


def _exact_count(particles, gamma, v, c, tol):
    """Conjugate pairs at one point on the exact route: ``spectra.classify`` at tolerance ``tol``."""
    params = ModelParams(particles=particles, v=rat(float(v)), c=rat(float(c)))
    return int(spectra.classify(spectra.exact_spectra(params, "gamma", [float(gamma)])[0], tol))


def _pair_count_fn(particles, v, c):
    """Conjugate-pair counter in gamma: ``counts(gammas)`` -> list of counts.

    The Hamiltonian is built once for (N, v, c). Each call writes only its
    gamma entries and eigensolves the whole list in stacked blocks of the
    real PT form (see ``spectra.stacked_spectra``), the same bits as one
    point at a time. ``spectra.classify`` counts every row at once, in
    LAPACK's order, which the count does not need sorted, at the tolerance
    1e-7 * scale, with scale = max(1, max|H|) of the complex H
    (``HamiltonianFamily.scales``). LAPACK returns every non-real
    eigenvalue of a real matrix with its exact conjugate, so the count
    never finds a row unbalanced, and there is no fallback.
    """
    family = build_generalized_hamiltonian(
        ModelParams(particles=particles, v=float(v), c=float(c)), "orthonormal")

    def counts(gammas) -> list:
        rows, scales = spectra.stacked_spectra(family, "gamma", gammas)
        return spectra.classify(rows, 1e-7 * scales[:, None]).tolist()

    return counts


def _search_range(particles, v, gamma_range, tol):
    """(lo, hi) to scan, by default (0, |v| (N+3)/2).

    UsageError unless lo < hi are finite and tol is finite and > 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"bisection tolerance must be finite and > 0, got {tol!r}")
    if gamma_range is None:
        gamma_range = (0.0, abs(float(v)) * (particles + 3) / 2.0)
    lo, hi = (float(g) for g in gamma_range)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"gamma range must be finite with lo < hi, got {gamma_range!r}")
    return lo, hi


def _locate_transitions(counts, cells, tol):
    """Breadth-first splitter: one record, in no order, per transition in ``cells``.

    ``cells`` are (a, b, ca, cb) with end counts ca != cb; each round counts
    the midpoints of all open cells in one call to ``counts``. A bisecting
    cell keeps (a, mid) if the count at mid differs from ca, else (mid, b).
    """
    records = []
    # (a, b, ca, cb, splits so far, or None once the cell bisects)
    cells = [(a, b, ca, cb, 0 if abs(cb - ca) > 1 else None) for a, b, ca, cb in cells]
    while cells:
        halving = []
        for a, b, ca, cb, splits in cells:
            mid = 0.5 * (a + b)
            if splits is None and (b - a <= tol or not a < mid < b):
                records.append(EPRecord(gamma=mid, order=2, method=_METHOD, bracket_width=b - a))
            elif splits is not None and splits >= _MAX_SPLITS:
                raise EPLocationError(f"cell [{a}, {b}] holds {abs(cb - ca)} transitions, "
                                      f"unresolved after {_MAX_SPLITS} splits")
            else:
                halving.append((a, mid, b, ca, cb, splits))
        if not halving:
            break
        cells = []
        for (a, mid, b, ca, cb, splits), cm in zip(halving, counts([h[1] for h in halving])):
            if splits is None:
                # ca stays the reference count, whatever cm is
                cells.append((a, mid, ca, cm, None) if cm != ca else (mid, b, ca, cb, None))
                continue
            for lo, hi, clo, chi in ((a, mid, ca, cm), (mid, b, cm, cb)):
                if clo != chi:
                    cells.append((lo, hi, clo, chi, splits + 1 if abs(chi - clo) > 1 else None))
    return records


def locate_eps(particles, v, c, gamma_range=None, tol=1e-9):
    """Second-order EP positions along gamma >= 0, one record per transition.

    Scans the conjugate-pair count on a grid of _COARSE_POINTS (512) and
    bisects every change to the requested bracket width; a cell holding
    several transitions is split first, at most _MAX_SPLITS (48) times. The
    scan is one call to the counter and every round of ``_locate_transitions``
    another, each a stacked eigensolve. The default gamma range
    [0, |v| (N+3)/2] covers the strong-coupling asymptote |v| (N+1)/2 with
    margin; a given range must be finite with lo < hi (UsageError
    otherwise). c = 0 is refused (UsageError): its only EPs are the two
    of order N+1 at gamma = +-v, which ``mother_ep_check`` verifies. A
    negative c gives the EPs of |c| (H(-c) is similar to -H(c)).

    ``tol`` bounds the bisection bracket and must be finite and > 0
    (UsageError otherwise); bisection also stops when the bracket ends are
    adjacent floats. The count calls |Im| <= 1e-7 * scale real and has no
    pairing fallback (see ``_pair_count_fn``), so bisection converges where
    the splitting crosses that threshold, not on the EP itself. Measured at
    N = 11, v = 1: at c = 0.004 EPs 1 and 2 lie within 2e-9 of a bisected
    40-digit count; at c = 1e-4, 5 of the 6 positions are wrong (ROADMAP
    item 14); at c >= 0.39 the small-gamma EPs, whose splitting grows
    slowly, are wrong, at c = 7.3 by up to 6e-6 (ROADMAP item 1). Near each
    crossing the count flickers over about 1e-6 of gamma (a coarser scan
    moves the c = 0.1/11 EPs by up to 2e-6), so digits below that are
    rounding noise, whatever ``tol`` is.
    """
    lo, hi = _search_range(particles, v, gamma_range, tol)
    if float(c) == 0.0:
        raise UsageError("locate_eps needs c != 0 (the c=0 EP is the mother EP: "
                         "use mother_ep_check)")
    counts = _pair_count_fn(particles, v, c)
    grid = np.linspace(lo, hi, _COARSE_POINTS).tolist()
    scan = counts(grid)
    cells = [cell for cell in zip(grid, grid[1:], scan, scan[1:]) if cell[2] != cell[3]]
    return sorted(_locate_transitions(counts, cells, tol), key=lambda r: r.gamma)


def ep_map(particles, v, c_grid, gamma_range=None, tol=1e-9) -> EPMap:
    """locate_eps per c; the i-th EP of each c lies on the i-th curve."""
    gamma_range = _search_range(particles, v, gamma_range, tol)
    c_values = [float(c) for c in c_grid]
    if any(c <= 0 for c in c_values):
        raise UsageError("ep_map needs a positive c grid (the c=0 point is the mother EP)")
    records = []
    for c in c_values:
        try:
            records.append(locate_eps(particles, v, c, gamma_range=gamma_range, tol=tol))
        except (EPLocationError, spectra.SpectralError) as exc:
            raise EPLocationError(f"EP map failed at c={c}: {exc}") from exc
    return EPMap(c_values=c_values, records=records)


def _jordan_structure(tri):
    """(H^M == 0, H^(M-1) != 0) for an M x M ``ExactTridiagonal`` H.

    H^M == 0 exactly when the characteristic polynomial is lambda^M. With
    every off-diagonal product nonzero H is irreducible, so its minimal
    polynomial is lambda^M too and H^(M-1) != 0; a reducible nilpotent H
    gives False even where H^(M-1) != 0.
    """
    monic = _continuant(tri.diag, tri.offs)
    nilpotent = len(monic) == 1 and not any(re or im for re, im in monic[0][:-1])
    return nilpotent, not nilpotent or all(any(re or im for re, im in b) for b in tri.offs)


def mother_ep_check(particles, v=1) -> None:
    """Verify the order-(N+1) EP at gamma = v, c = 0, or raise NilpotencyError.

    Exactly, by ``_jordan_structure``: the monomial-basis H satisfies
    H^(N+1) = 0 with H^N != 0, i.e. it is one full Jordan block. No float
    route could add to that: the companion roots of lambda^(N+1) are exact
    zeros, and the dense solver is accurate only to ~ eps^(1/(N+1)) here.
    """
    vr = rat(v)
    params = ModelParams(particles=particles, gamma=vr, v=vr, c=0)
    nilpotent, nonzero = _jordan_structure(build_generalized_hamiltonian(params, "monomial"))
    if not (nilpotent and nonzero):
        raise NilpotencyError(
            f"mother EP structure violated at N={particles}, v={v}: "
            f"H^{particles + 1} zero: {nilpotent}, H^{particles} nonzero: {nonzero}"
        )
