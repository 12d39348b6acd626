"""Locating second-order exceptional points and the mother EP.

Detection rides on a robust integer: the number of complex-conjugate
eigenvalue pairs. Each EP is a transition of that count along gamma, so a
coarse scan plus bisection pins the position without ever minimizing an
ill-conditioned eigenvalue gap. The classification tolerance during
bisection is looser than for generic sweeps because the splitting grows
like the square root of the distance to the EP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .exact_poly import charpoly_of_tridiagonal, rat
from .operators import ModelParams, UsageError, build_generalized_hamiltonian

__all__ = [
    "EPRecord",
    "EPMap",
    "StrongCouplingPrediction",
    "EPLocationError",
    "NilpotencyError",
    "locate_eps",
    "ep_map",
    "mother_ep_check",
    "strong_coupling_predictions",
    "strong_coupling_validation",
]


# The coarse scan's grid size, the recursive splits allowed per cell, and the
# method every record names.
_COARSE_POINTS = 512
_MAX_SPLITS = 48
_METHOD = "pair-count-bisection"


class EPLocationError(RuntimeError):
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


@dataclass(frozen=True)
class StrongCouplingPrediction:
    """First-order strong-interaction level: E ~ 2 c m_z^2 + E1."""

    m_z: float
    e1: complex
    gamma_inf: float = None


def _exact_count(particles, gamma, v, c, tol):
    params = ModelParams(
        particles=particles, gamma=rat(float(gamma)), v=rat(float(v)), c=rat(float(c))
    )
    H = build_generalized_hamiltonian(params, "monomial")
    vals = spectra.exact_spectrum(H)
    return spectra.classify(vals, imag_tol=tol, pair_tol=float("inf")).conjugate_pair_count


def _pair_count_fn(particles, v, c):
    """Conjugate-pair counter in gamma.

    The float Hamiltonian is built once for (N, v, c); each count writes
    only its diagonal. ``count(gamma)`` counts at one point and
    ``count.many(gammas)`` at many, eigensolved in stacked blocks (see
    ``spectra.stacked_spectra``) with the same bits as one point at a time.

    The dense route is the fast path. Its count is trusted only while the
    conjugate pairing stays consistent; when it degrades (count imbalance or
    pairing residual beyond 1e-4 * scale, the signature of strong
    non-normality) the counter falls back to the exact-charpoly route. At
    c = 0 every breaking point sits at the order-(N+1) degeneracy where the
    dense route is meaningless, so the exact route is used outright.

    Eigenvalues with |Im| <= 1e-7 * scale count as real, with scale =
    max(1, max|H|).
    """
    exact_only = float(c) == 0.0
    params = ModelParams(particles=particles, v=float(v), c=float(c))
    family = build_generalized_hamiltonian(params, "orthonormal").family

    def at(gamma, vals, scale):
        tol = 1e-7 * scale
        if not exact_only:
            try:
                cls = spectra.classify(vals, imag_tol=tol, pair_tol=1e-4 * scale)
                return cls.conjugate_pair_count
            except spectra.ClassificationError:
                pass
        return _exact_count(particles, gamma, v, c, tol)

    def many(gammas) -> list:
        blocks = spectra.stacked_spectra(family, "gamma", gammas, lambda g: f"(gamma={g})")
        return [at(*point) for block in blocks for point in zip(*block)]

    def count(gamma: float) -> int:
        return many([gamma])[0]

    count.many = many
    return count


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


def _locate_transitions(count, lo, hi, clo, chi, tol):
    """Recursive splitter: resolve all count transitions in [lo, hi].

    ``clo`` and ``chi`` are the counts at the ends.
    """
    records = []

    def bisect(a, b, ca):
        while b - a > tol:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break  # a and b are adjacent floats
            if count(mid) != ca:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b), b - a

    def resolve(a, b, ca, cb, depth):
        jump = abs(cb - ca)
        if jump == 0:
            return
        if jump == 1:
            gamma, width = bisect(a, b, ca)
            records.append(EPRecord(gamma=gamma, order=2, method=_METHOD, bracket_width=width))
            return
        if depth >= _MAX_SPLITS:
            raise EPLocationError(
                f"cell [{a}, {b}] holds {jump} transitions, unresolved after {_MAX_SPLITS} splits"
            )
        mid = 0.5 * (a + b)
        cm = count(mid)
        resolve(a, mid, ca, cm, depth + 1)
        resolve(mid, b, cm, cb, depth + 1)

    resolve(lo, hi, clo, chi, 0)
    return records


def locate_eps(particles, v, c, gamma_range=None, tol=1e-9):
    """Second-order EP positions along gamma >= 0, one record per transition.

    Scans the conjugate-pair count on a grid of _COARSE_POINTS (512) and
    bisects every change to the requested bracket width. Cells holding
    several transitions are split recursively, at most _MAX_SPLITS (48)
    times. The default gamma range [0, |v| (N+3)/2] covers the
    strong-coupling asymptote |v| (N+1)/2 with margin; a given range must be
    finite with lo < hi (UsageError otherwise). For c = 0 use
    mother_ep_check instead (the degeneracy there has order N+1).

    The counter builds the float Hamiltonian once for (N, v, c); the coarse
    grid is counted in stacked eigensolves of at most about 1 MiB of
    matrices, and bisection counts one point at a time.

    ``tol`` bounds the bisection bracket and must be finite and > 0
    (UsageError otherwise); bisection also stops when the bracket ends are
    adjacent floats. The absolute position carries an additional
    reproducibility band of order 1e-6 from solver noise on the splitting
    at the classification threshold.
    """
    lo, hi = _search_range(particles, v, gamma_range, tol)
    count = _pair_count_fn(particles, v, c)
    grid = np.linspace(lo, hi, _COARSE_POINTS).tolist()
    counts = count.many(grid)
    records = []
    for i in range(len(grid) - 1):
        if counts[i + 1] != counts[i]:
            records.extend(_locate_transitions(
                count, grid[i], grid[i + 1], counts[i], counts[i + 1], tol))
    records.sort(key=lambda r: r.gamma)
    return records


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


@dataclass
class MotherEPReport:
    max_modulus_charpoly_route: float
    max_modulus_dense_route: float
    modulus_tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_modulus_charpoly_route <= self.modulus_tolerance


def _jordan_structure(H):
    """(H^M == 0, H^(M-1) != 0) for an exact tridiagonal M x M matrix H.

    H^M == 0 exactly when the characteristic polynomial is lambda^M. With
    every off-diagonal product nonzero H is irreducible, so its minimal
    polynomial is lambda^M too and H^(M-1) != 0; a reducible nilpotent H
    gives False even where H^(M-1) != 0.
    """
    nilpotent = not any(charpoly_of_tridiagonal(H).monic_coefficients()[:-1])
    return nilpotent, not nilpotent or all(
        H.entries[j - 1][j] * H.entries[j][j - 1] for j in range(1, H.dim))


def mother_ep_check(particles, v=1) -> MotherEPReport:
    """Verify the order-(N+1) EP at gamma = v, c = 0.

    Exact check (authoritative, by _jordan_structure): the monomial-basis
    Hamiltonian satisfies H^(N+1) = 0 with H^N != 0, i.e. it is one full
    Jordan block. Floating check: all eigenvalue moduli vanish to
    1e-6 * max|H|; the eigenvalues come from the exact characteristic
    polynomial (identically lambda^(N+1) here, so its companion roots are
    exact zeros). Moduli from the dense solver are reported for comparison
    but not gated: an (N+1)-fold root only admits accuracy ~ eps^(1/(N+1))
    on that route.
    """
    vr = rat(v)
    params = ModelParams(particles=particles, gamma=vr, v=vr, c=0)
    H = build_generalized_hamiltonian(params, "monomial")
    nilpotent, nonzero = _jordan_structure(H)
    if not (nilpotent and nonzero):
        raise NilpotencyError(
            f"mother EP structure violated at N={particles}, v={v}: "
            f"H^{particles + 1} zero: {nilpotent}, H^{particles} nonzero: {nonzero}"
        )
    scale = H.max_abs()
    exact_route = float(np.abs(spectra.exact_spectrum(H)).max())
    Hf = build_generalized_hamiltonian(
        ModelParams(particles=particles, gamma=float(vr), v=float(vr), c=0.0), "orthonormal"
    )
    dense_route = float(np.abs(spectra.eigenvalues(Hf)).max())
    return MotherEPReport(
        max_modulus_charpoly_route=exact_route,
        max_modulus_dense_route=dense_route,
        modulus_tolerance=1e-6 * scale,
    )


def strong_coupling_predictions(particles, v, gamma) -> list:
    """First-order corrections in the strong-interaction limit.

    The unperturbed levels 2 c m_z^2 are doubly degenerate in +-m_z. For
    |m_z| != 1/2 the degenerate perturbation matrix is diagonal and
    E1 = -2 i gamma m_z (the m_z = 0 state of even N stays unperturbed).
    For odd N the |m_z| = 1/2 pair mixes through the tunneling term:
    E1 = +- sqrt(v^2 ((N+1)/2)^2 - gamma^2), giving two second-order EPs
    with the asymptote gamma_inf = v (N+1)/2.
    """
    v = float(v)
    gamma = float(gamma)
    N = particles
    out = []
    for n in range(N + 1):
        m_z = n - N / 2.0
        if abs(abs(m_z) - 0.5) < 1e-12:
            half_sum = v * (N + 1) / 2.0
            disc = half_sum**2 - gamma**2
            root = np.sqrt(disc) if disc >= 0 else 1j * np.sqrt(-disc)
            # the +- assignment to the two mixed states is conventional
            e1 = root if m_z > 0 else -root
            out.append(StrongCouplingPrediction(m_z=m_z, e1=complex(e1), gamma_inf=half_sum))
        else:
            out.append(StrongCouplingPrediction(m_z=m_z, e1=complex(0, -2.0 * gamma * m_z)))
    return out


@dataclass
class StrongCouplingReport:
    levels: list  # (expected, actual, error, bound), ascending in expected

    @property
    def passed(self) -> bool:
        return all(err <= bound for _, _, err, bound in self.levels)


def strong_coupling_validation(particles, v, gamma, c) -> StrongCouplingReport:
    """Compare the spectrum against E0 + E1 in the strong-coupling regime.

    The per-level bound is 5 (v N / c) max(1, |expected|): the first
    neglected order is quadratic in the small parameters over the 2c level
    spacing. Exact agreement at v = 0 (H is then diagonal).
    """
    v, gamma, c = float(v), float(gamma), float(c)
    if v == 0.0:
        # H is diagonal at v = 0; built directly to sidestep the v != 0 guard
        H = np.diag(
            [
                2.0 * c * (n - particles / 2.0) ** 2 - 2j * gamma * (n - particles / 2.0)
                for n in range(particles + 1)
            ]
        )
        actual = spectra.eigenvalues(H)
    else:
        params = ModelParams(particles=particles, gamma=gamma, v=v, c=c)
        actual = spectra.eigenvalues(build_generalized_hamiltonian(params, "orthonormal"))
    predicted = np.array(
        [2.0 * c * p.m_z**2 + p.e1 for p in strong_coupling_predictions(particles, v, gamma)]
    )
    cost = np.abs(actual[:, None] - predicted[None, :])
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    rel = 5.0 * (v * particles / c) if c else np.inf
    levels = []
    for i, j in zip(rows, cols):
        expected = predicted[j]
        err = float(np.abs(actual[i] - expected))
        bound = rel * max(1.0, abs(expected))
        levels.append((complex(expected), complex(actual[i]), err, bound))
    return StrongCouplingReport(sorted(levels, key=lambda t: (t[0].real, t[0].imag)))
