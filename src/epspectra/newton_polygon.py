"""Puiseux-Newton diagram analysis of eigenvalue unfolding.

From the exact characteristic polynomial chi(lambda, c) each nonzero monic
coefficient contributes a diagram point (k, a_k): lambda-degree against the
lowest parameter exponent of that coefficient. The lower convex hull of
these points fixes the dominant fractional exponents mu = -slope of the
branch expansions lambda = e1 c^mu + o(c^mu); the points on one hull
segment assemble a reduced polynomial whose nonzero roots are the leading
coefficients e1. Roots of common modulus with phases spaced 2 pi / size
form eigenvalue rings.

A (k+1)-Hessenberg perturbation of a full Jordan block splits the
degenerate eigenvalue into floor((N+1)/(k+1)) rings of size k+1 with the
remaining branches grouped into smaller rings or singles; the quadratic
model's triplets are the k = 2 case of this law.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ._roots import RootFindingError, polynomial_roots
from .exact_poly import CharPoly, GaussianRational, ParamPoly, Rational, charpoly_of_tridiagonal
from .operators import ModelParams, build_generalized_hamiltonian

__all__ = [
    "DiagramPoint",
    "HullSegment",
    "UnfoldingBranch",
    "RingPrediction",
    "UnfoldingAnalysis",
    "DegenerateDiagramError",
    "build_points",
    "lower_hull",
    "reduced_polynomial",
    "solve_leading_coefficients",
    "group_rings",
    "predict_ring_counts",
    "unfolding_charpoly",
    "analyze_unfolding",
]


class DegenerateDiagramError(ValueError):
    """Too few diagram points for a hull (fully degenerate polynomial)."""


@dataclass(frozen=True)
class DiagramPoint:
    """(lambda-degree k, lowest parameter exponent a, its coefficient f)."""

    k: int
    a: int
    f: GaussianRational

    @property
    def xy(self):
        return (self.k, self.a)


@dataclass(frozen=True)
class HullSegment:
    """One lower-hull segment; mu = -slope is the unfolding exponent."""

    slope: object
    points: tuple

    @property
    def mu(self):
        return -self.slope

    @property
    def k_left(self) -> int:
        return self.points[0].k

    @property
    def k_right(self) -> int:
        return self.points[-1].k

    @property
    def extent(self) -> int:
        return self.k_right - self.k_left


@dataclass(frozen=True)
class UnfoldingBranch:
    """Leading-order branch lambda ~ e1 c^mu with its ring assignment."""

    mu: float
    e1: complex
    ring_id: int
    ring_size: int
    irregular: bool = False


@dataclass(frozen=True)
class RingPrediction:
    ring_count: int
    ring_size: int
    remainder: int


def build_points(charpoly: CharPoly) -> list:
    """Diagram points from the monic coefficients, skipping absent ones."""
    pts = []
    for k, coeff in enumerate(charpoly.monic_coefficients()):
        if not coeff:
            continue
        a, f = coeff.lowest_power()
        pts.append(DiagramPoint(k=k, a=a, f=f))
    return pts


def lower_hull(points) -> list:
    """Lower convex hull segments in the (k, a) plane, exact arithmetic.

    Each segment carries every diagram point incident on it (interior
    collinear points contribute to the reduced polynomial). Slopes strictly
    increase left to right.
    """
    pts = sorted(points, key=lambda p: p.k)
    if len(pts) < 2:
        raise DegenerateDiagramError("need at least two diagram points")
    if len({p.k for p in pts}) != len(pts):
        raise ValueError("duplicate lambda-degrees in diagram")
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            q1, q2 = hull[-2], hull[-1]
            # keep q2 only if it is strictly below the chord q1->p
            cross = (q2.k - q1.k) * (p.a - q1.a) - (p.k - q1.k) * (q2.a - q1.a)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    segments = []
    for left, right in zip(hull[:-1], hull[1:]):
        dk = right.k - left.k
        da = right.a - left.a
        slope = Rational(da) / Rational(dk)
        on = tuple(
            p
            for p in pts
            if left.k <= p.k <= right.k
            and Rational(p.a - left.a) * dk == Rational(p.k - left.k) * da
        )
        segments.append(HullSegment(slope=slope, points=on))
    return segments


def hull_supports_all_points(points, segments) -> bool:
    """Every diagram point lies on or above every segment's supporting line."""
    for seg in segments:
        p0 = seg.points[0]
        dk = seg.points[-1].k - p0.k
        da = seg.points[-1].a - p0.a
        for q in points:
            # (q.a - line(q.k)) * dk >= 0 with line through p0 of the segment slope
            if Rational(q.a - p0.a) * dk < Rational(q.k - p0.k) * da:
                return False
    return True


def reduced_polynomial(segment: HullSegment) -> ParamPoly:
    """Sum of f_k e^k over the segment's points, with e^{k_min} removed.

    The surviving polynomial has a nonzero constant term; its roots are the
    leading coefficients e1 for the segment's exponent mu. The monic-sign
    convention of the coefficients is inherited from build_points.
    """
    k0 = segment.k_left
    out = ParamPoly()
    for p in segment.points:
        out = out + ParamPoly.monomial(p.k - k0, p.f)
    return out


# Reduced-polynomial coefficients with |log2| beyond this are scaled by an
# exact power of two before they are converted to floats.
_FLOAT_EXPONENT = 1000


def _log2_modulus(g: GaussianRational) -> int:
    """log2 of max(|Re g|, |Im g|) for g != 0, to within 1."""
    return max(abs(r.numerator).bit_length() - r.denominator.bit_length()
               for r in (g.re, g.im) if r)


def _pow2(e: int):
    return Rational(2**e) if e >= 0 else Rational(1, 2**-e)


def solve_leading_coefficients(poly: ParamPoly) -> np.ndarray:
    """All nonzero complex roots of a reduced polynomial, to ~1e-10 relative.

    Companion-matrix eigenvalues polished by Newton iteration; roots at
    e = 0 are excluded (they belong to other hull segments). Coefficients
    beyond 2^+-1000, as a tiny or huge v gives, are brought into range
    exactly first: e = 2^s y, with s chosen from their magnitudes so the
    first and last coefficients of the y polynomial are alike, and the
    whole polynomial times a power of two; the roots are scaled back by
    2^s. Coefficients in range are not scaled. RootFindingError if the
    coefficients cannot all be brought into range, or a root lies beyond
    the normal float range.
    """
    if not poly:
        raise ValueError("zero reduced polynomial")
    terms = {e: g for e, g in poly.coeffs.items() if g}
    logs = {e: _log2_modulus(g) for e, g in terms.items()}
    s = t = 0
    if max(abs(x) for x in logs.values()) > _FLOAT_EXPONENT:
        lo, hi = min(terms), max(terms)
        s = round((logs[lo] - logs[hi]) / (hi - lo)) if hi > lo else 0
        scaled = [x + s * e for e, x in logs.items()]
        t = -round((max(scaled) + min(scaled)) / 2)
        if max(scaled) - min(scaled) > 2 * _FLOAT_EXPONENT:
            raise RootFindingError(
                "reduced polynomial coefficients span more than the float range")
    coeffs = np.zeros(poly.degree + 1, dtype=complex)
    for e, g in terms.items():
        coeffs[e] = complex(g.scale(_pow2(s * e + t)) if s or t else g)
    roots = polynomial_roots(coeffs)
    roots = roots[roots != 0]
    if s:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            roots = roots * np.ldexp(1.0, s)
        if not np.all(np.isfinite(roots) & (np.abs(roots) >= np.finfo(float).tiny)):
            raise RootFindingError("a leading coefficient lies beyond the float range")
    return roots


# Leading coefficients whose moduli agree to this relative tolerance form one
# group; the group is a ring when its phase gaps match 2 pi / size to this.
_MODULUS_RTOL = 1e-6
_PHASE_TOL = 1e-9


def group_rings(coefficients, mu, first_id=0) -> list:
    """Partition leading coefficients into eigenvalue rings.

    Coefficients are grouped by modulus (relative tolerance _MODULUS_RTOL);
    a group is a ring when its phases are spaced by 2 pi / size. A
    same-modulus group with irregular phases is split into singles and
    flagged, not treated as a ring (this is how e.g. a conjugate pair of
    independent linear branches with accidentally equal moduli is
    reported). Ring ids count up from ``first_id``.
    """
    roots = np.asarray(coefficients, dtype=complex)
    if roots.size == 0:
        return []
    mu_f = float(mu)
    order = np.argsort(np.abs(roots))
    groups = []
    for idx in order:
        r = roots[idx]
        if groups and abs(abs(r) - abs(groups[-1][-1])) <= _MODULUS_RTOL * max(abs(r), abs(groups[-1][-1])):
            groups[-1].append(r)
        else:
            groups.append([r])
    branches = []
    ring_id = first_id
    for grp in groups:
        size = len(grp)
        regular = True
        if size > 1:
            phases = np.sort(np.angle(np.array(grp)))
            gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
            regular = bool(np.all(np.abs(gaps - 2 * np.pi / size) <= _PHASE_TOL + 1e-12 * size))
        if regular:
            for r in grp:
                branches.append(UnfoldingBranch(mu=mu_f, e1=r, ring_id=ring_id, ring_size=size))
            ring_id += 1
        else:
            for r in grp:
                branches.append(
                    UnfoldingBranch(mu=mu_f, e1=r, ring_id=ring_id, ring_size=1, irregular=True)
                )
                ring_id += 1
    return branches


def predict_ring_counts(N: int, k: int) -> RingPrediction:
    """Ring law for a (k+1)-Hessenberg perturbation of the order-(N+1) EP.

    For k <= N-1: floor((N+1)/(k+1)) rings of size k+1 and a remainder of
    (N+1) - p(k+1) branches in smaller groups. For k >= N the bottom-left
    corner of the perturbation is populated and a single (N+1)-ring forms.
    """
    if k < 1:
        raise ValueError("perturbation power must be >= 1")
    if k >= N:
        return RingPrediction(ring_count=1, ring_size=N + 1, remainder=0)
    p = (N + 1) // (k + 1)
    return RingPrediction(ring_count=p, ring_size=k + 1, remainder=(N + 1) - p * (k + 1))


def unfolding_charpoly(N: int, k: int = 2, v=1) -> CharPoly:
    """Exact characteristic polynomial of the order-(N+1) EP's unfolding.

    At gamma = v the model H = -2i v L_z + 2 v L_x + 2c L_z^k, with c
    formal, is tridiagonal in the monomial basis, so the continuant gives
    its polynomial; it equals that of the rotated Hessenberg form H~ (a
    similarity). For k = 1 the parameter is Delta = gamma - v instead:
    gamma = v + Delta formal, at c = 0.
    """
    t = ParamPoly.monomial(1, 1)
    gamma, c = (ParamPoly.const(v) + t, 0) if k == 1 else (v, t)
    params = ModelParams(particles=N, gamma=gamma, v=v, c=c, pert_power=k)
    tri = build_generalized_hamiltonian(params, "monomial")
    return charpoly_of_tridiagonal(replace(tri, param="Delta") if k == 1 else tri)


@dataclass
class UnfoldingAnalysis:
    """Full Newton-diagram unfolding of one characteristic polynomial."""

    points: list
    segments: list
    reduced: list
    branches: list
    zero_branch_count: int

    def ring_size_counts(self) -> dict:
        """{ring size: number of rings}, identically-zero branches counted as singles."""
        counts = Counter({(b.mu, b.ring_id): b.ring_size for b in self.branches}.values())
        if self.zero_branch_count:
            counts[1] += self.zero_branch_count
        return dict(counts)


def analyze_unfolding(charpoly: CharPoly) -> UnfoldingAnalysis:
    """Diagram, hull, reduced polynomials, leading coefficients, rings.

    Branch accounting is verified: hull-segment extents plus the
    identically-zero branches (the leftmost hull abscissa) must exhaust all
    N+1 eigenvalue branches.
    """
    points = build_points(charpoly)
    M = charpoly.dim
    # a single point is chi = +-lambda^M: fully degenerate, nothing unfolds
    segments = lower_hull(points) if len(points) > 1 else []
    if not hull_supports_all_points(points, segments):
        raise AssertionError("hull consistency violated")
    zero_branches = min(p.k for p in points)
    reduced = []
    branches = []
    for seg in segments:
        poly = reduced_polynomial(seg)
        reduced.append(poly)
        roots = solve_leading_coefficients(poly)
        if len(roots) != seg.extent:
            raise AssertionError(
                f"segment accounts for {seg.extent} branches but produced {len(roots)} roots"
            )
        branches += group_rings(roots, seg.mu, branches[-1].ring_id + 1 if branches else 0)
    total = zero_branches + sum(seg.extent for seg in segments)
    if total != M:
        raise AssertionError(f"branch accounting: {total} != {M}")
    return UnfoldingAnalysis(
        points=points,
        segments=segments,
        reduced=reduced,
        branches=branches,
        zero_branch_count=zero_branches,
    )
