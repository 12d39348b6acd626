"""Acceptance suite: one callable per criterion, each at its stated tolerance.

Every criterion returns (passed, detail); the runner prints one PASS/FAIL
line per criterion with deterministic formatting, so repeated runs produce
byte-identical reports. ``tol_scale`` exists for harness self-tests: scaling
the floating tolerances to zero must make the suite fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ep_locator, newton_polygon, spectra
from .exact_poly import (
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    faddeev_leverrier,
    rat,
    verify_trace_structure,
)
from .operators import (ModelParams, UsageError, build_generalized_hamiltonian,
                        build_rotated_hamiltonian)

__all__ = ["CriterionResult", "CRITERIA", "run", "main_report"]


@dataclass
class CriterionResult:
    key: str
    description: str
    passed: bool
    detail: str


def criterion_c0_spectrum(tol_scale=1.0):
    """Exact c=0 spectrum vs analytic law over 200 gamma points in [0, 2]."""
    N = 11
    tol = 1e-9 * N * tol_scale
    gammas = [Rational(2 * k) / 199 for k in range(200)]
    rows = spectra.exact_spectra(ModelParams(particles=N, v=1, c=0), "gamma", gammas)
    worst = 0.0
    for g, ev in zip(gammas, rows):
        ana = spectra.analytic_c0_spectrum(ModelParams(particles=N, gamma=float(g), v=1.0, c=0.0))
        worst = max(worst, spectra.optimal_match_distance(ev, ana))
    return worst <= tol, f"max matched distance {worst:.3e} (tol {tol:.3e})"


def criterion_mother_ep(tol_scale=1.0):
    """Exact nilpotency H^(N+1)=0, H^N!=0 at gamma=v, c=0 for N=1..15."""
    for N in range(1, 16):
        ep_locator.mother_ep_check(N, 1)  # raises NilpotencyError on a violation
    return True, "N=1..15 exactly nilpotent"


def _expected_n5_monic():
    """The printed N=5 polynomial at v=1, monic coefficients ascending."""
    def poly(terms):
        p = ParamPoly()
        for e, num, den in terms:
            p = p + ParamPoly.monomial(e, GaussianRational(Rational(num) / Rational(den)))
        return p

    return [
        poly([(2, 6400, 1), (4, -30600, 1), (6, 50625, 64)]),       # lambda^0
        poly([(3, 27280, 1), (5, -58275, 16)]),                     # lambda^1
        poly([(2, -6112, 1), (4, 82831, 16)]),                      # lambda^2
        poly([(1, 448, 1), (3, -4645, 2)]),                         # lambda^3
        poly([(2, 1743, 4)]),                                       # lambda^4
        poly([(1, -35, 1)]),                                        # lambda^5
        poly([(0, 1, 1)]),                                          # lambda^6
    ]


def criterion_n5_charpoly(tol_scale=1.0):
    """Faddeev-LeVerrier on the paper's rotated H~ gives the printed N=5 coefficients."""
    H = build_rotated_hamiltonian(ModelParams(particles=5, gamma=1, v=1))
    cp = faddeev_leverrier(H)
    got = cp.monic_coefficients()
    expected = _expected_n5_monic()
    for j, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            return False, f"monic lambda^{j} coefficient differs: {g.render()} != {e.render()}"
    return True, "all seven coefficients match with exact rational equality"


def criterion_trace_structure(tol_scale=1.0):
    """Every monomial of p_k has parameter power k-2j, j <= k//3, N <= 10."""
    for N in range(1, 11):
        cp = newton_polygon.unfolding_charpoly(N, 2)
        try:
            verify_trace_structure(cp)
        except AssertionError as exc:
            return False, f"N={N}: {exc}"
    return True, "exponent law holds exactly for all s_k, p_k up to N=10"


def criterion_newton_n5(tol_scale=1.0):
    """N=5 diagram points, hull slope, reduced polynomial, and e^3 roots."""
    cp = newton_polygon.unfolding_charpoly(5, 2)
    analysis = newton_polygon.analyze_unfolding(cp)
    pts = sorted(p.xy for p in analysis.points)
    expected_pts = [(0, 2), (1, 3), (2, 2), (3, 1), (4, 2), (5, 1), (6, 0)]
    if pts != expected_pts:
        return False, f"points {pts} != {expected_pts}"
    if len(analysis.segments) != 1 or analysis.segments[0].slope != Rational(-1) / 3:
        return False, "hull is not the single slope -1/3 line"
    expected_reduced = (
        ParamPoly.monomial(0, GaussianRational(6400))
        + ParamPoly.monomial(3, GaussianRational(448))
        + ParamPoly.monomial(6, GaussianRational(1))
    )
    if analysis.reduced[0] != expected_reduced:
        return False, f"reduced polynomial {analysis.reduced[0].render('e')}"
    cubes = sorted({round(float((b.e1**3).real), 6) for b in analysis.branches})
    targets = [-433.23, -14.77]
    tol = 0.01 * tol_scale if tol_scale else 0.0
    ok = len(cubes) == 2 and all(abs(c - t) <= tol for c, t in zip(cubes, targets))
    return ok, f"e^3 values {cubes} vs {targets} (tol {tol:g})"


def criterion_newton_n10(tol_scale=1.0):
    """N=10 hull exponents, the printed linear-branch quadratic, its roots."""
    cp = newton_polygon.unfolding_charpoly(10, 2)
    analysis = newton_polygon.analyze_unfolding(cp)
    mus = sorted(seg.mu for seg in analysis.segments)
    if mus != [Rational(1) / 3, Rational(1)]:
        return False, f"hull exponents {mus}"
    # The printed quadratic corresponds to the perturbation -c (L+-L-)^2,
    # the physical -c/2 (L+-L-)^2 at 2c; reproduce it in that normalization
    # (c = 2t, formal t) and tie the physical roots back by the exact factor 2.
    params = ModelParams(particles=10, gamma=1, v=1, c=ParamPoly.monomial(1, 2))
    cp2 = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
    analysis2 = newton_polygon.analyze_unfolding(cp2)
    seg_lin = [s for s in analysis2.segments if s.mu == Rational(1)][0]
    red = newton_polygon.reduced_polynomial(seg_lin)
    f = {e: g for e, g in red.coeffs.items()}
    paper = {0: Rational(-33581039616000), 1: Rational(2410418995200), 2: Rational(-46423756800)}
    for (e1, e2) in ((0, 1), (1, 2)):
        lhs = f[e1].re * paper[e2]
        rhs = f[e2].re * paper[e1]
        if lhs != rhs or f[e1].im or f[e2].im:
            return False, "linear-branch quadratic is not a rational multiple of the printed one"
    roots = sorted(
        (b.e1 for b in analysis2.branches if b.mu == 1.0), key=lambda z: z.imag
    )
    re_exact = 145304.0 / 5597.0
    im_exact = float(np.sqrt(4048640.0 / 5597.0 - re_exact**2))
    targets = [re_exact - 1j * im_exact, re_exact + 1j * im_exact]
    tol = 0.1 * tol_scale
    ok = all(abs(r - t) <= tol for r, t in zip(roots, targets))
    # physical normalization carries exactly half the printed coefficients
    phys = sorted((b.e1 for b in analysis.branches if b.mu == 1.0), key=lambda z: z.imag)
    half = all(abs(p - t / 2.0) <= 1e-9 * abs(t) for p, t in zip(phys, targets))
    detail = (
        f"roots {roots[1]:.5f} / conj vs {re_exact:.5f}+{im_exact:.5f}i (tol {tol:g}); "
        f"physical roots are half: {half}"
    )
    return ok and half, detail


def criterion_ring_law(tol_scale=1.0):
    """Ring sizes match the Hessenberg law for N <= 12, k = 1..N."""
    for N in range(1, 13):
        for k in range(1, N + 1):
            cp = newton_polygon.unfolding_charpoly(N, k)
            analysis = newton_polygon.analyze_unfolding(cp)
            pred = newton_polygon.predict_ring_counts(N, k)
            sizes = analysis.ring_size_counts()
            big = sizes.get(pred.ring_size, 0)
            rest = sum(s * n for s, n in sizes.items() if s != pred.ring_size)
            if big != pred.ring_count or rest != pred.remainder:
                return False, (
                    f"N={N} k={k}: {big} rings of {pred.ring_size} + {rest} others, "
                    f"expected {pred.ring_count} + {pred.remainder}"
                )
            if any(s > pred.ring_size for s in sizes):
                return False, f"N={N} k={k}: ring larger than {pred.ring_size} found"
    return True, "all (N, k) up to N=12 split as floor((N+1)/(k+1)) rings plus remainder"


def criterion_puiseux_scaling(tol_scale=1.0):
    """Triplet branches of N=11 fit a log-log slope 1/3 over c in [1e-6, 1e-4]."""
    N = 11
    cs = [Rational(1, 10**6) * 2**j for j in range(7)]
    rows = spectra.exact_spectra(ModelParams(particles=N, gamma=1, v=1), "c", cs)
    mods = np.sort(np.abs(rows), axis=1)
    logs_c = np.log(np.array([float(c) for c in cs]))
    tol = 0.02 * tol_scale
    worst = 0.0
    for b in range(N + 1):
        slope = np.polyfit(logs_c, np.log(mods[:, b]), 1)[0]
        worst = max(worst, abs(slope - 1.0 / 3.0))
    return worst <= tol, f"max |slope - 1/3| = {worst:.4f} over 12 branches (tol {tol:g})"


def criterion_ep_census(tol_scale=1.0):
    """N=11, c=0.1/11: exactly 6 second-order EPs, 4 below gamma=1, 2 above."""
    recs = ep_locator.locate_eps(11, 1.0, 0.1 / 11.0)
    below = sum(1 for r in recs if r.gamma < 1.0)
    above = sum(1 for r in recs if r.gamma > 1.0)
    ok = len(recs) == 6 and below == 4 and above == 2
    gammas = ", ".join(f"{r.gamma:.6f}" for r in recs)
    return ok, f"{len(recs)} EPs ({below} below, {above} above): {gammas}"


def criterion_strong_coupling(tol_scale=1.0):
    """Asymptotes: N=11 largest EP -> 6 at c=100; N=10 EPs small and shrinking."""
    recs = ep_locator.locate_eps(11, 1.0, 100.0)
    target = 6.0
    rel = abs(recs[-1].gamma - target) / target
    tol = 0.05 * tol_scale
    if rel > tol:
        return False, f"N=11 largest EP {recs[-1].gamma:.4f}, off 6 by {rel:.2%}"
    maxima = []
    for c in (25.0, 50.0, 100.0):
        recs10 = ep_locator.locate_eps(10, 1.0, c)
        if c == 100.0 and any(r.gamma >= 0.5 * max(tol_scale, 1e-12) for r in recs10):
            return False, f"N=10 c=100 has an EP at {max(r.gamma for r in recs10):.3f} >= 0.5"
        maxima.append(max(r.gamma for r in recs10))
    decreasing = maxima[0] > maxima[1] > maxima[2]
    detail = (
        f"N=11 largest {recs[-1].gamma:.4f} (off by {rel:.2%}); "
        f"N=10 max EP over c=25,50,100: "
        + ", ".join(f"{m:.4f}" for m in maxima)
    )
    return decreasing, detail


def _scale(params, gamma):
    """max(1, max|H|) at ``params`` and ``gamma``, from ``HamiltonianFamily.scales``."""
    family = build_generalized_hamiltonian(params, "orthonormal")
    return float(family.scales("gamma", [float(gamma)])[0])


def criterion_krein_suite(tol_scale=1.0):
    """Conjugation closure, gamma-sign symmetry, c=0 lambda -> -lambda closure."""
    rng = np.random.default_rng(20260809)
    for trial in range(50):
        N = int(rng.integers(2, 13))
        gamma = rat(float(rng.uniform(0.0, 2.0)))
        c = rat(float(rng.uniform(0.0, 1.5 / N)))
        params = ModelParams(particles=N, v=1, c=c)
        ev, evm = spectra.exact_spectra(params, "gamma", [gamma, -gamma])
        tol = 1e-9 * _scale(params, gamma) * tol_scale
        if spectra.optimal_match_distance(ev, np.conj(ev)) > tol:
            return False, f"trial {trial}: conjugation closure violated"
        if spectra.optimal_match_distance(ev, evm) > tol:
            return False, f"trial {trial}: gamma-sign symmetry violated"
        ev0 = spectra.exact_spectra(ModelParams(particles=N, v=1, c=0), "gamma", [gamma])[0]
        if spectra.optimal_match_distance(ev0, -ev0) > tol:
            return False, f"trial {trial}: c=0 sign closure violated"
    # the extra symmetry must break at c != 0
    N = 11
    evc = spectra.exact_spectra(
        ModelParams(particles=N, v=1, c=rat("0.5") / N), "gamma", [rat("0.5")])[0]
    asym = spectra.optimal_match_distance(evc, -evc)
    ok = asym > 1e-3
    return ok, f"50 draws closed under conjugation and gamma-sign; c!=0 asymmetry {asym:.3e}"


def criterion_classification(tol_scale=1.0):
    """Pair/real counts at gamma = 1 for N=11 (4+4 pairs) and N=5 (2+2).

    Each pair must also be a conjugate pair: the optimal matching of the
    upper values to the conjugates of the lower ones stays within
    max(4 tol, 1e-10 max(1, max|lambda|)).
    """
    for N, expected in ((11, 4), (5, 2)):
        params = ModelParams(particles=N, v=1, c=rat("0.1") / N)
        (ev,) = spectra.exact_spectra(params, "gamma", [1])
        tol = 1e-9 * _scale(params, 1)
        pairs = int(spectra.classify(ev, tol))
        if pairs != expected:
            return False, f"N={N}: {N + 1 - 2 * pairs} real + {pairs} pairs"
        residual = spectra.optimal_match_distance(ev[ev.imag > tol], np.conj(ev[ev.imag < -tol]))
        bound = max(4.0 * tol, 1e-10 * max(1.0, float(np.abs(ev).max())))
        if residual > bound:
            return False, f"N={N}: conjugate pairing residual {residual:.3e} exceeds {bound:.3e}"
    # the signs of the real parts, at N = 5
    reals = ev[np.abs(ev.imag) <= tol]
    upper = ev[ev.imag > tol]
    ok = bool(np.all(reals.real < 0) and np.all(upper.real > 0))
    return ok, (
        "N=11: 4 real + 4 pairs; N=5: 2 negative real + 2 pairs with positive real parts"
    )


CRITERIA = [
    ("c0-spectrum", "exact c=0 spectrum matches the analytic law", criterion_c0_spectrum),
    ("mother-ep", "exact nilpotency of the order-(N+1) EP, N=1..15", criterion_mother_ep),
    ("n5-charpoly", "N=5 characteristic polynomial equals the printed coefficients",
     criterion_n5_charpoly),
    ("trace-structure", "coefficient exponent law k-2j up to N=10", criterion_trace_structure),
    ("newton-n5", "N=5 Newton diagram, hull, reduced polynomial, roots", criterion_newton_n5),
    ("newton-n10", "N=10 Newton diagram and linear-branch quadratic", criterion_newton_n10),
    ("ring-law", "ring sizes follow the Hessenberg law for N <= 12", criterion_ring_law),
    ("puiseux-scaling", "triplet branches scale as c^(1/3)", criterion_puiseux_scaling),
    ("ep-census", "six second-order EPs for N=11 at weak interaction", criterion_ep_census),
    ("strong-coupling", "EP asymptotes at strong interaction", criterion_strong_coupling),
    ("krein-symmetry", "conjugation closure and sign symmetries", criterion_krein_suite),
    ("classification", "real/pair counts at gamma = 1", criterion_classification),
]


def run(keys=None, tol_scale=1.0):
    """Run the acceptance criteria, all or those named in ``keys``.

    Returns a list of CriterionResult. An unknown key is a UsageError,
    raised before any criterion runs.
    """
    known = [c[0] for c in CRITERIA]
    unknown = [k for k in keys or () if k not in known]
    if unknown:
        raise UsageError(f"unknown criterion {', '.join(map(repr, unknown))}; "
                         f"valid keys: {', '.join(known)}")
    selected = CRITERIA if not keys else [c for c in CRITERIA if c[0] in set(keys)]
    results = []
    for key, description, fn in selected:
        try:
            passed, detail = fn(tol_scale=tol_scale)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(key=key, description=description,
                                       passed=passed, detail=detail))
    return results


def main_report(keys=None, tol_scale=1.0, write=print) -> bool:
    results = run(keys=keys, tol_scale=tol_scale)
    for i, r in enumerate(results, 1):
        status = "PASS" if r.passed else "FAIL"
        write(f"{status} {r.key}: {r.description} -- {r.detail}")
    ok = all(r.passed for r in results)
    write(f"{'ALL CRITERIA PASSED' if ok else 'ACCEPTANCE FAILURE'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    return ok
