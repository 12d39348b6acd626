"""Newton diagram construction, hulls, reduced polynomials, ring grouping."""

import math

import numpy as np
import pytest

from epspectra.exact_poly import (
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    rat,
)
from epspectra.newton_polygon import (
    DegenerateDiagramError,
    DiagramPoint,
    analyze_unfolding,
    build_points,
    group_rings,
    hull_supports_all_points,
    lower_hull,
    predict_ring_counts,
    reduced_polynomial,
    solve_leading_coefficients,
    unfolding_charpoly,
)
from epspectra.operators import ModelParams, build_generalized_hamiltonian
from epspectra import spectra


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


def printed_n10_charpoly():
    # the perturbation -c (L+-L-)^2 of the printed N=10 quadratic is the
    # physical -c/2 (L+-L-)^2 at 2c
    return unfolding_charpoly(10).rescaled(2)


def point(k, a, f=1):
    return DiagramPoint(k=k, a=a, f=gr(f))


class TestDiagramPoints:
    def test_n5_points(self):
        pts = build_points(unfolding_charpoly(5))
        assert sorted(p.xy for p in pts) == [
            (0, 2), (1, 3), (2, 2), (3, 1), (4, 2), (5, 1), (6, 0),
        ]

    def test_n10_hull_passes_derived_points(self):
        pts = build_points(unfolding_charpoly(10))
        segs = lower_hull(pts)
        assert len(segs) == 2
        steep, shallow = segs
        assert steep.slope == -1 and [p.xy for p in steep.points] == [(0, 5), (1, 4), (2, 3)]
        assert shallow.slope == Rational(-1) / 3
        assert [p.xy for p in shallow.points] == [(2, 3), (5, 2), (8, 1), (11, 0)]

    def test_degenerate_charpoly_no_unfolding(self):
        # c fixed to zero: chi = lambda^(N+1), a single diagram point
        params = ModelParams(particles=6, gamma=1, v=1, c=0)
        cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
        analysis = analyze_unfolding(cp)
        assert [p.xy for p in analysis.points] == [(7, 0)]
        assert analysis.segments == []
        assert analysis.zero_branch_count == 7


class TestLowerHull:
    def test_two_points_half_slope(self):
        segs = lower_hull([point(0, 1), point(2, 0)])
        assert len(segs) == 1
        assert segs[0].mu == Rational(1) / 2

    def test_needs_two_points(self):
        with pytest.raises(DegenerateDiagramError):
            lower_hull([point(3, 0)])

    def test_points_above_hull_excluded(self):
        segs = lower_hull([point(0, 2), point(1, 3), point(3, 1), point(6, 0)])
        assert [p.xy for p in segs[0].points] == [(0, 2), (3, 1), (6, 0)]

    def test_slopes_increase(self):
        pts = build_points(unfolding_charpoly(10))
        segs = lower_hull(pts)
        slopes = [s.slope for s in segs]
        assert slopes == sorted(slopes)
        assert hull_supports_all_points(pts, segs)


class TestReducedPolynomials:
    def test_n5_reduced(self):
        cp = unfolding_charpoly(5)
        seg = lower_hull(build_points(cp))[0]
        red = reduced_polynomial(seg)
        expected = (
            ParamPoly.monomial(0, gr(6400))
            + ParamPoly.monomial(3, gr(448))
            + ParamPoly.monomial(6, gr(1))
        )
        assert red == expected

    def test_n10_linear_branch_quadratic_vs_printed(self):
        # The printed quadratic -46423756800 e^2 + 2410418995200 e
        # - 33581039616000 corresponds to the perturbation -c (L+-L-)^2;
        # the physical -c/2 convention carries coefficients scaled by
        # -2^(-a_k) relative to it (c -> 2c shifts each lowest power a_k).
        paper = {0: Rational(-33581039616000), 1: Rational(2410418995200),
                 2: Rational(-46423756800)}
        cp2 = printed_n10_charpoly()
        seg = [s for s in lower_hull(build_points(cp2)) if s.mu == 1][0]
        red = reduced_polynomial(seg)
        for (i, j) in ((0, 1), (1, 2)):
            assert red.coeffs[i].re * paper[j] == red.coeffs[j].re * paper[i]
        cp1 = unfolding_charpoly(10)
        seg1 = [s for s in lower_hull(build_points(cp1)) if s.mu == 1][0]
        red1 = reduced_polynomial(seg1)
        a = {p.k: p.a for p in seg1.points}
        for e in (0, 1, 2):
            assert paper[e] == -(Rational(2) ** a[e + seg1.k_left]) * red1.coeffs[e].re

    def test_single_gap_segment_is_linear(self):
        seg = lower_hull([point(4, 0, 3), point(5, 1, -6)])[0]
        red = reduced_polynomial(seg)
        assert red.degree == 1
        roots = solve_leading_coefficients(red)
        assert len(roots) == 1
        # 3 - 6 e = 0 after removing e^4... the segment rises, so f order is
        # (k=4 -> constant 3, k=5 -> linear -6): root at 1/2
        assert roots[0] == pytest.approx(0.5)


class TestLeadingCoefficients:
    def test_n5_cube_roots(self):
        cp = unfolding_charpoly(5)
        analysis = analyze_unfolding(cp)
        cubes = sorted({round(float((b.e1**3).real), 4) for b in analysis.branches})
        # quadratic formula on u^2 + 448 u + 6400, the independent oracle
        disc = math.sqrt(448.0**2 - 4 * 6400.0)
        exact = sorted([(-448.0 - disc) / 2.0, (-448.0 + disc) / 2.0])
        assert cubes == pytest.approx(exact, abs=1e-3)
        assert abs(exact[0] + 433.23) < 0.01 and abs(exact[1] + 14.77) < 0.01

    def test_simple_quadratic(self):
        red = ParamPoly.monomial(0, gr(-1)) + ParamPoly.monomial(2, gr(1))
        roots = sorted(solve_leading_coefficients(red), key=lambda z: z.real)
        assert roots == pytest.approx([-1.0, 1.0])

    def test_zero_roots_excluded(self):
        poly = ParamPoly.monomial(1, gr(-1)) + ParamPoly.monomial(3, gr(1))
        roots = solve_leading_coefficients(poly)
        assert len(roots) == 2
        assert np.all(roots != 0)

    def test_n10_radical(self):
        cp2 = printed_n10_charpoly()
        analysis = analyze_unfolding(cp2)
        lin = sorted(
            (b.e1 for b in analysis.branches if b.mu == 1.0), key=lambda z: z.imag
        )
        re_x = 145304.0 / 5597.0
        im_x = math.sqrt(4048640.0 / 5597.0 - re_x**2)
        assert lin[1] == pytest.approx(re_x + 1j * im_x, abs=1e-9)
        assert lin[0] == pytest.approx(re_x - 1j * im_x, abs=1e-9)


class TestRings:
    def test_n5_two_triplets(self):
        analysis = analyze_unfolding(unfolding_charpoly(5))
        assert analysis.ring_size_counts() == {3: 2}
        radii = sorted({round(float(abs(b.e1)), 3) for b in analysis.branches})
        assert radii == pytest.approx(
            [round(14.772851 ** (1 / 3), 3), round(433.227149 ** (1 / 3), 3)], abs=1e-3
        )
        # triplet phases pi, +-pi/3 for the negative-real-cube rings
        for ring_id in {b.ring_id for b in analysis.branches}:
            phases = sorted(
                np.angle(b.e1) % (2 * np.pi)
                for b in analysis.branches
                if b.ring_id == ring_id
            )
            assert phases == pytest.approx(
                [np.pi / 3, np.pi, 5 * np.pi / 3], abs=1e-9
            )

    def test_n10_three_triplets_and_two_singles(self):
        analysis = analyze_unfolding(unfolding_charpoly(10))
        assert analysis.ring_size_counts() == {1: 2, 3: 3}
        singles = [b for b in analysis.branches if b.ring_size == 1]
        # the two linear branches are a conjugate pair of equal modulus but
        # non-ring phases, split apart and flagged irregular
        assert all(b.irregular for b in singles)
        assert all(b.mu == 1.0 for b in singles)

    def test_n4_k3_and_k4(self):
        a3 = analyze_unfolding(unfolding_charpoly(4, k=3))
        assert a3.ring_size_counts() == {1: 1, 4: 1}
        assert a3.zero_branch_count == 1
        a4 = analyze_unfolding(unfolding_charpoly(4, k=4))
        assert a4.ring_size_counts() == {5: 1}

    def test_group_rings_regular_and_irregular(self):
        ring = [2 * np.exp(2j * np.pi * k / 5) for k in range(5)]
        branches = group_rings(np.array(ring), Rational(1) / 5)
        assert {b.ring_size for b in branches} == {5}
        skewed = np.array([1.0 + 0.1j, -1.0 + 0.3j])  # equal moduli? no: distinct
        branches = group_rings(skewed, 1)
        assert all(b.ring_size == 1 for b in branches)
        conj_pair = np.array([3.0 + 1.0j, 3.0 - 1.0j])
        branches = group_rings(conj_pair, 1)
        assert all(b.ring_size == 1 and b.irregular for b in branches)
        assert [b.ring_id for b in group_rings(conj_pair, 1, first_id=3)] == [3, 4]


class TestRingLaw:
    def test_predictions(self):
        assert predict_ring_counts(11, 2) == pytest.approx(
            predict_ring_counts(11, 2)
        )  # identity sanity
        p = predict_ring_counts(11, 2)
        assert (p.ring_count, p.ring_size, p.remainder) == (4, 3, 0)
        p = predict_ring_counts(10, 2)
        assert (p.ring_count, p.ring_size, p.remainder) == (3, 3, 2)
        p = predict_ring_counts(4, 1)
        assert (p.ring_count, p.ring_size, p.remainder) == (2, 2, 1)
        p = predict_ring_counts(4, 7)
        assert (p.ring_count, p.ring_size, p.remainder) == (1, 5, 0)

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_agreement_small(self, N):
        for k in range(1, N + 1):
            analysis = analyze_unfolding(unfolding_charpoly(N, k=k))
            pred = predict_ring_counts(N, k)
            sizes = analysis.ring_size_counts()
            assert sizes.get(pred.ring_size, 0) >= pred.ring_count
            total = sum(s * n for s, n in sizes.items())
            assert total - pred.ring_count * pred.ring_size == pred.remainder
            assert all(s <= pred.ring_size for s in sizes)

    def test_branch_accounting(self):
        for N, k in ((5, 2), (10, 2), (6, 3), (12, 4)):
            analysis = analyze_unfolding(unfolding_charpoly(N, k=k))
            assert len(analysis.branches) + analysis.zero_branch_count == N + 1


class TestNumericalAgreement:
    @pytest.mark.parametrize("N", [5, 8, 10, 12])
    def test_eigenvalues_match_leading_order(self, N):
        cp = unfolding_charpoly(N)
        analysis = analyze_unfolding(cp)
        for cval in (rat("1e-4") / N, rat("1e-5") / N):
            ev = spectra.eigenvalues_from_charpoly(cp, cval)
            c = float(cval)
            predicted = np.array(
                [b.e1 * c ** b.mu for b in analysis.branches]
                + [0.0] * analysis.zero_branch_count
            )
            from scipy.optimize import linear_sum_assignment

            cost = np.abs(ev[:, None] - predicted[None, :])
            r, col = linear_sum_assignment(cost)
            for i, j in zip(r, col):
                ref = abs(predicted[j])
                if ref == 0:
                    continue
                assert cost[i, j] / ref <= 5.0 * c ** (1.0 / 3.0)

    def test_exponent_fit(self):
        # log-log regression of a triplet branch modulus against c
        N = 7
        cp = unfolding_charpoly(N)
        cs = [Rational(1, 10**6) * 2**j for j in range(8)]
        biggest = [float(np.abs(spectra.eigenvalues_from_charpoly(cp, c)).max()) for c in cs]
        slope = np.polyfit(np.log([float(c) for c in cs]), np.log(biggest), 1)[0]
        assert abs(slope - 1.0 / 3.0) <= 0.02

    def test_delta_variant_pair_moduli(self):
        # Ev_lin: lambda = n sqrt(v^2 - gamma^2) ~ n sqrt(2v) (-Delta)^(1/2),
        # so the k=1 unfolding rings are pairs with moduli n sqrt(2v)
        analysis = analyze_unfolding(unfolding_charpoly(5, 1))
        assert analysis.ring_size_counts() == {2: 3}
        radii = sorted({round(float(abs(b.e1)), 9) for b in analysis.branches})
        expected = [round(n * math.sqrt(2.0), 9) for n in (1, 3, 5)]
        assert radii == pytest.approx(expected, rel=1e-9)
