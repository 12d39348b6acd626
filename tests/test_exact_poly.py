"""Exact arithmetic, parameter polynomials, and characteristic polynomials."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epspectra
from epspectra.exact_poly import (
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    faddeev_leverrier,
    parse_exact_decimal,
    rat,
    verify_trace_structure,
)
from epspectra.newton_polygon import analyze_unfolding, unfolding_charpoly
from epspectra.operators import (
    ModelParams,
    OperatorMatrix,
    build_cartesian,
    build_generalized_hamiltonian,
    build_ladder,
    build_rotated_hamiltonian,
)


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


def poly(*terms):
    p = ParamPoly()
    for e, c in terms:
        p = p + ParamPoly.monomial(e, c if isinstance(c, GaussianRational) else gr(c))
    return p


class TestRationals:
    def test_parse_exact_decimal(self):
        assert parse_exact_decimal("0.1") == Rational(1) / 10
        assert parse_exact_decimal("2.5e-3") == Rational(1) / 400
        assert parse_exact_decimal("-12.75") == Rational(-51) / 4
        assert parse_exact_decimal("3") == 3
        with pytest.raises(ValueError):
            parse_exact_decimal("1.2.3")

    def test_rat_from_string_and_float(self):
        assert rat("-3/4") == Rational(-3) / 4
        assert rat(0.5) == Rational(1) / 2
        assert rat(0.1) != Rational(1) / 10  # floats convert exactly, not by intent

    def test_gaussian_field_ops(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (
                gr(int(rng.integers(-9, 10)), int(rng.integers(-9, 10))) for _ in range(3)
            )
            assert (a + b) * c == a * c + b * c
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a - b) + b == a and -(a - b) == b - a

    def test_gaussian_zero_and_render(self):
        assert not gr(0, 0)
        assert gr(0, 1).render() == "1i"
        assert gr("-4645/2").render() == "-4645/2"


class TestParamPoly:
    def test_no_zero_coefficients_stored(self):
        p = poly((1, 3)) + poly((1, -3))
        assert not p
        assert p.coeffs == {}

    def test_lowest_power_examples(self):
        # the lambda^3 coefficient of the N=5 polynomial
        p = poly((1, 448), (3, gr("-4645/2")))
        assert p.lowest_power() == (1, gr(448))
        assert poly((0, -1)).lowest_power() == (0, gr(-1))
        # the constant term of the N=5 polynomial
        p = poly((2, 6400), (4, -30600), (6, gr("50625/64")))
        assert p.lowest_power() == (2, gr(6400))
        with pytest.raises(ValueError):
            ParamPoly().lowest_power()

    def test_mul_and_substitute(self):
        p = poly((0, 1), (1, 2))  # 1 + 2c
        q = poly((1, -1), (2, 3))  # -c + 3c^2
        prod = p * q
        assert prod == poly((1, -1), (2, 1), (3, 6))
        val = prod.substitute(rat("1/2"))
        assert val == gr("1/2")  # -1/2 + 1/4 + 6/8

    def test_render(self):
        p = poly((1, 448), (3, gr("-4645/2")))
        assert p.render("c") == "448 * c^1 - 4645/2 * c^3"


PAPER_N5_MONIC = {
    6: [(0, "1")],
    5: [(1, "-35")],
    4: [(2, "1743/4")],
    3: [(1, "448"), (3, "-4645/2")],
    2: [(2, "-6112"), (4, "82831/16")],
    1: [(3, "27280"), (5, "-58275/16")],
    0: [(2, "6400"), (4, "-30600"), (6, "50625/64")],
}


def rotated_charpoly(N, k=2, v=1):
    params = ModelParams(particles=N, gamma=v, v=v, c=None, pert_power=k)
    return faddeev_leverrier(build_rotated_hamiltonian(params))


class TestFaddeevLeVerrier:
    def test_n5_printed_coefficients(self):
        cp = rotated_charpoly(5)
        monic = cp.monic_coefficients()
        for j, terms in PAPER_N5_MONIC.items():
            expected = poly(*[(e, gr(s)) for e, s in terms])
            assert monic[j] == expected, f"lambda^{j}"

    def test_p0_and_p1(self):
        cp = rotated_charpoly(5)
        assert cp.paper_coeffs[0] == poly((0, -1))
        # p_1 = s_1 = tr(H~), a pure c^1 term
        assert cp.paper_coeffs[1] == cp.traces[1]
        assert set(cp.paper_coeffs[1].coeffs) == {1}

    def test_c_zero_gives_pure_power(self):
        cp = rotated_charpoly(7)
        monic_at_zero = cp.monic_at(0)
        assert monic_at_zero[-1] == 1
        assert all(c == 0 for c in monic_at_zero[:-1])

    def test_rejects_float_matrices(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=0.1), "orthonormal")
        with pytest.raises(TypeError):
            faddeev_leverrier(H)

    def test_newton_identity_crosscheck(self):
        for N in (3, 6, 9):
            cp = rotated_charpoly(N)
            recomputed = cp.newton_identity_traces()
            for k in range(1, cp.dim + 1):
                assert recomputed[k] == cp.traces[k]

    def test_continuant_matches_faddeev(self):
        rng = np.random.default_rng(11)
        for N in (2, 4, 7):
            g = rat(float(rng.uniform(0, 2)))
            c = rat(float(rng.uniform(0, 0.4)))
            H = build_generalized_hamiltonian(
                ModelParams(particles=N, gamma=g, v=1, c=c), "monomial")
            a = faddeev_leverrier(H)
            b = charpoly_of_tridiagonal(H)
            for k in range(N + 2):
                assert a.paper_coeffs[k] == b.paper_coeffs[k]
            for k in range(1, N + 2):
                assert a.traces[k] == b.traces[k]

    def test_continuant_rejects_nontridiagonal(self):
        H = build_rotated_hamiltonian(ModelParams(particles=4, gamma=1, v=1, c=None))
        with pytest.raises(ValueError):
            charpoly_of_tridiagonal(H)


def assert_same_charpoly(a, b):
    assert a.param == b.param
    assert a.paper_coeffs == b.paper_coeffs
    assert a.traces == b.traces


# Entries mix small denominators with the dyadic ones rat(float) produces
# (as ``ep_locator._exact_count`` builds its matrices), in polynomials of
# degree <= 2 in the formal parameter; an empty dict is a zero entry, so
# zero off-diagonal products come up often.
_rationals = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12).map(
        lambda f: Rational(f.numerator, f.denominator)
    ),
    st.integers(-5000, 5000).map(lambda i: rat(i / 1000)),
)
_entries = st.dictionaries(
    st.integers(0, 2), st.builds(GaussianRational, _rationals, _rationals), max_size=3
).map(ParamPoly)


@st.composite
def _tridiagonal_matrices(draw):
    M = draw(st.integers(1, 7))
    H = OperatorMatrix.exact_zeros(M, param="c")
    for j in range(M):
        H.entries[j][j] = draw(_entries)
        if j:
            H.entries[j - 1][j] = draw(_entries)
            H.entries[j][j - 1] = draw(_entries)
    return H


class TestContinuantProperty:
    @settings(max_examples=40, deadline=None)
    @given(_tridiagonal_matrices())
    @example(OperatorMatrix.exact_zeros(5, param="c"))
    def test_matches_faddeev(self, H):
        assert_same_charpoly(charpoly_of_tridiagonal(H), faddeev_leverrier(H))


class TestUnfoldingCharpoly:
    """The continuant on the tridiagonal H against Faddeev-LeVerrier on H~."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_rotated_faddeev(self, N):
        for k in range(1, N + 1):
            assert_same_charpoly(unfolding_charpoly(N, k), rotated_charpoly(N, k))

    def test_matches_rotated_faddeev_n10(self):
        assert_same_charpoly(unfolding_charpoly(10, 2), rotated_charpoly(10, 2))

    @pytest.mark.parametrize("v", [rat("3/2"), rat("-2/7")])
    def test_matches_rotated_faddeev_other_v(self, v):
        for N in (1, 3, 5):
            for k in (1, 2, 3):
                assert_same_charpoly(unfolding_charpoly(N, k, v), rotated_charpoly(N, k, v))

    def test_rescale_gives_the_doubled_perturbation(self):
        # H~ with -c (L+-L-)^2 is the physical -c/2 (L+-L-)^2 at 2c
        rep = ModelParams(particles=6).rep
        lp = build_ladder(rep, "plus", "monomial")
        lm = build_ladder(rep, "minus", "monomial")
        pert = lp.add(lm.scale(gr(-1))).power(2).scale(gr(-1)).shift_param(1)
        H = lm.scale(gr(2)).add(pert)
        H.param = "c"
        assert_same_charpoly(unfolding_charpoly(6).rescaled(2), faddeev_leverrier(H))


class TestTraceStructure:
    def test_allowed_exponent_sets(self):
        # N large enough that no coefficient degenerates
        cp = unfolding_charpoly(10)
        expected = {1: {1}, 2: {2}, 3: {1, 3}, 4: {2, 4}, 5: {3, 5}, 6: {2, 4, 6}}
        for k, exps in expected.items():
            assert set(cp.paper_coeffs[k].coeffs) == exps
            assert set(cp.traces[k].coeffs) == exps

    def test_report_contents(self):
        cp = unfolding_charpoly(6)
        report = verify_trace_structure(cp)
        assert set(report.coeff_terms) == set(range(1, 8))
        # k=6 carries j = 0, 1, 2
        assert [j for j, _ in report.coeff_terms[6]] == [2, 1, 0]

    def test_structure_violation_asserts(self):
        cp = unfolding_charpoly(4)
        cp.paper_coeffs[2] = poly((1, 1))  # inject an illegal c^1 term into p_2
        with pytest.raises(AssertionError):
            verify_trace_structure(cp)

    def test_structure_violation_raises_under_optimize(self):
        script = (
            "from epspectra.exact_poly import GaussianRational, ParamPoly, verify_trace_structure\n"
            "from epspectra.newton_polygon import unfolding_charpoly\n"
            "cp = unfolding_charpoly(4)\n"
            "cp.paper_coeffs[2] = ParamPoly.monomial(1, GaussianRational(1))\n"
            "try:\n"
            "    verify_trace_structure(cp)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(epspectra.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert "p_2 contains parameter power 1" in out.stdout, out.stderr


def _is_real(cp):
    """Every coefficient of every p_k has zero imaginary part."""
    return all(not g.im for p in cp.paper_coeffs for g in p.coeffs.values())


class TestRealness:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_pt_symmetric_is_real(self, N):
        H = build_generalized_hamiltonian(
            ModelParams(particles=N, gamma=rat("2/3"), v=1, c=rat("1/7")), "monomial"
        )
        assert _is_real(charpoly_of_tridiagonal(H))

    def test_pt_symmetric_is_real_via_faddeev(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=6, gamma=rat("2/3"), v=1, c=rat("1/7")), "monomial"
        )
        assert _is_real(faddeev_leverrier(H))

    def test_complex_onsite_energy_breaks_realness(self):
        # epsilon with nonzero real part: H = 2 eps L_z + 2 v L_x, eps = 1 - i
        rep = ModelParams(particles=4, gamma=1, v=1, c=0).rep
        lz = build_cartesian(rep, "z", "monomial")
        lx = build_cartesian(rep, "x", "monomial")
        H = lz.scale(GaussianRational(2, -2)).add(lx.scale(GaussianRational(2)))
        assert not _is_real(faddeev_leverrier(H))

    def test_real_diagonal_matrix(self):
        rep = ModelParams(particles=5, gamma=0, v=1, c=0).rep
        lz = build_cartesian(rep, "z", "monomial")
        assert _is_real(faddeev_leverrier(lz))


class TestExactRootConsistency:
    def test_delta_variant_hull_slopes(self):
        # k=1 unfolding in Delta: every hull slope is -1/2
        for N in (4, 5, 8):
            cp = unfolding_charpoly(N, 1)
            assert cp.param == "Delta"
            analysis = analyze_unfolding(cp)
            assert all(seg.mu == Rational(1) / 2 for seg in analysis.segments)
