"""Exact arithmetic, parameter polynomials, and characteristic polynomials."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epspectra
from epspectra import exact_poly
from epspectra.exact_poly import (
    ExactTridiagonal,
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    faddeev_leverrier,
    rat,
    verify_trace_structure,
)
from epspectra.newton_polygon import analyze_unfolding, unfolding_charpoly
from epspectra.operators import (
    ModelParams,
    OperatorMatrix,
    build_generalized_hamiltonian,
    build_ladder,
    build_rotated_hamiltonian,
)
from oracles import build_cartesian, rescaled


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


def poly(*terms):
    p = ParamPoly()
    for e, c in terms:
        p = p + ParamPoly.monomial(e, c if isinstance(c, GaussianRational) else gr(c))
    return p


class TestRationals:
    def test_rat_parses_exact_decimals(self):
        assert rat("0.1") == Rational(1) / 10
        assert rat("2.5e-3") == Rational(1) / 400
        assert rat("-12.75") == Rational(-51) / 4
        assert rat("3") == 3
        with pytest.raises(ValueError):
            rat("1.2.3")

    @staticmethod
    def _check_string_edges():
        # strings are read as Python 3.11's Fraction reads them: exact at any
        # exponent, digit underscores allowed, no sign or spaces around "/"
        assert rat("1e400") == Rational(10) ** 400
        assert rat("1_000") == 1000
        assert rat("1e1_0") == 10**10
        assert rat("3/4_0") == Rational(3) / 40
        assert rat(" 3/4 ") == Rational(3) / 4
        for bad in ("3/-4", "3/+4", " 3 / 4", "3/ 4", "3 /4", "1__0", "1_", "_1"):
            with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {bad!r}")):
                rat(bad)

    def test_rat_string_edges(self):
        self._check_string_edges()

    def test_rat_grammar_does_not_follow_the_python_version(self, monkeypatch):
        # Fraction's own grammar differs across the supported versions: 3.12
        # allows spaces around "/", 3.10 rejects digit underscores
        real = exact_poly.Fraction

        def spaces_around_slash(value):
            return real(re.sub(r"\s*/\s*", "/", value) if isinstance(value, str) else value)

        def no_underscores(value):
            if isinstance(value, str) and "_" in value:
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            return real(value)

        for fraction in (spaces_around_slash, no_underscores):
            monkeypatch.setattr(exact_poly, "Fraction", fraction)
            self._check_string_edges()

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

    def test_mul(self):
        p = poly((0, 1), (1, 2))  # 1 + 2c
        q = poly((1, -1), (2, 3))  # -c + 3c^2
        assert p * q == poly((1, -1), (2, 1), (3, 6))

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
    params = ModelParams(particles=N, gamma=v, v=v, pert_power=k)
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
        assert cp.paper_coeffs[1] == cp.traces()[1]
        assert set(cp.paper_coeffs[1].coeffs) == {1}

    def test_c_zero_gives_pure_power(self):
        cp = rotated_charpoly(7)
        monic = cp.monic_coefficients()
        assert monic[-1] == poly((0, 1))
        assert all(0 not in p.coeffs for p in monic[:-1])

    def test_rejects_float_matrices(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=0.1), "orthonormal")
        with pytest.raises(TypeError):
            faddeev_leverrier(H)

    def test_newton_identity_crosscheck(self):
        # the traces Newton's identities derive from Faddeev's p_k against
        # tr(H~^k) by exact matrix products
        for N in (3, 6, 9):
            H = build_rotated_hamiltonian(ModelParams(particles=N, gamma=1, v=1))
            traces = faddeev_leverrier(H).traces()
            power = H
            for k in range(1, N + 2):
                assert traces[k] == power.trace()
                power = power.matmul(H)

    def test_continuant_matches_faddeev(self, composed):
        rng = np.random.default_rng(11)
        for N in (2, 4, 7):
            g = rat(float(rng.uniform(0, 2)))
            c = rat(float(rng.uniform(0, 0.4)))
            params = ModelParams(particles=N, gamma=g, v=1, c=c)
            a = faddeev_leverrier(composed(params))
            b = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
            for k in range(N + 2):
                assert a.paper_coeffs[k] == b.paper_coeffs[k]

    @pytest.mark.parametrize("c", [None, rat("2/7")])
    def test_continuant_traces_are_matrix_power_traces(self, c, composed):
        # an oracle independent of both charpoly routes: tr(H^k) by exact
        # matrix products of the composed H; None stands for formal c
        c = ParamPoly.monomial(1, 1) if c is None else c
        for N in range(1, 7):
            params = ModelParams(particles=N, gamma=rat("3/5"), v=1, c=c)
            H = composed(params)
            tri = build_generalized_hamiltonian(params, "monomial")
            traces = charpoly_of_tridiagonal(tri).traces()
            for k in range(1, 4):
                if k <= N + 1:
                    assert traces[k] == H.power(k).trace()


def assert_same_charpoly(a, b):
    assert a.param == b.param
    assert a.paper_coeffs == b.paper_coeffs


# General Gaussian-integer tridiagonals D H: polynomials of degree <= 2 in the
# formal parameter, with small and large ints (as the dyadic rat(float) values
# of ``ep_locator._exact_count`` give) over small and large D; an empty list
# is a zero entry, so zero off-diagonal products come up often.
_ints = st.one_of(st.integers(-50, 50), st.integers(-(1 << 70), 1 << 70))
_entries = st.lists(st.tuples(_ints, _ints), max_size=3)


@st.composite
def _tridiagonals(draw):
    M = draw(st.integers(1, 7))
    D = draw(st.one_of(st.integers(1, 30), st.integers(1, 1 << 64)))
    return ExactTridiagonal(D, draw(st.lists(_entries, min_size=M, max_size=M)),
                            draw(st.lists(_entries, min_size=M - 1, max_size=M - 1)))


def _dense(tri):
    """The dense H of ``tri``: its diagonal, each product above it and ones below."""
    H = OperatorMatrix.exact_zeros(tri.dim, param="c")

    def poly(pairs, scale):
        return ParamPoly({e: GaussianRational(Rational(re, scale), Rational(im, scale))
                          for e, (re, im) in enumerate(pairs)})

    for j, a in enumerate(tri.diag):
        H.entries[j][j] = poly(a, tri.D)
    for j, b in enumerate(tri.offs):
        H.entries[j][j + 1] = poly(b, tri.D**2)
        H.entries[j + 1][j] = ParamPoly.const(1)
    return H


class TestContinuantProperty:
    @settings(max_examples=40, deadline=None)
    @given(_tridiagonals())
    @example(ExactTridiagonal(1, [[]] * 5, [[]] * 4))
    def test_matches_faddeev(self, tri):
        assert_same_charpoly(charpoly_of_tridiagonal(tri), faddeev_leverrier(_dense(tri)))


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
        # H~ with -c (L+-L-)^2 is the physical -c/2 (L+-L-)^2 at 2c: the
        # build at c = 2t, and the rescaled polynomial of formal c
        lp = build_ladder(6, "plus")
        lm = build_ladder(6, "minus")
        pert = lp.add(lm.scale(gr(-1))).power(2).scale(gr(-1)).shift_param(1)
        H = lm.scale(gr(2)).add(pert)
        H.param = "c"
        doubled = ModelParams(particles=6, gamma=1, v=1, c=ParamPoly.monomial(1, 2))
        cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(doubled, "monomial"))
        assert_same_charpoly(cp, faddeev_leverrier(H))
        assert_same_charpoly(rescaled(unfolding_charpoly(6), 2), faddeev_leverrier(H))


class TestTraceStructure:
    def test_allowed_exponent_sets(self):
        # N large enough that no coefficient degenerates
        cp = unfolding_charpoly(10)
        traces = cp.traces()
        expected = {1: {1}, 2: {2}, 3: {1, 3}, 4: {2, 4}, 5: {3, 5}, 6: {2, 4, 6}}
        for k, exps in expected.items():
            assert set(cp.paper_coeffs[k].coeffs) == exps
            assert set(traces[k].coeffs) == exps

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

    def test_pt_symmetric_is_real_via_faddeev(self, composed):
        H = composed(ModelParams(particles=6, gamma=rat("2/3"), v=1, c=rat("1/7")))
        assert _is_real(faddeev_leverrier(H))

    def test_complex_onsite_energy_breaks_realness(self):
        # epsilon with nonzero real part: H = 2 eps L_z + 2 v L_x, eps = 1 - i
        lz = build_cartesian(4, "z")
        lx = build_cartesian(4, "x")
        H = lz.scale(GaussianRational(2, -2)).add(lx.scale(GaussianRational(2)))
        assert not _is_real(faddeev_leverrier(H))

    def test_real_diagonal_matrix(self):
        lz = build_cartesian(5, "z")
        assert _is_real(faddeev_leverrier(lz))


class TestExactRootConsistency:
    def test_delta_variant_hull_slopes(self):
        # k=1 unfolding in Delta: every hull slope is -1/2
        for N in (4, 5, 8):
            cp = unfolding_charpoly(N, 1)
            assert cp.param == "Delta"
            analysis = analyze_unfolding(cp)
            assert all(seg.mu == Rational(1) / 2 for seg in analysis.segments)
