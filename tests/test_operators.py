"""Operator builders: ladders, Cartesian components, Hamiltonians, parity."""

from dataclasses import replace

import numpy as np
import pytest

from epspectra.exact_poly import (
    ExactTridiagonal,
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    faddeev_leverrier,
    monic_floats,
    rat,
)
from epspectra.operators import (
    HamiltonianFamily,
    ModelParams,
    UsageError,
    build_generalized_hamiltonian,
    build_ladder,
    build_rotated_hamiltonian,
)
from epspectra.newton_polygon import unfolding_charpoly
from epspectra.spectra import exact_spectra

import oracles
from oracles import build_cartesian


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


T = ParamPoly.monomial(1, 1)  # the formal parameter


def as_poly(pairs, D):
    """The ParamPoly of (re, im) int pairs over D, one per parameter power."""
    return ParamPoly({e: GaussianRational(Rational(re, D), Rational(im, D))
                      for e, (re, im) in enumerate(pairs)})


class TestLadders:
    def test_n1_minus_orthonormal(self):
        # single entry 1 connecting |1/2,1/2> -> |1/2,-1/2>
        L = oracles.ladder(1, "minus")
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.allclose(L, expected)

    def test_n5_plus_squared_entry(self):
        # <5/2,5/2| L+^2 |5/2,1/2> = sqrt(2*4) * sqrt(1*5) = 2 sqrt(10),
        # multiplying the two ladder factors by hand
        L = oracles.ladder(5, "plus")
        L2 = L @ L
        assert L2[5, 3] == pytest.approx(2.0 * np.sqrt(10.0), abs=1e-14)

    def test_n4_minus_monomial_superdiagonal(self):
        L = build_ladder(4, "minus")
        for n in range(1, 5):
            assert L.entries[n - 1][n] == ParamPoly.const(gr(n))
        assert sum(1 for i in range(5) for j in range(5) if L.entries[i][j]) == 4

    def test_plus_monomial_entries(self):
        # L+ xi^n = (2l - n) xi^(n+1)
        N = 6
        L = build_ladder(N, "plus")
        for n in range(N):
            assert L.entries[n + 1][n] == ParamPoly.const(gr(N - n))


class TestCartesian:
    def test_lz_diagonal(self):
        Lz = oracles.cartesian(1, "z")
        assert np.allclose(np.diag(Lz), [-0.5, 0.5])

    def test_n2_lx_entry(self):
        # <1,1|L_x|1,0> = sqrt(2)/2, evaluated by hand from the ladder rule
        Lx = oracles.cartesian(2, "x")
        assert Lx[2, 1] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_su2_commutators_orthonormal(self, N):
        Lx = oracles.cartesian(N, "x")
        Ly = oracles.cartesian(N, "y")
        Lz = oracles.cartesian(N, "z")
        for A, B, C in ((Lx, Ly, Lz), (Ly, Lz, Lx), (Lz, Lx, Ly)):
            assert np.abs(A @ B - B @ A - 1j * C).max() <= 1e-12

    def test_su2_commutators_monomial_exact(self):
        Lx = build_cartesian(7, "x")
        Ly = build_cartesian(7, "y")
        Lz = build_cartesian(7, "z")
        comm = Lx.matmul(Ly).add(Ly.matmul(Lx).scale(gr(-1)))
        assert oracles.is_zero(comm.add(Lz.scale(gr(0, -1))))


class TestHamiltonian:
    def test_n5_structure_against_printed_matrix(self):
        # diagonal -2 i gamma m + 2 c m^2 with m ascending; off-diagonals
        # (sqrt5, 2 sqrt2, 3, 2 sqrt2, sqrt5) v. Ascending-n ordering mirrors
        # the printed m-descending matrix; spectra are unaffected.
        tri = build_generalized_hamiltonian(
            ModelParams(particles=5, gamma=1, v=1, c=T), "monomial")
        imag_parts = [5, 3, 1, -1, -3, -5]
        c_parts = ["25/2", "9/2", "1/2", "1/2", "9/2", "25/2"]
        for n in range(6):
            expected = ParamPoly.const(gr(0, imag_parts[n])) + ParamPoly.monomial(
                1, gr(c_parts[n])
            )
            assert as_poly(tri.diag[n], tri.D) == expected
        Hf = build_generalized_hamiltonian(
            ModelParams(particles=5, gamma=1.0, v=1.0, c=0.0), "orthonormal")
        off = np.diag(Hf.array, 1).real
        assert np.allclose(off, [np.sqrt(5), 2 * np.sqrt(2), 3, 2 * np.sqrt(2), np.sqrt(5)])

    def test_hermitian_limit(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=6, gamma=0.0, v=1.3, c=0.0), "orthonormal").array
        assert np.abs(H - H.conj().T).max() == 0.0

    def test_complex_symmetric(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=9, gamma=0.7, v=1.0, c=0.2), "orthonormal").array
        assert np.array_equal(H, H.T)

    def test_basis_equivalence_charpolys(self):
        params_f = ModelParams(particles=7, gamma=0.3, v=1.0, c=0.07)
        params_e = ModelParams(particles=7, gamma=rat("0.3"), v=1, c=rat("0.07"))
        coeffs_float = np.poly(build_generalized_hamiltonian(params_f, "orthonormal").array)[::-1]
        tri = build_generalized_hamiltonian(params_e, "monomial")
        coeffs_exact = np.array(monic_floats(tri))
        assert list(coeffs_exact) == [complex(p.coeffs.get(0, 0))
                                      for p in charpoly_of_tridiagonal(tri).monic_coefficients()]
        for a, b in zip(coeffs_float, coeffs_exact):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_monomial_denominators_are_powers_of_two(self):
        # entries derive from half-integers l, m: integer parameters leave
        # only a power of 2 as the common denominator
        for c in (T, 5):
            tri = build_generalized_hamiltonian(
                ModelParams(particles=7, gamma=3, v=2, c=c), "monomial")
            assert tri.D & (tri.D - 1) == 0

    @pytest.mark.parametrize("c", [None, rat(0), rat("1/50")])
    @pytest.mark.parametrize("v", [rat(1), rat("3/2"), rat("-2/7")])
    def test_monomial_build_matches_ladder_composition(self, v, c, composed):
        # the built diagonals against -2i gamma L_z + 2 v L_x + 2 c L_z^k
        # composed from the Cartesian operators: the composition is zero off
        # its three diagonals, equals the build entry by entry (off-diagonal
        # products included), and has the same polynomial by Faddeev-LeVerrier;
        # None stands for formal c
        c = T if c is None else c
        gamma = rat("3/10")
        for N in range(1, 9):
            for k in (1, 2, 3):
                params = ModelParams(particles=N, gamma=gamma, v=v, c=c, pert_power=k)
                tri = build_generalized_hamiltonian(params, "monomial")
                E = composed(params).entries
                assert not any(E[i][j] for i in range(N + 1) for j in range(N + 1)
                               if abs(i - j) > 1)
                assert [as_poly(a, tri.D) for a in tri.diag] == [E[n][n] for n in range(N + 1)]
                assert [as_poly(b, tri.D**2) for b in tri.offs] == [
                    E[n][n + 1] * E[n + 1][n] for n in range(N)]
                assert tri.param == "c" and tri.entry_kind == "exact"
                assert charpoly_of_tridiagonal(tri) == faddeev_leverrier(composed(params))

    @pytest.mark.parametrize("v", [1.0, 1.5, -2 / 7])
    def test_orthonormal_build_matches_ladder_composition(self, v):
        # byte for byte, so signed zeros count: the family writes the
        # diagonal onto the 2 v L_x it built once, as the composition of
        # the ladder builds did for every point (kept here as the oracle)
        values = [0.0, 0.1 / 11, 0.83, 1.0, 3.7]

        def composed(N, k, gamma, c):
            lz = np.arange(N + 1) - N / 2.0
            H = 2.0 * v * oracles.cartesian(N, "x")
            H[np.diag_indices(N + 1)] += -2j * gamma * lz + 2.0 * c * lz**k
            return H.tobytes()

        for N in range(1, 13):
            for k in (1, 2, 3):
                for fixed in values:
                    family = HamiltonianFamily(
                        ModelParams(particles=N, gamma=fixed, v=v, c=fixed, pert_power=k))
                    assert family.array.tobytes() == composed(N, k, fixed, fixed)
                    if k % 2 == 0:
                        continue  # even k stacks the real PT form: see TestRealPTForm
                    for x, H in zip(values, family.stack("gamma", values)):
                        assert H.tobytes() == composed(N, k, x, fixed)
                    for x, H in zip(values, family.stack("c", values)):
                        assert H.tobytes() == composed(N, k, fixed, x)
                    one = build_generalized_hamiltonian(
                        ModelParams(particles=N, gamma=fixed, v=v, c=0.0, pert_power=k))
                    assert one.array.tobytes() == composed(N, k, fixed, 0.0)
                    assert one.stack("gamma", [fixed])[0].tobytes() == one.array.tobytes()

    def test_family_needs_fixed_c_and_a_known_parameter(self):
        for formal in (dict(c=T), dict(gamma=T), dict(gamma=ParamPoly.const(1) + T, c=T)):
            with pytest.raises(UsageError, match="formal parameter"):
                HamiltonianFamily(ModelParams(particles=3, **{"gamma": 1, "v": 1, **formal}))
        family = HamiltonianFamily(ModelParams(particles=3, gamma=1, v=1, c=0.1))
        with pytest.raises(ValueError):
            family.stack("v", [1.0])
        assert family.stack("gamma", []).shape == (0, 4, 4)

    def test_formal_c_requires_monomial(self):
        with pytest.raises(UsageError):
            build_generalized_hamiltonian(
                ModelParams(particles=3, gamma=1, v=1, c=T), "orthonormal")

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(UsageError):
            ModelParams(particles=0, gamma=1, v=1, c=0)
        with pytest.raises(UsageError):
            ModelParams(particles=4, gamma=1, v=0, c=0)


def charpoly(**params):
    """The continuant's polynomial of the monomial-basis H at ``params``."""
    tri = build_generalized_hamiltonian(ModelParams(**params), "monomial")
    return charpoly_of_tridiagonal(tri)


def at(cp, x):
    """The p_k of ``cp`` with its parameter set to the exact number x (Horner)."""
    x = gr(x)
    out = []
    for p in cp.paper_coeffs:
        acc = gr(0)
        for e in range(p.degree, -1, -1):
            acc = acc * x + p.coeffs.get(e, gr(0))
        out.append(acc)
    return out


class TestFormalParameters:
    """gamma and c as ``ParamPoly`` values of the one builder."""

    VALUES = [rat(0), rat("3/5"), rat("-7/4"), rat(5)]

    @pytest.mark.parametrize("v", [rat(1), rat("3/2")])
    def test_substituting_a_value_gives_its_build(self, v):
        # formal gamma, formal c and the curve gamma = v + t, c = t^2, each
        # at exact values, against the builds at those values
        gamma, c = rat("3/5"), rat("2/7")
        for N in range(1, 7):
            for k in (1, 2, 3):
                fixed = dict(particles=N, v=v, pert_power=k)
                formal_gamma = charpoly(gamma=T, c=c, **fixed)
                formal_c = charpoly(gamma=gamma, c=T, **fixed)
                curve = charpoly(gamma=ParamPoly.const(v) + T, c=T * T, **fixed)
                for x in self.VALUES:
                    assert at(formal_gamma, x) == at(charpoly(gamma=x, c=c, **fixed), 0)
                    assert at(formal_c, x) == at(charpoly(gamma=gamma, c=x, **fixed), 0)
                    assert at(curve, x) == at(charpoly(gamma=v + x, c=x * x, **fixed), 0)

    def test_p_of_lambda_and_gamma_at_strong_coupling(self):
        # N = 11, c = 73/10: 49 terms, even in gamma, and the fixed-gamma builds
        c = rat("73/10")
        cp = charpoly(particles=11, gamma=T, v=1, c=c)
        assert sum(len(p.coeffs) for p in cp.paper_coeffs) == 49
        assert all(e % 2 == 0 for p in cp.paper_coeffs for e in p.coeffs)
        for gamma in (rat(0), rat("1/100000"), rat("5/2")):
            assert at(cp, gamma) == at(charpoly(particles=11, gamma=gamma, v=1, c=c), 0)

    def test_complex_coefficients_match_the_composition(self, composed):
        # Gaussian-rational coefficients in both parameters, against the
        # composed H entry by entry and by Faddeev-LeVerrier
        gamma = ParamPoly.const(gr(1, "2/3")) + ParamPoly.monomial(1, gr("1/2", -1))
        c = ParamPoly.const(gr(0, 3)) + ParamPoly.monomial(2, gr("2/7", "-1/5"))
        for N in range(1, 6):
            for k in (1, 2, 3):
                params = ModelParams(particles=N, gamma=gamma, v=rat("3/2"), c=c, pert_power=k)
                tri = build_generalized_hamiltonian(params, "monomial")
                E = composed(params).entries
                assert [as_poly(a, tri.D) for a in tri.diag] == [E[n][n] for n in range(N + 1)]
                assert charpoly_of_tridiagonal(tri) == faddeev_leverrier(composed(params))

    def test_denominator_covers_every_coefficient(self):
        # lcm of v's denominator, gamma's and 2^(k-1) times c's: 7, 3 and 4 * 5
        gamma = ParamPoly.const(rat(1)) + ParamPoly.monomial(1, gr("1/3"))
        tri = build_generalized_hamiltonian(ModelParams(
            particles=4, gamma=gamma, v=rat("1/7"), c=ParamPoly.monomial(2, gr("1/5")),
            pert_power=3), "monomial")
        assert tri.D == 420 and all(len(a) == 3 for a in tri.diag)

    @pytest.mark.parametrize("v", [rat(1), rat("3/2")])
    def test_delta_is_formal_c_rescaled(self, v):
        # k = 1: gamma = v + Delta at c = 0 is formal c at gamma = v with c = -i Delta
        for N in range(1, 7):
            cp = charpoly(particles=N, gamma=v, v=v, c=T, pert_power=1)
            assert unfolding_charpoly(N, 1, v) == oracles.rescaled(cp, gr(0, -1), "Delta")

    def test_formal_parameter_has_no_spectrum(self):
        for params, vary in ((ModelParams(particles=3, gamma=T), "c"),
                             (ModelParams(particles=3, c=T), "gamma")):
            with pytest.raises(ValueError, match="formal parameter"):
                exact_spectra(params, vary, [rat("1/2")])
            with pytest.raises(ValueError, match="formal parameter"):
                monic_floats(build_generalized_hamiltonian(params, "monomial"))


class TestRealPTForm:
    """Even k: ``stack`` is T^H H T for the unitary T of the family's docstring."""

    @staticmethod
    def pt_basis(N):
        # u_n at column n, w_n at column N - n for n < N/2, e_{N/2} in the middle
        T = np.zeros((N + 1, N + 1), dtype=complex)
        for n in range((N + 1) // 2):
            T[n, n] = T[N - n, n] = 1 / np.sqrt(2)
            T[n, N - n], T[N - n, N - n] = 1j / np.sqrt(2), -1j / np.sqrt(2)
        if N % 2 == 0:
            T[N // 2, N // 2] = 1.0
        return T

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("N", [1, 2, 4, 5, 11])
    def test_equals_the_rotated_complex_hamiltonian(self, N, k):
        T = self.pt_basis(N)
        assert np.abs(T.conj().T @ T - np.eye(N + 1)).max() < 1e-15
        values = [0.0, 0.1 / 11, 0.83, 1.0, 3.7]
        for fixed in values:
            params = ModelParams(particles=N, gamma=fixed, v=1.5, c=fixed, pert_power=k)
            family = HamiltonianFamily(params)
            for vary in ("gamma", "c"):
                stack = family.stack(vary, values)
                assert stack.dtype == np.float64
                for x, R in zip(values, stack):
                    H = HamiltonianFamily(replace(params, **{vary: x})).array
                    ref = T.conj().T @ H @ T
                    scale = np.abs(H).max()
                    assert np.abs(ref.imag).max() <= 1e-15 * scale
                    assert np.abs(R - ref.real).max() <= 1e-15 * scale

    def test_gamma_and_c_stacks_give_the_same_bits(self):
        for N in (4, 5, 11):
            params = ModelParams(particles=N, gamma=0.83, v=1.0, c=0.1 / 11)
            along_gamma = HamiltonianFamily(replace(params, gamma=0.0)).stack("gamma", [0.83])
            along_c = HamiltonianFamily(replace(params, c=0.0)).stack("c", [0.1 / 11])
            assert along_gamma.tobytes() == along_c.tobytes()

    def test_odd_k_stacks_the_complex_hamiltonian(self):
        family = HamiltonianFamily(ModelParams(particles=5, gamma=0.3, v=1.0, c=0.2, pert_power=3))
        assert family.stack("gamma", [0.3])[0].tobytes() == family.array.tobytes()

    def test_scales_are_those_of_the_complex_hamiltonian(self):
        # the real form's largest entry is not max|H|: the middle coupling
        # of even N is sqrt2 larger
        values = [0.0, 0.1, 0.83, 3.7]
        for N, k in ((4, 2), (5, 2), (11, 4), (40, 3)):
            params = ModelParams(particles=N, gamma=0.5, v=1.0, c=0.02, pert_power=k)
            family = HamiltonianFamily(params)
            for vary in ("gamma", "c"):
                for x, scale in zip(values, family.scales(vary, values)):
                    one = HamiltonianFamily(replace(params, **{vary: x}))
                    assert scale == max(1.0, one.max_abs())

    @pytest.mark.parametrize("big,small", [(2000, 2), (2001, 1)])
    def test_zero_c_is_an_exact_zero_where_m_to_the_k_overflows(self, big, small):
        # 0 times an infinite m^k would be nan; at c = +-0.0 H has the bits
        # of a small power of the same parity, signed zeros included
        values = [0.0, -0.0, 0.7]
        for N in (4, 11):
            for c in (0.0, -0.0):
                params = ModelParams(particles=N, gamma=0.3, v=1.0, c=c, pert_power=big)
                family, ref = HamiltonianFamily(params), HamiltonianFamily(
                    replace(params, pert_power=small))
                assert np.isinf(family.lz_k).any()
                assert family.stack("gamma", values).tobytes() == ref.stack("gamma", values).tobytes()
                assert family.scales("gamma", values).tobytes() == ref.scales("gamma", values).tobytes()
            zeros = [0.0, -0.0]
            assert family.stack("c", zeros).tobytes() == ref.stack("c", zeros).tobytes()
            assert family.scales("c", zeros).tobytes() == ref.scales("c", zeros).tobytes()
            assert not np.isfinite(family.stack("c", [0.01])).all()


class TestRotatedHamiltonian:
    def test_k2_expansion(self):
        # 2 v L- - (c/2)(L+^2 - L0 + L-^2) with L0 = L+L- + L-L+
        params = ModelParams(particles=6, gamma=1, v=1)
        H = build_rotated_hamiltonian(params)
        lp = build_ladder(params.particles, "plus")
        lm = build_ladder(params.particles, "minus")
        l0 = lp.matmul(lm).add(lm.matmul(lp))
        pert = lp.matmul(lp).add(l0.scale(gr(-1))).add(lm.matmul(lm))
        expected = lm.scale(gr(2)).add(pert.scale(gr("-1/2")).shift_param(1))
        diff = H.add(expected.scale(gr(-1)))
        assert oracles.is_zero(diff)

    def test_k2_band_structure(self):
        H = build_rotated_hamiltonian(ModelParams(particles=8, gamma=1, v=1))
        offsets = {
            i - j for i in range(H.dim) for j in range(H.dim) if H.entries[i][j]
        }
        assert offsets <= {-2, -1, 0, 2}
        assert max(offsets) == 2  # upper 3-Hessenberg: nothing below the 2nd subdiagonal

    def test_k1_delta_model(self):
        params = ModelParams(particles=5, gamma=1, v=1, pert_power=1)
        H = build_rotated_hamiltonian(params)
        assert H.param == "Delta"
        lp = build_ladder(params.particles, "plus")
        lm = build_ladder(params.particles, "minus")
        expected = lm.scale(gr(2)).add(
            lp.add(lm.scale(gr(-1))).scale(gr(-1)).shift_param(1)
        )
        assert oracles.is_zero(H.add(expected.scale(gr(-1))))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_hessenberg_bandwidth(self, k):
        # (L+ - L-)^k is zero strictly below its k-th subdiagonal, with
        # parity holes on the skipped offsets
        lp = build_ladder(8, "plus")
        lm = build_ladder(8, "minus")
        P = lp.add(lm.scale(gr(-1))).power(k)
        offsets = {i - j for i in range(P.dim) for j in range(P.dim) if P.entries[i][j]}
        assert offsets <= {d for d in range(-k, k + 1) if (d - k) % 2 == 0}

    def test_large_k_allowed(self):
        H = build_rotated_hamiltonian(ModelParams(particles=3, gamma=1, v=1, pert_power=5))
        assert H.dim == 4


class TestParity:
    def test_small_matrices(self):
        assert np.array_equal(oracles.parity_matrix(2).real, [[0, 1], [1, 0]])
        P3 = oracles.parity_matrix(3).real
        assert np.array_equal(P3, np.fliplr(np.eye(3)))

    def test_involution(self):
        P = oracles.parity_matrix(9)
        assert np.array_equal(P @ P, np.eye(9))

    @pytest.mark.parametrize("N", [1, 4, 11, 22, 30])
    def test_krein_relation(self, N):
        # P Hdag P = H for real parameters
        rng = np.random.default_rng(N)
        params = ModelParams(
            particles=N,
            gamma=float(rng.uniform(0, 2)),
            v=float(rng.uniform(0.5, 2)),
            c=float(rng.uniform(0, 1)),
        )
        H = build_generalized_hamiltonian(params, "orthonormal").array
        P = oracles.parity_matrix(N + 1)
        assert np.abs(P @ H.conj().T @ P - H).max() <= 1e-14


class TestMotherEPNilpotency:
    @pytest.mark.parametrize("N,v", [(1, 1), (5, 1), (5, 2), (9, 1)])
    def test_full_jordan_block(self, N, v, composed):
        H = composed(ModelParams(particles=N, gamma=v, v=v, c=0))
        assert not oracles.is_zero(H.power(N))
        assert oracles.is_zero(H.power(N + 1))

    def test_power_is_repeated_matmul(self, composed):
        H = composed(ModelParams(particles=4, gamma=rat("1/3"), v=1, c=rat("1/7")))
        expected = H
        for k in range(1, 5):
            assert H.power(k).entries == expected.entries
            expected = expected.matmul(H)
        for k in (0, -1):
            with pytest.raises(ValueError):
                H.power(k)

    def test_n1_explicit(self, composed):
        params = ModelParams(particles=1, gamma=1, v=1, c=0)
        # D = 2 (from 2^(k-1) c): diagonal 2i, -2i and off-diagonal product 4 over D^2
        assert build_generalized_hamiltonian(params, "monomial") == ExactTridiagonal(
            2, [[(0, 2)], [(0, -2)]], [[(4, 0)]])
        arr = np.array([[complex(p.coeffs.get(0, 0)) for p in row]
                        for row in composed(params).entries])
        assert np.allclose(arr, [[1j, 1], [1, -1j]])
        assert np.allclose(arr @ arr, 0.0)
