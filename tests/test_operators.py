"""Operator builders: ladders, Cartesian components, Hamiltonians, parity."""

import numpy as np
import pytest

from epspectra.exact_poly import GaussianRational, ParamPoly, rat
from epspectra.operators import (
    AngularMomentumRep,
    HamiltonianFamily,
    ModelParams,
    UsageError,
    build_cartesian,
    build_generalized_hamiltonian,
    build_ladder,
    build_rotated_hamiltonian,
    parity_matrix,
)


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


class TestLadders:
    def test_n1_minus_orthonormal(self):
        # single entry 1 connecting |1/2,1/2> -> |1/2,-1/2>
        L = build_ladder(AngularMomentumRep(1), "minus", "orthonormal").array
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.allclose(L, expected)

    def test_n5_plus_squared_entry(self):
        # <5/2,5/2| L+^2 |5/2,1/2> = sqrt(2*4) * sqrt(1*5) = 2 sqrt(10),
        # multiplying the two ladder factors by hand
        L = build_ladder(AngularMomentumRep(5), "plus", "orthonormal").array
        L2 = L @ L
        assert L2[5, 3] == pytest.approx(2.0 * np.sqrt(10.0), abs=1e-14)

    def test_n4_minus_monomial_superdiagonal(self):
        L = build_ladder(AngularMomentumRep(4), "minus", "monomial")
        for n in range(1, 5):
            assert L.entries[n - 1][n] == ParamPoly.const(gr(n))
        assert sum(1 for i in range(5) for j in range(5) if L.entries[i][j]) == 4

    def test_plus_monomial_entries(self):
        # L+ xi^n = (2l - n) xi^(n+1)
        N = 6
        L = build_ladder(AngularMomentumRep(N), "plus", "monomial")
        for n in range(N):
            assert L.entries[n + 1][n] == ParamPoly.const(gr(N - n))


class TestCartesian:
    def test_lz_diagonal(self):
        Lz = build_cartesian(AngularMomentumRep(1), "z", "orthonormal").array
        assert np.allclose(np.diag(Lz), [-0.5, 0.5])

    def test_n2_lx_entry(self):
        # <1,1|L_x|1,0> = sqrt(2)/2, evaluated by hand from the ladder rule
        Lx = build_cartesian(AngularMomentumRep(2), "x", "orthonormal").array
        assert Lx[2, 1] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_su2_commutators_orthonormal(self, N):
        rep = AngularMomentumRep(N)
        Lx = build_cartesian(rep, "x", "orthonormal").array
        Ly = build_cartesian(rep, "y", "orthonormal").array
        Lz = build_cartesian(rep, "z", "orthonormal").array
        for A, B, C in ((Lx, Ly, Lz), (Ly, Lz, Lx), (Lz, Lx, Ly)):
            assert np.abs(A @ B - B @ A - 1j * C).max() <= 1e-12

    def test_su2_commutators_monomial_exact(self):
        rep = AngularMomentumRep(7)
        Lx = build_cartesian(rep, "x", "monomial")
        Ly = build_cartesian(rep, "y", "monomial")
        Lz = build_cartesian(rep, "z", "monomial")
        comm = Lx.matmul(Ly).add(Ly.matmul(Lx).scale(gr(-1)))
        assert comm.add(Lz.scale(gr(0, -1))).is_zero()


class TestHamiltonian:
    def test_n5_structure_against_printed_matrix(self):
        # diagonal -2 i gamma m + 2 c m^2 with m ascending; off-diagonals
        # (sqrt5, 2 sqrt2, 3, 2 sqrt2, sqrt5) v. Ascending-n ordering mirrors
        # the printed m-descending matrix; spectra are unaffected.
        H = build_generalized_hamiltonian(
            ModelParams(particles=5, gamma=1, v=1, c=None), "monomial")
        imag_parts = [5, 3, 1, -1, -3, -5]
        c_parts = ["25/2", "9/2", "1/2", "1/2", "9/2", "25/2"]
        for n in range(6):
            expected = ParamPoly.const(gr(0, imag_parts[n])) + ParamPoly.monomial(
                1, gr(c_parts[n])
            )
            assert H.entries[n][n] == expected
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
        from epspectra.exact_poly import charpoly_of_tridiagonal

        params_f = ModelParams(particles=7, gamma=0.3, v=1.0, c=0.07)
        params_e = ModelParams(particles=7, gamma=rat("0.3"), v=1, c=rat("0.07"))
        coeffs_float = np.poly(build_generalized_hamiltonian(params_f, "orthonormal").array)[::-1]
        cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(params_e, "monomial"))
        coeffs_exact = np.array(cp.monic_at(0))
        for a, b in zip(coeffs_float, coeffs_exact):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_tridiagonal(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=8, gamma=1, v=1, c=None), "monomial")
        assert H.is_tridiagonal()

    def test_monomial_denominators_are_powers_of_two(self):
        # entries derive from half-integers l, m: integer parameters leave
        # only powers of 2 in the denominators
        H = build_generalized_hamiltonian(
            ModelParams(particles=7, gamma=3, v=2, c=None), "monomial")
        for row in H.entries:
            for entry in row:
                for g in entry.coeffs.values():
                    for den in (g.re.denominator, g.im.denominator):
                        assert int(den) & (int(den) - 1) == 0  # power of two

    @pytest.mark.parametrize("c", [None, rat(0), rat("1/50")])
    @pytest.mark.parametrize("v", [rat(1), rat("3/2"), rat("-2/7")])
    def test_monomial_build_matches_ladder_composition(self, v, c):
        # the diagonals filled directly equal 2v L_x from the ladders plus
        # the -2i gamma L_z + 2 c L_z^k diagonal, entry by entry
        gamma = rat("3/10")
        for N in range(1, 9):
            for k in (1, 2, 3):
                params = ModelParams(particles=N, gamma=gamma, v=v, c=c, pert_power=k)
                H = build_generalized_hamiltonian(params, "monomial")
                ref = build_cartesian(params.rep, "x", "monomial").scale(GaussianRational(2 * v))
                for n, m in enumerate(params.rep.m_values()):
                    pert = (ParamPoly.monomial(1, gr(2 * m**k)) if c is None
                            else ParamPoly.const(gr(2 * m**k * c)))
                    ref.entries[n][n] = ParamPoly.const(gr(0, -2 * gamma * m)) + pert
                assert H.entries == ref.entries
                assert H.param == ("c" if c is None else None)

    @pytest.mark.parametrize("v", [1.0, 1.5, -2 / 7])
    def test_orthonormal_build_matches_ladder_composition(self, v):
        # byte for byte, so signed zeros count: the family writes the
        # diagonal onto the 2 v L_x it built once, as the composition of
        # the ladder builds did for every point (kept here as the oracle)
        values = [0.0, 0.1 / 11, 0.83, 1.0, 3.7]

        def composed(N, k, gamma, c):
            lz = np.arange(N + 1) - N / 2.0
            H = 2.0 * v * build_cartesian(AngularMomentumRep(N), "x").array
            H[np.diag_indices(N + 1)] += -2j * gamma * lz + 2.0 * c * lz**k
            return H.tobytes()

        for N in range(1, 13):
            for k in (1, 2, 3):
                for fixed in values:
                    family = HamiltonianFamily(
                        ModelParams(particles=N, gamma=fixed, v=v, c=fixed, pert_power=k))
                    for x, H in zip(values, family.stack("gamma", values)):
                        assert H.tobytes() == composed(N, k, x, fixed)
                    for x, H in zip(values, family.stack("c", values)):
                        assert H.tobytes() == composed(N, k, fixed, x)
                    one = build_generalized_hamiltonian(
                        ModelParams(particles=N, gamma=fixed, v=v, c=0.0, pert_power=k))
                    assert one.array.tobytes() == composed(N, k, fixed, 0.0)
                    assert one.family.stack("gamma", [fixed])[0].tobytes() == one.array.tobytes()

    def test_family_needs_fixed_c_and_a_known_parameter(self):
        with pytest.raises(UsageError):
            HamiltonianFamily(ModelParams(particles=3, gamma=1, v=1, c=None))
        family = HamiltonianFamily(ModelParams(particles=3, gamma=1, v=1, c=0.1))
        with pytest.raises(ValueError):
            family.stack("v", [1.0])
        assert family.stack("gamma", []).shape == (0, 4, 4)

    def test_formal_c_requires_monomial(self):
        with pytest.raises(UsageError):
            build_generalized_hamiltonian(
                ModelParams(particles=3, gamma=1, v=1, c=None), "orthonormal")

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(UsageError):
            ModelParams(particles=0, gamma=1, v=1, c=0)
        with pytest.raises(UsageError):
            ModelParams(particles=4, gamma=1, v=0, c=0)
        with pytest.raises(UsageError):
            AngularMomentumRep(0)


class TestRotatedHamiltonian:
    def test_k2_expansion(self):
        # 2 v L- - (c/2)(L+^2 - L0 + L-^2) with L0 = L+L- + L-L+
        params = ModelParams(particles=6, gamma=1, v=1, c=None)
        H = build_rotated_hamiltonian(params)
        rep = params.rep
        lp = build_ladder(rep, "plus", "monomial")
        lm = build_ladder(rep, "minus", "monomial")
        l0 = lp.matmul(lm).add(lm.matmul(lp))
        pert = lp.matmul(lp).add(l0.scale(gr(-1))).add(lm.matmul(lm))
        expected = lm.scale(gr(2)).add(pert.scale(gr("-1/2")).shift_param(1))
        diff = H.add(expected.scale(gr(-1)))
        assert diff.is_zero()

    def test_k2_band_structure(self):
        H = build_rotated_hamiltonian(ModelParams(particles=8, gamma=1, v=1, c=None))
        offsets = {
            i - j for i in range(H.dim) for j in range(H.dim) if H.entries[i][j]
        }
        assert offsets <= {-2, -1, 0, 2}
        assert max(offsets) == 2  # upper 3-Hessenberg: nothing below the 2nd subdiagonal

    def test_k1_delta_model(self):
        params = ModelParams(particles=5, gamma=1, v=1, c=None, pert_power=1)
        H = build_rotated_hamiltonian(params)
        assert H.param == "Delta"
        rep = params.rep
        lp = build_ladder(rep, "plus", "monomial")
        lm = build_ladder(rep, "minus", "monomial")
        expected = lm.scale(gr(2)).add(
            lp.add(lm.scale(gr(-1))).scale(gr(-1)).shift_param(1)
        )
        assert H.add(expected.scale(gr(-1))).is_zero()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_hessenberg_bandwidth(self, k):
        # (L+ - L-)^k is zero strictly below its k-th subdiagonal, with
        # parity holes on the skipped offsets
        rep = AngularMomentumRep(8)
        lp = build_ladder(rep, "plus", "monomial")
        lm = build_ladder(rep, "minus", "monomial")
        P = lp.add(lm.scale(gr(-1))).power(k)
        offsets = {i - j for i in range(P.dim) for j in range(P.dim) if P.entries[i][j]}
        assert offsets <= {d for d in range(-k, k + 1) if (d - k) % 2 == 0}

    def test_large_k_allowed(self):
        H = build_rotated_hamiltonian(ModelParams(particles=3, gamma=1, v=1, c=None, pert_power=5))
        assert H.dim == 4


class TestParity:
    def test_small_matrices(self):
        assert np.array_equal(parity_matrix(2).array.real, [[0, 1], [1, 0]])
        P3 = parity_matrix(3).array.real
        assert np.array_equal(P3, np.fliplr(np.eye(3)))

    def test_involution(self):
        P = parity_matrix(9).array
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
        P = parity_matrix(N + 1).array
        assert np.abs(P @ H.conj().T @ P - H).max() <= 1e-14


class TestMotherEPNilpotency:
    @pytest.mark.parametrize("N,v", [(1, 1), (5, 1), (5, 2), (9, 1)])
    def test_full_jordan_block(self, N, v):
        H = build_generalized_hamiltonian(ModelParams(particles=N, gamma=v, v=v, c=0), "monomial")
        assert not H.power(N).is_zero()
        assert H.power(N + 1).is_zero()

    def test_power_is_repeated_matmul(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=4, gamma=rat("1/3"), v=1, c=rat("1/7")), "monomial")
        expected = H
        for k in range(1, 5):
            assert H.power(k).entries == expected.entries
            expected = expected.matmul(H)
        for k in (0, -1):
            with pytest.raises(ValueError):
                H.power(k)

    def test_n1_explicit(self):
        H = build_generalized_hamiltonian(ModelParams(particles=1, gamma=1, v=1, c=0), "monomial")
        arr = H.to_complex()
        assert np.allclose(arr, [[1j, 1], [1, -1j]])
        assert np.allclose(arr @ arr, 0.0)
