"""Eigenvalue routes, sweeps, branch matching, and Krein classification."""

from dataclasses import replace

import numpy as np
import pytest

from epspectra import ep_locator, spectra
from epspectra.exact_poly import Rational, charpoly_of_tridiagonal, rat
from epspectra.operators import ModelParams, build_generalized_hamiltonian
from epspectra.spectra import (
    ClassificationError,
    SpectralError,
    Spectrum,
    analytic_c0_spectrum,
    classify,
    eigenvalues,
    exact_spectrum,
    match_branches,
    matched_sweep,
    optimal_match_distance,
    sweep,
)


def float_hamiltonian(N, gamma, v=1.0, c=0.0):
    return build_generalized_hamiltonian(
        ModelParams(particles=N, gamma=gamma, v=v, c=c), "orthonormal")


class TestEigenvalues:
    def test_hermitian_ladder_spectrum(self):
        # gamma = 0, c = 0: H = 2 v L_x with eigenvalues n v
        ev = eigenvalues(float_hamiltonian(11, 0.0))
        assert np.allclose(ev.real, np.arange(-11, 12, 2), atol=1e-12)
        assert np.abs(ev.imag).max() <= 1e-12

    def test_broken_phase_imaginary(self):
        # gamma = 2, v = 1: eigenvalues n i sqrt(3)
        ev = eigenvalues(float_hamiltonian(11, 2.0))
        expected = np.sort(np.arange(-11, 12, 2) * np.sqrt(3.0))
        assert np.allclose(np.sort(ev.imag), expected, atol=1e-10)
        assert np.abs(ev.real).max() <= 1e-10

    def test_dense_route_matches_charpoly_route(self):
        Hf = float_hamiltonian(5, 1.0, 1.0, 0.02)
        He = build_generalized_hamiltonian(
            ModelParams(particles=5, gamma=1, v=1, c=rat("0.02")), "monomial"
        )
        assert optimal_match_distance(eigenvalues(Hf), exact_spectrum(He)) <= 1e-8

    def test_formal_parameter_needs_a_value(self):
        # a matrix that still carries c has no spectrum until c is fixed;
        # fixing it in the matrix or in the polynomial gives the same bits
        H = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=None), "monomial")
        with pytest.raises(ValueError, match="formal parameter 'c'"):
            exact_spectrum(H)
        with pytest.raises(ValueError, match="formal parameter 'c'"):
            eigenvalues(H)
        fixed = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=rat("1/50")), "monomial")
        assert np.array_equal(
            spectra.eigenvalues_from_charpoly(charpoly_of_tridiagonal(H), rat("1/50")),
            exact_spectrum(fixed))

    def test_backward_stability_contract(self):
        rng = np.random.default_rng(3)
        for N in (3, 7, 12):
            H = float_hamiltonian(N, float(rng.uniform(0, 1.8)), 1.0, float(rng.uniform(0, 0.3)))
            arr = H.array
            norm = np.linalg.norm(arr, 2)
            for lam in eigenvalues(H):
                smin = np.linalg.svd(arr - lam * np.eye(N + 1), compute_uv=False)[-1]
                assert smin <= 1e-10 * norm

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(SpectralError):
            eigenvalues(bad)

    def test_sweep_stacks_match_one_point_solves(self):
        # N=40 puts 38 matrices in one 1 MiB block, so 100 points take three
        # stacked solves; each spectrum keeps the bits of its own solve, and
        # each scale is max(1, max|H|) of its own matrix
        params = ModelParams(particles=40, gamma=0.0, v=1.0, c=0.0025, pert_power=3)
        grid = np.linspace(0.0, 1.5, 100)
        swept = sweep(params, "gamma", grid)
        family = spectra.build_generalized_hamiltonian(params, "orthonormal").family
        scales = [s for block in spectra.stacked_spectra(family, "gamma", grid, str)
                  for s in block[2]]
        for g, spec, scale in zip(grid, swept, scales):
            one = spectra.build_generalized_hamiltonian(replace(params, gamma=float(g)))
            assert spec.params.gamma == g
            assert spec.eigenvalues.tobytes() == eigenvalues(one).tobytes()
            assert scale == max(1.0, one.max_abs())

    def test_stack_failure_names_its_point(self):
        params = ModelParams(particles=3, gamma=0.0, v=1.0, c=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralError, match=r"gamma=1e\+308"):
                sweep(params, "gamma", [0.0, 1.0, 1e308])

    def test_deterministic_ordering(self):
        H = float_hamiltonian(9, 1.2, 1.0, 0.05)
        a = eigenvalues(H)
        b = eigenvalues(H)
        assert np.array_equal(a, b)
        key = sorted(zip(a.real, a.imag))
        assert [complex(r, i) for r, i in key] == list(a)


class TestAnalyticC0:
    def test_mother_ep_all_zero(self):
        ev = analytic_c0_spectrum(ModelParams(particles=9, gamma=1.0, v=1.0, c=0.0))
        assert np.all(ev == 0)

    def test_hermitian_line(self):
        ev = analytic_c0_spectrum(ModelParams(particles=4, gamma=0.0, v=1.0, c=0.0))
        assert np.allclose(ev, np.arange(-4, 5, 2))

    def test_point_eight(self):
        ev = analytic_c0_spectrum(ModelParams(particles=11, gamma=0.6, v=1.0, c=0.0))
        assert np.allclose(np.sort(ev.real), 0.8 * np.arange(-11, 12, 2))

    def test_requires_c_zero(self):
        with pytest.raises(ValueError):
            analytic_c0_spectrum(ModelParams(particles=3, gamma=0.0, v=1.0, c=0.1))

    @pytest.mark.parametrize("N", [4, 11, 20])
    def test_oracle_equivalence_over_grid(self, N):
        # charpoly-route eigenvalues against the closed form over gamma in [0, 2]
        worst = 0.0
        for k in range(21):
            g = Rational(2 * k) / 20
            He = build_generalized_hamiltonian(
                ModelParams(particles=N, gamma=g, v=1, c=0), "monomial")
            ana = analytic_c0_spectrum(ModelParams(particles=N, gamma=float(g), v=1.0, c=0.0))
            worst = max(worst, optimal_match_distance(exact_spectrum(He), ana))
        assert worst <= 1e-9 * N * 2.0


class TestSweepAndMatching:
    def test_single_point(self):
        out = sweep(ModelParams(particles=3, gamma=0.0, v=1.0, c=0.1), "gamma", [0.7])
        assert len(out) == 1 and len(out[0].eigenvalues) == 4

    def test_identity_matching_for_separated_branches(self):
        params = ModelParams(particles=2, gamma=0.0, v=1.0, c=0.0)
        out = sweep(params, "gamma", [0.0, 0.2, 0.4])
        trajectories, flagged = match_branches(out)
        assert flagged == []
        for t in trajectories:
            assert np.all(np.sign(t.values.real) == np.sign(t.values.real[0]))

    def test_c0_crossing_consistent_with_analytic_law(self):
        # branches continue through the gamma = v collapse as n sqrt(v^2-g^2):
        # on each side every trajectory is an integer multiple of the root,
        # and the integers exhaust the odd set -5..5
        params = ModelParams(particles=5, gamma=0.0, v=1.0, c=0.0)
        grid = np.linspace(0.0, 2.0, 41)
        out = sweep(params, "gamma", grid)
        trajectories, _ = match_branches(out)
        lo_set, hi_set = [], []
        for t in trajectories:
            n_lo = {round(t.values[i].real / np.sqrt(1.0 - grid[i] ** 2)) for i in (3, 5, 8)}
            n_hi = {round(t.values[i].imag / np.sqrt(grid[i] ** 2 - 1.0)) for i in (30, 35, 40)}
            assert len(n_lo) == 1 and len(n_hi) == 1  # constant branch label per side
            lo_set.append(n_lo.pop())
            hi_set.append(n_hi.pop())
        assert sorted(lo_set) == [-5, -3, -1, 1, 3, 5]
        assert sorted(hi_set) == [-5, -3, -1, 1, 3, 5]

    def _toy_spectrum(self, t):
        # 2x2 Jordan unfolding [[0,1],[t,0]] (eigenvalues +- sqrt(t)) among
        # five stationary spectator branches
        pair = np.emath.sqrt(t) * np.array([1, -1])
        spectators = np.array([4.0, 5.0, 6.0, 7.0, 8.0], dtype=complex)
        vals = np.concatenate([pair.astype(complex), spectators])
        vals = vals[np.lexsort((vals.imag, vals.real))]
        return Spectrum(
            params=ModelParams(particles=6, gamma=t, v=1.0, c=0.0),
            eigenvalues=vals,
        )

    def test_jordan_toy_flags_and_refinement_localizes(self):
        grid = np.linspace(-1, 1, 9)
        specs = [self._toy_spectrum(t) for t in grid]
        _, flagged = match_branches(specs)
        assert flagged  # the square-root crossing is flagged on a coarse grid
        trajectories, unresolved = matched_sweep(
            None, "gamma", grid, max_levels=6, evaluate=self._toy_spectrum
        )
        # a branch-point crossing never regularizes (the jump ratio grows as
        # the step shrinks); refinement localizes it to the floor width
        assert unresolved
        step = grid[1] - grid[0]
        assert any(lo <= 0.0 <= hi for lo, hi in unresolved)
        assert all(hi - lo <= step / 2**6 * (1 + 1e-9) for lo, hi in unresolved)

    def test_fast_smooth_branch_is_halved_once(self):
        # one eigenvalue moves linearly 1000x faster than the rest: every
        # step is flagged, but halving halves its jump, so each grid step is
        # halved once and nothing is left unresolved
        def evaluate(t):
            vals = np.array([1000j * t, 4 + t, 5 + t, 6 + t, 7 + t, 8 + t])
            return Spectrum(params=ModelParams(particles=5, gamma=t, v=1.0, c=0.0),
                            eigenvalues=vals)

        grid = np.linspace(0.0, 1.0, 5)
        assert len(match_branches([evaluate(t) for t in grid])[1]) == 4
        trajectories, unresolved = matched_sweep(
            None, "gamma", grid, max_levels=6, evaluate=evaluate
        )
        assert list(trajectories[0].parameters) == list(np.linspace(0.0, 1.0, 9))
        assert unresolved == []

    def test_readme_trajectory_brackets_the_branch_point(self):
        # trajectory -N 11 --gamma 0.9 --c 0.001:1:200:log crosses one
        # second-order EP near c = 0.00213593; refinement follows it to the
        # floor and reports that one bracket
        params = ModelParams(particles=11, gamma=0.9, v=1.0, c=0.0)
        grid = np.geomspace(0.001, 1, 200)
        evaluated = []

        def evaluate(x):
            evaluated.append(x)
            return spectra.sweep(params, "c", [x])[0]

        _, unresolved = matched_sweep(params, "c", grid, evaluate=evaluate)
        assert len(evaluated) <= 215
        [(lo, hi)] = unresolved
        i = np.searchsorted(grid, lo, side="right") - 1
        assert hi - lo <= (grid[i + 1] - grid[i]) / 2**12
        assert lo < 0.00213593 < hi
        H = build_generalized_hamiltonian(replace(params, c=hi), "orthonormal")
        tol = 1e-7 * max(1.0, H.max_abs())
        counts = [ep_locator._exact_count(11, 0.9, 1.0, c, tol) for c in (lo, hi)]
        assert abs(counts[1] - counts[0]) == 1

    def test_model_refinement_reaches_floor_step_by_step(self):
        # N=11, gamma=0.9: the step holding the branch point near
        # c ~ 0.00213593 is refined down to the floor, its fast neighbours
        # only once
        params = ModelParams(particles=11, gamma=0.9, v=1.0, c=0.0)
        grid = np.geomspace(0.002, 0.0023, 5)
        levels = 6
        evaluated = {}

        def evaluate(x):
            assert x not in evaluated
            evaluated[x] = spectra.sweep(params, "c", [x])[0]
            return evaluated[x]

        trajectories, unresolved = matched_sweep(
            params, "c", grid, max_levels=levels, evaluate=evaluate
        )
        points = list(trajectories[0].parameters)
        assert sorted(evaluated) == points  # one evaluation per returned point
        assert len(points) > len(grid)
        [(lo, hi)] = unresolved
        assert lo < 0.00213593 < hi and hi == points[points.index(lo) + 1]
        step = np.diff(grid)[np.searchsorted(grid, lo, side="right") - 1]
        assert hi - lo <= step / 2**levels
        # refinement is local to each original step
        left, left_unresolved = matched_sweep(params, "c", grid[:3], max_levels=levels)
        right, right_unresolved = matched_sweep(params, "c", grid[2:], max_levels=levels)
        joined = list(left[0].parameters) + list(right[0].parameters)[1:]
        assert joined == points
        assert left_unresolved + right_unresolved == unresolved


class TestDepartureDirections:
    def test_n11_triplet_star_at_small_c(self):
        # at gamma = v the twelve eigenvalues leave the fully degenerate
        # point along three directions with phases pi and pi -+ 2 pi / 3
        H = build_generalized_hamiltonian(
            ModelParams(particles=11, gamma=1, v=1, c=rat("1e-5") / 11), "monomial"
        )
        ev = exact_spectrum(H)
        phases = np.angle(ev) % (2 * np.pi)
        targets = np.array([np.pi / 3, np.pi, 5 * np.pi / 3])
        dist = np.abs(phases[:, None] - targets[None, :]).min(axis=1)
        assert dist.max() < 0.15  # next Puiseux order bends the rays slightly
        for t in targets:
            assert np.sum(np.abs(phases - t) < 0.15) == 4


class TestClassification:
    def test_all_real_distinct_at_gamma_zero(self):
        # real symmetric tridiagonal with nonzero off-diagonals: distinct reals
        H = float_hamiltonian(12, 0.0, 1.0, 0.3)
        ev = eigenvalues(H)
        cls = classify(ev, imag_tol=1e-9 * max(1.0, H.max_abs()))
        assert cls.real_count == 13 and cls.conjugate_pair_count == 0
        assert np.all(np.diff(np.sort(ev.real)) > 1e-8)

    def test_unpaired_raises(self):
        with pytest.raises(ClassificationError):
            classify(np.array([1 + 1j, 2 + 2j, 3.0]), imag_tol=1e-12)

    def test_pair_residual_guard(self):
        vals = np.array([1 + 1j, 2 - 1j])  # conjugates of nothing
        with pytest.raises(ClassificationError):
            classify(vals, imag_tol=1e-12)

    def test_counts_invariant(self):
        H = float_hamiltonian(11, 1.0, 1.0, 0.1 / 11)
        cls = classify(eigenvalues(H), imag_tol=1e-7 * max(1.0, H.max_abs()))
        assert cls.real_count + 2 * cls.conjugate_pair_count == 12


class TestKreinSymmetries:
    def test_conjugation_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            N = int(rng.integers(2, 11))
            g = rat(float(rng.uniform(0, 2)))
            c = rat(float(rng.uniform(0, 1.0 / N)))
            H = build_generalized_hamiltonian(
                ModelParams(particles=N, gamma=g, v=1, c=c), "monomial")
            ev = exact_spectrum(H)
            assert optimal_match_distance(ev, np.conj(ev)) <= 1e-9 * max(1.0, H.max_abs())

    def test_gamma_sign_symmetry(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=7, gamma=rat("0.8"), v=1, c=rat("0.1")), "monomial")
        Hm = build_generalized_hamiltonian(
            ModelParams(particles=7, gamma=rat("-0.8"), v=1, c=rat("0.1")), "monomial")
        assert optimal_match_distance(exact_spectrum(H), exact_spectrum(Hm)) <= 1e-9 * 8

    def test_sign_closure_only_at_c_zero(self):
        N = 11
        H0 = build_generalized_hamiltonian(
            ModelParams(particles=N, gamma=rat("0.5"), v=1, c=0), "monomial")
        ev0 = exact_spectrum(H0)
        assert optimal_match_distance(ev0, -ev0) <= 1e-9 * max(1.0, H0.max_abs())
        Hc = build_generalized_hamiltonian(
            ModelParams(particles=N, gamma=rat("0.5"), v=1, c=rat("0.5") / N), "monomial"
        )
        evc = exact_spectrum(Hc)
        assert optimal_match_distance(evc, -evc) > 1e-3
