"""Eigenvalue routes, sweeps, branch matching, and Krein classification."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from epspectra import _roots, ep_locator, spectra
from epspectra._roots import RootFindingError, min_cost_assignment, polynomial_roots
from epspectra.exact_poly import ParamPoly, Rational, faddeev_leverrier, rat
from epspectra.operators import ModelParams, build_generalized_hamiltonian
from epspectra.spectra import (
    ClassificationError,
    SpectralError,
    analytic_c0_spectrum,
    classify,
    eigenvalues,
    exact_spectra,
    exact_spectrum,
    match_branches,
    matched_sweep,
    optimal_match_distance,
    sweep,
)


def _lexsorted(rows):
    """Each row ordered by (Re, Im) with a stable lexsort, the sort's oracle."""
    return np.take_along_axis(rows, np.lexsort((rows.imag, rows.real), axis=-1), axis=-1)


def float_hamiltonian(N, gamma, v=1.0, c=0.0):
    return build_generalized_hamiltonian(
        ModelParams(particles=N, gamma=gamma, v=v, c=c), "orthonormal")


def _scale(N, gamma, c):
    """max(1, max|H|) at v = 1, the one scale of both routes' tolerances."""
    return float_hamiltonian(N, 0.0, 1.0, float(c)).scales("gamma", [float(gamma)])[0]


class TestEigenvalues:
    def test_hermitian_ladder_spectrum(self):
        # gamma = 0, c = 0: H = 2 v L_x with eigenvalues n v
        ev = eigenvalues(float_hamiltonian(11, 0.0).array)
        assert np.allclose(np.sort(ev.real), np.arange(-11, 12, 2), atol=1e-12)
        assert np.abs(ev.imag).max() <= 1e-12

    def test_broken_phase_imaginary(self):
        # gamma = 2, v = 1: eigenvalues n i sqrt(3)
        ev = eigenvalues(float_hamiltonian(11, 2.0).array)
        expected = np.sort(np.arange(-11, 12, 2) * np.sqrt(3.0))
        assert np.allclose(np.sort(ev.imag), expected, atol=1e-10)
        assert np.abs(ev.real).max() <= 1e-10

    def test_dense_route_matches_charpoly_route(self):
        Hf = float_hamiltonian(5, 1.0, 1.0, 0.02)
        He = build_generalized_hamiltonian(
            ModelParams(particles=5, gamma=1, v=1, c=rat("0.02")), "monomial"
        )
        assert optimal_match_distance(eigenvalues(Hf.array), exact_spectrum(He)) <= 1e-8

    def test_formal_parameter_needs_a_value(self):
        # a matrix that still carries c has no spectrum until c is fixed;
        # fixing it in the matrix or in exact_spectra gives the same bits
        H = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=ParamPoly.monomial(1, 1)), "monomial")
        with pytest.raises(ValueError, match="formal parameter 'c'"):
            exact_spectrum(H)
        fixed = build_generalized_hamiltonian(
            ModelParams(particles=3, gamma=1, v=1, c=rat("1/50")), "monomial")
        assert np.array_equal(
            exact_spectra(ModelParams(particles=3, gamma=1, v=1), "c", [rat("1/50")])[0],
            exact_spectrum(fixed))

    def test_backward_stability_contract(self):
        rng = np.random.default_rng(3)
        for N in (3, 7, 12):
            H = float_hamiltonian(N, float(rng.uniform(0, 1.8)), 1.0, float(rng.uniform(0, 0.3)))
            arr = H.array
            norm = np.linalg.norm(arr, 2)
            for lam in eigenvalues(arr):
                smin = np.linalg.svd(arr - lam * np.eye(N + 1), compute_uv=False)[-1]
                assert smin <= 1e-10 * norm

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(SpectralError):
            eigenvalues(bad)

    def test_sweep_stacks_match_one_point_solves(self):
        # N=40 puts 38 matrices in one 1 MiB block, so 100 points take three
        # stacked solves; each spectrum keeps the bits of its own solve, and
        # each scale is max(1, max|H|) of its own matrix; the sweep orders
        # each row by (Re, Im)
        params = ModelParams(particles=40, gamma=0.0, v=1.0, c=0.0025, pert_power=3)
        grid = np.linspace(0.0, 1.5, 100)
        swept = sweep(params, "gamma", grid)
        family = spectra.build_generalized_hamiltonian(params, "orthonormal")
        rows, scales = spectra.stacked_spectra(family, "gamma", grid)
        assert swept.shape == (100, 41) and swept.tobytes() == _lexsorted(rows).tobytes()
        for g, row, scale in zip(grid, rows, scales):
            one = spectra.build_generalized_hamiltonian(replace(params, gamma=float(g)))
            assert row.tobytes() == eigenvalues(one.array).tobytes()
            assert scale == max(1.0, one.max_abs())

    def test_sweep_stacks_match_one_point_solves_in_the_real_form(self):
        # the even-k twin: 100 points in three stacked solves of the real PT
        # form, each row the bits of a one-point solve of the same real
        # matrix, each scale max(1, max|H|) of the complex H
        params = ModelParams(particles=40, gamma=0.0, v=1.0, c=0.0025)
        grid = np.linspace(0.0, 1.5, 100)
        swept = sweep(params, "gamma", grid)
        family = spectra.build_generalized_hamiltonian(params, "orthonormal")
        rows, scales = spectra.stacked_spectra(family, "gamma", grid)
        assert swept.shape == (100, 41) and swept.tobytes() == _lexsorted(rows).tobytes()
        for g, row, scale in zip(grid, rows, scales):
            one = spectra.build_generalized_hamiltonian(replace(params, gamma=float(g)))
            real_form = one.stack("gamma", [float(g)])[0]
            assert real_form.dtype == np.float64
            assert row.tobytes() == eigenvalues(real_form).tobytes()
            assert scale == max(1.0, one.max_abs())

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_k_rows_hold_exact_conjugates(self, k):
        # dgeev on the real form: each non-real eigenvalue comes with its
        # exact conjugate (equal floats; only the sign of a zero Im differs)
        params = ModelParams(particles=11, gamma=0.0, v=1.0, c=0.1 / 11, pert_power=k)
        rows = sweep(params, "gamma", np.linspace(0.0, 7.0, 300))
        assert np.count_nonzero(rows.imag) > 1000
        for row in rows:
            conj = np.conj(row)
            order = np.lexsort((conj.imag, conj.real))
            assert np.array_equal(conj[order], row)

    @pytest.mark.parametrize("k", [1, 3])
    def test_odd_k_rows_are_the_complex_solve(self, k):
        # odd k has no real form: each row is the sorted complex LAPACK
        # solve of H itself
        params = ModelParams(particles=11, gamma=0.0, v=1.0, c=0.05, pert_power=k)
        grid = np.linspace(0.0, 3.0, 40)
        for g, row in zip(grid, sweep(params, "gamma", grid)):
            H = spectra.build_generalized_hamiltonian(replace(params, gamma=float(g))).array
            vals = np.linalg.eigvals(np.asarray(H, dtype=complex))
            order = np.lexsort((vals.imag, vals.real))
            assert row.tobytes() == vals[order].tobytes()

    def test_stack_failure_names_its_point(self):
        params = ModelParams(particles=3, gamma=0.0, v=1.0, c=0.1)
        with pytest.raises(SpectralError, match=r"gamma=1e\+308"):
            sweep(params, "gamma", [0.0, 1.0, 1e308])

    def test_deterministic_ordering(self):
        # eigenvalues keeps LAPACK's order; a sweep orders each row by (Re, Im)
        params = ModelParams(particles=9, gamma=1.2, v=1.0, c=0.05)
        R = float_hamiltonian(9, 0.0, 1.0, 0.05).stack("gamma", [1.2])[0]
        a = eigenvalues(R)
        b = eigenvalues(R)
        assert np.array_equal(a, b)
        key = sorted(zip(a.real, a.imag))
        assert [complex(r, i) for r, i in key] == list(sweep(params, "gamma", [1.2])[0])

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.complex128, st.tuples(st.integers(1, 4), st.integers(1, 13)),
                      elements=st.builds(complex, *[st.sampled_from(
                          [-np.inf, -1.5, -0.0, 0.0, 1.5, 2.0, np.inf])] * 2)))
    def test_in_place_sort_is_the_lexsort(self, vals):
        # ties, signed zeros and infinities come out in the lexsort's order
        assert spectra._sorted_eigs(vals.copy()).tobytes() == _lexsorted(vals).tobytes()


_coefficients = st.one_of(
    st.just(0j), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))


@st.composite
def _coefficient_stacks(draw):
    """Rows with exactly-zero low and high coefficients around a nonzero stretch."""
    width = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        low = draw(st.integers(0, width - 1))
        high = draw(st.integers(low, width - 1))
        row = [0j] * width
        for i in range(low, high + 1):
            row[i] = draw(_coefficients)
        row[low], row[high] = row[low] or 1.0, row[high] or -2.5j
        rows.append(row)
    return np.array(rows, dtype=complex)


def _one_row_reference(coeffs):
    """The one-polynomial root finder that ``polynomial_roots`` replaced, kept as its oracle."""
    c = np.asarray(coeffs, dtype=complex)
    c = c[: np.flatnonzero(c)[-1] + 1]
    low = np.flatnonzero(c)[0]
    cc, m = c[low:], len(c) - 1 - low
    if m == 0:
        return np.zeros(low, dtype=complex)
    comp = np.zeros((m, m), dtype=complex)
    comp[np.arange(1, m), np.arange(m - 1)] = 1.0
    comp[:, -1] = -cc[:-1] / cc[-1]
    roots = np.linalg.eigvals(comp)
    rev, drev = cc[::-1], (cc[1:] * np.arange(1, m + 1))[::-1]
    for _ in range(_roots._POLISH_ITERATIONS):
        val, der = np.polyval(rev, roots), np.polyval(drev, roots)
        step = np.where(der != 0, val / np.where(der != 0, der, 1), 0)
        roots = roots - step
        if np.all(np.abs(step) <= _roots._REL_TOL * np.maximum(1.0, np.abs(roots))):
            break
    return np.concatenate([np.zeros(low, dtype=complex), roots])


class TestStackedRoots:
    """A stack of rows gives each row's roots with the bits of a one-row call."""

    @settings(max_examples=150, deadline=None)
    @given(_coefficient_stacks())
    # a triple root polishes for many steps, a linear row (with high zeros)
    # and a row with two zero roots for few: each row stops on its own test
    @example(np.array([[-1, 3, -3, 1], [-2, 1, 0, 0], [0, 0, 1, 1], [5, 0, 0, 0]], dtype=complex))
    def test_stack_matches_one_row_at_a_time(self, stack):
        try:
            stacked = polynomial_roots(stack)
        except RootFindingError:
            with pytest.raises(RootFindingError):
                for row in stack:
                    polynomial_roots(row)
            return
        assert len(stacked) == len(stack)
        for row, roots in zip(stack, stacked):
            one = polynomial_roots(row)
            assert one.tobytes() == roots.tobytes() == _one_row_reference(row).tobytes()
            top = np.flatnonzero(row)[-1]
            assert len(roots) == top and np.count_nonzero(roots == 0) >= np.argmax(row != 0)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        whole = polynomial_roots(stack)
        monkeypatch.setattr(_roots, "_STACK_BYTES", 16 * 5 * 5 * 2)  # two companions a block
        calls = []
        monkeypatch.setattr(_roots.np.linalg, "eigvals",
                            lambda a, f=np.linalg.eigvals: calls.append(len(a)) or f(a))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, polynomial_roots(stack)))
        assert calls == [2, 2, 2, 2, 1]


_exact_numbers = st.fractions(min_value=-3, max_value=3, max_denominator=40).map(
    lambda f: Rational(f.numerator, f.denominator))


def _dense_oracle(H):
    """Sorted roots of a dense exact H's Faddeev-LeVerrier polynomial."""

    def to_float(g):
        return complex(float(Fraction(int(g.re.numerator), int(g.re.denominator))),
                       float(Fraction(int(g.im.numerator), int(g.im.denominator))))

    row = [to_float(p.coeffs[0]) if p else 0j
           for p in faddeev_leverrier(H).monic_coefficients()]
    roots = polynomial_roots(np.array(row))
    return roots[np.lexsort((roots.imag, roots.real))]


class TestExactSpectra:
    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 14), k=st.integers(1, 4), gamma=_exact_numbers,
           v=_exact_numbers.filter(bool), c=_exact_numbers, vary=st.sampled_from(["gamma", "c"]))
    @example(N=11, k=2, gamma=Rational(0), v=Rational(-1), c=Rational(0), vary="gamma")
    @example(N=14, k=4, gamma=Rational(-3), v=Rational(1, 3), c=Rational(-5, 7), vary="c")
    def test_matches_dense_oracle(self, N, k, gamma, v, c, vary, composed):
        params = ModelParams(particles=N, gamma=gamma, v=v, c=c, pert_power=k)
        expected = _dense_oracle(composed(params))
        (got,) = exact_spectra(
            replace(params, **{vary: 99}), vary, [params.gamma if vary == "gamma" else c])
        assert got.tobytes() == expected.tobytes()
        H = build_generalized_hamiltonian(params, "monomial")
        assert exact_spectrum(H).tobytes() == expected.tobytes()

    def test_one_stacked_solve_for_all_points(self, monkeypatch):
        params = ModelParams(particles=11, v=1, c=rat("1/110"))
        gammas = [Rational(k, 37) for k in range(-20, 60)]
        calls = []
        monkeypatch.setattr(spectra, "polynomial_roots",
                            lambda rows, f=polynomial_roots: calls.append(len(rows)) or f(rows))
        rows = exact_spectra(params, "gamma", gammas)
        assert calls == [len(gammas)] and rows.shape == (len(gammas), 12)
        for g, row in zip(gammas, rows):
            (one,) = exact_spectra(params, "gamma", [g])
            assert one.tobytes() == row.tobytes()

    def test_needs_a_value_of_c(self):
        with pytest.raises(ValueError, match="value of c"):
            exact_spectra(ModelParams(particles=3, c=ParamPoly.monomial(1, 1)), "gamma", [1])
        with pytest.raises(ValueError):
            exact_spectra(ModelParams(particles=3), "v", [1])
        assert exact_spectra(ModelParams(particles=3), "c", []).shape == (0, 4)


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
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 41), elements=st.floats(0.0, 1e300)))
    def test_median_is_numpys(self, jumps):
        assert np.float64(spectra._median(jumps)).tobytes() == np.median(jumps).tobytes()

    def test_single_point(self):
        out = sweep(ModelParams(particles=3, gamma=0.0, v=1.0, c=0.1), "gamma", [0.7])
        assert out.shape == (1, 4)

    def test_identity_matching_for_separated_branches(self):
        params = ModelParams(particles=2, gamma=0.0, v=1.0, c=0.0)
        grid = [0.0, 0.2, 0.4]
        trajectories, flagged = match_branches(grid, sweep(params, "gamma", grid))
        assert flagged == []
        for t in trajectories:
            assert np.all(np.sign(t.values.real) == np.sign(t.values.real[0]))

    def test_c0_crossing_consistent_with_analytic_law(self):
        # branches continue through the gamma = v collapse as n sqrt(v^2-g^2):
        # on each side every trajectory is an integer multiple of the root,
        # and the integers exhaust the odd set -5..5
        params = ModelParams(particles=5, gamma=0.0, v=1.0, c=0.0)
        grid = np.linspace(0.0, 2.0, 41)
        trajectories, _ = match_branches(grid, sweep(params, "gamma", grid))
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
        return vals[np.lexsort((vals.imag, vals.real))]

    def test_jordan_toy_flags_and_refinement_localizes(self):
        grid = np.linspace(-1, 1, 9)
        specs = [self._toy_spectrum(t) for t in grid]
        _, flagged = match_branches(grid, specs)
        assert flagged  # the square-root crossing is flagged on a coarse grid
        trajectories, unresolved = matched_sweep(
            None, "gamma", grid, max_levels=6,
            evaluate=lambda ts: [self._toy_spectrum(t) for t in ts],
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
        def evaluate(ts):
            return [np.array([1000j * t, 4 + t, 5 + t, 6 + t, 7 + t, 8 + t]) for t in ts]

        grid = np.linspace(0.0, 1.0, 5)
        assert len(match_branches(grid, evaluate(grid))[1]) == 4
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

        def evaluate(xs):
            evaluated.extend(xs)
            return spectra.sweep(params, "c", xs)

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

        def evaluate(xs):
            rows = spectra.sweep(params, "c", xs)
            for x, row in zip(xs, rows):
                assert x not in evaluated
                evaluated[x] = row
            return rows

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

    def test_default_solves_the_grid_in_one_stack(self, monkeypatch):
        # the whole grid goes to stacked_spectra at once, then one call per
        # inserted midpoint; the rows are those of sweep on the same points
        params = ModelParams(particles=11, gamma=0.9, v=1.0, c=0.0)
        grid = np.geomspace(0.002, 0.0023, 5)
        calls = []
        original = spectra.stacked_spectra

        def stacked(family, vary, values):
            calls.append(list(values))
            return original(family, vary, values)

        monkeypatch.setattr(spectra, "stacked_spectra", stacked)
        trajectories, _ = matched_sweep(params, "c", grid[::-1], max_levels=6)
        points = list(trajectories[0].parameters)
        assert calls[0] == sorted(grid.tolist())
        assert all(len(xs) == 1 for xs in calls[1:])
        assert sorted(x for xs in calls for x in xs) == points
        monkeypatch.undo()
        expected = match_branches(points, sweep(params, "c", points))[0]
        assert all(np.array_equal(t.values, e.values) for t, e in zip(trajectories, expected))

    def test_each_piece_is_matched_once(self, monkeypatch):
        # trajectory -N 11 --gamma 0.9 --c 0.001:1:200:log: one match per
        # piece checked, kept or halved, and none after the loop
        params = ModelParams(particles=11, gamma=0.9, v=1.0, c=0.0)
        grid = np.geomspace(0.001, 1, 200)
        calls = []
        original = spectra._match_step

        def match_step(prev, cur):
            calls.append(1)
            return original(prev, cur)

        monkeypatch.setattr(spectra, "_match_step", match_step)
        trajectories, _ = matched_sweep(params, "c", grid)
        points = list(trajectories[0].parameters)
        halved = len(points) - len(grid)
        assert halved > 0
        assert len(calls) == len(points) - 1 + halved
        monkeypatch.undo()
        expected = match_branches(points, sweep(params, "c", points))[0]
        assert all(np.array_equal(t.values, e.values) for t, e in zip(trajectories, expected))


def _scipy_cols(cost):
    return linear_sum_assignment(cost)[1]


@st.composite
def _pt_tie_costs(draw):
    # |x - (conj(y) + i z)| over a real-PT-form spectrum: real eigenvalues
    # and exact conjugate pairs make many exactly equal costs
    N = draw(st.integers(1, 12))
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    c = draw(st.sampled_from([0.0, 0.01, 0.1]))
    z = draw(st.sampled_from([0.0, 0.5, -1.0]))
    ev = sweep(ModelParams(particles=N, gamma=gamma, v=1.0, c=c), "gamma", [gamma])[0]
    return np.abs(ev[:, None] - (np.conj(ev)[None, :] + 1j * z))


class TestMinCostAssignment:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 13).flatmap(
        lambda n: hnp.arrays(float, (n, n), elements=st.integers(0, 3).map(float))))
    def test_small_integer_ties_as_scipy(self, cost):
        assert np.array_equal(min_cost_assignment(cost), _scipy_cols(cost))

    @settings(max_examples=100, deadline=None)
    @given(_pt_tie_costs())
    def test_conjugate_ties_as_scipy(self, cost):
        assert np.array_equal(min_cost_assignment(cost), _scipy_cols(cost))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 13), st.floats(0.0, 1e3))
    def test_constant_matrix_gives_the_identity(self, n, value):
        cost = np.full((n, n), value)
        assert np.array_equal(min_cost_assignment(cost), np.arange(n))
        assert np.array_equal(_scipy_cols(cost), np.arange(n))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 13).flatmap(lambda n: st.tuples(
        st.permutations(range(n)),
        hnp.arrays(float, (n, n), elements=st.sampled_from([0.5, 1.0, 1.5])))),
        st.booleans())
    def test_fast_path_and_port_agree_when_argmins_are_a_permutation(self, drawn, ties):
        # row i's first minimum is 0.5 at perm[i]; with ties, later columns
        # of the row may hold the same minimum
        perm, cost = drawn
        for i, j in enumerate(perm):
            cost[i, :j + 1] = np.maximum(cost[i, :j + 1], 1.0)
            if not ties:
                cost[i, j + 1:] = np.maximum(cost[i, j + 1:], 1.0)
        cost[np.arange(len(perm)), perm] = 0.5
        assert list(min_cost_assignment(cost)) == list(perm)
        assert list(_roots._shortest_augmenting_paths(cost)) == list(perm)
        assert list(_scipy_cols(cost)) == list(perm)

    @pytest.mark.parametrize("cost", [
        [[np.nan]],
        [[1.0, 2.0], [-np.inf, 0.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [1.0, 2.0],
    ])
    def test_rejects_nan_minus_inf_and_non_square(self, cost):
        with pytest.raises(ValueError):
            min_cost_assignment(np.array(cost))


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
        ev = eigenvalues(H.array)
        assert classify(ev, imag_tol=1e-9 * max(1.0, H.max_abs())) == 0
        assert np.all(np.diff(np.sort(ev.real)) > 1e-8)

    def test_unpaired_raises(self):
        with pytest.raises(ClassificationError):
            classify(np.array([1 + 1j, 2 + 2j, 3.0]), imag_tol=1e-12)

    def test_counts_invariant(self):
        H = float_hamiltonian(11, 1.0, 1.0, 0.1 / 11)
        ev = eigenvalues(H.array)
        tol = 1e-7 * max(1.0, H.max_abs())
        assert np.count_nonzero(np.abs(ev.imag) <= tol) + 2 * classify(ev, imag_tol=tol) == 12

    def test_stack_counts_row_by_row_as_the_ep_locator(self):
        # one tolerance per row broadcasts against a stack; each row's count
        # is its one-row count, and the EP locator's counter is this count
        grid = np.linspace(0.0, 7.0, 200).tolist()
        family = build_generalized_hamiltonian(ModelParams(particles=11, v=1.0, c=0.1 / 11))
        rows, scales = spectra.stacked_spectra(family, "gamma", grid)
        stacked = classify(rows, 1e-7 * scales[:, None])
        assert stacked.shape == (200,)
        assert stacked.tolist() == [int(classify(r, 1e-7 * s)) for r, s in zip(rows, scales)]
        assert stacked.tolist() == ep_locator._pair_count_fn(11, 1, 0.1 / 11)(grid)
        assert 0 < stacked.max() == 6

    def test_unbalanced_row_in_a_stack_raises(self):
        rows = np.array([[1 + 1j, 1 - 1j, 3.0], [1 + 1j, 2 + 2j, 3.0], [1.0, 2.0, 3.0]])
        assert classify(rows[[0, 2]], 1e-12).tolist() == [1, 0]
        with pytest.raises(ClassificationError, match="2 above vs 0 below"):
            classify(rows, np.full((3, 1), 1e-12))


class TestKreinSymmetries:
    def test_conjugation_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            N = int(rng.integers(2, 11))
            g = rat(float(rng.uniform(0, 2)))
            c = rat(float(rng.uniform(0, 1.0 / N)))
            (ev,) = exact_spectra(ModelParams(particles=N, v=1, c=c), "gamma", [g])
            assert optimal_match_distance(ev, np.conj(ev)) <= 1e-9 * _scale(N, g, c)

    def test_gamma_sign_symmetry(self):
        H = build_generalized_hamiltonian(
            ModelParams(particles=7, gamma=rat("0.8"), v=1, c=rat("0.1")), "monomial")
        Hm = build_generalized_hamiltonian(
            ModelParams(particles=7, gamma=rat("-0.8"), v=1, c=rat("0.1")), "monomial")
        assert optimal_match_distance(exact_spectrum(H), exact_spectrum(Hm)) <= 1e-9 * 8

    def test_sign_closure_only_at_c_zero(self):
        N = 11
        (ev0,) = exact_spectra(ModelParams(particles=N, v=1, c=0), "gamma", [rat("0.5")])
        assert optimal_match_distance(ev0, -ev0) <= 1e-9 * _scale(N, 0.5, 0)
        Hc = build_generalized_hamiltonian(
            ModelParams(particles=N, gamma=rat("0.5"), v=1, c=rat("0.5") / N), "monomial"
        )
        evc = exact_spectrum(Hc)
        assert optimal_match_distance(evc, -evc) > 1e-3
