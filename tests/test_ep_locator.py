"""Exceptional point location, the mother EP, and strong-coupling formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epspectra import ep_locator, spectra
from epspectra.ep_locator import (
    EPLocationError,
    ep_map,
    locate_eps,
    mother_ep_check,
)
from epspectra.exact_poly import ExactTridiagonal, rat
from epspectra.operators import (
    ModelParams,
    OperatorMatrix,
    UsageError,
    build_generalized_hamiltonian,
)
from oracles import is_zero, strong_coupling_predictions, strong_coupling_validation


def _count_at(gamma, particles, v, c):
    """The pair count of a one-point list, from a fresh counter."""
    [count] = ep_locator._pair_count_fn(particles, v, c)([gamma])
    return count


class TestPairCount:
    # at c = 0.1/11 the six EPs lie between gamma = 0.74 and 1.15

    def test_unbroken_region(self):
        assert _count_at(0.5, 11, 1.0, 0.1 / 11) == 0

    def test_fully_broken(self):
        # N odd: no n = 0 level, so all twelve values pair up
        assert _count_at(1.5, 11, 1.0, 0.1 / 11) == 6

    def test_partially_broken_with_interaction(self):
        assert _count_at(1.0, 11, 1.0, 0.1 / 11) == 4


class TestStackedScan:
    # a list is counted in stacked eigensolves; each count must equal the
    # count of a one-point list, and no point is counted exactly

    @staticmethod
    def _record_exact(monkeypatch):
        # the gammas of every exact_spectra call, one list per call
        seen = []
        original = spectra.exact_spectra

        def exact_spectra(params, vary, values):
            seen.append(list(values))
            return original(params, vary, values)

        monkeypatch.setattr(spectra, "exact_spectra", exact_spectra)
        return seen

    @pytest.mark.parametrize("c", [0.1 / 11, 7.3])
    def test_scan_grid_matches_point_counts(self, c, monkeypatch):
        seen = self._record_exact(monkeypatch)
        grid = np.linspace(0.0, 7.0, 512).tolist()
        stacked = ep_locator._pair_count_fn(11, 1.0, c)(grid)
        assert seen == []
        assert stacked == [_count_at(g, 11, 1.0, c) for g in grid]

    def test_counter_is_the_vectorized_rule_on_a_stack(self, monkeypatch):
        # README grid, c = 0.004, plus a gamma met while bisecting the first
        # EP: each count is the number of eigenvalues of the stacked
        # real-form solve with Im > 1e-7 * scale, as many as below
        # -1e-7 * scale, and no point is counted exactly
        seen = self._record_exact(monkeypatch)
        gamma = 0.9407173052226027
        grid = sorted(np.linspace(0.0, 7.0, 512).tolist() + [gamma])
        stacked = ep_locator._pair_count_fn(11, 1.0, 0.004)(grid)
        family = build_generalized_hamiltonian(ModelParams(particles=11, v=1.0, c=0.004))
        rows, scales = spectra.stacked_spectra(family, "gamma", grid)
        above = [int(np.sum(row.imag > 1e-7 * s)) for row, s in zip(rows, scales)]
        below = [int(np.sum(row.imag < -1e-7 * s)) for row, s in zip(rows, scales)]
        assert seen == []
        assert stacked == above == below
        assert max(stacked) == 6


class TestBisectionTolerance:
    @staticmethod
    def _refused_before_any_count(monkeypatch, c=0.1, **kwargs):
        def no_counting(*args, **kw):
            raise AssertionError("counted before checking the arguments")

        monkeypatch.setattr(ep_locator, "_pair_count_fn", no_counting)
        with pytest.raises(UsageError):
            locate_eps(2, 1.0, c, **kwargs)
        with pytest.raises(UsageError):
            ep_map(2, 1.0, [c], **kwargs)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_refused_before_any_count(self, tol, monkeypatch):
        self._refused_before_any_count(monkeypatch, tol=tol)

    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_c0_refused_before_any_count(self, c, monkeypatch):
        # c = 0 has only the two order-(N+1) EPs at gamma = +-v
        self._refused_before_any_count(monkeypatch, c=c)
        with pytest.raises(UsageError, match="mother_ep_check"):
            locate_eps(11, 1.0, c)

    @pytest.mark.parametrize("gamma_range", [(0.0, -3.0), (0.0, 0.0), (0.0, math.inf),
                                             (math.nan, 1.0)])
    def test_bad_gamma_range_refused_before_any_count(self, gamma_range, monkeypatch):
        # a range with hi <= lo used to return unrefined coarse-cell midpoints
        self._refused_before_any_count(monkeypatch, gamma_range=gamma_range)

    def test_default_range_for_negative_v(self):
        # H(-v) is similar to H(v), so both search [0, |v| (N+3)/2]
        assert ([r.gamma for r in locate_eps(3, -1.0, 0.1)]
                == pytest.approx([r.gamma for r in locate_eps(3, 1.0, 0.1)], abs=1e-8))

    def test_bisection_stops_at_adjacent_floats(self):
        calls = []

        def counts(gammas):
            calls.extend(gammas)
            assert len(calls) < 200, "bisection did not stop"
            return [int(gamma > 0.3) for gamma in gammas]

        (rec,) = ep_locator._locate_transitions(counts, [(0.0, 1.0, 0, 1)], 1e-300)
        # the bracket is one float step wide, around the jump at 0.3
        assert rec.bracket_width == np.spacing(0.3)
        assert abs(rec.gamma - 0.3) <= np.spacing(0.3)


def _recursive_splitter(count, cells, tol):
    """A depth-first recursive splitter with the same rules: the oracle.

    ``count(gamma, level)`` is told how many counts its cell's chain has made,
    this one included; returns (gamma, bracket_width) per transition.
    """
    records = []

    def bisect(a, b, ca, level):
        while b - a > tol:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break  # a and b are adjacent floats
            level += 1
            if count(mid, level) != ca:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b), b - a

    def resolve(a, b, ca, cb, depth):
        jump = abs(cb - ca)
        if jump == 1:
            records.append(bisect(a, b, ca, depth))
        elif jump:
            if depth >= ep_locator._MAX_SPLITS:
                raise EPLocationError(f"cell [{a}, {b}] unresolved")
            mid = 0.5 * (a + b)
            cm = count(mid, depth + 1)
            resolve(a, mid, ca, cm, depth + 1)
            resolve(mid, b, cm, cb, depth + 1)

    for cell in cells:
        resolve(*cell, 0)
    return records


@st.composite
def _step_counters(draw):
    """Transitions on [0, 1], some closer together than a coarse cell, and
    glitch intervals from just below some of them where the count is 5 higher.

    Transitions lie on a 1e-6 lattice and glitch edges keep 0.1 x from
    their transition, so that (barring rare coincidences) every transition
    can be resolved within _MAX_SPLITS splits.
    """
    lattice = st.integers(0, 10**6).map(lambda i: i / 10**6)
    steps = draw(st.lists(lattice, min_size=1, max_size=6, unique=True))
    clusters = st.tuples(st.sampled_from(steps), st.floats(1e-13, 1e-2))
    steps += [t + d for t, d in draw(st.lists(clusters, max_size=3, unique=True))]
    glitches = []
    for t in draw(st.lists(st.sampled_from(steps), min_size=1, max_size=2)):
        x = draw(st.floats(1.3e-6, 0.05))
        glitches.append((t - x, x * draw(st.floats(0.1, 0.9) | st.floats(1.1, 2.0))))
    return steps, glitches


class TestBreadthFirstSplitter:
    # step counters on [0, 1] scanned on 9 points; a glitch makes some
    # midpoints count outside {ca, cb}; cells reach the width 2^-10 exactly
    @settings(max_examples=150, deadline=None)
    @given(counter=_step_counters(), tol=st.sampled_from([2.0**-10, 1e-9, 1e-300]))
    @example(counter=([0.3, 0.3], []), tol=1e-9)  # two transitions at one point
    # 2^-53 and 1.5 2^-51 part at the 48th split of [0, 1/8], the last one
    # allowed; 2^-53 and 1.5 2^-52 only at a 49th
    @example(counter=([2.0**-53, 1.5 * 2.0**-51], []), tol=1e-300)
    @example(counter=([2.0**-53, 1.5 * 2.0**-52], []), tol=1e-300)
    def test_matches_the_recursive_splitter(self, counter, tol):
        steps, glitches = counter

        def count(gamma):
            glitch = any(u <= gamma <= u + w for u, w in glitches)
            return sum(t < gamma for t in steps) + 5 * glitch

        grid = np.linspace(0.0, 1.0, 9).tolist()
        scan = [count(g) for g in grid]
        cells = [cell for cell in zip(grid, grid[1:], scan, scan[1:]) if cell[2] != cell[3]]

        levels = {}  # oracle counts by level: the breadth-first rounds

        def oracle_count(gamma, level):
            levels.setdefault(level, []).append(gamma)
            return count(gamma)

        rounds = []

        def counts(gammas):
            rounds.append(list(gammas))
            return [count(g) for g in gammas]

        try:
            expected = _recursive_splitter(oracle_count, cells, tol)
        except EPLocationError:
            with pytest.raises(EPLocationError):
                ep_locator._locate_transitions(counts, cells, tol)
            return
        records = ep_locator._locate_transitions(counts, cells, tol)
        assert sorted((r.gamma, r.bracket_width) for r in records) == sorted(expected)
        assert all(r.order == 2 and r.method == "pair-count-bisection" for r in records)
        # one counter call per round, holding that round's midpoints
        assert [sorted(r) for r in rounds] == [sorted(levels[k]) for k in sorted(levels)]
        assert list(levels) == list(range(1, len(levels) + 1))

    def test_locate_eps_counts_once_per_round(self, monkeypatch):
        calls = []
        original = ep_locator._pair_count_fn

        def counter(*args):
            counts = original(*args)

            def traced(gammas):
                calls.append(len(gammas))
                return counts(gammas)

            return traced

        monkeypatch.setattr(ep_locator, "_pair_count_fn", counter)
        recs = locate_eps(11, 1.0, 0.1 / 11)
        assert len(recs) == 6
        # the 512-point scan, then one call per round holding every open cell
        assert calls[0] == 512 and 1 <= max(calls[1:]) <= 6
        assert len(calls) < sum(calls[1:])


class TestLocateEps:
    def test_n11_census(self):
        recs = locate_eps(11, 1.0, 0.1 / 11)
        assert len(recs) == 6
        assert sum(1 for r in recs if r.gamma < 1.0) == 4
        assert sum(1 for r in recs if r.gamma > 1.0) == 2
        assert all(r.order == 2 and r.method == "pair-count-bisection" for r in recs)
        assert all(r.bracket_width <= 1e-9 for r in recs)
        assert [r.gamma for r in recs] == sorted(r.gamma for r in recs)

    def test_small_c_eps_match_a_high_precision_count(self):
        # README map, c = 0.004: bisecting an mpmath pair count (40 digits,
        # |Im| > 1e-18) puts EPs 1 and 2 here
        recs = locate_eps(11, 1, 0.004)
        assert abs(recs[1].gamma - 0.896504557944086) <= 2e-9
        assert abs(recs[2].gamma - 0.940720888885327) <= 2e-9

    def test_n2_limits_to_mother_ep(self):
        # as c -> 0 the single second-order EP approaches gamma = v
        for c in (1e-5, 1e-8):
            recs = locate_eps(2, 1.0, c, gamma_range=(0.0, 2.0))
            assert len(recs) == 1
            assert abs(recs[0].gamma - 1.0) < 2e-3

    def test_coarse_cell_resolved_by_splitting(self, monkeypatch):
        # a 2-point scan leaves all six transitions in one cell; positions
        # agree with the fine scan within the threshold-noise band (the
        # bracket is 1e-9 but the count flips inside a ~1e-6 noise window)
        fine = locate_eps(11, 1.0, 0.1 / 11)
        monkeypatch.setattr(ep_locator, "_COARSE_POINTS", 2)
        coarse = locate_eps(11, 1.0, 0.1 / 11)
        assert len(coarse) == 6
        for a, b in zip(fine, coarse):
            assert abs(a.gamma - b.gamma) <= 2e-6

    def test_refinement_limit_errors(self, monkeypatch):
        monkeypatch.setattr(ep_locator, "_COARSE_POINTS", 2)
        monkeypatch.setattr(ep_locator, "_MAX_SPLITS", 1)
        with pytest.raises(EPLocationError):
            locate_eps(11, 1.0, 0.1 / 11)


class TestEPMap:
    def test_n11_curves(self):
        grid = np.geomspace(0.05 / 11, 80.0 / 11, 6)
        emap = ep_map(11, 1.0, grid)
        assert all(len(recs) == 6 for recs in emap.records)
        # all but the top curve decrease toward gamma = 0 at large c
        for index in range(5):
            curve = [recs[index].gamma for recs in emap.records]
            assert curve[0] > curve[-1]
        top = [recs[5].gamma for recs in emap.records]
        assert top[-1] > top[0]
        assert top[-1] < 6.5  # heading toward the v (N+1)/2 = 6 asymptote

    def test_monotone_shrinkage_of_first_ep(self):
        # the exact-PT region shrinks with interaction strength; below the
        # classification resolution (gamma ~ 1e-3) the measured position is
        # a detection floor rather than the true EP, so only require it to
        # stay tiny there
        grid = np.geomspace(0.1 / 11, 80.0 / 11, 6)
        emap = ep_map(11, 1.0, grid)
        first = [recs[0].gamma for recs in emap.records]
        for a, b in zip(first, first[1:]):
            assert b < a or b < 1e-3
        assert first[0] > 0.7 and first[-1] < 1e-3

    def test_single_c_equals_locate(self):
        emap = ep_map(11, 1.0, [0.1 / 11])
        direct = locate_eps(11, 1.0, 0.1 / 11)
        assert [r.gamma for r in emap.records[0]] == [r.gamma for r in direct]

    def test_positive_grid_required(self):
        with pytest.raises(ValueError):
            ep_map(5, 1.0, [0.0, 0.1])
        with pytest.raises(UsageError):
            ep_map(5, 1.0, [0.1, -0.1])


class TestMotherEP:
    @pytest.mark.parametrize("N,v", [(1, 1), (5, 1), (5, 2), (11, 1)])
    def test_passes(self, N, v):
        mother_ep_check(N, v)  # raises NilpotencyError on a violation

    @pytest.mark.parametrize("N", range(1, 9))
    def test_jordan_structure_agrees_with_powers(self, N, composed):
        # the charpoly decision on the built H against H^(N+1) and H^N of the
        # composed H by exact matmul, at the mother EP and off it (gamma != v,
        # with and without c)
        for gamma, c in ((1, 0), (rat("1/2"), 0), (1, rat("1/7"))):
            params = ModelParams(particles=N, gamma=gamma, v=1, c=c)
            H = composed(params)
            expected = (is_zero(H.power(N + 1)), not is_zero(H.power(N)))
            tri = build_generalized_hamiltonian(params, "monomial")
            assert ep_locator._jordan_structure(tri) == expected
            assert expected == ((True, True) if (gamma, c) == (1, 0) else (False, True))
        # reducible and nilpotent: the off-diagonal test says H^N != 0 is unproven
        zero = OperatorMatrix.exact_zeros(N + 1)
        tri = ExactTridiagonal(1, [[(0, 0)]] * (N + 1), [[(0, 0)]] * N)
        assert ep_locator._jordan_structure(tri) == (True, False) == (
            is_zero(zero.power(N + 1)), not is_zero(zero.power(N)))


class TestSquareRootScaling:
    def test_splitting_grows_as_square_root(self):
        # just above the first EP only one pair exists; its width must obey
        # the square-root law (a diabolical point would scale linearly)
        recs = locate_eps(11, 1.0, 0.1 / 11)
        g1 = recs[0].gamma
        from epspectra import spectra

        deltas = np.geomspace(1e-6, 1e-3, 7)
        widths = []
        for d in deltas:
            H = build_generalized_hamiltonian(
                ModelParams(particles=11, gamma=g1 + d, v=1.0, c=0.1 / 11), "orthonormal"
            )
            widths.append(np.abs(spectra.eigenvalues(H.array).imag).max())
        slope = np.polyfit(np.log(deltas), np.log(widths), 1)[0]
        assert abs(slope - 0.5) <= 0.05


class TestStrongCoupling:
    def test_odd_n_defect_pair_and_asymptote(self):
        preds = strong_coupling_predictions(11, 1.0, 2.0)
        halves = [p for p in preds if abs(abs(p.m_z) - 0.5) < 1e-12]
        assert len(halves) == 2
        assert all(p.gamma_inf == pytest.approx(6.0) for p in halves)
        assert all(abs(p.e1.imag) < 1e-12 for p in halves)  # real below the asymptote
        others = [p for p in preds if abs(abs(p.m_z) - 0.5) >= 1e-12]
        assert all(p.e1.real == 0 for p in others)
        assert all(p.gamma_inf is None for p in others)

    def test_even_n_no_real_pair(self):
        preds = strong_coupling_predictions(10, 1.0, 1.0)
        assert all(p.gamma_inf is None for p in preds)
        assert all(p.e1.real == 0 for p in preds)  # purely imaginary corrections
        zero_state = [p for p in preds if p.m_z == 0]
        assert len(zero_state) == 1 and zero_state[0].e1 == 0

    def test_gamma_zero_real_corrections(self):
        preds = strong_coupling_predictions(7, 1.0, 0.0)
        assert all(abs(p.e1.imag) < 1e-12 for p in preds)

    def test_validation_n11(self):
        report = strong_coupling_validation(11, 1.0, 2.0, 200.0)
        assert report.passed
        assert len(report.levels) == 12

    def test_validation_zero_state(self):
        report = strong_coupling_validation(10, 1.0, 1.0, 200.0)
        assert report.passed
        zero_levels = [lv for lv in report.levels if lv[0] == 0]
        assert zero_levels and all(err <= bound for _, _, err, bound in zero_levels)

    def test_v_zero_exact(self):
        report = strong_coupling_validation(6, 0.0, 1.3, 50.0)
        assert all(err <= 1e-10 for _, _, err, _ in report.levels)
