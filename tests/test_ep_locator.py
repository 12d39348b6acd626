"""Exceptional point location, the mother EP, and strong-coupling formulas."""

import math

import numpy as np
import pytest

from epspectra import ep_locator
from epspectra.ep_locator import (
    EPLocationError,
    ep_map,
    locate_eps,
    mother_ep_check,
    strong_coupling_predictions,
    strong_coupling_validation,
)
from epspectra.exact_poly import rat
from epspectra.operators import (
    ModelParams,
    OperatorMatrix,
    UsageError,
    build_generalized_hamiltonian,
)


def _count_at(gamma, particles, v, c):
    """The one-point pair count, from a fresh counter."""
    return ep_locator._pair_count_fn(particles, v, c)(gamma)


class TestPairCount:
    def test_unbroken_region(self):
        assert _count_at(0.5, 11, 1.0, 0.0) == 0

    def test_fully_broken_c0(self):
        # N odd: no n = 0 level, so all twelve values pair up
        assert _count_at(1.5, 11, 1.0, 0.0) == 6

    def test_partially_broken_with_interaction(self):
        assert _count_at(1.0, 11, 1.0, 0.1 / 11) == 4


class TestStackedScan:
    # the coarse scan counts in stacked eigensolves; each count must equal
    # the one-point count, including the exact routes

    @staticmethod
    def _record_exact(monkeypatch):
        seen = []
        original = ep_locator._exact_count

        def exact_count(particles, gamma, v, c, tol):
            seen.append(gamma)
            return original(particles, gamma, v, c, tol)

        monkeypatch.setattr(ep_locator, "_exact_count", exact_count)
        return seen

    @pytest.mark.parametrize("c", [0.1 / 11, 0.0])
    def test_scan_grid_matches_point_counts(self, c, monkeypatch):
        seen = self._record_exact(monkeypatch)
        grid = np.linspace(0.0, 7.0, 512).tolist()
        stacked = ep_locator._pair_count_fn(11, 1.0, c).many(grid)
        assert len(seen) == (512 if c == 0.0 else 0)  # c = 0 counts exactly only
        assert stacked == [_count_at(g, 11, 1.0, c) for g in grid]

    def test_classification_fallback_inside_a_stack(self, monkeypatch):
        # README grid, c = 0.004: the dense pairing fails at this gamma, met
        # while bisecting the first EP, so the exact route counts it
        seen = self._record_exact(monkeypatch)
        gamma = 0.9407173052226027
        grid = sorted(np.linspace(0.0, 7.0, 512).tolist() + [gamma])
        stacked = ep_locator._pair_count_fn(11, 1.0, 0.004).many(grid)
        assert seen == [gamma]
        assert stacked == [_count_at(g, 11, 1.0, 0.004) for g in grid]


class TestBisectionTolerance:
    @staticmethod
    def _refused_before_any_count(monkeypatch, **kwargs):
        def no_counting(*args, **kw):
            raise AssertionError("counted before checking the arguments")

        monkeypatch.setattr(ep_locator, "_pair_count_fn", no_counting)
        with pytest.raises(UsageError):
            locate_eps(2, 1.0, 0.1, **kwargs)
        with pytest.raises(UsageError):
            ep_map(2, 1.0, [0.1], **kwargs)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_refused_before_any_count(self, tol, monkeypatch):
        self._refused_before_any_count(monkeypatch, tol=tol)

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

        def count(gamma):
            calls.append(gamma)
            assert len(calls) < 200, "bisection did not stop"
            return int(gamma > 0.3)

        (rec,) = ep_locator._locate_transitions(
            count, 0.0, 1.0, 0, 1, 1e-300)
        # the bracket is one float step wide, around the jump at 0.3
        assert rec.bracket_width == np.spacing(0.3)
        assert abs(rec.gamma - 0.3) <= np.spacing(0.3)


class TestLocateEps:
    def test_n11_census(self):
        recs = locate_eps(11, 1.0, 0.1 / 11)
        assert len(recs) == 6
        assert sum(1 for r in recs if r.gamma < 1.0) == 4
        assert sum(1 for r in recs if r.gamma > 1.0) == 2
        assert all(r.order == 2 and r.method == "pair-count-bisection" for r in recs)
        assert all(r.bracket_width <= 1e-9 for r in recs)
        assert [r.gamma for r in recs] == sorted(r.gamma for r in recs)

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
        report = mother_ep_check(N, v)
        assert report.passed
        assert report.max_modulus_charpoly_route <= report.modulus_tolerance

    @pytest.mark.parametrize("N", range(1, 9))
    def test_jordan_structure_agrees_with_powers(self, N):
        # the charpoly decision against H^(N+1) and H^N by exact matmul, at
        # the mother EP and off it (gamma != v, with and without c)
        for gamma, c in ((1, 0), (rat("1/2"), 0), (1, rat("1/7"))):
            H = build_generalized_hamiltonian(ModelParams(particles=N, gamma=gamma, v=1, c=c),
                                              "monomial")
            expected = (H.power(N + 1).is_zero(), not H.power(N).is_zero())
            assert ep_locator._jordan_structure(H) == expected
            assert expected == ((True, True) if (gamma, c) == (1, 0) else (False, True))
        # reducible and nilpotent: the off-diagonal test says H^N != 0 is unproven
        zero = OperatorMatrix.exact_zeros(N + 1)
        assert ep_locator._jordan_structure(zero) == (True, False) == (
            zero.power(N + 1).is_zero(), not zero.power(N).is_zero())

    def test_dense_route_reported(self):
        report = mother_ep_check(11, 1)
        # the dense solver cannot resolve an (N+1)-fold zero; its moduli are
        # reported for comparison and are far above the charpoly route
        assert report.max_modulus_dense_route > report.max_modulus_charpoly_route


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
            widths.append(np.abs(spectra.eigenvalues(H).imag).max())
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
