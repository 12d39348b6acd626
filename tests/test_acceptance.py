"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (the same report the ``epspectra verify`` command prints).
"""

import numpy as np
import pytest

from epspectra import acceptance, spectra

_RESULTS = {}


def _result(key):
    if key not in _RESULTS:
        _RESULTS[key] = acceptance.run(keys=[key])[0]
    return _RESULTS[key]


@pytest.mark.parametrize(
    "key", [key for key, _, _ in acceptance.CRITERIA], ids=[k for k, _, _ in acceptance.CRITERIA]
)
def test_criterion(key):
    result = _result(key)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.key}: {result.description} -- {result.detail}")
    assert result.passed, f"{result.key}: {result.detail}"


def test_report_runs_clean_and_deterministic():
    lines_a, lines_b = [], []
    ok_a = acceptance.main_report(keys=["n5-charpoly", "newton-n5"], write=lines_a.append)
    ok_b = acceptance.main_report(keys=["n5-charpoly", "newton-n5"], write=lines_b.append)
    assert ok_a and ok_b
    assert lines_a == lines_b


def test_zero_tolerance_self_check():
    # with tolerances zeroed out the floating criteria must fail loudly
    results = acceptance.run(keys=["c0-spectrum", "puiseux-scaling"], tol_scale=0.0)
    assert not any(r.passed for r in results)


def test_classification_fails_on_a_pairing_residual(monkeypatch):
    # moving one pair's lower value off its conjugate keeps the count
    # balanced; the criterion's own pairing check must still fail it
    original = spectra.exact_spectra

    def exact_spectra(params, vary, values):
        rows = original(params, vary, values)
        row = rows[0]
        lower = np.flatnonzero(row.imag < -1e-3)[0]
        row[lower] += 1e-6
        return rows

    monkeypatch.setattr(spectra, "exact_spectra", exact_spectra)
    passed, detail = acceptance.criterion_classification()
    assert not passed and detail.startswith("N=11: conjugate pairing residual")
