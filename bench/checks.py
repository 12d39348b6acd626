"""Correctness checks and accuracy figures for the outputs of one pass.

Every job's output is checked; a failed check is a failed job. Accuracy is
reported rather than gated, because a fixed tolerance would flag rounding
near exceptional points even at N=11:

* ``krein_residual_max``: over every ``spectrum`` row, the optimal-match
  distance between the eigenvalues and their complex conjugates, divided
  by max(1, max|H|). PT symmetry makes it 0 in exact arithmetic.
* ``eig_err_max``: the largest optimal-match distance, in units of v,
  between ``spectrum`` rows and the roots of the exact characteristic
  polynomial at 80 digits, at fixed checkpoint rows of each grid. The
  polynomial is built here from the model's tridiagonal form with mpmath,
  independently of the package, and its roots are found by Aberth
  iteration started from the dense eigenvalues.
* ``ep_unconfirmed``: reported EPs whose exact-route pair count does not
  change by exactly one across gamma +- w, w = min(1e-6, 0.1 gamma).
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import mpmath
import numpy as np

from epspectra import ep_locator
from epspectra.newton_polygon import predict_ring_counts
from epspectra.operators import ModelParams, build_generalized_hamiltonian
from epspectra.spectra import ClassificationError, optimal_match_distance

REF_DPS = 80
CHECK_GAMMA = 0.83  # the row nearest this gamma is always a checkpoint
CHECKPOINT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

# sha256 of the text output of the exact ``charpoly`` jobs at the seed
# commit; exact arithmetic, so any change is a failure.
CHARPOLY_SHA256 = {
    ("charpoly", "-N", "5", "--gamma", "1"):
        "b9483c164c922f67c89b78db19063287aaad874e6e8faedc94130907d5a9e82a",
    ("charpoly", "-N", "5", "--gamma", "1", "--c", "0.02"):
        "e88b1ac3924061600a5e576a89abbfe59d7160793fa4cae0bfde0746335a2644",
}


class CheckFailure(Exception):
    pass


def _opt(argv, flag, default=None):
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
    return default


def _particles(argv):
    return int(_opt(argv, "-N") or _opt(argv, "--particles"))


def _exact_float(text):
    return float(Fraction(text))


def _range(text):
    parts = text.split(":")
    return _exact_float(parts[0]), _exact_float(parts[1]), int(parts[2])


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailure(f"header {lines[0] if lines else None!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _sweep_table(text, header, particles):
    """Parse a sweep CSV into (params, eigenvalue array of shape (points, N+1))."""
    rows = _csv_rows(text, header)
    width = particles + 1
    if not rows or len(rows) % width:
        raise CheckFailure(f"{len(rows)} rows is not a multiple of N+1={width}")
    params, values = [], []
    for start in range(0, len(rows), width):
        block = rows[start:start + width]
        if [int(r[1]) for r in block] != list(range(width)):
            raise CheckFailure(f"row {start + 1}: branches are not 0..{particles}")
        if len({r[0] for r in block}) != 1:
            raise CheckFailure(f"row {start + 1}: parameter changes within one point")
        params.append(float(block[0][0]))
        values.append([complex(float(r[2]), float(r[3])) for r in block])
    params = np.array(params)
    values = np.array(values)
    if not (np.all(np.isfinite(params)) and np.all(np.isfinite(values))):
        raise CheckFailure("non-finite value in output")
    return params, values


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def max_abs_h(particles, gamma, v, c):
    """max|H_ij| of the orthonormal-basis Hamiltonian, as the EP locator scales it."""
    params = ModelParams(particles=particles, gamma=float(gamma), v=float(v), c=float(c))
    return build_generalized_hamiltonian(params, "orthonormal").max_abs()


# -- the reference spectrum, built independently of the package ----------------


def _charpoly_mp(particles, gamma, v, c, k=2):
    """Monic characteristic polynomial (ascending) by the tridiagonal continuant."""
    half = mpmath.mpf(particles) / 2
    g, vv, cc = mpmath.mpf(gamma), mpmath.mpf(v), mpmath.mpf(c)
    diag = [mpmath.mpc(2 * cc * (n - half) ** k, -2 * g * (n - half)) for n in range(particles + 1)]
    prev, cur = [mpmath.mpc(1)], [-diag[0], mpmath.mpc(1)]
    for j in range(1, particles + 1):
        m = j - 1 - half
        link = vv**2 * (half - m) * (half + m + 1)
        nxt = [mpmath.mpc(0)] * (len(cur) + 1)
        for i, coeff in enumerate(cur):
            nxt[i + 1] += coeff
            nxt[i] -= coeff * diag[j]
        for i, coeff in enumerate(prev):
            nxt[i] -= coeff * link
        prev, cur = cur, nxt
    return cur


def _aberth(ascending, starts, max_iter=400):
    """All roots of a monic mpmath polynomial by Aberth-Ehrlich iteration."""
    n = len(ascending) - 1
    desc = ascending[::-1]
    ddesc = [desc[i] * (n - i) for i in range(n)]
    # distinct starting points: Aberth divides by pairwise differences
    z = [mpmath.mpc(complex(s)) + mpmath.mpc(1e-7 * (i + 1), 1e-7 * (i + 2))
         for i, s in enumerate(starts)]
    eps = mpmath.mpf(10) ** (-REF_DPS // 2)
    for _ in range(max_iter):
        largest = 0
        for i in range(n):
            zi = z[i]
            p, dp = desc[0], ddesc[0]
            for a in desc[1:]:
                p = p * zi + a
            for a in ddesc[1:]:
                dp = dp * zi + a
            if p == 0:
                continue
            ratio = p / dp
            repulsion = mpmath.fsum(1 / (zi - z[j]) for j in range(n) if j != i)
            step = ratio / (1 - ratio * repulsion)
            z[i] = zi - step
            largest = max(largest, abs(step) / max(1, abs(z[i])))
        if largest < eps:
            return np.array([complex(x) for x in z])
    roots = mpmath.polyroots(desc, maxsteps=2000, extraprec=2 * REF_DPS)
    return np.array([complex(x) for x in roots])


def reference_spectrum(particles, gamma, v, c, starts):
    with mpmath.workdps(REF_DPS):
        return _aberth(_charpoly_mp(particles, gamma, v, c), starts)


class ReferenceCache:
    """Reference spectra on disk, keyed by the exact float parameters."""

    def __init__(self, path):
        self.path = path
        self.data = {}
        if path and os.path.exists(path):
            with open(path) as fh:
                self.data = json.load(fh)
        self.dirty = False

    def get(self, particles, gamma, v, c, starts):
        key = f"{particles}|{float(gamma).hex()}|{float(v).hex()}|{float(c).hex()}|{REF_DPS}"
        if key not in self.data:
            roots = reference_spectrum(particles, gamma, v, c, starts)
            self.data[key] = [[z.real, z.imag] for z in roots]
            self.dirty = True
        return np.array([complex(re, im) for re, im in self.data[key]])

    def save(self):
        if self.path and self.dirty:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.data, fh)
            os.replace(tmp, self.path)


# -- per-command checks --------------------------------------------------------


def _check_spectrum(argv, text, quality, refs):
    n = _particles(argv)
    v = _exact_float(_opt(argv, "--v", "1"))
    c = _exact_float(_opt(argv, "--c", "0"))
    lo, hi, steps = _range(_opt(argv, "--gamma"))
    gammas, values = _sweep_table(text, "param,branch,re,im", n)
    if len(gammas) != steps:
        raise CheckFailure(f"{len(gammas)} grid points, expected {steps}")
    if not (_close(gammas[0], lo) and _close(gammas[-1], hi)):
        raise CheckFailure(f"grid ends {gammas[0]}, {gammas[-1]} != {lo}, {hi}")
    krein = max(
        optimal_match_distance(z, np.conj(z)) / max(1.0, max_abs_h(n, g, v, c))
        for g, z in zip(gammas, values)
    )
    rows = {round(f * (steps - 1)) for f in CHECKPOINT_FRACTIONS}
    rows.add(int(np.argmin(np.abs(gammas - CHECK_GAMMA))))
    err = max(
        optimal_match_distance(values[i], refs.get(n, gammas[i], v, c, values[i])) / abs(v)
        for i in sorted(rows)
    )
    label = f"N={n}"
    quality["krein_residual_max"] = max(quality.get("krein_residual_max", 0.0), krein)
    quality["eig_err_max"] = max(quality.get("eig_err_max", 0.0), err)
    quality.setdefault("krein_residual_by_job", {})[label] = krein
    quality.setdefault("eig_err_by_job", {})[label] = err


def _check_trajectory(argv, text, quality, refs):
    n = _particles(argv)
    lo, hi, steps = _range(_opt(argv, "--c"))
    cs, _ = _sweep_table(text, "c,branch,re,im", n)
    if len(cs) < steps:
        raise CheckFailure(f"{len(cs)} points, fewer than the {steps} grid points")
    if np.any(np.diff(cs) <= 0):
        raise CheckFailure("points are not strictly ascending")
    if not (_close(cs[0], lo) and _close(cs[-1], hi)):
        raise CheckFailure(f"grid ends {cs[0]}, {cs[-1]} != {lo}, {hi}")


def _exact_count(particles, gamma, v, c):
    """Conjugate pairs by the EP locator's exact fallback, at its tolerance."""
    tol = 1e-7 * max(1.0, max_abs_h(particles, gamma, v, c))
    return ep_locator._exact_count(particles, gamma, v, c, tol)


def _ep_confirmed(particles, gamma, v, c):
    w = min(1e-6, 0.1 * gamma)
    try:
        below = _exact_count(particles, gamma - w, v, c)
        above = _exact_count(particles, gamma + w, v, c)
    except ClassificationError:
        return False
    return abs(above - below) == 1


def _check_ep_map(argv, text, quality, refs):
    n = _particles(argv)
    v = _exact_float(_opt(argv, "--v", "1"))
    lo, hi, steps = _range(_opt(argv, "--c"))
    gamma_max = v * (n + 3) / 2.0
    rows = _csv_rows(text, "c,index,gamma_tilde,order,method")
    by_c = {}
    for r in rows:
        if len(r) != 5 or r[3] != "2":
            raise CheckFailure(f"malformed EP row {','.join(r)!r}")
        by_c.setdefault(float(r[0]), []).append((int(r[1]), float(r[2])))
    cs = sorted(by_c)
    if not cs:
        raise CheckFailure("no EPs reported")
    if len(cs) > steps or cs[0] < lo * (1 - 1e-12) or cs[-1] > hi * (1 + 1e-12):
        raise CheckFailure(f"c values outside the grid {lo}:{hi}:{steps}")
    unconfirmed = total = 0
    for c in cs:
        eps = by_c[c]
        if [i for i, _ in eps] != list(range(len(eps))):
            raise CheckFailure(f"c={c}: indices are not 0..{len(eps) - 1}")
        gammas = [g for _, g in eps]
        if gammas != sorted(gammas):
            raise CheckFailure(f"c={c}: EPs are not sorted in gamma")
        if not all(0.0 <= g <= gamma_max for g in gammas):
            raise CheckFailure(f"c={c}: EP outside the gamma range [0, {gamma_max}]")
        for g in gammas:
            total += 1
            unconfirmed += not _ep_confirmed(n, g, v, c)
    quality["eps_reported"] = quality.get("eps_reported", 0) + total
    quality["ep_unconfirmed"] = quality.get("ep_unconfirmed", 0) + unconfirmed


def _check_verify(argv, text, quality, refs):
    only = _opt(argv, "--only")
    count = len(only.split(",")) if only else 12
    last = text.rstrip("\n").splitlines()[-1] if text.strip() else ""
    if last != f"ALL CRITERIA PASSED ({count}/{count})":
        raise CheckFailure(f"verify reported {last!r}")


def _check_charpoly(argv, text, quality, refs):
    digest = hashlib.sha256(text.encode()).hexdigest()
    expected = CHARPOLY_SHA256.get(tuple(argv))
    if expected is None:
        raise CheckFailure("no recorded output for this charpoly job")
    if digest != expected:
        raise CheckFailure("charpoly output differs from the recorded exact output")


def _check_newton(argv, text, quality, refs):
    pred = predict_ring_counts(_particles(argv), int(_opt(argv, "--pert-power", "2")))
    last = text.rstrip("\n").splitlines()[-1]
    _, sep, observed_text = last.partition("observed sizes ")
    if not sep:
        raise CheckFailure(f"no ring-law line in newton output: {last!r}")
    observed = {int(s): int(m) for s, m in
                (item.split(":") for item in observed_text.strip("{}").split(",") if item)}
    others = sum(s * m for s, m in observed.items() if s != pred.ring_size)
    if observed.get(pred.ring_size, 0) != pred.ring_count or others != pred.remainder:
        raise CheckFailure(
            f"observed rings {observed}, ring law gives {pred.ring_count} of size "
            f"{pred.ring_size} + {pred.remainder}"
        )


CHECKS = {
    "spectrum": _check_spectrum,
    "trajectory": _check_trajectory,
    "ep-map": _check_ep_map,
    "verify": _check_verify,
    "charpoly": _check_charpoly,
    "newton": _check_newton,
}


def check_job(argv, code, text, quality, refs):
    """None if the job's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        CHECKS[argv[0]](argv, text, quality, refs)
    except CheckFailure as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None
