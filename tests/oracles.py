"""Test-only oracles: angular-momentum operators, parity, an exact zero test,
the parameter rescaling of a characteristic polynomial, and the
strong-coupling formulas.

The package builds the float Hamiltonian directly (``HamiltonianFamily``)
and the exact one as a tridiagonal (``build_generalized_hamiltonian``);
these reference builders compose the operators entry by entry,
independently.
"""

from dataclasses import dataclass

import numpy as np

from epspectra import spectra
from epspectra._roots import min_cost_assignment
from epspectra.exact_poly import CharPoly, GaussianRational, ParamPoly, Rational
from epspectra.operators import (
    ModelParams,
    OperatorMatrix,
    build_generalized_hamiltonian,
    build_ladder,
)


def ladder(particles, which):
    """Orthonormal L_+ or L_-: <l,m+-1| L_+- |l,m> = sqrt((l -+ m)(l +- m + 1)), l = N/2."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    dim = particles + 1
    A = np.zeros((dim, dim), dtype=complex)
    l = particles / 2.0
    for n in range(dim):
        m = n - l
        if which == "plus" and n + 1 < dim:
            A[n + 1, n] = np.sqrt((l - m) * (l + m + 1))
        if which == "minus" and n - 1 >= 0:
            A[n - 1, n] = np.sqrt((l + m) * (l - m + 1))
    return A


def cartesian(particles, axis):
    """Orthonormal L_x = (L_+ + L_-)/2, L_y = (L_+ - L_-)/(2i), L_z = diag(m)."""
    if axis == "z":
        m = np.arange(particles + 1) - particles / 2.0
        return np.diag(m.astype(complex))
    lp, lm = ladder(particles, "plus"), ladder(particles, "minus")
    if axis == "x":
        return (lp + lm) / 2.0
    if axis == "y":
        return (lp - lm) / 2j
    raise ValueError("axis must be 'x', 'y' or 'z'")


def parity_matrix(dim):
    """The standard involutory permutation (anti-diagonal ones), complex; P^2 = I."""
    P = np.zeros((dim, dim), dtype=complex)
    P[np.arange(dim), dim - 1 - np.arange(dim)] = 1.0
    return P


def is_zero(matrix):
    """Whether every entry of an exact ``OperatorMatrix`` is the zero polynomial."""
    return not any(e for row in matrix.entries for e in row)


def build_cartesian(particles: int, axis: str) -> OperatorMatrix:
    """Monomial-basis L_x = (L_+ + L_-)/2, L_y = (L_+ - L_-)/(2i), L_z = diag(n - N/2)."""
    if axis == "z":
        M = OperatorMatrix.exact_zeros(particles + 1)
        for n in range(particles + 1):
            M.entries[n][n] = ParamPoly.const(GaussianRational(Rational(2 * n - particles, 2)))
        return M
    lp = build_ladder(particles, "plus")
    lm = build_ladder(particles, "minus")
    half = GaussianRational(Rational(1, 2))
    if axis == "x":
        return lp.add(lm).scale(half)
    if axis == "y":
        # 1/(2i) = -i/2
        return lp.add(lm.scale(GaussianRational(-1))).scale(GaussianRational(0, Rational(-1, 2)))
    raise ValueError("axis must be 'x', 'y' or 'z'")


def rescaled(cp: CharPoly, g, param=None) -> CharPoly:
    """The same polynomial in a new parameter t, where old parameter = g * t.

    The t^e coefficient of every p_k is the old one times g^e; ``param``
    renames the parameter.
    """
    g = g if isinstance(g, GaussianRational) else GaussianRational(g)
    p = []
    for q in cp.paper_coeffs:
        terms = {}
        for e, c in q.coeffs.items():
            for _ in range(e):
                c = c * g
            terms[e] = c
        p.append(ParamPoly(terms))
    return CharPoly(p, param or cp.param)


@dataclass(frozen=True)
class StrongCouplingPrediction:
    """First-order strong-interaction level: E ~ 2 c m_z^2 + E1."""

    m_z: float
    e1: complex
    gamma_inf: float = None


def strong_coupling_predictions(particles, v, gamma) -> list:
    """First-order corrections in the strong-interaction limit.

    The unperturbed levels 2 c m_z^2 are doubly degenerate in +-m_z. For
    |m_z| != 1/2 the degenerate perturbation matrix is diagonal and
    E1 = -2 i gamma m_z (the m_z = 0 state of even N stays unperturbed).
    For odd N the |m_z| = 1/2 pair mixes through the tunneling term:
    E1 = +- sqrt(v^2 ((N+1)/2)^2 - gamma^2), giving two second-order EPs
    with the asymptote gamma_inf = v (N+1)/2.
    """
    v = float(v)
    gamma = float(gamma)
    N = particles
    out = []
    for n in range(N + 1):
        m_z = n - N / 2.0
        if abs(abs(m_z) - 0.5) < 1e-12:
            half_sum = v * (N + 1) / 2.0
            disc = half_sum**2 - gamma**2
            root = np.sqrt(disc) if disc >= 0 else 1j * np.sqrt(-disc)
            # the +- assignment to the two mixed states is conventional
            e1 = root if m_z > 0 else -root
            out.append(StrongCouplingPrediction(m_z=m_z, e1=complex(e1), gamma_inf=half_sum))
        else:
            out.append(StrongCouplingPrediction(m_z=m_z, e1=complex(0, -2.0 * gamma * m_z)))
    return out


@dataclass
class StrongCouplingReport:
    levels: list  # (expected, actual, error, bound), ascending in expected

    @property
    def passed(self) -> bool:
        return all(err <= bound for _, _, err, bound in self.levels)


def strong_coupling_validation(particles, v, gamma, c) -> StrongCouplingReport:
    """Compare the spectrum against E0 + E1 in the strong-coupling regime.

    The per-level bound is 5 (v N / c) max(1, |expected|): the first
    neglected order is quadratic in the small parameters over the 2c level
    spacing. Exact agreement at v = 0 (H is then diagonal).
    """
    v, gamma, c = float(v), float(gamma), float(c)
    if v == 0.0:
        # H is diagonal at v = 0; built directly to sidestep the v != 0 guard
        H = np.diag(
            [
                2.0 * c * (n - particles / 2.0) ** 2 - 2j * gamma * (n - particles / 2.0)
                for n in range(particles + 1)
            ]
        )
        actual = spectra.eigenvalues(H)
    else:
        params = ModelParams(particles=particles, gamma=gamma, v=v, c=c)
        actual = spectra.eigenvalues(build_generalized_hamiltonian(params, "orthonormal").array)
    predicted = np.array(
        [2.0 * c * p.m_z**2 + p.e1 for p in strong_coupling_predictions(particles, v, gamma)]
    )
    cols = min_cost_assignment(np.abs(actual[:, None] - predicted[None, :]))
    rel = 5.0 * (v * particles / c) if c else np.inf
    levels = []
    for i, j in enumerate(cols):
        expected = predicted[j]
        err = float(np.abs(actual[i] - expected))
        bound = rel * max(1.0, abs(expected))
        levels.append((complex(expected), complex(actual[i]), err, bound))
    return StrongCouplingReport(sorted(levels, key=lambda t: (t[0].real, t[0].imag)))
