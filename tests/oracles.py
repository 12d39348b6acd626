"""Test-only oracles: float angular-momentum operators, parity, and an exact zero test.

The package builds the float Hamiltonian directly (``HamiltonianFamily``)
and exact operators only in the monomial basis; these reference builders
compose the orthonormal-basis operators entry by entry, independently.
"""

import numpy as np


def ladder(rep, which):
    """Orthonormal L_+ or L_-: <l,m+-1| L_+- |l,m> = sqrt((l -+ m)(l +- m + 1))."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    dim = rep.dim
    A = np.zeros((dim, dim), dtype=complex)
    l = rep.particles / 2.0
    for n in range(dim):
        m = n - l
        if which == "plus" and n + 1 < dim:
            A[n + 1, n] = np.sqrt((l - m) * (l + m + 1))
        if which == "minus" and n - 1 >= 0:
            A[n - 1, n] = np.sqrt((l + m) * (l - m + 1))
    return A


def cartesian(rep, axis):
    """Orthonormal L_x = (L_+ + L_-)/2, L_y = (L_+ - L_-)/(2i), L_z = diag(m)."""
    if axis == "z":
        m = np.arange(rep.dim) - rep.particles / 2.0
        return np.diag(m.astype(complex))
    lp, lm = ladder(rep, "plus"), ladder(rep, "minus")
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
