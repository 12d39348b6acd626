"""The model Hamiltonian composed from the ladder operators: the exact tests' oracle."""

import pytest

from epspectra.exact_poly import GaussianRational, ParamPoly
from epspectra.operators import OperatorMatrix
from oracles import build_cartesian


def _times(M, x):
    """M times a number or a ``ParamPoly``, entry by entry."""
    p = x if isinstance(x, ParamPoly) else ParamPoly.const(x)
    return OperatorMatrix([[e * p for e in row] for row in M.entries])


def _composed_hamiltonian(params):
    """-2i gamma L_z + 2 v L_x + 2 c L_z^k as a dense exact ``OperatorMatrix``.

    Built from the monomial ``build_cartesian`` and matrix algebra only,
    so it is independent of the package's tridiagonal builder. gamma and c
    may be ``ParamPoly`` values, and the matrix's parameter is then "c".
    """
    N, k = params.particles, params.pert_power
    lz = build_cartesian(N, "z")
    lx = build_cartesian(N, "x")
    H = _times(lz.scale(GaussianRational(0, -2)), params.gamma).add(
        _times(lx.scale(GaussianRational(2)), params.v)).add(
        _times(lz.power(k).scale(GaussianRational(2)), params.c))
    formal = any(isinstance(x, ParamPoly) for x in (params.gamma, params.c))
    H.param = "c" if formal else None
    return H


@pytest.fixture(scope="session")
def composed():
    """``composed(params)``: the dense exact H at ``params``."""
    return _composed_hamiltonian
