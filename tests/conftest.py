"""The model Hamiltonian composed from the ladder operators: the exact tests' oracle."""

import pytest

from epspectra.exact_poly import GaussianRational, rat
from epspectra.operators import build_cartesian


def _composed_hamiltonian(params):
    """-2i gamma L_z + 2 v L_x + 2 c L_z^k as a dense exact ``OperatorMatrix``.

    Built from the monomial ``build_cartesian`` and matrix algebra only,
    so it is independent of the package's tridiagonal builder. With c None
    the c term is formal and the matrix's parameter is "c".
    """
    rep, k = params.rep, params.pert_power
    lz = build_cartesian(rep, "z")
    lx = build_cartesian(rep, "x")
    pert = lz.power(k).scale(GaussianRational(2))
    pert = pert.shift_param(1) if params.c is None else pert.scale(GaussianRational(rat(params.c)))
    H = lz.scale(GaussianRational(0, -2 * rat(params.gamma))).add(
        lx.scale(GaussianRational(2 * rat(params.v)))).add(pert)
    H.param = "c" if params.c is None else None
    return H


@pytest.fixture(scope="session")
def composed():
    """``composed(params)``: the dense exact H at ``params``."""
    return _composed_hamiltonian
