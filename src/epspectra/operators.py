"""Angular momentum operators and Bose-Hubbard Hamiltonian matrices.

The N-particle two-mode system maps onto angular momentum l = N/2 acting on
an (N+1)-dimensional space. Two bases are provided:

* ``orthonormal``: the standard |l, m> basis with square-root ladder
  entries; matrices are floating complex and the Hamiltonian is complex
  symmetric there.
* ``monomial``: the xi^n realization (L_z = xi d/dxi - l, L_+ =
  -xi^2 d/dxi + 2 l xi, L_- = d/dxi) whose ladder entries are integers, so
  exact rational arithmetic is possible. Characteristic polynomials agree
  between the bases (diagonal similarity), which is what routes all exact
  work through the monomial basis.

Rows and columns are indexed by n = l + m ascending, i.e. n = 0 is m = -l.
This mirrors the m-descending convention sometimes seen in the literature;
the two orderings are related by the parity permutation and share spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact_poly import (
    GR_ONE,
    GaussianRational,
    ParamPoly,
    Rational,
    rat,
)

__all__ = [
    "AngularMomentumRep",
    "ModelParams",
    "OperatorMatrix",
    "HamiltonianFamily",
    "UsageError",
    "build_ladder",
    "build_cartesian",
    "build_generalized_hamiltonian",
    "build_rotated_hamiltonian",
    "parity_matrix",
]


class UsageError(ValueError):
    """Invalid model parameters (degenerate or unsupported input)."""


@dataclass(frozen=True)
class AngularMomentumRep:
    """Angular momentum representation for N particles: l = N/2, dim = N+1."""

    particles: int

    def __post_init__(self):
        if self.particles < 1:
            raise UsageError("need at least one particle (dim 1 is trivial)")

    @property
    def l(self):
        return Rational(self.particles) / 2

    @property
    def dim(self) -> int:
        return self.particles + 1

    def m_values(self):
        """m = n - l for n = 0..N, ascending."""
        return [Rational(n) - self.l for n in range(self.dim)]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: H = -2i gamma L_z + 2 v L_x + 2 c L_z^pert_power.

    gamma, v, c may be floats or exact rationals; c may also be None, which
    means "keep c as a formal parameter" (exact basis only).
    """

    particles: int
    gamma: object = 0
    v: object = 1
    c: object = 0
    pert_power: int = 2

    def __post_init__(self):
        if self.particles < 1:
            raise UsageError("need at least one particle")
        if self.pert_power < 1:
            raise UsageError("perturbation power must be >= 1")
        if self.v == 0:
            raise UsageError("v = 0 leaves no tunneling scale; spectra need v != 0")

    @property
    def rep(self) -> AngularMomentumRep:
        return AngularMomentumRep(self.particles)


class OperatorMatrix:
    """Dense square matrix, either floating complex or exact.

    Exact entries are ParamPoly values in one formal parameter (possibly of
    degree zero). Instances are immutable by convention; all operations
    return new matrices. A float Hamiltonian from
    ``build_generalized_hamiltonian`` carries its ``HamiltonianFamily`` as
    ``family``, so a sweep over gamma or c builds once; other matrices have
    ``family = None``.
    """

    def __init__(self, entries, entry_kind, param=None):
        self.entry_kind = entry_kind
        self.param = param
        self.family = None
        if entry_kind == "float":
            self.array = np.asarray(entries, dtype=complex)
            if self.array.ndim != 2 or self.array.shape[0] != self.array.shape[1]:
                raise ValueError("operator matrices are square")
            self.dim = self.array.shape[0]
            self.entries = None
        elif entry_kind == "exact":
            self.entries = entries
            self.dim = len(entries)
            if any(len(row) != self.dim for row in entries):
                raise ValueError("operator matrices are square")
            self.array = None
        else:
            raise ValueError(f"unknown entry kind {entry_kind!r}")

    # -- exact algebra ----------------------------------------------------

    @classmethod
    def exact_zeros(cls, dim, param=None):
        rows = [[ParamPoly() for _ in range(dim)] for _ in range(dim)]
        return cls(rows, "exact", param)

    def _require_exact(self):
        if self.entry_kind != "exact":
            raise TypeError("operation requires an exact matrix")

    def matmul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_exact()
        other._require_exact()
        n = self.dim
        A, B = self.entries, other.entries
        C = [[ParamPoly() for _ in range(n)] for _ in range(n)]
        for j in range(n):
            col = [(k, B[k][j]) for k in range(n) if B[k][j]]
            if not col:
                continue
            for i in range(n):
                row = A[i]
                acc = ParamPoly()
                for k, b in col:
                    a = row[k]
                    if a:
                        acc = acc + a * b
                C[i][j] = acc
        return OperatorMatrix(C, "exact", self.param or other.param)

    def power(self, k: int) -> "OperatorMatrix":
        self._require_exact()
        if k < 1:
            raise ValueError("matrix power needs k >= 1")
        out = self
        for _ in range(k - 1):
            out = out.matmul(self)
        return out

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_exact()
        C = [
            [self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return OperatorMatrix(C, "exact", self.param or other.param)

    def scale(self, g: GaussianRational) -> "OperatorMatrix":
        self._require_exact()
        C = [[self.entries[i][j].scale(g) for j in range(self.dim)] for i in range(self.dim)]
        return OperatorMatrix(C, "exact", self.param)

    def shift_param(self, n: int) -> "OperatorMatrix":
        """Multiply every entry by parameter**n."""
        self._require_exact()
        C = [[self.entries[i][j].shift(n) for j in range(self.dim)] for i in range(self.dim)]
        return OperatorMatrix(C, "exact", self.param)

    def trace(self) -> ParamPoly:
        self._require_exact()
        acc = ParamPoly()
        for i in range(self.dim):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        self._require_exact()
        return not any(e for row in self.entries for e in row)

    # -- conversions --------------------------------------------------------

    def to_complex(self) -> np.ndarray:
        if self.entry_kind == "float":
            return self.array.copy()
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.dim):
            for j in range(self.dim):
                p = self.entries[i][j]
                if p:
                    out[i, j] = complex(p)
        return out

    def max_abs(self) -> float:
        arr = self.to_complex() if self.entry_kind == "exact" else self.array
        return float(np.abs(arr).max()) if arr.size else 0.0

    def is_tridiagonal(self) -> bool:
        self._require_exact()
        return all(
            not self.entries[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
            if abs(i - j) > 1
        )


# -- ladder and Cartesian operators -----------------------------------------


def build_ladder(rep: AngularMomentumRep, which: str, basis: str = "orthonormal") -> OperatorMatrix:
    """L_+ or L_- in the requested basis.

    Orthonormal: <l,m+-1| L_+- |l,m> = sqrt((l -+ m)(l +- m + 1)), irrational
    in general, floating entries. Monomial (exact): L_+ xi^n = (2l-n)
    xi^{n+1} and L_- xi^n = n xi^{n-1}.
    """
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    N = rep.particles
    dim = rep.dim
    if basis == "orthonormal":
        A = np.zeros((dim, dim), dtype=complex)
        l = N / 2.0
        for n in range(dim):
            m = n - l
            if which == "plus" and n + 1 < dim:
                A[n + 1, n] = np.sqrt((l - m) * (l + m + 1))
            if which == "minus" and n - 1 >= 0:
                A[n - 1, n] = np.sqrt((l + m) * (l - m + 1))
        return OperatorMatrix(A, "float")
    if basis == "monomial":
        M = OperatorMatrix.exact_zeros(dim)
        for n in range(dim):
            if which == "plus" and n + 1 < dim:
                M.entries[n + 1][n] = ParamPoly.const(GaussianRational(N - n))
            if which == "minus" and n - 1 >= 0:
                M.entries[n - 1][n] = ParamPoly.const(GaussianRational(n))
        return M
    raise ValueError("basis must be 'orthonormal' or 'monomial'")


def build_cartesian(rep: AngularMomentumRep, axis: str, basis: str = "orthonormal") -> OperatorMatrix:
    """L_x = (L_+ + L_-)/2, L_y = (L_+ - L_-)/(2i), L_z = diag(m)."""
    if axis == "z":
        if basis == "orthonormal":
            m = np.arange(rep.dim) - rep.particles / 2.0
            return OperatorMatrix(np.diag(m.astype(complex)), "float")
        M = OperatorMatrix.exact_zeros(rep.dim)
        for n, m in enumerate(rep.m_values()):
            M.entries[n][n] = ParamPoly.const(GaussianRational(m))
        return M
    lp = build_ladder(rep, "plus", basis)
    lm = build_ladder(rep, "minus", basis)
    if basis == "orthonormal":
        if axis == "x":
            return OperatorMatrix((lp.array + lm.array) / 2.0, "float")
        if axis == "y":
            return OperatorMatrix((lp.array - lm.array) / 2j, "float")
    else:
        half = GaussianRational(Rational(1, 2))
        if axis == "x":
            return lp.add(lm).scale(half)
        if axis == "y":
            # 1/(2i) = -i/2
            return lp.add(lm.scale(GaussianRational(-1))).scale(
                GaussianRational(0, Rational(-1, 2))
            )
    raise ValueError("axis must be 'x', 'y' or 'z'")


# -- Hamiltonians -------------------------------------------------------------


class HamiltonianFamily:
    """Orthonormal-basis H = -2i gamma L_z + 2 v L_x + 2 c L_z^k along gamma or c.

    2 v L_x, L_z and L_z^k are built once per (N, v, k); ``stack`` writes
    only the diagonal -2i gamma L_z + 2 c L_z^k, so every matrix costs one
    copy plus a diagonal. ``params`` fixes the parameter that is not varied.
    """

    def __init__(self, params: ModelParams):
        if params.c is None:
            raise UsageError("formal c requires the monomial (exact) basis")
        N = params.particles
        self.params = params
        self.dim = N + 1
        self.gamma, self.c = float(params.gamma), float(params.c)
        # L_+ + L_-: <n+1|L_+|n> = <n|L_-|n+1> = sqrt((N - n)(n + 1))
        n = np.arange(N)
        ladders = np.zeros((self.dim, self.dim), dtype=complex)
        ladders[n + 1, n] = ladders[n, n + 1] = np.sqrt((N - n) * (n + 1.0))
        self.tunneling = 2.0 * float(params.v) * (ladders / 2.0)
        self.lz = np.arange(self.dim) - N / 2.0
        self.lz_k = self.lz**params.pert_power

    def stack(self, vary: str, values) -> np.ndarray:
        """H at each value of ``vary`` ("gamma" or "c"): shape (len(values), N+1, N+1)."""
        x = np.asarray(values, dtype=float)[:, None]
        if vary == "gamma":
            diag = -2j * x * self.lz + 2.0 * self.c * self.lz_k
        elif vary == "c":
            diag = -2j * self.gamma * self.lz + 2.0 * x * self.lz_k
        else:
            raise ValueError("vary must be 'gamma' or 'c'")
        out = np.empty((len(x), self.dim, self.dim), dtype=complex)
        out[:] = self.tunneling
        d = np.arange(self.dim)
        out[:, d, d] += diag
        return out


def build_generalized_hamiltonian(params: ModelParams, basis: str = "orthonormal") -> OperatorMatrix:
    """H = -2i gamma L_z + 2 v L_x + 2 c L_z^k for any k >= 1.

    The orthonormal matrix is the one-point stack of its
    ``HamiltonianFamily``, which it carries as ``family``.
    """
    if basis == "orthonormal":
        family = HamiltonianFamily(params)
        H = OperatorMatrix(family.stack("gamma", [family.gamma])[0], "float")
        H.family = family
        return H
    if basis != "monomial":
        raise ValueError("basis must be 'orthonormal' or 'monomial'")
    rep = params.rep
    k = params.pert_power
    gam = rat(params.gamma)
    v = rat(params.v)
    N = rep.particles
    H = OperatorMatrix.exact_zeros(rep.dim, "c" if params.c is None else None)
    for n, m in enumerate(rep.m_values()):
        # 2 v L_x = v (L_+ + L_-): L_+ xi^n = (N - n) xi^{n+1}, L_- xi^n = n xi^{n-1}
        if n < N:
            H.entries[n + 1][n] = ParamPoly.const(GaussianRational(v * (N - n)))
        if n > 0:
            H.entries[n - 1][n] = ParamPoly.const(GaussianRational(v * n))
        diag = ParamPoly.const(GaussianRational(0, -2 * gam * m))
        pert_mag = GaussianRational(2 * m**k)
        if params.c is None:
            diag = diag + ParamPoly.monomial(1, pert_mag)
        else:
            diag = diag + ParamPoly.const(pert_mag.scale(rat(params.c)))
        H.entries[n][n] = diag
    return H


def build_rotated_hamiltonian(params: ModelParams) -> OperatorMatrix:
    """Rotated Hamiltonian at the EP locus gamma = v, exact monomial basis.

    For pert_power k >= 2 the rotation of H = 2v(L_x - i L_z) + 2c L_z^k
    gives H~ = 2 v L_- + 2c(-i/2)^k (L_+ - L_-)^k, which for k = 2 is
    2 v L_- - (c/2)(L_+ - L_-)^2. For k = 1 the perturbation parameter is
    Delta = gamma - v and H~ = 2 v L_- - Delta (L_+ - L_-).

    The perturbation term occupies offsets -k..k of matching parity plus the
    tunneling superdiagonal, an upper (k+1)-Hessenberg matrix; the formal
    parameter stays symbolic. This is the paper's construction; the
    production route to its characteristic polynomial is the tridiagonal
    H (``newton_polygon.unfolding_charpoly``).
    """
    rep = params.rep
    k = params.pert_power
    v = rat(params.v)
    lm = build_ladder(rep, "minus", "monomial")
    lp = build_ladder(rep, "plus", "monomial")
    diff = lp.add(lm.scale(GaussianRational(-1)))
    pert = diff.power(k)
    if k == 1:
        coeff = GaussianRational(-1)
    else:
        # 2 * (-i/2)^k, with (-i)^k cycling 1, -i, -1, i
        unit = [
            GaussianRational(1),
            GaussianRational(0, -1),
            GaussianRational(-1),
            GaussianRational(0, 1),
        ][k % 4]
        coeff = unit.scale(Rational(2) / Rational(2) ** k)
    H = lm.scale(GaussianRational(2 * v)).add(pert.scale(coeff).shift_param(1))
    H.param = "Delta" if k == 1 else "c"
    return H


def parity_matrix(dim: int, kind: str = "float") -> OperatorMatrix:
    """The standard involutory permutation (anti-diagonal ones); P^2 = I."""
    if kind == "float":
        P = np.zeros((dim, dim), dtype=complex)
        P[np.arange(dim), dim - 1 - np.arange(dim)] = 1.0
        return OperatorMatrix(P, "float")
    M = OperatorMatrix.exact_zeros(dim)
    for i in range(dim):
        M.entries[i][dim - 1 - i] = ParamPoly.const(GR_ONE)
    return M
