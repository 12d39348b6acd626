"""Angular momentum operators and Bose-Hubbard Hamiltonian matrices.

The N-particle two-mode system maps onto angular momentum l = N/2 acting on
an (N+1)-dimensional space. Two bases are provided:

* ``orthonormal``: the standard |l, m> basis with square-root ladder
  entries, where the Hamiltonian, a ``HamiltonianFamily`` of complex
  ndarrays, is complex symmetric. For even k its stacks are the real PT
  form of H, which the dense solver takes as real.
* ``monomial``: the xi^n realization (L_z = xi d/dxi - l, L_+ =
  -xi^2 d/dxi + 2 l xi, L_- = d/dxi) whose ladder entries are integers, so
  exact rational arithmetic is possible. Characteristic polynomials agree
  between the bases (diagonal similarity), which is what routes all exact
  work through the monomial basis. H is tridiagonal there, and its one
  exact form is an ``ExactTridiagonal``: the Gaussian integers of its
  three diagonals over one denominator. The ladder operators are dense
  exact ``OperatorMatrix`` values, kept for the paper's rotated
  construction (``build_rotated_hamiltonian``); the tests compose H from
  them, independently of its builder.

Rows and columns are indexed by n = l + m ascending, i.e. n = 0 is m = -l.
This mirrors the m-descending convention sometimes seen in the literature;
the two orderings are related by the parity permutation and share spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .exact_poly import (
    ExactTridiagonal,
    GaussianRational,
    ParamPoly,
    Rational,
    rat,
)

__all__ = [
    "ModelParams",
    "OperatorMatrix",
    "HamiltonianFamily",
    "UsageError",
    "build_ladder",
    "build_generalized_hamiltonian",
    "build_rotated_hamiltonian",
]


class UsageError(ValueError):
    """Invalid model parameters (degenerate or unsupported input)."""


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: H = -2i gamma L_z + 2 v L_x + 2 c L_z^pert_power.

    gamma, v, c may be floats or exact rationals. gamma and c may also be
    ``ParamPoly`` values in one formal parameter t, the same t when both
    are: c = t is formal c, gamma = v + t the k = 1 parameter Delta. Those
    build in the monomial basis only, as an ``ExactTridiagonal`` H whose
    diagonal is a polynomial in t.
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


class OperatorMatrix:
    """Dense square matrix of exact entries.

    Entries are ParamPoly values in one formal parameter (possibly of degree
    zero). Instances are immutable by convention; all operations return new
    matrices. Floating matrices are plain complex ndarrays.
    """

    entry_kind = "exact"

    def __init__(self, entries, param=None):
        self.param = param
        self.entries = entries
        self.dim = len(entries)
        if any(len(row) != self.dim for row in entries):
            raise ValueError("operator matrices are square")

    # -- exact algebra ----------------------------------------------------

    @classmethod
    def exact_zeros(cls, dim, param=None):
        return cls([[ParamPoly() for _ in range(dim)] for _ in range(dim)], param)

    def matmul(self, other: "OperatorMatrix") -> "OperatorMatrix":
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
        return OperatorMatrix(C, self.param or other.param)

    def power(self, k: int) -> "OperatorMatrix":
        if k < 1:
            raise ValueError("matrix power needs k >= 1")
        out = self
        for _ in range(k - 1):
            out = out.matmul(self)
        return out

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        C = [
            [self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return OperatorMatrix(C, self.param or other.param)

    def scale(self, g: GaussianRational) -> "OperatorMatrix":
        C = [[self.entries[i][j].scale(g) for j in range(self.dim)] for i in range(self.dim)]
        return OperatorMatrix(C, self.param)

    def shift_param(self, n: int) -> "OperatorMatrix":
        """Multiply every entry by parameter**n."""
        C = [[self.entries[i][j].shift(n) for j in range(self.dim)] for i in range(self.dim)]
        return OperatorMatrix(C, self.param)

    def trace(self) -> ParamPoly:
        acc = ParamPoly()
        for i in range(self.dim):
            acc = acc + self.entries[i][i]
        return acc


# -- ladder operators ---------------------------------------------------------


def build_ladder(particles: int, which: str) -> OperatorMatrix:
    """L_+ or L_- in the monomial basis: L_+ xi^n = (N-n) xi^{n+1}, L_- xi^n = n xi^{n-1}."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    dim = particles + 1
    M = OperatorMatrix.exact_zeros(dim)
    for n in range(dim):
        if which == "plus" and n + 1 < dim:
            M.entries[n + 1][n] = ParamPoly.const(GaussianRational(particles - n))
        if which == "minus" and n - 1 >= 0:
            M.entries[n - 1][n] = ParamPoly.const(GaussianRational(n))
    return M


# -- Hamiltonians -------------------------------------------------------------


class HamiltonianFamily:
    """Orthonormal-basis H = -2i gamma L_z + 2 v L_x + 2 c L_z^k along gamma or c.

    2 v L_x, L_z and L_z^k are built once per (N, v, k); ``stack`` writes
    only the entries that depend on the varied parameter, so every matrix
    costs one copy plus those entries. ``params`` fixes the parameter that
    is not varied, and ``array`` is the complex H at ``params``.

    For even k, H is PT-symmetric, and ``stack`` gives its real PT form
    R = T^H H T (pseudo-Hermiticity; Mostafazadeh, J. Math. Phys. 43, 3944
    (2002)). For n < N/2 the unitary T has column u_n = (e_n + e_{N-n})/sqrt2
    at n and w_n = i (e_n - e_{N-n})/sqrt2 at N - n, and e_{N/2} at N/2 for
    even N. R keeps the index pattern of H: 2 c L_z^k on the diagonal,
    R[n, N-n] = 2 gamma m_n = -R[N-n, n] on the anti-diagonal, and the
    tunneling off the diagonal, except in the middle. There the coupling to
    e_{N/2} is sqrt2 times larger on the u side and zero on the w side for
    even N; for odd N, u and w of the middle pair decouple and carry +-v (N+1)/2
    on the diagonal. Odd k has no PT symmetry: ``stack`` gives H itself.

    Each stack copies a template built once per family, the tunneling of H
    or of R, and writes the diagonal and, for R, the anti-diagonal: the
    entries of the parameter that is not varied are computed once too.
    """

    def __init__(self, params: ModelParams):
        if isinstance(params.gamma, ParamPoly) or isinstance(params.c, ParamPoly):
            raise UsageError("a formal parameter requires the monomial (exact) basis")
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
        # an overflowing value leaves inf or nan in the matrix, which
        # ``spectra.eigenvalues`` reports with the point that produced it
        with np.errstate(over="ignore", invalid="ignore"):
            self.lz_k = self.lz**params.pert_power
        # |H| off the diagonal, the floor of every scale
        self._floor = max(1.0, float(np.abs(self.tunneling).max()))
        self._template = self.tunneling
        if params.pert_power % 2 == 0:
            # the tunneling in the PT basis; the middle pair (or e_{N/2}) differs
            R = self.tunneling.real.copy()
            h = self.dim // 2  # pairs n < N/2, the last one at h - 1 and N - h + 1
            t = R[h - 1, h]
            if N % 2:
                R[h - 1, h] = R[h, h - 1] = 0.0
                R[h - 1, h - 1], R[h, h] = t, -t
            else:
                R[h - 1, h] = R[h, h - 1] = np.sqrt(2.0) * t
                R[h, h + 1] = R[h + 1, h] = 0.0
            self._template = R
            # the anti-diagonal in flat indices, R[p, q] then R[q, p], and
            # its +-m_p: 2 gamma (-m_p) has the bits of -(2 gamma m_p)
            p = np.arange(h)
            q = N - p
            self._anti_at = np.concatenate([p * self.dim + q, q * self.dim + p])
            self._anti_lz = np.concatenate([self.lz[p], -self.lz[p]])
            with np.errstate(over="ignore", invalid="ignore"):
                self._fixed = {"gamma": self._real_diagonal(self.c),
                               "c": 2.0 * self.gamma * self._anti_lz}

    def _real_diagonal(self, c):
        # R's own diagonal is added, not written over: 2 c m^k may be -0.0
        return self._interaction(c) + self._template.diagonal()

    def stack(self, vary: str, values) -> np.ndarray:
        """H, or for even k its real PT form, at each value of ``vary`` ("gamma" or "c").

        Shape (len(values), N+1, N+1): float for even k, complex for odd k.
        """
        if vary not in ("gamma", "c"):
            raise ValueError("vary must be 'gamma' or 'c'")
        x = np.asarray(values, dtype=float)[:, None]
        dim = self.dim
        out = np.empty((len(x), dim, dim), dtype=self._template.dtype)
        out[:] = self._template
        flat = out.reshape(len(x), dim * dim)
        if out.dtype == complex:
            # += onto the zero diagonal, which turns a -0.0 part into +0.0
            flat[:, ::dim + 1] += self._diagonal(vary, x)
            return out
        with np.errstate(over="ignore", invalid="ignore"):
            if vary == "gamma":
                flat[:, ::dim + 1] = self._fixed["gamma"]
                flat[:, self._anti_at] = 2.0 * x * self._anti_lz
            else:
                flat[:, ::dim + 1] = self._real_diagonal(x)
                flat[:, self._anti_at] = self._fixed["c"]
        return out

    def _diagonal(self, vary, x, n=slice(None)):
        """-2i gamma m + 2 c m^k, the diagonal of the complex H at indices n."""
        gamma, c = (x, self.c) if vary == "gamma" else (self.gamma, x)
        with np.errstate(over="ignore", invalid="ignore"):
            return -2j * gamma * self.lz[n] + self._interaction(c, n)

    def _interaction(self, c, n=slice(None)):
        """2 c m^k at indices n, an exact zero where c is zero, though m^k overflowed."""
        # 0 inf is nan; a zero c takes only the sign of m^k, which np.sign
        # keeps, so a finite m^k gives the bits of 2 c m^k either way
        m_k = self.lz_k[n]
        return np.where(c == 0, 2.0 * c * np.sign(m_k), 2.0 * c * m_k)

    def scales(self, vary: str, values) -> np.ndarray:
        """max(1, max|H|) of the complex H at each value of ``vary``.

        Off the fixed tunneling, |H| peaks on the diagonal at n = 0, where
        |m| and |m^k| are largest.
        """
        corner = self._diagonal(vary, np.asarray(values, dtype=float), 0)
        return np.maximum(np.abs(corner), self._floor)

    @property
    def array(self) -> np.ndarray:
        H = self.tunneling.copy()
        H[np.diag_indices(self.dim)] += self._diagonal("gamma", self.gamma)
        return H

    def max_abs(self) -> float:
        return float(np.abs(self.array).max())


def _parts(x, shift: int) -> list:
    """(re, im) per power of a number or ParamPoly, as (numerator, denominator << shift) ints."""
    if isinstance(x, ParamPoly):
        gs = (x.coeffs.get(e, GaussianRational()) for e in range(max(x.degree, 0) + 1))
        return [tuple((int(q.numerator), int(q.denominator) << shift) for q in (g.re, g.im))
                for g in gs]
    x = rat(x)
    return [((int(x.numerator), int(x.denominator) << shift), (0, 1))]


def build_generalized_hamiltonian(params: ModelParams, basis: str = "orthonormal"):
    """H = -2i gamma L_z + 2 v L_x + 2 c L_z^k for any k >= 1.

    The orthonormal basis gives the ``HamiltonianFamily`` at ``params``, so
    a sweep over gamma or c builds once. The monomial basis gives the exact
    H as an ``ExactTridiagonal``, the one place that writes its entries and
    the one place that knows a parameter may be formal: with m = n - N/2,
    H[n][n] = -2i gamma m + 2 c m^k, one (re, im) pair per power of the
    formal parameter, and 2 v L_x = v (L_+ + L_-) gives H[n+1][n] =
    v (N - n) and H[n][n+1] = v (n + 1). D is the lcm of the denominators
    of v, of gamma's coefficients and of 2^(k-1) times c's.
    """
    if basis == "orthonormal":
        return HamiltonianFamily(params)
    if basis != "monomial":
        raise ValueError("basis must be 'orthonormal' or 'monomial'")
    N, k, v = params.particles, params.pert_power, rat(params.v)
    gamma, c = _parts(params.gamma, 0), _parts(params.c, k - 1)
    D = math.lcm(int(v.denominator), *[d for z in gamma + c for _, d in z])
    # per power e of the parameter, with gamma_e = a + ib, c_e = x + iy and h = 2 m:
    # D H[n][n] = D (-i gamma_e h + c_e h^k / 2^(k-1)), one column of (re, im) each
    columns = []
    for ((a, ad), (b, bd)), ((x, xd), (y, yd)) in zip_longest(gamma, c, fillvalue=((0, 1),) * 2):
        a, b, x, y = a * (D // ad), b * (D // bd), x * (D // xd), y * (D // yd)
        columns.append([(b * h + x * (hk := h**k), y * hk - a * h) for h in range(-N, N + 1, 2)])
    t2 = (int(v.numerator) * (D // int(v.denominator))) ** 2
    return ExactTridiagonal(D, list(map(list, zip(*columns))),
                            [[(t2 * (n + 1) * (N - n), 0)] for n in range(N)])


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
    k = params.pert_power
    v = rat(params.v)
    lm = build_ladder(params.particles, "minus")
    lp = build_ladder(params.particles, "plus")
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
