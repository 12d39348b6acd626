"""Exact rational polynomial arithmetic and characteristic polynomials.

Everything here is exact: rationals are arbitrary precision, complex
rationals keep real and imaginary parts separate, and polynomials in the
formal perturbation parameter store a sparse exponent -> coefficient map.
Characteristic polynomials are written in the paper's normalization

    chi(lambda) = -sum_k p_{M-k} lambda^k,   p_0 = -1,

and in the monic convention det(lambda I - M), whose lambda^{M-k}
coefficient is -p_k; both are exposed because sign mistakes between the
two forms are easy to make and painful to debug.

The production route is the O(M^2) determinant continuant on a tridiagonal
matrix; the model Hamiltonian is tridiagonal in the monomial basis for every
perturbation power. An ``ExactTridiagonal`` holds such a matrix H as the
Gaussian integers of D H, with D a common denominator: Python ints.
One core (``_continuant``) takes them.
Two routes leave it: ``charpoly_of_tridiagonal`` divides by D^k into exact
``ParamPoly`` coefficients, and ``monic_floats`` into correctly rounded
complex floats by one int true division each (the exact-route spectra of
``spectra``). A ``CharPoly`` stores only the p_k;
its traces s_k follow by Newton's identities. The Le Verrier-Faddeev
trace recursion

    p_k = -(1/k) * sum_{j=1..k} s_j p_{k-j},   s_k = tr(M^k),

costs M exact matrix products and is kept for the paper's own construction
(the rotated Hessenberg form at gamma = v, checked against the printed N=5
coefficients) and as the test oracle for the continuant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "rat",
    "rat_str",
    "GaussianRational",
    "ParamPoly",
    "CharPoly",
    "faddeev_leverrier",
    "ExactTridiagonal",
    "charpoly_of_tridiagonal",
    "monic_floats",
    "verify_trace_structure",
]

_ZERO = Rational(0)


# Fraction's string grammar of Python 3.11 (3.10 has no "_" in digits, 3.12 allows " / ")
_DIGITS = r"\d+(_\d+)*"
_NUMBER = re.compile(
    rf"\s*[-+]?(?=\.?\d)({_DIGITS})?(/{_DIGITS}|(\.({_DIGITS})?)?(e[-+]?{_DIGITS})?)\s*", re.I)


def rat(value):
    """Coerce to an exact rational.

    Accepts ints, rationals, strings like ``"-3/4"``, ``"0.125"``,
    ``"2.5e-3"`` or ``"1_000"`` (the exact number written: ``"0.1"`` is
    1/10, not the nearest double), and floats (converted exactly, i.e. as
    the dyadic rational the float is).
    """
    if type(value) is Rational:  # immutable: the value itself
        return value
    if isinstance(value, str):
        if not _NUMBER.fullmatch(value):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        value = value.replace("_", "")
    return Rational(value)


def rat_str(q) -> str:
    """``str(q)`` of a rational, for any size.

    ``fractions.Fraction`` formats its ints by ``str``, which refuses more
    than 4,300 digits by default (``sys.set_int_max_str_digits``); Decimal
    formats an int exactly, whatever its size.
    """
    num, den = (str(Decimal(int(x))) for x in (q.numerator, q.denominator))
    return num if den == "1" else f"{num}/{den}"


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Rational else rat(re)
        self.im = im if type(im) is Rational else rat(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return self.re == other and not self.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if not self.im and not other.im:  # hot path: real times real
            return GaussianRational(self.re * other.re, _ZERO)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, r):
        return GaussianRational(self.re * r, self.im * r)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def render(self):
        """Human-readable exact form, e.g. ``-4645/2`` or ``(1 + 3/2i)``."""
        if not self.im:
            return rat_str(self.re)
        if not self.re:
            return f"{rat_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"({rat_str(self.re)} {sign} {rat_str(abs(self.im))}i)"


class ParamPoly:
    """Sparse univariate polynomial in the formal perturbation parameter.

    Coefficients are GaussianRational; zero coefficients are never stored,
    so ``bool(p)`` is False exactly for the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def const(cls, value):
        g = value if isinstance(value, GaussianRational) else GaussianRational(value)
        p = cls.__new__(cls)
        p.coeffs = {0: g} if g else {}
        return p

    @classmethod
    def monomial(cls, exponent, value):
        g = value if isinstance(value, GaussianRational) else GaussianRational(value)
        p = cls.__new__(cls)
        p.coeffs = {int(exponent): g} if g else {}
        return p

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = ParamPoly.__new__(ParamPoly)
        p.coeffs = out
        return p

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = ParamPoly.__new__(ParamPoly)
        p.coeffs = {e: -c for e, c in self.coeffs.items()}
        return p

    def __mul__(self, other):
        out: dict[int, GaussianRational] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                s = out.get(e)
                s = prod if s is None else s + prod
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = ParamPoly.__new__(ParamPoly)
        p.coeffs = out
        return p

    def scale(self, g: GaussianRational):
        if not g:
            return ParamPoly()
        p = ParamPoly.__new__(ParamPoly)
        p.coeffs = {e: c * g for e, c in self.coeffs.items()}
        return p

    def shift(self, n: int):
        """Multiply by parameter**n."""
        p = ParamPoly.__new__(ParamPoly)
        p.coeffs = {e + n: c for e, c in self.coeffs.items()}
        return p

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def lowest_power(self):
        """Return (exponent, coefficient) of the lowest-order term.

        Raises ValueError on the zero polynomial; the Newton diagram treats
        that case as an absent point.
        """
        if not self.coeffs:
            raise ValueError("zero polynomial has no lowest power")
        a = min(self.coeffs)
        return a, self.coeffs[a]

    def render(self, symbol="c"):
        """Render as a sum of ``num/den * symbol^e`` terms, ascending in e."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = c.render()
            term = mag if e == 0 else f"{mag} * {symbol}^{e}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                text += " - " + term[1:]
            else:
                text += " + " + term
        return text

    def __repr__(self):
        return f"ParamPoly({self.render()})"


@dataclass
class CharPoly:
    """Characteristic polynomial with exact parameter-polynomial coefficients.

    ``paper_coeffs[k]`` is p_k in chi(lambda) = -sum_k p_{M-k} lambda^k with
    p_0 = -1, for k = 0..M.
    """

    paper_coeffs: list
    param: str = "c"

    def __post_init__(self):
        p = self.paper_coeffs
        if not p or p[0] != ParamPoly.const(GaussianRational(-1)):
            raise ValueError("paper normalization requires p_0 = -1")

    @property
    def dim(self) -> int:
        return len(self.paper_coeffs) - 1

    def monic_coefficients(self):
        """Coefficients of det(lambda I - M), ascending in lambda power."""
        M = self.dim
        return [-self.paper_coeffs[M - j] for j in range(M + 1)]

    def traces(self):
        """s_k = tr(M^k) for k = 1..M (index 0 unused), by Newton's identities.

        s_k = k p_k + sum_{j=1..k-1} s_j p_{k-j}.
        """
        M = self.dim
        p = self.paper_coeffs
        s = [None] * (M + 1)
        for k in range(1, M + 1):
            acc = p[k].scale(GaussianRational(k))
            for j in range(1, k):
                acc = acc + s[j] * p[k - j]
            s[k] = acc
        return s

    def render_paper(self):
        return [f"p[{k}] = {p.render(self.param)}" for k, p in enumerate(self.paper_coeffs)]

    def render_monic(self):
        coeffs = self.monic_coefficients()
        return [
            f"lambda^{j}: {coeffs[j].render(self.param)}" for j in range(self.dim, -1, -1)
        ]


def faddeev_leverrier(matrix) -> CharPoly:
    """Exact Le Verrier-Faddeev characteristic polynomial of an exact matrix.

    Traces of exact matrix powers feed the recursion
    p_k = -(1/k) sum_{j<=k} s_j p_{k-j}. Only exact operator matrices are
    accepted; float matrices must go through the numerical eigensolver.
    """
    if getattr(matrix, "entry_kind", None) != "exact":
        raise TypeError("faddeev_leverrier requires an exact operator matrix")
    M = matrix.dim
    s = [None] * (M + 1)
    p = [ParamPoly.const(GaussianRational(-1))]
    power = matrix
    for k in range(1, M + 1):
        s[k] = power.trace()
        if k < M:
            power = power.matmul(matrix)
        acc = ParamPoly()
        for j in range(1, k + 1):
            acc = acc + s[j] * p[k - j]
        p.append(acc.scale(GaussianRational(Rational(-1) / Rational(k))))
    return CharPoly(p, param=matrix.param or "c")


def _continuant(diag, offs):
    """Coefficients of det(lambda I - A) for a tridiagonal A over Gaussian-integer polynomials.

    ``diag[j]`` is A[j][j] and ``offs[j]`` the product A[j][j+1] A[j+1][j],
    each a list over powers of the formal parameter of (re, im) int pairs.
    Returns rows[e][i], the (re, im) coefficient of parameter^e lambda^i.
    Each D_j = (lambda - a_j) D_{j-1} - b_{j-1} D_{j-2} is one Gaussian
    integer, its value at lambda = 2^s and parameter = 2^(s (M+1))
    (Kronecker substitution), and the base-2^s digits of D_M are its
    coefficients. 2^(s-1) exceeds them all: so does the same continuant on
    the entries' absolute sums at lambda = parameter = 1.
    """
    M = len(diag)
    offs = [[]] + list(offs)
    bound, prev = 1, 0
    for a, b in zip(diag, offs):
        bound, prev = (1 + sum(abs(x) + abs(y) for x, y in a)) * bound \
            + sum(abs(x) + abs(y) for x, y in b) * prev, bound
    s = -(-(bound.bit_length() + 1) // 8) * 8  # whole bytes, for the digits
    shift = s * (M + 1)

    def times(poly, x, y):  # poly times the packed x + i y
        re = im = 0
        for e, (p, q) in enumerate(poly):
            re += (p * x - q * y) << shift * e
            im += (p * y + q * x) << shift * e
        return re, im

    pr, pi, cr, ci = 0, 0, 1, 0
    for a, b in zip(diag, offs):
        (ar, ai), (br, bi) = times(a, cr, ci), times(b, pr, pi)
        pr, pi, cr, ci = cr, ci, (cr << s) - ar - br, (ci << s) - ai - bi
    n = max(abs(cr).bit_length(), abs(ci).bit_length()) // s + 1
    n += -n % (M + 1)
    re, im = _signed_digits(cr, s, n), _signed_digits(ci, s, n)
    return [list(zip(re[q:q + M + 1], im[q:q + M + 1])) for q in range(0, n, M + 1)]


def _signed_digits(x: int, s: int, n: int) -> list:
    """The n digits d_q of x = sum_q d_q 2^(s q), each |d_q| < 2^(s-1), lowest first.

    With s a multiple of 8, each d_q + 2^(s-1) >= 0 is a slice of one byte string.
    """
    w, half = s // 8, 1 << (s - 1)
    raw = (x + int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")).to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]


@dataclass(frozen=True)
class ExactTridiagonal:
    """An exact tridiagonal matrix H, as the Gaussian integers of D H that ``_continuant`` takes.

    ``diag[j]`` holds the (re, im) int pairs of D H[j][j], one per power of
    the formal parameter ``param`` (a single pair when H does not depend on
    it), and ``offs[j]`` those of the off-diagonal product
    D^2 H[j][j+1] H[j+1][j]. ``param`` names the parameter in rendered
    polynomials; the builder leaves it "c", and a caller whose formal
    parameter is another renames it (``dataclasses.replace``).
    ``entry_kind`` marks exact entries, as on ``operators.OperatorMatrix``.
    """

    D: int
    diag: list
    offs: list
    param: str = "c"

    entry_kind = "exact"

    @property
    def dim(self) -> int:
        return len(self.diag)


def monic_floats(tri: ExactTridiagonal) -> list:
    """Monic coefficients (ascending) of a parameter-free H.

    The lambda^i coefficient of H is that of D H over D^(M-i): one int true
    division per part, correctly rounded, so the bits of ``float`` of the
    exact rational.
    """
    rows = _continuant(tri.diag, tri.offs)
    if len(rows) > 1:
        raise ValueError(f"H depends on the formal parameter {tri.param!r}: "
                         f"give a value of {tri.param}")
    M, D = tri.dim, tri.D
    return [complex(re / D ** (M - i), im / D ** (M - i)) for i, (re, im) in enumerate(rows[0])]


def charpoly_of_tridiagonal(tri: ExactTridiagonal) -> CharPoly:
    """Characteristic polynomial of an exact tridiagonal matrix.

    The determinant continuant (``_continuant``) of A = D H, with O(M^2)
    coefficient products against the O(M^4) of the trace recursion, and
    one division at the end: p_k(H) = p_k(A) / D^k. Faddeev-LeVerrier is
    its test oracle.
    """
    rows = _continuant(tri.diag, tri.offs)
    M, D = tri.dim, tri.D
    p = [{e: row[M - k] for e, row in enumerate(rows) if row[M - k] != (0, 0)}
         for k in range(M + 1)]  # p_k = -(lambda^{M-k} coefficient) / D^k
    return CharPoly([ParamPoly({e: GaussianRational(Rational(-re, D**k), Rational(-im, D**k))
                                for e, (re, im) in pk.items()}) for k, pk in enumerate(p)],
                    param=tri.param)


def verify_trace_structure(charpoly: CharPoly) -> None:
    """Assert the k - 2j exponent law on every s_k and p_k.

    For the quadratic perturbation at the unfolding point, every monomial
    of s_k and p_k must carry the parameter power k - 2j with
    0 <= j <= k//3. A violation signals an arithmetic bug in the exact
    pipeline, so it is a hard AssertionError, not a soft report; it is
    raised explicitly so the check also runs under ``python -O``.
    """
    traces = charpoly.traces()
    for k in range(1, charpoly.dim + 1):
        allowed = {k - 2 * j for j in range(k // 3 + 1)}
        for label, poly in (("p", charpoly.paper_coeffs[k]), ("s", traces[k])):
            for e in sorted(poly.coeffs):
                if e not in allowed:
                    raise AssertionError(
                        f"{label}_{k} contains parameter power {e}; "
                        f"allowed powers are {sorted(allowed)}"
                    )
