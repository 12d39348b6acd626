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
matrix (``charpoly_of_tridiagonal``); the model Hamiltonian is tridiagonal
in the monomial basis for every perturbation power. The continuant clears
denominators first: with D the lcm of the entries' denominators, D H has
Gaussian-integer entries, so the recursion and its traces run on (re, im)
pairs of Python ints and divide by D^k once at the end. Its speed then
does not depend on which ``Rational`` backend is installed. The
Le Verrier-Faddeev trace recursion

    p_k = -(1/k) * sum_{j=1..k} s_j p_{k-j},   s_k = tr(M^k),

costs M exact matrix products and is kept for the paper's own construction
(the rotated Hessenberg form at gamma = v, checked against the printed N=5
coefficients) and as the test oracle for the continuant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "rat",
    "GaussianRational",
    "ParamPoly",
    "CharPoly",
    "faddeev_leverrier",
    "charpoly_of_tridiagonal",
    "verify_trace_structure",
    "TraceStructureReport",
]

_ZERO = Rational(0)
_ONE = Rational(1)


def rat(value, den=None):
    """Coerce to an exact rational.

    Accepts ints, rationals, strings like ``"-3/4"`` or ``"0.125"``, and
    floats (converted exactly, i.e. as the dyadic rational the float is).
    """
    if den is not None:
        return Rational(value) / Rational(den)
    if isinstance(value, str):
        s = value.strip()
        if "/" in s:
            num, d = s.split("/")
            return Rational(int(num)) / Rational(int(d))
        return parse_exact_decimal(s)
    if isinstance(value, float):
        from fractions import Fraction

        f = Fraction(value)  # exact binary expansion
        return Rational(f.numerator) / Rational(f.denominator)
    return Rational(value)


def parse_exact_decimal(text: str):
    """Parse a decimal string into the exact rational it denotes.

    ``"0.1"`` becomes 1/10 (not the nearest double). Exponent notation
    ``"2.5e-3"`` is supported.
    """
    s = text.strip().lower()
    exp = 0
    if "e" in s:
        s, e = s.split("e")
        exp = int(e)
    sign = 1
    if s.startswith(("+", "-")):
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    if "." in s:
        whole, frac = s.split(".")
    else:
        whole, frac = s, ""
    if not (whole + frac).isdigit() or (whole + frac) == "":
        raise ValueError(f"not a decimal literal: {text!r}")
    num = int(whole + frac) if whole + frac else 0
    den = 10 ** len(frac)
    value = Rational(sign * num) / Rational(den)
    if exp > 0:
        value *= Rational(10) ** exp
    elif exp < 0:
        value /= Rational(10) ** (-exp)
    return value


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is type(_ZERO) else rat(re)
        self.im = im if type(im) is type(_ZERO) else rat(im)

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

    def __truediv__(self, other):
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def scale(self, r):
        return GaussianRational(self.re * r, self.im * r)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def render(self):
        """Human-readable exact form, e.g. ``-4645/2`` or ``(1 + 3/2i)``."""
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}i)"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)


def _power(g: GaussianRational, n: int) -> GaussianRational:
    """g**n for n >= 0 by binary powering."""
    pw = GR_ONE
    while n:
        if n & 1:
            pw = pw * g
        g = g * g
        n >>= 1
    return pw


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
    def monomial(cls, exponent, value=GR_ONE):
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

    def is_real(self):
        return all(not c.im for c in self.coeffs.values())

    def substitute(self, value) -> GaussianRational:
        """Evaluate exactly at a rational (or GaussianRational) value."""
        g = value if isinstance(value, GaussianRational) else GaussianRational(value)
        acc = GR_ZERO
        for e, c in self.coeffs.items():
            acc = acc + (c * _power(g, e) if e else c)
        return acc

    def __complex__(self):
        if not self.coeffs:
            return 0j
        if set(self.coeffs) != {0}:
            raise ValueError("non-constant polynomial has no complex value")
        return complex(self.coeffs[0])

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
    p_0 = -1; ``traces[k]`` caches s_k = tr(M^k) (index 0 unused).
    """

    dim: int
    paper_coeffs: list
    traces: list
    param: str = "c"

    def __post_init__(self):
        if len(self.paper_coeffs) != self.dim + 1:
            raise ValueError("need p_0..p_M")
        p0 = self.paper_coeffs[0]
        if p0 != ParamPoly.const(GaussianRational(-1)):
            raise ValueError("paper normalization requires p_0 = -1")

    @classmethod
    def from_paper_coeffs(cls, paper_coeffs, param="c") -> "CharPoly":
        """CharPoly whose traces are filled in by Newton's identities."""
        cp = cls(dim=len(paper_coeffs) - 1, paper_coeffs=paper_coeffs,
                 traces=[None] * len(paper_coeffs), param=param)
        cp.traces = cp.newton_identity_traces()
        return cp

    def rescaled(self, g, param=None) -> "CharPoly":
        """The same polynomial in a new parameter t, where old parameter = g * t.

        The t^e coefficient of every p_k is the old c^e coefficient times
        g^e; ``param`` renames the parameter.
        """
        g = g if isinstance(g, GaussianRational) else GaussianRational(g)
        p = [ParamPoly({e: c * _power(g, e) for e, c in q.coeffs.items()})
             for q in self.paper_coeffs]
        return CharPoly.from_paper_coeffs(p, param or self.param)

    def monic_coefficients(self):
        """Coefficients of det(lambda I - M), ascending in lambda power."""
        M = self.dim
        return [-self.paper_coeffs[M - j] for j in range(M + 1)]

    def monic_at(self, value):
        """Monic coefficients (ascending) as complex numbers at a parameter value."""
        return [complex(p.substitute(value)) for p in self.monic_coefficients()]

    def evaluate_exact(self, lam: GaussianRational, value) -> GaussianRational:
        """chi(lam) in the monic convention, all arithmetic exact."""
        coeffs = self.monic_coefficients()
        acc = GR_ZERO
        for g in reversed(coeffs):
            acc = acc * lam + g.substitute(value)
        return acc

    def realness_check(self) -> bool:
        """True iff every coefficient of every p_k has zero imaginary part."""
        return all(p.is_real() for p in self.paper_coeffs)

    def newton_identity_traces(self):
        """Recompute s_k from the final p_k via Newton's identities.

        s_k = k p_k + sum_{j=1..k-1} s_j p_{k-j}; used as an exact
        cross-check of the cached traces.
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
    power = matrix
    for k in range(1, M + 1):
        s[k] = power.trace()
        if k < M:
            power = power.matmul(matrix)
    p = [None] * (M + 1)
    p[0] = ParamPoly.const(GaussianRational(-1))
    for k in range(1, M + 1):
        acc = ParamPoly()
        for j in range(1, k + 1):
            acc = acc + s[j] * p[k - j]
        p[k] = acc.scale(GaussianRational(Rational(-1) / Rational(k)))
    return CharPoly(dim=M, paper_coeffs=p, traces=s, param=matrix.param or "c")


def _add_product(acc: dict, p: dict, q: dict) -> None:
    """acc += p * q for exponent -> (re, im) Gaussian-integer polynomials."""
    for e1, (a, b) in p.items():
        for e2, (c, d) in q.items():
            e = e1 + e2
            s = acc.get(e)
            if s is None:
                acc[e] = (a * c - b * d, a * d + b * c)
            else:
                acc[e] = (s[0] + a * c - b * d, s[1] + a * d + b * c)


def _nonzero(acc: dict) -> dict:
    return {e: z for e, z in acc.items() if z[0] or z[1]}


def _scaled_integers(poly: ParamPoly, scale: int) -> dict:
    """scale * poly as exponent -> (re, im) ints; scale is a multiple of every denominator."""
    return {
        e: (int(g.re.numerator) * (scale // int(g.re.denominator)),
            int(g.im.numerator) * (scale // int(g.im.denominator)))
        for e, g in poly.coeffs.items()
    }


def _divided(poly: dict, den: int) -> ParamPoly:
    """The ParamPoly poly / den of a Gaussian-integer polynomial."""
    p = ParamPoly.__new__(ParamPoly)
    p.coeffs = {
        e: GaussianRational(Rational(re, den), Rational(im, den))
        for e, (re, im) in poly.items()
    }
    return p


def charpoly_of_tridiagonal(matrix) -> CharPoly:
    """Characteristic polynomial of an exact tridiagonal matrix.

    Uses the determinant continuant D_j = (lambda - a_j) D_{j-1} -
    b_{j-1} c_{j-1} D_{j-2}: O(M^2) parameter-polynomial products against
    the O(M^4) of the trace recursion. The arithmetic is in Gaussian
    integers: with D the lcm of every real and imaginary denominator of the
    diagonal a_j and the off-diagonal products b_j c_j, the matrix A = D H
    has diagonal D a_j and products D^2 b_j c_j, all Gaussian integers. The
    continuant of A and its traces (by Newton's identities) run over
    polynomials in (lambda, parameter) whose coefficients are (re, im)
    pairs of Python ints, and one division at the end gives
    p_k(H) = p_k(A) / D^k and s_k(H) = s_k(A) / D^k. Faddeev-LeVerrier is
    the test oracle for both.
    """
    if getattr(matrix, "entry_kind", None) != "exact":
        raise TypeError("charpoly_of_tridiagonal requires an exact operator matrix")
    if not matrix.is_tridiagonal():
        raise ValueError("matrix is not tridiagonal")
    M = matrix.dim
    E = matrix.entries
    diag = [E[j][j] for j in range(M)]
    offs = [E[j - 1][j] * E[j][j - 1] for j in range(1, M)]
    D = 1
    for poly in diag + offs:
        for g in poly.coeffs.values():
            D = math.lcm(D, int(g.re.denominator), int(g.im.denominator))
    # negated entries of A, so that each continuant step only adds products
    neg_a = [_scaled_integers(a, -D) for a in diag]
    neg_off = [_scaled_integers(off, -D * D) for off in offs]
    # d[i] is the lambda^i coefficient of D_j(lambda) = det(lambda I - A_j)
    one = {0: (1, 0)}
    d_prev = [one]
    d_cur = [neg_a[0], one]
    for j in range(1, M):
        nxt = [{}] + [dict(coeff) for coeff in d_cur]  # lambda * D_{j-1}
        for i, coeff in enumerate(d_cur):
            _add_product(nxt[i], coeff, neg_a[j])
        if neg_off[j - 1]:
            for i, coeff in enumerate(d_prev):
                _add_product(nxt[i], coeff, neg_off[j - 1])
        d_prev, d_cur = d_cur, [_nonzero(acc) for acc in nxt]
    # p_k = -(lambda^{M-k} coefficient); s_k = k p_k + sum_{j<k} s_j p_{k-j}
    p = [{e: (-re, -im) for e, (re, im) in d_cur[M - k].items()} for k in range(M + 1)]
    s = [None] * (M + 1)
    for k in range(1, M + 1):
        acc = {e: (k * re, k * im) for e, (re, im) in p[k].items()}
        for j in range(1, k):
            _add_product(acc, s[j], p[k - j])
        s[k] = _nonzero(acc)
    return CharPoly(
        dim=M,
        paper_coeffs=[_divided(p[k], D**k) for k in range(M + 1)],
        traces=[None] + [_divided(s[k], D**k) for k in range(1, M + 1)],
        param=matrix.param or "c",
    )


@dataclass
class TraceStructureReport:
    """Observed (j, coefficient) decomposition of traces and coefficients.

    For the quadratic perturbation at the unfolding point, every monomial of
    s_k and p_k must carry the parameter power k - 2j with 0 <= j <= k//3;
    ``trace_terms[k]`` and ``coeff_terms[k]`` list the observed (j, coeff)
    pairs.
    """

    dim: int
    trace_terms: dict = field(default_factory=dict)
    coeff_terms: dict = field(default_factory=dict)


def verify_trace_structure(charpoly: CharPoly) -> TraceStructureReport:
    """Assert the k - 2j exponent law on every s_k and p_k.

    A violation signals an arithmetic bug in the exact pipeline, so it is a
    hard AssertionError, not a soft report; it is raised explicitly so the
    check also runs under ``python -O``.
    """
    report = TraceStructureReport(dim=charpoly.dim)

    def decompose(poly: ParamPoly, k: int, label: str):
        terms = []
        allowed = {k - 2 * j: j for j in range(k // 3 + 1) if k - 2 * j >= 0}
        for e, coeff in sorted(poly.coeffs.items()):
            if e not in allowed:
                raise AssertionError(
                    f"{label}_{k} contains parameter power {e}; "
                    f"allowed powers are {sorted(allowed)}"
                )
            terms.append((allowed[e], coeff))
        return terms

    for k in range(1, charpoly.dim + 1):
        if charpoly.traces[k] is not None:
            report.trace_terms[k] = decompose(charpoly.traces[k], k, "s")
        report.coeff_terms[k] = decompose(charpoly.paper_coeffs[k], k, "p")
    return report
