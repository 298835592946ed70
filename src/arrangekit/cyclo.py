r"""Exact arithmetic in Q(zeta_4) and Q(zeta_6).

An element (a + b*zeta)/d is stored as three ints a, b, d with d > 0 and
gcd(a, b, d) = 1, so every value has exactly one representation; zeta_4 = i
and zeta_6 = (1 + sqrt(-3))/2.  The parts are read back as Fractions
through the .a and .b properties.  The two rings never mix: any binary
operation on elements with different k raises RingMismatch.

Multiplication rules follow the minimal polynomials

    zeta_4^2 = -1          zeta_6^2 = zeta_6 - 1

and conjugation is conj(zeta_4) = -zeta_4, conj(zeta_6) = 1 - zeta_6.
Both rings of integers (Gaussian for k=4, Eisenstein for k=6) are
norm-Euclidean with respect to rounding in the {1, zeta} basis, which is
what the gcd helpers rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter

from .errors import RingMismatch

RINGS = (4, 6)

_RATIONAL = (int, Fraction)

_new = object.__new__


def _make(a, b, d, k):
    """(a + b*zeta_k)/d from ints with d > 0, skipping the public checks.

    The common factor of a, b and d is divided out here, so results of
    ring operations need no reduction of their own.
    """
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(CycRat)
    x._a = a
    x._b = b
    x._d = d
    x._k = k
    return x


class CycRat:
    """Immutable element a + b*zeta_k of Q(zeta_k), k in {4, 6}."""

    __slots__ = ("_a", "_b", "_d", "_k")

    def __init__(self, a, b=0, k=4):
        if k not in RINGS:
            raise ValueError("ring must be 4 or 6, got %r" % (k,))
        self._k = k
        if a.__class__ is int and b.__class__ is int:
            self._a, self._b, self._d = a, b, 1
            return
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("CycRat parts must be exact rationals, not floats")
        a = Fraction(a)
        b = Fraction(b)
        # both parts are reduced, so over their lcm no common factor is left
        d = lcm(a.denominator, b.denominator)
        self._a = a.numerator * (d // a.denominator)
        self._b = b.numerator * (d // b.denominator)
        self._d = d

    k = property(attrgetter("_k"))

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycRat):
            if other._k != self._k:
                raise RingMismatch(
                    "cannot combine zeta_%d and zeta_%d values" % (self._k, other._k)
                )
            return other
        if isinstance(other, _RATIONAL):
            return _make(other.numerator, 0, other.denominator, self._k)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CycRat or other._k != self._k:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _make(self._a + other._a, self._b + other._b, d, self._k)
        return _make(
            self._a * f + other._a * d, self._b * f + other._b * d, d * f, self._k
        )

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not CycRat or other._k != self._k:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _make(self._a - other._a, self._b - other._b, d, self._k)
        return _make(
            self._a * f - other._a * d, self._b * f - other._b * d, d * f, self._k
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d, self._k)

    def __mul__(self, other):
        k = self._k
        if other.__class__ is not CycRat or other._k != k:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        be = b * e
        if k == 4:
            return _make(a * c - be, a * e + b * c, self._d * other._d, 4)
        return _make(a * c - be, a * e + b * c + be, self._d * other._d, 6)

    __rmul__ = __mul__

    def inverse(self):
        return _make(1, 0, 1, self._k) / self

    def __truediv__(self, other):
        k = self._k
        if other.__class__ is not CycRat or other._k != k:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # (a + b*zeta)/d over (c + e*zeta)/f is f*(a + b*zeta)*conj(c + e*zeta)/(d*n)
        # with the integer norm n of c + e*zeta; the conjugate is folded in
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if k == 4:
            n = c * c + e * e
            p = a * c + b * e
        else:
            n = c * c + c * e + e * e
            p = a * (c + e) + b * e
        if not n:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % k)
        return _make(f * p, f * (b * c - a * e), self._d * n, k)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = _make(1, 0, 1, self._k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- involution and rational invariants --------------------------------

    def conjugate(self):
        if self._k == 4:
            return _make(self._a, -self._b, self._d, 4)
        return _make(self._a + self._b, -self._b, self._d, 6)

    def norm(self) -> Fraction:
        """x * conj(x), a nonnegative rational; zero iff x = 0."""
        a, b = self._a, self._b
        n = a * a + b * b if self._k == 4 else a * a + a * b + b * b
        return Fraction(n, self._d * self._d)

    def trace(self) -> Fraction:
        t = 2 * self._a if self._k == 4 else 2 * self._a + self._b
        return Fraction(t, self._d)

    def real_part(self) -> Fraction:
        return self.trace() / 2

    def is_rational(self) -> bool:
        return not self._b

    def is_integral(self) -> bool:
        return self._d == 1

    def as_fraction(self) -> Fraction:
        if self._b:
            raise ValueError("%s is not rational" % (self,))
        return Fraction(self._a, self._d)

    # -- comparisons --------------------------------------------------------

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, CycRat):
            if self._a != other._a or self._b != other._b or self._d != other._d:
                return False
            # rational values are shared between the two fields
            return self._k == other._k or not self._b
        if isinstance(other, _RATIONAL):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction parts: ints hash like equal Fractions
        if self._d == 1:
            if not self._b:
                return hash(self._a)
            return hash((self._a, self._b, self._k))
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self.a, self.b, self._k))

    def __repr__(self):
        return "CycRat(%s, %s, k=%d)" % (self.a, self.b, self._k)

    def __str__(self):
        return format_cycrat(self)


def zeta(k: int) -> CycRat:
    return CycRat(0, 1, k)


def cyc(a, b=0, k=4) -> CycRat:
    return CycRat(a, b, k)


def units(k: int):
    """The roots of unity of O_k, in power order 1, zeta, zeta^2, ..."""
    out = []
    u = CycRat(1, 0, k)
    z = zeta(k)
    for _ in range(k):
        out.append(u)
        u = u * z
    return tuple(out)


# ---------------------------------------------------------------------------
# numeric embedding


# sqrt(3) to 96 bits: isqrt(3 * 4^96) / 2^96
_SQRT3_BITS = 96
_SQRT3_NUM = isqrt(3 << (2 * _SQRT3_BITS))


def to_complex(x: CycRat):
    """Round-to-nearest embedding (zeta_4 -> i, zeta_6 -> (1+sqrt(-3))/2).

    Returns (value, error_bound) with |value - exact| <= error_bound.
    Both parts are IEEE doubles, each the correctly rounded quotient of two
    integers, so the bound is 2^(1-53)*|value|; for k=6 the imaginary part
    uses sqrt(3) to 96 bits, far below the rounding error of a double.
    """
    a, b, d = x._a, x._b, x._d
    if x._k == 4:
        re = a / d
        im = b / d
    else:
        re = (2 * a + b) / (2 * d)
        im = b * _SQRT3_NUM / (d << (_SQRT3_BITS + 1))
    value = complex(re, im)
    bound = 2.0 ** (1 - 53) * abs(value)
    return value, bound


def embed(x: CycRat) -> complex:
    return to_complex(x)[0]


# ---------------------------------------------------------------------------
# text and JSON forms


def format_cycrat(x: CycRat) -> str:
    if not x.b:
        return str(x.a)
    zpart = "z" if abs(x.b) == 1 else "%s*z" % abs(x.b)
    if not x.a:
        return zpart if x.b > 0 else "-" + zpart
    sign = "+" if x.b > 0 else "-"
    return "%s %s %s" % (x.a, sign, zpart)


def parse_cycrat(text: str, k: int) -> CycRat:
    """Parse 'p/q + r/s*z' (and natural degenerate forms) into a CycRat."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    # split into a rational part and a *z part
    a = Fraction(0)
    b = Fraction(0)
    # find the term containing z, if any
    if "z" in s:
        idx = s.index("z")
        # walk back over an optional '*'-joined coefficient and sign
        start = idx
        while start > 0 and (s[start - 1].isdigit() or s[start - 1] in "*/"):
            start -= 1
        coef = s[start:idx]
        if coef.endswith("*"):
            coef = coef[:-1]
        sign = 1
        if start > 0 and s[start - 1] in "+-":
            sign = -1 if s[start - 1] == "-" else 1
            start -= 1
        b = (Fraction(coef) if coef else Fraction(1)) * sign
        s = s[:start] + s[idx + 1 :]
        if s in ("+", "-"):
            raise ValueError("dangling sign in %r" % text)
    if s:
        a = Fraction(s)
    return CycRat(a, b, k)


def cyc_to_json(x: CycRat) -> dict:
    return {"a": str(x.a), "b": str(x.b)}


def cyc_from_json(obj, k: int) -> CycRat:
    if isinstance(obj, dict):
        return CycRat(Fraction(str(obj["a"])), Fraction(str(obj.get("b", 0))), k)
    if isinstance(obj, str):
        return parse_cycrat(obj, k)
    if isinstance(obj, int):
        return CycRat(obj, 0, k)
    raise ValueError("cannot read cyclotomic value from %r" % (obj,))


# ---------------------------------------------------------------------------
# integral (O_k) helpers: Euclidean gcd, primitivity, unit normalization


def _round_half(n: int, d: int) -> int:
    # floor(n/d + 1/2) for d > 0; deterministic for ties
    return (2 * n + d) // (2 * d)


def nearest_integral(x: CycRat) -> CycRat:
    return _make(_round_half(x._a, x._d), _round_half(x._b, x._d), 1, x._k)


def euclid_gcd(x: CycRat, y: CycRat) -> CycRat:
    """gcd in O_k via Euclidean division; defined up to a unit."""
    if not (x.is_integral() and y.is_integral()):
        raise ValueError("gcd requires integral elements")
    k = x._k
    a, b, c, e = x._a, x._b, y._a, y._b
    if (c or e) and y._k != k:
        raise RingMismatch("cannot combine zeta_%d and zeta_%d values" % (k, y._k))
    while c or e:
        # x/y = x*conj(y)/N(y) = (p + q*zeta)/n; round, then x - round(x/y)*y
        if k == 4:
            n = c * c + e * e
            p = a * c + b * e
        else:
            n = c * c + c * e + e * e
            p = a * (c + e) + b * e
        q = b * c - a * e
        qa = _round_half(p, n)
        qb = _round_half(q, n)
        ra = a - qa * c + qb * e
        rb = b - qa * e - qb * c
        if k == 6:
            rb -= qb * e
        a, b, c, e = c, e, ra, rb
    return _make(a, b, 1, k)


def vector_content(vec) -> CycRat:
    """gcd of all coordinates; zero for the zero vector."""
    g = None
    for c in vec:
        g = c if g is None else euclid_gcd(g, c)
    if g is None:
        raise ValueError("empty vector")
    return g


def is_unit(x: CycRat) -> bool:
    return x.is_integral() and x.norm() == 1


def scalar_key(x):
    """Sort key usable for both Fraction and CycRat entries."""
    if isinstance(x, CycRat):
        if x._d == 1:
            return (x._a, x._b)
        return (x.a, x.b)
    return (Fraction(x), Fraction(0))


def vector_key(vec):
    return tuple(
        (c._a, c._b) if c.__class__ is CycRat and c._d == 1 else scalar_key(c)
        for c in vec
    )


def unit_canonical(vec):
    """The lexicographically smallest unit multiple of an O_k vector."""
    k = vec[0].k
    if any(c._k != k for c in vec):
        raise RingMismatch("vector mixes zeta_4 and zeta_6 values")
    parts = [(c._a, c._b, c._d) for c in vec]
    best = None
    # walk the units in power order 1, zeta, zeta^2, ...; the first
    # minimal key wins.  zeta*(a + b*zeta) is -b + a*zeta for k = 4 and
    # -b + (a + b)*zeta for k = 6, with the denominator unchanged.
    for _ in range(k):
        key = tuple(
            (a, b) if d == 1 else (Fraction(a, d), Fraction(b, d)) for a, b, d in parts
        )
        if best is None or key < best[0]:
            best = (key, parts)
        if k == 4:
            parts = [(-b, a, d) for a, b, d in parts]
        else:
            parts = [(-b, a + b, d) for a, b, d in parts]
    return tuple(_make(a, b, d, k) for a, b, d in best[1])
