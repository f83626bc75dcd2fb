"""Exact scalars (n + m*sqrt(d)) / q over the rationals, and their continued
fractions.

A scalar is stored as one reduced integer tuple (n, m, q, d): q > 0,
gcd(n, m, q) == 1, and d is a squarefree tag >= 2, or 0 exactly when m == 0
(a plain rational).  That form is canonical, so equality is tuple equality,
and every operation -- + - * /, negation, sign, floor and the comparisons --
runs on Python ints alone.  A comparison is the sign of n + m*sqrt(d),
decided by comparing n^2 with d*m^2; no floating point enters any
computation, and __float__ exists only so callers can render approximate
pictures.

The rational and radical parts a = n/q and b = m/q are read as Fractions
(`.a`, `.b`); Fractions are built only there and in `as_fraction`, for text
and JSON.  A rational scalar hashes like the int or Fraction it equals (by
Python's numeric hash of n/q), a quadratic one like its tuple.  Mixing two
different nonzero tags raises FieldMismatch.

The tuple layout is private to this module.  Exact predicates elsewhere use
the fused kernels below instead of unpacking it:
  _cross(a, b, c, e)       the value a*b - c*e, reduced once (not three times)
  _lin(a, b, c, e)         the value a*b + c*e, reduced once: a matrix row
                           applied to a vector
  _affine(a, b, x)         the value a + b*x, reduced once (not twice): a
                           line read at a coordinate
  _cross_sign(a, b, c, e)  its sign, from the unreduced numerators: no gcd,
                           no intermediate scalar
  _dot_sign(a, b, c, e)    the sign of a*b + c*e, likewise
  _orient_sign(...)        the sign of ex*(py - ay) - ey*(px - ax), without
                           building p - a
  x._cmp(y)                the sign of x - y, without building it
  _compass(x, y)           the compass class of the vector (x, y) and its
                           field tag, from the signs of x and y
  _sort_key(x)             (floor(x * 2**32), x): sorts scalars by value,
                           comparing two scalars only when their floors tie
  _pair_hash(x, y)         a hash of the pair (x, y) from the two integer
                           forms, with no modular inverse: for keys, such as
                           Vec2, that equal nothing but each other
When the operands' nonzero tags differ, the kernels fall back to the scalar
operators, so FieldMismatch is raised on exactly the inputs that raise it
there.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd

from .errors import FieldMismatch, InvalidParams, NotCommensurable, ZeroInput

_squarefree_ok: set[int] = set()
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _check_squarefree(d) -> None:
    """InvalidParams unless d is an int (not a bool), squarefree and >= 2."""
    if type(d) is not int or d < 2:
        raise InvalidParams("field tag must be 0 or a squarefree integer "
                            ">= 2, not %r" % (d,))
    if d in _squarefree_ok:
        return
    n, p = d, 2
    while p * p <= n:
        if n % (p * p) == 0:
            raise InvalidParams("field tag %d is not squarefree" % d)
        if n % p == 0:
            n //= p
        p += 1
    _squarefree_ok.add(d)


def _floor_times_sqrt(m: int, d: int) -> int:
    # floor(m * sqrt(d)) for integers m, squarefree d >= 2
    r = math.isqrt(m * m * d)
    if m >= 0:
        return r
    return -r if r * r == m * m * d else -r - 1


def _sign(n: int, m: int, d: int) -> int:
    """Sign of n + m*sqrt(d) for a squarefree d (any d when m == 0)."""
    if not m:
        return (n > 0) - (n < 0)
    if not n or (n > 0) == (m > 0):
        return 1 if m > 0 else -1
    # opposite signs: compare |n| against |m|*sqrt(d) via squares
    lhs, rhs = n * n, d * m * m
    if lhs == rhs:  # would force sqrt(d) rational
        raise ArithmeticError("non-squarefree tag leaked into comparison")
    return (1 if n > 0 else -1) if lhs > rhs else (1 if m > 0 else -1)


def _tag(d1: int, d2: int) -> int:
    """The tag of a result from operands tagged d1 != d2."""
    if d1 and d2:
        raise FieldMismatch("cannot mix sqrt(%d) with sqrt(%d)" % (d1, d2))
    return d1 or d2


# -- fused kernels -------------------------------------------------------------


def _cross_terms(t1, t2, t3, t4):
    """(N, M, Q, D) with x1*x2 - x3*x4 = (N + M*sqrt(D)) / Q and Q > 0, not
    reduced, for the scalars x1..x4 with tuples t1..t4; None when two of
    them carry different nonzero tags."""
    n1, m1, q1, d1 = t1
    n2, m2, q2, d2 = t2
    n3, m3, q3, d3 = t3
    n4, m4, q4, d4 = t4
    q12, q34 = q1 * q2, q3 * q4
    d = d1 or d2 or d3 or d4
    if not d:
        if q12 == q34:
            return n1 * n2 - n3 * n4, 0, q12, 0
        return n1 * n2 * q34 - n3 * n4 * q12, 0, q12 * q34, 0
    if (d2 and d2 != d) or (d3 and d3 != d) or (d4 and d4 != d):
        return None
    n12, m12 = n1 * n2 + m1 * m2 * d, n1 * m2 + m1 * n2
    n34, m34 = n3 * n4 + m3 * m4 * d, n3 * m4 + m3 * n4
    if q12 == q34:
        return n12 - n34, m12 - m34, q12, d
    return n12 * q34 - n34 * q12, m12 * q34 - m34 * q12, q12 * q34, d


def _cross(a, b, c, e) -> "FieldScalar":
    """a*b - c*e, reduced once.  Operands of different nonzero tags go
    through the scalar operators, so FieldMismatch is raised exactly where
    they raise it."""
    t = _cross_terms(a._t, b._t, c._t, e._t)
    if t is None:
        return a * b - c * e
    return _reduced(*t)


def _lin(a, b, c, e) -> "FieldScalar":
    """a*b + c*e, reduced once, as _cross with c negated."""
    n, m, q, d = c._t
    t = _cross_terms(a._t, b._t, (-n, -m, q, d), e._t)
    if t is None:
        return a * b + c * e
    return _reduced(*t)


def _affine(a, b, x) -> "FieldScalar":
    """a + b*x, reduced once.  Operands of different nonzero tags go through
    the scalar operators, as in _cross."""
    n1, m1, q1, d1 = a._t
    n2, m2, q2, d2 = b._t
    n3, m3, q3, d3 = x._t
    d = d1 or d2 or d3
    if (d2 and d2 != d) or (d3 and d3 != d):
        return a + b * x
    n = n2 * n3 + m2 * m3 * d
    m = n2 * m3 + m2 * n3
    q = q2 * q3
    if q1 == q:
        return _reduced(n1 + n, m1 + m, q, d)
    return _reduced(n1 * q + n * q1, m1 * q + m * q1, q1 * q, d)


def _cross_sign(a, b, c, e) -> int:
    """Sign of a*b - c*e, read off the unreduced numerators."""
    t = _cross_terms(a._t, b._t, c._t, e._t)
    if t is None:
        return (a * b - c * e).sign()
    return _sign(t[0], t[1], t[3])


def _dot_sign(a, b, c, e) -> int:
    """Sign of a*b + c*e, as _cross_sign with c negated."""
    n, m, q, d = c._t
    t = _cross_terms(a._t, b._t, (-n, -m, q, d), e._t)
    if t is None:
        return (a * b + c * e).sign()
    return _sign(t[0], t[1], t[3])


def _orient_sign(ex, ey, ax, ay, px, py) -> int:
    """Sign of ex*(py - ay) - ey*(px - ax), the side of p against the line
    through a along e, as cross(e, p) - cross(e, a) without the difference
    p - a."""
    s = _cross_terms(ex._t, py._t, ey._t, px._t)
    t = _cross_terms(ex._t, ay._t, ey._t, ax._t)
    if s is None or t is None or (s[3] and t[3] and s[3] != t[3]):
        return (ex * (py - ay) - ey * (px - ax)).sign()
    n1, m1, q1, d1 = s
    n2, m2, q2, d2 = t
    if q1 == q2:
        return _sign(n1 - n2, m1 - m2, d1 or d2)
    return _sign(n1 * q2 - n2 * q1, m1 * q2 - m2 * q1, d1 or d2)


# _compass's class by 3*sign(x) + sign(y) + 4
_COMPASS = (5, 4, 3, 6, None, 2, 7, 0, 1)


def _compass(x, y):
    """(class, tag) of the nonzero vector (x, y).

    The class is 0 on the east ray, 1 in the open first quadrant, 2 on the
    north ray, and so on counterclockwise to 7 in the open fourth quadrant,
    so vectors of different classes are ordered by angle in [0, 2pi) as
    their classes are.  The tag is the nonzero field tag of x and y, 0 when
    both are rational, and -1 when they carry two different ones.  Signs
    never mix fields, so this raises nothing.
    """
    n, m, _, d = x._t
    sx = _sign(n, m, d) if m else (n > 0) - (n < 0)
    n, m, _, e = y._t
    sy = _sign(n, m, e) if m else (n > 0) - (n < 0)
    if d != e and d and e:
        d = -1
    return _COMPASS[3 * sx + sy + 4], d or e


def _sort_key(x):
    """(floor(x * 2**32), x), ordered as x is: the floor is exact, as
    floor((A + B) / q) == floor((A + floor(B)) / q) for an integer A."""
    n, m, q, d = x._t
    if not m:
        return (n << 32) // q, x
    return ((n << 32) + _floor_times_sqrt(m << 32, d)) // q, x


def _pair_hash(x, y):
    """A hash of the scalar pair (x, y) read off the two integer forms.

    Equal scalars have equal forms, so equal pairs hash equal.  Unlike
    hash((x, y)) it takes no modular inverse for a non-integer rational, and
    it does not hash like a pair of equal ints or Fractions: only a key that
    equals nothing but keys hashed the same way (Vec2) may use it."""
    return hash((x._t, y._t))


def _parts(x):
    """(n, m, q, d) of a scalar, int or Fraction operand; None otherwise."""
    if type(x) is FieldScalar:
        return x._t
    if isinstance(x, int):
        return (int(x), 0, 1, 0)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator, 0)
    return None


_new = object.__new__


def _reduced(n: int, m: int, q: int, d: int) -> "FieldScalar":
    """The scalar (n + m*sqrt(d)) / q, for q > 0, in canonical form."""
    if q != 1:
        g = gcd(n, m, q)
        if g != 1:
            n //= g
            m //= g
            q //= g
    s = _new(FieldScalar)
    _set(s, (n, m, q, d) if m else (n, 0, q, 0))
    return s


class FieldScalar:
    """Immutable exact number a + b*sqrt(d), stored as (n + m*sqrt(d)) / q."""

    __slots__ = ("_t",)

    def __init__(self, a, b=0, d=0):
        """a + b*sqrt(d) for a, b each an int, a Fraction or an 'n/q' string
        and an int tag d (squarefree, or 1, when b != 0)."""
        na, qa = _ratio(a)
        nb, qb = _ratio(b)
        if type(d) is not int:
            raise InvalidParams("a field tag is an int, not %r" % (d,))
        if not nb:
            d = 0
        elif d == 1:  # sqrt(1) folds into the rational part
            na, nb, qa, d = na * qb + nb * qa, 0, qa * qb, 0
        elif not d:
            raise InvalidParams("rational scalar cannot carry a radical part")
        else:
            _check_squarefree(d)
        n, m, q = na * qb, nb * qa, qa * qb
        g = gcd(n, m, q)
        _set(self, (n // g, m // g, q // g, d))

    def __setattr__(self, *_):
        raise AttributeError("FieldScalar is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def rational(cls, x) -> "FieldScalar":
        """The scalar of an int (not a bool) or a Fraction."""
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidParams("%r is not an exact scalar: write an int, a "
                                "literal string or an {a, b, d} object"
                                % (x,))
        s = _new(cls)
        _set(s, _parts(x))
        return s

    @classmethod
    def sqrt_of(cls, d: int) -> "FieldScalar":
        """The scalar sqrt(d) itself."""
        if d in (0, 1):
            return cls.rational(d)
        _check_squarefree(d)
        s = _new(cls)
        _set(s, (0, 1, 1, d))
        return s

    # -- parts ----------------------------------------------------------------

    @property
    def d(self) -> int:
        return self._t[3]

    @property
    def a(self) -> Fraction:
        """Rational part, reduced."""
        return Fraction(self._t[0], self._t[2])

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d), reduced."""
        return Fraction(self._t[1], self._t[2])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        n1, m1, q1, d1 = self._t
        n2, m2, q2, d2 = t
        if d1 != d2:
            d1 = _tag(d1, d2)
        if q1 == q2:
            return _reduced(n1 + n2, m1 + m2, q1, d1)
        return _reduced(n1 * q2 + n2 * q1, m1 * q2 + m2 * q1, q1 * q2, d1)

    __radd__ = __add__

    def __sub__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        n1, m1, q1, d1 = self._t
        n2, m2, q2, d2 = t
        if d1 != d2:
            d1 = _tag(d1, d2)
        if q1 == q2:
            return _reduced(n1 - n2, m1 - m2, q1, d1)
        return _reduced(n1 * q2 - n2 * q1, m1 * q2 - m2 * q1, q1 * q2, d1)

    def __rsub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return -self + other

    def __neg__(self):
        n, m, q, d = self._t
        s = _new(FieldScalar)
        _set(s, (-n, -m, q, d))
        return s

    def __mul__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        n1, m1, q1, d1 = self._t
        n2, m2, q2, d2 = t
        if d1 != d2:
            d1 = _tag(d1, d2)
        if not (m1 or m2):
            return _reduced(n1 * n2, 0, q1 * q2, 0)
        return _reduced(n1 * n2 + m1 * m2 * d1, n1 * m2 + m1 * n2, q1 * q2, d1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        return _divide(self._t, t)

    def __rtruediv__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        return _divide(t, self._t)

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by integer comparisons only."""
        n, m, _, d = self._t
        return _sign(n, m, d)

    def _cmp(self, other):
        """Sign of self - other, or NotImplemented for a foreign operand."""
        t = other._t if type(other) is FieldScalar else _parts(other)
        if t is None:
            return NotImplemented
        n1, m1, q1, d1 = self._t
        n2, m2, q2, d2 = t
        if d1 != d2:
            d1 = _tag(d1, d2)
        if not (m1 or m2):
            n1, n2 = n1 * q2, n2 * q1
            return (n1 > n2) - (n1 < n2)
        if q1 == q2:
            return _sign(n1 - n2, m1 - m2, d1)
        return _sign(n1 * q2 - n2 * q1, m1 * q2 - m2 * q1, d1)

    def __eq__(self, other):
        t = other._t if type(other) is FieldScalar else _parts(other)
        return NotImplemented if t is None else self._t == t

    def __hash__(self):
        n, m, q, _ = self._t
        if m:  # equal only to scalars with this very tuple
            return hash(self._t)
        if q == 1:
            return hash(n)
        # Python's hash of the rational n/q (as Fraction computes it), so a
        # rational scalar hashes like the int or Fraction it equals
        try:
            h = hash(hash(abs(n)) * pow(q, -1, _HASH_MODULUS))
        except ValueError:  # q is a multiple of the modulus
            h = _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __bool__(self):
        t = self._t
        return t[0] != 0 or t[1] != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- structure ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self._t[1]

    def as_fraction(self) -> Fraction:
        n, m, q, _ = self._t
        if m:
            raise ValueError("scalar %s is irrational" % self)
        return Fraction(n, q)

    def __floor__(self) -> int:
        n, m, q, d = self._t
        if not m:
            return n // q
        return (n + _floor_times_sqrt(m, d)) // q

    def floor_frac(self) -> tuple[int, "FieldScalar"]:
        """(n, r) with n = floor(self) and r = self - n in [0, 1)."""
        n = self.__floor__()
        return n, self - n

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- text and JSON forms --------------------------------------------------

    def __repr__(self):
        return "FieldScalar(%s)" % self

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        rad = "sqrt(%d)" % self.d
        if b == 1:
            bs = rad
        elif b == -1:
            bs = "-" + rad
        else:
            bs = "%s*%s" % (b, rad)
        if not a:
            return bs
        return "%s%s%s" % (a, "" if bs.startswith("-") else "+", bs)

    def to_json(self) -> dict:
        a, b = self.a, self.b
        return {
            "d": self.d,
            "a": "%d/%d" % (a.numerator, a.denominator),
            "b": "%d/%d" % (b.numerator, b.denominator),
        }

    @classmethod
    def from_json(cls, obj) -> "FieldScalar":
        """`scalar` of an {a, b, d} object or a literal string; a bare JSON
        number is refused, so no float becomes a coordinate."""
        if not isinstance(obj, (dict, str)):
            raise InvalidParams("a scalar is written as an {a, b, d} object "
                                "or a string, not %r" % (obj,))
        return scalar(obj)


_set = FieldScalar._t.__set__


def _divide(t1, t2) -> FieldScalar:
    """(n1 + m1*sqrt(d)) / q1 divided by (n2 + m2*sqrt(d)) / q2."""
    n1, m1, q1, d1 = t1
    n2, m2, q2, d2 = t2
    if d1 != d2:
        d1 = _tag(d1, d2)
    if not m2:
        if not n2:
            raise ZeroDivisionError("division by zero scalar")
        if n2 < 0:
            n1, m1, n2 = -n1, -m1, -n2
        return _reduced(n1 * q2, m1 * q2, q1 * n2, d1)
    # multiply by the conjugate; the norm n2^2 - d m2^2 is a nonzero integer
    norm = n2 * n2 - d1 * m2 * m2
    n = (n1 * n2 - m1 * m2 * d1) * q2
    m = (m1 * n2 - n1 * m2) * q2
    if norm < 0:
        n, m, norm = -n, -m, -norm
    return _reduced(n, m, q1 * norm, d1)


def scalar(x) -> FieldScalar:
    """The one reader of an exact value: a FieldScalar as is, an int (not a
    bool), a Fraction, a literal string (`parse_scalar`) or the {a, b, d}
    object `to_json` writes (b and d optional).  InvalidParams for anything
    else, floats and None included."""
    if isinstance(x, FieldScalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, dict) and "a" in x and x.keys() <= {"a", "b", "d"}:
        return FieldScalar(x["a"], x.get("b", 0), x.get("d", 0))
    return FieldScalar.rational(x)


def _ratio(x) -> tuple[int, int]:
    """(n, q) with x == n/q and q > 0, for an int (not a bool), a Fraction,
    or an 'n' or 'n/q' string split at '/' (no regex); else InvalidParams."""
    if isinstance(x, str):
        n, slash, q = x.partition("/")
        try:
            n, q = int(n), int(q) if slash else 1
        except ValueError:
            q = 0
        if q > 0:
            return n, q
    elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x.numerator, x.denominator
    raise InvalidParams("%r is not a rational n or n/q with q > 0" % (x,))


_TERM_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:sqrt\(\s*(?P<rad>\d+)\s*\))?\s*$"
)


def parse_scalar(text: str) -> FieldScalar:
    """The scalar of a literal such as '3/2', 'sqrt(5)', '1/2+1/2*sqrt(5)'
    or '(1+sqrt(5))/2'; InvalidParams for a malformed literal, a zero
    denominator or a radicand that is not squarefree, 0 or 1."""
    if not isinstance(text, str):
        raise InvalidParams("cannot parse scalar literal %r" % (text,))
    s, den = text.strip(), 1
    # '(body)/n', peeled in a loop, not a recursion, however deep it nests
    while m := re.match(r"^\((?P<body>.*)\)\s*/\s*(?P<den>\d+)$", s):
        s, den = m.group("body").strip(), den * int(m.group("den"))
    if not den:
        raise InvalidParams("zero denominator in scalar literal %r" % text)
    total = FieldScalar.rational(0)
    # signed terms: split before each + or - that follows an operand
    for term in re.split(r"(?<=[^-+*/(])(?=[-+])", s):
        m = _TERM_RE.match(term)
        if not m or m.group("coef", "rad") == (None, None):
            raise InvalidParams("cannot parse scalar literal %r" % text)
        sign, coef, rad = m.group("sign", "coef", "rad")
        c = FieldScalar(sign + (coef or "1"))
        total += c if rad is None else c * FieldScalar.sqrt_of(int(rad))
    return total / den


def field_sqrt(x: FieldScalar, ambient_d: int = 0):
    """Exact square root of x inside Q(sqrt(d)), or None when it has none.

    `ambient_d` matters only for rational x living in a bigger field, where
    the root may be a rational multiple of sqrt(ambient_d).
    """
    sg = x.sign()
    if sg < 0:
        return None
    if sg == 0:
        return FieldScalar.rational(0)
    if x.is_rational:
        f = x.as_fraction()
        r = _rational_sqrt(f)
        if r is not None:
            return FieldScalar.rational(r)
        r = _rational_sqrt(f / ambient_d) if ambient_d else None
        return None if r is None else FieldScalar(0, r, ambient_d)
    # solve (u + w*sqrt(d))^2 = a + b*sqrt(d)
    a, b, d = x.a, x.b, x.d
    s = _rational_sqrt(a * a - d * b * b)
    if s is None:
        return None
    for u2 in ((a + s) / 2, (a - s) / 2):
        u = _rational_sqrt(u2)
        if u:
            cand = FieldScalar(u, b / (2 * u), d)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None


def _rational_sqrt(f: Fraction):
    """The rational r >= 0 with r * r == f, or None when there is none."""
    if f >= 0:
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
    return None


# -- commensurability ---------------------------------------------------------


def commensurable(x: FieldScalar, y: FieldScalar) -> bool:
    """True when x/y is rational.  Both inputs must be nonzero."""
    if not x or not y:
        raise ZeroInput("commensurability needs nonzero scalars")
    return (x / y).is_rational


def commensurability_classes(values) -> list[list[int]]:
    """Partition indices of `values` into commensurability classes.

    Classes come back ordered by their smallest member index.
    """
    values = list(values)
    classes: list[list[int]] = []
    reps: list[FieldScalar] = []
    for i, v in enumerate(values):
        for j, r in enumerate(reps):
            if commensurable(v, r):
                classes[j].append(i)
                break
        else:
            classes.append([i])
            reps.append(v)
    return classes


def least_common_integer_multiple(values) -> FieldScalar:
    """Least positive v with v an integer multiple of every input.

    Inputs must be positive and pairwise commensurable.
    """
    vals = [scalar(v) for v in values]
    if not vals:
        raise ValueError("need at least one value")
    for v in vals:
        if v.sign() <= 0:
            raise ValueError("values must be positive")
    c = vals[0]
    nums, dens = [], []
    for v in vals:
        r = v / c
        if not r.is_rational:
            raise NotCommensurable("%s and %s have irrational ratio" % (v, c))
        f = r.as_fraction()
        nums.append(f.numerator)
        dens.append(f.denominator)
    return c * Fraction(math.lcm(*nums), math.gcd(*dens))


# -- continued fractions ------------------------------------------------------


class ContinuedFraction:
    """Expansion data for a nonnegative real quadratic (or rational) number.

    quotients   -- partial quotients a0, a1, ... (a0 >= 0, rest positive)
    convergents -- (p, q) integer pairs, one per quotient
    periodic    -- (preperiod, period) when detected, else None
    exact       -- True when the expansion terminated (rational input)
    """

    __slots__ = ("quotients", "convergents", "periodic", "exact")

    def __init__(self, quotients, convergents, periodic, exact):
        self.quotients = list(quotients)
        self.convergents = list(convergents)
        self.periodic = periodic
        self.exact = exact

    def __repr__(self):
        head = self.quotients[:1] + self.quotients[1:]
        return "ContinuedFraction(%r, periodic=%r, exact=%r)" % (
            head, self.periodic, self.exact)


# surd states a continued fraction remembers while it looks for the period
_STATE_CAP = 64


def continued_fraction(x, n: int) -> ContinuedFraction:
    """First n partial quotients of x >= 0 with convergents.

    Rational x terminates (possibly before n terms).  Quadratic irrationals are
    run through the integer surd recurrence, which also detects the eventual
    period by state repetition (capped at `_STATE_CAP` distinct states).
    """
    x = scalar(x)
    if n < 1:
        raise ValueError("need n >= 1")
    if x.sign() < 0:
        raise ValueError("continued fractions here take nonnegative input")

    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1

    def push(a: int):
        nonlocal p_prev, p_prev2, q_prev, q_prev2
        quotients.append(a)
        p, q = a * p_prev + p_prev2, a * q_prev + q_prev2
        convergents.append((p, q))
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q

    num_p, num_m, den, d = x._t  # x = (num_p + num_m*sqrt(d)) / den
    if not num_m:
        p, q = num_p, den
        while len(quotients) < n:
            a, r = divmod(p, q)
            push(a)
            if r == 0:
                return ContinuedFraction(quotients, convergents, None, True)
            p, q = q, r
        return ContinuedFraction(quotients, convergents, None, False)

    # surd state: x_i = (P + sqrt(D)) / Q with Q | D - P^2
    if num_m < 0:
        num_p, num_m, den = -num_p, -num_m, -den
    big_d = num_m * num_m * d
    big_p, big_q = num_p, den
    if (big_d - big_p * big_p) % big_q != 0:
        big_p *= abs(big_q)
        big_d *= big_q * big_q
        big_q *= abs(big_q)
    sqrt_floor = math.isqrt(big_d)

    seen: dict[tuple[int, int], int] = {}
    periodic = None
    while len(quotients) < n:
        state = (big_p, big_q)
        if periodic is None:
            if state in seen:
                periodic = (seen[state], len(quotients) - seen[state])
            elif len(seen) < _STATE_CAP:
                seen[state] = len(quotients)
        if big_q > 0:
            a = (big_p + sqrt_floor) // big_q
        else:
            a = (-big_p - sqrt_floor - 1) // (-big_q)
        push(a)
        big_p = a * big_q - big_p
        big_q = (big_d - big_p * big_p) // big_q
    return ContinuedFraction(quotients, convergents, periodic, False)
