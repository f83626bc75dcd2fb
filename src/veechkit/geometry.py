"""Exact planar primitives: vectors, 2x2 matrices, sectors and segments.

Everything here returns exact answers and never touches floats.  The sign
predicates (`parallel`, `same_ray`, `ccw_sector_contains` and the winding
loop of `_locate`) never build intermediate scalars: each sign of a cross
or dot product, of an orientation or of a difference comes from a fused
kernel of `field` (`_cross_sign`, `_dot_sign`, `_orient_sign`,
comparisons) that works on the integer form.
`cross` itself reduces its value once, and so does each coordinate of a
matrix image `Mat2 * Vec2` (`_lin`).  A Vec2 equals only a Vec2, so it
hashes the integer forms of its coordinates (`field._pair_hash`), with no
modular inverse, rather than hash like a pair of numbers.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, NonPositive, ZeroInput
from .field import (FieldScalar, _cross, _cross_sign, _dot_sign, _lin,
                    _orient_sign, _pair_hash, scalar)

_ZERO = FieldScalar.rational(0)
_ONE = FieldScalar.rational(1)
_new = object.__new__


class Vec2:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = scalar(x)
        self.y = scalar(y)

    def __repr__(self):
        return "Vec2(%s, %s)" % (self.x, self.y)

    def __eq__(self, other):
        return isinstance(other, Vec2) and self.x == other.x and self.y == other.y

    def __hash__(self):
        # a Vec2 equals only a Vec2, so its hash need not match a tuple's
        return _pair_hash(self.x, self.y)

    def __add__(self, o):
        return _vec(self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return _vec(self.x - o.x, self.y - o.y)

    def __neg__(self):
        return _vec(-self.x, -self.y)

    def __mul__(self, s):
        return _vec(self.x * s, self.y * s)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def to_json(self):
        return [self.x.to_json(), self.y.to_json()]

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise InvalidParams("a vector is written as a two-element list, "
                                "not %r" % (obj,))
        return _vec(FieldScalar.from_json(obj[0]),
                    FieldScalar.from_json(obj[1]))


def _vec(x: FieldScalar, y: FieldScalar) -> Vec2:
    """Vec2 from coordinates that are already FieldScalars (no coercion)."""
    v = _new(Vec2)
    v.x = x
    v.y = y
    return v


def _as_vec(x) -> Vec2:
    """`x` as a Vec2: a Vec2 as is, or a tuple or a list of two values, each
    read by `scalar`.  InvalidParams for anything else; a malformed literal
    keeps the message `scalar` gives it."""
    if isinstance(x, Vec2):
        return x
    if isinstance(x, (tuple, list)) and len(x) == 2:
        a, b = x
        try:
            return _vec(scalar(a), scalar(b))
        except InvalidParams as exc:
            if isinstance(a, str) or isinstance(b, str):
                raise
            raise InvalidParams("%r is not a pair of scalars: %s"
                                % (x, exc)) from None
    raise InvalidParams("%r is not a pair of scalars" % (x,))


def cross(u: Vec2, v: Vec2) -> FieldScalar:
    return _cross(u.x, v.y, u.y, v.x)


def dot(u: Vec2, v: Vec2) -> FieldScalar:
    return u.x * v.x + u.y * v.y


def parallel(u: Vec2, v: Vec2) -> bool:
    return not _cross_sign(u.x, v.y, u.y, v.x)


def same_ray(u: Vec2, v: Vec2) -> bool:
    """u and v nonzero, pointing the same direction."""
    return parallel(u, v) and _dot_sign(u.x, v.x, u.y, v.y) > 0


def ccw_sector_contains(u: Vec2, w: Vec2, v: Vec2) -> bool:
    """Is nonzero v inside the half-open CCW sector [u, w)?

    The sector starts on ray u (included) and sweeps counterclockwise to ray w
    (excluded).  Every caller guarantees u != 0 != w and a sector angle
    in (0, 2pi).

    Three cross signs decide it, and a dot sign is taken only when v lies
    on the line of u or of w, to tell its ray from the opposite one.  The
    signs are formed in the order cross(v, u), dot(v, u), cross(v, w),
    dot(v, w), cross(u, w), each by a fused kernel, so coordinates of two
    different fields raise FieldMismatch where the scalar operators would.
    """
    vu = _cross_sign(v.x, u.y, v.y, u.x)
    if not vu and _dot_sign(v.x, u.x, v.y, u.y) > 0:
        return True  # on ray u
    vw = _cross_sign(v.x, w.y, v.y, w.x)
    if not vw and _dot_sign(v.x, w.x, v.y, w.y) > 0:
        return False  # on ray w
    uw = _cross_sign(u.x, w.y, u.y, w.x)
    if uw > 0:  # convex sector
        return vu < 0 < vw
    if uw < 0:  # reflex sector: the complement of the convex [w, u)
        return not (vw < 0 < vu)
    # u, w opposite: a half plane
    return vu < 0


def segment_point(a: Vec2, b: Vec2, p: Vec2):
    """Parameter t in [0, 1] with p = a + t*(b - a), or None if p is off it."""
    e = b - a
    r = p - a
    if cross(e, r):
        return None
    num = dot(r, e)
    den = dot(e, e)
    t = num / den
    if t.sign() < 0 or t > 1:
        return None
    return t


def segments_intersect(a: Vec2, b: Vec2, c: Vec2, d: Vec2):
    """Proper parameters (t, s) of the crossing of [a,b] and [c,d], or None.

    Returns exact t, s in [0, 1] when the (non-parallel) supporting lines meet
    inside both segments.  Parallel segments always give None.
    """
    e1 = b - a
    e2 = d - c
    den = cross(e1, e2)
    if not den:
        return None
    w = c - a
    t = cross(w, e2) / den
    s = cross(w, e1) / den
    for v in (t, s):
        if v.sign() < 0 or v > 1:
            return None
    return t, s


def dist2_point_segment(p: Vec2, a: Vec2, b: Vec2) -> FieldScalar:
    """Exact squared distance from p to segment [a, b]."""
    e = b - a
    den = dot(e, e)
    if not den:
        w = p - a
        return dot(w, w)
    t = dot(p - a, e) / den
    if t.sign() < 0:
        t = _ZERO
    elif t > 1:
        t = _ONE
    q = a + e * t
    w = p - q
    return dot(w, w)


def _locate(vertices, edges, p: Vec2):
    """('vertex', v) / ('edge', e, t) / 'interior' / 'outside' for point p and
    the polygon with these vertices and edge vectors (edge e runs from vertex
    e to vertex e+1).  Winding test with exact crossings."""
    for v, q in enumerate(vertices):
        if p == q:
            return ("vertex", v)
    # one orientation sign of p against each edge decides both whether p
    # is on the edge and the edge's share of the winding number
    n = len(vertices)
    px, py = p.x, p.y
    below = [q.y <= py for q in vertices]
    winding = 0
    for e, edge in enumerate(edges):
        a = vertices[e]
        c = _orient_sign(edge.x, edge.y, a.x, a.y, px, py)
        if not c:
            t = dot(p - a, edge) / dot(edge, edge)
            if t.sign() >= 0 and t <= 1:
                return ("edge", e, t)
        a_le, b_le = below[e], below[(e + 1) % n]
        if a_le and not b_le and c > 0:
            winding += 1
        elif b_le and not a_le and c < 0:
            winding -= 1
    return "interior" if winding else "outside"


def polygon_contains(vertices: list[Vec2], p: Vec2) -> bool:
    """Point strictly inside / on the boundary of a convex-or-not polygon.

    Used only for coarse disk/polygon overlap tests, so a boundary hit counts
    as containment.
    """
    n = len(vertices)
    edges = [vertices[(i + 1) % n] - vertices[i] for i in range(n)]
    return _locate(vertices, edges, p) != "outside"


class Mat2:
    """Exact 2x2 matrix acting on column vectors."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (scalar(v) for v in (a, b, c, d))

    def __repr__(self):
        return "Mat2[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def det(self) -> FieldScalar:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return _mat(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, Vec2):
            return _vec(_lin(self.a, other.x, self.b, other.y),
                        _lin(self.c, other.x, self.d, other.y))
        return NotImplemented

    def inverse(self) -> "Mat2":
        det = self.det()
        if not det:
            raise ZeroDivisionError("singular matrix")
        return _mat(self.d / det, -self.b / det, -self.c / det, self.a / det)


def _mat(a: FieldScalar, b: FieldScalar, c: FieldScalar,
         d: FieldScalar) -> Mat2:
    """Mat2 from entries that are already FieldScalars (no coercion)."""
    m = _new(Mat2)
    m.a, m.b, m.c, m.d = a, b, c, d
    return m


def horocycle_matrix(s) -> Mat2:
    """Lower-triangular unipotent [[1, 0], [s, 1]]."""
    return Mat2(1, 0, s, 1)


def geodesic_matrix(u) -> Mat2:
    """diag(u, 1/u) for u > 0."""
    u = scalar(u)
    if u.sign() <= 0:
        raise NonPositive("geodesic parameter must be positive")
    return Mat2(u, 0, 0, 1 / u)


def normalize_to_vertical(direction: Vec2) -> Mat2:
    """A in SL2 sending `direction` to the vertical (0, 1).

    For (p, q) with q != 0 this is [[q, -p], [0, 1/q]]; the vertical itself
    uses q = 1 and is fixed.  For horizontal input it is the quarter turn.
    """
    p, q = direction.x, direction.y
    if not q:
        if not p:
            raise ZeroInput("zero direction")
        return Mat2(0, -p, 1 / p, 0)
    return Mat2(q, -p, 0, 1 / q)


def canonical_direction(v: Vec2) -> Vec2:
    """Positive rescale of v to primitive integer coordinates, upper half plane.

    Rational-slope directions land on coprime integers with y > 0, or y == 0
    and x > 0.  Irrational slopes are scaled so some coordinate is 1.
    """
    if v.is_zero():
        raise ZeroInput("zero direction")
    if v.x.is_rational and v.y.is_rational:
        fx, fy = v.x.as_fraction(), v.y.as_fraction()
        m = math.lcm(fx.denominator, fy.denominator)
        nx = fx.numerator * (m // fx.denominator)
        ny = fy.numerator * (m // fy.denominator)
        g = math.gcd(nx, ny)
        nx, ny = nx // g, ny // g
        if ny < 0 or (ny == 0 and nx < 0):
            nx, ny = -nx, -ny
        return Vec2(nx, ny)
    # irrational slope: divide by |x| or |y|, flip into the upper half plane
    ref = v.y if v.y else v.x
    w = _vec(v.x / abs(ref), v.y / abs(ref))
    if w.y.sign() < 0 or (not w.y and w.x.sign() < 0):
        w = -w
    return w


def boundary_point(v: Vec2):
    """Slope invariant x/y of a direction; None encodes the horizontal (infinity)."""
    if not v.y:
        return None
    return v.x / v.y
