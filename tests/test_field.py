"""Exact quadratic-field arithmetic, commensurability, continued fractions.

sympy is used here as an independent oracle only; the library itself never
imports it.
"""

import json
import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from veechkit.errors import (FieldMismatch, NotCommensurable, ZeroInput)
from veechkit.field import (ContinuedFraction, FieldScalar, _affine, _cross,
                            _cross_sign, _dot_sign, _floor_times_sqrt, _lin,
                            _orient_sign, _sort_key,
                            commensurable, commensurability_classes,
                            continued_fraction, field_sqrt,
                            least_common_integer_multiple, parse_scalar,
                            scalar)
from veechkit.geometry import (Mat2, Vec2, _vec, ccw_sector_contains, cross,
                               parallel, same_ray)

GOLDEN = FieldScalar(Fraction(-1, 2), Fraction(1, 2), 5)   # (sqrt(5)-1)/2
SQRT5 = FieldScalar.sqrt_of(5)


def fracs(max_num=40, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def field_scalars(d=5):
    return st.builds(lambda a, b: FieldScalar(a, b, d), fracs(), fracs())


def to_sympy(x):
    return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.d)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_rational_collapse_and_tags():
    assert FieldScalar(2, 0, 5).d == 0
    assert FieldScalar(1, 1, 1) == scalar(2)
    with pytest.raises(ValueError):
        FieldScalar(1, 1, 12)   # 12 = 4*3 not squarefree
    with pytest.raises(ValueError):
        FieldScalar(1, 1, 0)


def test_mixing_fields_raises():
    with pytest.raises(FieldMismatch):
        FieldScalar(0, 1, 5) + FieldScalar(0, 1, 2)


def test_parse_scalar_forms():
    assert parse_scalar("3/2") == scalar(Fraction(3, 2))
    assert parse_scalar("sqrt(5)") == SQRT5
    assert parse_scalar("1/2+1/2*sqrt(5)") == FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_scalar("(1+sqrt(5))/2") == FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_scalar("-2") == scalar(-2)
    # round trip through str
    for x in (GOLDEN, scalar(Fraction(-7, 3)), SQRT5 * 2 - 1):
        assert parse_scalar(str(x)) == x


def test_json_round_trip():
    for x in (GOLDEN, scalar(0), scalar(Fraction(22, 7)), -SQRT5):
        assert FieldScalar.from_json(x.to_json()) == x
    assert GOLDEN.to_json() == {"d": 5, "a": "-1/2", "b": "1/2"}


# ---------------------------------------------------------------------------
# arithmetic (hypothesis + sympy oracle)
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(field_scalars(), field_scalars())
def test_mul_div_cancel(x, y):
    if not y:
        return
    assert (x * y) / y == x


@settings(max_examples=150, deadline=None)
@given(field_scalars(), field_scalars(), field_scalars())
def test_ring_identities(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) - y == x
    assert x * y == y * x


@settings(max_examples=150, deadline=None)
@given(field_scalars())
def test_sign_matches_sympy(x):
    assert x.sign() == int(sympy.sign(to_sympy(x)))


@settings(max_examples=150, deadline=None)
@given(field_scalars())
def test_floor_matches_sympy(x):
    n, r = x.floor_frac()
    assert n == int(sympy.floor(to_sympy(x)))
    assert x == r + n
    assert r.sign() >= 0 and (r - 1).sign() < 0


@settings(max_examples=100, deadline=None)
@given(field_scalars(), field_scalars())
def test_order_matches_sympy(x, y):
    assert (x < y) == bool(to_sympy(x) < to_sympy(y))


# ---------------------------------------------------------------------------
# the integer-triple kernel against the sympy oracle, over Q, Q(sqrt2), Q(sqrt5)
# ---------------------------------------------------------------------------

FIELDS = (0, 2, 5)
OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
       "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def sympy_value(a, b, d):
    return sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(d)


def sympy_parts(value, d):
    """(a, b) of an element of sympy's QQ or QQ(sqrt(d)), as Fractions."""
    if not d:
        return Fraction(int(value.p), int(value.q)), Fraction(0)
    coeffs = [Fraction(int(c.numerator), int(c.denominator))
              for c in value.to_list()]  # highest degree first
    b, a = ([Fraction(0), Fraction(0)] + coeffs)[-2:]
    return a, b


def is_reduced(f):
    return (type(f) is Fraction and f.denominator > 0
            and math.gcd(f.numerator, f.denominator) == 1)


@st.composite
def chains(draw):
    d = draw(st.sampled_from(FIELDS))
    part = (lambda: draw(fracs())) if d else (lambda: Fraction(0))
    start = (draw(fracs()), part())
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        # mode: another scalar, a plain int/Fraction, or the reflected form
        steps.append((draw(st.sampled_from(sorted(OPS))),
                      draw(st.sampled_from(("scalar", "plain", "reflected"))),
                      draw(fracs()), part()))
    return d, start, steps


@settings(max_examples=200, deadline=None)
@given(chains())
def test_parts_are_reduced_and_match_sympy_along_chains(chain):
    d, (a0, b0), steps = chain
    field = sympy.QQ.algebraic_field(sympy.sqrt(d)) if d else None

    def oracle(a, b):
        v = sympy_value(a, b, d)
        return field.from_sympy(v) if d else v

    x, ref = FieldScalar(a0, b0, d), oracle(a0, b0)
    for op, mode, a, b in steps:
        fn = OPS[op]
        if mode == "scalar":
            y, y_ref = FieldScalar(a, b, d), oracle(a, b)
        else:
            y, y_ref = a, oracle(a, 0)
        left, right = (y, x) if mode == "reflected" else (x, y)
        left_ref, right_ref = (y_ref, ref) if mode == "reflected" else (ref, y_ref)
        if op == "/" and not right:
            with pytest.raises(ZeroDivisionError):
                fn(left, right)
            continue
        x, ref = fn(left, right), fn(left_ref, right_ref)
        assert type(x) is FieldScalar
        assert is_reduced(x.a) and is_reduced(x.b)
        assert (x.a, x.b) == sympy_parts(ref, d)
        assert x.d == (d if x.b else 0)
        n, m, q, tag = x._t  # the canonical integer form behind == and hash
        assert q > 0 and math.gcd(n, m, q) == 1 and (tag == 0) == (m == 0)
    assert x.sign() == int(sympy.sign(sympy_value(x.a, x.b, d)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), fracs(), fracs(), fracs(), fracs())
def test_equal_scalars_have_equal_json_and_hash(d, a, b, c, k):
    x = FieldScalar(a, b if d else 0, d)
    y = FieldScalar(c, b if d else 0, d)
    # the same value reached along different paths
    for z in (x + y - y, (x * y) / y if y else x, (x - k) + k, -(-x), x * 1):
        assert z == x
        assert z.to_json() == x.to_json()
        assert hash(z) == hash(x)
        assert FieldScalar.from_json(z.to_json()) == x


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-10**30, 10**30), fracs(10**6, 10**6)))
def test_rationals_equal_and_hash_like_their_value(x):
    s = FieldScalar.rational(x)
    assert s == x and x == s
    assert hash(s) == hash(x)
    assert s.is_rational and s.as_fraction() == x
    assert len({s, x}) == 1
    assert s.d == 0 and s.b == 0


@settings(max_examples=100, deadline=None)
@given(fracs(), fracs().filter(bool), fracs(), fracs().filter(bool))
def test_mixed_tags_and_zero_division_still_raise(a, b, c, e):
    x, y = FieldScalar(a, b, 2), FieldScalar(c, e, 5)
    for fn in list(OPS.values()) + [lambda u, v: u < v, lambda u, v: u >= v]:
        with pytest.raises(FieldMismatch):
            fn(x, y)
        with pytest.raises(FieldMismatch):
            fn(y, x)
    assert x != y
    for zero in (0, Fraction(0), FieldScalar.rational(0), y - y):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / (x - x)


def test_floor_examples():
    assert SQRT5.floor_frac() == (2, SQRT5 - 2)
    assert scalar(Fraction(-1, 2)).floor_frac() == (-1, scalar(Fraction(1, 2)))
    assert scalar(3).floor_frac() == (3, scalar(0))


HASH_MODULUS = sys.hash_info.modulus


@settings(max_examples=150, deadline=None)
@given(st.integers(-3 * HASH_MODULUS, 3 * HASH_MODULUS),
       st.one_of(st.integers(1, 10**25),
                 st.integers(1, 3).map(lambda k: k * HASH_MODULUS)),
       st.sampled_from(FIELDS), fracs().filter(bool))
def test_equal_values_hash_equal(n, q, d, b):
    x = Fraction(n, q)
    s = FieldScalar.rational(x)
    assert hash(s) == hash(x)
    if x.denominator == 1:
        assert hash(s) == hash(int(x))
    r = FieldScalar(0, b, d) if d else scalar(b)
    for z in (s + r - r, s * r / r, -(-s)):
        assert z == s and hash(z) == hash(s)
    t = FieldScalar(x, b, d) if d else FieldScalar.rational(x + b)
    for z in (s + r, r + x, (t * r) / r):
        assert z == t and hash(z) == hash(t)


def test_hash_consistent_with_fraction():
    assert hash(scalar(Fraction(3, 2))) == hash(Fraction(3, 2))
    s = {scalar(1), 1}
    assert len(s) == 1
    # hash(-1) is -2 for ints and Fractions alike
    assert hash(scalar(-1)) == hash(-1) == hash(Fraction(-1)) == -2
    assert hash(scalar(Fraction(1, HASH_MODULUS))) == hash(
        Fraction(1, HASH_MODULUS))


def coordinates():
    """An int, a Fraction or a scalar of Q(sqrt5)."""
    return st.one_of(st.integers(-10**12, 10**12), fracs(), field_scalars())


@settings(max_examples=150, deadline=None)
@given(coordinates(), coordinates(), fracs())
def test_equal_points_hash_equal_whatever_route_built_them(x, y, k):
    # Vec2 hashes the integer forms of its coordinates: equal points built
    # by the constructor, by _vec, from JSON or by arithmetic hash equal and
    # find each other as dict keys
    point = Vec2(x, y)
    shift = Vec2(k, -k)
    routes = [point, _vec(scalar(x), scalar(y)),
              Vec2.from_json(point.to_json()),
              Vec2.from_json(json.loads(json.dumps(point.to_json()))),
              (point + shift) - shift, -(-point), point * 1]
    for a in routes:
        assert a == point and hash(a) == hash(point)
        table = {a: "found"}
        assert all(table.get(b) == "found" for b in routes)
    assert len(set(routes)) == 1
    # a pair of scalars still hashes like the pair of numbers it equals
    assert hash((scalar(x), scalar(y))) == hash((x, y))


# ---------------------------------------------------------------------------
# fused kernels against the scalar operators they replace, over Q, Q(sqrt2),
# Q(sqrt5)
# ---------------------------------------------------------------------------

def scalars_in(d):
    return st.builds(lambda a, b: FieldScalar(a, b, d), fracs(),
                     fracs() if d else st.just(Fraction(0)))


@st.composite
def same_field(draw, k):
    d = draw(st.sampled_from(FIELDS))
    return [draw(scalars_in(d)) for _ in range(k)]


@st.composite
def any_fields(draw, k):
    """k scalars, each with its own tag: the nonzero tags may differ."""
    return [draw(st.sampled_from(FIELDS).flatmap(scalars_in))
            for _ in range(k)]


def outcome(fn):
    """fn()'s value, or FieldMismatch when it raises that."""
    try:
        return fn()
    except FieldMismatch:
        return FieldMismatch


@settings(max_examples=150, deadline=None)
@given(same_field(4))
def test_fused_cross_is_the_two_product_formula(xs):
    a, b, c, e = xs
    want = a * b - c * e
    assert _cross(a, b, c, e)._t == want._t
    assert _cross_sign(a, b, c, e) == want.sign()
    assert _dot_sign(a, b, c, e) == (a * b + c * e).sign()
    # cross(u, v) = u.x*v.y - u.y*v.x
    u, v = Vec2(a, c), Vec2(e, b)
    assert cross(u, v)._t == want._t
    assert parallel(u, v) == (not want)


@settings(max_examples=150, deadline=None)
@given(same_field(4))
def test_fused_lin_and_affine_are_the_operator_forms(xs):
    a, b, c, e = xs
    assert _lin(a, b, c, e)._t == (a * b + c * e)._t
    assert _affine(a, b, c)._t == (a + b * c)._t


@settings(max_examples=100, deadline=None)
@given(same_field(6))
def test_matrix_image_is_the_unfused_formula(xs):
    a, b, c, d, x, y = xs
    assert image_parts(Mat2(a, b, c, d) * Vec2(x, y)) == (
        (a * x + b * y)._t, (c * x + d * y)._t)


@settings(max_examples=100, deadline=None)
@given(same_field(6))
def test_orient_sign_is_the_cross_of_the_difference(xs):
    ex, ey, ax, ay, px, py = xs
    r = Vec2(px, py) - Vec2(ax, ay)
    assert (_orient_sign(ex, ey, ax, ay, px, py)
            == (ex * r.y - ey * r.x).sign()
            == cross(Vec2(ex, ey), r).sign())


@settings(max_examples=150, deadline=None)
@given(same_field(3), st.one_of(st.integers(-3, 3), fracs()))
def test_comparisons_agree_with_the_sign_of_the_difference(xs, k):
    x, y, z = xs
    s = (x - y).sign()
    assert x._cmp(y) == s
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert x._cmp(k) == (x - k).sign()
    assert (x > k, x <= k) == ((x - k).sign() > 0, (x - k).sign() <= 0)
    # the exit screen of s <= 1: (c_e - den) against cx, not (c_e - cx) - den
    assert (x - z)._cmp(y) == ((x - y) - z).sign()
    # the leaf and barrier spans: y0 <= pt.y <= y1
    assert (z <= x <= y) == ((x - z).sign() >= 0 and (x - y).sign() <= 0)


@settings(max_examples=150, deadline=None)
@given(same_field(2), st.integers(-40, 40))
def test_sort_key_orders_as_the_values(xs, k):
    x, y = xs
    # y + k / 2**36 sits closer to y than the key's resolution
    for z in (y, y + Fraction(k, 2 ** 36), scalar(0)):
        assert (_sort_key(x) < _sort_key(z)) == (x < z)
        assert (_sort_key(x) == _sort_key(z)) == (x == z)
    assert _sort_key(x)[0] == math.floor(x * 2 ** 32)


def general_sort_key(x):
    """The sort key by its general formula, which a rational key skips."""
    n, m, q, d = x._t
    return ((n << 32) + _floor_times_sqrt(m << 32, d)) // q, x


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(scalars_in(0), scalars_in(5)), min_size=1,
                max_size=8))
def test_rational_sort_keys_match_the_general_formula(xs):
    xs = xs + [scalar(Fraction(-1, 3)), scalar(0), SQRT5 - 2, scalar(2 ** 40)]
    assert [_sort_key(x) for x in xs] == [general_sort_key(x) for x in xs]
    assert sorted(map(_sort_key, xs)) == sorted(map(general_sort_key, xs))
    assert [key[1] for key in sorted(map(_sort_key, xs))] == sorted(xs)


@settings(max_examples=200, deadline=None)
@given(any_fields(6))
def test_kernels_raise_field_mismatch_exactly_where_the_operators_do(xs):
    a, b, c, e, f, g = xs
    u, v, w = Vec2(a, b), Vec2(c, e), Vec2(f, g)
    pairs = [
        (lambda: _cross(a, b, c, e)._t, lambda: (a * b - c * e)._t),
        (lambda: _cross_sign(a, b, c, e), lambda: (a * b - c * e).sign()),
        (lambda: _dot_sign(a, b, c, e), lambda: (a * b + c * e).sign()),
        (lambda: _orient_sign(a, b, c, e, f, g),
         lambda: (a * (g - e) - b * (f - c)).sign()),
        (lambda: a._cmp(b), lambda: (a - b).sign()),
        (lambda: a <= b, lambda: (a - b).sign() <= 0),
        (lambda: cross(u, v)._t, lambda: (u.x * v.y - u.y * v.x)._t),
        (lambda: parallel(u, v), lambda: not (u.x * v.y - u.y * v.x)),
        (lambda: same_ray(u, v), lambda: reference_ray(u, v)),
        (lambda: _lin(a, b, c, e)._t, lambda: (a * b + c * e)._t),
        (lambda: _affine(a, b, c)._t, lambda: (a + b * c)._t),
        (lambda: image_parts(Mat2(a, b, c, e) * w),
         lambda: ((a * f + b * g)._t, (c * f + e * g)._t)),
    ]
    if not (u.is_zero() or v.is_zero() or w.is_zero()):
        pairs.append((lambda: ccw_sector_contains(u, v, w),
                      lambda: reference_sector(u, v, w)))
    for fused, reference in pairs:
        assert outcome(fused) == outcome(reference)


def image_parts(image):
    return image.x._t, image.y._t


def reference_cross(p, q):
    return p.x * q.y - p.y * q.x


def reference_ray(p, q):
    """same_ray as it was, on the scalar operators."""
    return not reference_cross(p, q) and (p.x * q.x + p.y * q.y).sign() > 0


def reference_sector(u, w, v):
    """ccw_sector_contains as it was, on the scalar operators."""
    cr = reference_cross
    if reference_ray(v, u):
        return True
    if reference_ray(v, w):
        return False
    cuw, cuv, cvw = cr(u, w).sign(), cr(u, v).sign(), cr(v, w).sign()
    if cuw > 0:
        return cuv > 0 and cvw > 0
    if cuw < 0:
        return not (cr(w, v).sign() > 0 and cr(v, u).sign() > 0)
    return cuv > 0


AXES = (Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1))


@st.composite
def sector_triples(draw):
    """(u, w, v), nonzero, over one of Q, Q(sqrt2), Q(sqrt5): v often on an
    axis, on ray u or on ray w; w now and then opposite u or on ray u."""
    d = draw(st.sampled_from(FIELDS))
    positive = scalars_in(d).map(lambda x: abs(x) + Fraction(1, 16))
    free = st.builds(Vec2, scalars_in(d), scalars_in(d)).filter(
        lambda p: not p.is_zero())
    axis = st.builds(lambda a, k: a * k, st.sampled_from(AXES), positive)
    u = draw(st.one_of(free, free, axis))
    w = draw(st.one_of(free, free, axis, positive.map(lambda k: u * -k),
                       positive.map(lambda k: u * k)))
    v = draw(st.one_of(free, axis, axis, positive.map(lambda k: u * k),
                       positive.map(lambda k: w * k)))
    return u, w, v


@settings(max_examples=300, deadline=None)
@given(sector_triples())
def test_sector_test_matches_the_cross_product_form(uwv):
    assert ccw_sector_contains(*uwv) == reference_sector(*uwv)


def test_sector_test_on_the_corners_of_a_square():
    east, north, west, south = AXES
    assert ccw_sector_contains(east, north, east)
    assert not ccw_sector_contains(east, north, north)
    assert ccw_sector_contains(east, north, Vec2(1, 1))
    assert not ccw_sector_contains(east, north, west)
    # reflex: from north all the way round to east
    assert ccw_sector_contains(north, east, south)
    assert ccw_sector_contains(north, east, Vec2(1, -1))
    assert not ccw_sector_contains(north, east, Vec2(1, 1))
    # a half plane
    assert ccw_sector_contains(east, west, north)
    assert not ccw_sector_contains(east, west, south)


def test_the_sector_test_raises_exactly_where_the_reference_does():
    # one sector test, its signs formed in the reference's order: each
    # triple raises FieldMismatch, or not, as the scalar operators do
    r2, r5 = FieldScalar.sqrt_of(2), FieldScalar.sqrt_of(5)
    cases = [
        # Q(sqrt2) against Q(sqrt5): cross(v, u) is sqrt5 - sqrt2
        ((Vec2(r2, 1), Vec2(-1, r2), Vec2(r5, 1)), FieldMismatch),
        # v on ray u: decided before w, from Q(sqrt5), is read
        ((Vec2(1, r2), Vec2(r5, 1), Vec2(2, 2 * r2)), True),
        # v on ray w, but cross(v, u) multiplies sqrt2 by sqrt5 first
        ((Vec2(r5, 1), Vec2(1, r2), Vec2(3, 3 * r2)), FieldMismatch),
        # v on the line of u, opposite: the dot sign mixes the fields
        ((Vec2(r2, 0), Vec2(r5, 1), Vec2(-r5, 0)), FieldMismatch),
        # v on the line of u, opposite, with a rational dot: no raise
        ((Vec2(r2, 0), Vec2(r5, 1), Vec2(-1, 0)), False),
        # sqrt5 * sqrt5 is rational: cross(v, u) = 5 - sqrt2 and
        # cross(v, w) = sqrt5, each in one field; cross(u, w) = 1
        ((Vec2(1, r5), Vec2(0, 1), Vec2(r5, r2)), False),
        # the same v and u, but cross(u, w) = 1 - sqrt5 * sqrt2, formed last
        ((Vec2(1, r5), Vec2(r2, 1), Vec2(r5, r2)), FieldMismatch),
    ]
    for uwv, want in cases:
        assert outcome(lambda: reference_sector(*uwv)) == want
        assert outcome(lambda: ccw_sector_contains(*uwv)) == want


def test_vectors_whose_tags_mix_across_coordinates():
    r5, r2 = FieldScalar.sqrt_of(5), FieldScalar.sqrt_of(2)
    # sqrt5*sqrt5 - sqrt2*1: each product stays in one field, so no raise
    assert cross(Vec2(r5, r2), Vec2(1, r5)) == 5 - r2
    assert cross(Vec2(1, r5), Vec2(r5, r2)) == r2 - 5
    assert not parallel(Vec2(r5, r2), Vec2(1, r5))
    # sqrt2*sqrt5 is a product across fields
    for fn in (cross, parallel):
        with pytest.raises(FieldMismatch):
            fn(Vec2(r5, r2), Vec2(r5, 1))
    # parallel without a raise, but the dot product mixes the fields
    assert parallel(Vec2(r2, 0), Vec2(r5, 0))
    with pytest.raises(FieldMismatch):
        same_ray(Vec2(r2, 0), Vec2(r5, 0))
    # sqrt5 - sqrt2 inside p - a
    with pytest.raises(FieldMismatch):
        _orient_sign(scalar(1), scalar(1), r2, scalar(0), r5, scalar(0))
    assert _orient_sign(scalar(1), scalar(0), r2, r5, r2, r5 + 1) == 1


# ---------------------------------------------------------------------------
# square roots in the field
# ---------------------------------------------------------------------------

def test_field_sqrt():
    assert field_sqrt(scalar(Fraction(9, 4))) == scalar(Fraction(3, 2))
    assert field_sqrt(scalar(5)) is None
    assert field_sqrt(scalar(5), ambient_d=5) == SQRT5
    # (1 + sqrt(5)/2)^2 = 9/4 + sqrt(5)
    x = FieldScalar(Fraction(9, 4), 1, 5)
    r = field_sqrt(x)
    assert r is not None and r * r == x and r.sign() > 0
    assert field_sqrt(scalar(-1)) is None
    assert field_sqrt(SQRT5 * SQRT5 / 5) == scalar(1)


@settings(max_examples=80, deadline=None)
@given(field_scalars())
def test_field_sqrt_of_squares(x):
    r = field_sqrt(x * x, ambient_d=5)
    assert r is not None
    assert r * r == x * x
    assert r.sign() >= 0


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------

def test_commensurable_examples():
    assert commensurable(scalar(3), scalar(Fraction(1, 2)))
    assert not commensurable(scalar(1), SQRT5)
    assert commensurable(SQRT5, 2 * SQRT5)
    with pytest.raises(ZeroInput):
        commensurable(scalar(0), scalar(1))


@settings(max_examples=100, deadline=None)
@given(field_scalars(), field_scalars(), field_scalars())
def test_commensurable_equivalence(x, y, z):
    if not (x and y and z):
        return
    assert commensurable(x, x)
    assert commensurable(x, y) == commensurable(y, x)
    if commensurable(x, y) and commensurable(y, z):
        assert commensurable(x, z)


def test_commensurability_classes():
    vals = [scalar(3), scalar(1), SQRT5, 2 * SQRT5]
    assert commensurability_classes(vals) == [[0, 1], [2, 3]]
    assert commensurability_classes([scalar(3), scalar(1), scalar(1)]) == [[0, 1, 2]]
    assert commensurability_classes([GOLDEN]) == [[0]]


def test_lcm_examples():
    assert least_common_integer_multiple([3, 1]) == scalar(3)
    assert least_common_integer_multiple([Fraction(1, 2), Fraction(1, 3)]) == scalar(1)
    assert least_common_integer_multiple([SQRT5, 2 * SQRT5]) == 2 * SQRT5
    with pytest.raises(NotCommensurable):
        least_common_integer_multiple([scalar(1), SQRT5])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), min_size=1, max_size=4))
def test_lcm_minimality_brute_force(pairs):
    """r/v_i integer for all i, and no multiple n*v_0 below r qualifies."""
    vals = [GOLDEN * Fraction(p, q) for (p, q) in pairs]
    r = least_common_integer_multiple(vals)
    for v in vals:
        f = (r / v).as_fraction()
        assert f.denominator == 1 and f > 0
    n = 1
    while True:
        cand = n * vals[0]
        if (cand - r).sign() >= 0:
            break
        if all((cand / v).is_rational and (cand / v).as_fraction().denominator == 1
               for v in vals):
            pytest.fail("%s smaller than claimed lcm %s" % (cand, r))
        n += 1


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

def test_cf_golden():
    cf = continued_fraction(GOLDEN, 6)
    assert cf.quotients == [0, 1, 1, 1, 1, 1]
    assert cf.convergents[1:5] == [(1, 1), (1, 2), (2, 3), (3, 5)]
    assert cf.periodic is not None
    pre, period = cf.periodic
    assert period == 1


def test_cf_sqrt5():
    cf = continued_fraction(SQRT5, 6)
    assert cf.quotients == [2, 4, 4, 4, 4, 4]
    assert cf.periodic is not None and cf.periodic[1] == 1
    # classic: sqrt(5) = [2; 4, 4, 4, ...]


def test_cf_rational_terminates():
    cf = continued_fraction(scalar(Fraction(7, 3)), 10)
    assert cf.quotients == [2, 3]
    assert cf.exact


@settings(max_examples=60, deadline=None)
@given(field_scalars())
def test_cf_matches_sympy_quotients(x):
    if x.sign() < 0:
        x = -x
    n = 8
    ours = continued_fraction(x, n)
    it = sympy.ntheory.continued_fraction_iterator(to_sympy(x))
    expect = []
    for _ in range(n):
        try:
            expect.append(int(next(it)))
        except StopIteration:
            break
    assert ours.quotients[:len(expect)] == expect


@settings(max_examples=60, deadline=None)
@given(field_scalars())
def test_cf_convergent_quality(x):
    """|x - p/q| < 1/q^2 for every convergent of an irrational."""
    if x.sign() <= 0 or x.is_rational:
        return
    cf = continued_fraction(x, 8)
    for (p, q) in cf.convergents:
        if q == 0:
            continue
        err = abs(x - Fraction(p, q))
        assert (err * q * q - 1).sign() < 0


def test_cf_convergent_recurrence():
    cf = continued_fraction(SQRT5, 10)
    p = [1, 0]
    q = [0, 1]
    for a, (pn, qn) in zip(cf.quotients, cf.convergents):
        p = [a * p[0] + p[1], p[0]]
        q = [a * q[0] + q[1], q[0]]
        assert (p[0], q[0]) == (pn, qn)
