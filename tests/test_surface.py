"""Surface construction: presets, gluing validation, singularities, genus.

The cone-angle values are cross-checked by an independent oracle that
identifies vertices straight from the gluing combinatorics and sums float
angles -- none of the library's exact sector machinery.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_covers import PINCHED, cyclic_covers
from veechkit.errors import (FieldMismatch, InconsistentTopology, InvalidParams,
                             VeechkitError)
from veechkit.field import FieldScalar, scalar
from veechkit.geometry import (Mat2, Vec2, cross, dot, polygon_contains,
                               segment_point, segments_intersect)
from veechkit.surface import (MarkedPoint, Polygon, Surface, _gluing_sides,
                              _interned, _meeting_edges, _polygon_problems,
                              singularities, validate)

PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)


# ---------------------------------------------------------------------------
# independent singularity oracle
# ---------------------------------------------------------------------------

def oracle_vertex_classes(surf):
    """Vertex classes from raw gluing data by union-find, each sorted, the
    classes in order of their least corners.

    A gluing (p,e)~(q,f) identifies vertex e with f+1 and e+1 with f.
    """
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p, poly in enumerate(surf.polygons):
        for v in range(poly.n):
            parent[(p, v)] = (p, v)
    for (p, e), (q, f) in surf.partner.items():
        np_, nq = surf.polygons[p].n, surf.polygons[q].n
        union((p, e), (q, (f + 1) % nq))
        union((p, (e + 1) % np_), (q, f))
    groups = {}
    for c in sorted(parent):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


def oracle_cone_angles(surf):
    """Cone angles of the oracle's vertex classes from float angle sums, in
    units of pi."""
    out = []
    for group in oracle_vertex_classes(surf):
        val = 0.0
        for p, v in group:
            poly = surf.polygons[p]
            a = poly.vertex(v - 1) - poly.vertex(v)
            b = poly.vertex(v + 1) - poly.vertex(v)
            ang = math.atan2(float(a.y), float(a.x)) - math.atan2(float(b.y), float(b.x))
            val += ang % (2 * math.pi)
        mult = round(val / math.pi)
        assert abs(val - mult * math.pi) < 1e-9, "angle not a pi multiple"
        out.append(mult)
    return sorted(out)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_square_torus():
    t = Surface.square_torus()
    assert t.genus() == 1
    assert t.area == scalar(1)
    assert t.singular_classes == []
    assert oracle_cone_angles(t) == [2]


def test_cross_basic():
    c = Surface.cross(1, 1)
    assert c.genus() == 2
    assert c.area == scalar(5)
    angles = [2 * w for w in c.cone_windings]
    assert sorted(angles) == [2, 2, 6]
    assert len(c.singular_classes) == 1
    assert oracle_cone_angles(c) == [2, 2, 6]
    # the 6pi class has zero order 2
    rows = singularities(c)
    sing = [r for r in rows if r[1] > 2]
    assert len(sing) == 1 and sing[0][1] == 6 and sing[0][2] == 2


def test_cross_area_formula():
    for a, b in [(1, 1), (2, 1), (1, 3), (PHI, 1)]:
        c = Surface.cross(a, b)
        a_, b_ = scalar(a), scalar(b)
        assert c.area == b_ * (4 * a_ + b_)
    # golden cross: 4*phi + 1 = 3 + 2*sqrt(5)
    g = Surface.cross(PHI, 1)
    assert g.area == FieldScalar(3, 2, 5)
    assert g.genus() == 2
    assert oracle_cone_angles(g) == [2, 2, 6]


def test_l_shape():
    s = Surface.l_shape(1, 1, 1, 1)
    assert s.genus() == 2
    assert sorted(2 * w for w in s.cone_windings if w > 1) == [6]
    assert oracle_cone_angles(s) == [x for x in oracle_cone_angles(s)]  # sane
    assert s.area == scalar(3)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_presets_validate_random_params(a, b, c, e):
    assert validate(*_raw(Surface.cross(Fraction(a, 2), b))) == []
    assert validate(*_raw(Surface.l_shape(a, b, c, e))) == []


def _raw(surf):
    polys = [p.vertices for p in surf.polygons]
    gluings = [(x, y) for x, y in surf.partner.items() if x <= y]
    return polys, gluings


def test_preset_invalid_params():
    with pytest.raises(InvalidParams):
        Surface.cross(0, 1)
    with pytest.raises(InvalidParams):
        Surface.l_shape(1, -1, 1, 1)


# ---------------------------------------------------------------------------
# validation as data
# ---------------------------------------------------------------------------

def test_validate_good_and_broken():
    sq = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    assert validate(sq, [((0, 0), (0, 2)), ((0, 1), (0, 3))]) == []
    out = validate(sq, [((0, 0), (0, 2))])
    assert any(v.startswith("UnmatchedEdge") for v in out)
    out = validate(sq, [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    assert any(v.startswith("NonParallelGluing") for v in out)
    # clockwise polygon
    out = validate([[(0, 0), (0, 1), (1, 1), (1, 0)]], [])
    assert any(v.startswith("NotCounterclockwise") for v in out)


SQ = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
SQ_GLUE = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
ROOT2 = FieldScalar(0, 1, 2)
# a chart whose edge 4, (1, 3) -> (1, 1), crosses its edge 2 at (1, 2)
CROSSING = ([[(0, 0), (2, 0), (2, 2), (0, 2), (1, 3), (1, 1)]],
            [((0, 0), (0, 2)), ((0, 1), (0, 4)), ((0, 3), (0, 5))])

# (description, validate tags as a sorted list, constructor exception type and
# message); one broken input per validate tag, plus errors found only once
# the checks pass
BROKEN = [
    (([[(0, 0), (1, 0), (1, 1), (0, "x")]], SQ_GLUE),
     ["BadPolygon: cannot parse scalar literal 'x'"],
     InvalidParams, "cannot parse scalar literal 'x'"),
    (([], []), ["Empty: need at least one polygon"],
     InvalidParams, "need at least one polygon"),
    (([[(0, 0), (1, 0)]], [((0, 0), (0, 1))]),
     ["BadPolygon(0): fewer than 3 vertices"],
     InvalidParams, "polygon 0 has fewer than 3 vertices"),
    (([[(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)]], SQ_GLUE),
     ["BadPolygon(0): zero-length edge", "EdgeMismatch((0,1),(0,3))",
      "NonParallelGluing((0,0),(0,2))", "UnmatchedEdge(0,4)"],
     InvalidParams, "polygon 0 has a zero edge 1"),
    (([[(0, 0), (0, 1), (1, 1), (1, 0)]], SQ_GLUE),
     ["NotCounterclockwise(0)"],
     InvalidParams, "polygon 0 must be counterclockwise with positive area"),
    # a spike that also passes through (2, 1) twice: tagged as a spike only
    (([[(0, 0), (2, 0), (2, 1), (3, 1), (2, 1), (0, 1)]],
      [((0, 0), (0, 4)), ((0, 1), (0, 5))]),
     ["UnmatchedEdge(0,2)", "UnmatchedEdge(0,3)", "ZeroAngleCorner(0,3)"],
     InvalidParams, "polygon 0 has a zero-angle corner at vertex 3"),
    ((SQ, [((0, 0), (0, 2)), ((0, 1), (0, 7))]),
     ["MissingEdge(0,7)", "UnmatchedEdge(0,1)", "UnmatchedEdge(0,3)"],
     InvalidParams, "gluing names missing edge (0, 7)"),
    ((SQ, [((0, 0), (0, 2)), ((0, 1), (0, 1))]),
     ["SelfGluing(0,1)", "UnmatchedEdge(0,1)", "UnmatchedEdge(0,3)"],
     InconsistentTopology, "edge (0, 1) glued to itself"),
    ((SQ, [((0, 0), (0, 2)), ((0, 2), (0, 0)), ((0, 1), (0, 3))]),
     ["DuplicateGluing(0,2)"],
     InconsistentTopology, "edge (0, 2) glued twice"),
    ((SQ, [((0, 0), (0, 1)), ((0, 2), (0, 3))]),
     ["NonParallelGluing((0,0),(0,1))", "NonParallelGluing((0,2),(0,3))"],
     InconsistentTopology, "edges (0, 0) and (0, 1) are not translation-opposite"),
    ((SQ + [[(0, 0), (2, 0), (2, 2), (0, 2)]],
      [((0, 0), (1, 2)), ((0, 2), (1, 0)), ((0, 1), (0, 3)), ((1, 1), (1, 3))]),
     ["EdgeMismatch((0,0),(1,2))", "EdgeMismatch((0,2),(1,0))"],
     InconsistentTopology, "edges (0, 0) and (1, 2) are not translation-opposite"),
    ((SQ, [((0, 0), (0, 2))]),
     ["UnmatchedEdge(0,1)", "UnmatchedEdge(0,3)"],
     InconsistentTopology, "edge (0, 1) left unglued"),
    # an unglued edge is met before a mismatched pair
    ((SQ + [[(0, 0), (2, 0), (2, 2), (0, 2)]],
      [((0, 0), (1, 2)), ((0, 1), (0, 3)), ((1, 1), (1, 3))]),
     ["EdgeMismatch((0,0),(1,2))", "UnmatchedEdge(0,2)", "UnmatchedEdge(1,0)"],
     InconsistentTopology, "edge (0, 2) left unglued"),
    # found after the checks: a mark on the cone point, a declared field
    (_raw(Surface.cross(1, 1)) + (None, [(0, (2, 1), "c")]),
     ["InvalidParams: cannot mark point at a singular vertex (cone angle 3*2pi)"],
     InvalidParams, "cannot mark point at a singular vertex (cone angle 3*2pi)"),
    (([[(0, 0), (1, 0), Vec2(1, ROOT2), Vec2(0, ROOT2)]], SQ_GLUE, 5),
     ["FieldMismatch: coordinate field tags [2] clash with declared d=5"],
     FieldMismatch, "coordinate field tags [2] clash with declared d=5"),
    # two squares meeting at (1, 1), one chart through (1, 1) twice
    (PINCHED, ["RepeatedVertex(0)"],
     InvalidParams, "polygon 0 passes through a vertex twice"),
    (CROSSING, ["CrossingEdges(0)"],
     InvalidParams, "polygon 0 has edges 2 and 4 that cross or touch"),
]


@pytest.mark.parametrize("args, tags, exc, message", BROKEN)
def test_validate_tags_and_constructor_errors(args, tags, exc, message):
    assert sorted(validate(*args)) == tags
    with pytest.raises(Exception) as info:
        Surface(*args)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("entry", [{"p1": 0, "e1": 0}, ((0, 0),), 7,
                                   ((0, 0), (0, "2")), ((0, 0), (0, 2, 1))])
def test_malformed_gluing_entry_is_one_problem(entry):
    gluings = [entry, ((0, 1), (0, 3))]
    assert validate(SQ, gluings) == [
        "BadGluing(0)", "UnmatchedEdge(0,0)", "UnmatchedEdge(0,2)"]
    with pytest.raises(InvalidParams, match="gluing 0 is not two"):
        Surface(SQ, gluings)


def test_gluing_entries_of_every_form_name_their_sides():
    # a tuple of two (int, int) tuples, as build_cover makes, is taken as
    # is; every other form is read the long way, with the same answers
    fast = ((0, 1), (2, 3))
    assert _gluing_sides(fast) is fast
    for entry in ([[0, 1], [2, 3]], ([0, 1], (2, 3)), ((0, 1), [2, 3]),
                  {"p1": 0, "e1": 1, "p2": 2, "e2": 3},
                  ((0, 1), (2, 3), (4, 5))):
        assert _gluing_sides(entry) == fast
    for entry in (((True, 1), (2, 3)), ((0, 1), (2, False)),
                  ((0, 1.0), (2, 3)), ((0, 1), (2, 3, 4)), ((0,), (2, 3)),
                  ((0, 1),), {"p1": 0, "e1": 1}, (0, 1), 7, None):
        assert _gluing_sides(entry) is None

# a clockwise square, a square with a zero-angle spike and a chart with a
# zero edge, each repeated; the tags name every index the polygon sits at
CW = [(0, 0), (0, 1), (1, 1), (1, 0)]
SPIKE = [(0, 0), (2, 0), (1, 0), (1, 1), (0, 1)]
FLAT = [(0, 0), (0, 0), (1, 1)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
REPEATED = [
    ([CW, CW], [((0, 0), (1, 2)), ((0, 1), (1, 3)), ((0, 2), (1, 0)),
                ((0, 3), (1, 1))],
     ["NotCounterclockwise(0)", "NotCounterclockwise(1)"]),
    ([SPIKE, SQUARE, SPIKE], [((0, 0), (2, 1)), ((1, 0), (1, 2))],
     ["ZeroAngleCorner(0,1)", "ZeroAngleCorner(2,1)", "UnmatchedEdge(0,1)",
      "UnmatchedEdge(0,2)", "UnmatchedEdge(0,3)", "UnmatchedEdge(0,4)",
      "UnmatchedEdge(1,1)", "UnmatchedEdge(1,3)", "UnmatchedEdge(2,0)",
      "UnmatchedEdge(2,2)", "UnmatchedEdge(2,3)", "UnmatchedEdge(2,4)",
      "EdgeMismatch((0,0),(2,1))"]),
    ([FLAT, SQUARE, FLAT], [((1, 0), (1, 2)), ((1, 1), (1, 3))],
     ["BadPolygon(0): zero-length edge", "BadPolygon(2): zero-length edge",
      "UnmatchedEdge(0,0)", "UnmatchedEdge(0,1)", "UnmatchedEdge(0,2)",
      "UnmatchedEdge(2,0)", "UnmatchedEdge(2,1)", "UnmatchedEdge(2,2)"]),
    # one (polygon, edge, polygon, edge) pair glued twice, not opposite
    ([SQUARE, SQUARE], [((0, 0), (1, 1)), ((1, 0), (0, 1)), ((0, 2), (1, 3)),
                        ((1, 2), (0, 3))],
     ["NonParallelGluing((0,0),(1,1))", "NonParallelGluing((1,0),(0,1))",
      "NonParallelGluing((0,2),(1,3))", "NonParallelGluing((1,2),(0,3))"]),
    # two copies of the pinched chart, each glued to the other
    (PINCHED[0] * 2, [((p, a), (1 - p, b)) for p in (0, 1)
                      for (_, a), (_, b) in PINCHED[1]],
     ["RepeatedVertex(0)", "RepeatedVertex(1)"]),
]


@pytest.mark.parametrize("polys, gluings, tags", REPEATED)
def test_validate_tags_every_index_of_a_repeated_bad_polygon(polys, gluings,
                                                             tags):
    assert validate(polys, gluings) == tags
    with pytest.raises(VeechkitError):
        Surface(polys, gluings)


def test_charts_with_the_same_vertices_share_one_polygon():
    # two unit squares side by side in a 2x1 torus, and a third copy of the
    # first given as a Polygon of its own: one object per vertex list
    left = [(0, 0), (1, 0), (1, 1), (0, 1)]
    right = [(1, 0), (2, 0), (2, 1), (1, 1)]
    polys = [left, right, Polygon(left), Polygon(right)]
    gluings = [((0, 1), (1, 3)), ((1, 1), (0, 3)), ((2, 1), (3, 3)),
               ((3, 1), (2, 3)), ((0, 0), (2, 2)), ((2, 0), (0, 2)),
               ((1, 0), (3, 2)), ((3, 0), (1, 2))]
    surf = Surface(polys, gluings)
    a, b, c, d = surf.polygons
    assert a is c and b is d and a is not b
    assert surf.area == 4 and surf.genus() == 1
    assert surf.default_cap() == 20 * 8
    # a Polygon given first is the one kept
    given = Polygon(left)
    assert Surface([given, right, left, right], gluings).polygons[2] is given
    # a Polygon object given again is kept as is, and an equal vertex list
    # given as a separate Polygon still merges with it
    again = Surface([given, right, given, Polygon(right)], gluings)
    assert again.polygons[0] is again.polygons[2] is given
    assert again.polygons[1] is again.polygons[3]
    copy = Polygon(left)
    assert all(poly is given
               for poly in _interned([given, copy, given, left, copy]))
    assert _interned([copy, given])[1] is copy
    # area and default_cap count a shared Polygon once per chart
    assert again.area == 4 and again.default_cap() == 20 * 8
    image = surf.transform(Mat2(1, 1, 0, 1))
    assert len(set(map(id, image.polygons))) == 2
    assert image.polygons[0] is image.polygons[2]
    assert image.polygons[1] is image.polygons[3]
    assert image.polygons[0].vertices == [Vec2(0, 0), Vec2(1, 0), Vec2(2, 1),
                                          Vec2(1, 1)]
    assert image == constructed_image(surf, Mat2(1, 1, 0, 1))
    assert surf.with_marks([(3, (Fraction(3, 2), Fraction(1, 2)))]
                           ).polygons[1] is b


def test_constructor_raises_on_bad_gluings():
    sq = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    with pytest.raises(InconsistentTopology):
        Surface(sq, [((0, 0), (0, 2))])
    with pytest.raises(InconsistentTopology):
        Surface(sq, [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    # two rectangles of different edge lengths
    polys = [[(0, 0), (2, 0), (2, 1), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)]]
    with pytest.raises(InconsistentTopology):
        Surface(polys, [((0, 0), (1, 2)), ((0, 1), (0, 3)), ((0, 2), (1, 0)),
                        ((1, 1), (1, 3))])


def test_field_mismatch_detection():
    v = FieldScalar(0, 1, 2)  # sqrt(2)
    with pytest.raises(FieldMismatch):
        Surface([[(0, 0), (1, 0), Vec2(1, v), Vec2(0, v)]],
                [((0, 0), (0, 2)), ((0, 1), (0, 3))], field_d=5)


# ---------------------------------------------------------------------------
# genus two routes
# ---------------------------------------------------------------------------

def test_genus_euler_counts():
    c = Surface.cross(1, 1)
    v = len(c.vertex_classes)
    e = len(c.partner) // 2
    f = len(c.polygons)
    assert (v, e, f) == (3, 6, 1)
    assert v - e + f == 2 - 2 * c.genus()


def test_gauss_bonnet():
    for s in (Surface.square_torus(), Surface.cross(1, 1),
              Surface.cross(PHI, 1), Surface.l_shape(1, 2, 1, 1)):
        excess = sum(w - 1 for w in s.cone_windings)
        assert excess == 2 * s.genus() - 2


# ---------------------------------------------------------------------------
# marked points
# ---------------------------------------------------------------------------

def test_mark_interior_and_label():
    t = Surface.square_torus(marked=[(0, (Fraction(1, 2), Fraction(1, 3)), "p")])
    assert len(t.marked) == 1
    mp = t.marked[0]
    assert mp.kind == "interior" and mp.label == "p"
    assert t.mark_by_label("p") == 0
    with pytest.raises(VeechkitError):
        t.mark_by_label("q")


def test_mark_on_edge_has_aliases():
    t = Surface.square_torus(marked=[(0, (Fraction(1, 2), 0), "e")])
    mp = t.marked[0]
    assert mp.kind == "edge"
    assert len(mp.aliases) == 2
    pts = sorted(str(pt) for _, pt in mp.aliases)
    assert any("1/2" in s for s in pts)


def test_mark_at_singular_vertex_rejected():
    with pytest.raises(InvalidParams):
        Surface.cross(1, 1, marked=[(0, (2, 1), "bad")])  # the 6pi cone


def test_mark_at_regular_vertex_allowed():
    t = Surface.square_torus(marked=[(0, (0, 0), "v")])
    assert t.marked[0].kind == "vertex"
    # all four corners of the square name the same point
    assert len(t.marked[0].aliases) == 4


def test_mark_outside_rejected():
    with pytest.raises(InvalidParams):
        Surface.square_torus(marked=[(0, (2, 2), "far")])


def test_point_aliases():
    t = Surface.square_torus()
    assert t.point_aliases(0, Vec2(Fraction(1, 2), Fraction(1, 2))) == \
        [(0, Vec2(Fraction(1, 2), Fraction(1, 2)))]
    edge = t.point_aliases(0, Vec2(Fraction(1, 2), 0))
    assert len(edge) == 2


def reference_locate(poly, p):
    """Polygon.locate as it was before the one-pass form: vertices, then
    edges through segment_point, then a winding loop with its own cross
    products."""
    for v, q in enumerate(poly.vertices):
        if p == q:
            return ("vertex", v)
    for e in range(poly.n):
        t = segment_point(poly.vertices[e], poly.vertices[(e + 1) % poly.n], p)
        if t is not None:
            return ("edge", e, t)
    winding = 0
    for i in range(poly.n):
        a, b = poly.vertices[i], poly.vertices[(i + 1) % poly.n]
        a_le = (a.y - p.y).sign() <= 0
        b_le = (b.y - p.y).sign() <= 0
        if a_le and not b_le and cross(b - a, p - a).sign() > 0:
            winding += 1
        elif b_le and not a_le and cross(b - a, p - a).sign() < 0:
            winding -= 1
    return "interior" if winding else "outside"


SL2_WORDS = (Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), Mat2(1, -1, 0, 1),
             Mat2(1, 0, -1, 1), Mat2(0, -1, 1, 0))


@st.composite
def chart_points(draw):
    """(polygon, point): a chart of a random unimodular image of the cross
    or the L-shape over Q or Q(sqrt5), and a vertex, a point on an edge or
    on an edge's line beyond it, or a point in or around its bounding box."""
    sizes = [1, Fraction(1, 2), Fraction(3, 2)]
    if draw(st.booleans()):
        sizes += [PHI, PHI - 1]
    size = st.sampled_from(sizes)
    if draw(st.booleans()):
        surf = Surface.cross(draw(size), draw(size))
    else:
        surf = Surface.l_shape(draw(size), draw(size), draw(size), draw(size))
    for g in draw(st.lists(st.sampled_from(SL2_WORDS), max_size=3)):
        surf = surf.transform(g)
    poly = draw(st.sampled_from(surf.polygons))
    k = draw(st.integers(0, poly.n - 1))
    kind = draw(st.sampled_from(("vertex", "edge", "line", "free")))
    if kind == "vertex":
        return poly, poly.vertex(k)
    if kind in ("edge", "line"):
        t = (Fraction(draw(st.integers(1, 7)), 8) if kind == "edge" else
             draw(st.sampled_from((Fraction(-1, 2), Fraction(3, 2), 2))))
        return poly, poly.vertex(k) + poly.edge(k) * t
    x0, y0, x1, y1 = poly.bbox()
    u, w = (Fraction(draw(st.integers(-2, 10)), 8) for _ in range(2))
    return poly, Vec2(x0 + (x1 - x0) * u, y0 + (y1 - y0) * w)


@settings(max_examples=400, deadline=None)
@given(chart_points())
def test_locate_matches_reference(case):
    poly, p = case
    assert poly.locate(p) == reference_locate(poly, p)


def reference_polygon_contains(vertices, p):
    """polygon_contains as it was before it shared Polygon.locate's loop:
    a boundary hit through segment_point, else a winding loop."""
    n = len(vertices)
    winding = 0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        if segment_point(a, b, p) is not None:
            return True
        ay_le = (a.y - p.y).sign() <= 0
        by_le = (b.y - p.y).sign() <= 0
        if ay_le and not by_le:
            if cross(b - a, p - a).sign() > 0:
                winding += 1
        elif by_le and not ay_le:
            if cross(b - a, p - a).sign() < 0:
                winding -= 1
    return winding != 0


@settings(max_examples=400, deadline=None)
@given(chart_points(), st.booleans())
def test_polygon_contains_matches_reference(case, clockwise):
    poly, p = case
    vertices = poly.vertices[::-1] if clockwise else poly.vertices
    assert polygon_contains(vertices, p) == \
        reference_polygon_contains(vertices, p)


# ---------------------------------------------------------------------------
# transform: the validating constructor is the oracle
# ---------------------------------------------------------------------------

SQRT2 = FieldScalar(0, 1, 2)
SQRT3 = FieldScalar(0, 1, 3)
SIZES = {0: (1, Fraction(1, 2), Fraction(3, 2)),
         2: (SQRT2, SQRT2 - 1, (SQRT2 + 1) / 2),
         5: (PHI, PHI - 1, (PHI + 1) / 3)}
SCALES = (2, Fraction(1, 3), SQRT2, PHI, SQRT3 + 1)


def constructed_image(surf, mat):
    """The image of `surf` under `mat`, built and checked from scratch."""
    polys = [[mat * v for v in poly.vertices] for poly in surf.polygons]
    gluings = [(a, b) for a, b in surf.partner.items() if a <= b]
    marked = [(mp.polygon, mat * mp.at, mp.label) for mp in surf.marked]
    return Surface(polys, gluings, marked=marked,
                   point_labels=surf.point_labels)


# what a map recomputes; every other table of an image is its source's own
MAPPED = {"polygons", "field_d", "translation", "marked", "point_labels"}


def assert_same_image(got, expect, source):
    """`got`, the image of `source` by transform, against `expect`, the same
    image built by the constructor: every attribute (every slot of Surface)
    is equal, and each one a map keeps is the source's own object, so a
    table added to the constructor is checked here unnamed."""
    for name in Surface.__slots__:
        if name not in MAPPED:
            assert getattr(got, name) is getattr(source, name), name
    assert got.point_labels is not source.point_labels
    assert got == expect
    for name in Surface.__slots__:
        value = getattr(expect, name)
        if name == "polygons":
            assert [p.vertices for p in got.polygons] == \
                [p.vertices for p in value]
        elif name == "marked":
            assert [(mp.polygon, mp.at, mp.label, mp.kind, mp.where,
                     mp.aliases) for mp in got.marked] == \
                [(mp.polygon, mp.at, mp.label, mp.kind, mp.where, mp.aliases)
                 for mp in value]
        elif name == "_symmetries":  # found on first use, by either
            assert got._chart_symmetries() == expect._chart_symmetries()
        else:
            assert getattr(got, name) == value, name


@st.composite
def marked_surfaces(draw):
    """A cross or an L-shape over Q, Q(sqrt2) or Q(sqrt5) (one side from
    the field, the others from the field or Q), with up to three marks at
    interior, edge and regular-vertex points."""
    d = draw(st.sampled_from(sorted(SIZES)))
    make = draw(st.sampled_from((Surface.cross, Surface.l_shape)))
    args = [draw(st.sampled_from(SIZES[0] + SIZES[d]))
            for _ in range(2 if make == Surface.cross else 4)]
    args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(SIZES[d]))
    surf = make(*args)
    marks = []
    for i in range(draw(st.integers(0, 3))):
        p = draw(st.integers(0, len(surf.polygons) - 1))
        poly = surf.polygons[p]
        k = draw(st.integers(0, poly.n - 1))
        kind = draw(st.sampled_from(("interior", "edge", "vertex")))
        if kind == "vertex":
            at = poly.vertex(k)
        elif kind == "edge":
            at = poly.vertex(k) + poly.edge(k) * Fraction(
                draw(st.integers(1, 7)), 8)
        else:
            x0, y0, x1, y1 = poly.bbox()
            u, w = (Fraction(draw(st.integers(1, 15)), 16) for _ in range(2))
            at = Vec2(x0 + (x1 - x0) * u, y0 + (y1 - y0) * w)
        try:  # skip points outside the chart, on the cone or marked twice
            make(*args, marked=marks + [(p, at, "m%d" % i)])
        except InvalidParams:
            continue
        marks.append((p, at, "m%d" % i))
    return make(*args, marked=marks)


@st.composite
def positive_matrices(draw):
    """An SL2(Z) word of length <= 4, now and then times a diagonal scaling
    (determinant 1 or not) or a shear whose entry may lie in another
    quadratic field."""
    mat = Mat2.identity()
    for g in draw(st.lists(st.sampled_from(SL2_WORDS), max_size=4)):
        mat = g * mat
    extra = draw(st.sampled_from((None, None, "unimodular", "stretch",
                                  "shear")))
    if extra:
        lam = draw(st.sampled_from(SCALES))
        mat = {"unimodular": Mat2(lam, 0, 0, Fraction(1) / lam),
               "stretch": Mat2(lam, 0, 0, 1),
               "shear": Mat2(1, lam, 0, 1)}[extra] * mat
    return mat


@settings(max_examples=100, deadline=None)
@given(marked_surfaces(), positive_matrices(), st.booleans())
def test_transform_matches_the_constructor(surf, mat, found):
    if found:  # the image shares the symmetries, found or not yet
        surf._chart_symmetries()
    try:
        expect = constructed_image(surf, mat)
    except FieldMismatch:
        with pytest.raises(FieldMismatch):
            surf.transform(mat)
        return
    assert_same_image(surf.transform(mat), expect, surf)


@settings(max_examples=50, deadline=None)
@given(marked_surfaces(), positive_matrices())
def test_each_mark_keeps_where_its_canonical_alias_lies(surf, mat):
    # a mark named from the far side of an edge or at another corner of its
    # vertex keeps the location of its canonical alias, derived from the
    # one found where it was named; transform carries it over unchanged
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        image = surf
    for s in (surf, image):
        for mp in s.marked:
            assert mp.where == s.polygons[mp.polygon].locate(mp.at)
            assert mp.kind == (mp.where if mp.where == "interior"
                               else mp.where[0])


@settings(max_examples=50, deadline=None)
@given(marked_surfaces())
def test_corner_cycles_chain_and_fill_their_classes(surf):
    # the two invariants the corner walk relies on without checking them
    for c in surf.class_of:
        assert surf.ray_in(c) == surf.ray_out(surf.next_corner(c))
    for cycle, group in zip(surf.corner_cycles, surf.vertex_classes):
        assert sorted(cycle) == group


@settings(max_examples=40, deadline=None)
@given(st.one_of(marked_surfaces(), cyclic_covers().map(lambda case: case[1])))
def test_vertex_classes_are_the_unions_of_glued_corners(surf):
    # the corner walk finds the classes the gluings make, numbered by least
    # corner, against a union-find over the partner map
    classes = oracle_vertex_classes(surf)
    assert surf.vertex_classes == classes
    assert surf.class_of == {c: i for i, group in enumerate(classes)
                             for c in group}


@settings(max_examples=50, deadline=None)
@given(marked_surfaces(), positive_matrices())
def test_translations_map_each_edge_onto_its_partner(surf, mat):
    # each side's translation is computed afresh here, though the surface
    # computes one per glued pair and negates it for the partner side
    try:
        surf = surf.transform(mat)
    except FieldMismatch:
        return
    assert surf.translation.keys() == surf.partner.keys()
    for (p, e), (q, f) in surf.partner.items():
        assert surf.translation[(p, e)] == (surf.polygons[q].vertex(f + 1)
                                            - surf.polygons[p].vertex(e))


def test_transform_settles_the_field_as_the_constructor_does():
    # a sqrt3 mark in a rational chart of a golden L-shape is refused,
    # though it meets only rational coordinates
    with pytest.raises(FieldMismatch, match=r"sqrt\(5\) with sqrt\(3\)"):
        Surface.l_shape(1, 1, 1, PHI,
                        marked=[(0, (SQRT3 / 3, Fraction(1, 2)), "q")])
    for surf, mat, message in (
            # rational x and golden y, x stretched into Q(sqrt2)
            (Surface.l_shape(1, PHI, 1, PHI), Mat2(SQRT2, 0, 0, 1),
             "coordinates span several quadratic fields"),
            # a golden mark on a rational cross stretched into Q(sqrt2)
            (Surface.cross(1, 1, marked=[(0, (PHI, Fraction(3, 2)), "q")]),
             Mat2(1, 0, 0, SQRT2), "cannot mix")):
        with pytest.raises(FieldMismatch, match=message):
            constructed_image(surf, mat)
        with pytest.raises(FieldMismatch, match=message):
            surf.transform(mat)


def test_marks_from_a_second_quadratic_field_are_refused():
    golden = Surface.l_shape(1, 1, 1, PHI)
    polys = [poly.vertices for poly in golden.polygons]
    gluings = [(a, b) for a, b in golden.partner.items() if a <= b]
    third = (0, (SQRT3 / 3, Fraction(1, 2)))
    for field_d, marks in ((5, [third]), (None, [third]),
                           (None, [(0, (Fraction(1, 3), SQRT2 / 2))])):
        with pytest.raises(FieldMismatch, match="cannot mix"):
            Surface(polys, gluings, field_d=field_d, marked=marks)
    square = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    with pytest.raises(FieldMismatch, match="cannot mix"):
        Surface(square, SQ_GLUE, field_d=5, marked=[third])
    with pytest.raises(FieldMismatch, match="cannot mix"):
        Surface(square, SQ_GLUE, marked=[(0, (PHI - 1, Fraction(1, 2))),
                                         third])
    with pytest.raises(FieldMismatch, match="cannot mix"):
        Surface(square, SQ_GLUE, marked=[(0, (PHI - 1, SQRT2 / 2))])
    # a rational surface keeps field 0 with marks from one quadratic field
    surf = Surface(square, SQ_GLUE, marked=[(0, (PHI - 1, Fraction(1, 2))),
                                           (0, (Fraction(1, 3), PHI - 1))])
    assert surf.field_d == 0 and surf.to_json()["field"] == {"d": 0}
    assert Surface.from_json(surf.to_json()) == surf
    # a rational mark on a golden surface, and a golden one
    assert Surface(polys, gluings, marked=[
        (0, (Fraction(1, 3), Fraction(1, 2))),
        (2, (Fraction(1, 2), PHI))]).field_d == 5


def test_transform_rejects_nonpositive_determinant():
    for mat in (Mat2(0, 1, 1, 0), Mat2(1, 0, 0, 0)):
        with pytest.raises(InvalidParams, match="positive determinant"):
            Surface.cross(1, 1).transform(mat)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    for s in (Surface.square_torus(marked=[(0, (Fraction(1, 2), Fraction(1, 3)), "p")]),
              Surface.cross(PHI, 1),
              Surface.l_shape(1, 2, 3, 1)):
        back = Surface.from_json(s.to_json())
        assert back == s


def test_from_json_raises_typed_errors():
    with pytest.raises(InvalidParams, match="'polygons'"):
        Surface.from_json({})
    obj = Surface.square_torus().to_json()
    obj["polygons"][0]["vertices"][1] = [1, 0]
    with pytest.raises(InvalidParams, match="not 1"):
        Surface.from_json(obj)
    assert FieldScalar.from_json("1/2") == FieldScalar.from_json({"a": "1/2"})


def description_json(description):
    """The surface JSON of a (polygons, gluings) description, checked or
    not."""
    polys, gluings = description
    return {"polygons": [{"vertices": [[str(x), str(y)] for x, y in poly]}
                         for poly in polys],
            "gluings": [{"p1": a[0], "e1": a[1], "p2": b[0], "e2": b[1]}
                        for a, b in gluings]}


def test_from_json_refuses_a_chart_through_a_vertex_twice():
    with pytest.raises(InvalidParams,
                       match="polygon 0 passes through a vertex twice"):
        Surface.from_json(description_json(PINCHED))


def test_from_json_refuses_a_chart_whose_edges_cross():
    with pytest.raises(InvalidParams, match="^polygon 0 has edges 2 and 4 "
                                            "that cross or touch$"):
        Surface.from_json(description_json(CROSSING))


def test_edges_that_touch_or_cross_off_the_rationals_are_refused():
    # vertex 4, (2, 0), touches edge 0 between its ends; and the crossing
    # chart stretched by the golden ratio still crosses, where only exact
    # arithmetic on Q(sqrt5) can tell
    touch = [(0, 0), (4, 0), (4, 2), (3, 2), (2, 0), (1, 2), (0, 2)]
    assert _polygon_problems(0, Polygon(touch))[0][0] == "CrossingEdges(0)"
    stretch = Mat2(PHI, 0, 0, 1)
    polys = [[stretch * Vec2(x, y) for x, y in CROSSING[0][0]]]
    assert validate(polys, CROSSING[1]) == ["CrossingEdges(0)"]


def share_point(a, b, c, d):
    """Whether segments [a, b] and [c, d] meet, collinear overlaps
    included: the reference for the checker's crossing test."""
    if segments_intersect(a, b, c, d) is not None:
        return True
    e = b - a
    if cross(e, d - c) or cross(e, c - a):
        return False  # not collinear
    (lo, hi), (lo2, hi2) = (sorted([dot(e, p), dot(e, q)])
                            for p, q in ((a, b), (c, d)))
    return max(lo, lo2) <= min(hi, hi2)


@st.composite
def vertex_loops(draw):
    """3 to 8 distinct points of a 4 x 4 grid, now and then stretched
    horizontally by the golden ratio, as a chart's vertex list."""
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=3, max_size=8, unique=True))
    scale = draw(st.sampled_from((1, PHI)))
    return [Vec2(x * scale, y) for x, y in pts]


@settings(max_examples=300, deadline=None)
@given(vertex_loops())
# edges 0 and 3 overlap on the line y = 2, and no two edges cross
@example([Vec2(x, y) for x, y in ((2, 2), (0, 2), (2, 1), (3, 2), (1, 2))])
def test_a_chart_with_meeting_edges_has_a_problem(vs):
    # the floor boxes drop no pair that meets, and a chart whose edges meet
    # on a line, where segments_intersect sees nothing, shows another problem
    poly, n = Polygon(vs), len(vs)
    pairs = [(e, f) for e in range(n) for f in range(e + 2, n)
             if (e, f) != (0, n - 1)]
    crossing = [(e, f) for e, f in pairs if segments_intersect(
        vs[e], vs[(e + 1) % n], vs[f], vs[(f + 1) % n]) is not None]
    meeting = [(e, f) for e, f in pairs if share_point(
        vs[e], vs[(e + 1) % n], vs[f], vs[(f + 1) % n])]
    assert _meeting_edges(poly) == (crossing[0] if crossing else None)
    if meeting:
        assert _polygon_problems(0, poly)


def test_transform_preserves_structure():
    c = Surface.cross(1, 1, marked=[(0, (Fraction(3, 2), Fraction(3, 2)), "p")])
    h = Mat2(1, 0, 1, 1)
    image = c.transform(h)
    assert image.area == c.area
    assert sorted(image.cone_windings) == sorted(c.cone_windings)
    assert image.genus() == 2
    with pytest.raises(InvalidParams):
        c.transform(Mat2(1, 0, 0, -1))
