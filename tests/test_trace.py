"""Exact straight-line flow: closed leaves, saddle connections, evidence
about whether separatrices through a point extend both ways.

The saddle-connection length multisets asserted here were derived by hand
unfolding before the tracer existed; they are the module's frozen oracles.
"""

from fractions import Fraction

import pytest

from veechkit.errors import (AmbiguousStart, InvalidParams, TraceOverflow,
                             VeechkitError)
from veechkit.field import FieldScalar, scalar
from veechkit.geometry import Mat2, Vec2
from veechkit.surface import Surface
from veechkit.trace import (CAPPED, CLOSED, MARKED, SINGULAR, advance,
                            departing_corners, is_connection_point_up_to,
                            saddle_connections, separatrices, trace)

GOLDEN = FieldScalar(Fraction(-1, 2), Fraction(1, 2), 5)


def sc_params(surface, direction, cap=20):
    return sorted(ev.param for _, ev in saddle_connections(surface, direction, cap=cap))


# ---------------------------------------------------------------------------
# basic flow
# ---------------------------------------------------------------------------

def test_torus_vertical_closes():
    t = Surface.square_torus()
    ev = trace(t, 0, Vec2(Fraction(1, 2), 0), Vec2(0, 1), cap=2)
    assert ev.kind == CLOSED
    assert ev.param == scalar(1)
    assert ev.length == scalar(1)


def test_torus_diagonal_through_regular_vertex():
    t = Surface.square_torus()
    ev = trace(t, 0, Vec2(0, 0), Vec2(1, 1), cap=3)
    assert ev.kind == CLOSED
    assert ev.length_squared == scalar(2)


def test_cap_exceeded():
    t = Surface.square_torus()
    ev = trace(t, 0, Vec2(Fraction(1, 3), Fraction(1, 5)), Vec2(0, 1),
               cap=scalar(Fraction(1, 2)))
    assert ev.kind == CAPPED
    assert (ev.length - scalar(Fraction(1, 2))).sign() > 0  # overshoot to a chart edge


def test_irrational_slope_does_not_close():
    t = Surface.square_torus()
    ev = trace(t, 0, Vec2(Fraction(1, 2), Fraction(1, 2)), Vec2(scalar(1), GOLDEN), cap=8)
    assert ev.kind == CAPPED  # minimality of the irrational flow


def test_max_steps_raises_typed_overflow_with_partial_path():
    t = Surface.square_torus()
    start = Vec2(Fraction(1, 2), Fraction(1, 2))
    direction = Vec2(scalar(1), GOLDEN)
    with pytest.raises(TraceOverflow) as info:
        trace(t, 0, start, direction, cap=1000, max_steps=5)
    assert isinstance(info.value, VeechkitError)
    segs = info.value.segments
    assert len(segs) == 5
    assert segs[0].a == start and not segs[0].tau0
    for s1, s2 in zip(segs, segs[1:]):
        assert s1.tau1 == s2.tau0
    # the partial path is the start of the unbounded trace
    full = trace(t, 0, start, direction, cap=8)
    assert [(s.polygon, s.a, s.b) for s in segs] == full.path[:5]


def test_ambiguous_start_at_cone():
    c = Surface.cross(1, 1)
    with pytest.raises(AmbiguousStart):
        trace(c, 0, Vec2(2, 1), Vec2(1, 0), cap=4)
    # picking a corner resolves it
    ev = trace(c, corner=(0, 2), direction=Vec2(1, 0), cap=4)
    assert ev.kind == SINGULAR


def test_marked_point_stop():
    t = Surface.square_torus(marked=[(0, (Fraction(1, 2), Fraction(1, 2)), "p")])
    ev = trace(t, 0, Vec2(Fraction(1, 2), 0), Vec2(0, 1), cap=2)
    assert ev.kind == MARKED and ev.mark == 0
    assert ev.param == scalar(Fraction(1, 2))
    ev = trace(t, 0, Vec2(Fraction(1, 2), 0), Vec2(0, 1), cap=2, stop_at_marked=False)
    assert ev.kind == CLOSED


def test_advance():
    t = Surface.square_torus()
    p, pt = advance(t, 0, Vec2(Fraction(1, 2), Fraction(1, 4)), Vec2(0, 1), Fraction(3, 2))
    assert (p, pt) == (0, Vec2(Fraction(1, 2), Fraction(3, 4)))
    with pytest.raises(InvalidParams):
        advance(t, 0, Vec2(Fraction(1, 2), Fraction(1, 4)), Vec2(0, 1), 0)


# ---------------------------------------------------------------------------
# saddle connections on the cross (frozen oracles)
# ---------------------------------------------------------------------------

def test_cross_separatrix_count():
    c = Surface.cross(1, 1)
    assert len(list(departing_corners(c, Vec2(1, 0)))) == 3
    assert len(list(departing_corners(c, Vec2(1, 1)))) == 3
    evs = separatrices(c, Vec2(1, 0), cap=20)
    assert len(evs) == 3


def test_cross_horizontal_connections():
    c = Surface.cross(1, 1)
    assert sc_params(c, Vec2(1, 0)) == [1, 1, 2]
    assert sc_params(c, Vec2(0, 1)) == [1, 1, 2]


def test_cross_diagonal_connections():
    c = Surface.cross(1, 1)
    assert sc_params(c, Vec2(1, 1)) == [1, 2, 2]
    assert sc_params(c, Vec2(1, 2)) == [1, 2, 2]
    assert sc_params(c, Vec2(2, 3)) == [1, 1, 1]
    assert sc_params(c, Vec2(3, 2)) == [1, 1, 1]


def test_torus_has_no_connections():
    t = Surface.square_torus()
    assert saddle_connections(t, Vec2(1, 0), cap=10) == []


# ---------------------------------------------------------------------------
# path invariants
# ---------------------------------------------------------------------------

def test_holonomy_is_param_times_direction():
    c = Surface.cross(1, 1)
    for d in (Vec2(1, 0), Vec2(1, 1), Vec2(2, 3)):
        for _, ev in saddle_connections(c, d, cap=20):
            assert ev.holonomy == d * ev.param


def test_path_segments_consistent():
    c = Surface.cross(1, 1)
    for _, ev in saddle_connections(c, Vec2(2, 3), cap=20):
        for seg in ev.segments:
            # segment lies along the direction
            delta = seg.b - seg.a
            assert delta.x * 3 == delta.y * 2
        for s1, s2 in zip(ev.segments, ev.segments[1:]):
            assert s2.tau0 == s1.tau1


def test_closed_leaf_reverses():
    t = Surface.square_torus()
    start = Vec2(Fraction(1, 3), Fraction(1, 5))
    fwd = trace(t, 0, start, Vec2(1, 2), cap=10)
    bwd = trace(t, 0, start, Vec2(-1, -2), cap=10)
    assert fwd.kind == CLOSED and bwd.kind == CLOSED
    assert fwd.param == bwd.param
    assert fwd.length_squared == bwd.length_squared


def test_affine_image_of_connection():
    """A saddle connection maps to a saddle connection with holonomy A*h."""
    c = Surface.cross(1, 1)
    a = Mat2(1, 1, 0, 1) * Mat2(1, 0, 1, 1)
    image = c.transform(a)
    for d in (Vec2(1, 0), Vec2(2, 3)):
        before = sorted((ev.holonomy.x, ev.holonomy.y)
                        for _, ev in saddle_connections(c, d, cap=20))
        expect = sorted(((a * Vec2(hx, hy)).x, (a * Vec2(hx, hy)).y)
                        for hx, hy in before)
        after = sorted((ev.holonomy.x, ev.holonomy.y)
                       for _, ev in saddle_connections(image, a * d, cap=60))
        assert after == expect


# ---------------------------------------------------------------------------
# connection-point evidence
# ---------------------------------------------------------------------------

def test_connection_evidence_torus_vacuous():
    t = Surface.square_torus(marked=[(0, (Fraction(1, 2), Fraction(1, 2)), "p")])
    rep = is_connection_point_up_to(t, "p", cap=4)
    assert rep.kind == "AllExtended" and rep.count == 0


def test_connection_evidence_cross_center():
    c = Surface.cross(1, 1, marked=[(0, (Fraction(3, 2), Fraction(3, 2)), "c")])
    rep = is_connection_point_up_to(c, "c", cap=6)
    assert rep.kind == "AllExtended"
    assert rep.count == 30


def test_connection_evidence_nonperiodic_point():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    rep = is_connection_point_up_to(c, "q", cap=6)
    # a report is produced; with this cap the bidirectional check fails
    assert rep.kind in ("FoundNonExtending", "AllExtended", "Exhausted")
    assert rep.kind == "FoundNonExtending" and rep.count == 1
    assert rep.witness["extension_direction"] is not None
