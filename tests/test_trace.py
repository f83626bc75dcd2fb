"""Exact straight-line flow: closed leaves, saddle connections, evidence
about whether separatrices through a point extend both ways.

The saddle-connection length multisets asserted here were derived by hand
unfolding before the tracer existed; they are the module's frozen oracles.
"""

import importlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veechkit.census import census, cusp_invariant
from veechkit.covers import CoverSpec, Slit, cyclic_slit_cover
from veechkit.cylinders import decompose, dehn_twist_point
from veechkit.errors import (AmbiguousStart, FieldMismatch,
                             InconsistentTopology, InvalidParams,
                             TraceOverflow, VeechkitError, ZeroInput)
from veechkit.field import (FieldScalar, _affine, _sort_key, field_sqrt,
                            scalar)
from veechkit.geometry import (Mat2, Vec2, ccw_sector_contains, cross, dot,
                               same_ray, segment_point)
from veechkit.surface import _HOLD, _MISS, _SLIDE, Surface, _sector_row
from veechkit.trace import (CAPPED, CLOSED, MARKED, SINGULAR, STOPPED,
                            _exit_solve, _Flow, _start_state, _Table, advance,
                            departing_corners, is_connection_point_up_to,
                            saddle_connections, separatrices, trace)

from test_covers import cyclic_covers
from test_surface import marked_surfaces, positive_matrices

GOLDEN = FieldScalar(Fraction(-1, 2), Fraction(1, 2), 5)
PHI = GOLDEN + 1
F = Fraction


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


def test_torus_diagonal_length_is_not_in_the_field():
    # |(1, 1)| = sqrt2 is not rational: no length, its square only
    t = Surface.square_torus()
    ev = trace(t, 0, Vec2(0, 0), Vec2(1, 1), cap=3)
    assert (ev.vlen, ev.length, ev.param) == (None, None, scalar(1))


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(),
       st.sampled_from(((0, 1), (-1, 0), (3, 4), (1, 2), (1, 1), (-2, 3))))
def test_trace_lengths_are_read_from_the_param_and_the_flow(surf, direction):
    # length and length_squared are computed when read; on an axis, off
    # it with |v| in the field and off it without, they are |v| * param
    # and param^2 * dot(v, v), |v| taken here in the surface's field
    v = Vec2(*direction)
    vv = dot(v, v)
    vlen = field_sqrt(vv, surf.field_d)
    flow = _Flow(surf, v)
    cap = surf.default_cap() / 4
    events = [ev for _, ev in separatrices(surf, flow, cap=cap)]
    events += [trace(surf, mp.polygon, mp.at, flow, cap=cap,
                     stop_at_marked=False) for mp in surf.marked]
    for ev in events:
        assert ev.length_squared == ev.param * ev.param * vv
        assert ev.length == (None if vlen is None else vlen * ev.param)


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


def test_a_hook_stop_at_a_cone_point_reports_the_cone():
    # a stop_on hook returns a flow parameter; a stop exactly where the
    # trace reaches a cone point ties with the cone, which wins and reports
    # its arrival corner
    c = Surface.cross(1, 1)
    start, v = _v(F(3, 2), F(1, 2)), Vec2(1, 1)
    plain = trace(c, 0, start, v, stop_at_marked=False)
    assert plain.kind == SINGULAR and plain.segments[-1].b == Vec2(2, 1)

    def stop_at(tau):
        return lambda seg: (tau, "hook") if seg.tau1 >= tau else None

    at_cone = trace(c, 0, start, v, stop_at_marked=False,
                    stop_on=stop_at(plain.param))
    assert (at_cone.kind, at_cone.param, at_cone.corner, at_cone.payload) == (
        SINGULAR, plain.param, plain.corner, None)
    assert at_cone.path == plain.path
    # short of the cone the hook wins, and its segment is cut there
    short = trace(c, 0, start, v, stop_at_marked=False,
                  stop_on=stop_at(plain.param / 2))
    assert (short.kind, short.param, short.payload) == (
        STOPPED, plain.param / 2, "hook")
    assert short.segments[-1].b == _v(F(7, 4), F(3, 4))
    # advance takes either ending at exactly its step
    assert advance(c, 0, start, v, plain.param) == (0, Vec2(2, 1))
    assert advance(c, 0, start, v, plain.param / 2) == (0, _v(F(7, 4),
                                                              F(3, 4)))
    with pytest.raises(InconsistentTopology):
        advance(c, 0, start, v, plain.param * 2)


# ---------------------------------------------------------------------------
# saddle connections on the cross (frozen oracles)
# ---------------------------------------------------------------------------

def test_cross_separatrix_count():
    c = Surface.cross(1, 1)
    assert len(list(departing_corners(c, Vec2(1, 0)))) == 3
    assert len(list(departing_corners(c, Vec2(1, 1)))) == 3
    evs = separatrices(c, Vec2(1, 0), cap=20)
    assert len(evs) == 3


def test_separatrices_compute_the_default_cap_once(monkeypatch):
    c = Surface.cross(GOLDEN, 1)
    capped = [(corner, ev.kind, ev.param)
              for corner, ev in separatrices(c, Vec2(2, 3),
                                             cap=c.default_cap())]
    calls = []
    real = Surface.default_cap

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Surface, "default_cap", counting)
    got = separatrices(c, Vec2(2, 3))
    assert calls == [c]
    assert [(corner, ev.kind, ev.param) for corner, ev in got] == capped
    assert len(got) == 3


def test_a_zero_direction_is_refused_with_invalid_params():
    # every entry point that takes a direction goes through one flow, which
    # refuses the zero vector; decompose and census keep their ZeroInput
    c = Surface.cross(1, 1)
    for call in (departing_corners, separatrices, saddle_connections,
                 cusp_invariant):
        for zero in ((0, 0), Vec2(0, 0)):
            with pytest.raises(InvalidParams,
                               match="direction must be nonzero"):
                call(c, zero)
    with pytest.raises(ZeroInput):
        decompose(c, (0, 0))
    with pytest.raises(ZeroInput):
        census(c, [(0, 0)])


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


# ---------------------------------------------------------------------------
# the per-direction flow kernel against the per-step reference
# ---------------------------------------------------------------------------

def reference_exit_solve(surface, p, x, v):
    """_exit_solve as it was before the flow tables: two cross products of
    w = P_e - x per edge, screened by sign, t divided out for edges that
    pass."""
    poly = surface.polygons[p]
    best = None
    for e in range(poly.n):
        edge = poly.edge(e)
        den = cross(v, edge)
        sd = den.sign()
        if not sd:
            continue
        w = poly.vertices[e] - x
        num_t = cross(w, edge)
        if num_t.sign() * sd <= 0:
            continue
        num_s = cross(w, v)
        s_lo = num_s.sign() * sd
        if s_lo < 0:
            continue
        s_hi = (num_s - den).sign() * sd
        if s_hi > 0:
            continue
        t = num_t / den
        if best is None or (t - best[0]).sign() < 0:
            vert = None
            if not s_lo:
                vert = e
            elif not s_hi:
                vert = (e + 1) % poly.n
            best = (t, e, vert)
    if best is None:
        raise InconsistentTopology(
            "ray from %s in polygon %d found no exit" % (x, p))
    t, e, vert = best
    y = poly.vertices[vert] if vert is not None else x + v * t
    return t, y, vert, e


SL2_WORDS = (Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), Mat2(1, -1, 0, 1),
             Mat2(1, 0, -1, 1), Mat2(0, -1, 1, 0))
AXES = ((1, 0), (0, 1), (-1, 0), (0, -1))


@st.composite
def chart_rays(draw):
    """(surface, polygon, start point, direction): a random unimodular image
    of the cross or the L-shape over Q or Q(sqrt5); the start is a vertex,
    a point on an edge, or a point in or around the polygon's bounding box;
    the direction is axis-aligned, rational or quadratic."""
    sizes = [1, F(1, 2), F(3, 2)]
    if draw(st.booleans()):
        sizes += [PHI, GOLDEN]
    size = st.sampled_from(sizes)
    if draw(st.booleans()):
        surf = Surface.cross(draw(size), draw(size))
    else:
        surf = Surface.l_shape(draw(size), draw(size), draw(size), draw(size))
    m = Mat2.identity()
    for g in draw(st.lists(st.sampled_from(SL2_WORDS), max_size=3)):
        m = m * g
    surf = surf.transform(m)
    p = draw(st.integers(0, len(surf.polygons) - 1))
    poly = surf.polygons[p]
    k = draw(st.integers(0, poly.n - 1))
    kind = draw(st.sampled_from(("vertex", "edge", "free")))
    if kind == "vertex":
        x = poly.vertex(k)
    elif kind == "edge":
        x = poly.vertex(k) + poly.edge(k) * F(draw(st.integers(1, 7)), 8)
    else:
        x0, y0, x1, y1 = poly.bbox()
        u, w = (F(draw(st.integers(-2, 10)), 8) for _ in range(2))
        x = Vec2(x0 + (x1 - x0) * u, y0 + (y1 - y0) * w)
    shape = draw(st.sampled_from(("axis", "rational", "quadratic")))
    if shape == "axis":
        v = Vec2(*draw(st.sampled_from(AXES)))
    else:
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
            lambda ab: ab != (0, 0)))
        v = Vec2(a, b) if shape == "rational" else Vec2(a + GOLDEN, b)
    return surf, p, x, v


def _exit_or_error(solve, *args):
    """(t, y, vertex, edge) of an exit, or the InconsistentTopology raised;
    _exit_solve's fifth field, the slab key, is checked on its own."""
    try:
        return solve(*args)[:4]
    except InconsistentTopology as exc:
        return ("InconsistentTopology", str(exc))


@settings(max_examples=300, deadline=None)
@given(chart_rays())
def test_exit_solve_matches_reference(case):
    surf, p, x, v = case
    want = _exit_or_error(reference_exit_solve, surf, p, x, v)
    assert _exit_or_error(_exit_solve, _Flow(surf, v), p, x) == want
    # a flow shared with earlier calls, and the caller's cross(x, v)
    flow = _Flow(surf, v)
    _exit_or_error(_exit_solve, flow, p, surf.polygons[p].vertex(0))
    assert _exit_or_error(_exit_solve, flow, p, x, cross(x, v)) == want
    if want[0] != "InconsistentTopology":
        # the key the slab bounds were bisected with, kept by the segment
        assert _exit_solve(flow, p, x)[4] == _sort_key(cross(x, v))


@settings(max_examples=100, deadline=None)
@given(chart_rays())
def test_slab_and_line_rows_are_built_when_first_read(case):
    # one exit builds at most the one candidate list it reads; each list,
    # once built, holds the rows a scan of every edge's u range gives
    surf, p, x, v = case
    flow = _Flow(surf, v)
    _exit_or_error(_exit_solve, flow, p, x)
    poly = surf.polygons[p]
    tab = flow.table(poly)
    assert sum(rows is not None for rows in tab.slabs + tab.lines) <= 1
    us = [cross(a, v) for a in poly.vertices]
    bounds = [key[1] for key in tab.bounds]
    spans = [(e, min(us[e], us[f]), max(us[e], us[f]), us[e], us[f], f)
             for e in range(poly.n) for f in [(e + 1) % poly.n]
             if us[e] != us[f]]
    for j in range(1, len(bounds)):
        assert [row[0] for row, _ in tab.slab_rows(j)] == [
            e for e, lo, hi, _, _, _ in spans
            if lo <= bounds[j - 1] and bounds[j] <= hi]
    for i, b in enumerate(bounds):
        assert [(row[0], vert) for row, vert in tab.line_rows(i)] == [
            (e, e if ue == b else f if uf == b else None)
            for e, lo, hi, ue, uf, f in spans if lo <= b <= hi]


SLANTS = ((1, 2), (2, 1), (1, -1), (-2, 3), (3, -1))
AXES = ((1, 0), (0, 1), (-1, 0), (0, -1))


@settings(max_examples=60, deadline=None)
@given(marked_surfaces(), st.sampled_from(AXES + SLANTS))
def test_tables_match_the_hashing_reference(surf, direction):
    # the bounds and ranks against sorted(set(...)) of the u_k, and each
    # edge's line against the one solved with den = u_e - u_{e+1}
    flow = _Flow(surf, direction)
    for poly in dict.fromkeys(surf.polygons):
        tab = flow.table(poly)
        us = [flow.across(a) for a in poly.vertices]
        bounds = sorted(map(_sort_key, set(us)))
        assert tab.bounds == bounds
        rank = {key[1]: i for i, key in enumerate(bounds)}
        spans = []
        for e in range(poly.n):
            f = (e + 1) % poly.n
            if us[e] != us[f]:
                lo, hi = sorted((e, f), key=lambda k: rank[us[k]])
                spans.append((e, poly.edge(e), us[e], rank[us[lo]],
                              rank[us[hi]], lo, hi))
        assert [row + (lo, hi, v, w)
                for row, lo, hi, v, w in tab.spans] == spans
        for row, _, _, _, _ in tab.spans:
            e = row[0]
            den = us[e] - us[(e + 1) % poly.n]
            slope = flow.along(poly.edge(e)) / den
            want = (flow.along(poly.vertices[e]) + slope * us[e], -slope)
            assert flow.line(tab, poly, row) == want


def test_a_trace_stops_at_the_first_segment_past_its_cap():
    # the bound on tau is the cap itself on an axis, cap / |v| when |v| =
    # sqrt(5) is in Q(sqrt5), and cap^2 / |v|^2 when |v| = sqrt(2) or
    # sqrt(13) is not; in each, a capped trace's last segment starts within
    # the cap and ends past it
    g = Surface.cross(PHI, 1)
    start = Vec2(PHI + F(1, 7), F(2, 9))
    capped = 0
    for direction in AXES + ((1, 2), (1, 1), (2, 3)):
        vv = dot(Vec2(*direction), Vec2(*direction))
        for cap in (F(1, 3), F(7, 3), 5):
            ev = trace(g, 0, start, direction, cap=cap)
            if ev.kind != CAPPED:
                continue
            capped += 1
            assert ev.length_squared > cap * cap
            tau0 = ev.segments[-1].tau0
            assert tau0 * tau0 * vv <= cap * cap
    assert capped == 12


@settings(max_examples=40, deadline=None)
@given(marked_surfaces(), positive_matrices(), st.sampled_from(SLANTS))
def test_memoized_exits_match_the_reference(surf, mat, slant):
    # one warm flow per direction runs every separatrix, every vertex leaf
    # and a leaf from every mark; most exits after the first few come from
    # the memo, and each must be the exit the reference solves for afresh.
    # A thin image chart can hold thousands of segments within the cap, so
    # each trace also stops after 200 and its partial path is checked
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    assert_warm_exits_match_the_reference(image, slant)


@settings(max_examples=15, deadline=None)
@given(cyclic_covers(), st.sampled_from(SLANTS))
def test_memoized_exits_on_covers_match_the_reference(case, slant):
    # the sheets of a cover share their Polygons, so a flow reuses the exit
    # rows memoized on one sheet on all the others; each exit must still be
    # the one the reference solves for afresh in the chart it is used in
    _, cover = case
    assert_warm_exits_match_the_reference(cover, slant)


def assert_warm_exits_match_the_reference(image, slant):
    cap = image.default_cap() / 8
    starts = [(p, pt, None) for cls in range(len(image.vertex_classes))
              if not image.cone_windings[cls] > 1
              for p, pt in image._class_points(cls)[:1]]
    starts += [(mp.polygon, mp.at, None) for mp in image.marked]
    for direction in ((0, 1), (0, -1), (1, 0), (-1, 0), slant):
        flow = _Flow(image, direction)
        runs = [(None, None, c) for c in departing_corners(image, flow.v)]
        for p, pt, corner in runs + starts:
            try:
                segments = trace(image, p, pt, flow, corner=corner, cap=cap,
                                 stop_at_marked=False, detect_closure=False,
                                 max_steps=200).segments
            except TraceOverflow as exc:
                segments = exc.segments
            for seg in segments:
                if seg.slide:
                    continue
                t, y, _, _ = reference_exit_solve(image, seg.polygon, seg.a,
                                                  flow.v)
                assert (seg.tau1 - seg.tau0, seg.b) == (t, y)


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), positive_matrices(), st.sampled_from(SLANTS),
       st.integers(1, 63))
def test_advance_lands_where_its_segment_interpolates(surf, mat, slant, k):
    # off the axes, advance cuts its last segment through the flow's
    # coordinates, flow.point(u(a), s(a) + delta - tau0); the oracle
    # interpolates linearly between the segment's ends, and segment_point
    # must put the point on that segment
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    flow = _Flow(image, slant)
    poly = image.polygons[0]
    starts = [(0, poly.vertex(0) + poly.edge(0) * F(1, 2))]
    starts += [(mp.polygon, mp.at) for mp in image.marked]
    for p, pt in starts:
        try:
            segments = trace(image, p, pt, flow, stop_at_marked=False,
                             detect_closure=False, cap=image.default_cap() / 8,
                             max_steps=50).segments
        except TraceOverflow as exc:
            segments = exc.segments
        delta = segments[-1].tau1 * F(k, 64)
        seg = next(s for s in segments if s.tau1 >= delta)
        want = seg.a + (seg.b - seg.a) * ((delta - seg.tau0)
                                          / (seg.tau1 - seg.tau0))
        assert advance(image, p, pt, flow, delta) == (seg.polygon, want)
        assert segment_point(seg.a, seg.b, want) is not None


def assert_corners_match_the_reference(surf, direction):
    flow = _Flow(surf, direction)
    v = flow.v
    want = [corner for cls in surf.singular_classes
            for corner in surf.corner_cycles[cls]
            if ccw_sector_contains(surf.ray_out(corner), surf.ray_in(corner),
                                   v)]
    assert departing_corners(surf, flow) == want
    for cls, winding in enumerate(surf.cone_windings):
        corners = departing_corners(surf, direction, cls)
        assert len(corners) == winding
        for corner in corners:
            assert (flow.sector(corner) == _SLIDE) == same_ray(
                v, surf.ray_out(corner))


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), positive_matrices())
def test_departing_corners_match_the_sector_reference(surf, mat):
    # the flow's sector rows, one per distinct Polygon, pick the corners the
    # per-corner reference test picks, in the same order, and a cone of
    # angle 2(k+1)pi emits every direction through k+1 corners
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    for direction in ((0, 1), (1, 0), (-1, 0)) + SLANTS:
        assert_corners_match_the_reference(image, direction)


@settings(max_examples=10, deadline=None)
@given(cyclic_covers())
def test_departing_corners_on_covers_match_the_sector_reference(case):
    _, cover = case
    for direction in ((0, 1), (1, 0), (-1, 0)) + SLANTS:
        assert_corners_match_the_reference(cover, direction)


def assert_sector_rows_match_the_reference(surf):
    # the compass-class decision for axis directions, and the fallback for
    # the others, against one ccw_sector_contains and same_ray per corner
    for direction in AXES + SLANTS:
        v = Vec2(*direction)
        for poly in set(surf.polygons):
            want = []
            for k in range(poly.n):
                out = poly.edge(k)
                if not ccw_sector_contains(out, -poly.edge(k - 1), v):
                    want.append(_MISS)
                else:
                    want.append(_SLIDE if same_ray(v, out) else _HOLD)
            assert _sector_row(poly, v) == want


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), positive_matrices())
def test_sector_rows_match_the_per_corner_reference(surf, mat):
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    assert_sector_rows_match_the_reference(image)


@settings(max_examples=10, deadline=None)
@given(cyclic_covers())
def test_sector_rows_on_covers_match_the_per_corner_reference(case):
    assert_sector_rows_match_the_reference(case[1])


def test_a_trace_that_reaches_the_cap_exactly_is_not_capped():
    # tau * |v| == cap at a chart edge goes on; a hair less stops there
    torus = Surface.square_torus()
    start = _v(F(1, 3), F(1, 5))
    for direction, exit_tau in (((0, 1), F(4, 5)), ((0, 2), F(2, 5))):
        ev = trace(torus, 0, start, direction, cap=F(4, 5))
        assert (ev.kind, ev.param) == (CLOSED, 1 / scalar(direction[1]))
        ev = trace(torus, 0, start, direction, cap=F(4, 5) - F(1, 1000))
        assert (ev.kind, ev.param) == (CAPPED, exit_tau)
    # |(1, 1)| = sqrt(2) is not in Q(sqrt5): the cap is compared squared.
    # The ray leaves the right arm's top edge at tau = 3/4, and a mark waits
    # 1/8 further on, past the glued edge
    a = PHI
    g = Surface.cross(a, 1, marked=[(0, _v(a + F(11, 8), a + F(1, 8)), "m")])
    start = _v(a + F(1, 2), a + F(1, 4))
    assert _Flow(g, (1, 1)).vlen is None
    sqrt2 = FieldScalar(0, 1, 2)
    ev = trace(g, 0, start, (1, 1), cap=sqrt2 * F(3, 4))
    assert (ev.kind, ev.param) == (MARKED, F(7, 8))
    ev = trace(g, 0, start, (1, 1), cap=sqrt2 * (F(3, 4) - F(1, 1000)))
    assert (ev.kind, ev.param) == (CAPPED, F(3, 4))
    assert ev.segments[0].b == _v(a + F(5, 4), a + 1)


def _event(ev):
    return (ev.kind, ev.param, ev.mark,
            [(s.polygon, s.a, s.b, s.slide) for s in ev.segments])


def _v(x, y):
    return Vec2(scalar(x), scalar(y))


def test_closure_and_mark_events_on_presets():
    half = F(1, 2)
    torus = Surface.square_torus()
    # closes through the start's alias on the glued edge
    assert _event(trace(torus, 0, _v(half, 0), (0, 1), cap=4)) == (
        CLOSED, 1, None, [(0, _v(half, 0), _v(half, 1), False)])
    # a slide along an edge closes at the start vertex's alias
    assert _event(trace(torus, 0, _v(0, 0), (1, 0), cap=4)) == (
        CLOSED, 1, None, [(0, _v(0, 0), _v(1, 0), True)])
    # a slanted leaf, four charts long
    start = _v(F(1, 3), F(1, 5))
    assert _event(trace(torus, 0, start, (1, 2), cap=4)) == (
        CLOSED, 1, None,
        [(0, start, _v(F(11, 15), 1), False),
         (0, _v(F(11, 15), 0), _v(1, F(8, 15)), False),
         (0, _v(0, F(8, 15)), _v(F(7, 30), 1), False),
         (0, _v(F(7, 30), 0), start, False)])
    marked = Surface.square_torus(marked=[(0, (half, half), "p")])
    assert _event(trace(marked, 0, _v(half, 0), (0, 1), cap=4)) == (
        MARKED, half, 0, [(0, _v(half, 0), _v(half, half), False)])
    c = Surface.cross(1, 1)
    assert _event(trace(c, 0, _v(F(3, 2), half), (0, 1), cap=10)) == (
        CLOSED, 3, None, [(0, _v(F(3, 2), half), _v(F(3, 2), 3), False),
                          (0, _v(F(3, 2), 0), _v(F(3, 2), half), False)])
    assert _event(trace(c, 0, _v(half, F(3, 2)), (1, 0), cap=10)) == (
        CLOSED, 3, None, [(0, _v(half, F(3, 2)), _v(3, F(3, 2)), False),
                          (0, _v(0, F(3, 2)), _v(half, F(3, 2)), False)])
    # marks ahead in the same chart and behind the start, after a wrap
    mc = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(5, 2)), "a"),
                                     (0, (F(5, 4), F(1, 4)), "b")])
    assert _event(trace(mc, 0, _v(F(3, 2), half), (0, 1), cap=10)) == (
        MARKED, 2, 0, [(0, _v(F(3, 2), half), _v(F(3, 2), F(5, 2)), False)])
    assert _event(trace(mc, 0, _v(F(5, 4), half), (0, 1), cap=10)) == (
        MARKED, F(11, 4), 1,
        [(0, _v(F(5, 4), half), _v(F(5, 4), 3), False),
         (0, _v(F(5, 4), 0), _v(F(5, 4), F(1, 4)), False)])
    # the first segment leaves the chart through an edge short of a mark
    # that lies on its line further on, in the same chart
    ahead = Surface.cross(1, 1, marked=[(0, (F(11, 4), F(5, 4)), "c")])
    assert _event(trace(ahead, 0, _v(F(7, 4), F(1, 4)), (1, 1), cap=10)) == (
        MARKED, 2, 0, [(0, _v(F(7, 4), F(1, 4)), _v(2, half), False),
                       (0, _v(1, half), _v(F(5, 2), 2), False),
                       (0, _v(F(5, 2), 1), _v(F(11, 4), F(5, 4)), False)])
    # the golden cross: the central column closes after 2*phi + 1
    g = Surface.cross(PHI, 1)
    mid = PHI + half
    assert _event(trace(g, 0, _v(mid, half), (0, 1), cap=20)) == (
        CLOSED, PHI * 2 + 1, None,
        [(0, _v(mid, half), _v(mid, PHI * 2 + 1), False),
         (0, _v(mid, 0), _v(mid, half), False)])


def test_a_flow_belongs_to_its_surface():
    c = Surface.cross(1, 1)
    flow = _Flow(c, (0, 1))
    ev = trace(c, 0, _v(F(3, 2), F(1, 2)), flow, cap=10)
    assert ev.kind == CLOSED and ev.param == 3
    with pytest.raises(InvalidParams):
        trace(Surface.cross(1, 1), 0, _v(F(3, 2), F(1, 2)), flow, cap=10)
    with pytest.raises(InvalidParams):
        _Flow(c, (0, 0))


def test_a_corner_start_names_its_vertex_as_point_location_does():
    # the corner start skips locating the vertex; its state and aliases
    # are what the same start given as a chart point gets
    mark = (0, _v(PHI + F(1, 2), 1), "m")
    surfaces = [Surface.square_torus(), Surface.cross(1, 1),
                Surface.l_shape(1, 1, 1, 1), Surface.cross(PHI, 1, [mark])]
    for surf in surfaces:
        for v in ((1, 0), (0, 1), (-1, 0), (1, 1), (2, -3)):
            flow = _Flow(surf, v)
            for p, poly in enumerate(surf.polygons):
                for k in range(poly.n):
                    corner = (p, k)
                    if not surf.is_singular_corner(corner):
                        got = _start_state(flow, None, None, corner)
                        assert got == _start_state(flow, p, poly.vertex(k),
                                                   None)
                        assert got[1] == surf.point_aliases(p, poly.vertex(k))
                    elif ccw_sector_contains(surf.ray_out(corner),
                                             surf.ray_in(corner), flow.v):
                        assert _start_state(flow, None, None, corner)[1] == []
                    else:
                        with pytest.raises(InvalidParams):
                            _start_state(flow, None, None, corner)
    c = Surface.cross(1, 1)
    with pytest.raises(InvalidParams, match="does not leave through"):
        trace(c, corner=(0, 2), direction=Vec2(1, -1), cap=4)
    for bad in ((len(c.polygons), 0), (-1, 0), (0, -1),
                (0, c.polygons[0].n)):
        with pytest.raises(InvalidParams, match="names no vertex"):
            trace(c, corner=bad, direction=Vec2(1, 0), cap=4)


# ---------------------------------------------------------------------------
# typed errors at the public entry points
# ---------------------------------------------------------------------------

def _cross_with_a_mark():
    return Surface.cross(1, 1, marked=[(0, (F(3, 2), F(1, 3)), "m")])


def test_connection_evidence_refuses_a_mark_index_out_of_range():
    # a negative index does not wrap to the last mark
    c = _cross_with_a_mark()
    for bad in (1, 5, -1):
        with pytest.raises(InvalidParams, match="no marked point"):
            is_connection_point_up_to(c, bad, cap=4)
    assert repr(is_connection_point_up_to(c, 0, cap=4)) == repr(
        is_connection_point_up_to(c, "m", cap=4))


def test_a_start_point_may_be_a_pair():
    c = _cross_with_a_mark()
    pair, point = (F(3, 2), F(1, 2)), _v(F(3, 2), F(1, 2))
    assert _event(trace(c, 0, pair, (1, 2))) == _event(
        trace(c, 0, point, (1, 2)))
    assert advance(c, 0, pair, (1, 2), F(1, 3)) == advance(
        c, 0, point, (1, 2), F(1, 3))


@pytest.mark.parametrize("call", [
    lambda c: trace(c, 0, (1,), (0, 1)),
    lambda c: trace(c, 0, (F(3, 2), F(1, 2)), (0, 1, 2)),
    lambda c: trace(c, 0, (F(3, 2), None), (0, 1)),
    lambda c: advance(c, 0, 5, (0, 1), 1),
    lambda c: decompose(c, (0, 1, 2)),
    lambda c: decompose(c, (0, 1)).locate(0, (1,)),
    lambda c: census(c, [(0, 1, 2)]),
    lambda c: cusp_invariant(c, (1,)),
    lambda c: dehn_twist_point(decompose(c, (0, 1)), 0, (1,), 1),
    lambda c: Slit(polygon=0, start=(1,), direction=(1, 1), end=(1, 1)),
    lambda c: Slit(polygon=0, start=(1, 1), direction=(1, 1), end=(1,)),
    lambda c: Surface.cross(1, 1, marked=[(0, (1,), "q")]),
    lambda c: Surface([[(0, 0), (1, 0), (1, 1), (0,)]], []),
], ids=["trace-point", "trace-direction", "trace-none", "advance-point",
        "decompose", "locate", "census", "cusp-invariant", "dehn-twist",
        "slit-start", "slit-end", "mark", "vertex"])
def test_a_vector_that_is_not_a_pair_of_scalars_is_refused(call):
    with pytest.raises(InvalidParams, match="is not a pair of scalars"):
        call(Surface.cross(1, 1))


def test_a_trace_without_a_start_is_refused():
    c = _cross_with_a_mark()
    for polygon, point in ((None, None), (0, None), (None, (1, 1))):
        with pytest.raises(InvalidParams, match="starts at"):
            trace(c, polygon, point, direction=(0, 1))


def test_a_trace_without_a_direction_is_refused():
    c = _cross_with_a_mark()
    with pytest.raises(InvalidParams, match="needs a direction"):
        trace(c, 0, _v(F(3, 2), F(1, 2)))
    with pytest.raises(InvalidParams, match="needs a direction"):
        advance(c, 0, (F(3, 2), F(1, 2)), None, 1)


# ---------------------------------------------------------------------------
# no state outlives a trace on a surface the caller holds
# ---------------------------------------------------------------------------

def test_tracing_twice_builds_the_same_tables_and_lines(monkeypatch):
    # each trace builds its flow's table of every Polygon it enters, and
    # evaluates one edge line per exit through an edge and one per line
    # built, on every flow: a trace that kept a table, a line or a memo
    # from an earlier one would build or evaluate fewer, and one that
    # stored state on the surface would change its attributes
    builds, evaluations = [], []
    init = _Table.__init__

    def counting_init(tab, flow, poly):
        builds.append(None)
        init(tab, flow, poly)

    def counting_affine(a, b, x):
        evaluations.append(None)
        return _affine(a, b, x)

    monkeypatch.setattr(_Table, "__init__", counting_init)
    monkeypatch.setattr(importlib.import_module("veechkit.trace"), "_affine",
                        counting_affine)
    g = Surface.cross(PHI, 1, marked=[(0, (PHI + F(1, 3), F(1, 7)), "m")])
    attributes = dict(vars(g))
    start = _v(PHI + F(1, 2), F(1, 2))
    for direction in ((0, 1), (2, 3)):
        counts = []
        for _ in range(2):
            builds.clear()
            evaluations.clear()
            trace(g, 0, start, direction, cap=40, stop_at_marked=False)
            counts.append((len(builds), len(evaluations)))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0
        assert counts[0][1] > 0
    assert vars(g).keys() == attributes.keys()
    assert all(vars(g)[k] is v for k, v in attributes.items())


def trace_outcome(surface, polygon, point, direction, cap):
    """kind, param, mark and segments of a trace stopping at marks, or the
    segments of one that ran past 200."""
    try:
        ev = trace(surface, polygon, point, direction, cap=cap, max_steps=200)
    except TraceOverflow as exc:
        ev = None
        segments = exc.segments
    else:
        segments = ev.segments
    return ((ev.kind, ev.param, ev.mark) if ev else None, [
        (s.polygon, s.a, s.b, s.slide, s.tau0, s.tau1, s.edge, s.vertex,
         s.key) for s in segments])


@settings(max_examples=15, deadline=None)
@given(marked_surfaces(), positive_matrices())
def test_a_shared_flow_traces_like_fresh_ones(surf, mat):
    # a flow keeps only what depends on its direction and a Polygon, so
    # traces that share one, from every alias of every mark and from a
    # point inside each chart, end as traces given a fresh vector each do
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    cap = image.default_cap() / 8
    starts = [alias for mp in image.marked for alias in mp.aliases]
    for p, poly in enumerate(image.polygons):
        inside = (poly.vertex(0) + poly.vertex(2)) * F(1, 2)
        assert poly.locate(inside) == "interior"
        starts.append((p, inside))
    for direction in AXES + SLANTS:
        flow = _Flow(image, direction)
        for p, pt in starts:
            assert trace_outcome(image, p, pt, flow, cap) == \
                trace_outcome(image, p, pt, direction, cap)


def test_no_decomposition_leaves_a_corner_twice_on_one_flow(monkeypatch):
    # the leaves of one direction are disjoint, so a memo of where a trace
    # goes on from a regular corner would never be read again: each (flow,
    # corner) is left at most once, on a cross, the marked golden cross and
    # a cyclic cover
    left = Counter()
    leave = _Flow.leave

    def counting(flow, corner):
        left[(flow, corner)] += 1
        return leave(flow, corner)

    monkeypatch.setattr(_Flow, "leave", counting)
    q = (FieldScalar(F(5, 6), F(1, 2), 5), FieldScalar(F(9, 14), F(1, 2), 5))
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(1, 3)), "m")])
    slit = Slit(corner=(0, 11), direction=(1, 1), end=(F(3, 2), F(3, 2)))
    cases = [(Surface.cross(1, 1), (1, 0)),
             (Surface.cross(PHI, 1, marked=[(0, q, "q")]), (8, 5)),
             (cyclic_slit_cover(CoverSpec(base, 5, [slit],
                                          [(1, 2, 3, 4, 0)])), (2, 3))]
    for surface, direction in cases:
        left.clear()
        assert decompose(surface, direction).complete
        assert left and max(left.values()) == 1


def test_decompose_builds_each_chart_table_once_per_direction(monkeypatch):
    # the five sheets of a cyclic cover share one Polygon per chart of the
    # cut base, and each flow builds one table per distinct Polygon: never
    # one per chart, and never twice
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(1, 3)), "m")])
    slit = Slit(corner=(0, 11), direction=(1, 1), end=(F(3, 2), F(3, 2)))
    cover = cyclic_slit_cover(CoverSpec(base, 5, [slit], [(1, 2, 3, 4, 0)]))
    built = []
    table = _Flow.table

    def recording_table(flow, poly):
        if poly not in flow._tables:
            built.append((flow.v, poly))
        return table(flow, poly)

    monkeypatch.setattr(_Flow, "table", recording_table)
    deco = decompose(cover, (2, 3))
    assert deco.complete and built
    shared = set(deco.normalized.polygons)
    assert len(shared) * 5 == len(cover.polygons)
    assert {poly for _, poly in built} == shared
    per_direction = Counter(v for v, _ in built)
    assert len(built) == len(set(built))
    assert max(per_direction.values()) == len(shared)
    # later rays and twists of the decomposition reuse its tables
    mark = cover.marked[3]
    deco.locate(mark.polygon, mark.at)
    dehn_twist_point(deco, mark.polygon, mark.at, 1)
    assert len(built) == len(set(built))
    assert Counter(v for v, _ in built) == per_direction


def test_decompose_tests_each_corner_sector_once_per_distinct_chart(
        monkeypatch):
    # each flow of a decomposition tests a corner's sector once per distinct
    # Polygon and vertex, whichever of the five sheets asks, plus once per
    # distinct start of a turn of the west banks
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(1, 3)), "m")])
    slit = Slit(corner=(0, 11), direction=(1, 1), end=(F(3, 2), F(3, 2)))
    cover = cyclic_slit_cover(CoverSpec(base, 5, [slit], [(1, 2, 3, 4, 0)]))
    tests = Counter()

    def counting(u, w, v):
        tests[v] += 1
        return ccw_sector_contains(u, w, v)

    for module in ("veechkit.surface", "veechkit.trace"):
        monkeypatch.setattr(importlib.import_module(module),
                            "ccw_sector_contains", counting)
    deco = decompose(cover, (2, 3))
    assert deco.complete
    shared = set(deco.normalized.polygons)
    vertices = sum(poly.n for poly in shared)
    corners = sum(poly.n for poly in deco.normalized.polygons)
    assert corners == 5 * vertices
    assert set(tests) <= {flow.v for flow in deco.flows.values()}
    for flow in deco.flows.values():
        assert tests[flow.v] <= vertices + len(flow._starts)
        assert len(flow._starts) <= len(deco.connections)
    assert sum(tests.values()) < corners
