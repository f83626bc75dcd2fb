"""Straight-line flow on a glued polygon complex.

The tracer develops a trajectory chart by chart.  Inside a polygon it solves
exactly for the first boundary crossing; at a glued edge it jumps to the
partner chart; at a regular vertex it resolves the continuation through the
corner sectors; at a cone point it stops.  Trajectories parallel to an edge
slide along it vertex to vertex.

All positions, directions and parameters are field scalars, so every incidence
(closing up, hitting a marked point, reaching a vertex) is decided exactly.
The flow parameter tau is normalised so the position is start + tau * v in the
developed picture; the geometric length is tau * |v|.

Everything that depends only on the surface and the direction v is computed
once per direction, by a flow object (_Flow).  A point x has two
coordinates: u(x) = cross(x, v) across the leaves, so x's leaf is the line
u = u(x), and s(x) = dot(x, v) / dot(v, v) along them, so a point y of that
leaf lies s(y) - s(x) past x in flow parameter.  Every parameter a trace
forms -- an exit, a slide step, a closing or a mark hit -- is such a
difference.  On the unit axis directions -- up, down, east and west, the
only ones a decomposition traces -- u and s are each one coordinate, the
sign folded in (u: x.x, -x.x, -x.y, x.y; s: x.y, -x.y, x.x, -x.x); any
other direction takes one fused product with v for each.  For each distinct
chart geometry (the surface shares one Polygon among charts with the same
vertices: the sheets of a cover), the first time a trace enters a chart of
it, the flow reads each vertex's u_k once and builds a table (_Table) with
one row per edge e not parallel to v.  The distinct u_k, sorted (the
vertices are ranked by sorting them on their u, so no u is hashed), are the
bounds that cut the chart into slabs, and the table keeps two candidate
lists: for each slab, the edges that span it; for each bound, the edges that
touch its line, each with the vertex it has on that line, if any.  Each list
is built the first time an exit reads it, so a direction crossed by a few
short rays builds only the lists they read.  An exit scans only the
candidates of the ray's slab or line: a point strictly inside a slab meets
no vertex, and a point on a bound's line reads a vertex hit from the table.
A point outside every bound has no exit.

A candidate's s at the crossing is its vertex's, or its edge line's at u(x):
the line is solved for s, s = A + B*u, on first use per Polygon and edge, so
each candidate is one fused evaluation (`field._affine`), with no cross
product and no division.  A candidate needs s > s(x), the first least s in
edge order wins, as in a scan of every edge, and t = s - s(x) is formed
once, for the winner, whose exit point is its vertex or the point (u(x), s).

A ray that enters a chart through edge e at a u strictly inside slab j
leaves through the edge the first such ray of the flow left through, in
this chart or in any chart with the same Polygon: that exit is memoized
under (Polygon, e, j), and a later such ray evaluates it alone.  A slab
scan for an entry fills the memo.

Every corner question is a lookup on the flow too.  Per distinct Polygon,
on first use, it keeps a sector row (`surface._sector_row`): for each vertex
k, whether v misses corner k's sector [edge k, -edge k-1), lies in it off
edge k, or runs along edge k (a slide).  The corners a separatrix leaves
from (`departing_corners`), a start at a cone corner, the corner a trace
leaves a regular vertex through (`_Flow.leave`, `_turn`) and the turns of a
decomposition's west banks all read it, so a d-sheeted cover decides each
corner's sector once, not d times.  A turn that starts inside a corner's
sector, from a direction other than its outgoing edge, keeps its first test
per (Polygon, vertex, start).  A flow keeps nothing per chart index or per
corner.  A flow lives as long as its caller keeps it -- one trace, or one
decomposition -- and is never stored on the surface.  The candidate lists
and the memo rely on each chart being a simple polygon, whose edges meet
only at its vertices.  The surface checker refuses a chart that passes
through a vertex twice; one whose edges cross between vertices still
passes it.

Each trace builds, when it starts, the table of the points it can stop at:
per chart, the start's aliases (a closing) and every alias of every mark,
each with its u, so a point is tested only on the leaf through it.  Every
stop -- a closing, a cone, a mark, a stop hook's tau -- is a flow
parameter; at one tau a closing beats a cone, a cone a hook stop, and a hook
stop a mark.  The segment is cut there at the point (u(a), s(a) + tau -
tau0) of its leaf: on the axis flows one addition, no division.  The cap
becomes a bound on tau too: on an axis flow it is the cap itself, and any
other flow divides the cap by |v| (or its square by |v|^2).

A segment records what the trace learned making it: the index of the chart
vertex it ends at (the exit's vertex, or the end of a slide; none once a
stop cuts it short), and the sort key of its leaf's u, with which the exit
solve bisected the slab bounds.  A decomposition reads both instead of
deriving them again.  A trace started from a point its caller has located
takes that location as is.  A TraceEvent keeps the flow's vlen and vv, and
computes `length` and `length_squared` from its parameter when they are
read.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from .errors import (AmbiguousStart, InconsistentTopology, InvalidParams,
                     TraceOverflow)
from .field import (FieldScalar, _affine, _cross, _lin, _sort_key,
                    field_sqrt, scalar)
from .geometry import (Vec2, _as_vec, _vec, canonical_direction,
                       ccw_sector_contains, cross, dist2_point_segment, dot,
                       polygon_contains)
from .surface import _SLIDE, _mark_index, _sector_row

_ZERO = FieldScalar.rational(0)
_ONE = FieldScalar.rational(1)

CLOSED = "ClosedUp"
SINGULAR = "HitSingularity"
MARKED = "HitMarkedPoint"
CAPPED = "CapExceeded"
STOPPED = "Stopped"

# tie-break rank at an equal parameter value
_RANK = {CLOSED: 0, SINGULAR: 1, STOPPED: 2, MARKED: 3}


class Segment:
    """One chart-worth of trajectory: from a to b inside polygon `polygon`.

    slide marks travel along a glued edge (recorded in the chart where the
    motion agrees with the edge orientation), `edge` names that edge.
    vertex is the index of the chart vertex the segment ends at, as the exit
    solve or the slide found it, or None; key is `_sort_key` of the leaf's
    u, the key the exit solve bisected the slab bounds with (None on a
    slide and on a segment built by hand).
    """

    __slots__ = ("polygon", "a", "b", "slide", "tau0", "tau1", "edge",
                 "vertex", "key")

    def __init__(self, polygon, a, b, slide, tau0, tau1, edge=None,
                 vertex=None, key=None):
        self.polygon = polygon
        self.a = a
        self.b = b
        self.slide = slide
        self.tau0 = tau0
        self.tau1 = tau1
        self.edge = edge
        self.vertex = vertex
        self.key = key

    def __repr__(self):
        return "Segment(p%d %s -> %s%s)" % (
            self.polygon, self.a, self.b, ", slide" if self.slide else "")


class TraceEvent:
    """How a trace ended: its kind, segments and flow parameter, with the
    flow's vlen and vv, from which `length` and `length_squared` are
    computed when read."""

    __slots__ = ("kind", "segments", "param", "vlen", "vv", "mark",
                 "corner", "payload")

    def __init__(self, kind, segments, param, vlen, vv, mark=None,
                 corner=None, payload=None):
        self.kind = kind
        self.segments = segments
        self.param = param
        self.vlen = vlen
        self.vv = vv
        self.mark = mark
        self.corner = corner
        self.payload = payload

    @property
    def length(self):
        """param * |v|, or None when |v| is not in the surface's field."""
        return self.vlen * self.param if self.vlen is not None else None

    @property
    def length_squared(self):
        return self.param * self.param * self.vv

    @property
    def path(self):
        return [(s.polygon, s.a, s.b) for s in self.segments]

    @property
    def holonomy(self) -> "Vec2":
        """Displacement in the developed plane: the sum of the segment
        vectors (equals param * direction)."""
        out = Vec2(0, 0)
        for s in self.segments:
            out = out + (s.b - s.a)
        return out

    def __repr__(self):
        return "TraceEvent(%s, param=%s)" % (self.kind, self.param)


def _turn(flow, corner, start=None):
    """The first corner met turning counterclockwise about `corner`'s vertex
    from direction `start`, which `corner` owns (by default its outgoing
    edge), whose sector holds the direction of `flow`."""
    if start is None:
        held = flow.sector(corner)
    else:
        held = flow.holds_from(corner, start)
    if held:
        return corner
    surface = flow.surface
    c = surface.next_corner(corner)
    while c != corner:
        if flow.sector(c):
            return c
        c = surface.next_corner(c)
    raise InconsistentTopology("no corner at %s owns direction %s"
                               % (corner, flow.v))


def _checked_corner(surface, corner, name="corner"):
    """`corner` as a (polygon, vertex) pair of ints (a bool is not one)
    naming a vertex of `surface`, or any such pair when `surface` is None;
    InvalidParams, calling it `name`, when it is not one."""
    try:
        p, k = corner
    except (TypeError, ValueError):
        p = k = None
    if not (type(p) is int and type(k) is int):
        raise InvalidParams("%s must be a (polygon, vertex) pair of integers, "
                            "not %r" % (name, corner))
    if surface is not None and not (0 <= p < len(surface.polygons)
                                    and 0 <= k < surface.polygons[p].n):
        raise InvalidParams("corner %r names no vertex of this surface"
                            % (corner,))
    return p, k


_X, _Y = attrgetter("x"), attrgetter("y")

# unit axis direction -> (u(x) = cross(x, v), s(x) = dot(x, v), the point
# with coordinates (u, s))
_AXES = {(0, 1): (_X, _Y, _vec),
         (0, -1): (lambda x: -x.x, lambda x: -x.y, lambda u, s: _vec(-u, -s)),
         (1, 0): (lambda x: -x.y, _X, lambda u, s: _vec(s, -u)),
         (-1, 0): (_Y, lambda x: -x.x, lambda u, s: _vec(-s, u))}


class _Table:
    """What one flow knows of one distinct Polygon (see _Flow).

    Each edge e not parallel to v has a row (e, edge, u_e).  The u_k are
    ranked by sorting the vertex indices on their _sort_key, so no u is
    hashed: equal u_k are neighbours in that order and share a rank.

    bounds -- the distinct u_k as _sort_key tuples, in order
    spans  -- per such edge, (row, low rank, high rank, the vertex at the
              low rank, the vertex at the high rank): the bounds it spans
    slabs  -- per slab j, between bounds j-1 and j (1 <= j < len(bounds)),
              the (row, None) of the edges that span it, in edge order;
              None until `slab_rows` first builds it
    lines  -- per bound i, the (row, vertex) of the edges that touch its
              line, in edge order: vertex is the end of the edge whose u is
              bound i, None when the edge crosses the line between its ends;
              None until `line_rows` first builds it
    exits  -- (entry edge, slab) -> ((row, None),), the exit of the first ray
              of the flow that entered this Polygon through that edge inside
              that slab
    solved -- per edge, (A, B) with s = A + B*u on the edge's line; built on
              first use
    """

    __slots__ = ("bounds", "spans", "slabs", "lines", "exits", "solved")

    def __init__(self, flow, poly):
        n = poly.n
        us = [flow.across(a) for a in poly.vertices]
        keys = [_sort_key(u) for u in us]
        self.bounds = bounds = []
        ranks = [0] * n
        for k in sorted(range(n), key=keys.__getitem__):
            if not bounds or bounds[-1] != keys[k]:
                bounds.append(keys[k])
            ranks[k] = len(bounds) - 1
        self.spans = spans = []
        for e in range(n):
            f = (e + 1) % n
            if ranks[e] == ranks[f]:
                continue  # parallel: its vertices are caught via its mates
            row = (e, poly.edge(e), us[e])
            if ranks[e] < ranks[f]:
                spans.append((row, ranks[e], ranks[f], e, f))
            else:
                spans.append((row, ranks[f], ranks[e], f, e))
        self.slabs = [None] * len(self.bounds)
        self.lines = [None] * len(self.bounds)
        self.exits = {}
        self.solved = [None] * n

    def slab_rows(self, j):
        """The candidate rows of slab j, built on first use."""
        rows = self.slabs[j]
        if rows is None:
            rows = self.slabs[j] = [(row, None) for row, lo, hi, _, _
                                    in self.spans if lo < j <= hi]
        return rows

    def line_rows(self, i):
        """The candidate rows of bound i's line, built on first use."""
        rows = self.lines[i]
        if rows is None:
            rows = self.lines[i] = [
                (row, v if i == lo else w if i == hi else None)
                for row, lo, hi, v, w in self.spans if lo <= i <= hi]
        return rows


class _Flow:
    """The flow in direction v on one surface, shared by the traces that
    run in that direction.

    Holds v, vv = dot(v, v), vlen, the length of v in the surface's field
    (None when it has no square root there; both are 1 on an axis, without
    a square root taken), and a point's coordinates: across(x) = u,
    along(x) = s, and their inverse point(u, s) (see the module docstring).

    Per distinct Polygon, built the first time a trace enters a chart with
    it and shared by every chart with that Polygon, a _Table: the edge rows,
    the distinct u_k sorted (the slab bounds), the candidate rows of each
    slab and of each bound's line (each list built on first read), the exit
    memo and, per edge on first use, the edge's line solved for s,
    s = A + B*u.  Also per distinct Polygon,
    built on first use: the sector row (`_sector_row`, read by `sector`),
    and, per vertex and start direction, whether a turn's first corner holds
    v past the start (`holds_from`).  Nothing is kept per chart index or
    per corner: the charts that share a Polygon share all of it.
    """

    __slots__ = ("surface", "v", "vv", "vlen", "across", "along", "point",
                 "_tables", "_sectors", "_starts")

    def __init__(self, surface, direction):
        if direction is None:
            raise InvalidParams("a flow needs a direction")
        v = _as_vec(direction)
        if v.is_zero():
            raise InvalidParams("direction must be nonzero")
        self.surface = surface
        self.v = v
        axis = _AXES.get((v.x, v.y))
        if axis is None:
            self.vv = dot(v, v)
            self.vlen = field_sqrt(self.vv, surface.field_d)
            w = v * (1 / self.vv)
            self.across = lambda x: cross(x, v)
            self.along = lambda x: _lin(x.x, w.x, x.y, w.y)
            self.point = lambda u, s: _vec(_lin(s, v.x, u, w.y),
                                           _cross(s, v.y, u, w.x))
        else:
            self.vv = self.vlen = _ONE
            self.across, self.along, self.point = axis
        self._tables = {}
        self._sectors = {}
        self._starts = {}

    def table(self, poly):
        """The _Table of Polygon `poly` (see the class docstring)."""
        tab = self._tables.get(poly)
        if tab is None:
            tab = self._tables[poly] = _Table(self, poly)
        return tab

    def line(self, tab, poly, row):
        """(A, B) with s = A + B*u on the line of `row`'s edge: along the
        edge u grows by u(edge) while s grows by s(edge), so B is their
        ratio."""
        e, edge, u_e = row
        ab = tab.solved[e]
        if ab is None:
            slope = self.along(edge) / self.across(edge)
            ab = tab.solved[e] = (
                _affine(self.along(poly.vertices[e]), -slope, u_e), slope)
        return ab

    def sector(self, corner):
        """Where v lies against `corner`'s sector: _MISS (falsy), _HOLD or
        _SLIDE, read from the sector row of its Polygon."""
        p, k = corner
        poly = self.surface.polygons[p]
        row = self._sectors.get(poly)
        if row is None:
            row = self._sectors[poly] = _sector_row(poly, self.v)
        return row[k]

    def holds_from(self, corner, start):
        """Whether v lies in the part [start, -edge k-1) of `corner`'s
        sector, for a direction `start` the sector holds."""
        p, k = corner
        poly = self.surface.polygons[p]
        key = (poly, k, start)
        held = self._starts.get(key)
        if held is None:
            held = self._starts[key] = ccw_sector_contains(
                start, -poly.edge(k - 1), self.v)
        return held

    def point_on(self, seg, tau):
        """The point of `seg`, a segment traced on this flow, at flow
        parameter tau: on its leaf, tau - seg.tau0 past its start."""
        a = seg.a
        return self.point(self.across(a), self.along(a) + (tau - seg.tau0))

    def leave(self, corner):
        """The state a trace goes on in after arriving at regular `corner`;
        not kept, as the leaves of one direction are disjoint."""
        # the half-open sectors of a 2pi vertex tile the circle, so exactly
        # one corner of the cycle owns v
        p, k = own = _turn(self, corner)
        x = self.surface.polygons[p].vertex(k)
        if self.sector(own) == _SLIDE:
            return ("slide", p, k, x)
        return ("go", p, x)


def _as_flow(surface, direction) -> _Flow:
    if not isinstance(direction, _Flow):
        return _Flow(surface, direction)
    if direction.surface is not surface:
        raise InvalidParams("flow belongs to another surface")
    return direction


def _start_state(flow, polygon, point, corner, located=None):
    """Normalise the start into ('go', p, x) or ('slide', p, e, x).

    Returns (state, aliases) where aliases are the charts naming the start
    point, used for the closing-up test.  A start at a cone point gets no
    aliases: a separatrix returning to its cone is a saddle connection, not a
    closed loop.  `located`, when given, is `Surface._point`'s answer for
    (polygon, point), taken as is instead of locating the point again.
    """
    surface = flow.surface
    if corner is not None:
        corner = _checked_corner(surface, corner)
    if corner is not None and point is None:
        # a corner names its vertex: nothing to locate
        polygon = corner[0]
        where = ("vertex", corner[1])
        aliases = None
    elif polygon is None or point is None:
        raise InvalidParams("a trace starts at a polygon and a point, or at "
                            "a corner")
    else:
        point = _as_vec(point)
        if located is None:
            located = surface._point(
                polygon, point, "start point %s lies outside polygon %d")
        where, aliases = located
    if where == "interior":
        return ("go", polygon, point), aliases
    if where[0] == "edge":
        e = where[1]
        edge = surface.polygons[polygon].edge(e)
        p2, e2 = surface.partner[(polygon, e)]
        other = point + surface.translation[(polygon, e)]
        side = flow.across(edge).sign()
        if side == 0:
            # parallel to the edge: slide, in the chart agreeing with v
            if flow.along(edge).sign() > 0:
                return ("slide", polygon, e, point), aliases
            return ("slide", p2, e2, other), aliases
        if side < 0:  # pointing out of this chart: enter through the partner
            return ("go", p2, other), aliases
        return ("go", polygon, point), aliases
    # vertex start
    vi = where[1]
    cls = surface.class_of[(polygon, vi)]
    if surface.cone_windings[cls] <= 1:  # regular vertex
        if aliases is None:
            aliases = surface._class_points(cls)
        return flow.leave((polygon, vi)), aliases
    if corner is None:
        raise AmbiguousStart("start at a cone point needs an explicit corner")
    if surface.class_of[corner] != cls:
        raise InvalidParams("corner %s does not sit at the start point"
                            % (corner,))
    held = flow.sector(corner)
    if not held:
        raise InvalidParams("direction %s does not leave through corner %s"
                            % (flow.v, corner))
    p, k = corner
    x = surface.polygons[p].vertex(k)
    if held == _SLIDE:
        return ("slide", p, k, x), []
    return ("go", p, x), []


def _exit_solve(flow, p, x, cx=None, entry=None):
    """First boundary crossing of the ray x + t v, t > 0, in polygon p of
    the surface of `flow`, the _Flow in direction v.

    cx, when given, is u(x) = cross(x, v), and entry, when given, the edge
    of p that x lies on (the ray entered p through it).  Returns (t, y,
    vertex_or_None, edge, key) where vertex is set when the crossing is a
    polygon vertex and key is `_sort_key(u(x))`, which bisects the slab
    bounds.

    Only the edges that can be hit are scanned.  A point on the line of a
    bound u_k scans the edges touching that line, and reads a vertex hit
    from the table; a point strictly inside a slab scans the edges spanning
    the slab, none at a vertex, unless it entered through an edge whose
    (entry, slab) memo already names the exit edge; a point outside every
    bound has no exit.  The candidates are compared on s, in `_leaf_exit`.
    A slab scan for an entry fills that slab's memo.  A slab's or a line's
    candidate list is built the first time an exit needs it.
    """
    poly = flow.surface.polygons[p]
    tab = flow.table(poly)
    if cx is None:
        cx = flow.across(x)
    bounds = tab.bounds
    key = _sort_key(cx)
    j = bisect_left(bounds, key)
    memo = cands = None  # memo: the (entry, slab) exit this scan fills
    if j < len(bounds) and bounds[j][1] == cx:
        cands = tab.line_rows(j)
    elif 0 < j < len(bounds):
        if entry is not None:
            cands = tab.exits.get((entry, j))
            if cands is None:
                memo = (entry, j)
        if cands is None:
            cands = tab.slab_rows(j)
    else:
        cands = ()
    best = _leaf_exit(flow, tab, poly, x, cx, cands)
    if best is None:
        raise InconsistentTopology(
            "ray from %s in polygon %d found no exit" % (x, p))
    t, y, vert, row = best
    if memo is not None:
        tab.exits[memo] = ((row, None),)
    return t, y, vert, row[0], key


def _leaf_exit(flow, tab, poly, x, cx, cands):
    """(t, y, vertex, row) of the first exit among `cands` of the ray from
    x on the leaf u = cx, or None.  Each candidate's s at the exit is its
    vertex's, or its line's at cx; it needs s > s(x), the least s wins, and
    t = s - s(x) is formed once, for the winner."""
    along = flow.along
    s0 = along(x)
    best = bv = brow = None
    for row, vert in cands:
        if vert is None:
            a, b = flow.line(tab, poly, row)
            s = _affine(a, b, cx)
        else:
            s = along(poly.vertices[vert])
        if s._cmp(s0) <= 0:
            continue  # t <= 0
        if best is None or s._cmp(best) < 0:
            best, bv, brow = s, vert, row
    if best is None:
        return None
    y = poly.vertices[bv] if bv is not None else flow.point(cx, best)
    return best - s0, y, bv, brow


def _param_on(seg, pt, along):
    """Flow parameter at which segment `seg` passes `pt`, or None when pt is
    off it; the caller has checked that pt lies on seg's leaf."""
    d = along(pt) - along(seg.a)
    if d.sign() < 0:
        return None
    th = seg.tau0 + d
    if th > seg.tau1:
        return None
    return th


def trace(surface, polygon=None, point=None, direction=None, *, corner=None,
          cap=None, stop_at_marked=True, stop_on=None, detect_closure=True,
          max_steps=200000, _located=None) -> TraceEvent:
    """Flow from a start point until something happens.

    Start is (polygon, point), or corner=(p, v) alone for a vertex start; at a
    cone point the corner picks which of the coinciding sectors the ray leaves
    through.  Terminal kinds: ClosedUp (back at the start point),
    HitSingularity, HitMarkedPoint (unless stop_at_marked is off), CapExceeded,
    or Stopped when the stop_on hook fires.  Hook: stop_on(segment) may return
    (tau, payload) to stop at flow parameter tau, tau0 <= tau <= tau1 on that
    segment.  At one tau a closing wins over the cone, which wins over the
    hook: a hook stop exactly at a cone point ends in HitSingularity.  A
    trace still unresolved after max_steps segments raises TraceOverflow
    with the partial path.
    `direction` is a vector, or a _Flow on `surface` that several traces in
    one direction share.  Inside the package, `_located` passes
    `Surface._point`'s (where, aliases) of a start point the caller has
    located already, as `Decomposition` does for the rays from a mark.
    The start's aliases (if detect_closure) and then every mark's, by mark
    index (if stop_at_marked), go into one stop table per trace, by chart.
    """
    flow = _as_flow(surface, direction)
    vv, vlen, across, along = flow.vv, flow.vlen, flow.across, flow.along
    state, aliases = _start_state(flow, polygon, point, corner, _located)
    stops = {}
    for pa, pt in aliases if detect_closure else ():
        stops.setdefault(pa, []).append((CLOSED, None, pt, across(pt)))
    for idx, mp in enumerate(surface.marked) if stop_at_marked else ():
        for pa, pt in mp.aliases:
            stops.setdefault(pa, []).append((MARKED, idx, pt, across(pt)))

    if cap is None:
        cap = surface.default_cap()
    cap = scalar(cap)
    # the cap on tau itself: tau * vlen > cap, or tau^2 * vv > cap^2 when
    # vlen is not in the field; on an axis, where vlen is 1, the cap
    squared = vlen is None
    limit = cap if vlen is _ONE else (cap * cap / vv if squared
                                      else cap / vlen)

    segments: list[Segment] = []
    tau = _ZERO
    entry = None  # the edge the current chart was entered through

    def finish(kind, param, mark=None, corner=None, payload=None):
        return TraceEvent(kind, segments, param, vlen, vv, mark=mark,
                          corner=corner, payload=payload)

    for _ in range(max_steps):
        # ---- advance one segment -------------------------------------------
        if state[0] == "slide":
            _, p, e, x = state
            poly = surface.polygons[p]
            k = (e + 1) % poly.n
            target = poly.vertices[k]
            seg = Segment(p, x, target, True, tau,
                          tau + (along(target) - along(x)), edge=e, vertex=k)
            cx = None
        else:
            _, p, x = state
            cx = across(x)
            t, y, vert, exit_edge, key = _exit_solve(flow, p, x, cx, entry)
            seg = Segment(p, x, y, False, tau, tau + t, vertex=vert, key=key)
        arrive = (p, seg.vertex) if seg.vertex is not None else None

        # ---- mid-segment events --------------------------------------------
        hits = []
        for kind, payload, pt, cp in stops.get(p, ()):
            if cx is None:
                cx = across(x)
            if cp != cx:
                continue
            th = _param_on(seg, pt, along)
            if th is not None and th.sign() > 0:
                hits.append((th, _RANK[kind], kind, payload))
        if stop_on is not None:
            got = stop_on(seg)
            if got is not None:
                th, payload = got
                if th.sign() > 0:
                    hits.append((th, _RANK[STOPPED], STOPPED, payload))
        if arrive is not None and surface.is_singular_corner(arrive):
            hits.append((seg.tau1, _RANK[SINGULAR], SINGULAR, arrive))

        if hits:
            best = hits[0]
            for h in hits[1:]:
                dcmp = h[0]._cmp(best[0])
                if dcmp < 0 or (dcmp == 0 and h[1] < best[1]):
                    best = h
            th, _, kind, payload = best
            if th < seg.tau1:  # cut before its end: off every vertex
                seg = Segment(seg.polygon, seg.a, flow.point_on(seg, th),
                              seg.slide, seg.tau0, th, edge=seg.edge,
                              key=seg.key)
            segments.append(seg)
            if kind == CLOSED:
                return finish(CLOSED, th)
            if kind == MARKED:
                return finish(MARKED, th, mark=payload)
            if kind == STOPPED:
                return finish(STOPPED, th, payload=payload)
            return finish(SINGULAR, th, corner=payload)

        segments.append(seg)
        tau = seg.tau1

        # ---- cap ------------------------------------------------------------
        if (tau * tau if squared else tau) > limit:
            return finish(CAPPED, tau)

        # ---- continue into the next chart ----------------------------------
        if arrive is not None:
            state = flow.leave(arrive)
            entry = None
        else:
            p2, entry = surface.partner[(p, exit_edge)]
            state = ("go", p2, seg.b + surface.translation[(p, exit_edge)])
    raise TraceOverflow("trace exceeded %d segments without resolving"
                        % max_steps, segments)


def departing_corners(surface, direction, cls=None):
    """Corners whose sector emits `direction`: k+1 per cone of angle 2(k+1)pi.

    With cls given, restrict to that vertex class (singular or not).
    `direction` is a vector, or a _Flow on `surface`, whose sector rows --
    one per distinct Polygon -- answer for every corner of every chart with
    that Polygon.
    """
    flow = _as_flow(surface, direction)
    classes = [cls] if cls is not None else surface.singular_classes
    return [corner for c in classes for corner in surface.corner_cycles[c]
            if flow.sector(corner)]


def separatrices(surface, direction, *, cap=None):
    """Trace every separatrix leaving a cone point along `direction`.

    Returns [(corner, TraceEvent)].  Saddle connections in this direction are
    exactly the traces that end in HitSingularity, each found once (from its
    rear cone point); marked points do not stop them.  `direction` is a
    vector or a _Flow on `surface`; the corners and every trace read the one
    flow.
    """
    flow = _as_flow(surface, direction)
    corners = departing_corners(surface, flow)
    if cap is None and corners:
        cap = surface.default_cap()  # once for all of them
    out = []
    for corner in corners:
        ev = trace(surface, corner=corner, direction=flow, cap=cap,
                   stop_at_marked=False)
        out.append((corner, ev))
    return out


def saddle_connections(surface, direction, *, cap=None):
    """The saddle connections along `direction` as (corner, TraceEvent)."""
    return [(c, ev) for (c, ev) in separatrices(surface, direction, cap=cap)
            if ev.kind == SINGULAR]


def advance(surface, polygon, point, direction, delta):
    """The chart point reached after flowing exactly delta in parameter.

    Used to step along a leaf by a known amount; delta must be positive and
    the flow must not meet a cone point strictly earlier.  A step that ends
    exactly at a cone point returns that point.
    """
    delta = scalar(delta)
    if delta.sign() <= 0:
        raise InvalidParams("advance needs a positive parameter step")

    def stop(seg):
        return (delta, None) if seg.tau1 >= delta else None

    ev = trace(surface, polygon, point, direction, stop_at_marked=False,
               stop_on=stop, detect_closure=False, cap=None)
    if ev.kind not in (STOPPED, SINGULAR) or ev.param != delta:
        raise InconsistentTopology(
            "flow ended with %s before reaching the requested step" % ev.kind)
    seg = ev.segments[-1]
    return seg.polygon, seg.b


class ConnectionEvidence:
    """Bounded evidence about separatrices through a point.

    kind is 'AllExtended' (count separatrices found, all continuing into a
    saddle connection within the cap), 'FoundNonExtending' (witness records
    the direction whose continuation ran past the cap), or 'Exhausted' (the
    chart development hit the node budget first, so no claim is made).
    """

    __slots__ = ("kind", "count", "witness")

    def __init__(self, kind, count=None, witness=None):
        self.kind = kind
        self.count = count
        self.witness = witness

    def __repr__(self):
        if self.kind == "AllExtended":
            return "ConnectionEvidence(AllExtended, %d)" % self.count
        return "ConnectionEvidence(%s)" % self.kind


def _disk_meets_polygon(vertices, center, r2):
    if polygon_contains(vertices, center):
        return True
    n = len(vertices)
    for e in range(n):
        d2 = dist2_point_segment(center, vertices[e], vertices[(e + 1) % n])
        if d2 <= r2:
            return True
    return False


# charts developed around a point before the sighting gives up (Exhausted)
_NODE_BUDGET = 20000


def is_connection_point_up_to(surface, mark,
                              cap=None) -> ConnectionEvidence:
    """Check, up to `cap`, that every separatrix through a marked point
    extends to a saddle connection.

    Candidate directions come from developing the surface around the point
    and sighting every cone within the cap disk; each is verified by an exact
    trace toward the cone, then continued on the far side.  A semi-decision:
    a clean pass is evidence, never proof.
    """
    mp = surface.marked[_mark_index(surface, mark)]
    if not surface.singular_classes:
        return ConnectionEvidence("AllExtended", 0)
    cap = scalar(cap) if cap is not None else surface.default_cap()
    cap2 = cap * cap
    p0 = mp.at

    origin = Vec2(0, 0)
    seen = {(mp.polygon, origin)}
    queue = [(mp.polygon, origin)]
    rays = set()
    nodes = 0
    while queue:
        nodes += 1
        if nodes > _NODE_BUDGET:
            return ConnectionEvidence("Exhausted")
        p, off = queue.pop(0)
        poly = surface.polygons[p]
        for k in range(poly.n):
            if surface.is_singular_corner((p, k)):
                d = poly.vertex(k) + off - p0
                d2 = dot(d, d)
                if d2.sign() > 0 and d2 <= cap2:
                    rays.add(canonical_direction(d))
        for e in range(poly.n):
            p2, _ = surface.partner[(p, e)]
            off2 = off - surface.translation[(p, e)]
            key = (p2, off2)
            if key in seen:
                continue
            dev = [surface.polygons[p2].vertex(t) + off2
                   for t in range(surface.polygons[p2].n)]
            if _disk_meets_polygon(dev, p0, cap2):
                seen.add(key)
                queue.append(key)

    count = 0
    for r in sorted(rays, key=lambda u: (u.x, u.y)):
        inbound = trace(surface, mp.polygon, mp.at, r, cap=cap,
                        stop_at_marked=False)
        if inbound.kind != SINGULAR:
            continue  # the leaf closes up or the sighting was on another sheet
        count += 1
        outward = trace(surface, mp.polygon, mp.at, -r, cap=cap,
                        stop_at_marked=False)
        if outward.kind != SINGULAR:
            witness = {"extension_direction": -r,
                       "separatrix_length_squared": inbound.length_squared,
                       "cap": cap}
            return ConnectionEvidence("FoundNonExtending", count, witness)
    return ConnectionEvidence("AllExtended", count)
