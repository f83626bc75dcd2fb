"""Cylinder decompositions of a direction, splitting ratios, and twists.

Everything happens in the normalized frame: the direction is mapped to the
vertical by a determinant-one matrix, so closed leaves run straight up and
transverse measurements run straight east.  Widths, heights and ratios are
reported in that frame; ratios and moduli are frame-independent.  The
vertical's matrix is the identity, so it is decomposed on the surface
itself, not on a mapped copy.

Bands are cut along every leaf through a distinguished point: the separatrices
of the cone points plus the closed leaves through the regular vertex classes.
A direction decomposes completely when all of those are accounted for within
the cap -- every separatrix ends at a cone point, and every regular vertex
that no saddle connection passes lies on a closed leaf, traced once from the
first such vertex on it.  The union of these leaves is the barrier set, and
each regular vertex's band is read off the barrier leaf through it.

A band is found from its west bank, without tracing inside it.  A saddle
connection arrives at its upper cone from direction -v (down); turning
counterclockwise from there, the first corner that owns east opens onto the
band east of the connection, and the next corner that owns up starts the next
saddle connection on the same bank.  Each cycle of this permutation of the
separatrices is the west bank of one band, whose height (circumference) is
the sum of the bank's lengths; each closed vertex leaf is the west bank of
one band too, with its own length as height.  Every corner a width ray leaves
from (the corners owning east at the cones and at the regular vertices) opens
onto the band east of the barrier through its vertex, so bands are numbered
in the order of the first such corner, and one east ray from that corner to
the next barrier gives the band's width and, at its midpoint, a sample point
on the band's central closed leaf.  No leaf inside a band is traced: once every
separatrix is a saddle connection the direction is completely periodic, and
the bank sums and the area identity (sum of width * height == area) give each
cylinder exactly, so the cap binds only the barrier leaves.

The barrier set is one table, `Decomposition.barriers`: chart -> (xs, rows),
the rows (x, y_low, y_high, leaf id) of the leaf segments in that chart --
vertical spans in the normalized frame -- sorted by x, and xs their x's; leaf
ids number `connections`, then `vertex_leaves`.  A segment sliding along a
glued edge has a row in both charts.  A leaf through a regular vertex may
touch only some of its corners, so each chart point of such a vertex has a
point row (x, y, y, leaf id).  The barrier hook and the boundary test of
`locate_normalized` bisect it.  The table is built from what the up traces
recorded on their segments: the regular vertex a leaf passes is the vertex
its segment ends at (`Segment.vertex`), and a row sorts by the key its
exit solve bisected with (`Segment.key`), since on the up flow a point's u
is its x; only slides and their partner-chart copies form their own key.

Every transverse ray -- a band's width ray from its first corner, the two
rays that place a point, a bank's west ray -- is `Decomposition._ray`: an
east or west trace stopped by the barrier hook, which must end there.
A point is placed by one ray west and one ray east to the barriers: the band
it lies in is the band east of where the west ray stops -- a barrier leaf
(whose id the barrier hook returns) or a cone corner (the same east rule),
which wins a tie with a barrier crossing there.
Marked points are placed this way (`Decomposition._place`), and so are
banks (which barrier leaves bound each cylinder), on first read of
`Decomposition.banks`, since no part of the decomposition depends on them.
A mark keeps its aliases and where it lies in its canonical chart
(`MarkedPoint.where`), which `transform` carries over, so its two rays start
there without locating it again; `locate_normalized` locates a point once
for its aliases and both rays.

Every trace of a decomposition runs up, east or west, so a decomposition
makes one flow per direction (trace._Flow) and passes it to each trace.
What a flow computes once -- the axis coordinates, the edge tables, the exit
memo and the sector rows -- is set out in the `trace` module docstring.  A
barrier leaf thousands of segments long re-enters its charts, or another
sheet's copies of them, mostly in slabs it or an earlier leaf already
crossed, and the two turns of each saddle connection on its west bank (from
down to the first corner owning east, on the east flow; from east to the
first owning up, on the up flow) read the sector rows.  The Decomposition
keeps its flows (`flows`), so the later rays of `locate` and the twists of
`dehn_twist_point` and `twist_orbit` reuse the same tables and memo, and
read the points of their rays (`_Flow.point_on`).

A surface's chart symmetries (`Surface._chart_symmetries`; on a slit cover,
its deck transformations) carry the leaves and rays of one sheet onto the
others, so a decomposition traces one of each orbit.  It traces the first
corner of each orbit among the separatrix corners (in `departing_corners`
order), the first unsettled regular vertex class of each orbit, and the
first corner of each orbit among the width-ray corners it needs.  Every
other such event is the image of a traced one under a symmetry g: each
segment's chart and the arrival corner are mapped by g, every other field
is shared (`_moved`), and a width ray's image keeps its width, with its
sample's chart mapped.  That is sound because every trace of a
decomposition ignores marks and reads only the per-Polygon tables of its
flow, the gluing, the edge translations (equal for (p, e) and (g[p], e)),
the vertex classes, which g permutes, and, for a width ray, the barrier
set, which g maps onto itself: g permutes the separatrices and the leaves
through the regular vertices.  So the trace from g.c is g applied to the
trace from c, parameter for parameter; only the leaf id a transverse ray
stops at may differ, and a width ray's is not read.  The first member of an
orbit comes first in the order, so a decomposition that stops early stops
where tracing every leaf stops, and every output -- connections, vertex
leaves, barrier rows, cylinders -- is what tracing every leaf gives.  The
rays that place marks and banks read marks or leaf ids, and are always
traced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .errors import (InconsistentTopology, InvalidParams, NotComplete,
                     OnBoundaryPoint)
from .field import (FieldScalar, _sort_key, commensurability_classes,
                    least_common_integer_multiple, scalar)
from .geometry import (Vec2, _as_vec, canonical_direction,
                       normalize_to_vertical)
from .surface import _index, _mark_index
from .trace import (CLOSED, SINGULAR, STOPPED, Segment, TraceEvent, _Flow,
                    _turn, advance, departing_corners, trace)

_UP = Vec2(0, 1)
_DOWN = Vec2(0, -1)
_EAST = Vec2(1, 0)
_WEST = Vec2(-1, 0)


class Cylinder:
    """One band of parallel closed leaves, in the normalized frame.

    width   -- transverse extent (east across the band)
    height  -- circumference of each closed leaf: the length of its west bank
    sample  -- (polygon, point) midway across the band on its first width ray,
               a point of the band's central closed leaf
    marks   -- indices of marked points strictly inside, set by decompose

    The barrier leaves bounding the band are read from the decomposition:
    `Decomposition.banks[index]`.
    """

    __slots__ = ("index", "width", "height", "sample", "marks")

    def __init__(self, index, width, height, sample):
        self.index = index
        self.width = width
        self.height = height
        self.sample = sample
        self.marks = []

    @property
    def inverse_modulus(self) -> FieldScalar:
        return self.height / self.width

    @property
    def modulus(self) -> FieldScalar:
        return self.width / self.height

    def __repr__(self):
        return "Cylinder(%d, w=%s, h=%s)" % (self.index, self.width, self.height)


class MarkPosition:
    __slots__ = ("state", "cylinder", "westd", "eastd", "ratio")

    def __init__(self, state, cylinder=None, westd=None, eastd=None, ratio=None):
        self.state = state  # 'in' or 'boundary'
        self.cylinder = cylinder
        self.westd = westd
        self.eastd = eastd
        self.ratio = ratio

    def __repr__(self):
        if self.state == "boundary":
            return "MarkPosition(boundary)"
        return "MarkPosition(cyl=%d, ratio=%s)" % (self.cylinder, self.ratio)


class Decomposition:
    """Result of decompose: either complete with cylinders, or undetermined.

    An undetermined result makes no claim about periodicity either way; it
    only records that some leaf failed to resolve within the cap.
    """

    __slots__ = ("surface", "direction", "frame", "normalized", "status",
                 "cylinders", "connections", "vertex_leaves", "barriers",
                 "marks", "cap", "flows", "_hook", "_east_of", "_corner_east",
                 "_banks")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def inverse_moduli(self):
        return [c.inverse_modulus for c in self.cylinders]

    @property
    def banks(self):
        """cylinder index -> (west ids, east ids): the barrier leaves on the
        cylinder's west and east banks, numbered as the separatrices in
        `connections` followed by the closed leaves in `vertex_leaves`.

        A barrier leaf is on the west bank of the band east of it, known
        from decompose.  A ray west from the middle of its first segment
        crosses the band on its other side, which is named by where the ray
        stops.  Computed on first read and kept.
        """
        if not self.complete:
            raise NotComplete("banks need a complete decomposition")
        if self._banks is None:
            banks = {cyl.index: ([], []) for cyl in self.cylinders}
            events = ([ev for _, ev in self.connections]
                      + [ev for _, ev in self.vertex_leaves])
            for bid, ev in enumerate(events):
                banks[self._east_of[bid]][0].append(bid)
                seg = ev.segments[0]
                p, q = _point_on(self.flows["up"], ev,
                                 (seg.tau0 + seg.tau1) / 2)
                west = self._ray(p, q, "west")
                banks[self._band_of_west_ray(west)][1].append(bid)
            self._banks = banks
        return self._banks

    # -- point location -------------------------------------------------------

    def locate_normalized(self, polygon, point) -> MarkPosition:
        """Place a normalized-frame point inside the decomposition."""
        if not self.complete:
            raise NotComplete("cannot locate points in an undetermined "
                              "decomposition")
        return self._place(polygon, point,
                           self.normalized._point(polygon, point))

    def _place(self, polygon, point, located):
        """locate_normalized of a point already located: `located` is
        `Surface._point`'s (where, aliases) of it.  On a barrier leaf
        through any alias the point is on a boundary; otherwise one ray
        east and one west, both started from `located`, measure its band."""
        if any(_leaves_at(self.barriers, p, pt) for p, pt in located[1]):
            return MarkPosition("boundary")
        east = self._ray(polygon, point, "east", located)
        west = self._ray(polygon, point, "west", located)
        eastd, westd = east.param, west.param
        width = eastd + westd
        index = self._band_of_west_ray(west)
        if self.cylinders[index].width != width:
            raise InconsistentTopology(
                "band width %s disagrees with cylinder %d" % (width, index))
        return MarkPosition("in", index, westd, eastd, westd / width)

    def locate(self, polygon, point) -> MarkPosition:
        """Place an original-frame point inside the decomposition."""
        return self.locate_normalized(polygon, self.frame * _as_vec(point))

    def _ray(self, polygon, point, direction, located=None, corner=None):
        """The transverse ray `direction` ('east' or 'west') from a point,
        or from `corner` when polygon and point are None, stopped at the
        first barrier it meets."""
        ev = trace(self.normalized, polygon, point, corner=corner,
                   direction=self.flows[direction], stop_at_marked=False,
                   cap=self.cap, detect_closure=False, stop_on=self._hook,
                   _located=located)
        if ev.kind not in (STOPPED, SINGULAR):
            raise InconsistentTopology(
                "transverse ray escaped the decomposition (%s)" % ev.kind)
        return ev

    def _band_of_west_ray(self, ray):
        """Index of the cylinder east of where a westward ray stopped: past
        the barrier leaf the hook met, or past the cone corner it reached."""
        try:
            if ray.kind == STOPPED:
                return self._east_of[ray.payload]
            return self._corner_east[_owner_back(self.normalized, ray)]
        except KeyError:
            raise InconsistentTopology(
                "point belongs to no known cylinder") from None


def _point_on(flow, ev, tau):
    """(polygon, point) reached at parameter tau along `ev`, traced on
    `flow`."""
    seg = next(s for s in ev.segments if s.tau0 <= tau <= s.tau1)
    return seg.polygon, flow.point_on(seg, tau)


def _owner_back(surface, ev):
    """The corner owning the direction back along a trace that ended at a
    vertex: its arrival corner, or the next one after a slide, whose edge
    is that corner's excluded incoming ray."""
    if ev.segments[-1].slide:
        return surface.next_corner(ev.corner)
    return ev.corner


def _barrier_table(surface, leaves, leaf_of):
    """The barrier table (see the module docstring) of `leaves`, the barrier
    leaves traced upward, numbered in order, with the point rows of the
    regular vertex classes in `leaf_of` (class -> id of the leaf through
    it).  A leaf segment that is not vertical is an inconsistency.

    On the up flow a segment's u is its x, so the rows sort by the key the
    exit solve already formed for it (`Segment.key`); a slide, its copy in
    the partner chart and a segment without a key form their own."""
    charts = {}
    for leaf, ev in enumerate(leaves):
        for seg in ev.segments:
            x, y0, y1 = seg.a.x, seg.a.y, seg.b.y
            if seg.b.x != x:
                raise InconsistentTopology("leaf segment %r is not vertical"
                                           % (seg,))
            key = seg.key if seg.key is not None else _sort_key(x)
            charts.setdefault(seg.polygon, []).append(
                (key, (x, y0, y1, leaf)))
            if seg.slide:
                p2, _ = surface.partner[(seg.polygon, seg.edge)]
                shift = surface.translation[(seg.polygon, seg.edge)]
                x2 = x + shift.x
                charts.setdefault(p2, []).append(
                    (_sort_key(x2), (x2, y0 + shift.y, y1 + shift.y, leaf)))
    table = {}
    for p, keyed in charts.items():
        keyed.sort(key=itemgetter(0))
        rows = [row for _, row in keyed]
        table[p] = ([row[0] for row in rows], rows)
    for cls, leaf in sorted(leaf_of.items()):
        for p, pt in surface._class_points(cls):
            xs, rows = table.setdefault(p, ([], []))
            i = bisect_right(xs, pt.x)
            xs.insert(i, pt.x)
            rows.insert(i, (pt.x, pt.y, pt.y, leaf))
    return table


def _leaves_at(barriers, polygon, pt):
    """Ids of the barrier leaves whose rows in chart `polygon` hold `pt`."""
    xs, rows = barriers.get(polygon, ((), ()))
    return [leaf for _, y0, y1, leaf
            in rows[bisect_left(xs, pt.x):bisect_right(xs, pt.x)]
            if y0 <= pt.y <= y1]


def _barrier_hook(barriers):
    """stop_on hook halting a horizontal ray at its first barrier crossing,
    with the id of the barrier leaf it crosses as payload.

    A crossing is a row of the barrier table whose x lies in the ray
    segment's x-span and whose y-span holds the ray's y.  The hook bisects
    to the segment's start and visits the rows nearest first; a row at the
    start counts only past the ray's first segment.  The ray runs east or
    west at unit speed, so it stops at flow parameter tau0 + |x - ax|.  A
    crossing at a cone point ties with the cone, which wins: the trace
    stops there with the arrival corner, since several barriers meet at a
    cone.  A ray that is not horizontal is an inconsistency.
    """
    def stop(seg):
        ax, bx, y = seg.a.x, seg.b.x, seg.a.y
        if seg.b.y != y:
            raise InconsistentTopology(
                "barrier hook needs a horizontal ray, got %r" % (seg,))
        xs, rows = barriers.get(seg.polygon, ((), ()))
        sense = bx._cmp(ax)  # +1 east, -1 west
        if sense > 0:
            i = bisect_left(xs, ax) if seg.tau0 else bisect_right(xs, ax)
            ahead = range(i, len(rows))
        else:
            i = bisect_right(xs, ax) if seg.tau0 else bisect_left(xs, ax)
            ahead = range(i - 1, -1, -1)
        for i in ahead:
            x, y0, y1, leaf = rows[i]
            if x._cmp(bx) * sense > 0:
                return None
            if y0._cmp(y) <= 0 <= y1._cmp(y):
                return seg.tau0 + (x - ax if sense > 0 else ax - x), leaf
        return None
    return stop


def _west_banks(up, east, connections, vertex_leaves):
    """The bands of a direction, found from their west banks.

    `up` and `east` are the decomposition's flows, whose sector rows answer
    the two turns of each saddle connection; `connections` are the
    (corner, event) separatrices, all saddle connections; `vertex_leaves`
    the (class, event) closed leaves through the regular vertices that no
    separatrix passes.  Returns (heights, east_of, corner_band): the height
    of each band; the band east of each barrier leaf (the separatrices, then
    the closed leaves); and the band a ray leaving each east-owning cone
    corner enters.  The band east of a regular vertex is the one east of the
    barrier leaf through it.
    """
    surface = up.surface
    starts = {corner: i for i, (corner, _) in enumerate(connections)}
    succ, east_corners = [], []
    for _, ev in connections:
        opens = _turn(east, _owner_back(surface, ev), _DOWN)
        east_corners.append(opens)
        nxt = starts.get(_turn(up, opens, _EAST))
        if nxt is None:
            raise InconsistentTopology("no separatrix leaves %s upward"
                                       % (opens,))
        succ.append(nxt)
    band_of, heights = [None] * len(connections), []
    for i in range(len(connections)):
        if band_of[i] is not None:
            continue
        height, j = scalar(0), i
        while band_of[j] is None:
            band_of[j] = len(heights)
            height = height + connections[j][1].param
            j = succ[j]
        if j != i:
            raise InconsistentTopology("west bank from separatrix %d does "
                                       "not close up" % i)
        heights.append(height)
    corner_band = {east: band_of[i] for i, east in enumerate(east_corners)}
    east_of = list(band_of)
    for _, ev in vertex_leaves:
        east_of.append(len(heights))
        heights.append(ev.param)
    return heights, east_of, corner_band


def _moved(g, ev):
    """The image of `ev`, an up trace of a decomposition, under the chart
    symmetry g: each segment in chart g[p], the arrival corner in chart
    g[p], every other field shared."""
    segments = [Segment(g[s.polygon], s.a, s.b, s.slide, s.tau0, s.tau1,
                        s.edge, s.vertex, s.key) for s in ev.segments]
    corner = ev.corner
    if corner is not None:
        corner = (g[corner[0]], corner[1])
    return TraceEvent(ev.kind, segments, ev.param, ev.vlen, ev.vv,
                      corner=corner)


def decompose(surface, direction, cap=None) -> Decomposition:
    """Cylinder decomposition of `direction`, or an undetermined report."""
    dirc = canonical_direction(_as_vec(direction))
    frame = normalize_to_vertical(dirc)
    # found once on the surface, which transform hands on; the identity is
    # left out, as it maps each trace to itself
    symmetries = surface._chart_symmetries()[1:]
    # the vertical's frame is the identity: the surface is its own image
    normalized = surface if dirc == _UP else surface.transform(frame)
    run_cap = scalar(cap) if cap is not None else normalized.default_cap()
    # one flow per direction, shared by every trace of this decomposition
    # and, through Decomposition.flows, by its later rays and twists
    flows = {name: _Flow(normalized, v)
             for name, v in (("up", _UP), ("east", _EAST), ("west", _WEST))}
    up, east = flows["up"], flows["east"]
    # the one result, undetermined until every barrier leaf is traced
    deco = Decomposition(surface=surface, direction=dirc, frame=frame,
                         normalized=normalized, status="undetermined",
                         cylinders=[], connections=[], vertex_leaves=[],
                         cap=run_cap, flows=flows)
    connections, vertex_leaves = deco.connections, deco.vertex_leaves

    # upward separatrices from the cone points: all must be saddle
    # connections.  Each orbit of corners under the chart symmetries is
    # traced from its first corner; the rest are images of that trace
    images = {}  # an image corner -> (g, the trace it is the image of)
    for corner in departing_corners(normalized, up):
        got = images.get(corner)
        if got is None:
            ev = trace(normalized, corner=corner, direction=up,
                       stop_at_marked=False, cap=run_cap)
            p, k = corner
            for g in symmetries:
                images[(g[p], k)] = (g, ev)
        else:
            ev = _moved(*got)
        connections.append((corner, ev))
        if ev.kind != SINGULAR:
            return deco

    # the barrier leaf through each regular vertex class: a leaf passes a
    # vertex where one of its segments ends at one of the vertex's corners,
    # which the segment records.  A class no leaf traced so far passes is
    # traced once, and its leaf must close: once every upward separatrix is
    # a saddle connection, so is every downward one, and a vertex whose
    # leaf runs into a cone lies on one of them.
    windings = normalized.cone_windings
    regular = [cls for cls, w in enumerate(windings) if w <= 1]
    class_of = normalized.class_of
    leaf_of = {}

    def settle(leaf, ev):
        for seg in ev.segments:
            if seg.vertex is not None:
                cls = class_of[(seg.polygon, seg.vertex)]
                if windings[cls] <= 1:
                    leaf_of[cls] = leaf

    for leaf, (_, ev) in enumerate(connections):
        settle(leaf, ev)
    images = {}  # an image class -> (g, the trace it is the image of)
    for cls in regular:
        if cls in leaf_of:
            continue
        got = images.get(cls)
        if got is None:
            p, k = start = normalized.vertex_classes[cls][0]
            ev = trace(normalized, corner=start, direction=up,
                       stop_at_marked=False, cap=run_cap)
            for g in symmetries:
                images[class_of[(g[p], k)]] = (g, ev)
        else:
            ev = _moved(*got)
        if ev.kind == SINGULAR:
            raise InconsistentTopology(
                "leaf of vertex class %d runs into a cone off every "
                "separatrix" % cls)
        if ev.kind != CLOSED:
            return deco
        vertex_leaves.append((cls, ev))
        settle(len(connections) + len(vertex_leaves) - 1, ev)

    deco.barriers = _barrier_table(normalized, [ev for _, ev in connections]
                                   + [ev for _, ev in vertex_leaves], leaf_of)
    deco._hook = _barrier_hook(deco.barriers)

    heights, east_of, corner_band = _west_banks(up, east, connections,
                                                vertex_leaves)
    ray_corners = departing_corners(normalized, east)
    for cls in regular:
        for corner in departing_corners(normalized, east, cls=cls):
            ray_corners.append(corner)
            corner_band[corner] = east_of[leaf_of[cls]]

    # number the bands by their first ray corner; one width ray each, or
    # the image of the ray from a corner it is the image of
    cylinders, index, images = deco.cylinders, {}, {}
    for corner in ray_corners:
        band = corner_band.get(corner)
        if band is None:
            raise InconsistentTopology("corner %s opens onto no band"
                                       % (corner,))
        if band in index:
            continue
        got = images.get(corner)
        if got is None:
            ev = deco._ray(None, None, "east", corner=corner)
            width = ev.param
            sample = _point_on(east, ev, width / 2)
            p, k = corner
            for g in symmetries:
                images[(g[p], k)] = (g, width, sample)
        else:
            g, width, (q, point) = got
            sample = (g[q], point)
        index[band] = len(cylinders)
        cylinders.append(Cylinder(len(cylinders), width, heights[band],
                                  sample))

    total = scalar(0)
    for cyl in cylinders:
        total = total + cyl.width * cyl.height
    if total != surface.area:
        raise InconsistentTopology(
            "cylinder areas sum to %s but the surface has area %s"
            % (total, surface.area))

    deco.status = "complete"
    deco._east_of = [index[band] for band in east_of]
    deco._corner_east = {corner: index[band]
                         for corner, band in corner_band.items()}
    deco.marks = []
    # each mark keeps its location, which transform carried over: no mark
    # is located again
    for i, mp in enumerate(normalized.marked):
        pos = deco._place(mp.polygon, mp.at, (mp.where, mp.aliases))
        deco.marks.append(pos)
        if pos.state == "in":
            cylinders[pos.cylinder].marks.append(i)
    return deco


# -- signatures and classification -------------------------------------------


class TorusSignature:
    """Commensurability structure of the inverse moduli of a decomposition.

    m counts the classes; representatives holds the least common positive
    integer multiple of each class; s_prime is that single representative
    when m == 1 (the twist parameter), else None.
    """

    __slots__ = ("m", "classes", "representatives", "s_prime")

    def __init__(self, m, classes, representatives, s_prime):
        self.m = m
        self.classes = classes
        self.representatives = representatives
        self.s_prime = s_prime

    def class_of_cylinder(self, index: int) -> int:
        for j, group in enumerate(self.classes):
            if index in group:
                return j
        raise InvalidParams("no cylinder %d in this signature" % index)

    def __repr__(self):
        return "TorusSignature(m=%d, s'=%s)" % (self.m, self.s_prime)


def signature_of_moduli(inverse_moduli) -> TorusSignature:
    values = [scalar(v) for v in inverse_moduli]
    classes = commensurability_classes(values)
    reps = [least_common_integer_multiple([values[i] for i in group])
            for group in classes]
    s_prime = reps[0] if len(classes) == 1 else None
    return TorusSignature(len(classes), classes, reps, s_prime)


def torus_signature(deco: Decomposition) -> TorusSignature:
    if not deco.complete:
        raise NotComplete("signature needs a complete decomposition")
    return signature_of_moduli(deco.inverse_moduli())


class DirectionClass:
    """Outcome of classify_direction.

    kind is 'Fat', 'Parabolic', 'PeriodicMixed' or 'Undetermined'; a
    non-periodic direction is never certified, it stays Undetermined.
    The Fat certificate is (mark index, cylinder index, irrational ratio).
    """

    __slots__ = ("kind", "decomposition", "signature", "certificate")

    def __init__(self, kind, decomposition, signature=None, certificate=None):
        self.kind = kind
        self.decomposition = decomposition
        self.signature = signature
        self.certificate = certificate

    @property
    def s_prime(self):
        return self.signature.s_prime if self.signature else None

    def __repr__(self):
        extra = ""
        if self.kind == "Parabolic":
            extra = ", s'=%s" % self.s_prime
        elif self.kind == "Fat":
            extra = ", mark %d in cylinder %d, ratio %s" % self.certificate
        return "DirectionClass(%s%s)" % (self.kind, extra)


def classify_direction(surface, direction, cap=None) -> DirectionClass:
    deco = decompose(surface, direction, cap=cap)
    if not deco.complete:
        return DirectionClass("Undetermined", deco)
    sig = signature_of_moduli(deco.inverse_moduli())
    for i, mk in enumerate(deco.marks):
        if mk.state == "in" and not mk.ratio.is_rational:
            return DirectionClass("Fat", deco, signature=sig,
                                  certificate=(i, mk.cylinder, mk.ratio))
    if sig.m == 1:
        return DirectionClass("Parabolic", deco, signature=sig)
    return DirectionClass("PeriodicMixed", deco, signature=sig)


# -- twists -------------------------------------------------------------------


def twist_displacement(cyl: Cylinder, westd, n: int):
    """Leaf displacement {n*theta}*h of the n-fold twist, theta = westd/w."""
    delta = scalar(n) * westd * cyl.height / cyl.width
    _, frac = (delta / cyl.height).floor_frac()
    return frac * cyl.height


def _twisted(deco, polygon, npt, cyl, westd, n):
    """(leaf displacement, (polygon, original-frame point)) of the n-fold
    twist in `cyl` of the normalized-frame point `npt`, westd east of the
    cylinder's west bank."""
    delta = twist_displacement(cyl, westd, n)
    if delta:
        polygon, npt = advance(deco.normalized, polygon, npt,
                               deco.flows["up"], delta)
    return delta, (polygon, deco.frame.inverse() * npt)


def dehn_twist_point(deco: Decomposition, polygon, point, n: int):
    """Image of an original-frame point under n twists in its own cylinder.

    The point must lie inside a cylinder of `deco` (not on a boundary leaf).
    Returns (polygon, point) in the original frame.
    """
    npt = deco.frame * _as_vec(point)
    pos = deco.locate_normalized(polygon, npt)
    if pos.state != "in":
        raise OnBoundaryPoint("cannot twist a point on a boundary leaf")
    return _twisted(deco, polygon, npt, deco.cylinders[pos.cylinder],
                    pos.westd, n)[1]


def twist_orbit(surface, mark, twist_direction, target_direction, n_samples,
                target_cylinder=None, cap=None):
    """Track a marked point through repeated twists in its own cylinder.

    The mark is twisted in its cylinder C of `twist_direction`; after each
    twist its splitting ratio is measured in the decomposition of
    `target_direction`, against the cylinder D = `target_cylinder` (default:
    the cylinder containing the mark, or the only one).  Samples record n,
    the position {n*theta}*h along the leaf, and the ratio in D -- or
    'missed' / 'boundary' when the image lands elsewhere.
    """
    mark = _mark_index(surface, mark)
    mp = surface.marked[mark]

    # each decomposition has placed the mark already
    deco_c = decompose(surface, twist_direction, cap=cap)
    if not deco_c.complete:
        raise NotComplete("twist direction does not decompose")
    pos_c = deco_c.marks[mark]
    if pos_c.state != "in":
        raise OnBoundaryPoint("marked point sits on a boundary leaf of the "
                              "twist direction")
    cyl_c = deco_c.cylinders[pos_c.cylinder]

    deco_d = decompose(surface, target_direction, cap=cap)
    if not deco_d.complete:
        raise NotComplete("target direction does not decompose")
    pos_d = deco_d.marks[mark]
    if target_cylinder is None:
        if pos_d.state == "in":
            target_cylinder = pos_d.cylinder
        elif len(deco_d.cylinders) == 1:
            target_cylinder = 0
        else:
            raise OnBoundaryPoint(
                "marked point sits on a boundary leaf of the target "
                "direction; pass target_cylinder explicitly")
    cyl_d = deco_d.cylinders[_index(target_cylinder, len(deco_d.cylinders),
                                    "target cylinder")]

    npt = deco_c.frame * mp.at
    samples = []
    for n in range(1, n_samples + 1):
        delta, image = _twisted(deco_c, mp.polygon, npt, cyl_c, pos_c.westd,
                                n)
        spot = deco_d.locate(*image)
        if spot.state == "boundary":
            samples.append({"n": n, "position": delta, "state": "boundary",
                            "ratio": None})
        elif spot.cylinder != cyl_d.index:
            samples.append({"n": n, "position": delta, "state": "missed",
                            "ratio": None})
        else:
            samples.append({"n": n, "position": delta, "state": "ratio",
                            "ratio": spot.ratio})
    report = {
        "mark": mark,
        "theta": pos_c.ratio,
        "twist_cylinder": cyl_c,
        "target_cylinder": cyl_d,
        "start": pos_d,
        "nu": cyl_d.width / cyl_c.height,
        "lambda": cyl_d.width,
        "y0": pos_d.westd if pos_d.state == "in" else scalar(0),
    }
    return report, samples


def mark_ratios(surface, direction, cap=None):
    """Splitting ratio of every marked point in `direction`'s decomposition."""
    deco = decompose(surface, direction, cap=cap)
    if not deco.complete:
        raise NotComplete("direction does not decompose within the cap")
    return [(mk.state, mk.ratio) for mk in deco.marks]
