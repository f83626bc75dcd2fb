"""Translation complexes: plane polygons glued edge-to-edge by translations.

A Surface validates its gluing table at construction, walks the corner
cycles -- each cycle is one vertex class, so the walk identifies the
vertices too -- and caches the derived topology: cone angles, the singular
set, area, and genus computed two independent ways (total angle excess and
the vertex/edge/face count).

The constructor interns its charts by vertex list: charts with the same
vertices share one Polygon object, so `surface.polygons[p] is
surface.polygons[q]` exactly when charts p and q have equal vertex lists,
as the copies of a chart on the d sheets of a slit cover do.  A Polygon
object given again is taken as is, by identity, before any vertex is
hashed, so a caller that already shares its Polygons (`build_cover` hands
over one per cut piece, repeated on every sheet) pays one vertex hash per
distinct Polygon; separate objects with equal vertex lists still merge.
What depends only on a chart's geometry is computed once per distinct
Polygon: the polygon checks (re-run on a repeat only when they found a
problem, so every index is tagged), the edge translations, per (polygon,
edge, partner polygon, partner edge), and the row of corner sectors that
own east.  A Polygon keeps its signed area (behind `area`) and bounding
box (behind `default_cap`) once computed, and `transform` maps each
distinct Polygon once, so the image keeps the sharing.  The flows of
`trace` key their chart tables the same way.  Everything else -- gluings,
vertex classes, corners, marked points -- stays keyed by chart index.

One routine (`_sector_row`) tests where a direction lies against the corner
sectors of a Polygon: outside, inside off the outgoing edge, or along it.
The corner walk reads its row for east, and each flow of `trace` builds one
row per distinct Polygon for its own direction, so every corner question of
a trace or a decomposition is a lookup.  For an axis direction -- east, and
every direction a decomposition traces -- a corner is decided by three
compass classes (`field._compass`): its outgoing edge's, its incoming
edge's turned by a half turn (plus 4 mod 8), and the direction's, so no
cross product and no negated vector is formed.  A corner whose two edges
share a class or mix field tags, and every corner for a direction off the
axes, takes `ccw_sector_contains` (three cross signs, and a dot sign only on
the line of an edge) and `same_ray`.  This routine is the only reader of
compass classes.  `ray_out` and `ray_in` remain the reference its tests
compare against.

One checker (`_check`) holds the field, polygon and gluing checks.  It lists
every problem of a description as a (validate tag, exception type, message)
triple; the constructor raises the first one and `validate` reports them all.
A chart that passes through a point twice is refused (`RepeatedVertex`), as
a chart with no other problem: `Polygon.locate`, the corner tables and the
cutter of `covers` each take a vertex for one corner.  So is a chart, with
no other problem, two of whose edges that are not adjacent cross or touch
(`CrossingEdges`): the edge tables of `trace` take each chart for a simple
polygon.  Only the pairs whose boxes overlap on integer floors of the
coordinates are tested exactly (`_meeting_edges`).

One routine (`Surface._point`) names a point: it locates the point in the
chart it is given in and lists every chart representative of it, canonical
one first -- the point itself if interior, the side with the lesser
(polygon, edge) of its two glued edges if on an edge, the first corner of its
vertex class if at a vertex.  Marked points, `point_aliases`, trace starts
from a point and slit endpoints all use it, so aliases[0] names a point the
same way everywhere; a trace started from a corner takes the vertex's
aliases from `_class_points`, which `_point` uses too.  A chart index must
be an int, and a bool is not taken for one.  A marked point keeps where its
canonical alias lies (`MarkedPoint.where`), so the rays that place it in a
decomposition do not locate it again.

A chart symmetry is a permutation g of the chart indices that keeps each
chart's Polygon (`polygons[g[p]] is polygons[p]`) and the gluing
(`partner[(g[p], e)] == (g[q], f)` whenever `partner[(p, e)] == (q, f)`),
so it keeps the edge translations, the corner cycles and the cone windings
too.  On a slit cover these are the deck transformations, which move whole
sheets.  `_chart_symmetries` finds them once, on first use
(`_find_symmetries`).  On a connected complex a symmetry is fixed by where
it sends chart 0, so only the charts that share chart 0's Polygon are
candidates: a surface whose charts are all distinct searches nothing.  A
symmetry is grown over the gluing from each candidate that the ones found
so far do not already reach, and the set is closed under composition, so
it is the whole group; a complex in several pieces keeps only the
identity.  Symmetries say nothing of marked points: what reads marks must
not use them, and `cylinders` maps only traces that ignore marks.
`transform` shares the table with the image.

`transform` maps the charts, the edge translations and the marked points,
copies the point labels, settles the field again, and shares every other
slot of the source surface unchecked, whatever the constructor derived:
the partner map, vertex classes, corner cycles, cone windings and chart
symmetries among them.  That is sound because a positive-determinant
linear map keeps every checked property, and each distinct Polygon is
mapped once, which keeps every chart symmetry.  The map takes edges to
edges and opposite vectors to opposite vectors, keeps polygons
counterclockwise, simple and with corners of nonzero angle, maps each
corner sector onto a sector in the same cyclic order (so a cycle sweeps
the same total angle), and keeps a point interior, on an edge or at a
vertex.  Only the field can change, since the matrix can bring in a
radical: it is settled again from the vertices, and the marked points'
field tags are tested against it by the constructor's own test
(`_mark_field_clash`: all nonzero tags of the surface and its marks
agree), so FieldMismatch is raised exactly where the constructor would
raise it on the mapped description.  The constructor stays the only
way in for outside descriptions.

Corner convention: corner (p, v) sits at vertex v of polygon p, between the
incoming edge v-1 and the outgoing edge v.  Its sector is swept CCW from the
outgoing edge direction (included) to the direction back along the incoming
edge (excluded).
"""

from __future__ import annotations

from .errors import (FieldMismatch, InconsistentTopology, InvalidParams,
                     VeechkitError)
from .field import FieldScalar, _check_squarefree, _compass, _sort_key, scalar
from .geometry import (Mat2, Vec2, _as_vec, _locate, ccw_sector_contains,
                       cross, parallel, same_ray, segments_intersect)

Corner = tuple  # (polygon index, vertex index)

_EAST = Vec2(1, 0)

# where a direction lies against a corner's sector (`_sector_row`)
_MISS, _HOLD, _SLIDE = 0, 1, 2


class Polygon:
    """A chart's vertices and edge vectors.  The signed area and the
    bounding box are computed on first use and kept, so the charts that
    share a Polygon compute them once."""

    __slots__ = ("vertices", "n", "_edges", "_area2", "_bbox")

    def __init__(self, vertices):
        vs = [_as_vec(v) for v in vertices]
        self.vertices = vs
        self.n = n = len(vs)
        self._edges = [vs[(e + 1) % n] - vs[e] for e in range(n)]
        self._area2 = self._bbox = None

    def vertex(self, v: int) -> Vec2:
        return self.vertices[v % self.n]

    def edge(self, e: int) -> Vec2:
        """Vector along edge e, from vertex e to vertex e+1."""
        return self._edges[e % self.n]

    def signed_area2(self) -> FieldScalar:
        # twice the shoelace area
        if self._area2 is None:
            total = scalar(0)
            for i in range(self.n):
                total = total + cross(self.vertices[i],
                                      self.vertices[(i + 1) % self.n])
            self._area2 = total
        return self._area2

    def bbox(self):
        if self._bbox is None:
            xs = [v.x for v in self.vertices]
            ys = [v.y for v in self.vertices]
            self._bbox = min(xs), min(ys), max(xs), max(ys)
        return self._bbox

    def locate(self, p: Vec2):
        """('vertex', v) / ('edge', e, t) / 'interior' / 'outside' for point p."""
        return _locate(self.vertices, self._edges, p)


class MarkedPoint:
    """A regular marked point with its alias list across charts.

    (polygon, at) is the canonical alias; where is `Polygon.locate`'s answer
    for it there: 'interior', ('edge', e, t) or ('vertex', k), so a trace
    from the mark need not locate it again.  kind is 'interior', 'edge' or
    'vertex'; aliases is a tuple of (polygon, Vec2) pairs giving every way
    of naming the point, the first one canonical.
    """

    __slots__ = ("polygon", "at", "label", "where", "aliases")

    def __init__(self, polygon, at, label, where, aliases):
        self.polygon = polygon
        self.at = at
        self.label = label
        self.where = where
        self.aliases = tuple(aliases)

    @property
    def kind(self):
        return self.where if self.where == "interior" else self.where[0]

    def __repr__(self):
        return "MarkedPoint(%d, %s, %r)" % (self.polygon, self.at, self.label)


class Surface:
    # every attribute, all shared by `transform` but the five a map changes;
    # slots, as reading a __dict__ slows each later attribute load (3.11)
    __slots__ = ("polygons", "field_d", "partner", "translation",
                 "vertex_classes", "corner_cycles", "cone_windings",
                 "class_of", "singular_classes", "_symmetries",
                 "point_labels", "marked")

    def __init__(self, polygons, gluings, field_d=None, marked=(),
                 point_labels=None):
        self.polygons = _interned(polygons)
        self.field_d, self.partner, problems = _check(self.polygons, gluings,
                                                      field_d)
        if problems:
            _, exc, message = problems[0]
            raise exc(message)
        self.translation = _translations(self.polygons, self.partner)
        self._walk_corner_cycles()
        self._symmetries = None
        self.point_labels = dict(point_labels or {})
        marks = []
        for i, m in enumerate(marked):
            if isinstance(m, MarkedPoint):
                marks.append((m.polygon, m.at, m.label))
            else:
                poly, at = m[0], m[1]
                label = m[2] if len(m) > 2 and m[2] is not None else "m%d" % i
                marks.append((poly, _as_vec(at), label))
        clash = _mark_field_clash(self.field_d, marks)
        if clash:
            raise FieldMismatch(clash)
        self.marked = []
        for poly, at, label in marks:
            self._add_mark(poly, at, label)

    # -- vertex identification and cone angles --------------------------------

    def next_corner(self, corner: Corner) -> Corner:
        """Rotate counterclockwise about the vertex: the corner across edge v-1."""
        p, v = corner
        n = self.polygons[p].n
        return self.partner[(p, (v - 1) % n)]

    def ray_out(self, corner: Corner) -> Vec2:
        p, v = corner
        return self.polygons[p].edge(v)

    def ray_in(self, corner: Corner) -> Vec2:
        p, v = corner
        return -self.polygons[p].edge(v - 1)

    def _walk_corner_cycles(self):
        """Vertex classes, corner cycles and cone windings in one pass.

        A vertex class is a cycle of `next_corner`: the gluings identify
        the corners along exactly these steps.  Walking the corners in
        sorted order, each class not yet met starts at its least corner, so
        classes are numbered by least corner; `vertex_classes` keeps each
        class sorted, and `corner_cycles` in the order of the walk."""
        owns_east = {}  # polygon -> its _sector_row for east
        self.vertex_classes, self.corner_cycles = [], []
        self.cone_windings, self.class_of = [], {}
        for p, poly in enumerate(self.polygons):
            for v in range(poly.n):
                start = (p, v)
                if start in self.class_of:
                    continue
                cls = len(self.corner_cycles)
                cycle, windings = [], 0
                c = start
                while True:
                    cycle.append(c)
                    self.class_of[c] = cls
                    chart = self.polygons[c[0]]
                    owns = owns_east.get(chart)
                    if owns is None:
                        owns = owns_east[chart] = _sector_row(chart, _EAST)
                    windings += owns[c[1]] != _MISS
                    # opposite gluings: ray_in(c) == ray_out(next_corner(c))
                    c = self.next_corner(c)
                    if c == start:
                        break
                self.corner_cycles.append(cycle)
                self.cone_windings.append(windings)
                self.vertex_classes.append(sorted(cycle))
        self.singular_classes = [i for i, w in enumerate(self.cone_windings) if w > 1]

    def is_singular_corner(self, corner: Corner) -> bool:
        return self.cone_windings[self.class_of[corner]] > 1

    # -- chart symmetries ------------------------------------------------------

    def _chart_symmetries(self):
        """The chart symmetries (see the module docstring), the identity
        first: found on the first call and kept."""
        if self._symmetries is None:
            self._symmetries = _find_symmetries(self.polygons, self.partner)
        return self._symmetries

    # -- derived topology ------------------------------------------------------

    @property
    def area(self) -> FieldScalar:
        total = scalar(0)
        for poly in self.polygons:
            total = total + poly.signed_area2()
        return total / 2

    def genus(self) -> int:
        """Genus from the Euler count, cross-checked against total angle excess."""
        v = len(self.vertex_classes)
        e = len(self.partner) // 2
        f = len(self.polygons)
        chi = v - e + f
        excess = sum(w - 1 for w in self.cone_windings)
        if excess != -chi:
            raise InconsistentTopology(
                "angle excess %d disagrees with Euler count %d" % (excess, chi))
        if chi % 2:
            raise InconsistentTopology("odd Euler characteristic %d" % chi)
        return (2 - chi) // 2

    def default_cap(self) -> FieldScalar:
        total = scalar(0)
        for poly in self.polygons:
            x0, y0, x1, y1 = poly.bbox()
            total = total + (x1 - x0) + (y1 - y0)
        return total * 20

    # -- marked points ---------------------------------------------------------

    def _add_mark(self, poly: int, at: Vec2, label):
        where, aliases = self._point(poly, at,
                                     "marked point %s lies outside polygon %d")
        kind = where if where == "interior" else where[0]
        canon = aliases[0]
        if kind == "vertex":
            cls = self.class_of[(poly, where[1])]
            windings = self.cone_windings[cls]
            if windings > 1:
                raise InvalidParams("cannot mark point at a singular vertex "
                                    "(cone angle %d*2pi)" % windings)
            # the canonical alias is the class's first corner
            where = ("vertex", self.vertex_classes[cls][0][1])
        elif kind == "edge" and canon != (poly, at):
            # named from the partner side: the glued edges run opposite, so
            # the point is 1 - t along the partner edge
            where = ("edge", self.partner[(poly, where[1])][1], 1 - where[2])
        for mp in self.marked:
            if mp.aliases[0] == canon:
                raise InvalidParams("duplicate marked point at %s" % (canon[1],))
        self.marked.append(MarkedPoint(canon[0], canon[1], label, where,
                                       aliases))

    def mark_by_label(self, label: str) -> int:
        for i, mp in enumerate(self.marked):
            if mp.label == label:
                return i
        raise InvalidParams("no marked point labelled %r" % label)

    def point_aliases(self, polygon: int, point: Vec2):
        """All chart representatives of a point, the canonical one first: one
        for interior points, two for edge points, the whole class for
        vertices."""
        return self._point(polygon, point)[1]

    def _point(self, polygon: int, point: Vec2,
               outside: str = "point %s outside polygon %d"):
        """(where, aliases) of a point given in chart `polygon`: where is
        Polygon.locate's answer there, aliases every (polygon, point) naming
        the point in canonical order (see the module docstring).  A chart
        index that is not an int (a bool is not one) or is out of range
        raises InvalidParams, and a point outside the chart
        InvalidParams(outside % (point, polygon))."""
        if type(polygon) is not int or not 0 <= polygon < len(self.polygons):
            raise InvalidParams("no polygon %r on this surface" % (polygon,))
        where = self.polygons[polygon].locate(point)
        if where == "outside":
            raise InvalidParams(outside % (point, polygon))
        if where == "interior":
            return where, [(polygon, point)]
        if where[0] == "edge":
            side = (polygon, where[1])
            here = (polygon, point)
            there = (self.partner[side][0], point + self.translation[side])
            return where, ([here, there] if side <= self.partner[side]
                           else [there, here])
        return where, self._class_points(self.class_of[(polygon, where[1])])

    def _class_points(self, cls: int):
        """(polygon, chart point) of every corner of vertex class `cls`, in
        the class's order."""
        return [(p, self.polygons[p].vertices[k])
                for (p, k) in self.vertex_classes[cls]]

    # -- transforms ------------------------------------------------------------

    def transform(self, mat: Mat2) -> "Surface":
        """Apply a positive-determinant matrix to every chart.

        The image is not re-validated (see the module docstring): the charts,
        translations and marked points are mapped, every other table is
        shared with this surface, and only the field is checked again.
        Each distinct chart is mapped once, and its image is shared by the
        same indices as the chart.
        """
        if mat.det().sign() <= 0:
            raise InvalidParams("transform must have positive determinant")
        images = {poly: Polygon([mat * v for v in poly.vertices])
                  for poly in dict.fromkeys(self.polygons)}
        polygons = [images[poly] for poly in self.polygons]
        marked = []
        for mp in self.marked:
            aliases = [(p, mat * pt) for p, pt in mp.aliases]
            # a positive-determinant map keeps where a point lies, and the
            # fraction t along an edge
            marked.append(MarkedPoint(mp.polygon, aliases[0][1], mp.label,
                                      mp.where, aliases))
        field_d, clash = _settle_field(polygons, None)
        if not clash:
            clash = _mark_field_clash(
                field_d, [(mp.polygon, mp.at, mp.label) for mp in marked])
        if clash:
            raise FieldMismatch(clash)
        image = Surface.__new__(Surface)
        for name in Surface.__slots__:  # every table, shared
            setattr(image, name, getattr(self, name))
        image.polygons = polygons
        image.field_d = field_d
        image.translation = _translations(polygons, self.partner)
        image.point_labels = dict(self.point_labels)
        image.marked = marked
        return image

    def with_marks(self, marks) -> "Surface":
        """Same complex, fresh marked-point list."""
        gluings = [(a, b) for a, b in self.partner.items() if a <= b]
        return Surface(self.polygons, gluings, field_d=self.field_d,
                       marked=marks, point_labels=self.point_labels)

    # -- equality and JSON -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Surface):
            return NotImplemented
        return (self.field_d == other.field_d
                and [p.vertices for p in self.polygons] ==
                    [p.vertices for p in other.polygons]
                and self.partner == other.partner
                and [(m.polygon, m.at, m.label) for m in self.marked] ==
                    [(m.polygon, m.at, m.label) for m in other.marked]
                and self.point_labels == other.point_labels)

    def to_json(self) -> dict:
        glue = sorted((a, b) for a, b in self.partner.items() if a <= b)
        out = {
            "field": {"d": self.field_d},
            "polygons": [{"vertices": [v.to_json() for v in poly.vertices]}
                         for poly in self.polygons],
            "gluings": [{"p1": a[0], "e1": a[1], "p2": b[0], "e2": b[1]}
                        for a, b in glue],
            "marked_points": [{"polygon": m.polygon, "at": m.at.to_json(),
                               "label": m.label} for m in self.marked],
        }
        if self.point_labels:
            out["point_labels"] = self.point_labels
        return out

    @classmethod
    def from_json(cls, obj) -> "Surface":
        try:
            field_d = obj.get("field", {}).get("d", 0)
            if type(field_d) is not int or field_d:
                _check_squarefree(field_d)
            field_d = field_d or None
            polys = [[Vec2.from_json(v) for v in poly["vertices"]]
                     for poly in obj["polygons"]]
            gluings = obj["gluings"]
            marked = [(m["polygon"], Vec2.from_json(m["at"]), m.get("label"))
                      for m in obj.get("marked_points", [])]
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise InvalidParams("malformed surface JSON (%s: %s)"
                                % (type(exc).__name__, exc)) from None
        return cls(polys, gluings, field_d=field_d, marked=marked,
                   point_labels=obj.get("point_labels"))

    # -- presets ---------------------------------------------------------------

    @classmethod
    def square_torus(cls, marked=()) -> "Surface":
        poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
        gluings = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
        return cls([poly], gluings, field_d=None, marked=marked)

    @classmethod
    def cross(cls, a, b, marked=()) -> "Surface":
        """Symmetric cross: central (b x b)-square with four (a)-deep arms.

        Opposite outer edges are glued, giving a genus-2 surface with one cone
        point of angle 6*pi and area b*(4a + b).
        """
        a, b = scalar(a), scalar(b)
        if a.sign() <= 0 or b.sign() <= 0:
            raise InvalidParams("cross needs positive arm and core sizes")
        verts = [
            (a, 0), (a + b, 0), (a + b, a), (a + a + b, a),
            (a + a + b, a + b), (a + b, a + b), (a + b, a + a + b),
            (a, a + a + b), (a, a + b), (0, a + b), (0, a), (a, a),
        ]
        gluings = [((0, 0), (0, 6)), ((0, 1), (0, 11)), ((0, 2), (0, 4)),
                   ((0, 3), (0, 9)), ((0, 5), (0, 7)), ((0, 8), (0, 10))]
        return cls([verts], gluings, field_d=None, marked=marked)

    @classmethod
    def l_shape(cls, a, b, c, e, marked=()) -> "Surface":
        """L-shaped table from three rectangles, one cone point of angle 6*pi."""
        a, b, c, e = (scalar(v) for v in (a, b, c, e))
        for v in (a, b, c, e):
            if v.sign() <= 0:
                raise InvalidParams("l_shape needs positive side lengths")
        r0 = [(0, 0), (a, 0), (a, b), (0, b)]
        r1 = [(a, 0), (a + c, 0), (a + c, b), (a, b)]
        r2 = [(0, b), (a, b), (a, b + e), (0, b + e)]
        gluings = [((0, 1), (1, 3)), ((0, 2), (2, 0)), ((0, 0), (2, 2)),
                   ((0, 3), (1, 1)), ((1, 0), (1, 2)), ((2, 3), (2, 1))]
        return cls([r0, r1, r2], gluings, field_d=None, marked=marked)


def singularities(surface: Surface):
    """All vertex classes as (class id, angle multiple of pi, zero order,
    representative corner); the zero order k satisfies angle = 2(k+1)*pi."""
    return [(cls, 2 * w, w - 1, surface.vertex_classes[cls][0])
            for cls, w in enumerate(surface.cone_windings)]


def _index(i, n, what):
    """`i` if it is an int (a bool is not one) naming one of `n` items;
    InvalidParams otherwise, negative indices included."""
    if type(i) is not int or not 0 <= i < n:
        raise InvalidParams("no %s %r (there are %d)" % (what, i, n))
    return i


def _mark_index(surface, mark):
    """The index of the marked point `mark` names, by label or by index;
    InvalidParams if it names none."""
    if isinstance(mark, str):
        return surface.mark_by_label(mark)
    return _index(mark, len(surface.marked), "marked point")


def _sector_row(poly, v):
    """Where direction v lies against each corner sector [edge k, -edge k-1)
    of Polygon `poly`, one entry per vertex k: _MISS outside it, _HOLD
    inside it off its outgoing edge, _SLIDE along edge k.

    The one sector test of a chart's corners: the corner walk reads its row
    for east, and each flow of `trace` builds one row per distinct Polygon
    for its own direction.  For an axis v each corner is decided by three
    compass classes (`field._compass`): edge k's, edge k-1's plus 4 mod 8
    (the class of its negation), and v's.  A corner whose two edges share a
    class or mix field tags, and every corner for a v off the axes, goes to
    `ccw_sector_contains` and `same_ray`.  The compass branch pays because
    these rows are rebuilt for every decomposition and every surface built,
    nearly all of them for axis directions."""
    cv, dv = _compass(v.x, v.y)
    if cv & 1:
        return [_sector_test(poly.edge(k), poly.edge(k - 1), v)
                for k in range(poly.n)]
    compass = [_compass(edge.x, edge.y) for edge in poly._edges]
    row = []
    for k in range(poly.n):
        co, do = compass[k]
        ci, di = compass[k - 1]
        ci = (ci + 4) & 7
        d = do or di or dv
        if co == ci or (d and (d < 0 or (di and di != d)
                               or (dv and dv != d))):
            row.append(_sector_test(poly.edge(k), poly.edge(k - 1), v))
        elif cv == co:  # an axis class is one ray: v runs along edge k
            row.append(_SLIDE)
        # turning counterclockwise from edge k, v comes before -edge k-1
        elif (cv - co) & 7 < (ci - co) & 7:
            row.append(_HOLD)
        else:
            row.append(_MISS)
    return row


def _sector_test(out, back, v):
    """The _sector_row entry of a corner with outgoing edge `out` and
    incoming edge `back`, by `ccw_sector_contains` and `same_ray`."""
    if not ccw_sector_contains(out, -back, v):
        return _MISS
    return _SLIDE if same_ray(v, out) else _HOLD


def _interned(polygons):
    """The charts as Polygons, one shared object per distinct vertex list
    (the first Polygon given with those vertices, if any).  A Polygon object
    met before is looked up by identity, so its vertices are hashed once
    however many charts it is given for."""
    seen, out = {}, []  # vertex tuple -> the index of its first chart
    given = {}  # a Polygon given -> the one kept for it
    for p in polygons:
        if isinstance(p, Polygon):
            poly = given.get(p)
            if poly is None:
                first = seen.setdefault(tuple(p.vertices), len(out))
                poly = given[p] = out[first] if first < len(out) else p
        else:
            key = tuple([_as_vec(v) for v in p])
            first = seen.setdefault(key, len(out))  # hashes the key once
            poly = out[first] if first < len(out) else Polygon(key)
        out.append(poly)
    return out


def _find_symmetries(polygons, partner):
    """Every chart symmetry of the complex as a tuple g, g[p] the image of
    chart p, in the order of g[0], so the identity comes first.

    A chart sharing chart 0's Polygon that no symmetry found so far sends
    chart 0 to is a candidate: `_grown` grows the symmetry with g[0] = q,
    if there is one, and the set is closed under composition with it.  On
    a connected complex a symmetry is fixed by g[0], so the candidates
    reached by composition need no growing: a cyclic cover grows one."""
    first = polygons[0]
    group = {0: tuple(range(len(polygons)))}  # g[0] -> g
    gens = []
    for q in range(1, len(polygons)):
        if polygons[q] is not first or q in group:
            continue
        g = _grown(polygons, partner, q)
        if g is None:
            continue
        gens.append(g)
        todo = list(group.values())
        while todo:
            h = todo.pop()
            for s in gens:
                sh = tuple([s[p] for p in h])  # h, then s
                if sh[0] not in group:
                    group[sh[0]] = sh
                    todo.append(sh)
    return [group[q] for q in sorted(group)]


def _grown(polygons, partner, q):
    """The chart symmetry g with g[0] = q, or None when there is none.

    g is grown over the gluing from chart 0: across edge e of a chart p it
    sends the partner chart r to the chart across edge e of g[p], which
    must share r's Polygon and be glued back along r's edge.  None as well
    when the gluing does not reach every chart, so a complex with several
    components keeps only the identity.  When it does, g is one to one:
    its image is closed under the gluing, so it is every chart."""
    g = [None] * len(polygons)
    g[0] = q
    grown = [0]
    for p in grown:  # grows while it is read
        gp = g[p]
        for e in range(polygons[p].n):
            r, f = partner[(p, e)]
            s, f2 = partner[(gp, e)]
            if f2 != f or polygons[s] is not polygons[r]:
                return None
            if g[r] is None:
                g[r] = s
                grown.append(r)
            elif g[r] != s:
                return None
    return tuple(g) if len(grown) == len(polygons) else None


def _translations(polygons, partner):
    """(polygon, edge) -> T: crossing the edge forward maps x to x + T.

    Glued edges are translation-opposite, so crossing back maps by -T.  T
    depends only on the two charts' geometry, so it is computed once per
    (polygon, edge, partner polygon, partner edge)."""
    out, memo = {}, {}
    for a, b in partner.items():
        if a > b:
            continue  # set with its partner side
        pa, pb = polygons[a[0]], polygons[b[0]]
        key = (pa, a[1], pb, b[1])
        pair = memo.get(key)
        if pair is None:
            t = pb.vertex(b[1] + 1) - pa.vertex(a[1])
            pair = memo[key] = (t, -t)
        out[a], out[b] = pair
    return out


def _settle_field(polygons, field_d):
    """(field d, clash message or None) of the vertex coordinates, against a
    declared field_d (None: take it from the coordinates, 0 if rational)."""
    seen = {c.d for poly in dict.fromkeys(polygons) for v in poly.vertices
            for c in (v.x, v.y)}
    seen.discard(0)
    if field_d is None and len(seen) > 1:
        return field_d, "coordinates span several quadratic fields"
    if field_d is not None and seen - {field_d}:
        return field_d, ("coordinate field tags %s clash with declared d=%d"
                         % (sorted(seen), field_d))
    if field_d is None:
        field_d = seen.pop() if seen else 0
    return field_d, None


def _mark_field_clash(field_d, marks):
    """The FieldMismatch message for the first (polygon, point, label) mark
    whose coordinates leave the surface's field, or None.

    Every nonzero field tag must agree: the surface's `field_d` (declared,
    or settled from the vertices) and each mark coordinate's.  So a rational
    surface may carry irrational marks, all from one quadratic field; its
    field_d stays 0.
    """
    seen = field_d
    for _, at, label in marks:
        for tag in (at.x.d, at.y.d):
            if tag and seen and tag != seen:
                return ("marked point %r at %s cannot mix sqrt(%d) with "
                        "sqrt(%d)" % (label, at, seen, tag))
            seen = seen or tag
    return None


def _gluing_sides(item):
    """The two (polygon, edge) sides a gluing entry names -- a pair of pairs
    or a {p1, e1, p2, e2} dict -- or None when the entry is malformed.

    A tuple of two (int, int) tuples, as `build_cover` makes every gluing,
    is taken as is, by type checks alone; every other form goes the long
    way."""
    if type(item) is tuple and len(item) == 2:
        a, b = item
        if (type(a) is tuple and type(b) is tuple and len(a) == 2
                and len(b) == 2 and type(a[0]) is int and type(a[1]) is int
                and type(b[0]) is int and type(b[1]) is int):
            return item
    try:
        if isinstance(item, dict):
            sides = (item["p1"], item["e1"]), (item["p2"], item["e2"])
        else:
            sides = tuple(item[0]), tuple(item[1])
    except (KeyError, IndexError, TypeError):
        return None
    if all(len(side) == 2 and all(type(i) is int for i in side)
           for side in sides):
        return sides
    return None


def _check(polygons, gluings, field_d):
    """(field d, edge partner map, problems) of a surface description.

    Each problem is a (validate tag, exception type, message) triple, listed
    in the order the constructor meets them: a field clash or an empty
    polygon list (either stops the checks), bad polygons, bad gluing
    entries, unglued edges, then glued edges that are not
    translation-opposite.  The partner map holds the well-formed gluings.
    A Polygon shared by several charts is checked again only if it had a
    problem, to tag each of its indices; a glued pair of edges is checked
    once per (polygon, edge, polygon, edge).
    """
    field_d, clash = _settle_field(polygons, field_d)
    if clash:
        return field_d, {}, [("FieldMismatch: " + clash, FieldMismatch, clash)]
    if not polygons:
        return field_d, {}, [("Empty: need at least one polygon",
                              InvalidParams, "need at least one polygon")]
    partner, problems, sound = {}, [], set()
    for i, poly in enumerate(polygons):
        if poly not in sound:
            found = _polygon_problems(i, poly)
            problems += found
            if not found:
                sound.add(poly)
    pairs = []
    for k, item in enumerate(gluings):
        sides = _gluing_sides(item)
        if sides is None:
            problems.append((
                "BadGluing(%d)" % k, InvalidParams,
                "gluing %d is not two (polygon, edge) sides: %r" % (k, item)))
            continue
        missing = [(p, e) for (p, e) in sides
                   if not (0 <= p < len(polygons) and 0 <= e < polygons[p].n)]
        for side in missing:
            problems.append(("MissingEdge(%d,%d)" % side, InvalidParams,
                             "gluing names missing edge %s" % (side,)))
        if missing:
            continue
        a, b = sides
        twice = [side for side in sides if side in partner]
        if a == b:
            problems.append(("SelfGluing(%d,%d)" % a, InconsistentTopology,
                             "edge %s glued to itself" % (a,)))
        elif twice:
            problems.append(("DuplicateGluing(%d,%d)" % twice[0],
                             InconsistentTopology,
                             "edge %s glued twice" % (twice[0],)))
        else:
            partner[a], partner[b] = b, a
            pairs.append((a, b))
    for p, poly in enumerate(polygons):
        for e in range(poly.n):
            if (p, e) not in partner:
                problems.append(("UnmatchedEdge(%d,%d)" % (p, e),
                                 InconsistentTopology,
                                 "edge %s left unglued" % ((p, e),)))
    opposite = {}  # (polygon, edge, polygon, edge) -> the edges cancel
    for a, b in pairs:
        pa, pb = polygons[a[0]], polygons[b[0]]
        v1, v2 = pa.edge(a[1]), pb.edge(b[1])
        key = (pa, a[1], pb, b[1])
        if key not in opposite:
            opposite[key] = (v1 + v2).is_zero()
        if not opposite[key]:
            tag = "EdgeMismatch" if parallel(v1, v2) else "NonParallelGluing"
            problems.append(("%s((%d,%d),(%d,%d))" % ((tag,) + a + b),
                             InconsistentTopology,
                             "edges %s and %s are not translation-opposite"
                             % (a, b)))
    return field_d, partner, problems


def _polygon_problems(i, poly):
    """The problems of chart i, whose Polygon is `poly`, as _check lists
    them."""
    if poly.n < 3:
        return [("BadPolygon(%d): fewer than 3 vertices" % i, InvalidParams,
                 "polygon %d has fewer than 3 vertices" % i)]
    zero = [e for e in range(poly.n) if poly.edge(e).is_zero()]
    if zero:
        return [("BadPolygon(%d): zero-length edge" % i, InvalidParams,
                 "polygon %d has a zero edge %d" % (i, zero[0]))]
    problems = []
    if poly.signed_area2().sign() <= 0:
        problems.append((
            "NotCounterclockwise(%d)" % i, InvalidParams,
            "polygon %d must be counterclockwise with positive area" % i))
    for v in range(poly.n):
        # zero-angle spikes break the corner sectors; flat corners are fine
        if same_ray(poly.edge(v), -poly.edge(v - 1)):
            problems.append((
                "ZeroAngleCorner(%d,%d)" % (i, v), InvalidParams,
                "polygon %d has a zero-angle corner at vertex %d" % (i, v)))
    # a chart that passes through a point twice is not a simple polygon:
    # Polygon.locate names only one of the corners there
    if not problems and len(set(poly.vertices)) < poly.n:
        problems.append(("RepeatedVertex(%d)" % i, InvalidParams,
                         "polygon %d passes through a vertex twice" % i))
    meet = None if problems else _meeting_edges(poly)
    if meet:
        problems.append(("CrossingEdges(%d)" % i, InvalidParams,
                         "polygon %d has edges %d and %d that cross or touch"
                         % ((i,) + meet)))
    return problems


def _meeting_edges(poly):
    """The first pair (e, f), e < f, of edges of `poly` that are neither
    adjacent nor parallel and share a point, or None when there is none.

    Each edge's box is taken on the integer floors `field._sort_key` gives
    its ends' coordinates, which contain the exact box, so only the pairs
    whose floor boxes overlap go to `segments_intersect`.  Parallel edges
    that overlap on a line leave a repeated vertex, a corner of zero angle
    or a vertex on an edge it is not parallel to, so the checker refuses
    such a chart all the same."""
    vs, n = poly.vertices, poly.n
    xs = [_sort_key(v.x)[0] for v in vs]
    ys = [_sort_key(v.y)[0] for v in vs]
    lx, hx, ly, hy = [], [], [], []  # each edge's floor box
    for e in range(n):
        f = e + 1 - n  # the next vertex, by a negative index
        x, u, y, w = xs[e], xs[f], ys[e], ys[f]
        lx.append(x if x < u else u)
        hx.append(u if x < u else x)
        ly.append(y if y < w else w)
        hy.append(w if y < w else y)
    for e in range(n - 2):
        x0, x1, y0, y1 = lx[e], hx[e], ly[e], hy[e]
        for f in range(e + 2, n if e else n - 1):
            if (lx[f] <= x1 and x0 <= hx[f] and ly[f] <= y1 and y0 <= hy[f]
                    and segments_intersect(vs[e], vs[e + 1], vs[f],
                                           vs[f + 1 - n]) is not None):
                return e, f
    return None


def validate(polygons, gluings, field_d=None, marked=()):
    """Violations in a raw surface description; an empty list means valid.

    Unlike the constructor this never raises: each problem the constructor's
    checks find becomes one tagged string, and independent problems are all
    reported.  A description that passes them is then built, and an error
    found while building is reported as one more tag.
    """
    try:
        polys = _interned(polygons)
    except Exception as exc:
        return ["BadPolygon: %s" % exc]
    problems = _check(polys, gluings, field_d)[2]
    if problems:
        return [tag for tag, _, _ in problems]
    try:
        Surface(polys, gluings, field_d=field_d, marked=marked)
    except VeechkitError as exc:
        return ["%s: %s" % (type(exc).__name__, exc)]
    return []
