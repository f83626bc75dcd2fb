"""Ramified coverings built by slitting a surface and regluing sheet copies.

A slit is a straight segment on the surface (given by a start, a direction and
an end point; trace-resolved into per-chart runs).  The covering takes d
copies of the base, cuts every copy open along each slit, and reglues the left
bank on sheet i to the right bank on sheet sigma(i).  Cutting is exact polygon
surgery: chart chords are extended to full polygon chords (the extra pieces
are seamed back together), polygon boundaries are split at every chord foot,
and each polygon is subdivided along its chords.  The result is an ordinary
polygons-plus-gluings surface, so every analysis in the package applies to it
unchanged.

The cutting is done once, on one copy of the base (`_Complex`), which keeps
one Polygon per cut piece; every point location during the cut reads it,
and the cover reuses it on all d sheets, so the cover's constructor checks
and hashes each piece once.  A piece no cut touches stays the base's own
Polygon.

Slit endpoints become branch points.  A preimage with total angle above 2pi is
a cone point of the cover and keeps its base label (if any) in point_labels; a
preimage left regular stays an ordinary labelled point.
"""

from __future__ import annotations

import itertools

from .errors import (FieldMismatch, InconsistentProfile, InconsistentTopology,
                     InvalidParams, NonTransitive, OverlappingSlits,
                     SlitThroughSingularity)
from .field import scalar
from .geometry import (Vec2, _as_vec, canonical_direction, cross, dot,
                       parallel, segments_intersect)
from .surface import Polygon, Surface, _mark_field_clash
from .trace import (CLOSED, MARKED, SINGULAR, STOPPED, _checked_corner,
                    _exit_solve, _Flow, _param_on, trace)


class Slit:
    """Straight cut from `start` to `end`, resolved by tracing `direction`.

    `corner` (a (polygon, vertex) pair) is required when the start is a cone
    point, to pick which of the coinciding sectors the slit leaves through.
    """

    __slots__ = ("polygon", "start", "direction", "to_polygon", "end",
                 "corner")

    def __init__(self, polygon=None, start=None, direction=None,
                 to_polygon=None, end=None, corner=None):
        self.corner = (_checked_corner(None, corner, "slit corner")
                       if corner is not None else None)
        if self.corner is not None:
            self.polygon = self.corner[0]
            self.start = None
        else:
            if polygon is None or start is None:
                raise InvalidParams("slit needs a start point or a corner")
            self.polygon = polygon
            self.start = _as_vec(start)
        if direction is None or end is None:
            raise InvalidParams("slit needs a direction and an end point")
        self.direction = _as_vec(direction)
        if self.direction.is_zero():
            raise InvalidParams("slit direction must be nonzero")
        self.to_polygon = self.polygon if to_polygon is None else to_polygon
        self.end = _as_vec(end)

    def start_point(self, base: Surface):
        if self.corner is not None:
            p, k = _checked_corner(base, self.corner)
            return p, base.polygons[p].vertex(k)
        return self.polygon, self.start

    def to_json(self) -> dict:
        obj = {"dir": self.direction.to_json(),
               "to": self.end.to_json(), "to_polygon": self.to_polygon}
        if self.corner is not None:
            obj["corner"] = list(self.corner)
        else:
            obj["polygon"] = self.polygon
            obj["from"] = self.start.to_json()
        return obj

    @classmethod
    def from_json(cls, obj, index=0) -> "Slit":
        """The slit a JSON object describes; `index`, its place in the spec,
        names it when the object is malformed."""
        try:
            direction, end = obj["dir"], obj["to"]
        except (KeyError, TypeError) as exc:
            raise InvalidParams("malformed slit %d JSON (%s: %s)"
                                % (index, type(exc).__name__, exc)) from None
        return cls(polygon=obj.get("polygon"),
                   start=Vec2.from_json(obj["from"]) if "from" in obj else None,
                   direction=Vec2.from_json(direction),
                   to_polygon=obj.get("to_polygon"),
                   end=Vec2.from_json(end),
                   corner=obj.get("corner"))


class CoverSpec:
    """Degree, slits, and one sheet permutation per slit (0-based inside;
    JSON carries the 1-based form)."""

    __slots__ = ("base", "degree", "slits", "perms")

    def __init__(self, base, degree, slits, perms):
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise InvalidParams("covering degree must be an integer, not %r"
                                % (degree,))
        self.base = base
        self.degree = degree
        self.slits = list(slits)
        self.perms = [tuple(p) for p in perms]
        if self.degree < 2:
            raise InvalidParams("covering degree must be at least 2")
        if len(self.perms) != len(self.slits):
            raise InvalidParams("need exactly one permutation per slit")
        for p in self.perms:
            if sorted(p) != list(range(self.degree)):
                raise InvalidParams("%r is not a permutation of 0..%d"
                                    % (p, self.degree - 1))

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "slits": [s.to_json() for s in self.slits],
                "perms": [[i + 1 for i in p] for p in self.perms]}

    @classmethod
    def from_json(cls, obj, base) -> "CoverSpec":
        try:
            slits = list(obj["slits"])
        except (KeyError, TypeError) as exc:
            raise InvalidParams("malformed cover spec JSON (%s: %s)"
                                % (type(exc).__name__, exc)) from None
        degree, perms = sheets_from_json(obj, len(slits))
        return cls(base, degree,
                   [Slit.from_json(s, i) for i, s in enumerate(slits)], perms)


def sheets_from_json(obj, nslits, cyclic=False):
    """(degree, 0-based sheet permutations) of a cover spec's JSON object.

    "degree" is an integer and "perms" lists one 1-based permutation per
    slit.  A cyclic spec (`cyclic`, as `veechkit cover cyclic` reads one)
    may give instead "perm", one permutation for all `nslits` slits, or
    neither, for the shift of sheet i to sheet i + 1.  A missing key or a
    malformed value raises InvalidParams naming the key.
    """
    key = "perm" if cyclic and "perms" not in obj else "perms"
    try:
        degree = obj["degree"]
        raw = obj[key] if key == "perms" or key in obj else None
    except (KeyError, TypeError) as exc:
        raise InvalidParams("malformed cover spec JSON (%s: %s)"
                            % (type(exc).__name__, exc)) from None
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise InvalidParams("cover spec 'degree' must be an integer, not %r"
                            % (degree,))
    if raw is None:
        return degree, [list(range(1, degree)) + [0]] * nslits
    perms = raw if key == "perms" else [raw]
    if not (isinstance(raw, list) and all(
            isinstance(p, list) and all(type(i) is int for i in p)
            for p in perms)):
        raise InvalidParams(
            "cover spec %r must be %s of 1-based sheet numbers, not %r"
            % (key, "one list per slit" if key == "perms" else "a list",
               raw))
    perms = [[i - 1 for i in p] for p in perms]
    return degree, perms if key == "perms" else perms * nslits


# -- slit resolution ----------------------------------------------------------


class _Endpoint:
    """A slit endpoint: where is `Polygon.locate`'s answer for it in the
    chart it was given in, aliases every chart representative of it."""

    __slots__ = ("polygon", "at", "where", "aliases", "singular", "label")

    def __init__(self, base, polygon, at):
        self.polygon = polygon
        self.at = at
        where, self.aliases = base._point(polygon, at,
                                          "point %s outside polygon %d")
        self.where = where
        self.singular = (isinstance(where, tuple) and where[0] == "vertex"
                         and base.is_singular_corner((polygon, where[1])))
        # both alias lists start with the canonical chart representative
        self.label = next((mp.label for mp in base.marked
                           if mp.aliases[0] == self.aliases[0]), None)


class _ResolvedSlit:
    __slots__ = ("runs", "u", "v", "direction")

    def __init__(self, runs, u, v, direction):
        self.runs = runs
        self.u = u
        self.v = v
        self.direction = direction


def _resolve_slit(base: Surface, slit: Slit, flow: _Flow) -> _ResolvedSlit:
    """Trace `slit` on `base` along `flow`, the base's flow in its
    direction."""
    sp, spt = slit.start_point(base)
    u = _Endpoint(base, sp, spt)
    v = _Endpoint(base, slit.to_polygon, slit.end)
    targets = v.aliases
    # the end's charts as (polygon, point, u): the rule trace keeps for marks
    ends = [(pa, pt, flow.across(pt)) for pa, pt in targets]

    def hook(seg):
        leaf = flow.across(seg.a)
        hits = [_param_on(seg, pt, flow.along) for pa, pt, pu in ends
                if pa == seg.polygon and pu == leaf]
        hits = [th for th in hits if th is not None]
        return (min(hits), "target") if hits else None

    if slit.corner is not None:
        ev = trace(base, corner=slit.corner, direction=flow, stop_on=hook)
    else:
        ev = trace(base, sp, spt, flow, stop_on=hook)
    if ev.kind == SINGULAR:
        arrival = (ev.segments[-1].polygon, ev.segments[-1].b)
        if arrival not in targets:
            raise SlitThroughSingularity(
                "slit from %s hits a cone point at %s before its end"
                % (spt, arrival[1]))
    elif ev.kind == MARKED:
        raise InvalidParams("slit interior passes through marked point %d"
                            % ev.mark)
    elif ev.kind == CLOSED:
        raise InvalidParams("slit returns to its own start")
    elif ev.kind != STOPPED:
        raise InvalidParams("slit endpoints are not joined by direction %s "
                            "within the cap" % slit.direction)
    return _ResolvedSlit(ev.segments, u, v, slit.direction)


def _check_disjoint(resolved):
    """Slits must not touch each other or revisit themselves."""
    def clash(s1, s2):
        if s1.polygon != s2.polygon:
            return False
        got = segments_intersect(s1.a, s1.b, s2.a, s2.b)
        if got is not None:
            return True
        e1 = s1.b - s1.a
        if not parallel(e1, s2.b - s2.a) or cross(e1, s2.a - s1.a):
            return False
        lo1, hi1 = sorted([dot(e1, s1.a), dot(e1, s1.b)])
        lo2, hi2 = sorted([dot(e1, s2.a), dot(e1, s2.b)])
        return max(lo1, lo2) <= min(hi1, hi2)

    for i, rs in enumerate(resolved):
        for t, u in itertools.combinations(range(len(rs.runs)), 2):
            if u == t + 1:
                continue
            if clash(rs.runs[t], rs.runs[u]):
                raise OverlappingSlits("slit %d crosses itself" % i)
        for j in range(i + 1, len(resolved)):
            for a in rs.runs:
                for b in resolved[j].runs:
                    if clash(a, b):
                        raise OverlappingSlits(
                            "slits %d and %d are not disjoint" % (i, j))


# -- the cut complex ----------------------------------------------------------


class _Complex:
    """One mutable copy of the base, cut open along the slits.

    Each edge is keyed by (polygon, start vertex): the surface checker
    refuses a chart that passes through a vertex twice, and a cut divides
    a piece along a chord, so each vertex of a piece starts exactly one
    edge, and a key stays valid while vertices are inserted elsewhere in
    the chart.  `glue` maps each glued edge to its partner's key and `bank`
    each slit bank's key to its (slit, piece, 'L'/'R') tag; every edge is
    in one of them.  Splitting an edge re-pairs its two halves with its
    partner's, and a cut re-keys only the edges that move to the new
    piece.  `build_cover` turns the keys into (polygon, edge index) once
    the cutting is done.

    `shape(p)` is piece p's Polygon, built on first read after
    `ensure_vertex` or `cut` last changed the piece, so every point location
    on a piece reads one Polygon, and the cover's sheets share it.  A piece
    never cut keeps the base's own Polygon: Polygons are immutable."""

    def __init__(self, base: Surface):
        self.polys = polys = [list(p.vertices) for p in base.polygons]
        self.shapes = list(base.polygons)
        self.glue = {(p, polys[p][e]): (q, polys[q][f])
                     for (p, e), (q, f) in base.partner.items()}
        self.bank = {}
        self.ancestor = list(range(len(self.polys)))

    def shape(self, p):
        """The Polygon of piece p, with the vertices of polys[p]."""
        poly = self.shapes[p]
        if poly is None:
            poly = self.shapes[p] = Polygon(self.polys[p])
        return poly

    def ensure_vertex(self, p, pt):
        """Make pt a vertex of polygon p (splitting an edge if needed)."""
        where = self.shape(p).locate(pt)
        if where == "outside":
            raise InvalidParams("cut point %s fell outside polygon %d"
                                % (pt, p))
        if where == "interior":
            raise InvalidParams("cut point %s is not on the boundary of "
                                "polygon %d" % (pt, p))
        if where[0] == "vertex":
            return
        e = where[1]
        a = self.polys[p][e]
        if (p, a) not in self.glue:
            raise InvalidParams("cut lands on a slit bank; such slit "
                                "arrangements are not supported")
        p2, b = self.glue.pop((p, a))
        del self.glue[(p2, b)]
        self.polys[p].insert(e + 1, pt)
        # read the partner's place after the insert: p2 may be p
        verts2 = self.polys[p2]
        e2 = verts2.index(b)
        pt2 = pt + (verts2[(e2 + 1) % len(verts2)] - a)
        verts2.insert(e2 + 1, pt2)
        self.shapes[p] = self.shapes[p2] = None
        # a..pt meets pt2..(the partner's end), and pt..(the end) meets b..pt2
        self.glue[(p, a)], self.glue[(p2, pt2)] = (p2, pt2), (p, a)
        self.glue[(p, pt)], self.glue[(p2, b)] = (p2, b), (p, pt)

    def tag_slide(self, p, a, b, slit, piece):
        """A slit running along a glued edge: the slide chart is the left
        bank (its interior sits left of the travel direction)."""
        self.ensure_vertex(p, a)
        self.ensure_vertex(p, b)
        verts = self.polys[p]
        if verts[(verts.index(a) + 1) % len(verts)] != b:
            raise InvalidParams("no edge %s -> %s in polygon %d" % (a, b, p))
        other = self.glue.pop((p, a))
        del self.glue[other]
        self.bank[(p, a)] = (slit, piece, "L")
        self.bank[other] = (slit, piece, "R")

    def cut(self, p, pts, tags):
        """Split polygon p along the chord pts[0] -> pts[-1] (both already
        vertices); tags[t] describes piece pts[t] -> pts[t+1]: None for a
        seam (reglued at once) or (slit, piece, forward)."""
        verts = self.polys[p]
        n = len(verts)
        i = verts.index(pts[0])
        j = verts.index(pts[-1])
        k = len(pts) - 1
        arc_a = (j - i) % n
        arc_b = (i - j) % n
        if arc_a + k < 3 or arc_b + k < 3:
            raise InvalidParams("cut would create a degenerate polygon")
        piece_a = [verts[(i + t) % n] for t in range(arc_a + 1)]
        piece_a += pts[-2:0:-1]
        piece_b = [verts[(j + t) % n] for t in range(arc_b + 1)]
        piece_b += pts[1:-1]
        pb = len(self.polys)
        self.polys[p] = piece_a
        self.polys.append(piece_b)
        self.shapes[p] = None
        self.shapes.append(None)
        self.ancestor.append(self.ancestor[p])
        for v in piece_b[:arc_b]:
            old, new = (p, v), (pb, v)
            if old in self.bank:
                self.bank[new] = self.bank.pop(old)
            else:
                other = self.glue.pop(old)
                self.glue[new], self.glue[other] = other, new
        for t, tag in enumerate(tags):
            # the chord piece pts[t] -> pts[t+1] runs forward on piece b
            # and back on piece a
            fwd, rev = (pb, pts[t]), (p, pts[t + 1])
            if tag is None:
                self.glue[fwd], self.glue[rev] = rev, fwd
            else:
                slit, piece, forward = tag
                left, right = (fwd, rev) if forward else (rev, fwd)
                self.bank[left] = (slit, piece, "L")
                self.bank[right] = (slit, piece, "R")
        return pb


# -- chord assembly -----------------------------------------------------------


def _chart_chords(resolved, flow):
    """Raw cut pieces per chart: slit runs plus boundary extensions for
    interior endpoints, then collinear pieces merged into full chords.
    flow(d) is the base's flow in direction d."""
    raw = []  # (polygon, A, B, tag); tag None=seam / (slit, piece, dir)
    slides = []
    for j, rs in enumerate(resolved):
        piece = 0
        for seg in rs.runs:
            if seg.slide:
                slides.append((seg.polygon, seg.a, seg.b, j, piece))
            else:
                raw.append((seg.polygon, seg.a, seg.b,
                            (j, piece, rs.direction)))
            piece += 1
        # an interior endpoint has one chart representative, where the
        # slit's first or last run starts or ends
        u, v = rs.u, rs.v
        if u.where == "interior":
            y = _exit_solve(flow(-rs.direction), u.polygon, u.at)[1]
            raw.append((u.polygon, y, u.at, None))
        if v.where == "interior":
            y = _exit_solve(flow(rs.direction), v.polygon, v.at)[1]
            raw.append((v.polygon, v.at, y, None))

    groups = {}
    for (p, a, b, tag) in raw:
        dirc = canonical_direction(b - a)
        key = (p, dirc.x, dirc.y, cross(dirc, a))
        s0, s1 = dot(dirc, a), dot(dirc, b)
        if s1 < s0:
            s0, s1, a, b = s1, s0, b, a
        groups.setdefault(key, []).append((s0, s1, a, b, tag))

    chords = []
    for (p, dx, dy, _), pieces in groups.items():
        dirc = Vec2(dx, dy)
        pieces.sort(key=lambda q: (q[0], q[1]))
        comp, reach = [], None
        for piece in pieces:
            if comp and piece[0] > reach:
                chords.append(_finish_chord(p, dirc, comp))
                comp, reach = [], None
            comp.append(piece)
            if reach is None or piece[1] > reach:
                reach = piece[1]
        if comp:
            chords.append(_finish_chord(p, dirc, comp))
    return chords, slides


def _finish_chord(p, dirc, comp):
    points = {}
    for (s0, s1, a, b, _) in comp:
        points[s0] = a
        points[s1] = b
    svals = sorted(points)
    pts = [points[s] for s in svals]
    tags = []
    for t in range(len(svals) - 1):
        mid = (svals[t] + svals[t + 1]) / 2
        owners = [tag for (s0, s1, _, _, tag) in comp
                  if tag is not None and s0 < mid < s1]
        if len(owners) > 1:
            raise OverlappingSlits("two slits share the segment near %s"
                                   % pts[t])
        if owners:
            j, piece, slit_dir = owners[0]
            tags.append((j, piece, dot(slit_dir, dirc).sign() > 0))
        elif any(s0 < mid < s1 for (s0, s1, _, _, _) in comp):
            tags.append(None)
        else:
            raise InconsistentTopology("no cut piece covers the chord near %s"
                                       % pts[t])
    return {"polygon": p, "pts": pts, "tags": tags}


# -- building the cover -------------------------------------------------------


def _cut_complex(spec: CoverSpec):
    """(resolved slits, one copy of the base cut open along them); slit j
    is cut into len(resolved[j].runs) pieces."""
    base = spec.base
    flows = {}  # one flow of the base per direction, shared by its slits

    def flow(d):
        if d not in flows:
            flows[d] = _Flow(base, d)
        return flows[d]

    resolved = [_resolve_slit(base, s, flow(s.direction)) for s in spec.slits]
    _check_disjoint(resolved)

    cx = _Complex(base)
    chords, slides = _chart_chords(resolved, flow)
    # the cutter handles parallel systems only: two chords of one chart may
    # meet at a shared foot, never at a point interior to either
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            a, b = chords[i], chords[j]
            if a["polygon"] != b["polygon"]:
                continue
            a0, a1 = a["pts"][0], a["pts"][-1]
            b0, b1 = b["pts"][0], b["pts"][-1]
            if segments_intersect(a0, a1, b0, b1) and not (
                    a0 in (b0, b1) or a1 in (b0, b1)):
                raise InvalidParams(
                    "slit system needs crossing cuts in chart %d (seam "
                    "extensions included); only non-crossing systems build"
                    % a["polygon"])
    for ch in chords:
        cx.ensure_vertex(ch["polygon"], ch["pts"][0])
        cx.ensure_vertex(ch["polygon"], ch["pts"][-1])
    for (p, a, b, j, piece) in slides:
        cx.tag_slide(p, a, b, j, piece)
    work = list(chords)
    while work:
        ch = work.pop(0)
        p = ch["polygon"]
        pb = cx.cut(p, ch["pts"], ch["tags"])
        half = scalar(1) / 2
        for other in work:
            if other["polygon"] != p:
                continue
            mid = (other["pts"][0] + other["pts"][-1]) * half
            if cx.shape(p).locate(mid) == "outside":
                other["polygon"] = pb
    banks = set(cx.bank.values())
    if any((j, piece, side) not in banks for j, rs in enumerate(resolved)
           for piece in range(len(rs.runs)) for side in "LR"):
        raise InconsistentTopology("a slit piece was cut without both banks")
    return resolved, cx


def _classes_over(cover: Surface, cx: _Complex, degree: int, ep: _Endpoint):
    """Vertex classes of `cover` (degree copies of the cut complex `cx`)
    lying over the endpoint `ep`, each with one chart representative."""
    P = len(cx.polys)
    classes = {}
    for q in range(P):
        for (bp, pt) in ep.aliases:
            if cx.ancestor[q] != bp:
                continue
            for kq, vv in enumerate(cx.polys[q]):
                if vv == pt:
                    for copy in range(degree):
                        c = cover.class_of[(q + copy * P, kq)]
                        classes.setdefault(c, (q + copy * P, pt))
    return classes


def build_cover(spec: CoverSpec) -> Surface:
    """d sheet copies of the base, cut along the slits and cross-glued."""
    base = spec.base
    resolved, cx = _cut_complex(spec)
    d = spec.degree
    P = len(cx.polys)
    polys = [cx.shape(q) for q in range(P)] * d
    # each edge key (polygon, start vertex) as (polygon, edge index)
    index = [{v: e for e, v in enumerate(verts)} for verts in cx.polys]
    glued = [((p, index[p][a]), (q, index[q][b]))
             for (p, a), (q, b) in cx.glue.items()]
    bank = {tag: (p, index[p][a]) for (p, a), tag in cx.bank.items()}
    glue_pairs = set()
    for copy in range(d):
        off = copy * P
        for (pe, pe2) in glued:
            a = (pe[0] + off, pe[1])
            b = (pe2[0] + off, pe2[1])
            glue_pairs.add((a, b) if a <= b else (b, a))
    for j, perm in enumerate(spec.perms):
        for piece in range(len(resolved[j].runs)):
            lp, le = bank[(j, piece, "L")]
            rp, re = bank[(j, piece, "R")]
            for i in range(d):
                a = (lp + i * P, le)
                b = (rp + perm[i] * P, re)
                glue_pairs.add((a, b) if a <= b else (b, a))

    endpoints = [ep for rs in resolved for ep in (rs.u, rs.v)]
    marks = []
    for mp in base.marked:
        if any(mp.aliases[0] == ep.aliases[0] for ep in endpoints):
            continue
        home = next(q for q in range(P)
                    if cx.ancestor[q] == mp.polygon
                    and cx.shape(q).locate(mp.at) != "outside")
        for copy in range(d):
            marks.append((home + copy * P, mp.at,
                          "%s#%d" % (mp.label, copy + 1)))

    built = Surface(polys, sorted(glue_pairs), marked=marks)
    extra_marks = []
    for ep in endpoints:
        if ep.label is None or ep.singular:
            continue
        classes = _classes_over(built, cx, d, ep)
        for t, (c, (pq, pt)) in enumerate(sorted(classes.items())):
            if built.cone_windings[c] > 1:
                built.point_labels[c] = ep.label
            else:
                suffix = "#%d" % (t + 1) if len(classes) > 1 else ""
                extra_marks.append((pq, pt, ep.label + suffix))
    # a labelled end left regular is one more mark, checked and added as
    # the constructor checks and adds the marks it is given
    clash = _mark_field_clash(built.field_d, marks + extra_marks)
    if clash:
        raise FieldMismatch(clash)
    for pq, pt, label in extra_marks:
        built._add_mark(pq, pt, label)
    return built


def cyclic_slit_cover(spec: CoverSpec) -> Surface:
    """Cover with a single slit whose sheets are permuted by one d-cycle;
    both slit endpoints are totally ramified."""
    if len(spec.slits) != 1:
        raise InvalidParams("cyclic construction takes exactly one slit")
    perm = spec.perms[0]
    seen, at = set(), 0
    while at not in seen:
        seen.add(at)
        at = perm[at]
    if len(seen) != spec.degree:
        raise NonTransitive("%r does not act transitively on the sheets"
                            % (perm,))
    return build_cover(spec)


def double_cover(base: Surface, slits) -> Surface:
    """Two sheets exchanged across every slit; 2k slits give genus
    3 + 2k over a genus-two base."""
    slits = list(slits)
    if len(slits) < 2 or len(slits) % 2:
        raise InvalidParams("double cover wants 2k slits with k >= 1")
    spec = CoverSpec(base, 2, slits, [(1, 0)] * len(slits))
    return build_cover(spec)


def riemann_hurwitz(g_base: int, degree: int, profile) -> int:
    """Genus of a degree-d cover of a genus-g surface with the given
    ramification profile: chi = d(2 - 2g) - sum(e - 1)."""
    seen = set()
    defect = 0
    for point, partition in profile:
        if point in seen:
            raise InconsistentProfile("branch point %r listed twice" % (point,))
        seen.add(point)
        parts = list(partition)
        if sum(parts) != degree or any(e < 1 for e in parts):
            raise InconsistentProfile(
                "%r is not a partition of %d" % (parts, degree))
        defect += sum(e - 1 for e in parts)
    chi = degree * (2 - 2 * g_base) - defect
    if chi % 2:
        raise InconsistentProfile("profile gives odd Euler characteristic %d"
                                  % chi)
    return (2 - chi) // 2


def _ramification(cover: Surface, spec: CoverSpec):
    """Ramification profile of `cover` over the nonsingular slit endpoints,
    as riemann_hurwitz takes it: one (point, partition) per distinct point,
    the partition being the cone windings of the cover's vertex classes
    over that point.  Slits meeting at a point are counted there once, with
    the monodromy they make together."""
    resolved, cx = _cut_complex(spec)
    P = len(cx.polys)
    if len(cover.polygons) != spec.degree * P or any(
            cover.polygons[q].vertices != cx.polys[q % P]
            for q in range(len(cover.polygons))):
        raise InvalidParams("cover was not built from this spec")
    profile, seen = [], set()
    for rs in resolved:
        for ep in (rs.u, rs.v):
            point = frozenset(ep.aliases)
            if ep.singular or point in seen:
                continue
            seen.add(point)
            classes = _classes_over(cover, cx, spec.degree, ep)
            profile.append((point, sorted(
                (cover.cone_windings[c] for c in classes), reverse=True)))
    return profile


def is_balanced(cover: Surface, spec: CoverSpec) -> bool:
    """True when every preimage of every nonsingular branch point is
    ramified: each vertex class of `cover` over such a point has total angle
    above 2pi."""
    return all(e > 1 for _, partition in _ramification(cover, spec)
               for e in partition)
