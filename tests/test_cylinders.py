"""Cylinder decompositions, commensurability signatures, and twists.

Frozen values below (cylinder dimensions, twist images, orbit ratios) were
computed by hand from the flat pictures before being locked in here.
"""

import gc
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veechkit.cylinders
from test_covers import cyclic_covers
from test_surface import marked_surfaces, positive_matrices
from veechkit.covers import CoverSpec, Slit, cyclic_slit_cover
from veechkit.errors import (FieldMismatch, InconsistentTopology,
                             InvalidParams, NotComplete, OnBoundaryPoint,
                             VeechkitError, ZeroInput)
from veechkit.field import FieldScalar, _sort_key, scalar
from veechkit.geometry import (Mat2, Vec2, canonical_direction, dot,
                               normalize_to_vertical, segments_intersect)
from veechkit.linear import twist_matrix
from veechkit.surface import Surface
from veechkit.trace import (CLOSED, SINGULAR, STOPPED, Segment, TraceEvent,
                            advance, departing_corners, trace)
from veechkit.cylinders import (_barrier_hook, _barrier_table,
                                classify_direction, decompose,
                                dehn_twist_point, mark_ratios,
                                signature_of_moduli, torus_signature,
                                twist_displacement, twist_orbit)

GOLDEN = FieldScalar(Fraction(-1, 2), Fraction(1, 2), 5)
GOLDEN_BIG = FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = FieldScalar(0, 1, 5)


def dims(deco):
    return sorted((cyl.width, cyl.height) for cyl in deco.cylinders)


# ---------------------------------------------------------------------------
# decompositions of the presets
# ---------------------------------------------------------------------------

def test_torus_both_axes():
    t = Surface.square_torus()
    for d in (Vec2(1, 0), Vec2(0, 1)):
        deco = decompose(t, d)
        assert deco.complete
        assert dims(deco) == [(scalar(1), scalar(1))]
        assert torus_signature(deco).s_prime == scalar(1)


def test_cross_axes():
    c = Surface.cross(1, 1)
    for d in (Vec2(1, 0), Vec2(0, 1)):
        deco = decompose(c, d)
        assert deco.complete
        assert dims(deco) == [(scalar(1), scalar(1)), (scalar(1), scalar(1)),
                              (scalar(1), scalar(3))]
        assert sorted(deco.inverse_moduli()) == [1, 1, 3]
        sig = torus_signature(deco)
        assert sig.m == 1
        assert sig.s_prime == scalar(3)


def test_cross_diagonal():
    c = Surface.cross(1, 1)
    deco = decompose(c, Vec2(1, 1))
    assert len(deco.cylinders) == 1
    cyl = deco.cylinders[0]
    # lengths in units of the direction vector
    assert (cyl.width, cyl.height) == (scalar(1), scalar(5))
    assert torus_signature(deco).s_prime == scalar(5)


def test_cross_two_three():
    c = Surface.cross(1, 1)
    for d in (Vec2(2, 3), Vec2(3, 2)):
        deco = decompose(c, d)
        assert sorted(deco.inverse_moduli()) == [1, 2, 2]
        assert torus_signature(deco).s_prime == scalar(2)


def test_area_identity():
    for surf in (Surface.square_torus(), Surface.cross(1, 1),
                 Surface.cross(GOLDEN, 1), Surface.l_shape(1, 1, 1, 1)):
        for d in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)):
            deco = decompose(surf, d)
            if not deco.complete:
                continue
            total = scalar(0)
            for cyl in deco.cylinders:
                total = total + cyl.width * cyl.height
            assert total == surf.area


def _leaf_key(segments):
    """Phase-independent key for a closed leaf.

    The trace may start mid-run; merge the wrap-around split, then rotate the
    cyclic run sequence to its lexicographic minimum.
    """
    runs = [(s.polygon, s.a.x, s.a.y, s.b.x, s.b.y) for s in segments]
    if len(runs) > 1:
        p0, a0x, a0y, b0x, b0y = runs[0]
        pk, akx, aky, bkx, bky = runs[-1]
        if pk == p0 and bkx == a0x and bky == a0y:
            runs = [(p0, akx, aky, b0x, b0y)] + runs[1:-1]
    return min(tuple(runs[r:] + runs[:r]) for r in range(len(runs)))


def _barrier_length(leaves):
    """Total length of the barrier leaves: a band's circumference is the
    length of its west bank, part of that set, so this caps every midline."""
    total = scalar(0)
    for ev in leaves:
        total = total + ev.param
    return total


def _key(deco, cyl):
    """Key of the closed leaf through `cyl.sample`, the cylinder's midline."""
    leaf = trace(deco.normalized, cyl.sample[0], cyl.sample[1], Vec2(0, 1),
                 stop_at_marked=False,
                 cap=_barrier_length([ev for _, ev in deco.connections]
                                     + [ev for _, ev in deco.vertex_leaves]))
    assert leaf.kind == CLOSED and leaf.param == cyl.height
    return _leaf_key(leaf.segments)


def _interpolated(seg, tau):
    """The point of `seg` at flow parameter tau, by linear interpolation
    between its ends."""
    return seg.a + (seg.b - seg.a) * ((tau - seg.tau0) / (seg.tau1 - seg.tau0))


def _reference_banks(deco):
    """Banks by their definition: from the middle of each barrier leaf's
    first segment, cross the band east (west) to the next barrier, close up
    the leaf through the band's midpoint, and match its key."""
    def hook(seg):
        best = None
        _, rows = deco.barriers.get(seg.polygon, ((), ()))
        for x, y0, y1, _ in rows:
            got = segments_intersect(seg.a, seg.b, Vec2(x, y0), Vec2(x, y1))
            if got is None:
                continue
            tau = seg.tau0 + got[0] * (seg.tau1 - seg.tau0)
            if tau.sign() > 0 and (best is None or tau < best):
                best = tau
        return None if best is None else (best, None)

    by_key = {_key(deco, cyl): cyl.index for cyl in deco.cylinders}
    west = {cyl.index: [] for cyl in deco.cylinders}
    east = {cyl.index: [] for cyl in deco.cylinders}
    events = ([ev for _, ev in deco.connections]
              + [ev for _, ev in deco.vertex_leaves])
    for bid, ev in enumerate(events):
        seg = ev.segments[0]
        q = _interpolated(seg, (seg.tau0 + seg.tau1) / 2)
        for direction, banks in ((Vec2(1, 0), west), (Vec2(-1, 0), east)):
            ray = trace(deco.normalized, seg.polygon, q, direction,
                        stop_at_marked=False, detect_closure=False,
                        stop_on=hook, cap=deco.cap)
            assert ray.kind == STOPPED
            mid = advance(deco.normalized, seg.polygon, q, direction,
                          ray.param / 2)
            leaf = trace(deco.normalized, mid[0], mid[1], Vec2(0, 1),
                         stop_at_marked=False, cap=deco.cap)
            assert leaf.kind == CLOSED
            banks[by_key[_leaf_key(leaf.segments)]].append(bid)
    return west, east


def test_banks_are_attached():
    for surf, direction in ((Surface.cross(1, 1), Vec2(1, 0)),
                            (Surface.cross(GOLDEN_BIG, 1), Vec2(1, 1)),
                            (Surface.cross(GOLDEN_BIG, 1), Vec2(1, 2))):
        deco = decompose(surf, direction)
        assert deco.complete
        west, east = _reference_banks(deco)
        for cyl in deco.cylinders:
            west_ids, east_ids = deco.banks[cyl.index]
            assert west_ids and east_ids
            assert west_ids == west[cyl.index]
            assert east_ids == east[cyl.index]


def test_banks_are_traced_on_first_read_only(monkeypatch):
    # decompose traces the separatrices, each closed vertex leaf once, one
    # width ray per cylinder and two rays per mark; the banks' one west ray
    # per barrier leaf waits for the first read of deco.banks
    calls = []

    def counting_trace(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(veechkit.cylinders, "trace", counting_trace)
    at = (GOLDEN_BIG + Fraction(1, 3), GOLDEN_BIG + Fraction(1, 7))
    surf = Surface.cross(GOLDEN_BIG, 1, marked=[(0, at, "q")])
    deco = decompose(surf, Vec2(2, 3))
    assert deco.complete and [m.state for m in deco.marks] == ["in"]
    assert len(calls) == (len(deco.connections) + len(deco.vertex_leaves)
                          + len(deco.cylinders) + 2 * len(deco.marks))
    before = len(calls)
    banks = deco.banks
    barrier_leaves = len(deco.connections) + len(deco.vertex_leaves)
    assert len(calls) == before + barrier_leaves
    assert deco.banks is banks
    assert len(calls) == before + barrier_leaves


def test_read_banks_leave_no_cyclic_garbage():
    gc.collect()
    deco = decompose(Surface.cross(GOLDEN_BIG, 1), Vec2(1, 2))
    assert deco.banks
    del deco
    assert gc.collect() == 0


def test_each_cylinder_closes_one_leaf(monkeypatch):
    # a band is found from its west bank, so decompose closes no leaf but the
    # vertex leaves
    closed = []

    def counting_trace(*args, **kwargs):
        ev = trace(*args, **kwargs)
        if ev.kind == CLOSED:
            closed.append(ev)
        return ev

    monkeypatch.setattr(veechkit.cylinders, "trace", counting_trace)
    deco = decompose(Surface.cross(GOLDEN_BIG, 1), Vec2(2, 3))
    assert deco.complete
    assert len(closed) == len(deco.vertex_leaves)


def test_a_closed_leaf_is_traced_once(monkeypatch):
    # on cross(1, 1) in (2, 3) and (3, 2) one closed leaf passes two regular
    # vertex classes: it is traced from the first, and settles the second
    ups = []

    def recording_trace(surface, *args, corner=None, direction=None,
                        **kwargs):
        ev = trace(surface, *args, corner=corner, direction=direction,
                   **kwargs)
        if (corner is not None and direction.v == Vec2(0, 1)
                and surface.cone_windings[surface.class_of[corner]] == 1):
            ups.append(ev)
        return ev

    monkeypatch.setattr(veechkit.cylinders, "trace", recording_trace)
    for direction in ((2, 3), (3, 2)):
        ups.clear()
        deco = decompose(Surface.cross(1, 1), direction)
        assert deco.complete
        assert len(deco.vertex_leaves) == 1
        assert [ev.kind for ev in ups] == [CLOSED]
        assert sorted(deco.inverse_moduli()) == [1, 2, 2]


def test_barrier_hook_refuses_slanted_segments():
    half = scalar(Fraction(1, 2))
    table = {0: ([half], [(half, scalar(0), scalar(1), 7)])}
    across = Segment(0, Vec2(0, half), Vec2(1, half), False,
                     scalar(0), scalar(1))
    # the hook stops at a flow parameter, with the id of the barrier leaf
    # the ray crosses as payload
    assert _barrier_hook(table)(across) == (half, 7)
    westward = Segment(0, Vec2(1, half), Vec2(0, half), False,
                       scalar(2), scalar(3))
    assert _barrier_hook(table)(westward) == (scalar(2) + half, 7)
    slanted_ray = Segment(0, Vec2(0, 0), Vec2(1, 1), False,
                          scalar(0), scalar(1))
    with pytest.raises(InconsistentTopology):
        _barrier_hook(table)(slanted_ray)
    # a leaf segment that is not vertical is refused when the table is built
    slanted = TraceEvent(SINGULAR, [Segment(0, Vec2(0, 0), Vec2(1, 1), False,
                                            scalar(0), scalar(1))],
                         scalar(1), None, scalar(2))
    with pytest.raises(InconsistentTopology):
        _barrier_table(Surface.cross(1, 1), [slanted], {})
    # a transverse ray that is not horizontal in the normalized frame
    deco = decompose(Surface.cross(1, 1), Vec2(1, 0))
    start = deco.frame * Vec2(Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(InconsistentTopology):
        trace(deco.normalized, 0, start, Vec2(1, 1), stop_at_marked=False,
              detect_closure=False, stop_on=_barrier_hook(deco.barriers))


def test_a_barrier_crossing_at_a_cone_point_reports_the_cone():
    # vertical on cross(1, 1) the normalized frame is the chart itself; the
    # width ray from corner (0, 11) crosses the barrier leaf through the
    # cone point (2, 1) at its end: the hook stops there, and the cone wins
    # the tie, reporting the corner the ray arrives at
    deco = decompose(Surface.cross(1, 1), Vec2(0, 1))
    hook = _barrier_hook(deco.barriers)
    ev = trace(deco.normalized, corner=(0, 11), direction=Vec2(1, 0),
               stop_at_marked=False, detect_closure=False, stop_on=hook)
    assert ev.segments[-1].b == Vec2(2, 1)
    assert hook(ev.segments[-1]) == (scalar(1), 0)
    assert (ev.kind, ev.param, ev.corner, ev.payload) == (
        SINGULAR, scalar(1), (0, 2), None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4),
                          st.integers(0, 2), st.integers(0, 3)), max_size=12),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.booleans())
def test_barrier_hook_visits_rows_nearest_first(raw, ax, bx, y, later):
    # rows (x, y_low, y_high, leaf) on a small grid, so that crossings tie,
    # touch the rows' ends and sit at both ends of the ray
    if ax == bx:
        return
    rows = sorted([(scalar(x), scalar(y0), scalar(y0 + h), leaf)
                   for x, y0, h, leaf in raw], key=lambda row: row[0])
    table = {0: ([row[0] for row in rows], rows)}
    tau0 = scalar(1 if later else 0)
    seg = Segment(0, Vec2(ax, y), Vec2(bx, y), False, tau0,
                  tau0 + abs(bx - ax))
    # brute force: every row the ray crosses, past its start on a first
    # segment, the nearest first
    hits = [(abs(x - ax), x, leaf) for x, y0, y1, leaf in rows
            if y0 <= y <= y1 and min(ax, bx) <= x <= max(ax, bx)
            and (later or x != ax)]
    got = _barrier_hook(table)(seg)
    if not hits:
        assert got is None
        return
    near = min(hits)[0]
    assert got[0] == tau0 + near
    assert got[1] in {leaf for d, _, leaf in hits if d == near}


def _shape(deco):
    return (len(deco.cylinders), sorted(c.modulus for c in deco.cylinders),
            [(m.state, m.ratio) for m in deco.marks])


def test_ray_through_a_regular_vertex_on_a_barrier():
    # in the shear below, the east ray from a barrier leaf of direction (1, 2)
    # reaches the regular vertex (2, 2) at a corner no barrier segment of the
    # chart touches, yet it crosses the vertical leaf through that vertex
    shear = Mat2(1, 0, 1, 1)
    base = decompose(Surface.cross(1, 1), Vec2(1, 1))
    image = decompose(Surface.cross(1, 1).transform(shear), Vec2(1, 2))
    assert image.complete and base.complete
    assert _shape(image) == _shape(base)
    assert [(c.width, c.height) for c in image.cylinders] == \
        [(c.width, c.height) for c in base.cylinders]
    # seeded unimodular images of the marked cross, in the image of (1, 1)
    surf = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    base = decompose(surf, Vec2(1, 1))
    gens = [Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1)]
    rng = random.Random(20041)
    for _ in range(30):
        a = Mat2.identity()
        for _ in range(rng.randint(1, 4)):
            a = rng.choice(gens) * a
        deco = decompose(surf.transform(a), a * Vec2(1, 1))
        assert deco.complete
        assert _shape(deco) == _shape(base)


def test_zero_direction_is_refused():
    with pytest.raises(ZeroInput):
        decompose(Surface.cross(1, 1), (0, 0))
    with pytest.raises(ValueError):  # ZeroInput is a ValueError too
        classify_direction(Surface.cross(1, 1), Vec2(0, 0))


def test_incomplete_direction_stays_open():
    deco = decompose(Surface.cross(1, 1), Vec2(scalar(1), GOLDEN), cap=8)
    assert not deco.complete
    assert deco.status == "undetermined"
    with pytest.raises(NotComplete):
        torus_signature(deco)


def test_midline_past_the_cap_does_not_bind():
    # every separatrix of (1, -3) on cross(1, 3) is a saddle connection within
    # 20, though a cylinder's midline is longer: the decomposition is complete
    # and the same as at the default cap
    capped = decompose(Surface.cross(1, 3), (1, -3), cap=20)
    assert capped.complete
    assert max(cyl.height for cyl in capped.cylinders) > 20
    plain = decompose(Surface.cross(1, 3), (1, -3))
    assert [(c.width, c.height, c.marks) for c in capped.cylinders] == \
        [(c.width, c.height, c.marks) for c in plain.cylinders]
    assert [(m.state, m.ratio) for m in capped.marks] == \
        [(m.state, m.ratio) for m in plain.marks]
    assert capped.banks == plain.banks


# ---------------------------------------------------------------------------
# bank cycles against the midline recognition they replace
# ---------------------------------------------------------------------------

def _on(seg, pt):
    return pt.x == seg.a.x and seg.a.y <= pt.y <= seg.b.y


def _reference_hook(barriers, vertices):
    """Nearest vertical barrier crossing of a horizontal ray segment, or the
    segment's end at a regular vertex that lies on a barrier."""
    def stop(seg):
        ax, bx, y = seg.a.x, seg.b.x, seg.a.y
        sense = (bx - ax).sign()
        best = None
        for bs in barriers.get(seg.polygon, []):
            x = bs.a.x
            if not bs.a.y <= y <= bs.b.y:
                continue
            ahead = (x - ax).sign() * sense
            if ahead < 0 or (ahead == 0 and not seg.tau0):
                continue
            if (x - bx).sign() * sense <= 0 and (
                    best is None or (x - best).sign() * sense < 0):
                best = x
        if best is None and seg.b in vertices.get(seg.polygon, ()):
            best = bx
        if best is None:
            return None
        return (seg.tau0 + (best - ax) / (bx - ax) * (seg.tau1 - seg.tau0),
                None)
    return stop


def reference_decompose(surface, direction, cap=None):
    """The decomposition by midline recognition.

    One width ray per east corner, to the next barrier; a ray whose midpoint
    lies on no known midline closes the leaf through it, a new cylinder.
    Marks and banks are placed by the midpoints of their rays across the
    band, matched by chart aliases against the midlines.  Returns the form
    of `summary`.
    """
    s = surface.transform(normalize_to_vertical(
        canonical_direction(Vec2(*direction))))
    cap = scalar(cap) if cap is not None else s.default_cap()
    up, east, west = Vec2(0, 1), Vec2(1, 0), Vec2(-1, 0)
    leaves = []
    for corner in departing_corners(s, up):
        ev = trace(s, corner=corner, direction=up, stop_at_marked=False,
                   cap=cap)
        if ev.kind != "HitSingularity":
            return ("undetermined",)
        leaves.append(ev)
    corners = departing_corners(s, east)
    closed = []
    for cls, w in enumerate(s.cone_windings):
        if w > 1:
            continue
        corners += departing_corners(s, east, cls=cls)
        if any(seg.polygon == p and _on(seg, pt)
               for p, pt in s._class_points(cls)
               for leaf in closed for seg in leaf.segments):
            continue  # on a closed leaf traced from an earlier class
        p, k = s.vertex_classes[cls][0]
        ev = trace(s, p, s.polygons[p].vertex(k), up, stop_at_marked=False,
                   cap=cap)
        if ev.kind == CLOSED:
            closed.append(ev)
            leaves.append(ev)
        elif ev.kind != "HitSingularity":
            return ("undetermined",)
    barriers = {}
    for ev in leaves:
        for seg in ev.segments:
            barriers.setdefault(seg.polygon, []).append(seg)
            if seg.slide:
                p2, _ = s.partner[(seg.polygon, seg.edge)]
                shift = s.translation[(seg.polygon, seg.edge)]
                barriers.setdefault(p2, []).append(Segment(
                    p2, seg.a + shift, seg.b + shift, True, seg.tau0,
                    seg.tau1))
    vertices = {}
    for cls, group in enumerate(s.vertex_classes):
        reps = [(p, s.polygons[p].vertex(k)) for p, k in group]
        if s.cone_windings[cls] == 1 and any(
                _on(bs, pt) for p, pt in reps for bs in barriers.get(p, [])):
            for p, pt in reps:
                vertices.setdefault(p, []).append(pt)
    hook = _reference_hook(barriers, vertices)

    def ray(v, p=None, pt=None, corner=None):
        ev = trace(s, p, pt, v, corner=corner, stop_at_marked=False,
                   detect_closure=False, stop_on=hook, cap=cap)
        assert ev.kind in (STOPPED, "HitSingularity")
        return ev

    def point_on(ev, tau):
        seg = next(g for g in ev.segments if g.tau0 <= tau <= g.tau1)
        return seg.polygon, _interpolated(seg, tau)

    def cylinder_at(aliases):
        for index, (_, _, midline, _) in enumerate(cylinders):
            for seg in midline:
                if any(seg.polygon == p and _on(seg, pt) for p, pt in aliases):
                    return index
        return None

    cylinders = []  # (width, height, midline, sample)
    for corner in corners:
        ev = ray(east, corner=corner)
        mid = point_on(ev, ev.param / 2)
        known = cylinder_at(s.point_aliases(*mid))
        if known is not None:
            assert cylinders[known][0] == ev.param
            continue
        leaf = trace(s, mid[0], mid[1], up, stop_at_marked=False,
                     cap=_barrier_length(leaves))
        assert leaf.kind == CLOSED
        cylinders.append((ev.param, leaf.param, leaf.segments, mid))

    marks = []
    for mp in s.marked:
        aliases = s.point_aliases(mp.polygon, mp.at)
        if any(_on(bs, pt) for p, pt in aliases for bs in barriers.get(p, [])):
            marks.append(("boundary",))
            continue
        e, w = ray(east, mp.polygon, mp.at), ray(west, mp.polygon, mp.at)
        delta = (e.param + w.param) / 2 - w.param
        if delta.sign() > 0:
            aliases = s.point_aliases(*point_on(e, delta))
        elif delta.sign() < 0:
            aliases = s.point_aliases(*point_on(w, -delta))
        index = cylinder_at(aliases)
        assert cylinders[index][0] == e.param + w.param
        marks.append(("in", index, w.param, e.param,
                      w.param / cylinders[index][0]))
    banks = {i: ([], []) for i in range(len(cylinders))}
    for bid, ev in enumerate(leaves):
        seg = ev.segments[0]
        q = _interpolated(seg, (seg.tau0 + seg.tau1) / 2)
        for v, side in ((east, 0), (west, 1)):
            r = ray(v, seg.polygon, q)
            index = cylinder_at(s.point_aliases(*point_on(r, r.param / 2)))
            banks[index][side].append(bid)
    return ("complete",
            [(w, h, _leaf_key(m), sample) for w, h, m, sample in cylinders],
            [[i for i, mk in enumerate(marks) if mk[1:2] == (c,)]
             for c in range(len(cylinders))],
            marks, banks)


def summary(deco):
    """What `reference_decompose` reports, read from a decomposition."""
    if not deco.complete:
        return ("undetermined",)
    return ("complete",
            [(c.width, c.height, _key(deco, c), c.sample)
             for c in deco.cylinders],
            [c.marks for c in deco.cylinders],
            [("boundary",) if m.state == "boundary" else
             ("in", m.cylinder, m.westd, m.eastd, m.ratio)
             for m in deco.marks],
            deco.banks)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VeechkitError as exc:
        return ("raised", type(exc).__name__)


HEIGHT_3 = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2),
            (2, -1), (1, 3), (3, 1), (1, -3), (3, -1), (2, 3), (3, 2),
            (2, -3), (3, -2)]


@settings(max_examples=100, deadline=None)
@given(marked_surfaces(), positive_matrices(), st.sampled_from(HEIGHT_3),
       st.sampled_from((None, 20, 50)))
def test_bank_cycles_match_midline_recognition(surf, mat, direction, cap):
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    expect = _outcome(reference_decompose, image, direction, cap)
    got = _outcome(lambda: summary(decompose(image, direction, cap=cap)))
    assert got == expect


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), positive_matrices(), st.sampled_from(HEIGHT_3),
       st.sampled_from((20, 50)))
def test_a_longer_cap_keeps_a_complete_decomposition(surf, mat, direction,
                                                      cap):
    # the cap binds only the barrier leaves: once they all end within it,
    # doubling it changes nothing
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    deco = decompose(image, direction, cap=cap)
    if not deco.complete:
        return
    assert summary(decompose(image, direction, cap=2 * cap)) == summary(deco)


@settings(max_examples=60, deadline=None)
@given(marked_surfaces(), positive_matrices(),
       st.sampled_from(((1, 0), (0, 1), (1, 1), (1, 2))))
def test_classification_is_affinely_natural(surf, mat, direction):
    # M maps S's decomposition in v onto S.transform(M)'s in M v: the
    # normalized frames differ by a map fixing the vertical line, so widths
    # scale by one factor and heights by another, and a ratio across a band
    # is kept -- read from the other bank (1 - r) where canonical_direction
    # turns M v round.  The default caps differ, so only two complete
    # decompositions are compared.
    try:
        image = surf.transform(mat)
    except FieldMismatch:
        return
    v = Vec2(*direction)
    w = mat * v
    here = classify_direction(surf, v)
    there = classify_direction(image, w)
    if not (here.decomposition.complete and there.decomposition.complete):
        return
    assert (there.kind, there.signature.m) == (here.kind, here.signature.m)
    flipped = dot(canonical_direction(w), w).sign() < 0
    for a, b in zip(here.decomposition.marks, there.decomposition.marks,
                    strict=True):
        assert a.state == b.state
        if a.state == "in":
            assert b.ratio == (1 - a.ratio if flipped else a.ratio)
    ours = sorted(here.decomposition.inverse_moduli())
    theirs = sorted(there.decomposition.inverse_moduli())
    factor = theirs[0] / ours[0]
    assert factor.sign() > 0
    assert [m * factor for m in ours] == theirs


def test_bank_cycles_match_midline_recognition_fixed_cases():
    spec = CoverSpec(Surface.cross(1, 1), 3,
                     [Slit(corner=(0, 11), direction=(1, 1),
                           end=(Fraction(3, 2), Fraction(3, 2)))],
                     [(1, 2, 0)])
    cases = [(Surface.cross(1, 3), (1, -3), 20),  # a midline past the cap
             (Surface.cross(1, 3), (1, -3), None)]
    cases += [(cyclic_slit_cover(spec), d, None)
              for d in ((1, 0), (0, 1), (1, 1), (1, 2))]
    for surf, direction, cap in cases:
        assert summary(decompose(surf, direction, cap=cap)) == \
            reference_decompose(surf, direction, cap)
    assert summary(decompose(Surface.cross(1, 3), (1, -3), cap=20)) == \
        summary(decompose(Surface.cross(1, 3), (1, -3)))
    # the west ray from this mark ends on the cone point (1, 1)
    surf = Surface.cross(1, 1, marked=[(0, (Fraction(3, 2), 1), "c")])
    deco = decompose(surf, (0, 1))
    mp = deco.normalized.marked[0]
    assert deco._ray(mp.polygon, mp.at, "west").kind == "HitSingularity"
    assert summary(deco) == reference_decompose(surf, (0, 1))
    assert [(m.state, m.ratio) for m in deco.marks] == [
        ("in", scalar(Fraction(1, 2)))]
    # the east ray of the first mark and the west ray of the second reach
    # the regular vertex (2, 2) at a corner no barrier segment touches
    surf = Surface.cross(1, 1).transform(Mat2(1, 0, 1, 1)).with_marks(
        [(0, (Fraction(11, 4), 4), "e"), (0, (Fraction(5, 4), 4), "w")])
    deco = decompose(surf, (1, 2))
    assert summary(deco) == reference_decompose(surf, (1, 2))
    assert [(m.state, m.westd, m.eastd) for m in deco.marks] == [
        ("in", scalar(Fraction(1, 2)), scalar(Fraction(1, 2)))] * 2


# ---------------------------------------------------------------------------
# locating points
# ---------------------------------------------------------------------------

def test_locate_center():
    deco = decompose(Surface.cross(1, 1), Vec2(1, 0))
    pos = deco.locate(0, Vec2(Fraction(3, 2), Fraction(3, 2)))
    assert pos.state == "in"
    assert deco.cylinders[pos.cylinder].height == scalar(3)
    assert pos.ratio == scalar(Fraction(1, 2))
    assert pos.westd + pos.eastd == deco.cylinders[pos.cylinder].width


def test_locate_boundary_leaf():
    deco = decompose(Surface.cross(1, 1), Vec2(1, 0))
    pos = deco.locate(0, Vec2(Fraction(3, 2), 1))
    assert pos.state == "boundary"


def test_marks_located_by_decompose():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    horiz = decompose(c, Vec2(1, 0))
    assert [(m.state, m.ratio) for m in horiz.marks] == [
        ("in", scalar(Fraction(1, 2)))]
    vert = decompose(c, Vec2(0, 1))
    (mk,) = vert.marks
    assert (mk.state, mk.ratio) == ("in", GOLDEN)


def test_locate_refuses_a_missing_chart():
    deco = decompose(Surface.cross(1, 1), Vec2(1, 0))
    centre = Vec2(Fraction(3, 2), Fraction(3, 2))
    assert deco.locate(0, centre).state == "in"
    # -1 would name the last (here the only) chart
    for polygon in (7, -1):
        with pytest.raises(InvalidParams, match="no polygon"):
            deco.locate(polygon, centre)


# ---------------------------------------------------------------------------
# what a decomposition keeps, against deriving it again
# ---------------------------------------------------------------------------

REUSE_DIRECTIONS = ((0, 1), (1, 0), (1, 2), (2, 1), (1, -1), (-2, 3))


def position(pos):
    return (pos.state, pos.cylinder, pos.westd, pos.eastd, pos.ratio)


def assert_marks_match_locating_them(deco):
    # decompose starts each mark's two rays from the location the mark
    # keeps; locate_normalized locates the point afresh, from every chart
    # that names it, and a trace given no location finds it itself
    if not deco.complete:
        return
    s = deco.normalized
    for mp, pos in zip(s.marked, deco.marks):
        assert mp.where == s.polygons[mp.polygon].locate(mp.at)
        for p, pt in mp.aliases:
            assert position(deco.locate_normalized(p, pt)) == position(pos)
        if pos.state == "in":
            eastd, westd = (
                trace(s, mp.polygon, mp.at, deco.flows[name],
                      stop_at_marked=False, cap=deco.cap,
                      detect_closure=False, stop_on=deco._hook).param
                for name in ("east", "west"))
            assert (eastd, westd) == (pos.eastd, pos.westd)


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), st.sampled_from(REUSE_DIRECTIONS))
def test_marks_placed_from_their_location_match_locating_them(surf,
                                                              direction):
    assert_marks_match_locating_them(decompose(surf, direction))


@pytest.mark.parametrize("direction", REUSE_DIRECTIONS)
def test_vertex_and_edge_marks_placed_from_their_location(direction):
    # the unit torus glued from two half-width charts has two regular
    # vertex classes (the presets have none); each mark is named from a
    # chart other than its canonical one
    half = Fraction(1, 2)
    torus = Surface([[(0, 0), (half, 0), (half, 1), (0, 1)],
                     [(half, 0), (1, 0), (1, 1), (half, 1)]],
                    [((0, 0), (0, 2)), ((1, 0), (1, 2)), ((0, 1), (1, 3)),
                     ((1, 1), (0, 3))],
                    marked=[(1, (1, 1), "corner"),
                            (1, (1, Fraction(1, 3)), "edge"),
                            (0, (Fraction(1, 4), 1), "top"),
                            (0, (Fraction(1, 5), Fraction(2, 7)), "inside")])
    assert [mp.kind for mp in torus.marked] == ["vertex", "edge", "edge",
                                                "interior"]
    assert [mp.polygon for mp in torus.marked] == [0, 0, 0, 0]
    assert_marks_match_locating_them(decompose(torus, direction))


def reference_barriers(surface, leaves):
    """The barrier table as built before leaf segments kept their exit
    vertex and slab key: a regular vertex is found by looking each
    segment's end point up among the vertex chart points, and each row's
    _sort_key is formed afresh."""
    vertex_at = {(p, pt): cls
                 for cls, w in enumerate(surface.cone_windings) if w <= 1
                 for p, pt in surface._class_points(cls)}
    leaf_of, charts = {}, {}
    for leaf, ev in enumerate(leaves):
        for seg in ev.segments:
            cls = vertex_at.get((seg.polygon, seg.b))
            if cls is not None:
                leaf_of[cls] = leaf
            x, y0, y1 = seg.a.x, seg.a.y, seg.b.y
            charts.setdefault(seg.polygon, []).append((x, y0, y1, leaf))
            if seg.slide:
                p2, _ = surface.partner[(seg.polygon, seg.edge)]
                shift = surface.translation[(seg.polygon, seg.edge)]
                charts.setdefault(p2, []).append(
                    (x + shift.x, y0 + shift.y, y1 + shift.y, leaf))
    table = {}
    for p, rows in charts.items():
        rows.sort(key=lambda row: _sort_key(row[0]))
        table[p] = ([row[0] for row in rows], rows)
    for cls, leaf in sorted(leaf_of.items()):
        for p, pt in surface._class_points(cls):
            xs, rows = table.setdefault(p, ([], []))
            i = bisect_right(xs, pt.x)
            xs.insert(i, pt.x)
            rows.insert(i, (pt.x, pt.y, pt.y, leaf))
    return leaf_of, table


def assert_barriers_match_the_reference(deco):
    if not deco.complete:
        return
    s = deco.normalized
    leaves = ([ev for _, ev in deco.connections]
              + [ev for _, ev in deco.vertex_leaves])
    for ev in leaves:
        for seg in ev.segments:
            poly = s.polygons[seg.polygon]
            ends = [k for k in range(poly.n) if poly.vertices[k] == seg.b]
            assert ends == ([] if seg.vertex is None else [seg.vertex])
            assert seg.key == (None if seg.slide else _sort_key(seg.a.x))
    leaf_of, table = reference_barriers(s, leaves)
    assert sorted(leaf_of) == [cls for cls, w in enumerate(s.cone_windings)
                               if w <= 1]
    assert deco.barriers == table


@settings(max_examples=30, deadline=None)
@given(marked_surfaces(), st.sampled_from(REUSE_DIRECTIONS))
def test_barrier_rows_match_the_rows_built_afresh(surf, direction):
    assert_barriers_match_the_reference(decompose(surf, direction))


@settings(max_examples=10, deadline=None)
@given(cyclic_covers(), st.sampled_from(REUSE_DIRECTIONS))
def test_barrier_rows_on_covers_match_the_rows_built_afresh(case, direction):
    # the sheets share their Polygons, and slides add partner-chart rows
    assert_barriers_match_the_reference(decompose(case[1], direction))


def test_the_vertical_decomposes_the_surface_itself():
    # the vertical's frame is the identity, so the surface is its own
    # normalized surface; a mapped copy decomposes the same
    g = Surface.cross(GOLDEN_BIG, 1, marked=[(0, (GOLDEN_BIG + Fraction(5, 6),
                                                  Fraction(9, 14)), "q")])
    deco = decompose(g, (0, 1))
    assert deco.normalized is g
    copy = decompose(g.transform(Mat2.identity()), (0, 1))
    assert copy.normalized is not g
    assert ([(c.width, c.height, c.sample, c.marks) for c in deco.cylinders]
            == [(c.width, c.height, c.sample, c.marks)
                for c in copy.cylinders])
    assert [position(m) for m in deco.marks] == \
        [position(m) for m in copy.marks]
    assert deco.barriers == copy.barriers


# ---------------------------------------------------------------------------
# signatures and classification
# ---------------------------------------------------------------------------

def test_signature_of_moduli():
    sig = signature_of_moduli([scalar(1), SQRT5])
    assert sig.m == 2 and sig.s_prime is None
    assert sorted(len(g) for g in sig.classes) == [1, 1]
    sig2 = signature_of_moduli([scalar(Fraction(2, 3)), scalar(Fraction(1, 2))])
    assert sig2.m == 1 and sig2.s_prime == scalar(2)
    assert sig2.class_of_cylinder(0) == sig2.class_of_cylinder(1)


def test_classify_parabolic():
    cls = classify_direction(Surface.cross(1, 1), Vec2(1, 0))
    assert cls.kind == "Parabolic"
    assert cls.s_prime == scalar(3)
    assert cls.certificate is None


def test_classify_fat():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    cls = classify_direction(c, Vec2(0, 1))
    assert cls.kind == "Fat"
    mark_idx, cyl_idx, ratio = cls.certificate
    assert mark_idx == 0
    assert ratio == GOLDEN
    assert not ratio.is_rational


def test_classify_rational_mark_stays_parabolic():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    cls = classify_direction(c, Vec2(1, 0))
    assert cls.kind == "Parabolic"  # ratio 1/2 is rational


def test_classify_undetermined():
    cls = classify_direction(Surface.cross(1, 1), Vec2(scalar(1), GOLDEN), cap=8)
    assert cls.kind == "Undetermined"
    assert cls.s_prime is None


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def test_twist_displacement_wraps():
    deco = decompose(Surface.square_torus(), Vec2(1, 0))
    cyl = deco.cylinders[0]
    assert twist_displacement(cyl, GOLDEN, 1) == GOLDEN
    assert twist_displacement(cyl, GOLDEN, 2) == FieldScalar(-2, 1, 5)
    assert twist_displacement(cyl, scalar(Fraction(1, 2)), 2) == scalar(0)


def test_dehn_twist_point_torus():
    deco = decompose(Surface.square_torus(), Vec2(1, 0))
    start = Vec2(Fraction(1, 4), Fraction(1, 3))
    assert dehn_twist_point(deco, 0, start, 0) == (0, start)
    assert dehn_twist_point(deco, 0, start, 2) == (
        0, Vec2(Fraction(7, 12), Fraction(1, 3)))
    with pytest.raises(OnBoundaryPoint):
        dehn_twist_point(deco, 0, Vec2(Fraction(1, 4), 0), 1)


def test_dehn_twist_point_refuses_a_missing_chart():
    deco = decompose(Surface.square_torus(), Vec2(1, 0))
    start = Vec2(Fraction(1, 4), Fraction(1, 3))
    for polygon in (5, -1):
        with pytest.raises(InvalidParams, match="no polygon"):
            dehn_twist_point(deco, polygon, start, 1)


def test_twist_periodicity_matches_transverse_ratio():
    # a point at rational transverse ratio p/q returns home after q twists;
    # an irrational ratio never does
    c = Surface.cross(1, 1)
    deco = decompose(c, Vec2(1, 0))
    for pt in (Vec2(Fraction(3, 2), Fraction(3, 2)),
               Vec2(Fraction(5, 4), Fraction(1, 2))):
        pos = deco.locate(0, pt)
        q = (pos.westd / deco.cylinders[pos.cylinder].width
             ).as_fraction().denominator
        assert dehn_twist_point(deco, 0, pt, q) == (0, pt)
        assert dehn_twist_point(deco, 0, pt, 1) != (0, pt)
    wild = Vec2(Fraction(3, 2), scalar(1) + GOLDEN)
    images = {dehn_twist_point(deco, 0, wild, n) for n in range(7)}
    assert len(images) == 7  # irrational ratio: orbit never repeats


def test_mark_ratio_invariant_under_shear():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    a = twist_matrix(Vec2(1, 0), 3)
    image = c.transform(a)
    for d in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)):
        assert mark_ratios(c, d) == mark_ratios(image, a * d)


def test_twist_orbit_torus():
    t = Surface.square_torus(marked=[(0, (GOLDEN, 0), "p")])
    report, samples = twist_orbit(t, "p", Vec2(0, 1), Vec2(1, 0), 6)
    assert report["theta"] == GOLDEN
    assert report["y0"] == scalar(0)
    assert report["start"].state == "boundary"
    assert [s["state"] for s in samples] == ["ratio"] * 6
    ratios = [s["ratio"] for s in samples]
    assert ratios[0] == scalar(1) - GOLDEN
    assert all(not r.is_rational for r in ratios)
    assert len(set(ratios)) == 6
    # position of sample n is the fractional part of n*theta
    for s in samples:
        _, frac = (scalar(s["n"]) * GOLDEN).floor_frac()
        assert s["position"] == frac


def test_twist_orbit_cross():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    report, samples = twist_orbit(c, "q", Vec2(0, 1), Vec2(1, 0), 6)
    assert report["theta"] == GOLDEN
    assert report["start"].state == "in"
    assert report["target_cylinder"].height == scalar(3)
    assert report["twist_cylinder"].height == scalar(1)
    assert [s["state"] for s in samples] == ["ratio"] * 6
    ratios = [s["ratio"] for s in samples]
    assert ratios[0] == FieldScalar(2, Fraction(-1, 2), 5)
    assert all(not r.is_rational for r in ratios)
    assert len(set(ratios)) == 6


def test_twist_orbit_refuses_indices_out_of_range():
    c = Surface.cross(1, 1, marked=[(0, (GOLDEN, Fraction(3, 2)), "q")])
    args = (Vec2(0, 1), Vec2(1, 0), 2)
    # -1 would pick the last mark or cylinder
    for mark in (3, -1):
        with pytest.raises(InvalidParams, match="no marked point"):
            twist_orbit(c, mark, *args)
    for target in (9, -1):
        with pytest.raises(InvalidParams, match="no target cylinder"):
            twist_orbit(c, 0, *args, target_cylinder=target)
    report, _ = twist_orbit(c, 0, *args, target_cylinder=2)
    assert report["target_cylinder"].index == 2


def test_twist_orbit_rejects_boundary_start():
    c = Surface.cross(1, 1, marked=[(0, (1, Fraction(3, 2)), "edge")])
    with pytest.raises(OnBoundaryPoint):
        twist_orbit(c, "edge", Vec2(0, 1), Vec2(1, 0), 3)


@pytest.mark.xfail(strict=True, reason="decompose reports each band between "
                   "closed leaves through regular vertices as a cylinder")
@pytest.mark.parametrize("direction", [(0, 1), (1, 1)])
def test_a_regular_vertex_leaf_does_not_split_a_cylinder(direction):
    # the unit torus glued from [0, s] x [0, 1] and [s, 1] x [0, 1], with
    # s = sqrt2 - 1: both vertex classes are regular, and in either
    # direction the torus is one 1 x 1 cylinder, as the square torus is.
    # decompose cuts it along the closed leaves through the two vertex
    # classes into bands of widths sqrt2 - 1 and 2 - sqrt2, whose moduli
    # are incommensurable, and so reports PeriodicMixed
    s = FieldScalar(-1, 1, 2)
    torus = Surface([[(0, 0), (s, 0), (s, 1), (0, 1)],
                     [(s, 0), (1, 0), (1, 1), (s, 1)]],
                    [((0, 0), (0, 2)), ((1, 0), (1, 2)), ((0, 1), (1, 3)),
                     ((1, 1), (0, 3))])
    assert torus.cone_windings == [1, 1]
    got = classify_direction(torus, direction)
    assert got.kind == "Parabolic" and got.s_prime == 1
    assert len(got.decomposition.cylinders) == 1
