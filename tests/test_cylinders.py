"""Cylinder decompositions, commensurability signatures, and twists.

Frozen values below (cylinder dimensions, twist images, orbit ratios) were
computed by hand from the flat pictures before being locked in here.
"""

import gc
import random
from fractions import Fraction

import pytest

import veechkit.cylinders
from veechkit.errors import InconsistentTopology, NotComplete, OnBoundaryPoint
from veechkit.field import FieldScalar, scalar
from veechkit.geometry import Mat2, Vec2, segments_intersect
from veechkit.linear import twist_matrix
from veechkit.surface import Surface
from veechkit.trace import (CLOSED, STOPPED, Segment, advance,
                            departing_corners, trace)
from veechkit.cylinders import (_barrier_hook, _leaf_key, classify_direction,
                                decompose, dehn_twist_point, mark_ratios,
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


def _reference_banks(deco):
    """Banks by their definition: from the middle of each barrier leaf's
    first segment, cross the band east (west) to the next barrier, close up
    the leaf through the band's midpoint, and match its key."""
    def hook(seg):
        best = None
        for bs in deco.barriers.get(seg.polygon, []):
            got = segments_intersect(seg.a, seg.b, bs.a, bs.b)
            if got is None or (seg.tau0 + got[0] * (seg.tau1 - seg.tau0)
                               ).sign() <= 0:
                continue
            if best is None or got[0] < best:
                best = got[0]
        return None if best is None else (best, None)

    by_key = {cyl.key: cyl.index for cyl in deco.cylinders}
    west = {cyl.index: [] for cyl in deco.cylinders}
    east = {cyl.index: [] for cyl in deco.cylinders}
    events = ([ev for _, ev in deco.connections]
              + [ev for _, ev in deco.vertex_leaves])
    for bid, ev in enumerate(events):
        seg = ev.segments[0]
        q = seg.point_at((seg.tau0 + seg.tau1) / 2)
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
    # decompose traces the separatrices, the vertex leaves, one width ray per
    # east corner, one midline per cylinder and two rays per mark; the banks'
    # two rays per barrier leaf wait for the first read of deco.banks
    calls = []

    def counting_trace(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(veechkit.cylinders, "trace", counting_trace)
    at = (GOLDEN_BIG + Fraction(1, 3), GOLDEN_BIG + Fraction(1, 7))
    surf = Surface.cross(GOLDEN_BIG, 1, marked=[(0, at, "q")])
    deco = decompose(surf, Vec2(2, 3))
    assert deco.complete and [m.state for m in deco.marks] == ["in"]
    normalized = deco.normalized
    regular = [cls for cls, w in enumerate(normalized.cone_windings) if w == 1]
    width_rays = len(departing_corners(normalized, Vec2(1, 0))) + sum(
        len(departing_corners(normalized, Vec2(1, 0), cls=cls))
        for cls in regular)
    assert len(calls) == (len(deco.connections) + len(regular) + width_rays
                          + len(deco.cylinders) + 2 * len(deco.marks))
    before = len(calls)
    banks = deco.banks
    barrier_leaves = len(deco.connections) + len(deco.vertex_leaves)
    assert len(calls) == before + 2 * barrier_leaves
    assert deco.banks is banks
    assert len(calls) == before + 2 * barrier_leaves


def test_read_banks_leave_no_cyclic_garbage():
    gc.collect()
    deco = decompose(Surface.cross(GOLDEN_BIG, 1), Vec2(1, 2))
    assert deco.banks
    del deco
    assert gc.collect() == 0


def test_each_cylinder_closes_one_leaf(monkeypatch):
    # a band is recognised by its midline, so the only closed leaves traced
    # are one midline per cylinder and the closed vertex leaves
    closed = []

    def counting_trace(*args, **kwargs):
        ev = trace(*args, **kwargs)
        if ev.kind == CLOSED:
            closed.append(ev)
        return ev

    monkeypatch.setattr(veechkit.cylinders, "trace", counting_trace)
    deco = decompose(Surface.cross(GOLDEN_BIG, 1), Vec2(2, 3))
    assert deco.complete
    assert len(closed) == len(deco.cylinders) + len(deco.vertex_leaves)


def test_barrier_hook_refuses_slanted_segments():
    half = Fraction(1, 2)
    upright = {0: [Segment(0, Vec2(half, 0), Vec2(half, 1), False,
                           scalar(0), scalar(1))]}
    across = Segment(0, Vec2(0, half), Vec2(1, half), False,
                     scalar(0), scalar(1))
    assert _barrier_hook(upright)(across) == (scalar(half), None)
    slanted_ray = Segment(0, Vec2(0, 0), Vec2(1, 1), False,
                          scalar(0), scalar(1))
    with pytest.raises(InconsistentTopology):
        _barrier_hook(upright)(slanted_ray)
    slanted = {0: [Segment(0, Vec2(0, 0), Vec2(1, 1), False,
                           scalar(0), scalar(1))]}
    with pytest.raises(InconsistentTopology):
        _barrier_hook(slanted)(across)
    # a transverse ray that is not horizontal in the normalized frame
    deco = decompose(Surface.cross(1, 1), Vec2(1, 0))
    start = deco.frame * Vec2(Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(InconsistentTopology):
        trace(deco.normalized, 0, start, Vec2(1, 1), stop_at_marked=False,
              detect_closure=False, stop_on=_barrier_hook(deco.barriers))


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


def test_incomplete_direction_stays_open():
    deco = decompose(Surface.cross(1, 1), Vec2(scalar(1), GOLDEN), cap=8)
    assert not deco.complete
    assert deco.status == "undetermined"
    with pytest.raises(NotComplete):
        torus_signature(deco)


def test_midline_past_the_cap_is_undetermined_not_inconsistent():
    # every separatrix of (1, -3) on cross(1, 3) is a saddle connection, but
    # a cylinder's midline is longer than 20
    deco = decompose(Surface.cross(1, 3), (1, -3), cap=20)
    assert deco.status == "undetermined"
    assert all(ev.kind == "HitSingularity" for _, ev in deco.connections)
    assert decompose(Surface.cross(1, 3), (1, -3)).complete


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


def test_twist_orbit_rejects_boundary_start():
    c = Surface.cross(1, 1, marked=[(0, (1, Fraction(3, 2)), "edge")])
    with pytest.raises(OnBoundaryPoint):
        twist_orbit(c, "edge", Vec2(0, 1), Vec2(1, 0), 3)
