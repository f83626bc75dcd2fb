"""Slit coverings: genus and cone bookkeeping, balancedness, genus formula.

Expected genera and cone angles below were worked out by hand, cutting and
regluing the sheet copies, then cross-checked against the Euler-count route
inside Surface.genus (which independently compares angle excess).
"""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veechkit.cylinders import decompose
from veechkit.errors import (InconsistentProfile, InvalidParams, NonTransitive,
                             OverlappingSlits, SlitThroughSingularity)
from veechkit.geometry import Vec2
from veechkit.surface import Surface
from veechkit import covers
from veechkit.covers import (CoverSpec, Slit, _Complex, _cut_complex,
                             _ramification, build_cover, cyclic_slit_cover,
                             double_cover, is_balanced, riemann_hurwitz)

F = Fraction


def cone_multiples(surface):
    """Angle/pi for each singular class, sorted."""
    return sorted(2 * w for w in surface.cone_windings if w > 1)


def component_count(surface):
    """The number of connected components of a surface's gluing graph."""
    seen, count = set(), 0
    for p0 in range(len(surface.polygons)):
        if p0 in seen:
            continue
        count += 1
        stack = [p0]
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(surface.partner[(p, e)][0]
                             for e in range(surface.polygons[p].n))
    return count


def diag_slit():
    return Slit(corner=(0, 11), direction=(1, 1), end=(F(3, 2), F(3, 2)))


def shift(d):
    return tuple(range(1, d)) + (0,)


# ---------------------------------------------------------------------------
# cyclic covers of the cross
# ---------------------------------------------------------------------------

def test_cyclic_tower():
    base = Surface.cross(1, 1)
    for d in range(2, 6):
        spec = CoverSpec(base, d, [diag_slit()], [shift(d)])
        cov = cyclic_slit_cover(spec)
        assert cov.genus() == 2 * d
        assert cone_multiples(cov) == [2 * d, 6 * d]
        assert cov.area == base.area * d
        assert component_count(cov) == 1
        assert is_balanced(cov, spec)
        # genus agrees with the formula: both endpoints totally ramified
        profile = [("u", (d,)), ("v", (d,))]
        assert cov.genus() == riemann_hurwitz(2, d, profile)


def test_cyclic_rejects_nontransitive_perm():
    base = Surface.cross(1, 1)
    with pytest.raises(NonTransitive):
        cyclic_slit_cover(CoverSpec(base, 3, [diag_slit()], [(0, 1, 2)]))


# ---------------------------------------------------------------------------
# double covers
# ---------------------------------------------------------------------------

def hslit(x0, y, x1):
    return Slit(polygon=0, start=(F(x0), F(y)), direction=(1, 0),
                end=(F(x1), F(y)))


def test_double_cover_one_pair():
    base = Surface.cross(1, 1)
    cov = double_cover(base, [hslit("5/4", "1/2", "7/4"),
                              hslit("5/4", "5/2", "7/4")])
    assert cov.genus() == 5
    assert cone_multiples(cov) == [4, 4, 4, 4, 6, 6]
    assert cov.area == base.area * 2
    # four simple branch points over genus two
    assert riemann_hurwitz(2, 2, [(i, (2,)) for i in range(4)]) == 5


def test_double_cover_two_pairs():
    base = Surface.cross(1, 1)
    cov = double_cover(base, [hslit("5/4", "1/2", "7/4"),
                              hslit("5/4", "5/2", "7/4"),
                              hslit("1/4", "3/2", "3/4"),
                              hslit("9/4", "3/2", "11/4")])
    assert cov.genus() == 7
    assert cone_multiples(cov) == [4] * 8 + [6, 6]
    assert riemann_hurwitz(2, 2, [(i, (2,)) for i in range(8)]) == 7


def test_double_cover_vertical_slits():
    base = Surface.cross(1, 1)
    va = Slit(polygon=0, start=(F(3, 2), F(1, 2)), direction=(0, 1),
              end=(F(3, 2), F(3, 2)))
    vb = Slit(polygon=0, start=(F(7, 4), F(1, 2)), direction=(0, 1),
              end=(F(7, 4), F(3, 2)))
    cov = double_cover(base, [va, vb])
    assert cov.genus() == 5
    assert cone_multiples(cov) == [4, 4, 4, 4, 6, 6]


def test_double_cover_of_torus():
    t = Surface.square_torus()
    ta = Slit(polygon=0, start=(F(1, 4), F(1, 4)), direction=(0, 1),
              end=(F(1, 4), F(3, 4)))
    tb = Slit(polygon=0, start=(F(3, 4), F(1, 4)), direction=(0, 1),
              end=(F(3, 4), F(3, 4)))
    cov = double_cover(t, [ta, tb])
    assert cov.genus() == 3
    assert cone_multiples(cov) == [4, 4, 4, 4]
    assert cov.area == t.area * 2
    assert riemann_hurwitz(1, 2, [(i, (2,)) for i in range(4)]) == 3


def test_double_cover_wants_even_slits():
    with pytest.raises(InvalidParams):
        double_cover(Surface.cross(1, 1), [hslit("5/4", "1/2", "7/4")])


# ---------------------------------------------------------------------------
# balancedness
# ---------------------------------------------------------------------------

def test_unbalanced_cover_with_fixed_sheet():
    base = Surface.cross(1, 1)
    spec = CoverSpec(base, 3, [diag_slit()], [(1, 0, 2)])
    cov = build_cover(spec)
    assert not is_balanced(cov, spec)
    assert component_count(cov) == 2  # sheet 3 never talks to the others


def test_balanced_double():
    base = Surface.cross(1, 1)
    slits = [hslit("5/4", "1/2", "7/4"), hslit("5/4", "5/2", "7/4")]
    spec = CoverSpec(base, 2, slits, [(1, 0), (1, 0)])
    assert is_balanced(build_cover(spec), spec)


def test_balancedness_reads_the_cover_where_slits_meet():
    # slit a ends where slit b starts, across the glued bottom/top edge; each
    # permutation alone fixes no sheet, but the monodromy around the shared
    # point is their product, which fixes two
    base = Surface.cross(1, 1)
    a = Slit(polygon=0, direction=(0, -1), start=(F(3, 2), F(1, 2)),
             end=(F(3, 2), 0))
    b = Slit(polygon=0, direction=(0, -1), start=(F(3, 2), 3),
             end=(F(3, 2), F(5, 2)))
    spec = CoverSpec(base, 4, [a, b], [(1, 2, 3, 0), (1, 0, 3, 2)])
    cov = build_cover(spec)
    assert cov.genus() == 8
    profile = _ramification(cov, spec)
    assert sorted(tuple(part) for _, part in profile) == [
        (2, 1, 1), (2, 2), (4,)]
    assert riemann_hurwitz(base.genus(), 4, profile) == cov.genus()
    assert not is_balanced(cov, spec)


def test_ramification_counted_on_the_cover_gives_its_genus():
    base = Surface.cross(1, 1)
    low, high = hslit("5/4", "1/2", "7/4"), hslit("5/4", "5/2", "7/4")
    cases = [(CoverSpec(base, 2, [low, high], [(1, 0), (1, 0)]), True),
             (CoverSpec(base, 3, [low], [(1, 2, 0)]), True),
             (CoverSpec(base, 3, [low, high], [(1, 0, 2), (0, 2, 1)]), False)]
    for spec, balanced in cases:
        cov = build_cover(spec)
        profile = _ramification(cov, spec)
        assert len(profile) == 2 * len(spec.slits)
        assert riemann_hurwitz(base.genus(), spec.degree, profile) \
            == cov.genus()
        assert is_balanced(cov, spec) == balanced
    with pytest.raises(InvalidParams):
        _ramification(build_cover(cases[1][0]), cases[0][0])


# ---------------------------------------------------------------------------
# bad slit systems
# ---------------------------------------------------------------------------

def test_overlapping_slits_rejected():
    base = Surface.cross(1, 1)
    s1 = hslit("5/4", "3/2", "7/4")
    s2 = hslit("3/2", "3/2", "2")
    with pytest.raises(OverlappingSlits):
        build_cover(CoverSpec(base, 2, [s1, s2], [(1, 0), (1, 0)]))


def test_slit_through_cone_point_rejected():
    base = Surface.cross(1, 1)
    s = Slit(polygon=0, start=(F(3, 2), F(1, 2)), direction=(1, 1),
             end=(F(5, 2), F(3, 2)))  # passes through the cone at (2, 1)
    with pytest.raises(SlitThroughSingularity):
        build_cover(CoverSpec(base, 2, [s], [(1, 0)]))


def test_slit_corner_naming_no_vertex_rejected():
    # a corner past the charts, past the chart's vertices, or negative
    base = Surface.cross(1, 1)
    for corner in ((1, 0), (0, 12), (-1, 0)):
        s = Slit(corner=corner, direction=(1, 1), end=(F(3, 2), F(3, 2)))
        with pytest.raises(InvalidParams, match="names no vertex"):
            cyclic_slit_cover(CoverSpec(base, 2, [s], [(1, 0)]))


def test_slit_corner_that_is_not_a_pair_of_ints_rejected():
    # a scalar, an empty or short list, a non-integer entry: each is refused
    # by the slit itself, from the constructor and from JSON alike
    for corner in (5, [], (1,), ("a", 0)):
        with pytest.raises(InvalidParams, match="pair of integers"):
            Slit(corner=corner, direction=(1, 1), end=(F(3, 2), F(3, 2)))
        with pytest.raises(InvalidParams, match="pair of integers"):
            Slit.from_json({"corner": corner, "dir": ["1", "1"],
                            "to": ["3/2", "3/2"]})
    assert Slit(corner=[0, 11], direction=(1, 1), end=(1, 1)).corner == (0, 11)


def test_crossing_slits_rejected():
    base = Surface.cross(1, 1)
    hb = hslit("5/4", "1/2", "7/4")
    av = Slit(polygon=0, start=(F(3, 2), F(9, 8)), direction=(0, 1),
              end=(F(3, 2), F(11, 8)))
    with pytest.raises(InvalidParams):
        build_cover(CoverSpec(base, 2, [hb, av], [(1, 0), (1, 0)]))


# ---------------------------------------------------------------------------
# genus formula on its own
# ---------------------------------------------------------------------------

def test_riemann_hurwitz_values():
    assert riemann_hurwitz(7, 1, []) == 7
    assert riemann_hurwitz(2, 3, [("u", (3,)), ("v", (3,))]) == 6
    assert riemann_hurwitz(1, 2, []) == 1


def test_riemann_hurwitz_rejects_bad_profiles():
    with pytest.raises(InconsistentProfile):
        riemann_hurwitz(2, 2, [("u", (2, 1))])  # not a partition of 2
    with pytest.raises(InconsistentProfile):
        riemann_hurwitz(2, 2, [("u", (2,)), ("u", (2,))])  # repeated point
    with pytest.raises(InconsistentProfile):
        riemann_hurwitz(2, 2, [("u", (2,)), ("v", (2,)), ("w", (2,))])


# ---------------------------------------------------------------------------
# label transport and serialization
# ---------------------------------------------------------------------------

def test_labels_follow_the_cover():
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(3, 2)), "ctr"),
                                       (0, (F(5, 4), F(1, 2)), "p")])
    cov = cyclic_slit_cover(CoverSpec(base, 2, [diag_slit()], [(1, 0)]))
    # the marked slit endpoint became a cone point and keeps its label there
    assert list(cov.point_labels.values()) == ["ctr"]
    (cls,) = cov.point_labels
    assert cov.cone_windings[cls] == 2
    # an untouched mark reappears once per sheet
    assert sorted(m.label for m in cov.marked) == ["p#1", "p#2"]



def vslit(x, y0, y1):
    return Slit(polygon=0, start=(F(x), F(y0)),
                direction=(0, 1 if F(y1) > F(y0) else -1), end=(F(x), F(y1)))


def test_branch_point_named_from_its_glued_side_keeps_its_label():
    # (3/2, 0) and (3/2, 3) name one edge point of the cross; a slit ending
    # there is matched to the mark whichever chart names it
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), 0), "m")])
    below = double_cover(base, [vslit("3/2", "1/2", "0"),
                                vslit("1/2", "3/2", "1")])
    above = double_cover(base, [vslit("3/2", "5/2", "3"),
                                vslit("1/2", "3/2", "1")])
    for cov in (below, above):
        assert cov.genus() == 5
        assert list(cov.point_labels.values()) == ["m"]
        assert cov.marked == []

def cover_digest(cover):
    """sha256 of the cover's JSON as `veechkit cover` writes it."""
    text = json.dumps(cover.to_json(), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_cover_json_stays_byte_identical():
    # canonical outputs are pinned: a change that alters them must say so
    # and update the digests.  A marked slit end that one sheet leaves
    # regular takes both label routes (a cone label and an extra mark)
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(3, 2)), "ctr"),
                                       (0, (F(5, 4), F(1, 2)), "p")])
    labelled = build_cover(CoverSpec(base, 3, [diag_slit()], [(1, 0, 2)]))
    assert labelled.point_labels == {3: "ctr"}
    assert [m.label for m in labelled.marked] == ["p#1", "p#2", "p#3",
                                                  "ctr#2"]
    assert cover_digest(labelled) == (
        "a4c995b1108fb67b52ca8772e20e6dbf5460e69813d59c1019f5b9c5f4fc314a")
    # a slit sliding along the cross's edge 10, which is glued to edge 8
    slide = Slit(polygon=0, start=(F(1, 4), 1), direction=(1, 0),
                 end=(F(3, 4), 1))
    spec = CoverSpec(Surface.cross(1, 1), 2,
                     [slide, hslit("9/4", "3/2", "11/4")], [(1, 0), (1, 0)])
    assert [seg.slide for seg in _cut_complex(spec)[0][0].runs] == [True]
    assert cover_digest(build_cover(spec)) == (
        "f1bb2d98b288cf6607e4b1d596d223b8e4c04cc843343888a118ba27a1f1efea")


def test_a_labelled_cover_is_constructed_once(monkeypatch):
    # the labelled ends go on the surface built with the base's marks: one
    # constructor call, and the marks it ends with are the ones the
    # constructor makes when it is given them all
    base = Surface.cross(1, 1, marked=[(0, (F(3, 2), F(3, 2)), "ctr"),
                                       (0, (F(5, 4), F(1, 2)), "p")])
    spec = CoverSpec(base, 3, [diag_slit()], [(1, 0, 2)])
    calls = []
    init = Surface.__init__

    def counting_init(surface, *args, **kwargs):
        calls.append(None)
        init(surface, *args, **kwargs)

    monkeypatch.setattr(Surface, "__init__", counting_init)
    labelled = build_cover(spec)
    assert len(calls) == 1
    monkeypatch.undo()
    gluings = [(a, b) for a, b in labelled.partner.items() if a <= b]
    fresh = Surface(labelled.polygons, gluings,
                    marked=[(m.polygon, m.at, m.label)
                            for m in labelled.marked],
                    point_labels=labelled.point_labels)
    assert labelled == fresh
    assert [(m.where, m.aliases) for m in labelled.marked] == \
        [(m.where, m.aliases) for m in fresh.marked]


PINCHED = ([[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1)]],
           [((0, 0), (0, 6)), ((0, 1), (0, 7)), ((0, 2), (0, 4)),
            ((0, 3), (0, 5))])


def test_a_chart_that_repeats_a_vertex_is_not_cut():
    # two unit squares meeting at (1, 1), given as one chart that passes
    # through (1, 1) twice: the surface checker refuses it, so no cover of
    # it can be built
    with pytest.raises(InvalidParams, match="polygon 0 passes through a "
                                            "vertex twice"):
        Surface(*PINCHED)


def four_arm_slits():
    """The four horizontal slits across the arms of cross(1, 1)."""
    return [hslit("5/4", "1/2", "7/4"), hslit("5/4", "5/2", "7/4"),
            hslit("1/4", "3/2", "3/4"), hslit("9/4", "3/2", "11/4")]


def square_slits():
    """Two vertical slits inside square 0 of the unit L-shape."""
    return [Slit(polygon=0, start=(F(x, 4), F(1, 4)), direction=(0, 1),
                 end=(F(x, 4), F(3, 4))) for x in (1, 3)]


def test_the_sheets_share_their_piece_polygons():
    base = Surface.cross(1, 1)
    cases = [(d, cyclic_slit_cover(CoverSpec(base, d, [diag_slit()],
                                             [shift(d)])))
             for d in range(2, 9)]
    cases.append((2, double_cover(base, four_arm_slits())))
    for d, cover in cases:
        P, rest = divmod(len(cover.polygons), d)
        assert rest == 0
        assert all(cover.polygons[q] is cover.polygons[q + k * P]
                   for q in range(P) for k in range(d))
        assert len(set(map(id, cover.polygons))) == P
    # vertical slits in the L's square 0 split edges of charts 0 and 2
    # only: chart 1, never cut, keeps the base's own Polygon on each sheet
    ell = Surface.l_shape(1, 1, 1, 1)
    cover = double_cover(ell, square_slits())
    P = len(cover.polygons) // 2
    assert cover.polygons[1] is cover.polygons[1 + P] is ell.polygons[1]
    assert cover.polygons[0] is not ell.polygons[0]


def test_spec_json_round_trip():
    base = Surface.cross(1, 1)
    spec = CoverSpec(base, 3, [diag_slit(),
                               hslit("5/4", "1/2", "7/4")],
                     [shift(3), (0, 2, 1)])
    obj = spec.to_json()
    assert obj["perms"][0] == [2, 3, 1]  # 1-based on the wire
    back = CoverSpec.from_json(obj, base)
    assert back.degree == 3 and back.perms == spec.perms
    assert [s.to_json() for s in back.slits] == [s.to_json() for s in spec.slits]
    assert back.slits[0].corner == (0, 11)
    assert back.slits[1].start == Vec2(F(5, 4), F(1, 2))


def test_malformed_slit_vectors_raise_invalid_params():
    good = {"corner": [0, 11], "dir": ["1", "1"], "to": ["3/2", "3/2"]}
    for bad in (["1"], ["1", "1", "1"], "1", None, {"a": "1"}):
        with pytest.raises(InvalidParams, match="two-element list"):
            Vec2.from_json(bad)
        for key in ("dir", "to"):
            with pytest.raises(InvalidParams, match="two-element list"):
                Slit.from_json(dict(good, **{key: bad}))
    assert Slit.from_json(good).direction == Vec2(1, 1)


def test_slit_json_without_a_key_names_the_slit():
    good = {"corner": [0, 11], "dir": ["1", "1"], "to": ["3/2", "3/2"]}
    for key in ("dir", "to"):
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(InvalidParams,
                           match=r"malformed slit 2 JSON \(KeyError: '%s'\)"
                           % key):
            Slit.from_json(bad, 2)
    with pytest.raises(InvalidParams, match="malformed slit 0 JSON"):
        Slit.from_json(["1", "1"])
    no_dir = {"corner": [0, 11], "to": ["1", "1"]}
    spec = {"degree": 2, "slits": [good, no_dir], "perms": [[2, 1], [2, 1]]}
    with pytest.raises(InvalidParams,
                       match=r"malformed slit 1 JSON \(KeyError: 'dir'\)"):
        CoverSpec.from_json(spec, Surface.cross(1, 1))


def test_cover_spec_json_without_a_key_raises_invalid_params():
    base = Surface.cross(1, 1)
    spec = CoverSpec(base, 2, [diag_slit()], [shift(2)]).to_json()
    for key in ("perms", "degree", "slits"):
        bad = {k: v for k, v in spec.items() if k != key}
        with pytest.raises(InvalidParams, match=r"malformed cover spec "
                           r"JSON \(KeyError: '%s'\)" % key):
            CoverSpec.from_json(bad, base)
    assert CoverSpec.from_json(spec, base).perms == [(1, 0)]


def test_cover_spec_json_with_malformed_sheets_names_the_key():
    base = Surface.cross(1, 1)
    spec = CoverSpec(base, 2, [diag_slit()], [shift(2)]).to_json()
    for key, bad in (("perms", [2, 1]), ("perms", [[2, "x"]]),
                     ("degree", "x"), ("degree", 2.0)):
        with pytest.raises(InvalidParams, match="cover spec '%s'" % key):
            CoverSpec.from_json(dict(spec, **{key: bad}), base)


def test_cover_spec_refuses_a_degree_that_is_not_an_integer():
    base = Surface.cross(1, 1)
    for bad in ("x", None, 2.0, "3", True):
        with pytest.raises(InvalidParams,
                           match="covering degree must be an integer, not %s"
                           % re.escape(repr(bad))):
            CoverSpec(base, bad, [], [])
    assert CoverSpec(base, 2, [diag_slit()], [shift(2)]).degree == 2


# ---------------------------------------------------------------------------
# random cyclic covers
# ---------------------------------------------------------------------------

@st.composite
def cyclic_covers(draw):
    """(spec, cover): a cyclic slit cover of cross(1, 1) of degree 2-6 whose
    sheets a random d-cycle permutes, cut along the diagonal from the cone
    at (1, 1) to a random point inside the central square."""
    degree = draw(st.integers(2, 6))
    cycle = draw(st.permutations(range(degree)))
    perm = [0] * degree
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        perm[a] = b
    end = 1 + F(draw(st.integers(1, 7)), 8)
    spec = CoverSpec(Surface.cross(1, 1), degree,
                     [Slit(corner=(0, 11), direction=(1, 1), end=(end, end))],
                     [tuple(perm)])
    return spec, cyclic_slit_cover(spec)


def decomposition_outputs(deco):
    """What a complete decomposition reports, as comparable values."""
    return (deco.status,
            [(c.index, c.width, c.height, c.sample, c.marks)
             for c in deco.cylinders],
            [(corner, ev.kind, ev.param, ev.path)
             for corner, ev in deco.connections],
            [(k, ev.kind, ev.param, ev.path) for k, ev in deco.vertex_leaves],
            deco.banks)


@settings(max_examples=25, deadline=None)
@given(cyclic_covers(), st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1),
                                         (1, 2), (-2, 1))))
def test_random_cyclic_covers_keep_genus_area_and_json(case, direction):
    spec, cover = case
    d, base = spec.degree, spec.base
    # both slit ends are totally ramified
    assert cover.genus() == riemann_hurwitz(
        base.genus(), d, [("cone", (d,)), ("end", (d,))])
    assert [partition for _, partition in _ramification(cover, spec)] \
        == [[d]]
    assert cover.area == d * base.area
    # the d sheets share one Polygon per chart of the cut base, and a
    # cover loaded from JSON shares them as well
    again = Surface.from_json(json.loads(json.dumps(cover.to_json())))
    for surf in (cover, again):
        assert len(set(map(id, surf.polygons))) * d == len(surf.polygons)
    deco = decompose(cover, direction)
    assert deco.complete
    assert decomposition_outputs(deco) == decomposition_outputs(
        decompose(again, direction))


ARM_SETS = [arms for k in (2, 4)
            for arms in itertools.combinations(range(4), k)]


@settings(max_examples=20, deadline=None)
@given(cyclic_covers(), st.sampled_from(ARM_SETS))
def test_piece_polygons_follow_every_change_of_the_pieces(case, arms):
    # after every ensure_vertex and cut, each piece's Polygon has exactly
    # the vertices of its piece; every Polygon is read before each change,
    # so a change that leaves one stale fails here.  The cover's charts are
    # the pieces' own Polygons, sheet after sheet.  The corner slit of a
    # cyclic cover ends its chord at vertices; the arm slits of a double
    # cover split edges, and those of the L-shape split a chart glued to
    # another
    spec, cover = case
    slits = [four_arm_slits()[k] for k in arms]
    ell = Surface.l_shape(1, 1, 1, 1)
    specs = [spec, CoverSpec(spec.base, 2, slits, [(1, 0)] * len(slits)),
             CoverSpec(ell, 2, square_slits(), [(1, 0)] * 2)]
    calls, complexes = [], []

    def checked(method):
        def run(cx, *args):
            out = method(cx, *args)
            calls.append(method.__name__)
            assert [cx.shape(p).vertices
                    for p in range(len(cx.polys))] == cx.polys
            return out
        return run

    def kept(spec):
        got = cut(spec)
        complexes.append(got[1])
        return got

    cut = covers._cut_complex
    with pytest.MonkeyPatch.context() as mp:
        for name in ("ensure_vertex", "cut"):
            mp.setattr(_Complex, name, checked(getattr(_Complex, name)))
        mp.setattr(covers, "_cut_complex", kept)
        rebuilt = [build_cover(s) for s in specs]
    assert set(calls) == {"ensure_vertex", "cut"}
    assert rebuilt[0] == cover
    assert rebuilt[1] == double_cover(spec.base, slits)
    assert rebuilt[2] == double_cover(ell, square_slits())
    for built, cx in zip(rebuilt, complexes):
        P = len(cx.polys)
        assert all(poly is cx.shape(q % P)
                   for q, poly in enumerate(built.polygons))
