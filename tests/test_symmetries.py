"""Chart symmetries: the table a surface finds once, and the decompositions
that trace one leaf per orbit of it.

A chart symmetry permutes the chart indices, keeping each chart's Polygon
and the gluing.  On a slit cover the deck group acts so, and a
decomposition maps the traces of one sheet onto the others instead of
tracing them again; every output must be what tracing them all gives.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veechkit.cylinders
import veechkit.surface
from test_covers import (ARM_SETS, cyclic_covers, decomposition_outputs,
                         diag_slit, four_arm_slits, shift)
from veechkit.covers import (CoverSpec, build_cover, cyclic_slit_cover,
                             double_cover)
from veechkit.cylinders import decompose
from veechkit.field import FieldScalar
from veechkit.geometry import Mat2, Vec2
from veechkit.surface import Surface
from veechkit.trace import departing_corners, trace

F = Fraction
PHI = FieldScalar(F(1, 2), F(1, 2), 5)
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (-2, 1))


def identity(surface):
    return [tuple(range(len(surface.polygons)))]


def is_chart_symmetry(surface, g):
    """The definition, read off the tables: g keeps each chart's Polygon
    and carries every gluing to a gluing."""
    return (sorted(g) == list(range(len(surface.polygons)))
            and all(surface.polygons[g[p]] is surface.polygons[p]
                    for p in range(len(g)))
            and all(surface.partner[(g[p], e)] == (g[q], f)
                    for (p, e), (q, f) in surface.partner.items()))


def cyclic(d, base=None):
    base = base if base is not None else Surface.cross(1, 1)
    return cyclic_slit_cover(CoverSpec(base, d, [diag_slit()], [shift(d)]))


def marked_base():
    """cross(1, 1) with one mark in its lower arm and one in its centre,
    off the corner slit."""
    return Surface.cross(1, 1, marked=[(0, (F(5, 4), F(1, 3)), "a"),
                                       (0, (F(7, 4), F(6, 5)), "b")])


def everything(deco):
    """The outputs, the mark positions and the barrier rows of `deco`."""
    marks = [(m.state, m.cylinder, m.westd, m.eastd, m.ratio)
             for m in deco.marks or ()]
    return decomposition_outputs(deco), marks, deco.barriers


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@st.composite
def symmetric_covers(draw):
    """A cover whose deck group acts on its charts: a random cyclic cover
    of cross(1, 1), a double cover on two or four of its arm slits, or a
    cyclic cover of a marked cross."""
    kind = draw(st.sampled_from(("cyclic", "double", "marked")))
    if kind == "cyclic":
        return draw(cyclic_covers())[1]
    if kind == "double":
        arms = draw(st.sampled_from(ARM_SETS))
        return double_cover(Surface.cross(1, 1),
                            [four_arm_slits()[k] for k in arms])
    return cyclic(draw(st.integers(2, 4)), marked_base())


@settings(max_examples=40, deadline=None)
@given(symmetric_covers(), st.sampled_from(DIRECTIONS))
def test_shared_traces_decompose_as_tracing_every_leaf(cover, direction):
    assert len(cover._chart_symmetries()) > 1
    shared = decompose(cover, direction)
    assert shared.complete
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Surface, "_chart_symmetries", identity)
        traced = decompose(cover, direction)
    assert everything(shared) == everything(traced)


def test_an_undetermined_cover_stops_where_tracing_every_leaf_stops(
        monkeypatch):
    cover = cyclic(4)
    shared = decompose(cover, (1, 2), cap=4)
    monkeypatch.setattr(Surface, "_chart_symmetries", identity)
    traced = decompose(cover, (1, 2), cap=4)
    assert not shared.complete
    assert ([(c, ev.kind, ev.param, ev.path) for c, ev in shared.connections]
            == [(c, ev.kind, ev.param, ev.path)
                for c, ev in traced.connections])


def up_traces(monkeypatch):
    """The corners the up traces of decompose start from, as they run."""
    corners = []

    def recording(surface, *args, corner=None, direction=None, **kwargs):
        if corner is not None and direction.v == Vec2(0, 1):
            corners.append(corner)
        return trace(surface, *args, corner=corner, direction=direction,
                     **kwargs)

    monkeypatch.setattr(veechkit.cylinders, "trace", recording)
    return corners


@pytest.mark.parametrize("d", [2, 5, 8])
def test_a_cyclic_cover_traces_one_separatrix_per_orbit(monkeypatch, d):
    cover = cyclic(d)
    traced = up_traces(monkeypatch)
    deco = decompose(cover, (0, 1))
    assert deco.complete
    corners = departing_corners(cover, (0, 1))
    separatrices = [c for c in traced if cover.is_singular_corner(c)]
    assert len(corners) == d * len(separatrices)
    # the traced corners are the first of their orbits
    assert separatrices == [c for c in corners if not any(
        (g[c[0]], c[1]) in corners[:corners.index(c)]
        for g in cover._chart_symmetries())]


# the degree-3 cover on the slits across the lower and upper arms, which
# swap sheets 0, 1 and sheets 1, 2: its monodromy is S3, whose centralizer
# is trivial
S3_SLITS = [four_arm_slits()[0], four_arm_slits()[1]]
S3_PERMS = [(1, 0, 2), (0, 2, 1)]


def test_a_cover_with_monodromy_s3_has_only_the_identity(monkeypatch):
    base = Surface.cross(1, 1)
    cover = build_cover(CoverSpec(base, 3, S3_SLITS, S3_PERMS))
    # chart 0's copies on the other sheets are searched, and refused
    P = len(cover.polygons) // 3
    assert cover.polygons[P] is cover.polygons[2 * P] is cover.polygons[0]
    assert cover._chart_symmetries() == identity(cover)
    traced = up_traces(monkeypatch)
    deco = decompose(cover, (0, 1))
    assert deco.complete
    assert ([c for c in traced if cover.is_singular_corner(c)]
            == departing_corners(cover, (0, 1)))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

def test_a_cyclic_cover_has_one_symmetry_per_sheet():
    for d in range(2, 9):
        cover = cyclic(d)
        table = cover._chart_symmetries()
        assert len(table) == d
        assert table[0] == identity(cover)[0]
        assert all(is_chart_symmetry(cover, g) for g in table)
        # closed under composition: the deck group
        assert {tuple(g[h[p]] for p in range(len(h)))
                for g, h in itertools.product(table, repeat=2)} == set(table)


def test_double_covers_have_two_symmetries():
    base = Surface.cross(1, 1)
    for arms in ARM_SETS:
        cover = double_cover(base, [four_arm_slits()[k] for k in arms])
        table = cover._chart_symmetries()
        assert len(table) == 2
        assert all(is_chart_symmetry(cover, g) for g in table)
        P = len(cover.polygons) // 2
        assert table[1] == tuple((p + P) % (2 * P) for p in range(2 * P))


def presets():
    return [Surface.square_torus(), Surface.cross(1, 1),
            Surface.cross(PHI, 1, marked=[(0, (F(1, 2), PHI + F(1, 2)), "q")]),
            Surface.l_shape(1, 1, 1, 1),
            Surface.l_shape(1, 2, F(1, 2), PHI)]


def test_presets_and_their_images_have_only_the_identity(monkeypatch):
    grown = []
    monkeypatch.setattr(veechkit.surface, "_grown",
                        lambda *args: grown.append(args))
    for surf in presets():
        assert surf._chart_symmetries() == identity(surf)
        image = Surface.from_json(surf.to_json()).transform(Mat2(2, 1, 1, 1))
        assert image._chart_symmetries() == identity(image)
    assert grown == []


def test_transform_carries_the_table(monkeypatch):
    cover = cyclic(5)
    table = cover._chart_symmetries()
    found = []
    find = veechkit.surface._find_symmetries
    monkeypatch.setattr(veechkit.surface, "_find_symmetries",
                        lambda *args: found.append(args) or find(*args))
    for mat in (Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1), Mat2(PHI, 0, 0, 1)):
        assert cover.transform(mat)._chart_symmetries() is table
    assert found == []
    # a cover read from JSON searches again, and finds the same table
    again = Surface.from_json(json.loads(json.dumps(cover.to_json())))
    assert again._chart_symmetries() == table
    assert len(found) == 1


def test_a_disconnected_complex_keeps_only_the_identity():
    # two unit tori side by side: chart 1 shares chart 0's Polygon, but
    # no gluing reaches it from chart 0
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    surf = Surface([square, square],
                   [((0, 0), (0, 2)), ((0, 1), (0, 3)),
                    ((1, 0), (1, 2)), ((1, 1), (1, 3))])
    assert surf.polygons[0] is surf.polygons[1]
    assert surf._chart_symmetries() == identity(surf)


def test_the_search_costs_little_next_to_a_decomposition():
    # best of five; the table is searched once per surface, decompositions
    # come once per direction
    for d in (2, 5, 8):
        cover = cyclic(d)
        search = min(_timed(veechkit.surface._find_symmetries,
                            cover.polygons, cover.partner) for _ in range(5))
        deco = min(_timed(decompose, cover, (1, 0)) for _ in range(5))
        assert search < deco / 5, (d, search, deco)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
