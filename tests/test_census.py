"""Cusp invariants, fat-direction sequences, and census tables."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cylinders import HEIGHT_3
from test_surface import marked_surfaces
from veechkit.errors import (InconsistentTopology, NoConnections,
                             NotComplete, NotParabolicMatrix, ZeroInput)
from veechkit.field import FieldScalar, scalar
from veechkit.geometry import Mat2, Vec2
from veechkit.linear import twist_matrix
from veechkit.surface import Surface
from veechkit.census import (CuspInvariant, DirectionReport, census,
                             census_to_json, cusp_invariant, fat_sequence,
                             report_to_json)

F = Fraction
SQRT5 = FieldScalar(0, 1, 5)


def marked_cross():
    # irrational height inside the top arm
    return Surface.cross(1, 1, marked=[
        (0, (F(3, 2), scalar(F(3, 2)) + SQRT5 / 2), "w")])


# ---------------------------------------------------------------------------
# cusp invariants
# ---------------------------------------------------------------------------

def test_cusp_invariant_of_cross_axes():
    c = Surface.cross(1, 1)
    ci = cusp_invariant(c, Vec2(1, 0))
    assert ci.lengths == [1, 1, 2]
    assert ci.ratios == [F(1, 2), F(1, 2), 1]
    assert cusp_invariant(c, Vec2(0, 1)) == ci


def test_cusp_invariant_of_steeper_direction():
    ci = cusp_invariant(Surface.cross(1, 1), Vec2(2, 3))
    assert ci.ratios == [1, 1, 1]
    assert ci != cusp_invariant(Surface.cross(1, 1), Vec2(1, 0))


def test_cusp_invariant_is_scale_free():
    assert CuspInvariant([1, 1, 2]) == CuspInvariant([F(1, 2), F(1, 2), 1])
    assert len({CuspInvariant([1, 2]), CuspInvariant([3, 6])}) == 1


def test_cusp_invariant_survives_a_shear():
    c = Surface.cross(1, 1)
    sheared = c.transform(twist_matrix(Vec2(1, 0), 3))
    assert cusp_invariant(sheared, Vec2(1, 0)) == cusp_invariant(c, Vec2(1, 0))


def test_torus_has_no_cusp_invariant():
    with pytest.raises(NoConnections):
        cusp_invariant(Surface.square_torus(), Vec2(1, 0))


# ---------------------------------------------------------------------------
# fat sequences
# ---------------------------------------------------------------------------

def test_fat_sequence_frozen_values():
    cm = marked_cross()
    steps = fat_sequence(cm, (1, 0), Mat2(1, 3, 0, 1), (0, 1), 6, cap=60)
    assert [s.direction for s in steps] == [Vec2(-3 * n, 1)
                                            for n in range(1, 7)]
    assert [s.kind for s in steps] == ["Fat"] * 6
    assert [s.gap for s in steps] == [scalar(F(1, 3 * n))
                                      for n in range(1, 7)]
    ratios = [s.ratio for s in steps]
    assert ratios[0] == FieldScalar(-3, F(3, 2), 5)
    assert ratios[1] == FieldScalar(F(-13, 2), 3, 5)
    assert all(not r.is_rational for r in ratios)
    assert len(set(ratios)) == 6


def test_fat_sequence_gaps_shrink():
    steps = fat_sequence(marked_cross(), (1, 0), Mat2(1, 3, 0, 1), (0, 1), 8,
                         cap=60)
    gaps = [s.gap for s in steps]
    assert all((a - b).sign() > 0 for a, b in zip(gaps, gaps[1:]))


def test_fat_sequence_rejects_non_parabolic():
    cm = marked_cross()
    with pytest.raises(NotParabolicMatrix):
        fat_sequence(cm, (1, 0), Mat2(2, 0, 0, F(1, 2)), (0, 1), 3)
    with pytest.raises(NotParabolicMatrix):
        # parabolic, but fixes the vertical rather than theta
        fat_sequence(cm, (1, 0), Mat2(1, 0, 3, 1), (0, 1), 3)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

SEEDS = [(1, 0), (0, 1), (1, 1), (2, 3)]


def test_census_of_unmarked_cross():
    reps = census(Surface.cross(1, 1), SEEDS)
    assert [r.kind for r in reps] == ["Parabolic"] * 4
    assert [r.s_prime for r in reps] == [3, 3, 5, 2]
    assert [r.xi for r in reps] == [None, 0, 1, F(2, 3)]
    assert [r.m for r in reps] == [1, 1, 1, 1]
    ratio_sets = {tuple(r.cusp.ratios) for r in reps}
    assert len(ratio_sets) == 2  # {1/2,1/2,1} for the first three, {1,1,1} last


def test_census_of_marked_cross():
    reps = census(marked_cross(), SEEDS)
    assert [r.kind for r in reps] == ["Fat", "Parabolic", "Fat", "Fat"]
    assert reps[1].cusp is not None
    for r in (reps[0], reps[2], reps[3]):
        assert r.cusp is None
        mk, cyl, ratio = r.certificate
        assert mk == 0 and not ratio.is_rational


def test_census_reports_undetermined_instead_of_raising():
    g = FieldScalar(F(-1, 2), F(1, 2), 5)
    reps = census(Surface.cross(1, 1), [(1, 0), (scalar(1), g)], cap=8)
    assert [r.kind for r in reps] == ["Parabolic", "Undetermined"]
    assert reps[1].m is None and reps[1].s_prime is None


def test_census_of_the_zero_direction_is_refused():
    with pytest.raises(ZeroInput):
        census(Surface.cross(1, 1), [(0, 0)])


def test_census_row_with_a_midline_past_the_cap_has_no_error():
    # every separatrix closes within the cap, so the row is certified
    reps = census(Surface.cross(1, 3), [(1, -3)], cap=20)
    assert reps[0].kind == "Parabolic"
    assert reps[0].s_prime == 21
    assert reps[0].error is None
    assert reps[0].decomposition.complete


def test_census_records_why_a_row_is_undetermined(monkeypatch):
    surf = Surface.cross(1, 1)
    plain = census(surf, SEEDS[:2])
    assert [r.error for r in plain] == [None, None]
    assert all(r.decomposition.complete for r in plain)

    # the package binds the name `census` to the function, not the module
    module = importlib.import_module("veechkit.census")
    real = module.classify_direction

    def failing(surface, direction, cap=None):
        if direction == Vec2(0, 1):
            raise InconsistentTopology("forced failure")
        return real(surface, direction, cap=cap)

    monkeypatch.setattr(module, "classify_direction", failing)
    reps = census(surf, SEEDS[:2])
    assert [r.kind for r in reps] == ["Parabolic", "Undetermined"]
    assert reps[1].error == ("InconsistentTopology", "forced failure")
    assert reps[1].decomposition is None
    # the reason stays out of the canonical JSON
    bare = DirectionReport(reps[1].direction, "Undetermined", reps[1].xi)
    assert census_to_json(reps) == census_to_json([reps[0], bare])


@pytest.mark.parametrize("direction, cap, lengths", [
    ((1, 3), 3, [1, 1, 2]), ((3, 1), 3, [1, 1, 2]), ((2, 3), 2, [1, 1, 1])])
def test_census_cusp_holds_every_connection_of_its_decomposition(
        direction, cap, lengths):
    # a euclidean cap of this size cuts the traced scan short, which
    # cusp_invariant reports; the decomposition, capped by flow time, holds
    # every connection
    rep, = census(Surface.cross(1, 1), [direction], cap=cap)
    assert rep.kind == "Parabolic"
    assert rep.cusp.lengths == lengths
    assert rep.cusp == cusp_invariant(Surface.cross(1, 1), direction)
    with pytest.raises(NotComplete):
        cusp_invariant(Surface.cross(1, 1), direction, cap=cap)


@settings(max_examples=60, deadline=None)
@given(marked_surfaces(), st.sampled_from(HEIGHT_3),
       st.sampled_from((None, 20)))
def test_census_cusp_is_the_traced_cusp_under_a_long_enough_cap(
        surf, direction, cap):
    rep, = census(surf, [direction], cap=cap)
    if rep.kind != "Parabolic":
        return
    params = [ev.param for _, ev in rep.decomposition.connections]
    # |d| <= |x| + |y| bounds every connection's euclidean length
    d = rep.direction
    long_enough = max(params, default=1) * (abs(d.x) + abs(d.y)) + 1
    if rep.cusp is None:
        with pytest.raises(NoConnections):
            cusp_invariant(surf, direction, cap=long_enough)
        return
    assert rep.cusp.lengths == cusp_invariant(surf, direction,
                                              cap=long_enough).lengths


def test_census_json_is_deterministic():
    reps = census(Surface.cross(1, 1), SEEDS)
    blob = census_to_json(reps)
    assert blob == census_to_json(census(Surface.cross(1, 1), SEEDS))
    assert blob.startswith('[{"certificate":null,"class":"Parabolic"')
    one = report_to_json(reps[3])
    assert one["xi"] == {"a": "2/3", "b": "0/1", "d": 0}
    assert one["s_prime"] == {"a": "2/1", "b": "0/1", "d": 0}
