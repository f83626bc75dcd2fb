"""Outside values: every exact scalar or vector a caller writes goes through
one reader (`field.scalar`, and `geometry._as_vec` for pairs), which takes
an int, a Fraction, a literal string or the {a, b, d} object `to_json`
writes, and refuses everything else with InvalidParams."""

import json
from fractions import Fraction

import pytest

from veechkit import cli
from veechkit.census import census, census_to_json, fat_sequence
from veechkit.covers import Slit
from veechkit.cylinders import twist_orbit
from veechkit.errors import InvalidParams, ZeroInput
from veechkit.field import FieldScalar, parse_scalar, scalar
from veechkit.geometry import Mat2, Vec2, _as_vec
from veechkit.surface import Surface
from veechkit.trace import is_connection_point_up_to, trace

SQRT5 = FieldScalar(0, 1, 5)

# each form a caller might write that is not an exact scalar
MALFORMED = {
    "float": 0.5,
    "bool": True,
    "none": None,
    "list": [1, 2],
    "literal": "x",
    "empty-literal": "",
    "zero-denominator": "1/0",
    "zero-outer-denominator": "(1+sqrt(5))/0",
    "zero-radical-denominator": "1/0*sqrt(5)",
    "square-radicand": "sqrt(4)",
    "object-zero-denominator": {"a": "1/0", "b": "0/1", "d": 0},
    "object-negative-denominator": {"a": "1/-2", "b": "0/1", "d": 0},
    "object-literal": {"a": "x", "b": "0/1", "d": 0},
    "object-square-tag": {"a": "1/1", "b": "1/1", "d": 4},
    "object-float-part": {"a": 0.5, "b": "0/1", "d": 0},
    "object-bool-tag": {"a": "1/1", "b": "1/1", "d": True},
    "object-float-tag": {"a": "1/1", "b": "1/1", "d": 5.0},
    "object-radical-without-tag": {"a": "1/1", "b": "1/1", "d": 0},
    "object-without-a": {"b": "1/1", "d": 5},
    "object-unknown-key": {"a": "1/1", "e": "1/1"},
}


def _surface_json_with(bad):
    obj = Surface.cross(1, 1).to_json()
    obj["polygons"][0]["vertices"][0] = [bad, {"a": "0/1", "b": "0/1",
                                               "d": 0}]
    return obj


ENTRY_POINTS = {
    "scalar": scalar,
    "from-json": FieldScalar.from_json,
    "as-vec": lambda bad: _as_vec((bad, 1)),
    "vec2": lambda bad: Vec2(1, bad),
    "mat2": lambda bad: Mat2(1, bad, 0, 1),
    "cross": lambda bad: Surface.cross(bad, 1),
    "l-shape": lambda bad: Surface.l_shape(1, 1, 1, bad),
    "mark": lambda bad: Surface.cross(1, 1, marked=[(0, (bad, "3/2"), "q")]),
    "surface-json": lambda bad: Surface.from_json(_surface_json_with(bad)),
    "census-seed": lambda bad: census(Surface.cross(1, 1), [[bad, 1]]),
    "slit": lambda bad: Slit(polygon=0, start=(1, 1), direction=(1, bad),
                             end=(1, 1)),
}


@pytest.mark.parametrize("form", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(),
                         ids=ENTRY_POINTS.keys())
def test_every_entry_point_refuses_every_malformed_form(call, form):
    with pytest.raises(InvalidParams):
        call(form)


@pytest.mark.parametrize("form, value", [
    (3, 3),
    (Fraction(3, 2), Fraction(3, 2)),
    ("(1+sqrt(5))/2", FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)),
    ({"a": "1/2", "b": "1/2", "d": 5},
     FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)),
    ({"a": "2/4", "b": "3/6", "d": 5},
     FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)),
    ({"a": "-3"}, -3),
    ({"a": 1, "b": 1, "d": 1}, 2),
    ({"a": "1/3", "b": "0/1", "d": 4}, Fraction(1, 3)),
])
def test_scalar_reads_each_written_form(form, value):
    x = scalar(form)
    assert type(x) is FieldScalar and x == value
    assert FieldScalar.from_json(x.to_json()) == x
    assert scalar(x) is x


def test_a_pair_is_a_tuple_or_a_list_of_two_scalars():
    assert _as_vec(("1", {"a": "1/2"})) == Vec2(1, Fraction(1, 2))
    assert _as_vec([SQRT5, 0]) == Vec2(SQRT5, 0)
    for bad in ("12", "up", {"x": 1, "y": 2}, (1,), (1, 2, 3), iter((1, 2)),
                Fraction(1, 2)):
        with pytest.raises(InvalidParams, match="is not a pair of scalars"):
            _as_vec(bad)


def test_a_malformed_literal_keeps_its_own_message():
    with pytest.raises(InvalidParams, match="^cannot parse scalar literal"):
        _as_vec(("1", "x"))
    with pytest.raises(InvalidParams, match="^'3/0' is not a rational"):
        parse_scalar("3/0*sqrt(5)")
    with pytest.raises(InvalidParams, match="^zero denominator"):
        parse_scalar("(1+sqrt(5))/0")
    with pytest.raises(InvalidParams, match="cannot parse"):
        parse_scalar(3)


def test_nested_parentheses_deeper_than_the_recursion_limit_parse():
    deep = "(" * 3000 + "1" + ")/2" * 3000
    assert parse_scalar(deep) == Fraction(1, 2 ** 3000)
    with pytest.raises(InvalidParams, match="zero denominator"):
        parse_scalar("(" + deep + ")/0")


@pytest.mark.parametrize("tag", [5.7, True, "x", None, 4, 1, -5])
def test_surface_json_field_tag_is_an_int(tag):
    obj = Surface.cross(1, 1).to_json()
    obj["field"]["d"] = tag
    with pytest.raises(InvalidParams, match="field tag"):
        Surface.from_json(obj)


# chart indices that are not ints; True would read as chart 1
NOT_INDICES = {"string": "0", "none": None, "float": 0.0, "bool": True}


def _marked_json(index):
    obj = Surface.l_shape(1, 1, 1, 1).to_json()
    obj["marked_points"] = [{"polygon": index,
                             "at": Vec2(Fraction(3, 2), Fraction(1, 2))
                             .to_json(), "label": "q"}]
    return obj


@pytest.mark.parametrize("index", NOT_INDICES.values(),
                         ids=NOT_INDICES.keys())
def test_a_chart_index_is_an_int_that_is_not_a_bool(index):
    # (3/2, 1/2) lies inside chart 1 of the unit L-shape
    ell = Surface.l_shape(1, 1, 1, 1)
    at = Vec2(Fraction(3, 2), Fraction(1, 2))
    calls = [
        lambda: trace(ell, index, at, (0, 1)),
        lambda: ell.point_aliases(index, at),
        lambda: Surface.l_shape(1, 1, 1, 1, marked=[(index, at, "q")]),
        lambda: Surface.from_json(_marked_json(index)),
    ]
    for call in calls:
        with pytest.raises(InvalidParams):
            call()
    assert ell.point_aliases(1, at) == [(1, at)]


@pytest.mark.parametrize("index", NOT_INDICES.values(),
                         ids=NOT_INDICES.keys())
def test_a_corner_mark_or_cylinder_index_is_an_int_that_is_not_a_bool(index):
    # True would read as corner (1, 0) or (1, 1), mark 1 or cylinder 1
    ell = Surface.l_shape(1, 1, 1, 1)
    two = Surface.cross(1, 1, marked=[(0, (Fraction(3, 2), Fraction(3, 2)),
                                       "q"),
                                      (0, (Fraction(5, 4), Fraction(1, 2)),
                                       "p")])
    twist = ((0, 1), (1, 0), 1)
    calls = [
        lambda: trace(ell, corner=(index, 0), direction=(1, 2)),
        lambda: trace(ell, corner=(1, index), direction=(1, 2)),
        lambda: Slit(corner=(index, 0), direction=(1, 1), end=(1, 1)),
        lambda: twist_orbit(two, index, *twist),
        lambda: is_connection_point_up_to(two, index),
    ]
    if index is not None:  # no target cylinder: the mark's own
        calls.append(lambda: twist_orbit(two, 0, *twist,
                                         target_cylinder=index))
    for call in calls:
        with pytest.raises(InvalidParams):
            call()
    assert trace(ell, corner=(1, 0), direction=(1, 2)).segments
    assert twist_orbit(two, 1, *twist, target_cylinder=1)[0]["mark"] == 1


@pytest.mark.parametrize("field", ["p1", "e1", "p2"])
def test_a_gluing_index_is_an_int_that_is_not_a_bool(field):
    # the cross's first gluing joins edge 0 to edge 6 of chart 0: false
    # would read as 0 and write itself back as false
    obj = Surface.cross(1, 1).to_json()
    assert obj["gluings"][0][field] == 0
    obj["gluings"][0][field] = False
    with pytest.raises(InvalidParams, match="gluing 0 is not two"):
        Surface.from_json(obj)
    obj["gluings"][0][field] = 0
    assert Surface.from_json(obj) == Surface.cross(1, 1)


def test_fat_sequence_refuses_a_zero_seed():
    with pytest.raises(ZeroInput):
        fat_sequence(Surface.cross(1, 1), (0, 1), Mat2(1, 0, 1, 1), (0, 0),
                     1)


# -- the command line ---------------------------------------------------------


def run(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def cross_file(tmp_path):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(Surface.cross(1, 1).to_json()))
    return path


def _literal_args(path, text):
    """Each command line that reads `text` as a scalar or a vector entry."""
    return [
        ("classify", path, "--dir", "%s,1" % text),
        ("classify", path, "--dir", "1,1", "--cap", text),
        ("decompose", path, "--dir", "1,%s" % text),
        ("build", "--preset", "cross", "--a", text),
        ("build", "--preset", "cross", "--mark", "0,%s,3/2" % text),
        ("fat-seq", path, "--theta", "0,1", "--twist", "1,0,%s,1" % text,
         "--n", "1"),
    ]


LITERALS = [v for v in MALFORMED.values() if isinstance(v, str)] + [
    "0.5", "1,2", "True"]


@pytest.mark.parametrize("form", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_census_seed_exits_1(form, tmp_path, cross_file, capsys):
    for seeds in ([[form, 1]], [[1, 1], [1, form]]):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(seeds))
        rc, _, err = run(capsys, "census", cross_file, "--seeds", path)
        assert rc == 1 and err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("text", LITERALS)
def test_a_malformed_literal_argument_exits_1(text, cross_file, capsys):
    for argv in _literal_args(cross_file, text):
        rc, _, err = run(capsys, *argv)
        assert rc == 1 and err.startswith("error:"), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("seeds", [5, "12", {"directions": 5}, [5]])
def test_census_seeds_that_are_not_a_list_of_pairs_exit_1(
        seeds, tmp_path, cross_file, capsys):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(seeds))
    rc, _, err = run(capsys, "census", cross_file, "--seeds", path)
    assert rc == 1 and err.startswith("error:")


def test_census_directions_fed_back_as_seeds_give_the_same_json(
        tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert run(capsys, "build", "--preset", "cross", "--a", "(1+sqrt(5))/2",
               "--b", "1", "--mark", "0,5/6+1/2*sqrt(5),9/14+1/2*sqrt(5),q",
               "-o", golden)[0] == 0
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([[1, 0], [0, 1], [1, 1], [-1, 1], [1, 2],
                                 ["-2", "1"]]))
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert run(capsys, "census", golden, "--seeds", seeds, "-o", first)[0] == 0
    rows = json.loads(first.read_text())
    seeds.write_text(json.dumps([row["direction"] for row in rows]))
    assert run(capsys, "census", golden, "--seeds", seeds, "-o", again)[0] == 0
    assert again.read_bytes() == first.read_bytes()
    # the library reads the same objects
    surf = Surface.from_json(json.loads(golden.read_text()))
    assert census_to_json(census(surf, [row["direction"] for row in rows])
                          ) + "\n" == first.read_text()
