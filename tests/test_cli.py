"""Command-line driver: in-process main() calls against temp files."""

import gc
import json
import re

import pytest

import veechkit.svg
from test_surface import pinched_json
from veechkit import cli
from veechkit.cylinders import decompose, torus_signature
from veechkit.field import FieldScalar
from veechkit.geometry import Vec2
from veechkit.surface import Surface
from veechkit.svg import decomposition_svg, gallery_svg


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def build_cross(tmp_path, capsys):
    path = tmp_path / "cross.json"
    rc, _, _ = run(capsys, "build", "--preset", "cross",
                   "--a", "1", "--b", "1", "-o", str(path))
    assert rc == 0
    return str(path)


# ---------------------------------------------------------------------------

def test_build_writes_canonical_json(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    expect = json.dumps(Surface.cross(1, 1).to_json(), sort_keys=True,
                        indent=2) + "\n"
    assert open(path).read() == expect


def test_build_with_mark_and_field_coeffs(tmp_path, capsys):
    path = tmp_path / "g.json"
    rc, _, _ = run(capsys, "build", "--preset", "cross",
                   "--a=-1/2+1/2*sqrt(5)", "--b", "1",
                   "--mark", "0,1/2,3/2,pt", "-o", str(path))
    assert rc == 0
    surf = Surface.from_json(json.load(open(path)))
    assert surf.marked[0].label == "pt"
    assert surf.field_d == 5


def test_info_lines(tmp_path, capsys):
    tor = tmp_path / "t.json"
    run(capsys, "build", "--preset", "square-torus", "-o", str(tor))
    rc, out, _ = run(capsys, "info", str(tor))
    assert rc == 0 and out == "genus 1, singularities: none, area 1\n"
    path = build_cross(tmp_path, capsys)
    rc, out, _ = run(capsys, "info", path)
    assert rc == 0 and out == "genus 2, singularities: 6pi, area 5\n"


def test_classify_output(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    rc, out, _ = run(capsys, "classify", path, "--dir", "1,0")
    assert rc == 0 and out.strip() == "Parabolic s'=3"
    tor = tmp_path / "t.json"
    run(capsys, "build", "--preset", "square-torus", "-o", str(tor))
    rc, out, _ = run(capsys, "classify", str(tor), "--dir", "0,1")
    assert out.strip() == "Parabolic s'=1"


def test_decompose_csv(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    csv = tmp_path / "d.csv"
    rc, out, _ = run(capsys, "decompose", path, "--dir", "1,0",
                     "--csv", str(csv))
    assert rc == 0
    assert out.splitlines()[0] == "Complete: 3 cylinders, m=1, s'=3"
    assert csv.read_text() == (
        "direction,cylinder,width,height,inverse_modulus,class\n"
        '"1,0",0,1,1,1,0\n'
        '"1,0",1,1,3,3,0\n'
        '"1,0",2,1,1,1,0\n')


def test_census_csv_and_determinism(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([[1, 0], [0, 1], [1, 1], [2, 3]]))
    csv = tmp_path / "census.csv"
    out1 = tmp_path / "census1.json"
    out2 = tmp_path / "census2.json"
    rc, _, _ = run(capsys, "census", path, "--seeds", str(seeds),
                   "--csv", str(csv), "-o", str(out1))
    assert rc == 0
    rc, _, _ = run(capsys, "census", path, "--seeds", str(seeds),
                   "-o", str(out2))
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert csv.read_text() == (
        "direction,class,xi,m,s_prime_or_ratio\n"
        '"1,0",Parabolic,,1,3\n'
        '"0,1",Parabolic,0,1,3\n'
        '"1,1",Parabolic,1,1,5\n'
        '"2,3",Parabolic,2/3,1,2\n')


def test_census_svg_reuses_the_census_decompositions(tmp_path, capsys,
                                                      monkeypatch):
    path = build_cross(tmp_path, capsys)
    seeds = tmp_path / "seeds.json"
    dirs = [[1, 0], [0, 1], [1, 1], [2, 3]]
    seeds.write_text(json.dumps(dirs))
    surf = Surface.cross(1, 1)
    # the gallery as drawn from a fresh decomposition per row
    expect = gallery_svg([("dir %d,%d: Parabolic" % (x, y),
                           decompose(surf, Vec2(x, y))) for x, y in dirs])
    calls = []

    def counting_decompose(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(cli, "decompose", counting_decompose)
    svg = tmp_path / "census.svg"
    rc, _, _ = run(capsys, "census", path, "--seeds", str(seeds),
                   "--svg", str(svg))
    assert rc == 0
    assert calls == []
    assert svg.read_text() == expect


def test_repeated_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # main() runs many times in one process when used as a library; garbage
    # that only a full collection frees would grow resident memory per call
    path = build_cross(tmp_path, capsys)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([[1, 0], [1, 1]]))
    for argv in (["info", path], ["classify", path, "--dir", "1,0"],
                 ["census", path, "--seeds", str(seeds),
                  "--svg", str(tmp_path / "g.svg")]):
        gc.collect()
        rc, _, _ = run(capsys, *argv)
        assert rc == 0
        assert gc.collect() == 0


def test_census_rejects_float_seeds(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([[1.5, 0]]))
    rc, _, err = run(capsys, "census", path, "--seeds", str(seeds))
    assert rc == 1 and "exact" in err


def test_cover_cyclic(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "degree": 2,
        "slits": [{"corner": [0, 11], "dir": ["1", "1"],
                   "to": ["3/2", "3/2"]}],
    }))
    out = tmp_path / "cover.json"
    rc, text, _ = run(capsys, "cover", "cyclic", "--spec", str(spec),
                      "--base", path, "-o", str(out))
    assert rc == 0
    assert text.strip() == "genus 4, singularities: 12pi, 4pi, area 10"
    cov = Surface.from_json(json.load(open(out)))
    assert cov.genus() == 4


def test_cover_slit_with_a_short_vector_exits_1(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "degree": 2,
        "slits": [{"corner": [0, 11], "dir": ["1"], "to": ["3/2", "3/2"]}],
    }))
    rc, _, err = run(capsys, "cover", "cyclic", "--spec", str(spec),
                     "--base", path)
    assert rc == 1 and err.startswith("error: a vector is written as")


def test_cover_slit_without_a_direction_exits_1(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "degree": 2, "slits": [{"corner": [0, 11], "to": ["3/2", "3/2"]}],
    }))
    rc, _, err = run(capsys, "cover", "cyclic", "--spec", str(spec),
                     "--base", path)
    assert rc == 1
    assert err == "error: malformed slit 0 JSON (KeyError: 'dir')\n"


def test_cover_slit_with_a_scalar_corner_exits_1(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "degree": 2, "perms": [[2, 1]],
        "slits": [{"corner": 5, "dir": ["1", "1"], "to": ["3/2", "3/2"]}],
    }))
    rc, _, err = run(capsys, "cover", "cyclic", "--spec", str(spec),
                     "--base", path)
    assert rc == 1
    assert err == ("error: slit corner must be a (polygon, vertex) pair of "
                   "integers, not 5\n")


@pytest.mark.parametrize("bad, message", [
    ({"perms": [2, 1]}, "cover spec 'perms' must be one list per slit"),
    ({"perm": [2, "x"]}, "cover spec 'perm' must be a list"),
    ({"perms": [[2, "x"]]}, "cover spec 'perms' must be one list per slit"),
    ({"degree": "x"}, "cover spec 'degree' must be an integer"),
])
def test_cover_cyclic_with_malformed_sheets_exits_1(tmp_path, capsys, bad,
                                                     message):
    path = build_cross(tmp_path, capsys)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict({
        "degree": 2, "slits": [{"corner": [0, 11], "dir": ["1", "1"],
                                "to": ["3/2", "3/2"]}]}, **bad)))
    rc, _, err = run(capsys, "cover", "cyclic", "--spec", str(spec),
                     "--base", path)
    assert rc == 1
    assert err.startswith("error: " + message)


def test_twist_orbit_report(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    out = tmp_path / "orbit.json"
    rc, _, _ = run(capsys, "twist-orbit", path,
                   "--point=-1/2+1/2*sqrt(5),3/2", "--polygon", "0",
                   "--twist-dir", "0,1", "--target-dir", "1,0",
                   "--n", "5", "-o", str(out))
    assert rc == 0
    rep = json.load(open(out))
    assert len(rep["samples"]) == 5
    assert all(s["state"] == "ratio" for s in rep["samples"])


def test_fat_seq(tmp_path, capsys):
    mk = tmp_path / "m.json"
    run(capsys, "build", "--preset", "cross", "--a", "1", "--b", "1",
        "--mark", "0,3/2,3/2+1/2*sqrt(5),w", "-o", str(mk))
    rc, out, _ = run(capsys, "fat-seq", str(mk), "--theta", "1,0",
                     "--twist", "1,3,0,1", "--n", "3", "--cap", "60")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and all("Fat" in ln for ln in lines)


def test_render_svg(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    svg = tmp_path / "out.svg"
    rc, _, _ = run(capsys, "render", path, "--dir", "1,0", "--svg", str(svg))
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg") or text.startswith("<!--")
    assert "12-significant-digit" in text and "</svg>" in text


def test_svg_colours_cylinders_by_commensurability_class(monkeypatch):
    # the golden cross is PeriodicMixed with m = 2 in (0, 1): each
    # cylinder is filled with its class's colour, and an error from the
    # signature reaches the caller instead of recolouring the picture
    phi = (1 + FieldScalar(0, 1, 5)) / 2
    deco = decompose(Surface.cross(phi, 1), Vec2(0, 1))
    sig = torus_signature(deco)
    assert sig.m == 2
    fills = re.findall(r'<rect [^>]*fill="(#[0-9a-f]+)"',
                       decomposition_svg(deco))
    assert fills == [veechkit.svg._PALETTE[sig.class_of_cylinder(i)]
                     for i in range(len(deco.cylinders))]

    def failing(deco):
        raise ArithmeticError("signature failed")

    monkeypatch.setattr(veechkit.svg, "torus_signature", failing)
    with pytest.raises(ArithmeticError, match="signature failed"):
        decomposition_svg(deco)


@pytest.mark.parametrize("cmd", ["classify", "decompose", "render"])
def test_a_negative_direction_may_follow_dir_as_its_own_word(tmp_path, capsys,
                                                             cmd):
    # argparse alone reads "--dir -1,2" as a missing value and an unknown
    # option "-1,2"; main takes it as "--dir=-1,2"
    path = build_cross(tmp_path, capsys)
    svg = tmp_path / "out.svg"
    extra = ["--svg", str(svg)] if cmd == "render" else []
    got = []
    for argv in (["--dir", "-1,2"], ["--dir=-1,2"]):
        rc, out, _ = run(capsys, cmd, path, *argv, *extra)
        got.append((rc, out, svg.read_text() if extra else None))
    assert got[0] == got[1]
    assert got[0][0] == 0 and got[0][1]


def test_every_signed_option_takes_a_negative_word():
    opts = ("--dir", "--theta", "--seed", "--twist", "--point", "--twist-dir",
            "--target-dir")
    for opt in opts:
        for value in ("-1,2", "-1/2", "-sqrt(5),1", "-(1+sqrt(5))/2,1"):
            assert cli._joined_negatives(["x", opt, value, "--n", "3"]) == [
                "x", opt + "=" + value, "--n", "3"]
    # other options, other values and the "=" form are left alone
    for argv in (["--cap", "-1"], ["--dir", "--cap", "3"], ["--dir=-1,2"],
                 ["--dir", "1,-2"], ["--dir"], ["--mark", "-1"]):
        assert cli._joined_negatives(argv) == argv


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["decompose"]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_missing_file_exits_1(capsys):
    rc = cli.main(["info", "/no/such/file.json"])
    capsys.readouterr()
    assert rc == 1


def test_integer_coordinates_exit_1(tmp_path, capsys):
    obj = Surface.square_torus().to_json()
    obj["polygons"][0]["vertices"][1] = [1, 0]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "info", str(path))
    assert rc == 1 and err.startswith("error: a scalar is written as")


def test_a_chart_through_a_vertex_twice_exits_1(tmp_path, capsys):
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps(pinched_json()))
    rc, _, err = run(capsys, "info", str(path))
    assert rc == 1
    assert err == "error: polygon 0 passes through a vertex twice\n"


def test_domain_error_exits_1(tmp_path, capsys):
    path = build_cross(tmp_path, capsys)
    rc, _, err = run(capsys, "decompose", path, "--dir", "0,0")
    assert rc == 1 and "error" in err
