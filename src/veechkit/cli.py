"""Command-line front end: build surfaces, decompose, classify, cover, census.

Exit codes: 0 success, 1 domain error (anything raising VeechkitError),
2 usage error.  All file writes go through a temp file and an atomic rename;
reports carry exact scalars as strings, only SVG output is approximate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile

from .census import census, census_to_json, fat_sequence
from .covers import (CoverSpec, Slit, build_cover, cyclic_slit_cover,
                     double_cover, sheets_from_json)
from .cylinders import (classify_direction, decompose, torus_signature,
                        twist_orbit)
from .errors import InvalidParams, VeechkitError
from .field import FieldScalar, scalar
from .geometry import Mat2, Vec2, _as_vec
from .surface import Surface
from .svg import decomposition_svg, gallery_svg


# -- small plumbing -----------------------------------------------------------


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".veechkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(path, text):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _parse_mat(text) -> Mat2:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParams("expected four row-major entries 'a,b,c,d', got %r"
                            % text)
    return Mat2(*parts)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_surface(path) -> Surface:
    return Surface.from_json(_load_json(path))


def _jsonify(x):
    """Exact report values: scalars become their exact string form."""
    if isinstance(x, FieldScalar):
        return str(x)
    if isinstance(x, Vec2):
        return [str(x.x), str(x.y)]
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _dir_str(v: Vec2) -> str:
    return "%s,%s" % (v.x, v.y)


# -- subcommand handlers ------------------------------------------------------


def _cmd_build(args):
    preset = args.preset.replace("_", "-")
    marked = []
    for spec in args.mark or []:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) not in (3, 4):
            raise InvalidParams("--mark wants POLY,X,Y[,LABEL], got %r" % spec)
        label = parts[3] if len(parts) == 4 else None
        marked.append((int(parts[0]), parts[1:3], label))
    if preset == "square-torus":
        surf = Surface.square_torus(marked=marked)
    elif preset == "cross":
        surf = Surface.cross(args.a if args.a is not None else 1,
                             args.b if args.b is not None else 1,
                             marked=marked)
    elif preset == "l-shape":
        params = [args.a, args.b, args.c, args.e]
        if any(p is None for p in params):
            raise InvalidParams("l-shape needs --a --b --c --e")
        surf = Surface.l_shape(*params, marked=marked)
    else:
        raise InvalidParams("unknown preset %r" % args.preset)
    _emit(args.output, _canon(surf.to_json()))
    return 0


def _info_line(surf: Surface) -> str:
    if surf.singular_classes:
        angles = sorted((2 * surf.cone_windings[c] for c in
                         surf.singular_classes), reverse=True)
        sing = ", ".join("%dpi" % a for a in angles)
    else:
        sing = "none"
    return "genus %d, singularities: %s, area %s" % (surf.genus(), sing,
                                                     surf.area)


def _cmd_info(args):
    print(_info_line(_load_surface(args.surface)))
    return 0


def _cap_of(args):
    return None if args.cap is None else scalar(args.cap)


def _cmd_decompose(args):
    surf = _load_surface(args.surface)
    deco = decompose(surf, args.dir.split(","), cap=_cap_of(args))
    sig = torus_signature(deco) if deco.complete else None
    rows = []
    for cyl in deco.cylinders:
        rows.append({
            "cylinder": cyl.index, "width": cyl.width, "height": cyl.height,
            "inverse_modulus": cyl.inverse_modulus,
            "class": sig.class_of_cylinder(cyl.index) if sig else None,
        })
    if deco.complete:
        print("Complete: %d cylinders, m=%d%s"
              % (len(deco.cylinders), sig.m,
                 ", s'=%s" % sig.s_prime if sig.s_prime is not None else ""))
    else:
        print("Undetermined")
    for r in rows:
        print("cylinder %d: w=%s h=%s inverse_modulus=%s class=%s"
              % (r["cylinder"], r["width"], r["height"],
                 r["inverse_modulus"], r["class"]))
    if args.csv:
        lines = ["direction,cylinder,width,height,inverse_modulus,class"]
        for r in rows:
            lines.append("\"%s\",%d,%s,%s,%s,%s"
                         % (_dir_str(deco.direction), r["cylinder"],
                            r["width"], r["height"], r["inverse_modulus"],
                            "" if r["class"] is None else r["class"]))
        _atomic_write(args.csv, "\n".join(lines) + "\n")
    if args.output:
        out = {"direction": deco.direction, "status": deco.status,
               "cylinders": rows,
               "signature": None if sig is None else
               {"m": sig.m, "s_prime": sig.s_prime,
                "classes": [sorted(g) for g in sig.classes]}}
        _atomic_write(args.output, _canon(_jsonify(out)))
    return 0


def _cmd_classify(args):
    surf = _load_surface(args.surface)
    cls = classify_direction(surf, args.dir.split(","), cap=_cap_of(args))
    if cls.kind == "Parabolic":
        print("Parabolic s'=%s" % cls.s_prime)
    elif cls.kind == "Fat":
        mk, cyl, ratio = cls.certificate
        print("Fat mark=%d cylinder=%d ratio=%s" % (mk, cyl, ratio))
    elif cls.kind == "PeriodicMixed":
        print("PeriodicMixed m=%d" % cls.signature.m)
    else:
        print("Undetermined")
    return 0


def _cmd_twist_orbit(args):
    surf = _load_surface(args.surface)
    if args.mark is not None:
        mark = args.mark
    elif args.point is not None:
        marks = [(m.polygon, m.at, m.label) for m in surf.marked]
        marks.append((args.polygon, args.point.split(","), None))
        surf = surf.with_marks(marks)
        mark = len(marks) - 1
    else:
        raise InvalidParams("need --point or --mark")
    report, samples = twist_orbit(
        surf, mark, args.twist_dir.split(","), args.target_dir.split(","),
        args.n, target_cylinder=args.target_cylinder,
        cap=_cap_of(args))
    landed = [s for s in samples if s["state"] == "ratio"]
    distinct = len({str(s["ratio"]) for s in landed})
    print("n=%d landed=%d distinct_ratios=%d theta=%s nu=%s"
          % (len(samples), len(landed), distinct, report["theta"],
             report["nu"]))
    for s in samples[:args.n if args.verbose else 10]:
        print("  n=%d position=%s %s%s"
              % (s["n"], s["position"], s["state"],
                 "" if s["ratio"] is None else " ratio=%s" % s["ratio"]))
    if args.output:
        cyl_c, cyl_d = report["twist_cylinder"], report["target_cylinder"]
        start = report["start"]
        out = {
            "mark": report["mark"], "theta": report["theta"],
            "twist_cylinder": {"index": cyl_c.index, "width": cyl_c.width,
                               "height": cyl_c.height},
            "target_cylinder": {"index": cyl_d.index, "width": cyl_d.width,
                                "height": cyl_d.height},
            "start": {"state": start.state, "cylinder": start.cylinder,
                      "ratio": start.ratio},
            "nu": report["nu"], "lambda": report["lambda"],
            "y0": report["y0"],
            "samples": samples,
        }
        _atomic_write(args.output, _canon(_jsonify(out)))
    return 0


def _cmd_cover(args):
    obj = _load_json(args.spec)
    if not isinstance(obj, dict):
        raise InvalidParams("cover spec must be a JSON object")
    if args.base:
        base = _load_surface(args.base)
    elif "base" in obj:
        base = Surface.from_json(obj["base"])
    else:
        raise InvalidParams("cover spec needs a 'base' key or --base FILE")
    slits = obj.get("slits", [])
    if not isinstance(slits, list):
        raise InvalidParams("cover spec 'slits' must be a list, not %r"
                            % (slits,))
    slits = [Slit.from_json(s, i) for i, s in enumerate(slits)]
    if args.construction == "double":
        cover = double_cover(base, slits)
    else:
        degree, perms = sheets_from_json(obj, len(slits), cyclic=True)
        spec = CoverSpec(base, degree, slits, perms)
        if len(slits) == 1:
            cover = cyclic_slit_cover(spec)
        else:
            cover = build_cover(spec)
    _emit(args.output, _canon(cover.to_json()))
    if args.output:
        print(_info_line(cover))
    return 0


def _cmd_census(args):
    surf = _load_surface(args.surface)
    obj = _load_json(args.seeds)
    if isinstance(obj, dict):
        obj = obj.get("directions", [])
    if not isinstance(obj, list):
        raise InvalidParams("census seeds are a list of directions, not %r"
                            % (obj,))
    directions = [_as_vec(e) for e in obj]
    cap = _cap_of(args)
    reports = census(surf, directions, cap=cap)
    for rep in reports:
        extra = ""
        if rep.kind == "Parabolic":
            extra = " s'=%s" % rep.s_prime
        elif rep.kind == "Fat":
            extra = " ratio=%s" % rep.certificate[2]
        print("%s: %s%s" % (_dir_str(rep.direction), rep.kind, extra))
    _emit(args.output, census_to_json(reports) + "\n")
    if args.csv:
        lines = ["direction,class,xi,m,s_prime_or_ratio"]
        for rep in reports:
            if rep.kind == "Parabolic":
                tail = str(rep.s_prime)
            elif rep.kind == "Fat":
                tail = str(rep.certificate[2])
            else:
                tail = ""
            lines.append("\"%s\",%s,%s,%s,%s"
                         % (_dir_str(rep.direction), rep.kind,
                            "" if rep.xi is None else rep.xi,
                            "" if rep.m is None else rep.m, tail))
        _atomic_write(args.csv, "\n".join(lines) + "\n")
    if args.svg:
        entries = []
        for rep in reports:
            # only a row whose classification raised has no decomposition;
            # decomposing it again raises the same error (exit code 1)
            deco = rep.decomposition
            if deco is None:
                deco = decompose(surf, rep.direction, cap=cap)
            entries.append(("dir %s: %s" % (_dir_str(rep.direction), rep.kind),
                            deco))
        _atomic_write(args.svg, gallery_svg(entries))
    return 0


def _cmd_fat_seq(args):
    surf = _load_surface(args.surface)
    steps = fat_sequence(surf, args.theta.split(","), _parse_mat(args.twist),
                         args.seed.split(","), args.n,
                         cap=_cap_of(args))
    for st in steps:
        print("n=%d dir=%s %s%s gap=%s"
              % (st.n, _dir_str(st.direction), st.kind,
                 "" if st.ratio is None else " ratio=%s" % st.ratio,
                 st.gap))
    if args.output:
        out = [{"n": st.n, "direction": st.direction, "class": st.kind,
                "ratio": st.ratio, "gap": st.gap} for st in steps]
        _atomic_write(args.output, _canon(_jsonify(out)))
    return 0


def _cmd_render(args):
    surf = _load_surface(args.surface)
    deco = decompose(surf, args.dir.split(","), cap=_cap_of(args))
    _atomic_write(args.svg, decomposition_svg(
        deco, label="dir %s: %s" % (_dir_str(deco.direction), deco.status)))
    print("wrote %s" % args.svg)
    return 0


# -- parser -------------------------------------------------------------------


# built once per process: main() may run many times in one process (as a
# library call), and a parser per call is cyclic garbage that only a full
# collection frees, so resident memory would grow with the number of calls
@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="veechkit",
        description="Exact cylinder decompositions, splitting ratios, slit "
                    "coverings and direction censuses of translation surfaces.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="write a preset surface as JSON")
    p.add_argument("--preset", required=True,
                   help="square-torus | cross | l-shape")
    for flag in ("--a", "--b", "--c", "--e"):
        p.add_argument(flag, type=str, default=None)
    p.add_argument("--mark", action="append",
                   help="POLY,X,Y[,LABEL]; repeatable")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_build)

    p = sub.add_parser("info", help="genus, singularities, area")
    p.add_argument("surface")
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("decompose", help="cylinder decomposition in a direction")
    p.add_argument("surface")
    p.add_argument("--dir", required=True)
    p.add_argument("--cap")
    p.add_argument("--csv")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("classify", help="Parabolic / Fat / PeriodicMixed")
    p.add_argument("surface")
    p.add_argument("--dir", required=True)
    p.add_argument("--cap")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("twist-orbit",
                       help="splitting ratios along a twist orbit")
    p.add_argument("surface")
    p.add_argument("--point", help="X,Y in chart --polygon")
    p.add_argument("--polygon", type=int, default=0)
    p.add_argument("--mark", type=str, default=None,
                   help="label of an existing marked point")
    p.add_argument("--twist-dir", default="1,0")
    p.add_argument("--target-dir", default="0,1")
    p.add_argument("--target-cylinder", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_twist_orbit)

    p = sub.add_parser("cover", help="build a slit covering")
    p.add_argument("construction", choices=["cyclic", "double"])
    p.add_argument("--spec", required=True)
    p.add_argument("--base")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_cover)

    p = sub.add_parser("census", help="classify a list of seed directions")
    p.add_argument("surface")
    p.add_argument("--seeds", required=True)
    p.add_argument("--cap")
    p.add_argument("-o", "--output")
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(run=_cmd_census)

    p = sub.add_parser("fat-seq",
                       help="classify twist-images phi^-n of a seed direction")
    p.add_argument("surface")
    p.add_argument("--theta", required=True)
    p.add_argument("--twist", required=True,
                   help="parabolic matrix, row-major a,b,c,d")
    p.add_argument("--seed", default="0,1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_fat_seq)

    p = sub.add_parser("render", help="SVG of one decomposition")
    p.add_argument("surface")
    p.add_argument("--dir", required=True)
    p.add_argument("--cap")
    p.add_argument("--svg", required=True)
    p.set_defaults(run=_cmd_render)

    return ap


# the options whose value is a vector or a matrix, either of which may start
# with "-"; argparse would read "--dir -1,2" as a missing value and an
# unknown option "-1,2", so main rewrites it as "--dir=-1,2"
_SIGNED_OPTIONS = frozenset(("--dir", "--theta", "--seed", "--twist",
                             "--point", "--twist-dir", "--target-dir"))
_NEGATIVE = re.compile(r"-(\d|\.|\(|sqrt)")


def _joined_negatives(argv):
    """argv with each signed option followed by a negative value written as
    one "--option=value" word."""
    out, i = [], 0
    while i < len(argv):
        if (argv[i] in _SIGNED_OPTIONS and i + 1 < len(argv)
                and _NEGATIVE.match(argv[i + 1])):
            out.append("%s=%s" % (argv[i], argv[i + 1]))
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(_joined_negatives(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except VeechkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
