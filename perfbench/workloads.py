"""The benchmark's three workloads: seeded inputs, one op, and its output check.

Every workload is a closed loop over a fixed list of distinct ops, run in
*passes*: one pass runs every op once, in a seeded order, and the harness
repeats passes until the run's time is up.  The list is built from a
template of cost classes that is the same for every seed; the seed picks
which member of each class is used (a symmetric image of a direction, a
marked point, a relabelling of a cover) and the order of the ops.  So every
seed's run holds the same mix of cheap and expensive ops, and the latency
percentiles fall on the same cost class for every seed.

Interface used by run.py:
  generate()       plain, JSON-ready description of the inputs (seeded)
  setup()          generate() plus building surfaces, files and self.ops
  op(i)            the timed call for op i, 0 <= i < len(self.ops)
  check(i, res)    Checked(failure or None, fingerprint, bytes written)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import veechkit
from veechkit import (CoverSpec, FieldScalar, Slit, Surface, cli,
                      riemann_hurwitz)

DEFAULT_SEED = 1
FROZEN = Path(__file__).with_name("frozen.json")

Checked = namedtuple("Checked", "failure fingerprint bytes_out")

PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), 5)     # (1 + sqrt(5)) / 2

# primitive directions up to sign, grouped into orbits of the symmetry group
# of the cross (reflections in the axes and the diagonals): the members of
# an orbit are images of each other, so they cost about the same
AXES = [(1, 0), (0, 1)]
DIAGONALS = [(1, 1), (1, -1)]
HEIGHT2 = [(1, 2), (2, 1), (1, -2), (2, -1)]
HEIGHT3_NEAR_AXIS = [(1, 3), (3, 1), (1, -3), (3, -1)]
HEIGHT3_NEAR_DIAGONAL = [(2, 3), (3, 2), (2, -3), (3, -2)]


def _frozen(name):
    with open(FROZEN) as fh:
        return json.load(fh)[name]


def _sum_area(deco):
    total = FieldScalar.rational(0)
    for cyl in deco.cylinders:
        total = total + cyl.width * cyl.height
    return total


class Workload:
    name = ""
    min_passes = 3      # passes every plain run completes, however short
    trace_passes = 1    # passes of a traced run

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def generate(self):
        self.rng = random.Random("%s:%d" % (self.name, self.seed))
        self.decks = {}
        return self._generate()

    def draw(self, items):
        """Next item of a seeded deck of `items`, reshuffled when used up.

        Drawing without replacement spreads the members of an orbit evenly
        over the ops that use it, whatever the seed.
        """
        key = tuple(items)
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(items)
            self.rng.shuffle(deck)
        return deck.pop()


class CensusCli(Workload):
    """`veechkit census` in process, with JSON, CSV and SVG outputs.

    One op classifies a batch of two directions of the square-tiled cross
    cross(1,1): one of height at most 2 and one of height 3.  The eight
    batches pair the direction orbits in a fixed template; the seed picks
    each direction within its orbit and the order inside each batch.
    """

    name = "census-cli"
    # (height <= 2 orbit, height 3 orbit) of each batch
    TEMPLATE = [(AXES, HEIGHT3_NEAR_AXIS), (AXES, HEIGHT3_NEAR_DIAGONAL),
                (DIAGONALS, HEIGHT3_NEAR_AXIS),
                (DIAGONALS, HEIGHT3_NEAR_DIAGONAL),
                (HEIGHT2, HEIGHT3_NEAR_AXIS), (HEIGHT2, HEIGHT3_NEAR_DIAGONAL),
                (HEIGHT2, HEIGHT3_NEAR_AXIS), (HEIGHT2, HEIGHT3_NEAR_DIAGONAL)]

    def _generate(self):
        batches = []
        for low, high in self.TEMPLATE:
            batch = [self.draw(low), self.draw(high)]
            self.rng.shuffle(batch)
            batches.append([list(d) for d in batch])
        return {"surface": "cross(1,1)", "batches": batches}

    def setup(self):
        spec = self.generate()
        self.batches = spec["batches"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        surface = self.workdir / "cross.json"
        surface.write_text(json.dumps(Surface.cross(1, 1).to_json()))
        self.out = {ext: self.workdir / ("census." + ext)
                    for ext in ("json", "csv", "svg")}
        self.ops = []
        for k, batch in enumerate(self.batches):
            seeds = self.workdir / ("seeds-%02d.json" % k)
            seeds.write_text(json.dumps(batch))
            self.ops.append(["census", str(surface), "--seeds", str(seeds),
                             "-o", str(self.out["json"]),
                             "--csv", str(self.out["csv"]),
                             "--svg", str(self.out["svg"])])
        self.frozen = (_frozen(self.name) if self.seed == DEFAULT_SEED
                       else None)

    def op(self, i):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            rc = cli.main(self.ops[i])
        return rc, text.getvalue()

    def check(self, i, result):
        rc, text = result
        if rc != 0:
            return Checked("exit code %d: %s" % (rc, text.strip()), "", 0)
        blobs = []
        for ext in ("json", "csv", "svg"):
            blobs.append(self.out[ext].read_bytes())
            self.out[ext].unlink()
        blobs.append(text.encode())
        rows = json.loads(blobs[0])
        failure = None
        if len(rows) != len(self.batches[i]):
            failure = "%d rows for %d directions" % (len(rows),
                                                     len(self.batches[i]))
        elif any(row["class"] != "Parabolic" for row in rows):
            failure = "a rational direction of cross(1,1) is not Parabolic"
        elif (self.frozen is not None
              and hashlib.sha256(blobs[0]).hexdigest() != self.frozen[i]):
            failure = "census JSON of batch %d differs from the frozen digest" % i
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        return Checked(failure, digest, sum(len(b) for b in blobs))


class GoldenMarked(Workload):
    """classify_direction on cross(phi, 1) with one marked point in Q(sqrt 5).

    Four surfaces, each with its own seeded mark.  The ops are one axis
    direction, both diagonals and one height-2 direction, each on a
    different surface; the seed picks the axis and the height-2 direction
    within their orbits.  The marks are drawn from a small box inside the
    central square, with coordinates of fixed denominators, so for each
    direction every seed's mark lies in the same cylinder and costs the
    same arithmetic.
    """

    name = "golden-marked"
    n_surfaces = 4

    def _unit_irrational(self):
        # a seeded number in (0, 1) with a nonzero sqrt(5) part
        x = FieldScalar(Fraction(self.rng.randint(1, 12), 13),
                        Fraction(self.rng.randint(1, 10), 11), 5)
        return x.floor_frac()[1]

    def _generate(self):
        rng = self.rng
        marks = []
        for _ in range(self.n_surfaces):
            x = PHI + Fraction(1, 4) + self._unit_irrational() / 40
            y = PHI + Fraction(3, 5) + self._unit_irrational() / 40
            marks.append([x.to_json(), y.to_json()])
        directions = [rng.choice(AXES), DIAGONALS[0], DIAGONALS[1],
                      rng.choice(HEIGHT2)]
        surfaces = list(range(self.n_surfaces))
        rng.shuffle(surfaces)
        ops = [[k, list(d)] for k, d in zip(surfaces, directions)]
        return {"surface": "cross(phi,1)", "marks": marks, "ops": ops}

    def setup(self):
        spec = self.generate()
        self.surfaces = []
        for x, y in spec["marks"]:
            at = (FieldScalar.from_json(x), FieldScalar.from_json(y))
            self.surfaces.append(Surface.cross(PHI, 1,
                                                marked=[(0, at, "w")]))
        self.ops = [(self.surfaces[k], tuple(d)) for k, d in spec["ops"]]
        self.frozen = (_frozen(self.name) if self.seed == DEFAULT_SEED
                       else None)

    def op(self, i):
        return veechkit.classify_direction(*self.ops[i])

    def check(self, i, cls):
        deco = cls.decomposition
        failure = None
        if deco.complete and _sum_area(deco) != deco.surface.area:
            failure = "cylinder areas do not sum to the surface area"
        elif cls.kind == "Fat" and cls.certificate[2].is_rational:
            failure = "Fat certificate with a rational ratio"
        got = [cls.kind, None if cls.certificate is None else
               [cls.certificate[0], cls.certificate[1],
                str(cls.certificate[2])]]
        if failure is None and self.frozen is not None:
            want = self.frozen[i]
            if got != want:
                failure = "got %r, frozen %r" % (got, want)
        return Checked(failure, json.dumps(got), 0)


# the slits of criterion 6 of the acceptance tests: cross(1,1)'s corner
# slit, and its four horizontal slits as (start, end) in polygon 0, with
# x in quarters and y in halves; each horizontal slit is centred in one arm
# (bottom, top, left, right)
HORIZONTAL_SLITS = [((5, 1), (7, 1)), ((5, 5), (7, 5)), ((1, 3), (3, 3)),
                    ((9, 3), (11, 3))]
# pairs of one vertical-arm and one horizontal-arm slit; the reflections in
# the axes map them onto each other, and so does the half turn, which
# keeps the diagonal direction, within each of the two classes below
MIXED_PAIRS = [(0, 2), (0, 3), (1, 2), (1, 3)]
MIXED_PAIRS_DIAGONAL = [(0, 2), (1, 3)]
# (degree, direction) of the cyclic covers on the corner slit
CYCLIC_TEMPLATE = [(2, (1, 0)), (3, (0, 1)), (4, (1, 1)), (5, (1, 0)),
                   (6, (0, 1)), (7, (1, 1)), (8, (1, 0))]


class CoverDecompose(Workload):
    """Build one slit cover of cross(1,1) and decompose it in one direction.

    The ops are the seven cyclic covers of degree 2-8 on the corner slit,
    in a fixed direction each and with a seeded labelling of the charts,
    three double covers on a seeded pair of horizontal slits (one in each
    direction, the pair drawn from those the direction's symmetries map
    onto each other) and one double cover on all four slits.
    """

    name = "cover-decompose"

    def _generate(self):
        rng = self.rng
        ops = []
        for degree, d in CYCLIC_TEMPLATE:
            cycle = list(range(degree))
            rng.shuffle(cycle)
            perm = [0] * degree
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                perm[x] = y
            ops.append({"kind": "cyclic", "degree": degree,
                        "perm": perm, "direction": list(d)})
        for pairs, d in ((MIXED_PAIRS, (1, 0)), (MIXED_PAIRS, (0, 1)),
                         (MIXED_PAIRS_DIAGONAL, (1, 1))):
            ops.append({"kind": "double", "degree": 2,
                        "slits": list(rng.choice(pairs)),
                        "direction": list(d)})
        ops.append({"kind": "double", "degree": 2, "slits": [0, 1, 2, 3],
                    "direction": [0, 1]})
        return {"base": "cross(1,1)", "ops": ops}

    def setup(self):
        self.base = Surface.cross(1, 1)
        corner = Slit(corner=(0, 11), direction=(1, 1),
                      end=(Fraction(3, 2), Fraction(3, 2)))
        horizontal = [Slit(polygon=0, direction=(1, 0),
                           start=(Fraction(ax, 4), Fraction(ay, 2)),
                           end=(Fraction(bx, 4), Fraction(by, 2)))
                      for (ax, ay), (bx, by) in HORIZONTAL_SLITS]
        self.ops = []
        for op in self.generate()["ops"]:
            if op["kind"] == "cyclic":
                spec = CoverSpec(self.base, op["degree"], [corner],
                                 [tuple(op["perm"])])
                profile = [("u", (op["degree"],)), ("v", (op["degree"],))]
                build = ("cyclic_slit_cover", spec)
            else:
                slits = [horizontal[k] for k in op["slits"]]
                profile = [(k, (2,)) for k in range(2 * len(slits))]
                build = ("double_cover", self.base, slits)
            self.ops.append((build, op["degree"], profile,
                             tuple(op["direction"])))
        self.base_area = self.base.area
        self.base_genus = self.base.genus()

    def op(self, i):
        build, _, _, direction = self.ops[i]
        # looked up at call time, so a traced run sees the wrapped function
        cover = getattr(veechkit, build[0])(*build[1:])
        return cover, veechkit.decompose(cover, direction)

    def check(self, i, result):
        cover, deco = result
        _, degree, profile, _ = self.ops[i]
        failure = None
        genus = cover.genus()
        if genus != riemann_hurwitz(self.base_genus, degree, profile):
            failure = "cover genus %d misses the Riemann-Hurwitz count" % genus
        elif cover.area != self.base_area * degree:
            failure = "cover area is not degree times the base area"
        elif not deco.complete:
            failure = "cover direction did not decompose"
        elif _sum_area(deco) != cover.area:
            failure = "cylinder areas do not sum to the cover area"
        moduli = sorted(str(m) for m in deco.inverse_moduli())
        fingerprint = json.dumps([genus, len(cover.polygons), deco.status,
                                  moduli])
        return Checked(failure, fingerprint, 0)


WORKLOADS = {w.name: w for w in (CensusCli, GoldenMarked, CoverDecompose)}
