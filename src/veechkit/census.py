"""Per-direction reports: cusp invariants, fat-direction sequences, census runs."""

from __future__ import annotations

import json

from .cylinders import classify_direction
from .errors import NoConnections, NotComplete, VeechkitError, ZeroInput
from .geometry import _as_vec, boundary_point, canonical_direction, cross, dot
from .linear import is_parabolic_fixing
# saddle_connections is not called here, but perfbench's tracer test checks
# that its wrapper replaces this binding
from .trace import SINGULAR, saddle_connections, separatrices  # noqa: F401

__all__ = [
    "CuspInvariant", "cusp_invariant", "FatStep", "fat_sequence",
    "DirectionReport", "census", "report_to_json", "census_to_json",
]


class CuspInvariant:
    """Multiset of pairwise saddle-connection length ratios in one direction.

    Lengths are flow parameters along the direction (a common scale factor
    away from euclidean length, so the ratios are the same either way),
    sorted ascending; ratios is the multiset length[i]/length[j] over i < j,
    also sorted, so every entry is <= 1.

    `cusp_invariant` traces the connections in the surface's own frame,
    capped by euclidean length.  A census row reads them off its complete
    decomposition instead, which holds every forward saddle connection
    once, found within a cap on flow time in the normalized frame.
    """

    __slots__ = ("lengths", "ratios")

    def __init__(self, lengths):
        self.lengths = sorted(lengths)
        ratios = []
        for i in range(len(self.lengths)):
            for j in range(i + 1, len(self.lengths)):
                ratios.append(self.lengths[i] / self.lengths[j])
        ratios.sort()
        self.ratios = ratios

    def __eq__(self, other):
        if not isinstance(other, CuspInvariant):
            return NotImplemented
        return self.ratios == other.ratios

    def __hash__(self):
        return hash(tuple(self.ratios))

    def __repr__(self):
        return "CuspInvariant({%s})" % ", ".join(str(r) for r in self.ratios)


def cusp_invariant(surface, direction, cap=None) -> CuspInvariant:
    """The ratio multiset of the saddle connections along `direction`.

    Only the forward direction is scanned.  Raises NotComplete when a
    separatrix runs past the cap, since its connection, if any, would be
    missing, and NoConnections when the direction carries no saddle
    connection at all (a once-punctured torus has none, for instance).
    """
    v = _as_vec(direction)
    seps = separatrices(surface, v, cap=cap)
    conns = [ev for _, ev in seps if ev.kind == SINGULAR]
    if len(conns) < len(seps):
        raise NotComplete("a separatrix along %s runs past the cap"
                          % canonical_direction(v))
    if not conns:
        raise NoConnections("no saddle connection along %s"
                            % canonical_direction(v))
    return CuspInvariant([ev.param for ev in conns])


# -- sequences of fat directions ----------------------------------------------


class FatStep:
    """One entry of a fat_sequence: the direction phi^-n applied to the seed."""

    __slots__ = ("n", "direction", "kind", "ratio", "gap")

    def __init__(self, n, direction, kind, ratio, gap):
        self.n = n
        self.direction = direction
        self.kind = kind
        self.ratio = ratio
        self.gap = gap

    def __repr__(self):
        return "FatStep(n=%d, dir=%s, %s, ratio=%s)" % (
            self.n, self.direction, self.kind, self.ratio)


def fat_sequence(surface, theta, phi, seed_direction, n, cap=None):
    """Directions phi^-k(seed) for k = 1..n, classified one by one.

    phi must be parabolic and fix `theta` (NotParabolicMatrix otherwise);
    the produced directions then converge to theta, and each step records
    the classification kind, the certificate ratio when the step is Fat,
    and the slope gap to theta: |cross(dir, theta)| / |dot(dir, theta)|,
    the tangent of the angle between them (None on a perpendicular hit).
    """
    theta = canonical_direction(_as_vec(theta))
    is_parabolic_fixing(phi, theta)
    back = phi.inverse()
    steps = []
    v = _as_vec(seed_direction)
    if v.is_zero():
        raise ZeroInput("seed direction must be nonzero")
    for k in range(1, n + 1):
        v = back * v
        dirc = canonical_direction(v)
        cls = classify_direction(surface, dirc, cap=cap)
        ratio = cls.certificate[2] if cls.kind == "Fat" else None
        den = dot(dirc, theta)
        gap = abs(cross(dirc, theta)) / abs(den) if den else None
        steps.append(FatStep(k, dirc, cls.kind, ratio, gap))
    return steps


# -- census -------------------------------------------------------------------


class DirectionReport:
    """Everything the census records about one direction.

    `decomposition` and `error` stay out of the canonical JSON:
    `decomposition` is the Decomposition the classification was read from
    (None when it raised), and `error` is (error type name, message) of the
    VeechkitError that left the row Undetermined, else None.
    """

    __slots__ = ("direction", "kind", "xi", "m", "s_prime", "cusp",
                 "certificate", "decomposition", "error")

    def __init__(self, direction, kind, xi, m=None, s_prime=None, cusp=None,
                 certificate=None, decomposition=None, error=None):
        self.direction = direction
        self.kind = kind
        self.xi = xi          # boundary slope invariant x/y, None = horizontal
        self.m = m
        self.s_prime = s_prime
        self.cusp = cusp      # CuspInvariant, for parabolic directions
        self.certificate = certificate
        self.decomposition = decomposition
        self.error = error

    def __repr__(self):
        return "DirectionReport(%s, %s)" % (self.direction, self.kind)


def census(surface, directions, cap=None):
    """One DirectionReport per entry of `directions`, in input order.

    A direction the machinery cannot settle (incomplete decomposition, a
    domain error along the way) comes back Undetermined rather than
    raising, so a long run always produces a full table; a domain error is
    kept on the report's `error`.  A Parabolic row's cusp invariant is built
    from the saddle connections of its decomposition, so `cap` bounds it as
    it bounds `decompose`: by flow time in the normalized frame, where the
    direction is (0, 1).  It is None when the direction has no saddle
    connection.
    """
    reports = []
    for d in directions:
        dirc = canonical_direction(_as_vec(d))
        xi = boundary_point(dirc)
        try:
            cls = classify_direction(surface, dirc, cap=cap)
        except VeechkitError as exc:
            reports.append(DirectionReport(
                dirc, "Undetermined", xi, error=(type(exc).__name__, str(exc))))
            continue
        m = cls.signature.m if cls.signature else None
        cusp = None
        if cls.kind == "Parabolic":
            # the frame maps dirc exactly to (0, 1), so a connection's flow
            # parameter in the normalized frame is its parameter along dirc
            lengths = [ev.param for _, ev in cls.decomposition.connections]
            cusp = CuspInvariant(lengths) if lengths else None
        reports.append(DirectionReport(dirc, cls.kind, xi, m=m,
                                       s_prime=cls.s_prime, cusp=cusp,
                                       certificate=cls.certificate,
                                       decomposition=cls.decomposition))
    return reports


def _scalar_json(x):
    return None if x is None else x.to_json()


def report_to_json(rep: DirectionReport) -> dict:
    cert = None
    if rep.certificate is not None:
        mk, cyl, ratio = rep.certificate
        cert = {"mark": mk, "cylinder": cyl, "ratio": ratio.to_json()}
    return {
        "direction": rep.direction.to_json(),
        "class": rep.kind,
        "xi": _scalar_json(rep.xi),
        "m": rep.m,
        "s_prime": _scalar_json(rep.s_prime),
        "cusp_ratios": (None if rep.cusp is None
                        else [r.to_json() for r in rep.cusp.ratios]),
        "certificate": cert,
    }


def census_to_json(reports) -> str:
    """Canonical serialization: byte-identical across runs on equal input."""
    return json.dumps([report_to_json(r) for r in reports],
                      sort_keys=True, separators=(",", ":"))
