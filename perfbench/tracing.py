"""Per-layer tracing of veechkit from the outside.

A Tracer replaces each layer's public functions (and a few methods) with
wrappers, wherever a veechkit module binds them, so a call reached through
any import path is seen.  Nothing under src/ changes.

Two kinds of wrapper exist.  A *span* wrapper records one span per call
(name, start, end, parent span, op id).  A *leaf* wrapper is used for the
calls that run hundreds of thousands of times per op (FieldScalar
arithmetic, the geometry predicates, Polygon.edge/locate): it keeps no span
of its own but adds its count and self time to the nearest enclosing span.
Self time is a call's duration minus the time covered by the wrapped calls
made inside it.  Only calls made inside an op (between begin_op and end_op)
are recorded, so the benchmark's own output checks stay out of the numbers.

Not wrapped, because they are thin and run millions of times: Vec2/Mat2
methods, field.scalar and surface.rational_fraction.  Their time counts as
self time of the layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import time

# module -> (layer, span functions, leaf functions)
FUNCTIONS = {
    "field": ("field", (), (
        "commensurable", "commensurability_classes",
        "least_common_integer_multiple", "continued_fraction", "field_sqrt",
        "parse_scalar")),
    "geometry": ("geometry", (), (
        "cross", "dot", "parallel", "same_ray", "ccw_sector_contains",
        "segment_point", "segments_intersect", "dist2_point_segment",
        "polygon_contains", "horocycle_matrix", "geodesic_matrix",
        "normalize_to_vertical", "canonical_direction", "boundary_point")),
    "linear": ("geometry", (), ("twist_matrix", "is_parabolic_fixing")),
    "surface": ("surface", ("singularities", "validate"), ()),
    "trace": ("trace", (
        "trace", "advance", "separatrices", "saddle_connections",
        "is_connection_point_up_to"), ("departing_corners",)),
    "cylinders": ("cylinders", (
        "decompose", "classify_direction", "mark_ratios", "twist_orbit",
        "dehn_twist_point", "torus_signature", "signature_of_moduli"), ()),
    "covers": ("covers", (
        "build_cover", "cyclic_slit_cover", "double_cover", "riemann_hurwitz",
        "is_balanced"), ()),
    "census": ("census", (
        "census", "cusp_invariant", "fat_sequence", "census_to_json",
        "report_to_json"), ()),
    "cli": ("cli", ("main",), ()),
    "svg": ("svg", (
        "decomposition_group", "decomposition_svg", "gallery_svg"), ()),
}

# (module, class, attribute, metric key, kind)
METHODS = [
    ("surface", "Surface", "__init__", "surface.construct", "span"),
    ("surface", "Surface", "transform", "surface.transform", "span"),
    ("surface", "Polygon", "edge", "surface.edge", "leaf"),
    ("surface", "Polygon", "locate", "surface.locate", "leaf"),
    ("cylinders", "Decomposition", "locate", "cylinders.locate", "span"),
    ("cylinders", "Decomposition", "locate_normalized",
     "cylinders.locate_normalized", "span"),
]

# FieldScalar arithmetic: attribute -> op name (reflected forms count as the op)
FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "sign": "sign",
}

LAYERS = ("field", "geometry", "surface", "trace", "cylinders", "covers",
          "census", "cli", "svg")

# frame layout: [start, time covered by wrapped children, layer, agg, span id]
_START, _CHILD, _LAYER, _AGG, _SID = range(5)


class Tracer:
    """Counts, self times and spans of wrapped veechkit calls.

    `clock` is injectable so the accounting can be tested on a synthetic
    span tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.spans = []       # [id, name, parent id, op id, start, end, agg]
        self.counts = {}      # counts observed on arguments and results
        self.errors = dict.fromkeys(LAYERS, 0)
        self.field = [0, 0, 0]  # ops with a radical operand, bit sum, bit n
        self._decompose_depth = 0
        self._op_id = None
        self._domain_error = ()
        self._restore = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id):
        self._op_id = op_id
        self._push_span("op", "op", None)

    def end_op(self):
        self._pop_span(self.stack[-1])

    def _push_span(self, name, layer, parent):
        sid = len(self.spans)
        start = self.clock()
        agg = {}
        self.spans.append([sid, name, parent[_SID] if parent else None,
                           self._op_id, start, None, agg])
        frame = [start, 0.0, layer, agg, sid]
        self.stack.append(frame)
        return frame

    def _pop_span(self, frame):
        stack = self.stack
        stack.pop()
        end = self.clock()
        rec = self.spans[frame[_SID]]
        rec[5] = end
        if stack:
            stack[-1][_CHILD] += end - frame[_START]
        rec.append(end - frame[_START] - frame[_CHILD])   # self time

    def _escaped(self, layer):
        # an exception leaving a wrapped call counts once, where it leaves
        # the layer
        stack = self.stack
        if len(stack) < 2 or stack[-2][_LAYER] != layer:
            self.errors[layer] += 1

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers --------------------------------------------------------------

    def leaf_wrapper(self, fn, key, layer):
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            agg = parent[_AGG]
            frame = [clock(), 0.0, layer, agg, parent[_SID]]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._escaped(layer)
                raise
            finally:
                stack.pop()
                dur = clock() - frame[_START]
                stack[-1][_CHILD] += dur
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame[_CHILD]
        return wrapper

    def _field_op(self, fn, key, scalar_type):
        inner = self.leaf_wrapper(fn, key, "field")
        stack, stats = self.stack, self.field

        @functools.wraps(fn)
        def wrapper(*args):
            if stack:
                quadratic = False
                for x in args:
                    if type(x) is scalar_type:
                        a, b = x.a, x.b
                        stats[1] += (a.numerator.bit_length()
                                     + a.denominator.bit_length())
                        stats[2] += 2
                        if b:
                            quadratic = True
                            stats[1] += (b.numerator.bit_length()
                                         + b.denominator.bit_length())
                            stats[2] += 2
                    elif type(x) is int:
                        stats[1] += x.bit_length()
                        stats[2] += 1
                if quadratic:
                    stats[0] += 1
            return inner(*args)
        return wrapper

    def span_wrapper(self, fn, key, layer):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            self._on_enter(key, parent)
            frame = self._push_span(key, layer, parent)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(key, exc, parent)
                self._escaped(layer)
                raise
            finally:
                if key == "cylinders.decompose":
                    self._decompose_depth -= 1
                self._pop_span(frame)
            self._on_result(key, result)
            return result
        return wrapper

    # -- what the spans observe ------------------------------------------------

    def _on_enter(self, key, parent):
        if key == "trace.trace":
            if self._decompose_depth:
                self._count("trace.under_decompose")
            for frame in reversed(self.stack):
                if frame[_LAYER] != "trace":
                    if frame[_LAYER] == "census":
                        self._count("trace.calls.census")
                    break
        elif key == "cylinders.decompose":
            self._decompose_depth += 1
            if parent[_LAYER] == "cli":
                self._count("cli.redecompose")

    def _on_result(self, key, result):
        if key == "trace.trace":
            self._count("trace.segments", len(result.segments))
            if result.kind == "CapExceeded":
                self._count("trace.capped")
        elif key == "cylinders.decompose":
            self._count("cylinders.cylinders_found", len(result.cylinders))
            if not result.complete:
                self._count("cylinders.undetermined")
        elif key == "covers.build_cover":
            self._count("covers.polygons_out", len(result.polygons))

    def _on_error(self, key, exc, parent):
        if (key == "cylinders.classify_direction"
                and parent[_LAYER] == "census"
                and isinstance(exc, self._domain_error)):
            self._count("census.classify_errors")

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Wrap every target wherever a module of `package` binds it."""
        modules = _modules(package)
        self._domain_error = package.VeechkitError
        targets = {}   # id(function) -> (function, wrapper)
        for modname, (layer, spans, leaves) in FUNCTIONS.items():
            for names, make in ((spans, self.span_wrapper),
                                (leaves, self.leaf_wrapper)):
                for name in names:
                    fn = getattr(modules[modname], name)
                    targets[id(fn)] = (fn, make(fn, layer + "." + name, layer))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, hit[1])
        for modname, clsname, attr, key, kind in METHODS:
            cls = getattr(modules[modname], clsname)
            fn = cls.__dict__[attr]
            layer = key.split(".")[0]
            make = self.span_wrapper if kind == "span" else self.leaf_wrapper
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, make(fn, key, layer))
        scalar_type = modules["field"].FieldScalar
        for attr, op in FIELD_OPS.items():
            fn = scalar_type.__dict__[attr]
            self._restore.append((scalar_type, attr, fn))
            setattr(scalar_type, attr,
                    self._field_op(fn, "field." + op, scalar_type))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------------

    def totals(self):
        """(calls, self seconds) per key, spans and leaf aggregates together."""
        calls, self_s = {}, {}
        for rec in self.spans:
            name = rec[1]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + rec[7]
            for key, (n, s) in rec[6].items():
                calls[key] = calls.get(key, 0) + n
                self_s[key] = self_s.get(key, 0.0) + s
        return calls, self_s

    def metrics(self):
        """Every per-layer metric this tracer can give, by name."""
        calls, self_s = self.totals()
        counts = self.counts

        def n(key):
            return calls.get(key, 0)

        def layer_calls(layer):
            return sum(v for k, v in calls.items() if k.split(".")[0] == layer)

        def layer_self(layer):
            return sum(v for k, v in self_s.items()
                       if k.split(".")[0] == layer)

        field_ops = sum(n("field." + op) for op in set(FIELD_OPS.values()))
        trace_calls = n("trace.trace")
        decompose_calls = n("cylinders.decompose")
        out = {
            "field.ops": field_ops,
            "field.mul.calls": n("field.mul"),
            "field.div.calls": n("field.div"),
            "field.sign.calls": n("field.sign"),
            "field.quadratic_share": _ratio(self.field[0], field_ops),
            "field.operand_bits_mean": _ratio(self.field[1], self.field[2]),
            "geometry.calls": layer_calls("geometry"),
            "geometry.segments_intersect.calls":
                n("geometry.segments_intersect"),
            "surface.construct.calls": n("surface.construct"),
            "surface.construct.self_s": self_s.get("surface.construct", 0.0),
            "surface.transform.calls": n("surface.transform"),
            "surface.edge.calls": n("surface.edge"),
            "surface.locate.calls": n("surface.locate"),
            "trace.calls": trace_calls,
            "trace.segments": counts.get("trace.segments", 0),
            "trace.segments_per_call":
                _ratio(counts.get("trace.segments", 0), trace_calls),
            "trace.advance.calls": n("trace.advance"),
            "trace.capped": counts.get("trace.capped", 0),
            "trace.calls.census": counts.get("trace.calls.census", 0),
            "cylinders.decompose.calls": decompose_calls,
            "cylinders.decompose.self_s":
                self_s.get("cylinders.decompose", 0.0),
            "cylinders.traces_per_decompose":
                _ratio(counts.get("trace.under_decompose", 0),
                       decompose_calls),
            "cylinders.locate.calls": n("cylinders.locate_normalized"),
            "cylinders.cylinders_found":
                counts.get("cylinders.cylinders_found", 0),
            "cylinders.undetermined": counts.get("cylinders.undetermined", 0),
            "covers.build_cover.calls": n("covers.build_cover"),
            "covers.build_cover.self_s": self_s.get("covers.build_cover", 0.0),
            "covers.polygons_out": counts.get("covers.polygons_out", 0),
            "census.census.calls": n("census.census"),
            "census.cusp_invariant.calls": n("census.cusp_invariant"),
            "census.classify_errors": counts.get("census.classify_errors", 0),
            "cli.main.calls": n("cli.main"),
            "cli.redecompose": counts.get("cli.redecompose", 0),
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self(layer)
            out[layer + ".errors"] = self.errors[layer]
        return out

    def span_records(self):
        """Spans as JSON-ready dicts, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        return [{"id": r[0], "name": r[1], "parent": r[2], "op": r[3],
                 "start": r[4] - t0, "end": r[5] - t0, "self_s": r[7],
                 "leaf": {k: {"calls": v[0], "self_s": v[1]}
                          for k, v in sorted(r[6].items())}}
                for r in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


def _modules(package):
    out = {}
    for name in FUNCTIONS:
        out[name] = importlib.import_module(package.__name__ + "." + name)
    out["__init__"] = package
    return out


def is_time_metric(name):
    """Times vary run to run; every other per-layer metric must repeat."""
    return name.endswith("_s") or name == "tracing.overhead_ratio"
