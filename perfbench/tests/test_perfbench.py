"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import veechkit  # noqa: E402
import run  # noqa: E402
from run import tail_latency  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checked  # noqa: E402


# -- tail-percentile rule -----------------------------------------------------

@pytest.mark.parametrize("n,rank", [(1, 1), (4, 4), (8, 8), (10, 9),
                                    (11, 10), (20, 18), (21, 19)])
def test_tail_is_the_nearest_rank_90th_percentile(n, rank):
    per_op = [float(k) for k in reversed(range(1, n + 1))]
    value = tail_latency(per_op)
    assert value == float(rank)
    # at least 90% of the ops are at or below it, and it is the least such
    assert sum(1 for x in per_op if x <= value) >= 0.9 * n
    assert sum(1 for x in per_op if x < value) < 0.9 * n


def test_tail_reads_the_same_op_however_many_passes_ran():
    # per-op latencies, not samples, so more passes cannot move the rank
    assert tail_latency([5.0, 1.0, 3.0, 2.0]) == 5.0
    assert tail_latency([1.0] * 10 + [2.0]) == 1.0


# -- the plain run's passes, set-ups and host scaling -------------------------

class CountingWorkload:
    """Three instant ops that record the order they ran in."""

    name = "counting"
    seed = 0
    min_passes = 3

    def __init__(self):
        self.ops = [0, 1, 2]
        self.ran, self.setups = [], 0

    def setup(self):
        self.setups += 1

    def op(self, i):
        self.ran.append(i)
        return i

    def check(self, i, result):
        return Checked(None if result == i else "wrong", "", 0)


def test_plain_run_warms_up_then_times_whole_passes(monkeypatch):
    monkeypatch.setattr(run, "reference", lambda: None)
    wl = CountingWorkload()
    metrics, attempted, failed, _, detail = run.plain_run(wl, 0.0)
    assert failed == 0 and metrics["failed_ratio"] == 0
    assert detail["passes"] == wl.min_passes
    assert attempted == len(wl.ran) == 3 * (wl.min_passes + 1)
    # the warm-up pass is run but not timed
    assert all(len(ts) == wl.min_passes for ts in detail["latencies_s"])
    assert detail["ops"] == 3 * wl.min_passes
    # four set-ups before the first pass and one after every op
    assert wl.setups == len(detail["setup_times_s"]) == 4 + attempted
    assert len(detail["reference_times_s"]) == wl.setups


def test_end_to_end_times_are_divided_by_the_host_slowdown(monkeypatch):
    # a reference that always takes twice REFERENCE_S: the host is at half
    # speed, so every scaled time is half the unscaled one
    monkeypatch.setattr(run, "time_reference",
                        lambda into: into.append(2 * run.REFERENCE_S))
    metrics, _, _, _, detail = run.plain_run(CountingWorkload(), 0.0)
    assert detail["host_slowdown"] == 2
    raw = detail["unscaled"]
    for name in ("setup_s", "op_p50_ms", "op_tail_ms"):
        assert metrics[name] == pytest.approx(raw[name] / 2)
    assert metrics["ops_per_s"] == pytest.approx(raw["ops_per_s"] * 2)


# -- self-time accounting ----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_nested_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def field_op():
        clock.advance(4)

    add = tracer.leaf_wrapper(field_op, "field.add", "field")

    def geometry_op():
        clock.advance(1)
        add()
        clock.advance(1)

    cross = tracer.leaf_wrapper(geometry_op, "geometry.cross", "geometry")

    def middle():
        clock.advance(2)
        cross()
        cross()
        clock.advance(3)

    sep = tracer.span_wrapper(middle, "trace.separatrices", "trace")

    def outer():
        clock.advance(1)
        sep()
        clock.advance(5)

    top = tracer.span_wrapper(outer, "census.census", "census")

    top()                         # outside an op: not recorded
    assert tracer.spans == []

    tracer.begin_op(7)
    top()
    clock.advance(0.5)
    tracer.end_op()

    calls, self_s = tracer.totals()
    assert calls == {"op": 1, "census.census": 1, "trace.separatrices": 1,
                     "geometry.cross": 2, "field.add": 2}
    assert self_s["field.add"] == 8
    assert self_s["geometry.cross"] == 4
    assert self_s["trace.separatrices"] == 5
    assert self_s["census.census"] == 6
    assert self_s["op"] == 0.5
    # the self times partition the op's duration
    assert sum(self_s.values()) == 23.5

    spans = {r["name"]: r for r in tracer.span_records()}
    assert spans["trace.separatrices"]["parent"] == spans["census.census"]["id"]
    assert spans["census.census"]["parent"] == spans["op"]["id"]
    assert {r["op"] for r in spans.values()} == {7}
    # leaf calls are aggregated under the nearest span
    assert spans["trace.separatrices"]["leaf"] == {
        "field.add": {"calls": 2, "self_s": 8},
        "geometry.cross": {"calls": 2, "self_s": 4}}

    metrics = tracer.metrics()
    assert metrics["field.self_s"] == 8
    assert metrics["geometry.calls"] == 2
    assert metrics["census.self_s"] == 6


def test_escaping_exception_counts_once_per_layer():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.span_wrapper(boom, "trace.saddle_connections", "trace")
    outer = tracer.span_wrapper(lambda: inner(), "trace.separatrices", "trace")
    top = tracer.span_wrapper(lambda: outer(), "census.census", "census")
    tracer.begin_op(0)
    with pytest.raises(ValueError):
        top()
    tracer.end_op()
    assert tracer.errors["trace"] == 1
    assert tracer.errors["census"] == 1


# -- the tracer on the real package ------------------------------------------

def test_install_wraps_every_binding_and_uninstall_restores_it():
    # the package re-exports functions named like its modules (trace, census)
    trace_mod = sys.modules["veechkit.trace"]
    cylinders = sys.modules["veechkit.cylinders"]
    census = sys.modules["veechkit.census"]
    original = trace_mod.trace
    tracer = Tracer()
    tracer.install(veechkit)
    try:
        assert cylinders.trace is not original
        assert trace_mod.trace is cylinders.trace is veechkit.trace
        assert census.saddle_connections is veechkit.saddle_connections
        surf = veechkit.Surface.cross(1, 1)
        tracer.begin_op(0)
        deco = veechkit.decompose(surf, (1, 0))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert cylinders.trace is original
    assert trace_mod.trace is original
    assert veechkit.trace is original
    m = tracer.metrics()
    assert m["cylinders.decompose.calls"] == 1
    assert m["cylinders.cylinders_found"] == len(deco.cylinders) == 3
    assert m["trace.calls"] == m["cylinders.traces_per_decompose"] > 0
    assert m["field.ops"] > 0 and m["field.quadratic_share"] == 0


def test_tracer_gives_every_declared_per_layer_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    harness = {"cli.bytes_out", "tracing.overhead_ratio",
               "tracing.count_mismatches"}
    names = {m["name"] for m in bench["per_layer"]}
    assert names - harness == set(Tracer().metrics())


# -- input generators ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name, tmp_path):
    make = WORKLOADS[name]
    first = make(5, tmp_path).generate()
    assert make(5, tmp_path).generate() == first
    assert make(6, tmp_path).generate() != first
    json.dumps(first)   # plain data only


def _orbit(direction):
    # directions the symmetries of the cross map onto each other
    return tuple(sorted(abs(c) for c in direction))


def _cost_classes(name, spec):
    """The seed-independent part of a workload's inputs: its cost classes."""
    if name == "census-cli":
        return sorted(sorted(_orbit(d) for d in batch)
                      for batch in spec["batches"])
    if name == "golden-marked":
        return sorted(_orbit(d) for _, d in spec["ops"])
    return sorted((op["kind"], op["degree"], op["direction"],
                   len(op.get("slits", ()))) for op in spec["ops"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_gets_the_same_mix_of_ops(name, tmp_path):
    make = WORKLOADS[name]
    first = _cost_classes(name, make(1, tmp_path).generate())
    for seed in range(2, 12):
        assert _cost_classes(name, make(seed, tmp_path).generate()) == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_run_repeats_each_op(name):
    # an op's latency is its median over several passes
    assert WORKLOADS[name].min_passes >= 3
