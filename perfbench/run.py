"""Benchmark harness for veechkit.

    python3 perfbench/run.py --workload census-cli --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) against the package in ../src and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, measured with nothing wrapped; with --trace 1 they are the
per-layer ones, from a fixed op list run once plain and twice traced (see
tracing.py).  The line before it carries the run's metadata.  Details
(latencies, failures, spans) go to perfbench/out/.

Plain runs run whole passes over the workload's distinct ops, each pass in
a seeded order, until --seconds have passed.  The first pass warms up and
is checked but not timed; at least the workload's minimum number of timed
passes follow.  A set-up of the inputs and a fixed stdlib reference are
timed before the first pass and after every op.  Every op's latency is
scaled by the host's speed at that moment, REFERENCE_S over the mean of the
reference timings on either side of it, and every set-up by the one right
after it.  An op's latency is its median over the timed passes;
op_p50_ms and op_tail_ms are the median and the 90th percentile of those,
ops_per_s is timed ops over their summed latency and setup_s the median
set-up time.  The unscaled figures and the mean slowdown are in the
metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("census-cli", "golden-marked", "cover-decompose")
SETUPS_BEFORE = 4     # set-ups before the first pass; one follows each op
# end-to-end times are scaled to a host on which reference() takes this long
REFERENCE_S = 0.012
HARD_STOP_S = 150.0   # the loop ends here even below its minimum passes
TAIL_PERCENTILE = 90


def reference():
    """A fixed stdlib workload whose time stands for the host's speed.

    Like veechkit it spends its time on small Fractions, tuples, sorting and
    hashing, and it shares no code with it, so a change to veechkit cannot
    change its time.  On the host the baseline was taken on it takes about
    REFERENCE_S.
    """
    points = [(Fraction(k % 13 - 6, 7), Fraction(k % 11 + 1, 5))
              for k in range(500)]
    total = 0
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        cross = ax * by - ay * bx
        total += cross.numerator % 5 + (cross < 0)
    points.sort()
    return total + len(set(points))


def tail_latency(per_op):
    """The nearest-rank TAIL_PERCENTILE-th percentile of `per_op`.

    `per_op` holds one latency for each distinct op of the workload, so the
    percentile always reads the same op of the workload's template, however
    many passes a run completes.
    """
    s = sorted(per_op)
    return s[-(-len(s) * TAIL_PERCENTILE // 100) - 1]


def run_pass(wl, indices, tracer=None, between=None):
    """Run the ops at `indices`, timing each and checking its output.

    `between()`, if given, runs after every op.
    """
    latencies, failures, fingerprints = [], [], []
    bytes_out = 0
    start = time.perf_counter()
    for i in indices:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(i)
        try:
            result = wl.op(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            result = None
            failures.append("op %d raised %r" % (i, exc))
        finally:
            if tracer is not None:
                tracer.end_op()
            latencies.append(time.perf_counter() - t0)
        if result is None:
            fingerprints.append(None)
        else:
            checked = wl.check(i, result)
            if checked.failure:
                failures.append("op %d: %s" % (i, checked.failure))
            fingerprints.append(checked.fingerprint)
            bytes_out += checked.bytes_out
        if between is not None:
            between()
    return {"seconds": time.perf_counter() - start, "latencies": latencies,
            "failures": failures, "fingerprints": fingerprints,
            "bytes_out": bytes_out}


def time_setup(wl, into):
    t0 = time.perf_counter()
    wl.setup()
    into.append(time.perf_counter() - t0)


def time_reference(into):
    t0 = time.perf_counter()
    reference()
    into.append(time.perf_counter() - t0)


def plain_run(wl, seconds):
    # A set-up and the reference are timed before the first pass and after
    # every op, so that, like the ops, they sample the host over the whole
    # run, and every op has a reference timing right before and after it.
    setup_times, reference_times = [], []

    def between():
        time_setup(wl, setup_times)
        time_reference(reference_times)

    for _ in range(SETUPS_BEFORE):
        between()
    n = len(wl.ops)
    order_rng = random.Random("%s:%d:passes" % (wl.name, wl.seed))
    samples = [[] for _ in range(n)]      # unscaled latencies
    scaled = [[] for _ in range(n)]
    failures = []
    done = 0            # passes run, the untimed warm-up pass included
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if done > 1 and elapsed >= HARD_STOP_S:
            break
        # stop where the next pass would end nearer past the deadline
        if (done > wl.min_passes
                and elapsed * (1 + 0.5 / done) >= seconds):
            break
        order = list(range(n))
        order_rng.shuffle(order)
        before = len(reference_times) - 1
        got = run_pass(wl, order, between=between)
        failures += got["failures"]
        done += 1
        if done == 1:
            continue    # the warm-up pass: checked, not timed
        # The shared host changes speed by up to 2x within seconds, so each
        # op is scaled by the reference timed on either side of it.
        for k, (i, t) in enumerate(zip(order, got["latencies"])):
            ref = (reference_times[before + k]
                   + reference_times[before + k + 1]) / 2
            samples[i].append(t)
            scaled[i].append(t * REFERENCE_S / ref)
    passes = done - 1
    ops = n * passes
    attempted = n * done

    def figures(per_sample, setups):
        per_op = [statistics.median(ts) for ts in per_sample]
        tail = tail_latency(per_op)
        return {"setup_s": statistics.median(setups),
                "ops_per_s": ops / sum(map(sum, per_sample)),
                "op_p50_ms": 1000 * statistics.median(per_op),
                "op_tail_ms": 1000 * tail}

    unscaled = figures(samples, setup_times)
    metrics = figures(scaled, [t * REFERENCE_S / ref for t, ref
                               in zip(setup_times, reference_times)])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    metrics["failed_ratio"] = len(failures) / attempted
    detail = {"passes": passes, "distinct_ops": n, "ops": ops,
              "tail_percentile": float(TAIL_PERCENTILE),
              "host_slowdown": statistics.fmean(reference_times) / REFERENCE_S,
              "unscaled": unscaled, "setup_times_s": setup_times,
              "reference_times_s": reference_times, "latencies_s": samples}
    return metrics, attempted, len(failures), failures, detail


def traced_run(wl, package):
    from tracing import Tracer, is_time_metric

    wl.setup()
    indices = list(range(len(wl.ops))) * wl.trace_passes
    plain = run_pass(wl, indices)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(package)
        try:
            got = run_pass(wl, indices, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["cli.bytes_out"] = got["bytes_out"]
        metrics["tracing.overhead_ratio"] = got["seconds"] / plain["seconds"]
        passes.append((tracer, got, metrics))
    first, second = passes[0][2], passes[1][2]
    unrepeated = sorted(k for k in first
                        if not is_time_metric(k) and first[k] != second[k])
    first["tracing.count_mismatches"] = len(unrepeated)
    problems = (plain["failures"] + passes[0][1]["failures"]
                + passes[1][1]["failures"])
    failed = len(problems)
    for k, (_, got, _) in enumerate(passes, 1):
        if got["fingerprints"] != plain["fingerprints"]:
            problems.append("traced pass %d outputs differ from the plain "
                            "pass" % k)
    for name in unrepeated:
        problems.append("count %s differs between traced passes: %r vs %r"
                        % (name, first[name], second[name]))
    detail = {"ops": len(indices), "plain_s": plain["seconds"],
              "traced_s": [p[1]["seconds"] for p in passes],
              "unrepeated_counts": unrepeated,
              "spans": passes[0][0].span_records()}
    return first, 3 * len(indices), failed, problems, detail


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "veechkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    """The checkout's commit when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the seed the frozen outputs "
                         "were taken with)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "veechkit" / "__init__.py").is_file():
        print("error: no veechkit sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import veechkit
    if Path(veechkit.__file__).resolve().parent != SRC / "veechkit":
        print("error: imported veechkit from %s, not from %s"
              % (veechkit.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    declared = declared_metrics(args.trace)
    workdir = OUT / ("work-%s-%d" % (args.workload, os.getpid()))
    wl = WORKLOADS[args.workload](seed, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, problems, detail = traced_run(
                wl, veechkit)
        else:
            metrics, attempted, failed, problems, detail = plain_run(
                wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print("error: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu_model": cpu_model(),
        "veechkit_version": veechkit.__version__,
        "veechkit_commit": git_commit(),
        "veechkit_source_sha256": source_digest(),
        "problems": problems[:20],
    }
    meta.update({k: v for k, v in detail.items()
                 if k not in ("spans", "latencies_s", "setup_times_s",
                              "reference_times_s")})
    if not args.trace:
        meta["failed_ratio"] = metrics["failed_ratio"]
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, seed, args.trace)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump({"metadata": meta, "metrics": metrics,
                   "detail": {k: v for k, v in detail.items()
                              if k != "spans"}}, fh, indent=1)
    if args.trace:
        with open(OUT / (stem + "-spans.jsonl"), "w") as fh:
            for rec in detail["spans"]:
                fh.write(json.dumps(rec) + "\n")
    for line in problems[:20]:
        print("problem: " + line, file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
