"""Medians and quartiles of benchmark results.

    python3 perfbench/summarize.py RESULT...

Each RESULT is a file holding the output of one `run.py` invocation (the
last line is read).  Results are grouped by workload; for every metric the
script prints the median, the quartiles as statistics.quantiles(n=4) gives
them, and the spread (q3 - q1) / median, and emits the same as JSON on its
last line.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths):
    values = {}
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        meta = json.loads(lines[-2])["metadata"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit("%s: run reported correct=false" % path)
        per = values.setdefault(meta["workload"], {})
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    out = {}
    for workload, per in sorted(values.items()):
        out[workload] = {}
        for name, vals in per.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            out[workload][name] = {
                "n": len(vals), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv):
    out = summarize(argv)
    for workload, per in out.items():
        print(workload)
        for name, s in per.items():
            print("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
