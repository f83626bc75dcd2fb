"""Recompute frozen.json: the outputs of the default seed at this commit.

    python3 perfbench/freeze.py

The benchmark compares every census-cli op (census JSON digest) and every
golden-marked op (kind and certificate) of the default seed against these
values.  Rerun this only for a commit that changes those outputs on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, FROZEN, CensusCli, GoldenMarked  # noqa: E402


def main():
    frozen = {"default_seed": DEFAULT_SEED}
    workdir = HERE / "out" / ("work-freeze-%d" % os.getpid())
    try:
        wl = CensusCli(DEFAULT_SEED, workdir)
        wl.setup()
        wl.frozen = None
        digests = []
        for k in range(len(wl.batches)):
            result = wl.op(k)
            digests.append(hashlib.sha256(
                wl.out["json"].read_bytes()).hexdigest())
            failure = wl.check(k, result).failure
            if failure:
                raise SystemExit("census-cli op %d: %s" % (k, failure))
        frozen[CensusCli.name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wl = GoldenMarked(DEFAULT_SEED, workdir)
    wl.setup()
    wl.frozen = None
    values = []
    for i in range(len(wl.ops)):
        checked = wl.check(i, wl.op(i))
        if checked.failure:
            raise SystemExit("golden-marked op %d: %s" % (i, checked.failure))
        values.append(json.loads(checked.fingerprint))
    frozen[GoldenMarked.name] = values

    with open(FROZEN, "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
