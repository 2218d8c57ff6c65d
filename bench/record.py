"""Record the reference results the benchmark checks against.

    python3 bench/record.py [WORKLOAD ...]

Writes ``bench/reference/<workload>.json`` from the current abckit in
``src/``: the calibrated C and the triple digests of the two fixed
workloads, and for the two batch workloads the catalogue the seeded
samples are drawn from, each item with its reference result.  Re-record
only when a change to abckit is meant to change these outputs.
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from abckit import factor_int  # noqa: E402
from generators import (  # noqa: E402
    CATALOGUE_FACTOR,
    QUAD_BUCKETS,
    QUAD_CATALOGUE_PER_CELL,
    REFERENCE_DIR,
    RECURRENCE_MIX,
    quad_candidate,
    recurrence_candidate,
    recurrence_category,
)
from qarith import FIELDS  # noqa: E402
from spans import NullTracer  # noqa: E402
from job import WARM_UP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_CANDIDATES = 200_000


def _fixed(name: str) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.inputs(0)
    out, _ = workload.run(inputs, NullTracer())
    return workload.reference_record(inputs, out)


def _recurrences() -> dict:
    rng = random.Random("recurrence_catalogue")
    workload = WORKLOADS["recurrence_batch"]
    wanted = {cell: CATALOGUE_FACTOR * n for cell, n in RECURRENCE_MIX.items()}
    catalogue = []
    for _ in range(MAX_CANDIDATES):
        if not any(wanted.values()):
            break
        item = recurrence_candidate(rng)
        verdicts, calls = workload.run({"batch": [item]}, NullTracer())
        item["verdict"] = verdicts[0]
        item["cost_ms"] = round(1000 * calls[0], 3)
        item["category"] = recurrence_category(item["verdict"])
        cell = (item["category"], item["field"])
        if wanted.get(cell):
            wanted[cell] -= 1
            catalogue.append(item)
    short = {f"{c}/{f}": n for (c, f), n in wanted.items() if n}
    if short:
        raise SystemExit(f"catalogue cells left short: {short}")
    return {"catalogue": catalogue}


def _quads() -> dict:
    rng = random.Random("quad_catalogue")
    workload = WORKLOADS["quad_reports"]
    catalogue = []
    for d in FIELDS:
        for lo, hi in QUAD_BUCKETS:
            for _ in range(QUAD_CATALOGUE_PER_CELL):
                item = quad_candidate(rng, d, (lo, hi))
                item["bucket"] = f"{lo}-{hi}"
                inputs = {"batch": [item], "elements": workload.elements([item])}
                reports, calls = workload.run(inputs, NullTracer())
                if "error" in reports[0]:
                    raise SystemExit(f"reference run failed on {item}: {reports[0]}")
                item["margins"] = workload.reference_margins(reports[0])
                item["cost_ms"] = round(1000 * calls[0], 3)
                catalogue.append(item)
    return {"catalogue": catalogue}


RECORDERS = {
    "calibrate": lambda: _fixed("calibrate"),
    "smooth_search": lambda: _fixed("smooth_search"),
    "recurrence_batch": _recurrences,
    "quad_reports": _quads,
}


def _write(name: str, data: dict) -> None:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "w") as fh:
        if "catalogue" in data:
            # one catalogue item per line keeps diffs of a re-record readable
            fh.write('{"catalogue": [\n')
            fh.write(",\n".join(json.dumps(item, sort_keys=True) for item in data["catalogue"]))
            fh.write("\n]}\n")
        else:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    factor_int(WARM_UP)  # build the prime sieve before any cost is recorded
    for name in sys.argv[1:] or RECORDERS:
        _write(name, RECORDERS[name]())
        print(f"recorded {name}")
