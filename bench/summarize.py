"""Summarize benchmark records into one result document.

Usage: python3 bench/summarize.py --label TEXT RECORD.json... > result.json

Each record is a file that ``run.py`` kept under ``.bench_run/records/``.
For every workload the summary gives each end-to-end metric's values over
the untraced records with their median, quartiles and spread (the
interquartile range as a share of the median, from
``statistics.quantiles(values, n=4)``), the failure counts, and the
per-layer metrics and tracing overhead of the traced records.
"""

import argparse
import json
import statistics
import sys


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize(records: list[dict]) -> dict:
    workloads: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = workloads.setdefault(rec["workload"], {
            "runs": [], "attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {},
            "trace_overhead_s": []})
        entry["runs"].append({"seed": rec["seed"], "dataset_seed": rec["dataset_seed"],
                              "trace": rec["trace"], "inputs": rec["inputs"],
                              "samples": rec["samples"]})
        entry["attempted"] += rec["attempted"]
        entry["failed"] += rec["failed"]
        if rec["trace"]:
            for name, value in rec["per_layer"].items():
                entry["per_layer"].setdefault(name, []).append(value)
            entry["trace_overhead_s"].append(rec["trace_overhead_s"])
        else:
            for name, value in rec["end_to_end"].items():
                entry["end_to_end"].setdefault(name, []).append(value)
    for entry in workloads.values():
        entry["end_to_end"] = {k: spread_of(v) for k, v in entry["end_to_end"].items()}
        entry["per_layer"] = {k: statistics.median(v) for k, v in entry["per_layer"].items()}
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    return {"machine": [json.loads(m) for m in sorted(machines)],
            "seconds": sorted({r["seconds"] for r in records}), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("records", nargs="+")
    args = parser.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    json.dump({"label": args.label, **summarize(records)}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
