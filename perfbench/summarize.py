"""Summarize benchmark results: median and quartiles per workload and metric.

    python3 perfbench/summarize.py perfbench/out/result-*-trace0.json

Quartiles are ``statistics.quantiles(values, n=4)``; ``spread`` is their
distance as a share of the median, the figure each end-to-end bound must
exceed.  Prints JSON.
"""

import json
import statistics
import sys


def summarize(paths):
    by_workload = {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        by_workload.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(by_workload.items()):
        metrics = {}
        names = {**records[0]["metrics"], **records[0].get("extra", {})}
        for name, first in names.items():
            values = [{**r["metrics"], **r.get("extra", {})}[name]["value"]
                      for r in records if name in {**r["metrics"], **r.get("extra", {})}]
            median = statistics.median(values)
            entry = {"unit": first["unit"], "median": median, "runs": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / median if median else None)
            metrics[name] = entry
        out[workload] = {"seeds": sorted(r["seed"] for r in records),
                         "metrics": metrics}
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
