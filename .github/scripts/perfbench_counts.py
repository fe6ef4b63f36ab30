"""The count-valued part of a traced perfbench record, as sorted JSON.

    python .github/scripts/perfbench_counts.py RECORD.json

Prints the record's exact ``counts``, its ``traced.trace_counts`` and the
per-layer metrics that count events rather than time them: every
``*.calls`` metric, the ``socp.solve`` projection share, iterations and
non-optimal steps, ``gp.fit.n`` and ``episodic.label_episode.rows``.  Two
records of the same workload and seed print the same text when the code
under them calls each layer equally often and takes the same paths; times
are left out, so the host's speed does not enter.
"""

import json
import sys

COUNT_METRICS = (
    "socp.solve.ipm_share",
    "socp.solve.ipm_iterations",
    "socp.solve.non_optimal",
    "gp.fit.n",
    "episodic.label_episode.rows",
)


def count_view(record: dict) -> dict:
    metrics = record["result"]["metrics"]
    return {
        "counts": record["counts"],
        "trace_counts": record["traced"]["trace_counts"],
        "metrics": {
            name: entry["value"]
            for name, entry in metrics.items()
            if name.endswith(".calls") or name in COUNT_METRICS
        },
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        print(json.dumps(count_view(json.load(fh)), indent=2, sort_keys=True))
