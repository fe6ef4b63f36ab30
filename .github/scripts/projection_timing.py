"""Time ``socp.solve`` per call on the seeded m >= 2 cones of the projection tests.

Draws the 120 ``_projection_draws(m, r)`` of ``tests/test_socp.py`` for
m in {2, 3} and r in {2, 3, 4}, 720 cones with their u_nom, and times
``solve(u_nom, cone, tol=1e-9)`` on each: the best of ``--repeats`` calls
gives its time per call.  Prints one JSON line with, for each path the
solve took (u_nom already in the cone, projected, or infeasible), the count
of draws and their median per-call microseconds.

    PYTHONPATH=src:tests python .github/scripts/projection_timing.py [--repeats 5]

It reads only ``solve``, its ``status`` and ``analytic`` fields and the
test module's ``_projection_draws``, so the same script times any commit
that has them.
"""

import argparse
import gc
import json
import statistics
import time

from gpcbf.socp import STATUS_OPTIMAL, solve
from test_socp import _projection_draws


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    times = {"analytic": [], "projected": [], "infeasible": []}
    gc.disable()
    for m in (2, 3):
        for r in (2, 3, 4):
            for cone, u_nom in _projection_draws(m, r):
                best = float("inf")
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    out = solve(u_nom, cone, tol=1e-9)
                    best = min(best, time.perf_counter() - start)
                if out.status != STATUS_OPTIMAL:
                    path = "infeasible"
                else:
                    path = "analytic" if out.analytic else "projected"
                times[path].append(best)
    report = {
        path: {"draws": len(v), "median_us": round(1e6 * statistics.median(v), 1) if v else None}
        for path, v in times.items()
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
