"""Closed-loop benchmark of the gpcbf safety filter.

One workload, one seed:

    python3 perfbench/run.py --workload acc --seed 0 --seconds 45 --trace 0

runs ``gpcbf.experiment.run_benchmark`` on the workload's config again and
again until ``--seconds`` have passed (at least once), checks the paper's
outcome on every run, and prints the end-to-end metrics, then as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
the metrics BENCHMARK.json declares.  ``attempted`` counts GP-filter steps;
``failed`` counts those whose status is not ``optimal``, plus every step of
a run that fails its outcome check.  With ``--trace 1`` one more run follows
with a span on each layer, and the JSON carries the per-layer metrics
instead.  The full record, with the environment, goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` and the spans of a
traced run to ``<workload>-seed<n>-spans.csv`` beside it.

All workloads, several seeds each, and one traced run each:

    python3 perfbench/run.py --workload all [--runs 5] [--compare OLD.json]

prints every metric with its median, quartiles and sample count and saves
the summary to ``.perfbench_out/suite.json``.  It exits non-zero if any
check fails, or, with ``--compare`` and a copy of an earlier summary, if an
end-to-end median moved by more than its bound in BENCHMARK.json or an
exact count differs.

The benchmark runs the package from ``src/`` beside this directory and
exits with code 2 when that source is missing.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload in its own process; returns its record."""
    from measure import record_path

    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    path = record_path(workload, seed, trace)
    if proc.returncode not in (0, 1) or not path.exists():
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(path.read_text())


def suite(args, declared: dict) -> int:
    from measure import OUT, UNITS, quartiles
    from workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {}
    ok = True
    for workload in WORKLOADS:
        for path in OUT.glob(f"{workload}-seed*"):
            path.unlink()
        records = [run_child(workload, seed, args.seconds, 0) for seed in range(args.runs)]
        traced = run_child(workload, 0, args.seconds, 1)
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        metrics = {
            name: quartiles([r["end_to_end"][name] for r in records])
            for name in records[0]["end_to_end"]
        }
        counts = dict(records[0]["counts"], **traced["traced"]["trace_counts"])
        failures = [f for r in records + [traced] for f in r["failures"]]
        ok = ok and not failures
        summary[workload] = {
            "metrics": metrics,
            "failed_step_share": failed / attempted,
            "per_layer": traced["result"]["metrics"],
            "counts": counts,
            "failures": failures,
        }
        print(
            f"{workload}: seeds 0-{args.runs - 1}, {args.seconds} s each; failed_step_share "
            f"{failed / attempted:.6g} ({failed}/{attempted} GP-filter steps)"
        )
        for name, s in metrics.items():
            gate = f"bound {bounds[name]}" if name in bounds else "not gated"
            print(
                f"  {name:<20} {s['median']:<12.6g} {UNITS[name]:<6} "
                f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n={s['n']}  {gate}"
            )
        print("  per layer, traced run at seed 0:")
        for name, m in traced["result"]["metrics"].items():
            print(f"    {name:<42} {m['value']:.6g} {m['unit']}")
        print(f"  exact counts {counts}")
        for failure in failures:
            print(f"  CHECK FAILED: {failure}")

    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        for workload, cur in summary.items():
            prev = old[workload]
            for name, bound in bounds.items():
                a, b = prev["metrics"][name]["median"], cur["metrics"][name]["median"]
                if abs(b - a) > bound * abs(a):
                    ok = False
                    print(f"COMPARE {workload} {name}: {a:.6g} -> {b:.6g}, beyond bound {bound}")
            if prev["counts"] != cur["counts"]:
                ok = False
                print(f"COMPARE {workload} counts: {prev['counts']} -> {cur['counts']}")
        print(f"compared with {args.compare}: {'agree' if ok else 'DIFFER'}")
    save = OUT / "suite.json"
    save.write_text(json.dumps(summary, indent=1))
    print(f"summary {save.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="acc, suspension, acc-dense or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5, help="seeds per workload with 'all'")
    parser.add_argument("--compare", help="suite summary to compare against, with 'all'")
    args = parser.parse_args(argv)

    if not (SRC / "gpcbf" / "__init__.py").is_file():
        print(f"error: no gpcbf source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import OUT, measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return suite(args, declared)
    return measure(args.workload, args.seed, args.seconds, args.trace, declared)


if __name__ == "__main__":
    sys.exit(main())
