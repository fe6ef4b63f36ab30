"""Measurement of one workload at one seed; ``run.py`` is its command line.

Untraced runs give the end-to-end metrics; with tracing on, one more run
with a span on each layer gives the per-layer metrics.  Every run is
checked: the paper's outcome, exact counts that must repeat between runs,
and, when traced, the trace's own consistency.
"""

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import gpcbf
from gpcbf.experiment import run_benchmark

import environment
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7  # measured set-ups per run, after one unmeasured warm-up
# Units of the end-to-end values every untraced run reports, gated or not.
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "filter_p50_us": "us",
    "filter_p99_us": "us",
    "optimal_step_share": "ratio",
    "peak_rss_mb": "MB",
}


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_once(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def _run_quietly(run, cfg):
    """``run(cfg, out_dir)`` in a scratch directory, with its printing discarded."""
    out_dir = tempfile.mkdtemp(dir=OUT)
    try:
        with redirect_stdout(io.StringIO()):
            return run(cfg, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def timed_run(cfg, workload: str) -> dict:
    """One untraced run: wall and CPU time, filter-step latencies, checks."""
    latencies = []

    def timed(controller):
        clock = time.perf_counter_ns

        def step(t, x):
            t0 = clock()
            out = controller(t, x)
            latencies.append(clock() - t0)
            return out

        return step

    def run(cfg, out_dir):
        w0, c0 = time.perf_counter(), time.process_time()
        result = run_benchmark(cfg, out_dir)
        return result, time.perf_counter() - w0, time.process_time() - c0

    restore = []
    spans.wrap_gp_controller(timed, restore)
    try:
        result, run_s, cpu_s = _run_quietly(run, cfg)
    finally:
        spans.uninstall(restore)
    counts = workloads.exact_counts(result)
    failures = workloads.outcome_check(workload, result)
    if len(latencies) != counts["gp_filter_steps"]:
        failures.append(
            f"timed {len(latencies)} filter steps, logs hold {counts['gp_filter_steps']}"
        )
    us = np.asarray(latencies) / 1e3
    return {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "filter_p50_us": float(np.percentile(us, 50)),
        "filter_p99_us": float(np.percentile(us, 99)),
        "counts": counts,
        "failures": failures,
    }


def traced_run(cfg, workload: str, seed: int, counts: dict) -> dict:
    """One run with a span on each layer: per-layer metrics and the trace checks."""
    tracer = spans.Tracer(run_id=f"{workload}-seed{seed}-traced")
    restore = spans.install(tracer)
    try:
        result = _run_quietly(tracer.wrap(spans.ROOT_SPAN, run_benchmark), cfg)
    finally:
        spans.uninstall(restore)
    dur, self_ns, child_sum = spans.self_times(tracer)
    stats = spans.layer_metrics(tracer, dur, self_ns)
    failures = workloads.outcome_check(workload, result)
    failures += spans.check(tracer, dur, self_ns, child_sum)
    if workloads.exact_counts(result) != counts:
        failures.append(f"traced run counts {workloads.exact_counts(result)} differ from {counts}")
    seen = {
        "control_steps": stats.get("episodic.run_episode.control_steps"),
        "dataset_n": stats.get("gp.fit.n"),
        "gp_filter_steps": stats.get("gp.posterior_coefficients.calls"),
        "ipm_iterations": stats.get("socp.solve.ipm_iterations"),
    }
    failures += [
        f"trace saw {key}={value}, the run's logs hold {counts[key]}"
        for key, value in seen.items()
        if value != counts[key]
    ]
    spans_path = OUT / f"{workload}-seed{seed}-spans.csv"
    tracer.write_csv(str(spans_path))
    return {
        "run_s": int(dur[tracer.names.index(spans.ROOT_SPAN)]) / 1e9,
        "stats": stats,
        "trace_counts": {
            "rk4_calls": stats.get("plants.rk4_step.calls"),
            "posterior_calls": stats.get("gp.posterior_coefficients.calls"),
            "matrix_sqrt_factor_per_step": stats.get("socp.matrix_sqrt_factor.per_step"),
            "assemble_safety_cone_per_step": stats.get("socp.assemble_safety_cone.per_step"),
        },
        "failures": failures,
        "spans_csv": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.names),
    }


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def measure(workload: str, seed: int, seconds: int, trace: int, declared: dict) -> int:
    """Measure, print the report and the result line; 0 when every check holds."""
    if not Path(gpcbf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gpcbf imported from {gpcbf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment.record(ROOT)
    cfg = workloads.make_config(workload, seed)
    setup_once(workload, seed)  # warm-up: file cache and bytecode
    setup = [setup_once(workload, seed) for _ in range(SETUP_REPS)]

    reps = []
    t_begin = time.perf_counter()
    while not reps or time.perf_counter() - t_begin < seconds:
        reps.append(timed_run(cfg, workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for rep in reps for f in rep["failures"]]
    counts = reps[0]["counts"]
    if any(rep["counts"] != counts for rep in reps):
        failures.append(f"exact counts differ between runs: {[rep['counts'] for rep in reps]}")
    attempted = sum(rep["counts"]["gp_filter_steps"] for rep in reps)
    failed = sum(
        rep["counts"]["gp_filter_steps"] if rep["failures"] else rep["counts"]["non_optimal_steps"]
        for rep in reps
    )
    samples = {"setup_s": setup}
    for name in ("run_s", "cpu_s", "filter_p50_us", "filter_p99_us"):
        samples[name] = [rep[name] for rep in reps]
    summary = {name: quartiles(values) for name, values in samples.items()}
    e2e = {name: s["median"] for name, s in summary.items()}
    e2e["optimal_step_share"] = (attempted - failed) / max(attempted, 1)
    e2e["peak_rss_mb"] = peak_rss_mb

    traced = None
    metrics, declared_metrics = e2e, declared["end_to_end"]
    if trace:
        traced = traced_run(cfg, workload, seed, counts)
        failures += traced["failures"]
        metrics = dict(traced["stats"], **{"trace.overhead_s": traced["run_s"] - e2e["run_s"]})
        declared_metrics = declared["per_layer"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    env["load_average_end"] = os.getloadavg()
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": workloads.inputs(cfg),
        "environment": env,
        "samples": samples,
        "end_to_end": e2e,
        "failed_step_share": failed / max(attempted, 1),
        "counts": counts,
        "failures": failures,
        "traced": traced,
        "result": line,
    }
    path = record_path(workload, seed, trace)
    path.write_text(json.dumps(record, indent=1))

    print(
        f"workload {workload} seed {seed}: {len(reps)} runs of run_benchmark, "
        f"{counts['gp_filter_steps']} GP-filter steps each, inputs {record['inputs']}"
    )
    for name, s in summary.items():
        print(
            f"  {name:<18} {s['median']:.6g} {UNITS[name]}  "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    share = e2e["optimal_step_share"]
    print(f"  optimal_step_share {share:.6g} ratio ({attempted - failed}/{attempted})")
    print(f"  failed_step_share  {record['failed_step_share']:.6g} ratio ({failed}/{attempted})")
    print(f"  peak_rss_mb        {peak_rss_mb:.6g} MB")
    print(f"  exact counts {counts}")
    if traced:
        print(
            f"  traced run {traced['run_s']:.4g} s, {traced['spans']} spans, "
            f"{traced['trace_counts']}"
        )
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  environment {json.dumps(env)}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
