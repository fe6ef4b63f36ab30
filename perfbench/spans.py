"""In-memory span tracing of gpcbf's layers and the per-layer metrics from it.

Spans wrap public functions of the package from outside: ``install`` binds
a traced wrapper to every module global of ``gpcbf`` that refers to the
function, so a name imported into another module (``episodic`` imports
``rk4_step``, ``fit``, ``posterior_coefficients``, ``certificate_terms`` and
``safety_filter_step`` by name) is traced where it is looked up, not only
where it is defined.  Each span records its name, start, end and parent;
all spans of one ``Tracer`` share its run id.  They stay in memory until
``write_csv`` is called at the end of the run.
"""

import csv
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from gpcbf import barrier, episodic, experiment, gp, plants, socp
from workloads import control_steps

ROOT_SPAN = "experiment.run_benchmark"
CONTROLLER_SPAN = "episodic.gp_controller"
CSV_SPAN = "experiment.csv"


def _fit_counts(counters, args, kwargs, model):
    default = gp.DEFAULT_JITTER_SCHEDULE
    schedule = args[2] if len(args) > 2 else kwargs.get("jitter_schedule", default)
    counters["gp.fit.n"] = max(counters["gp.fit.n"], len(model.dataset))
    if len(model.dataset):  # the prior-only model walks no schedule
        counters["gp.fit.jitter_retries"] += list(schedule).index(model.jitter)


def _solve_counts(counters, args, kwargs, outcome):
    if not outcome.diagnostics.get("analytic", False):
        counters["socp.solve.ipm_calls"] += 1
    counters["socp.solve.ipm_iterations"] += outcome.iterations
    counters["socp.solve.non_optimal"] += outcome.status != socp.STATUS_OPTIMAL


def _episode_counts(counters, args, kwargs, log):
    counters["episodic.run_episode.control_steps"] += control_steps(log)


def _label_counts(counters, args, kwargs, rows):
    counters["episodic.label_episode.rows"] += len(rows)


def _csv_counts(counters, args, kwargs, _):
    counters["experiment.csv.bytes"] += os.path.getsize(args[1])


# (span name, defining module, function, counter hook, where the name is looked up)
TRACED = (
    ("plants.rk4_step", plants, "rk4_step", None, (episodic,)),
    ("barrier.certificate_terms", barrier, "certificate_terms", None, (episodic,)),
    ("barrier.zeta_chain", barrier, "zeta_chain", None, (episodic,)),
    ("barrier.halfspace_qp_filter", barrier, "halfspace_qp_filter", None, (episodic, plants)),
    ("gp.fit", gp, "fit", _fit_counts, (episodic,)),
    ("gp.posterior_coefficients", gp, "posterior_coefficients", None, (episodic,)),
    ("socp.safety_filter_step", socp, "safety_filter_step", None, (episodic,)),
    ("socp.assemble_safety_cone", socp, "assemble_safety_cone", None, (socp,)),
    ("socp.build_S", socp, "build_S", None, (socp,)),
    ("socp.matrix_sqrt_factor", socp, "matrix_sqrt_factor", None, (socp,)),
    ("socp.solve", socp, "solve", _solve_counts, (socp,)),
    ("episodic.run_episode", episodic, "run_episode", _episode_counts, (episodic,)),
    ("episodic.label_episode", episodic, "label_episode", _label_counts, (episodic,)),
    ("episodic.episodic_train", episodic, "episodic_train", None, (episodic,)),
    (CSV_SPAN, gp, "save_dataset_csv", _csv_counts, (experiment,)),
)


class Tracer:
    """Spans of one run, kept as parallel lists in the order they opened."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "name", "parent", "start_ns", "end_ns"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [self.run_id, i, name, self.parents[i], self.starts[i], self.ends[i]]
                )


def _package_modules():
    return [m for k, m in list(sys.modules.items()) if k == "gpcbf" or k.startswith("gpcbf.")]


def _rebind(original, replacement, restore: list) -> list:
    """Point every gpcbf module global bound to ``original`` at ``replacement``."""
    patched = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                restore.append((mod, attr, original))
                patched.append(mod)
    return patched


def wrap_gp_controller(wrap_controller, restore: list) -> None:
    """Wrap each callable that ``episodic.make_gp_socp_controller`` returns."""
    original = episodic.make_gp_socp_controller

    @functools.wraps(original)
    def make(*args, **kwargs):
        return wrap_controller(original(*args, **kwargs))

    _rebind(original, make, restore)


def install(tracer: Tracer) -> list:
    """Trace every layer in ``TRACED``; returns the bindings ``uninstall`` restores.

    Raises RuntimeError when a function is not bound where it is looked up,
    since patching only its defining module would record nothing.
    """
    restore = []
    missing = []
    for name, module, func, hook, lookups in TRACED:
        original = getattr(module, func)
        patched = _rebind(original, tracer.wrap(name, original, hook), restore)
        missing += [f"{m.__name__}.{func}" for m in lookups if m not in patched]
    to_csv = episodic.EpisodeLog.to_csv
    episodic.EpisodeLog.to_csv = tracer.wrap(CSV_SPAN, to_csv, _csv_counts)
    restore.append((episodic.EpisodeLog, "to_csv", to_csv))
    wrap_gp_controller(lambda ctrl: tracer.wrap(CONTROLLER_SPAN, ctrl), restore)
    if missing:
        uninstall(restore)
        raise RuntimeError(f"traced names not found where they are looked up: {missing}")
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def self_times(tracer: Tracer):
    """Per-span (duration, self time, summed child durations) in ns.

    Self time is the duration less the part of the span's interval that
    the union of its children's intervals covers.
    """
    starts = np.asarray(tracer.starts, dtype=np.int64)
    ends = np.asarray(tracer.ends, dtype=np.int64)
    dur = ends - starts
    covered = np.zeros_like(dur)
    child_sum = np.zeros_like(dur)
    reach = starts.copy()  # end of the children covered so far, per parent
    for i, p in enumerate(tracer.parents):
        if p < 0:
            continue
        child_sum[p] += dur[i]
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], ends[i])
    return dur, dur - covered, child_sum


def check(tracer: Tracer, dur, self_ns, child_sum) -> list:
    """Failures of the trace self-check; empty when it holds.

    Every listed span must fire, and each span's self time plus its
    children's durations must equal its duration, which fails when children
    overlap one another or leave their parent's interval.
    """
    failures = []
    fired = set(tracer.names)
    expected = [t[0] for t in TRACED] + [CONTROLLER_SPAN, ROOT_SPAN]
    failures += [f"span {name} never fired" for name in expected if name not in fired]
    bad = np.nonzero(self_ns + child_sum != dur)[0]
    if bad.size:
        failures.append(
            f"{bad.size} spans whose self time plus child durations differ from their "
            f"duration, first {tracer.names[bad[0]]}"
        )
    return failures


def layer_metrics(tracer: Tracer, dur, self_ns) -> dict:
    """Per-layer statistics named ``<module>.<function>.<stat>``."""
    names = np.asarray(tracer.names)
    stats = {}
    for name in sorted(set(tracer.names)):
        sel = names == name
        d_us = dur[sel] / 1e3
        stats[f"{name}.calls"] = int(sel.sum())
        stats[f"{name}.self_s"] = float(self_ns[sel].sum()) / 1e9
        stats[f"{name}.p50_us"] = float(np.percentile(d_us, 50))
        stats[f"{name}.p99_us"] = float(np.percentile(d_us, 99))
    stats.update(tracer.counters)
    steps = stats.get("socp.safety_filter_step.calls", 0)
    for name in ("socp.assemble_safety_cone", "socp.matrix_sqrt_factor"):
        stats[f"{name}.per_step"] = stats.get(f"{name}.calls", 0) / steps if steps else 0.0
    solves = stats.get("socp.solve.calls", 0)
    stats["socp.solve.ipm_share"] = stats.get("socp.solve.ipm_calls", 0) / solves if solves else 0.0
    return stats
