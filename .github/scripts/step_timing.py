"""Time the GP controller and its filter step per call, on a default run's own inputs.

For each plant, runs ``gpcbf.experiment.run_benchmark`` once on the plant's
defaults (outputs to a temporary directory) and records the (t, x) of every
GP-controller call and the arguments of every ``socp.safety_filter_step``
call.  It then replays them in process: each repeat times one pass over the
recorded calls, and the best of ``--repeats`` passes gives the mean time per
call.  Prints one JSON line per plant with the per-call microseconds of the
controller and of the step, for all steps, the projecting steps (u_nom was
outside the cone) and the analytic ones (u_nom was inside), and the count of
each.  Steps whose Sigma did not factor count in ``all`` only.

    PYTHONPATH=src python .github/scripts/step_timing.py [--repeats 11] [acc suspension ...]

It reads only ``run_benchmark``, ``config.defaults``, the controller factory
``episodic.make_gp_socp_controller``, ``episodic.safety_filter_step`` and the
step's ``analytic`` and ``status`` fields, so the same script times any
commit that has them.
"""

import argparse
import gc
import json
import logging
import sys
import tempfile
import time

from gpcbf import config, episodic, experiment
from gpcbf.socp import STATUS_FACTORIZATION_FAILED


def record(plant: str) -> tuple:
    """Controller calls [(controller, t, x)] and step calls [(args, kwargs)], with step kinds."""
    controller_calls, step_calls, kinds = [], [], []
    make_controller, step = episodic.make_gp_socp_controller, episodic.safety_filter_step

    def recording_factory(*args, **kwargs):
        controller = make_controller(*args, **kwargs)

        def recorded(t, x):
            controller_calls.append((controller, t, x.copy()))
            return controller(t, x)

        return recorded

    def recording_step(*args, **kwargs):
        outcome = step(*args, **kwargs)
        step_calls.append((args, kwargs))
        if outcome.status == STATUS_FACTORIZATION_FAILED:
            kinds.append("failed")
        else:
            kinds.append("analytic" if outcome.analytic else "projecting")
        return outcome

    episodic.make_gp_socp_controller = recording_factory
    episodic.safety_filter_step = recording_step
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            experiment.run_benchmark(config.defaults(plant), out_dir=out_dir)
    finally:
        episodic.make_gp_socp_controller, episodic.safety_filter_step = make_controller, step
    if len(controller_calls) != len(step_calls):
        raise RuntimeError(f"{plant}: {len(controller_calls)} controller calls, {len(step_calls)} steps")
    return controller_calls, step_calls, kinds


def best_mean_us(calls: list, invoke, repeats: int) -> float:
    """Best over repeats of the mean wall time per call, in microseconds; NaN without calls."""
    if not calls:
        return float("nan")
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for call in calls:
                invoke(call)
            best = min(best, (time.perf_counter() - start) / len(calls))
    finally:
        if gc_was_enabled:
            gc.enable()
    return best * 1e6


def time_plant(plant: str, repeats: int) -> dict:
    controller_calls, step_calls, kinds = record(plant)
    step = episodic.safety_filter_step
    groups = {
        "all": range(len(kinds)),
        "projecting": [i for i, kind in enumerate(kinds) if kind == "projecting"],
        "analytic": [i for i, kind in enumerate(kinds) if kind == "analytic"],
    }
    line = {"plant": plant, "repeats": repeats, "steps": {}, "controller_us": {}, "step_us": {}}
    for name, index in groups.items():
        line["steps"][name] = len(index)
        line["controller_us"][name] = round(
            best_mean_us([controller_calls[i] for i in index], lambda c: c[0](c[1], c[2]), repeats), 2
        )
        line["step_us"][name] = round(
            best_mean_us([step_calls[i] for i in index], lambda c: step(*c[0], **c[1]), repeats), 2
        )
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("plants", nargs="*", default=["acc", "suspension"])
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    logging.disable(logging.INFO)
    for plant in args.plants:
        print(json.dumps(time_plant(plant, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
