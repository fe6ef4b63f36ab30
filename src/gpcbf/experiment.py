"""Benchmark orchestration: three arms sharing one nominal control signal.

Arms differ only in the safety filter so the comparison isolates it:

  nominal  - min-norm QP on the nominal-model certificate (what a practitioner
             has; expected to violate under model mismatch),
  gp       - the episodically trained cone filter,
  oracle   - min-norm QP on the true-model certificate (unattainable
             reference).

Each arm writes an episode CSV; the summary table is recomputable from those
files.
"""

import csv
import logging
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import config as config_mod
from . import episodic, plants
from .barrier import HocbfDesign
from .config import ExperimentConfig
from .errors import ConfigError
from .gp import BaseKernelParams, save_dataset_csv

logger = logging.getLogger(__name__)


@dataclass
class Scenario:
    plant: plants.PlantModel
    design_nom: HocbfDesign
    design_true: HocbfDesign
    u_nom: Callable
    kernel_params: list


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Instantiate plant, barrier designs, nominal controller, and kernels."""
    gains = cfg.hocbf.resolve_gains()
    D = cfg.hocbf.threshold
    if cfg.plant == "acc":
        plant = plants.make_acc_plant()
        design_nom = plants.acc_design(plants.ACC_NOMINAL, gains, D)
        design_true = plants.acc_design(plants.ACC_TRUE, gains, D)
        v_d, lam = cfg.controller.v_d, cfg.controller.lambda_rate
        p_nom = plants.AccParams(**plants.ACC_NOMINAL)

        def u_nom(t, x):
            return plants.clf_nominal_acc(x, v_d, lam, p_nom)

    elif cfg.plant == "suspension":
        d, c = cfg.disturbance, cfg.controller
        plant = plants.make_suspension_plant(plants.SUSPENSION_TRUE, d.amplitude, d.start, d.width)
        design_nom = plants.suspension_design(plants.SUSPENSION_NOMINAL, gains, D)
        design_true = plants.suspension_design(plants.SUSPENSION_TRUE, gains, D)
        flat = plants.make_suspension_plant(plants.SUSPENSION_NOMINAL, 0.0, 0.0, 1.0)
        A, B = plants.linear_matrices(flat)
        try:
            K, _ = plants.lqr_gain(A, B, c.lqr_q * np.eye(4), np.array([[c.lqr_r]]))
        except np.linalg.LinAlgError as exc:
            keys = f"controller.lqr_q = {c.lqr_q!r} and controller.lqr_r = {c.lqr_r!r}"
            raise ConfigError(f"{keys} give no stabilizing LQR gain: {exc}") from exc

        def u_nom(t, x):
            return tuple((-(K @ x)).tolist())

    else:
        raise ValueError(f"unknown plant {cfg.plant!r}")

    kernel_params = [
        BaseKernelParams(float(sf2), np.asarray(ells, dtype=float))
        for sf2, ells in zip(cfg.gp.signal_variances, cfg.gp.lengthscale_rows())
    ]
    return Scenario(plant, design_nom, design_true, u_nom, kernel_params)


@dataclass
class ArmResult:
    log: episodic.EpisodeLog


@dataclass
class BenchmarkResult:
    arms: dict
    train: episodic.TrainResult
    summary: list


def _rms_vs(log: episodic.EpisodeLog, ref: episodic.EpisodeLog) -> float:
    n = min(log.control_steps, len(ref))
    if n == 0:
        return float("nan")
    du = log.u[:n] - ref.u[:n]
    return float(np.sqrt(np.mean(np.sum(du * du, axis=1))))


def _grid_min_h(log: episodic.EpisodeLog) -> float:
    return float(np.min(log.h)) if len(log) else float("nan")


def _grid_violation_time(log: episodic.EpisodeLog) -> Optional[float]:
    idx = np.nonzero(log.h < 0.0)[0]
    return float(log.t[idx[0]]) if idx.size else None


def run_benchmark(cfg: ExperimentConfig, out_dir: str) -> BenchmarkResult:
    """Run all three arms and write artifacts under out_dir."""
    cfg.validate()
    sc = build_scenario(cfg)
    os.makedirs(out_dir, exist_ok=True)
    sim = cfg.sim
    x0 = np.asarray(sim.x0, dtype=float)
    t_start = time.monotonic()

    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        fh.write(config_mod.dump(cfg))

    common = dict(
        x0=x0,
        horizon=sim.horizon,
        dt=sim.dt,
        control_period=sim.control_period,
    )

    arms = {}

    def finish_arm(name, log):
        log.to_csv(os.path.join(out_dir, f"{name}.csv"), trace=cfg.filter.trace)
        arms[name] = ArmResult(log=log)
        return log

    log_nom = finish_arm(
        "nominal",
        episodic.run_episode(
            sc.plant,
            sc.design_nom,
            episodic.make_nominal_qp_controller(sc.design_nom, sc.u_nom),
            stop_on_violation=True,
            **common,
        ),
    )
    log_oracle = finish_arm(
        "oracle",
        episodic.run_episode(
            sc.plant,
            sc.design_true,
            episodic.make_nominal_qp_controller(sc.design_true, sc.u_nom),
            stop_on_violation=False,
            **common,
        ),
    )
    train = episodic.episodic_train(
        sc.plant,
        sc.design_nom,
        sc.u_nom,
        sc.kernel_params,
        beta=cfg.filter.beta,
        max_episodes=cfg.episodic.max_episodes,
        label_stride=cfg.episodic.label_stride,
        noise_variance=cfg.gp.noise_variance,
        **common,
    )
    log_gp = finish_arm("gp", train.episodes[-1])
    for i, ep in enumerate(train.episodes[:-1], start=1):
        ep.to_csv(os.path.join(out_dir, f"gp_episode_{i}.csv"), trace=cfg.filter.trace)
    # The gp arm is the last training episode, so its CSV is that episode's.
    shutil.copyfile(
        os.path.join(out_dir, "gp.csv"),
        os.path.join(out_dir, f"gp_episode_{len(train.episodes)}.csv"),
    )
    save_dataset_csv(train.dataset, os.path.join(out_dir, "dataset.csv"))

    summary = []
    for name in ("nominal", "gp", "oracle"):
        log = arms[name].log
        solved = log.iterations[: log.control_steps]
        summary.append(
            {
                "arm": name,
                "termination": log.termination,
                "min_h": _grid_min_h(log),
                "violation_time": _grid_violation_time(log),
                "mean_solve_iterations": float(np.mean(solved)) if solved.size else 0.0,
                "rms_dev_from_oracle": _rms_vs(log, log_oracle),
                "dataset_size": len(train.dataset),
                "episodes": len(train.episodes),
            }
        )
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary[0].keys()))
        writer.writeheader()
        for row in summary:
            writer.writerow(row)

    elapsed = time.monotonic() - t_start
    logger.info("benchmark %s: %.1fs wall", cfg.plant, elapsed)
    for row in summary:
        logger.info(
            "  {arm}: {termination}, min_h={min_h:.4g}, viol={violation_time}, "
            "rms_vs_oracle={rms_dev_from_oracle:.4g}".format(**row)
        )
    logger.info("  dataset: %d rows over %d episodes", len(train.dataset), len(train.episodes))
    return BenchmarkResult(arms=arms, train=train, summary=summary)
