"""Residual labeling from closed-loop trajectories and episodic training.

Labels approximate the certificate residual at sampled states: the j-th time
derivative of the barrier along the true trajectory is measured by repeated
central differences and compared with the nominal chain,

    dtilde_j = FD^j(h) - Lf^j h(x),    j < r,
    dtilde_r = FD^r(h) - (Lf^r h(x) + LgLf^{r-1} h(x) u),
    z = sum_j gamma_j dtilde_j,        y = [gamma; u].

Windows span 2r+1 control periods, so each label lags the live trajectory by
r control steps and labeling runs post-episode.  The training loop repeats
run / label / refit until an episode finishes without a safety violation.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .barrier import HocbfDesign, certificate_terms, halfspace_qp_filter, zeta_chain
from .errors import InfeasibleConstraintError
from .gp import BaseKernelParams, CompositeGpModel, ResidualDataset, fit, posterior_coefficients
from .plants import PlantModel, rk4_step
from .socp import safety_filter_step

TERM_COMPLETED = "completed"
TERM_VIOLATION = "safety_violation"
TERM_INFEASIBLE = "infeasible_abort"
TERM_ABORTED = "aborted"

# Consecutive infeasible filter steps after which an episode is abandoned.
MAX_CONSECUTIVE_INFEASIBLE = 5

# Rows that EpisodeLog.to_csv turns into Python objects at a time, so that
# writing a log holds a few hundred rows of them, not the whole episode.
_CSV_BLOCK_ROWS = 256


def fd_derivative(samples, order: int, dt: float) -> float:
    """Order-j derivative at the window center by j rounds of central differences.

    Each round maps f_k to (f_{k+1} - f_{k-1}) / (2 dt); truncation is O(dt^2).
    """
    a = np.asarray(samples, dtype=float)
    if order < 0:
        raise ValueError("order must be non-negative")
    if a.size < 2 * order + 1:
        raise ValueError(f"need at least {2 * order + 1} samples for order {order}")
    if a.size % 2 == 0:
        raise ValueError("window must hold an odd number of samples")
    for _ in range(order):
        a = (a[2:] - a[:-2]) / (2.0 * dt)
    return float(a[a.size // 2])


def label_window(
    h_window: np.ndarray,
    x_center: np.ndarray,
    u_center: np.ndarray,
    design: HocbfDesign,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One labeled row ((x, y), z) from a barrier window sampled every dt, centered at (x, u)."""
    h_window = np.asarray(h_window, dtype=float)
    if h_window.size != 2 * design.r + 1:
        raise ValueError(f"window must hold {2 * design.r + 1} samples")
    u_center = np.atleast_1d(np.asarray(u_center, dtype=float))
    r = design.r
    z = 0.0
    for j in range(1, r + 1):
        measured = fd_derivative(h_window, j, dt)
        nominal = float(design.lie_f_chain[j - 1](x_center))
        if j == r:
            nominal += float(design.lie_g(x_center) @ u_center)
        z += design.gamma[j - 1] * (measured - nominal)
    y = np.concatenate((design.gamma, u_center))
    return np.asarray(x_center, dtype=float), y, z


@dataclass
class EpisodeLog:
    """Per-control-step time series of one closed-loop episode."""

    design_r: int
    t: np.ndarray
    x: np.ndarray  # (steps, n)
    u: np.ndarray  # (steps, m)
    h: np.ndarray
    zeta: np.ndarray  # (steps, r)
    sigma: np.ndarray
    status: list
    necessary: np.ndarray
    sufficient: np.ndarray
    iterations: np.ndarray
    cone_margin: np.ndarray
    termination: str
    violation_time: Optional[float]
    min_h: float

    def __len__(self) -> int:
        return self.t.size

    def to_csv(self, path, trace: bool = False) -> None:
        """Write the log as CSV, one row per logged step; ``trace`` adds the solver columns.

        The bytes are those of ``csv.writer`` on f"{v:.17g}" strings: each row
        is one ``%`` format, and '%.17g' % v formats a float by the same
        shortest-repr routine at precision 17 as f"{v:.17g}".  No field needs
        quoting, since the status words hold no comma, quote or line break.
        An empty log keeps its header, without x and u columns.
        """
        n = self.x.shape[1] if self.x.size else 0
        m = self.u.shape[1] if self.u.size else 0
        header = (
            ["t"]
            + [f"x_{i}" for i in range(1, n + 1)]
            + [f"u_{i}" for i in range(1, m + 1)]
            + ["h"]
            + [f"zeta_{i}" for i in range(self.design_r)]
            + ["sigma", "status", "necessary_value", "sufficient_eig"]
        )
        fields = ["%.17g"] * (n + m + self.design_r + 3) + ["%s", "%.17g", "%.17g"]
        if trace:
            header += ["solve_iterations", "cone_margin"]
            fields += ["%d", "%.17g"]
        row = ",".join(fields) + "\r\n"

        def columns(rows: slice) -> list:
            cols = [
                self.t[rows].tolist(),
                *self.x[rows].T.tolist(),
                *self.u[rows].T.tolist(),
                self.h[rows].tolist(),
                *self.zeta[rows].T.tolist(),
                self.sigma[rows].tolist(),
                self.status[rows],
                self.necessary[rows].tolist(),
                self.sufficient[rows].tolist(),
            ]
            if trace:
                cols += [self.iterations[rows].tolist(), self.cone_margin[rows].tolist()]
            return cols

        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                block = columns(slice(start, start + _CSV_BLOCK_ROWS))
                fh.writelines(row % values for values in zip(*block))


def _log_row(design: HocbfDesign, t: float, x: np.ndarray, u: np.ndarray, info: dict) -> tuple:
    """One logged step in EpisodeLog's field order; diagnostics missing from info read NaN."""
    return (
        t,
        x.copy(),
        u.copy(),
        float(design.h(x)),
        zeta_chain(design, x),
        float(info.get("sigma", np.nan)),
        str(info.get("status", "nominal")),
        float(info.get("necessary_value", np.nan)),
        float(info.get("sufficient_eig", np.nan)),
        int(info.get("iterations", 0)),
        float(info.get("cone_margin", np.nan)),
    )


def run_episode(
    plant: PlantModel,
    design: HocbfDesign,
    controller: Callable,
    x0,
    horizon: float,
    dt: float = 1e-3,
    control_period: float = 1e-2,
    stop_on_violation: bool = True,
) -> EpisodeLog:
    """Integrate plant.field under a filtered controller, one RK4 call per hold.

    controller(t, x) returns (u, info); u is held for a control period and
    info carries the filter diagnostics logged for the step.  Each hold is
    one :func:`rk4_step` call of control_period / dt substeps, whose states
    are scanned in order for h < 0.  Stops at the horizon, at the first
    barrier violation when flagged (logging the crossing state as a trailing
    "violation" row), on a non-finite state that no such violation precedes,
    or after MAX_CONSECUTIVE_INFEASIBLE infeasible filter steps in a row.
    """
    x = np.asarray(x0, dtype=float).copy()
    substeps = max(1, int(round(control_period / dt)))
    n_ctrl = int(round(horizon / control_period))

    rows = []
    termination = TERM_COMPLETED
    violation_time = None
    min_h = float(design.h(x))
    consec_infeasible = 0

    t = 0.0
    for k in range(n_ctrl):
        u, info = controller(t, x)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rows.append(_log_row(design, t, x, u, info))

        if info.get("status") == "infeasible":
            consec_infeasible += 1
            if consec_infeasible >= MAX_CONSECUTIVE_INFEASIBLE:
                termination = TERM_INFEASIBLE
                break
        else:
            consec_infeasible = 0

        states = rk4_step(plant.field, x, u, t, dt, substeps)
        stop = False
        for state in states:
            t = t + dt
            hval = float(design.h(state))
            min_h = min(min_h, hval)
            if hval < 0.0 and violation_time is None:
                violation_time = t
                if stop_on_violation:
                    stop = True
                    break
        if stop:
            termination = TERM_VIOLATION
            rows.append(_log_row(design, t, np.array(state), u, {"status": "violation"}))
            break
        if len(states) < substeps:
            termination = TERM_ABORTED
            break
        x = np.array(states[-1])

    t_, x_, u_, h, zeta, sigma, status, nec, suf, iters, margin = zip(*rows) if rows else [()] * 11
    if termination == TERM_COMPLETED and violation_time is not None and h and h[-1] < 0.0:
        termination = TERM_VIOLATION

    return EpisodeLog(
        design_r=design.r,
        t=np.asarray(t_, dtype=float),
        x=np.asarray(x_, dtype=float).reshape(-1, plant.n),
        u=np.asarray(u_, dtype=float).reshape(-1, plant.m),
        h=np.asarray(h, dtype=float),
        zeta=np.asarray(zeta, dtype=float).reshape(-1, design.r),
        sigma=np.asarray(sigma, dtype=float),
        status=list(status),
        necessary=np.asarray(nec, dtype=float),
        sufficient=np.asarray(suf, dtype=float),
        iterations=np.asarray(iters, dtype=int),
        cone_margin=np.asarray(margin, dtype=float),
        termination=termination,
        violation_time=violation_time,
        min_h=min_h,
    )


def label_episode(
    log: EpisodeLog,
    design: HocbfDesign,
    control_period: float,
    stride: int = 1,
) -> list:
    """Labeled rows from an episode, one window per stride-th control step.

    Rows whose window would cross the episode end (or the trailing violation
    row, which is off the control grid) are dropped.
    """
    r = design.r
    usable = len(log)
    if usable and log.status and log.status[-1] == "violation":
        usable -= 1
    rows = []
    for c in range(r, usable - r, max(1, stride)):
        window = log.h[c - r : c + r + 1]
        rows.append(label_window(window, log.x[c], log.u[c], design, control_period))
    return rows


def make_nominal_qp_controller(design: HocbfDesign, u_nom_fn: Callable) -> Callable:
    """Min-norm QP filter on the design's own certificate (closed form)."""

    def controller(t, x):
        u_nom = u_nom_fn(t, x)
        cert = certificate_terms(design, x)
        a = cert.zg
        b = float(cert.zf @ design.gamma) + cert.const
        try:
            u = halfspace_qp_filter(u_nom, a, b)
            status = "optimal"
        except InfeasibleConstraintError:
            u = np.atleast_1d(np.asarray(u_nom, dtype=float))
            status = "infeasible"
        return u, {"status": status}

    return controller


def make_gp_socp_controller(
    design: HocbfDesign,
    model: CompositeGpModel,
    beta: float,
    u_nom_fn: Callable,
) -> Callable:
    """Uncertainty-aware cone filter around a nominal control law.

    Each call is one :func:`safety_filter_step`: it returns the input the
    step applies (the mean-only half-space fallback on an infeasible step,
    which stays flagged for the episode runner) and the step's diagnostics
    with its status and iterations as the logged info.
    """

    def controller(t, x):
        u_nom = u_nom_fn(t, x)
        cert = certificate_terms(design, x)
        mu, sigma = posterior_coefficients(model, x)
        outcome = safety_filter_step(u_nom, cert, mu, sigma, beta, design.gamma)
        return outcome.u, {
            **outcome.diagnostics,
            "status": outcome.status,
            "iterations": outcome.iterations,
        }

    return controller


@dataclass
class TrainResult:
    model: CompositeGpModel
    episodes: list
    dataset: ResidualDataset
    succeeded: bool


def episodic_train(
    plant: PlantModel,
    design: HocbfDesign,
    u_nom_fn: Callable,
    kernel_params: Sequence[BaseKernelParams],
    beta: float,
    x0,
    horizon: float,
    dt: float = 1e-3,
    control_period: float = 1e-2,
    max_episodes: int = 6,
    label_stride: int = 5,
    noise_variance: float = 1e-4,
) -> TrainResult:
    """Run-collect-retrain until an episode completes without violation.

    Episode 1 runs the nominal QP filter; later episodes run the cone filter
    with the model refit on all data so far.  Violating (or aborted) episodes
    contribute labels; the first clean episode ends the loop.  Every fit uses
    the label noise variance ``noise_variance`` and walks the default jitter
    schedule, and every cone projection uses the default tolerance 1e-8.
    """
    q = design.m + design.r
    if len(kernel_params) != q:
        raise ValueError(f"need {q} base kernels, got {len(kernel_params)}")
    xs, ys, zs = [], [], []
    episodes = []
    model = fit(
        ResidualDataset(
            X=np.zeros((0, plant.n)), Y=np.zeros((0, q)), z=np.zeros(0), noise_variance=1e-6
        ),
        kernel_params,
    )
    succeeded = False
    for ep in range(max_episodes):
        if ep == 0:
            controller = make_nominal_qp_controller(design, u_nom_fn)
        else:
            controller = make_gp_socp_controller(design, model, beta, u_nom_fn)
        log = run_episode(
            plant,
            design,
            controller,
            x0,
            horizon,
            dt=dt,
            control_period=control_period,
            stop_on_violation=True,
        )
        episodes.append(log)
        if log.termination == TERM_COMPLETED:
            succeeded = True
            break
        for x, y, z in label_episode(log, design, control_period, stride=label_stride):
            xs.append(x)
            ys.append(y)
            zs.append(z)
        dataset = ResidualDataset(
            X=np.asarray(xs).reshape(-1, plant.n),
            Y=np.asarray(ys).reshape(-1, q),
            z=np.asarray(zs),
            noise_variance=noise_variance,
        )
        model = fit(dataset, kernel_params)
    return TrainResult(model=model, episodes=episodes, dataset=model.dataset, succeeded=succeeded)
