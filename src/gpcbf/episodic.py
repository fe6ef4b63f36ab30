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

import logging
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .barrier import (
    HocbfDesign,
    _floats,
    certificate_terms,
    halfspace_qp_filter,
    weighted_sum,
    zeta_chain,
)
from .errors import IllConditionedDataError, InfeasibleConstraintError
from .gp import BaseKernelParams, CompositeGpModel, ResidualDataset
from .gp import fit, fit_prior, posterior_coefficients
from .plants import PlantModel, rk4_step
from .socp import (
    STATUS_FACTORIZATION_FAILED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    FilterOutcome,
    safety_filter_step,
)

logger = logging.getLogger(__name__)

TERM_COMPLETED = "completed"
TERM_VIOLATION = "safety_violation"
TERM_INFEASIBLE = "infeasible_abort"
TERM_ABORTED = "aborted"
STATUS_VIOLATION = "violation"  # the trailing row that logs the state past the barrier

# Consecutive flagged filter steps after which an episode is abandoned: a
# step is flagged when its cone is empty or its Sigma does not factor.
MAX_CONSECUTIVE_INFEASIBLE = 5
_FLAGGED_STEPS = (STATUS_INFEASIBLE, STATUS_FACTORIZATION_FAILED)

# Rows that EpisodeLog.to_csv turns into Python objects at a time, so that
# writing a log holds a few hundred rows of them, not the whole episode.
_CSV_BLOCK_ROWS = 256

# The values a log row takes from its step's FilterOutcome, each declared
# once as (record field, CSV header, format).  EpisodeLog holds each under
# the record field's name, and to_csv writes them after the zeta columns;
# the trace columns follow only with ``trace``.
_STEP_COLUMNS = (
    ("sigma", "sigma", "%.17g"),
    ("status", "status", "%s"),
    ("necessary_value", "necessary_value", "%.17g"),
    ("sufficient_eig", "sufficient_eig", "%.17g"),
)
_TRACE_COLUMNS = (
    ("iterations", "solve_iterations", "%d"),
    ("cone_margin", "cone_margin", "%.17g"),
)
_LOGGED = _STEP_COLUMNS + _TRACE_COLUMNS
_logged_values = operator.attrgetter(*(field for field, _, _ in _LOGGED))
# How EpisodeLog holds a column of each format; status words stay a list.
_HELD_AS = {
    "%.17g": lambda values: np.asarray(values, dtype=float),
    "%d": lambda values: np.asarray(values, dtype=int),
    "%s": list,
}


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
    _, zf, zg = design.terms(x_center)
    z = 0.0
    for j in range(1, r + 1):
        measured = fd_derivative(h_window, j, dt)
        nominal = float(zf[j - 1])
        if j == r:
            nominal += float(zg @ u_center)
        z += design.gamma[j - 1] * (measured - nominal)
    y = np.concatenate((design.gamma, u_center))
    return np.asarray(x_center, dtype=float), y, z


@dataclass
class EpisodeLog:
    """Per-control-step time series of one closed-loop episode; zeta's width is r."""

    t: np.ndarray
    x: np.ndarray  # (steps, n)
    u: np.ndarray  # (steps, m)
    zeta: np.ndarray  # (steps, r)
    sigma: np.ndarray
    status: list
    necessary_value: np.ndarray
    sufficient_eig: np.ndarray
    iterations: np.ndarray
    cone_margin: np.ndarray
    termination: str
    violation_time: Optional[float]
    min_h: float

    def __len__(self) -> int:
        return self.t.size

    @property
    def control_steps(self) -> int:
        """Rows written by a controller call: all but a trailing violation row."""
        if self.status and self.status[-1] == STATUS_VIOLATION:
            return len(self) - 1
        return len(self)

    @property
    def h(self) -> np.ndarray:
        """h at each step, as zeta_0 = h."""
        return self.zeta[:, 0]

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
        r = self.zeta.shape[1]
        logged = _STEP_COLUMNS + (_TRACE_COLUMNS if trace else ())
        header = (
            ["t"]
            + [f"x_{i}" for i in range(1, n + 1)]
            + [f"u_{i}" for i in range(1, m + 1)]
            + ["h"]
            + [f"zeta_{i}" for i in range(r)]
            + [name for _, name, _ in logged]
        )
        row = ",".join(["%.17g"] * (n + m + r + 2) + [fmt for _, _, fmt in logged]) + "\r\n"

        def columns(rows: slice) -> list:
            cols = [
                self.t[rows].tolist(),
                *self.x[rows].T.tolist(),
                *self.u[rows].T.tolist(),
                self.h[rows].tolist(),
                *self.zeta[rows].T.tolist(),
            ]
            for field, _, _ in logged:
                values = getattr(self, field)[rows]
                cols.append(values if isinstance(values, list) else values.tolist())
            return cols

        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                block = columns(slice(start, start + _CSV_BLOCK_ROWS))
                fh.writelines(row % values for values in zip(*block))


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
    """Integrate the plant under a filtered controller, one RK4 call per hold.

    controller(t, x) gets the state as a tuple of floats and returns the
    step's :class:`FilterOutcome`: its u is held as it is for a control
    period, and the record is the step's log row, with the step's
    certificate terms as ``cert`` when the controller evaluated them.  The
    trailing violation row is ``FilterOutcome(u, STATUS_VIOLATION)`` for the
    last u, with the record's defaults.  Each hold is one :func:`rk4_step`
    call of control_period / dt substeps, whose states are then scanned in
    order for h and the first crossing.  The state and the input stay float
    tuples from step to step; the log's arrays are built once, at the end.
    Stops at the horizon, at the first barrier violation when flagged
    (logging the crossing state as a trailing "violation" row), on a
    non-finite state that no such violation precedes, or after
    MAX_CONSECUTIVE_INFEASIBLE steps in a row that are infeasible or whose
    Sigma would not factor.
    """
    x = tuple(np.asarray(x0, dtype=float).ravel().tolist())
    substeps = max(1, int(round(control_period / dt)))
    n_ctrl = int(round(horizon / control_period))
    h = design.barrier

    rows = []  # per step: t, x, u, zeta, then the record's logged values
    termination = TERM_COMPLETED
    violation_time = None
    min_h = h(x)
    consec_infeasible = 0

    t = 0.0
    for k in range(n_ctrl):
        step = controller(t, x)
        u = step.u
        zeta = zeta_chain(design, x, step.cert)
        rows.append((t, x, u, zeta, *_logged_values(step)))

        if step.status in _FLAGGED_STEPS:
            consec_infeasible += 1
            if consec_infeasible >= MAX_CONSECUTIVE_INFEASIBLE:
                termination = TERM_INFEASIBLE
                break
        else:
            consec_infeasible = 0

        states = rk4_step(plant, x, u, t, dt, substeps)
        stop = False
        for state in states:
            t = t + dt
            hval = h(state)
            if hval < min_h:
                min_h = hval
            if hval < 0.0 and violation_time is None:
                violation_time = t
                if stop_on_violation:
                    stop = True
                    break
        if stop:
            termination = TERM_VIOLATION
            last = FilterOutcome(u, STATUS_VIOLATION)
            rows.append((t, state, u, zeta_chain(design, state), *_logged_values(last)))
            break
        if len(states) < substeps:
            termination = TERM_ABORTED
            break
        x = states[-1]

    ts, xs, us, zetas, *logged = zip(*rows) if rows else [()] * (4 + len(_LOGGED))
    if termination == TERM_COMPLETED and violation_time is not None and zetas[-1][0] < 0.0:
        termination = TERM_VIOLATION

    return EpisodeLog(
        t=np.asarray(ts, dtype=float),
        x=np.asarray(xs, dtype=float).reshape(-1, plant.n),
        u=np.asarray(us, dtype=float).reshape(-1, plant.m),
        zeta=np.asarray(zetas, dtype=float).reshape(-1, design.r),
        **{field: _HELD_AS[fmt](column) for (field, _, fmt), column in zip(_LOGGED, logged)},
        termination=termination,
        violation_time=violation_time,
        min_h=float(min_h),
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
    rows = []
    for c in range(r, log.control_steps - r, max(1, stride)):
        window = log.h[c - r : c + r + 1]
        rows.append(label_window(window, log.x[c], log.u[c], design, control_period))
    return rows


def make_nominal_qp_controller(design: HocbfDesign, u_nom_fn: Callable) -> Callable:
    """Min-norm QP filter on the design's own certificate (closed form).

    Each call returns a :class:`FilterOutcome` with the step's certificate
    terms; its other logged values keep the record's defaults.  The
    constraint's offset zf . gamma + e_r h is summed on floats.
    """
    gamma = design.gamma.tolist()

    def controller(t, x):
        u_nom = u_nom_fn(t, x)
        cert = certificate_terms(design, x)
        b = weighted_sum(gamma, cert.zf) + cert.const
        try:
            u, status = halfspace_qp_filter(u_nom, cert.zg, b), STATUS_OPTIMAL
        except InfeasibleConstraintError:
            u, status = tuple(_floats(u_nom)), STATUS_INFEASIBLE
        return FilterOutcome(u, status, cert=cert)

    return controller


def make_gp_socp_controller(
    design: HocbfDesign,
    model: CompositeGpModel,
    beta: float,
    u_nom_fn: Callable,
) -> Callable:
    """Uncertainty-aware cone filter around a nominal control law.

    Each call returns the :class:`FilterOutcome` of one
    :func:`safety_filter_step` as it is: its u is the input the step
    applies (the mean-only half-space fallback on an infeasible step or on
    a Sigma that does not factor, which stays flagged for the episode
    runner), and the record, with the step's certificate terms, is the
    step's log row.
    """

    def controller(t, x):
        u_nom = u_nom_fn(t, x)
        cert = certificate_terms(design, x)
        mu, sigma = posterior_coefficients(model, x)
        return safety_filter_step(u_nom, cert, mu, sigma, beta, design.gamma)

    return controller


@dataclass
class TrainResult:
    model: CompositeGpModel
    episodes: list

    @property
    def succeeded(self) -> bool:
        """True when the last episode completed without a violation."""
        return bool(self.episodes) and self.episodes[-1].termination == TERM_COMPLETED

    @property
    def dataset(self) -> ResidualDataset:
        """The labels the final model was fit on."""
        return self.model.dataset


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
    contribute labels; the first clean episode ends the loop.  A refit whose
    Gram does not factor ends it too, with the last good model and
    ``succeeded`` False.  Every fit uses
    the label noise variance ``noise_variance`` and walks the default jitter
    schedule, and every cone projection uses the default tolerance 1e-8.
    """
    q = plant.m + design.r
    if len(kernel_params) != q:
        raise ValueError(f"need {q} base kernels, got {len(kernel_params)}")
    xs, ys, zs = [], [], []
    episodes = []
    model = fit_prior(plant.n, kernel_params, noise_variance)
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
        try:
            model = fit(dataset, kernel_params)
        except IllConditionedDataError as exc:
            logger.warning(
                "training ends after episode %d with the last good model: %s", ep + 1, exc
            )
            break
    return TrainResult(model=model, episodes=episodes)
