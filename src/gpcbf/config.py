"""Experiment configuration: a strict, nested YAML schema.

Every run is driven by one config file, whose keys are laid over the
defaults of the plant it names.  Unknown keys are rejected so typos fail
loudly, and parse -> serialize -> parse is the identity on the value level.
The ``controller`` and ``disturbance`` sections hold only the keys of the
plant's own nominal law and disturbance (``PLANT_SECTIONS``), so another
plant's key is unknown too; a section with no keys is left out of a dump.
``defaults(plant)`` returns the tuned benchmark configuration;
``gpcbf print-defaults`` emits it as editable YAML.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import yaml

from .errors import ConfigError


@dataclass
class HocbfConfig:
    gains: Optional[list] = field(default_factory=lambda: [1.5, 2.5])
    char_coeffs: Optional[list] = None
    threshold: float = 30.0

    def resolve_gains(self):
        from .barrier import gains_from_char_coeffs

        if (self.gains is None) == (self.char_coeffs is None):
            raise ConfigError("specify exactly one of hocbf.gains / hocbf.char_coeffs")
        if self.gains is not None:
            return [float(g) for g in self.gains]
        return list(gains_from_char_coeffs(self.char_coeffs))


@dataclass
class GpConfig:
    signal_variances: list = field(default_factory=lambda: [4.0, 0.25, 1e-7])
    lengthscales: list = field(default_factory=lambda: [8.0, 40.0])
    noise_variance: float = 1e-4  # label noise variance of every fit; a number >= 0


@dataclass
class FilterConfig:
    beta: float = 2.0
    trace: bool = False


@dataclass
class SimConfig:
    dt: float = 1e-3
    control_period: float = 1e-2
    horizon: float = 20.0
    x0: list = field(default_factory=lambda: [20.0, 100.0])


@dataclass
class EpisodicConfig:
    max_episodes: int = 6
    label_stride: int = 10


@dataclass
class AccControllerConfig:
    """CLF speed law toward the desired speed."""

    v_d: float = 24.0
    lambda_rate: float = 2.0


@dataclass
class SuspensionControllerConfig:
    """LQR law with state weight lqr_q * I and input weight lqr_r."""

    lqr_q: float = 10.0
    lqr_r: float = 1.0


@dataclass
class SyntheticControllerConfig:
    """LQR law toward a set-point."""

    target: list = field(default_factory=lambda: [1.5, 0.0])


@dataclass
class NoDisturbanceConfig:
    """A plant with no disturbance: the section holds no keys."""


@dataclass
class RoadBumpConfig:
    """Road bump under the wheel: height amplitude (m) from start (s) for width (s)."""

    amplitude: float = 0.10
    start: float = 1.0
    width: float = 1.0


# Each plant's controller and disturbance section classes: a file's key that
# its plant's sections lack is an unknown key.
PLANT_SECTIONS = {
    "acc": (AccControllerConfig, NoDisturbanceConfig),
    "suspension": (SuspensionControllerConfig, RoadBumpConfig),
    "synthetic": (SyntheticControllerConfig, NoDisturbanceConfig),
}


@dataclass
class OutputConfig:
    dir: str = "results"


@dataclass
class ExperimentConfig:
    plant: str = "acc"
    hocbf: HocbfConfig = field(default_factory=HocbfConfig)
    gp: GpConfig = field(default_factory=GpConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    episodic: EpisodicConfig = field(default_factory=EpisodicConfig)
    controller: Union[
        AccControllerConfig, SuspensionControllerConfig, SyntheticControllerConfig
    ] = field(default_factory=AccControllerConfig)
    disturbance: Union[NoDisturbanceConfig, RoadBumpConfig] = field(
        default_factory=NoDisturbanceConfig
    )
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> "ExperimentConfig":
        from .plants import RELATIVE_DEGREE, STATE_DIMENSION

        for name, cls in zip(("controller", "disturbance"), _sections(self.plant)):
            section = getattr(self, name)
            if type(section) is not cls:
                raise ConfigError(
                    f"{name}: plant {self.plant} takes a {cls.__name__}, "
                    f"got {type(section).__name__}"
                )
        _check_types(self, "")
        n = STATE_DIMENSION[self.plant]
        gains = self.hocbf.resolve_gains()
        r = RELATIVE_DEGREE[self.plant]
        if len(gains) != r:
            key = "gains" if self.hocbf.gains is not None else "char_coeffs"
            raise ConfigError(
                f"hocbf.{key} must have {r} entries, the relative degree of the "
                f"{self.plant} barrier"
            )
        if any(g <= 0 for g in gains):
            raise ConfigError("barrier gains must be positive")
        q = len(gains) + 1
        if len(self.gp.signal_variances) != q:
            raise ConfigError(f"gp.signal_variances must have {q} entries (m + r)")
        if any(v <= 0 for v in self.gp.signal_variances):
            raise ConfigError("signal variances must be positive")
        ells = self.gp.lengthscales
        per_coord = any(isinstance(ell, (list, tuple)) for ell in ells)
        rows = ells if per_coord else [ells]
        if (per_coord and len(ells) != q) or any(
            not isinstance(row, (list, tuple)) or len(row) != n for row in rows
        ):
            raise ConfigError(
                f"gp.lengthscales must be {n} numbers, or {q} lists of {n} numbers"
            )
        if any(ell <= 0 for row in rows for ell in row):
            raise ConfigError("lengthscales must be positive")
        if self.gp.noise_variance < 0:
            raise ConfigError("gp.noise_variance must be a non-negative number")
        if self.filter.beta < 0:
            raise ConfigError("filter.beta must be non-negative")
        if self.sim.dt <= 0 or self.sim.control_period < self.sim.dt:
            raise ConfigError("need 0 < sim.dt <= sim.control_period")
        if not _whole_multiple(self.sim.control_period, self.sim.dt):
            raise ConfigError("sim.control_period must be a whole multiple of sim.dt")
        if len(self.sim.x0) != n:
            raise ConfigError(f"sim.x0 must have {n} entries for plant {self.plant}")
        if self.plant == "synthetic" and len(self.controller.target) != n:
            raise ConfigError(f"controller.target must have {n} entries")
        if self.sim.horizon <= 0:
            raise ConfigError("sim.horizon must be positive")
        if not _whole_multiple(self.sim.horizon, self.sim.control_period):
            raise ConfigError("sim.horizon must be a whole multiple of sim.control_period")
        if self.episodic.max_episodes < 1:
            raise ConfigError("episodic.max_episodes must be at least 1")
        if self.episodic.label_stride < 1:
            raise ConfigError("episodic.label_stride must be at least 1")
        if not self.output.dir:
            raise ConfigError("output.dir must be a non-empty path")
        return self


def _sections(plant) -> tuple:
    """The controller and disturbance section classes of a plant."""
    if not isinstance(plant, str) or plant not in PLANT_SECTIONS:
        raise ConfigError(f"unknown plant {plant!r}")
    return PLANT_SECTIONS[plant]


def _whole_multiple(a: float, b: float) -> bool:
    """a / b is a whole number to 1e-9 relative."""
    ratio = a / b
    return abs(ratio - round(ratio)) <= 1e-9 * ratio


def _finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_numbers(key: str, values, nested: bool) -> None:
    """Every entry is a finite real; nested allows one level of sub-lists."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    for i, value in enumerate(values):
        if nested and isinstance(value, (list, tuple)):
            _check_numbers(f"{key}[{i}]", value, nested=False)
        elif not _finite_real(value):
            raise ConfigError(f"{key}[{i}] must be a finite number, got {value!r}")


def _check_types(section, path: str) -> None:
    """Check each field of a config section against its annotated type."""
    for f in dataclasses.fields(section):
        key = f"{path}{f.name}"
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            _check_types(value, f"{key}.")
        elif f.type is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{key} must be true or false, got {value!r}")
        elif f.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        elif f.type is float:
            if not _finite_real(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        elif f.type is str:
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        elif value is not None or f.type is list:  # list or Optional[list]
            _check_numbers(key, value, nested=key == "gp.lengthscales")


def _build(base, data, path):
    """A copy of the config section ``base`` with the keys of ``data`` laid over it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(base)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        if dataclasses.is_dataclass(getattr(base, name)):
            kwargs[name] = _build(getattr(base, name), value, f"{path}.{name}" if path else name)
        else:
            kwargs[name] = value
    return dataclasses.replace(base, **kwargs)


def from_dict(data: dict) -> ExperimentConfig:
    """The file's keys laid over ``defaults(plant)`` for the plant it names (acc if none).

    Barrier gains are given one way, so a file that sets one of
    ``hocbf.gains`` and ``hocbf.char_coeffs`` clears the other.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected mapping, got {type(data).__name__}")
    hocbf = data.get("hocbf")
    if isinstance(hocbf, dict) and len({"gains", "char_coeffs"} & set(hocbf)) == 1:
        data = {**data, "hocbf": {"gains": None, "char_coeffs": None, **hocbf}}
    return _build(defaults(data.get("plant", "acc")), data, "").validate()


def to_dict(cfg: ExperimentConfig) -> dict:
    """The config as plain data, without the sections that hold no keys."""
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v != {}}


def load(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    return from_dict(data)


def dump(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def defaults(plant: str = "acc") -> ExperimentConfig:
    """Tuned benchmark configurations."""
    controller, disturbance = _sections(plant)
    cfg = ExperimentConfig(plant=plant, controller=controller(), disturbance=disturbance())
    if plant == "suspension":
        cfg.hocbf = HocbfConfig(gains=None, char_coeffs=[41.0, 395.0], threshold=0.06)
        cfg.gp = GpConfig(
            signal_variances=[1e-4, 1e-2, 1e-6],
            lengthscales=[0.3, 0.5, 3.0, 10.0],
            noise_variance=1e-4,
        )
        cfg.sim = SimConfig(horizon=10.0, x0=[0.0, 0.0, 0.0, 0.0])
        cfg.episodic = EpisodicConfig(max_episodes=8, label_stride=1)
    elif plant == "synthetic":
        cfg.hocbf = HocbfConfig(gains=[1.5, 2.5], threshold=1.0)
        cfg.gp = GpConfig(
            signal_variances=[1.0, 1.0, 1e-4],
            lengthscales=[2.0, 2.0],
            noise_variance=1e-4,
        )
        cfg.sim = SimConfig(horizon=8.0, x0=[0.0, 0.0])
        cfg.episodic = EpisodicConfig(max_episodes=4, label_stride=5)
    return cfg.validate()
