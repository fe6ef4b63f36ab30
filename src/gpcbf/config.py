"""Experiment configuration: a strict, nested YAML schema.

Every run is driven by one config file.  Unknown keys are rejected so typos
fail loudly, and parse -> serialize -> parse is the identity on the value
level.  ``defaults(plant)`` returns the tuned benchmark configuration;
``gpcbf print-defaults`` emits it as editable YAML.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

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
    noise_variance: Optional[float] = 1e-4  # null -> roughness estimate


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
class ControllerConfig:
    v_d: float = 24.0
    lambda_rate: float = 2.0
    lqr_q: float = 10.0
    lqr_r: float = 1.0
    target: list = field(default_factory=lambda: [1.5, 0.0])


@dataclass
class DisturbanceConfig:
    amplitude: float = 0.10
    start: float = 1.0
    width: float = 1.0


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
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> "ExperimentConfig":
        if self.plant not in ("acc", "suspension", "synthetic"):
            raise ConfigError(f"unknown plant {self.plant!r}")
        gains = self.hocbf.resolve_gains()
        if any(g <= 0 for g in gains):
            raise ConfigError("barrier gains must be positive")
        if len(self.gp.signal_variances) != len(gains) + 1:
            raise ConfigError(
                f"gp.signal_variances must have {len(gains) + 1} entries (m + r)"
            )
        if any(v <= 0 for v in self.gp.signal_variances):
            raise ConfigError("signal variances must be positive")
        if self.gp.noise_variance is not None and self.gp.noise_variance < 0:
            raise ConfigError("noise variance must be non-negative")
        if self.filter.beta < 0:
            raise ConfigError("filter.beta must be non-negative")
        if self.sim.dt <= 0 or self.sim.control_period < self.sim.dt:
            raise ConfigError("need 0 < sim.dt <= sim.control_period")
        if self.sim.horizon < 0:
            raise ConfigError("sim.horizon must be non-negative")
        if self.episodic.max_episodes < 1:
            raise ConfigError("episodic.max_episodes must be at least 1")
        if self.episodic.label_stride < 1:
            raise ConfigError("episodic.label_stride must be at least 1")
        return self


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        ftype = fields[name].type
        if dataclasses.is_dataclass(ftype):
            kwargs[name] = _build(ftype, value, f"{path}.{name}" if path else name)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "").validate()


def to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return from_dict(data)


def dump(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def defaults(plant: str = "acc") -> ExperimentConfig:
    """Tuned benchmark configurations."""
    if plant == "acc":
        return ExperimentConfig().validate()
    if plant == "suspension":
        return ExperimentConfig(
            plant="suspension",
            hocbf=HocbfConfig(gains=None, char_coeffs=[41.0, 395.0], threshold=0.06),
            gp=GpConfig(
                signal_variances=[1e-4, 1e-2, 1e-6],
                lengthscales=[0.3, 0.5, 3.0, 10.0],
                noise_variance=1e-4,
            ),
            sim=SimConfig(horizon=10.0, x0=[0.0, 0.0, 0.0, 0.0]),
            episodic=EpisodicConfig(max_episodes=8, label_stride=1),
        ).validate()
    if plant == "synthetic":
        return ExperimentConfig(
            plant="synthetic",
            hocbf=HocbfConfig(gains=[1.5, 2.5], threshold=1.0),
            gp=GpConfig(
                signal_variances=[1.0, 1.0, 1e-4],
                lengthscales=[2.0, 2.0],
                noise_variance=1e-4,
            ),
            sim=SimConfig(horizon=8.0, x0=[0.0, 0.0]),
            episodic=EpisodicConfig(max_episodes=4, label_stride=5),
        ).validate()
    raise ConfigError(f"unknown plant {plant!r}")
