"""Run configuration: JSON schema, validation, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bessel import N_MAX
from .errors import ConfigError
from .frequencies import OMEGA_A
from .material import DrudeModel

SCHEMA_TAG = "wireqed-config/1"


@dataclass
class SweepSpec:
    z_min: float = 0.02
    z_max: float = 4.0
    n_points: int = 100
    log_spacing: bool = True


@dataclass
class RunConfig:
    """Everything a CLI run needs; see ``configs/default.json``.

    Lengths in vacuum wavelengths; material frequencies as ratios
    (omega_p over the transition frequency, gamma_p over omega_p).
    gamma0_abs is the physical free-space rate in natural frequency units,
    used only by the Markov-validity diagnostic.
    """

    radius: float = 0.01
    eps_inf: float = 1.0
    omega_p_over_omega_a: float = 6.0
    gamma_p_over_omega_p: float = 0.002
    rho_1: float = 0.015
    rho_2: float = 0.015
    dipole_1: tuple = (1.0, 0.0, 0.0)
    dipole_2: tuple = (1.0, 0.0, 0.0)
    gamma0_abs: float = 1e-3 * OMEGA_A
    sweep: SweepSpec = field(default_factory=SweepSpec)
    tol_wire: float = 1e-6
    azimuthal_order: int | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def validate(self):
        s = self.sweep
        if self.radius <= 0:
            raise ConfigError("wire radius must be positive")
        if self.eps_inf < 1.0:
            raise ConfigError("eps_inf must be >= 1")
        if self.omega_p_over_omega_a <= 0:
            raise ConfigError("omega_p must be positive")
        if self.gamma_p_over_omega_p < 0:
            raise ConfigError("gamma_p must be nonnegative")
        if min(self.rho_1, self.rho_2) <= self.radius:
            raise ConfigError("emitters must sit outside the wire")
        if self.rho_2 != self.rho_1:
            raise ConfigError("emitters must share one axial line: rho_2 must equal rho_1")
        if not (s.z_min > 0):
            raise ConfigError("sweep z_min must be > 0")
        if not (s.z_max > s.z_min):
            raise ConfigError("sweep needs z_max > z_min")
        if not isinstance(s.n_points, int) or isinstance(s.n_points, bool):
            raise ConfigError("sweep n_points must be an integer")
        if s.n_points < 2:
            raise ConfigError("sweep needs n_points >= 2")
        n = self.azimuthal_order
        if n is not None and (not isinstance(n, int) or isinstance(n, bool)
                              or not 1 <= n <= N_MAX):
            raise ConfigError(f"azimuthal_order must be null or an integer in 1..{N_MAX}")
        if not (1e-12 <= self.tol_wire <= 1e-3):
            raise ConfigError("tol_wire must lie in [1e-12, 1e-3]")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        if len(self.dipole_1) != 3 or len(self.dipole_2) != 3:
            raise ConfigError("dipole orientations must be 3-vectors")
        for name, d in (("dipole_1", self.dipole_1), ("dipole_2", self.dipole_2)):
            if abs(math.sqrt(sum(x * x for x in d)) - 1.0) > 1e-12:
                raise ConfigError(f"{name} must be a unit vector to 1e-12")
        return self

    def drude_model(self) -> DrudeModel:
        return DrudeModel.from_relative(self.eps_inf, self.omega_p_over_omega_a,
                                        self.gamma_p_over_omega_p)

    def sweep_points(self):
        s = self.sweep
        if s.log_spacing:
            ratio = s.z_max / s.z_min
            return [s.z_min * ratio ** (i / (s.n_points - 1)) for i in range(s.n_points)]
        step = (s.z_max - s.z_min) / (s.n_points - 1)
        return [s.z_min + i * step for i in range(s.n_points)]

    def to_json(self) -> str:
        d = asdict(self)
        d["schema"] = SCHEMA_TAG
        d["dipole_1"] = list(self.dipole_1)
        d["dipole_2"] = list(self.dipole_2)
        return json.dumps(d, indent=2, sort_keys=True)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    tag = raw.get("schema")
    if tag != SCHEMA_TAG:
        raise ConfigError(f"unsupported config schema {tag!r}; expected {SCHEMA_TAG!r}")
    cfg = RunConfig()
    sweep_raw = raw.get("sweep", {})
    known = {f for f in RunConfig.__dataclass_fields__}
    for key, val in raw.items():
        # tol_model: accepted from wireqed-config/1 files and ignored, it
        # never had an effect
        if key in ("schema", "sweep", "tol_model"):
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("dipole_1", "dipole_2"):
            val = tuple(float(x) for x in val)
        setattr(cfg, key, val)
    sw = SweepSpec()
    for key, val in sweep_raw.items():
        if key not in SweepSpec.__dataclass_fields__:
            raise ConfigError(f"unknown sweep key {key!r}")
        setattr(sw, key, val)
    cfg.sweep = sw
    for fld in ("radius", "eps_inf", "omega_p_over_omega_a", "gamma_p_over_omega_p",
                "rho_1", "rho_2", "gamma0_abs", "tol_wire"):
        setattr(cfg, fld, float(getattr(cfg, fld)))
    if not math.isfinite(cfg.radius):
        raise ConfigError("radius must be finite")
    return cfg.validate()
