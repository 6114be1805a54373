"""Run configuration: JSON schema, validation, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bessel import N_MAX
from .emitters import EmitterPair, check_pair_geometry
from .errors import ConfigError, DomainError
from .frequencies import OMEGA_A
from .green_wire import WireGeometry
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
        """Check the run's inputs; the objects ``geometry`` and ``pair`` build
        check the physical ones, and their DomainError becomes ConfigError."""
        try:
            check_pair_geometry(self.geometry(), self.pair(0.0))
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        s = self.sweep
        if not 0 < s.z_min < s.z_max < math.inf:
            raise ConfigError("sweep needs 0 < z_min < z_max < inf")
        if not isinstance(s.n_points, int) or isinstance(s.n_points, bool):
            raise ConfigError("sweep n_points must be an integer")
        if s.n_points < 2:
            raise ConfigError("sweep needs n_points >= 2")
        if not isinstance(s.log_spacing, bool):
            raise ConfigError("sweep log_spacing must be true or false")
        n = self.azimuthal_order
        if n is not None and (not isinstance(n, int) or isinstance(n, bool)
                              or not 1 <= n <= N_MAX):
            raise ConfigError(f"azimuthal_order must be null or an integer in 1..{N_MAX}")
        if not (1e-12 <= self.tol_wire <= 1e-3):
            raise ConfigError("tol_wire must lie in [1e-12, 1e-3]")
        if not 0 < self.gamma0_abs < math.inf:
            raise ConfigError("gamma0_abs must be finite and > 0")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ConfigError("output_path must be null or a string")
        if self.output_path and not Path(self.output_path).parent.is_dir():
            raise ConfigError(f"output directory of {self.output_path!r} does not exist")
        if self.output_path and Path(self.output_path).is_dir():
            raise ConfigError(f"output path {self.output_path!r} is a directory")
        return self

    def geometry(self) -> WireGeometry:
        model = DrudeModel.from_relative(self.eps_inf, self.omega_p_over_omega_a,
                                         self.gamma_p_over_omega_p)
        return WireGeometry(radius=self.radius, model=model)

    def pair(self, dz: float) -> EmitterPair:
        """The two emitters, both at phi = 0, the second dz above the first."""
        return EmitterPair((self.rho_1, 0.0, 0.0), (self.rho_2, 0.0, dz),
                           tuple(self.dipole_1), tuple(self.dipole_2))

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    """The RunConfig of a parsed file: its schema tag, keys, number types and
    values checked (``validate``)."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    tag = raw.get("schema")
    if tag != SCHEMA_TAG:
        raise ConfigError(f"unsupported config schema {tag!r}; expected {SCHEMA_TAG!r}")
    cfg = RunConfig()
    sweep_raw = raw.get("sweep", {})
    if not isinstance(sweep_raw, dict):
        raise ConfigError("sweep must be an object")
    known = {f for f in RunConfig.__dataclass_fields__}
    for key, val in raw.items():
        # tol_model: accepted from wireqed-config/1 files and ignored, it
        # never had an effect
        if key in ("schema", "sweep", "tol_model"):
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("dipole_1", "dipole_2"):
            if not isinstance(val, list):
                raise ConfigError(f"{key} must be a list of numbers")
            val = tuple(_number(key, x) for x in val)
        setattr(cfg, key, val)
    sw = SweepSpec()
    for key, val in sweep_raw.items():
        if key not in SweepSpec.__dataclass_fields__:
            raise ConfigError(f"unknown sweep key {key!r}")
        setattr(sw, key, val)
    sw.z_min, sw.z_max = _number("z_min", sw.z_min), _number("z_max", sw.z_max)
    cfg.sweep = sw
    for fld in ("radius", "eps_inf", "omega_p_over_omega_a", "gamma_p_over_omega_p",
                "rho_1", "rho_2", "gamma0_abs", "tol_wire"):
        setattr(cfg, fld, _number(fld, getattr(cfg, fld)))
    return cfg.validate()


def _number(key, val) -> float:
    """``val`` as a float; a bool or anything float() refuses is a ConfigError."""
    if not isinstance(val, bool):
        try:
            return float(val)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number, got {val!r}")
