"""Run configuration: a JSON-serializable dataclass tree covering domain,
damping gain, initial data, integration, design knobs, and run mode, and a
run's set-up: its grid, integrator and certificate (designed or given)."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .design import DesignInput, StabilityCertificate, build_certificate, c_omega_fits
from .dynamics import MODES, IntegratorConfig
from .errors import ConfigurationError, UsageError
from .grid import C_OMEGA_SOURCES, Grid, Interval, Rectangle, build_grid, poincare_constant
from .trigger import ETA0_VARIANTS

__all__ = ["C_OMEGA_SOURCES", "DesignSpec", "RunConfig", "integer", "finite", "known_keys", "check_choice",
           "load_config", "c_omega", "run_certificate", "set_up"]

_JSON_TYPES = {"str": str, "dict": dict}

# The shape each domain kind builds; its fields are the keys it takes besides "kind".
_DOMAINS = {"interval": Interval, "rectangle": Rectangle}


def _check_types(obj) -> None:
    """Refuse field values of the wrong JSON type and non-finite numbers."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind, _, optional = f.type.partition(" | ")
        if optional and value is None:
            continue
        if kind == "float":
            finite(f.name, value)
        elif kind in _JSON_TYPES and not isinstance(value, _JSON_TYPES[kind]):
            raise ConfigurationError(f"{f.name} must be of type {kind}, got {value!r}")


def integer(name: str, value) -> int:
    """``value`` as an int when it is an integer or an integer-valued float
    such as ``49.0``; anything else (``49.7``, a bool, a string) is refused."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite(name: str, value) -> float:
    """``value`` as a float when it is a finite int or float; a bool, a
    string, NaN, an infinity or an int too large for a float is refused."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def known_keys(what: str, spec: dict, keys) -> None:
    """Refuse keys of ``spec`` outside ``keys``: a misspelt key would
    otherwise be ignored and the run go ahead on the default."""
    unknown = set(spec) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Refuse a ``value`` not in ``choices``; a tuple is searched by ``==``,
    so an unhashable value is refused too."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {choices}, got {value!r}")


def _from_dict(cls, d: dict, what: str):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {d!r}")
    known_keys(what, d, (f.name for f in fields(cls)))
    return cls(**d)


@dataclass
class DesignSpec:  # the design knobs default to design.DesignInput's
    s_gamma0: float = DesignInput.s_gamma0
    s_gamma1: float = DesignInput.s_gamma1
    theta_margin: float = DesignInput.theta_margin
    comega_source: str = "discrete"
    comega_value: float | None = None
    eta0_variant: str = "v0"

    def __post_init__(self):
        _check_types(self)
        check_choice("comega_source", self.comega_source, C_OMEGA_SOURCES)
        check_choice("eta0_variant", self.eta0_variant, ETA0_VARIANTS)
        if self.comega_source == "user" and self.comega_value is None:
            raise ConfigurationError("comega_source 'user' needs comega_value")


@dataclass
class RunConfig:
    domain: dict = field(default_factory=lambda: {"kind": "interval", "length": 1.0, "n": 199})
    alpha: float = 1.0
    z0: dict = field(default_factory=lambda: {"kind": "sine", "k": 1})
    z1: dict = field(default_factory=lambda: {"kind": "zero"})
    dt: float | None = None
    cfl_fraction: float = 0.5
    t_end: float = 10.0
    design: DesignSpec = field(default_factory=DesignSpec)
    mode: str = "event-triggered"
    period: float | None = None
    certificate_path: str | None = None
    out: str = "runs/run"

    def __post_init__(self):
        if not isinstance(self.design, DesignSpec):
            self.design = _from_dict(DesignSpec, self.design, "design")
        _check_types(self)
        check_choice("mode", self.mode, MODES)

    @property
    def domain_kind(self) -> str:  # a domain that names no kind is an interval
        return self.domain.get("kind", "interval")

    def build_grid(self) -> Grid:
        d = self.domain
        kind = self.domain_kind
        check_choice("domain kind", kind, tuple(_DOMAINS))
        keys = fields(_DOMAINS[kind])
        known_keys(f"{kind} domain", d, ("kind", *(f.name for f in keys)))
        try:  # an int field is a node count, a float one a length
            args = {f.name: (integer if f.type == "int" else finite)(f.name, d[f.name]) for f in keys}
        except KeyError as exc:
            raise ConfigurationError(f"domain spec missing key {exc}") from exc
        return build_grid(_DOMAINS[kind](**args))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _from_dict(cls, d, "config")


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return RunConfig.from_dict(data)


def c_omega(cfg: RunConfig, g: Grid) -> float:
    """The configured C_Omega: ``comega_value`` for the ``user`` source, else
    computed on ``g`` by its source."""
    d = cfg.design
    return float(d.comega_value) if d.comega_source == "user" else poincare_constant(g, d.comega_source)


def run_certificate(cfg: RunConfig, g: Grid, given: StabilityCertificate | None = None) -> StabilityCertificate:
    """The certificate of a run of ``cfg`` on ``g``: ``given`` (read from ``certificate_path``),
    or else the one ``cfg`` designs on ``g``. Either must have the run's alpha and a C_Omega
    that is ``g``'s by its source (``design.c_omega_fits``); a misfit is a configuration error."""
    d = cfg.design
    cert = given or build_certificate(
        DesignInput(cfg.alpha, c_omega(cfg, g), d.comega_source, d.s_gamma0, d.s_gamma1, d.theta_margin))
    if cert.alpha != cfg.alpha or not c_omega_fits(cert, g):
        what = f"certificate {cfg.certificate_path}" if given else "the designed certificate"
        raise ConfigurationError(f"{what} (alpha = {cert.alpha}, C_Omega = {cert.c_omega}, {cert.c_omega_source}) does not "
                                 f"fit this run (alpha = {cfg.alpha}, lengths {g.lengths}, counts {g.counts})")
    return cert


def set_up(cfg: RunConfig, given: StabilityCertificate | None = None) -> tuple[Grid, StabilityCertificate | None, IntegratorConfig]:
    """A run's grid, certificate (``run_certificate`` with ``given``; none when uncontrolled) and
    integrator, for ``simulate`` and ``verify`` alike. The integrator is made before the design,
    so a bad ``t_end`` or ``dt`` is refused ahead of an infeasible domain."""
    g = cfg.build_grid()
    integ = IntegratorConfig(cfg.t_end, cfg.dt, cfg.cfl_fraction)
    return g, None if cfg.mode == "uncontrolled" else run_certificate(cfg, g, given), integ
