"""INI run configuration: strict parsing, exact rendering, typed builders.

Sections mirror the simulation parameter table: [array], [link], [scenario],
[optimizer], [codebook], [event_based], [output]. Fields carrying dB units are
suffixed _dbm / _dbmhz. Unknown sections or keys are rejected, every known key
is required, and parse(render(config)) reproduces the configuration exactly;
render refuses a string that INI cannot hold (surrounding spaces, line breaks).
"""

from __future__ import annotations

import configparser
import functools
import io
import math
from dataclasses import dataclass, field, fields, replace

from .channel import ArrayConfig, LinkBudget, achievable_rate
from .codebook import CodebookGrid
from .optimizer import ObjectiveSpec, PsoConfig, pso_bounds
from .tracking import EventBasedParams, Scenario


class ConfigError(Exception):
    """Configuration file could not be parsed or validated."""


@dataclass(frozen=True)
class ArraySection:
    n_antennas: int = 128
    carrier_freq_hz: float = 220e9


@dataclass(frozen=True)
class LinkSection:
    tx_power_dbm: float = 40.0
    noise_psd_dbmhz: float = -174.0
    bandwidth_hz: float = 10e9
    absorption_coeff_per_m: float = 0.0


@dataclass(frozen=True)
class ScenarioSection:
    perpendicular_distance_m: float = 100.0
    start_angle_rad: float = 0.0
    end_angle_rad: float = 0.3
    velocity_mps: float = 20.0
    sensing_period_s: float = 0.165
    time_step_s: float = 0.00165


@dataclass(frozen=True)
class OptimizerSection:
    alpha: float = 10.0
    r_min_bps: float | None = None  # None means "auto": 10% of the aligned start rate
    n_quad: int = 64
    n_particles: int = 40
    n_iterations: int = 100
    inertia: float = 0.7298
    cognitive: float = 1.4962
    social: float = 1.4962
    seed: int = 1234567


@dataclass(frozen=True)
class CodebookSection:
    # theta_hi exceeds sin(end angle): the last sensing periods predict a full
    # period past the end of the motion range, so beam centres overshoot it.
    theta_step: float = 0.01
    delta_step: float = 0.002
    theta_lo: float = 0.0
    theta_hi: float = 0.37
    delta_max: float = 0.084
    path: str = "codebook.json"


@dataclass(frozen=True)
class EventSection:
    slot_s: float = 0.05
    rw_var: float = 25.0
    weight: float = 0.1


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    delimiter: str = ","


@dataclass(frozen=True)
class RunConfig:
    array: ArraySection = field(default_factory=ArraySection)
    link: LinkSection = field(default_factory=LinkSection)
    scenario: ScenarioSection = field(default_factory=ScenarioSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    codebook: CodebookSection = field(default_factory=CodebookSection)
    event_based: EventSection = field(default_factory=EventSection)
    output: OutputSection = field(default_factory=OutputSection)


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _parse_value(section: str, key: str, annotation: str, raw: str):
    """``raw`` as the field's annotated type; r_min_bps also accepts the word "auto"."""
    raw = raw.strip()
    if key == "r_min_bps" and raw == "auto":
        return None
    if key == "delimiter" and (len(raw) != 1 or raw == '"'):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not one character other than '\"'")
    if annotation == "str":
        return raw
    try:
        value = int(raw) if annotation == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if not math.isfinite(value):  # nan, inf, and literals such as 1e999 that overflow to inf
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse INI ``text``; a malformed-file message names it as ``source``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:  # configparser's messages span lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed configuration: {message}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    built = {}
    for section, cls in _SECTIONS.items():
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        known = {f.name: f.type for f in fields(cls)}  # annotations are strings here
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _parse_value(section, key, known[key], raw)
        for key in known:
            if key not in values:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
        built[section] = cls(**values)
    return RunConfig(**built)


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    return parse_config(text, source=str(path))


def _render_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        raise ConfigError("boolean config values are not supported")
    if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
        raise ConfigError(f"{value!r} cannot be written: INI values lose edge spaces and breaks")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: RunConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, cls in _SECTIONS.items():
        data = getattr(config, section)
        parser[section] = {
            f.name: _render_value(getattr(data, f.name)) for f in fields(cls)
        }
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Builders from a parsed configuration to the typed simulation objects.
# ---------------------------------------------------------------------------


def _builder(build):
    """Report a value that parses but that the built object rejects as a ConfigError."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid value: {exc}") from exc

    return checked


@_builder
def build_array(config: RunConfig) -> ArrayConfig:
    return ArrayConfig(
        n_antennas=config.array.n_antennas,
        carrier_freq=config.array.carrier_freq_hz,
    )


@_builder
def build_budget(config: RunConfig) -> LinkBudget:
    return LinkBudget.from_db(
        tx_power_dbm=config.link.tx_power_dbm,
        noise_psd_dbmhz=config.link.noise_psd_dbmhz,
        bandwidth_hz=config.link.bandwidth_hz,
        absorption_coeff_per_m=config.link.absorption_coeff_per_m,
    )


@_builder
def build_scenario(config: RunConfig) -> Scenario:
    sc, r_min = config.scenario, config.optimizer.r_min_bps
    scenario = Scenario(
        cfg=build_array(config),
        budget=build_budget(config),
        perpendicular_distance=sc.perpendicular_distance_m,
        start_angle=sc.start_angle_rad,
        end_angle=sc.end_angle_rad,
        velocity=sc.velocity_mps,
        tau=sc.sensing_period_s,
        time_step=sc.time_step_s,
        r_min=0.0 if r_min is None else r_min,
    )
    if r_min is None:  # auto, taken once Scenario has checked the start angle
        cfg, distance = scenario.cfg, sc.perpendicular_distance_m / math.cos(sc.start_angle_rad)
        aligned = achievable_rate(float(cfg.n_antennas), distance, scenario.budget, cfg)
        scenario = replace(scenario, r_min=0.1 * aligned)
    return scenario


@_builder
def build_pso(config: RunConfig, seed: int | None = None) -> PsoConfig:
    opt = config.optimizer
    return PsoConfig(
        bounds=pso_bounds(build_array(config)),
        n_particles=opt.n_particles,
        n_iterations=opt.n_iterations,
        inertia=opt.inertia,
        cognitive=opt.cognitive,
        social=opt.social,
        seed=opt.seed if seed is None else seed,
    )


@_builder
def build_grid(config: RunConfig) -> CodebookGrid:
    cbs = config.codebook
    return CodebookGrid(
        theta_step=cbs.theta_step,
        delta_step=cbs.delta_step,
        theta_range=(cbs.theta_lo, cbs.theta_hi),
        delta_max=cbs.delta_max,
    )


@_builder
def build_objective_template(config: RunConfig) -> ObjectiveSpec:
    """The configuration's first period spec: the one place alpha and n_quad become a spec."""
    opt = config.optimizer
    return build_scenario(config).period_spec(0.0, opt.alpha, opt.n_quad)


@_builder
def build_event_params(config: RunConfig) -> EventBasedParams:
    return EventBasedParams(
        slot=config.event_based.slot_s,
        rw_var=config.event_based.rw_var,
        weight=config.event_based.weight,
    )
