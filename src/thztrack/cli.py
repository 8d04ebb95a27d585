"""Command-line entry points: codebook-build, simulate, sweep, pattern.

Exit codes: 0 success, 2 configuration or usage error, 3 codebook error (missing file,
version, a build value that is not the scenario's, corrupt payload), 4 run failure, including
an output that cannot be created or written and an input-sized allocation memory cannot hold.
Every argument and configuration value is checked before the codebook is read, and every
failure is one stderr line: ``usage error: <prog>: <message>`` for a bad command line.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import codebook as cbmod
from .codebook import CodebookError, build_codebook
from .config import (
    ConfigError,
    RunConfig,
    build_event_params,
    build_grid,
    build_objective_template,
    build_pso,
    build_scenario,
    parse_config_file,
)
from .exports import pattern_gain_db, write_pattern, write_sweep, write_trace
from .optimizer import optimize_omegas
from .precoder import adaptive_precoder, bf_gain_profile
from .seeding import derive_seed
from .tracking import (
    SCHEMES,
    TrackingRunError,
    axis_scenario,
    compute_metrics,
    run_schemes,
    sweep,
    sweep_scenarios,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CODEBOOK = 3
EXIT_RUN = 4


class UsageError(Exception):
    """A command line argparse rejects, as ``<prog>: <message>``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print its usage block first, then exit
        raise UsageError(f"{self.prog}: {message}")


def _parse_values(raw: str) -> list[float]:
    values = [v for v in (part.strip() for part in raw.split(",")) if v]
    if not values:
        raise ConfigError("no values given; expected a comma-separated list")
    try:
        numbers = [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"cannot parse value list {raw!r}") from exc
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"value list {raw!r} holds a non-finite number")
    return numbers


def _out_dir(args, config: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_codebook(args, config: RunConfig):
    template = build_objective_template(config)  # a config error is exit 2 whatever the codebook
    cb = cbmod.load(args.codebook or config.codebook.path)
    cbmod.check_scenario(cb, template)
    return cb


def cmd_codebook_build(args) -> int:
    config = parse_config_file(args.config)
    grid = build_grid(config)
    template = build_objective_template(config)
    pso = build_pso(config, seed=args.seed)
    out_path = Path(args.out) if args.out else Path(config.codebook.path)
    out_path.parent.mkdir(parents=True, exist_ok=True)  # fail before the build, not after
    if out_path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_path))
    started = time.perf_counter()
    cb = build_codebook(grid, template, pso, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    cbmod.save(cb, out_path)
    built = " ".join(f"{name}={value!r}" for name, value in cb.fingerprint.items())
    print(f"cells={len(cb.entries)} seed={cb.pso.seed} {built}")
    print(f"written {out_path} in {elapsed:.1f} s")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = parse_config_file(args.config)
    scenario = build_scenario(config)
    keys = list(SCHEMES) if args.scheme == "all" else [args.scheme]
    event_params = build_event_params(config)
    cb = _load_codebook(args, config) if "proposed" in keys else None
    try:
        records = run_schemes(scenario, keys, cb, event_params)
    except ValueError as exc:  # a run failure, reported as sweep reports one
        raise TrackingRunError(str(exc)) from exc
    out = _out_dir(args, config)  # only once every scheme has run, so a failed run writes nothing
    window = (scenario.start_angle, scenario.end_angle)
    for key, rec in zip(keys, records):
        trace_path = out / f"trace_{SCHEMES[key][1]}.csv"
        write_trace(rec, trace_path, config.output.delimiter)
        m = compute_metrics(rec, window)
        print(
            f"{rec.scheme}: avg_rate={m.avg_rate:.6e} bit/s "
            f"outage={m.outage_prob:.4f} realignments={m.realignment_count} "
            f"-> {trace_path}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = parse_config_file(args.config)
    template = build_scenario(config)
    values = _parse_values(args.values)
    keys = [k.strip() for k in args.schemes.split(",") if k.strip()]
    event_params = build_event_params(config)
    try:
        sweep_scenarios(template, args.axis, values, keys)
    except ValueError as exc:  # bad schemes or axis values, checked before the codebook
        raise ConfigError(str(exc)) from exc
    cb = _load_codebook(args, config) if "proposed" in keys else None
    rows = sweep(template, args.axis, values, keys, cb, event_params, args.jobs)
    out = _out_dir(args, config)
    table_path = out / "sweep.csv"
    write_sweep(rows, table_path, config.output.delimiter)
    print(f"{len(rows)} rows -> {table_path}")
    for key in keys:
        label, slug = SCHEMES[key]
        scheme_rows = [r for r in rows if r.scheme == label]
        path = out / f"sweep_{slug}.csv"
        write_sweep(scheme_rows, path, config.output.delimiter)
        print(f"  {label} -> {path}")
    return EXIT_OK


def cmd_pattern(args) -> int:
    config = parse_config_file(args.config)
    pso = build_pso(config, seed=args.seed)
    velocities = _parse_values(args.velocities)
    names = [f"pattern_v{v:g}.csv" for v in velocities]
    for i, name in enumerate(names):
        if name in names[:i]:  # the later pattern would overwrite the earlier one
            first = velocities[names.index(name)]
            raise ConfigError(f"velocities {first!r} and {velocities[i]!r} would both write {name}")
    template, scenario = build_objective_template(config), build_scenario(config)
    try:
        scenarios = [axis_scenario(scenario, "velocity", v) for v in velocities]
    except ValueError as exc:  # a velocity no scenario accepts, named as sweep names it
        raise ConfigError(str(exc)) from exc
    specs = [sc.period_spec(0.0, template.alpha, template.n_quad) for sc in scenarios]
    seeds = [derive_seed("pattern", pso.seed, v) for v in velocities]
    results = optimize_omegas(specs, pso, seeds)
    out = _out_dir(args, config)
    sin_grid = np.linspace(-1.0, 1.0, 2001)
    for velocity, name, scenario, spec, result in zip(velocities, names, scenarios, specs, results):
        beam = adaptive_precoder(spec.interval, result.omega_star, scenario.cfg)
        gains = bf_gain_profile(sin_grid, beam, scenario.cfg)
        path = out / name
        write_pattern(sin_grid, pattern_gain_db(gains), path, config.output.delimiter)
        print(
            f"v={velocity:g} m/s: theta_m={beam.theta_m:.6f} delta={beam.delta:.6f} "
            f"omega={beam.omega:.6f} beta={beam.beta:.6e} "
            f"peak={10 * math.log10(max(gains)):.2f} dB -> {path}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thztrack",
        description="Sensing-assisted THz beam tracking simulator",
        epilog="exit codes: 0 ok, 2 config/usage, 3 codebook, 4 run failure or unwritable output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, codebook=False, pooled=False):
        p.add_argument("--config", required=True, help="run configuration (INI)")
        p.add_argument("--out", help="output directory or file")
        if pooled:  # the commands whose swarms run in a worker pool
            jobs_help = "worker processes (default: all cores)"
            p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help=jobs_help)
        if codebook:
            p.add_argument("--codebook", help="codebook file (default from config)")
        else:  # the commands that run the swarm
            p.add_argument("--seed", type=int, help="override the configured master seed")

    p_build = sub.add_parser("codebook-build", help="optimise and save the beam codebook")
    common(p_build, pooled=True)
    p_build.set_defaults(func=cmd_codebook_build)

    p_sim = sub.add_parser("simulate", help="run one tracking episode per scheme")
    common(p_sim, codebook=True)
    p_sim.add_argument(
        "--scheme",
        default="all",
        choices=[*SCHEMES, "all"],
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="metrics over a velocity or power axis")
    common(p_sweep, codebook=True, pooled=True)
    p_sweep.add_argument("--axis", required=True, choices=["velocity", "tx_power"])
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument(
        "--schemes", default="proposed,conventional,event", help="comma-separated schemes"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_pattern = sub.add_parser("pattern", help="beam patterns for a velocity list")
    common(p_pattern)
    p_pattern.add_argument("--velocities", required=True, help="comma-separated m/s values")
    p_pattern.set_defaults(func=cmd_pattern)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with warnings.catch_warnings():  # forked pool workers inherit the one-line format
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if getattr(args, "jobs", 1) < 1:
                raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
            return args.func(args)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except CodebookError as exc:
            print(f"codebook error: {exc}", file=sys.stderr)
            return EXIT_CODEBOOK
        # MemoryError: an input-sized allocation; OSError: an unwritable output, not a read
        except (TrackingRunError, MemoryError, OSError) as exc:
            print(f"run error: {exc}", file=sys.stderr)
            return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
