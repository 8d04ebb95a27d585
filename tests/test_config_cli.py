"""Configuration parsing/rendering and the command-line surface."""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thztrack import (
    CodebookGrid,
    RunConfig,
    achievable_rate,
    build_array,
    build_budget,
    build_scenario,
    parse_config,
    render_config,
)
from thztrack.cli import _build_parser, main
from thztrack.codebook import FINGERPRINT
from thztrack.config import _SECTIONS
from conftest import check_rejections, table_tests

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1.ini"


def small_config_text(tmp_path: Path) -> Path:
    """Fast 16-antenna configuration for CLI round trips."""
    rc = RunConfig()
    rc = replace(
        rc,
        array=replace(rc.array, n_antennas=16),
        scenario=replace(rc.scenario, velocity_mps=20.0, time_step_s=0.165 / 20.0),
        optimizer=replace(rc.optimizer, n_quad=16, n_particles=8, n_iterations=10),
        codebook=replace(
            rc.codebook,
            theta_step=0.04,
            delta_step=0.01,
            theta_lo=0.0,
            theta_hi=0.32,
            delta_max=0.02,
            path=str(tmp_path / "cb.json"),
        ),
        output=replace(rc.output, directory=str(tmp_path / "out")),
    )
    path = tmp_path / "run.ini"
    path.write_text(render_config(rc))
    return path


def test_default_config_reference_values():
    rc = RunConfig()
    assert rc.array.n_antennas == 128
    assert rc.array.carrier_freq_hz == 220e9
    assert rc.link.tx_power_dbm == 40.0
    assert rc.link.noise_psd_dbmhz == -174.0
    assert rc.link.bandwidth_hz == 10e9
    assert rc.scenario.perpendicular_distance_m == 100.0
    assert rc.scenario.start_angle_rad == 0.0
    assert rc.scenario.end_angle_rad == 0.3
    assert rc.scenario.sensing_period_s == 0.165
    assert rc.event_based.slot_s == 0.05
    assert rc.event_based.rw_var == 25.0
    assert rc.event_based.weight == 0.1


def test_shipped_config_matches_defaults():
    assert parse_config(REPO_CONFIG.read_text()) == RunConfig()


def test_round_trip_exact():
    rc = RunConfig()
    assert parse_config(render_config(rc)) == rc
    # a second pass is also stable
    assert render_config(parse_config(render_config(rc))) == render_config(rc)


def test_round_trip_explicit_r_min():
    rc = RunConfig()
    rc = replace(rc, optimizer=replace(rc.optimizer, r_min_bps=3.21e9))
    parsed = parse_config(render_config(rc))
    assert parsed == rc
    assert build_scenario(parsed).r_min == 3.21e9


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FIELD = {
    "int": st.integers(-(2**63), 2**63),
    "float": _FINITE,
    "float | None": st.none() | _FINITE,
    # what render_config can write: one line without surrounding whitespace
    "str": st.text(max_size=12).filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1),
    # a delimiter is one character other than a double quote
    "delimiter": st.characters(exclude_characters='"').filter(lambda c: c.isprintable() and c != " "),
}
_RUN_CONFIGS = st.builds(
    RunConfig,
    **{
        section: st.builds(cls, **{f.name: _FIELD.get(f.name, _FIELD[f.type]) for f in fields(cls)})
        for section, cls in _SECTIONS.items()
    },
)


@settings(max_examples=200, deadline=None)
@given(_RUN_CONFIGS)
def test_round_trip_arbitrary_config(rc):
    assert parse_config(render_config(rc)) == rc


def _with_field(name: str, value) -> RunConfig:
    rc = RunConfig()
    section = next(s for s, cls in _SECTIONS.items() if name in {f.name for f in fields(cls)})
    return replace(rc, **{section: replace(getattr(rc, section), **{name: value})})


def _parsed(old: str, new: str):
    """A call parsing the default config text with ``old`` replaced by ``new``."""
    return lambda: parse_config(render_config(RunConfig()).replace(old, new))


_REJECTIONS = {
    "test_render_refuses_strings_ini_cannot_hold": {
        f"{name}-{value}": (
            lambda n=name, v=value: render_config(_with_field(n, v)),
            f"ConfigError: {value!r} cannot be written: INI values lose edge spaces and breaks",
        )
        for name, value in [("delimiter", "\t"), ("path", "a\nb"), ("directory", "out ")]
    },
    "test_render_refuses_booleans": (lambda: render_config(_with_field("seed", True)),
                                     "ConfigError: boolean config values are not supported"),
    "test_unknown_key_rejected": (_parsed("alpha = 10.0", "alpha = 10.0\nbogus = 1"),
                                  "ConfigError: unknown key 'bogus' in section [optimizer]"),
    "test_unknown_section_rejected": (_parsed("[output]", "[mystery]\nx = 1\n\n[output]"),
                                      "ConfigError: unknown section [mystery]"),
    "test_missing_key_rejected": (_parsed("alpha = 10.0\n", ""),
                                  "ConfigError: missing key 'alpha' in section [optimizer]"),
    "test_bad_number_named": (_parsed("tx_power_dbm = 40.0", "tx_power_dbm = loud"),
                              "ConfigError: [link] tx_power_dbm: cannot parse 'loud'"),
}
globals().update(table_tests(_REJECTIONS, check_rejections))


def test_r_min_auto_resolution():
    rc = RunConfig()
    cfg = build_array(rc)
    budget = build_budget(rc)
    aligned = achievable_rate(float(cfg.n_antennas), 100.0, budget, cfg)
    assert build_scenario(rc).r_min == pytest.approx(0.1 * aligned, rel=1e-12)


def test_cli_codebook_build_and_determinism(tmp_path, capsys):
    config = small_config_text(tmp_path)
    cb_path = tmp_path / "cb.json"
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    # the build values the codebook is bound to, each by name
    assert "cells=" in out and all(f" {name}=" in out for name in FINGERPRINT)
    # and the failure table edits each of them
    assert set(json.loads(cb_path.read_text())["fingerprint"]) == set(_HEADER_EDITS)
    first = cb_path.read_bytes()
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    assert cb_path.read_bytes() == first


def test_cli_simulate_all_schemes(tmp_path, capsys):
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--scheme", "all"]) == 0
    out_dir = tmp_path / "out"
    traces = sorted(p.name for p in out_dir.glob("trace_*.csv"))
    assert traces == ["trace_conventional.csv", "trace_event_based.csv", "trace_proposed.csv"]
    # aligned time axes and finite numeric columns
    columns = {}
    for name in traces:
        lines = (out_dir / name).read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["time_s", "scheme"]
        times = [float(line.split(",")[0]) for line in lines[1:]]
        values = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(math.isfinite(v) for v in times + values)
        columns[name] = times
    assert columns["trace_proposed.csv"] == columns["trace_conventional.csv"]
    assert columns["trace_proposed.csv"] == columns["trace_event_based.csv"]
    # the approximate baseline is labelled as such
    event_text = (out_dir / "trace_event_based.csv").read_text()
    assert "event-based (approx.)" in event_text


def test_cli_static_trace_constant(tmp_path):
    config = small_config_text(tmp_path)
    # rewrite with a static target
    text = config.read_text().replace("velocity_mps = 20.0", "velocity_mps = 0.0")
    config.write_text(text)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--scheme", "conventional"]) == 0
    lines = (tmp_path / "out" / "trace_conventional.csv").read_text().strip().splitlines()
    rates = {line.split(",")[5] for line in lines[1:]}
    assert len(rates) == 1


def test_cli_event_counts_no_realignment_after_the_last_slot(tmp_path, capsys):
    # on the shipped config at 309.34 m/s and 10 ms steps the path ends 1.4e-17 s after the
    # second 50 ms slot, which has an outage; no slot follows it, so it ends in no realignment
    rc = RunConfig()
    edge = replace(rc.scenario, velocity_mps=309.3362496096232, time_step_s=0.01)
    config, out = tmp_path / "edge.ini", tmp_path / "out"
    config.write_text(render_config(replace(rc, scenario=edge)))
    assert main(["simulate", "--config", str(config), "--out", str(out), "--scheme", "event"]) == 0
    assert " realignments=2 " in capsys.readouterr().out
    rows = (out / "trace_event_based.csv").read_text().splitlines()[1:]
    assert sorted({row.rsplit(",", 1)[1] for row in rows}) == ["event[0]", "event[1]"]


def test_cli_sweep_and_plot_files(tmp_path):
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    assert (
        main(
            [
                "sweep",
                "--config",
                str(config),
                "--axis",
                "velocity",
                "--values",
                "10,20",
                "--schemes",
                "proposed,conventional",
                "--jobs",
                "1",
            ]
        )
        == 0
    )
    out_dir = tmp_path / "out"
    table = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert table[0] == "value,scheme,avg_rate_bps,outage_prob,realignment_count"
    assert len(table) == 5  # header + 2 values x 2 schemes
    assert (out_dir / "sweep_proposed.csv").exists()
    assert (out_dir / "sweep_conventional.csv").exists()


def test_cli_pattern(tmp_path):
    config = small_config_text(tmp_path)
    assert main(["pattern", "--config", str(config), "--velocities", "10,50"]) == 0
    out_dir = tmp_path / "out"
    for v in ("10", "50"):
        lines = (out_dir / f"pattern_v{v}.csv").read_text().strip().splitlines()
        assert lines[0] == "sin_dir,gain_db"
        assert len(lines) == 2002
        gains = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(math.isfinite(g) for g in gains)


def test_cli_pattern_matches_direct_gain(tmp_path):
    # exported dB samples invert to the direct gain of the same beam, and the
    # pattern integral over sine space stays at the unit-power value of 2
    import numpy as np

    from gain_reference import bf_gain_direct
    from thztrack import adaptive_precoder
    from thztrack.config import build_pso, parse_config_file
    from thztrack.optimizer import optimize_omega
    from thztrack.seeding import derive_seed

    config = small_config_text(tmp_path)
    assert main(["pattern", "--config", str(config), "--velocities", "30"]) == 0
    lines = (tmp_path / "out" / "pattern_v30.csv").read_text().strip().splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]

    rc = parse_config_file(config)
    scenario = replace(build_scenario(rc), velocity=30.0)
    spec = scenario.period_spec(0.0, rc.optimizer.alpha, rc.optimizer.n_quad)
    interval = spec.interval
    pso = build_pso(rc)
    result = optimize_omega(spec, replace(pso, seed=derive_seed("pattern", pso.seed, 30.0)))
    beam = adaptive_precoder(interval, result.omega_star, scenario.cfg)
    for s, db in rows[::97]:
        expected = bf_gain_direct(s, beam, scenario.cfg)
        assert 10.0 ** (db / 10.0) == pytest.approx(max(expected, 1e-12), rel=1e-9)

    sines = np.array([s for s, _ in rows])
    gains = np.array([10.0 ** (db / 10.0) for _, db in rows])
    assert float(np.trapezoid(gains, sines)) == pytest.approx(2.0, abs=0.01)

    peak_dir, peak_db = max(rows, key=lambda r: r[1])
    assert interval.lo - 0.01 <= peak_dir <= interval.hi + 0.01
    far = [db for s, db in rows if abs(s - interval.theta_m) > 0.5]
    assert min(far) < peak_db - 20.0


def test_cli_oversized_codebook_header_exits_before_building_cells(tmp_path, capsys, monkeypatch):
    # the header claims 3701 x 43 = 159143 cells, under codebook.MAX_CELLS, for the file's one omega
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    payload["grid"].update(theta_step=1e-4, theta_hi=0.37, delta_step=0.002, delta_max=0.084)
    payload["omega"], payload["objective"] = payload["omega"][:1], payload["objective"][:1]
    path.write_text(json.dumps(payload))
    capsys.readouterr()

    def no_cells(grid):
        raise AssertionError("cells built for a codebook that does not fit its header")

    monkeypatch.setattr(CodebookGrid, "cells", no_cells)
    start = time.perf_counter()
    assert main(["simulate", "--config", str(config), "--scheme", "proposed"]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "codebook error: 1 omegas and 1 objectives for 159143 cells\n"


def _blocked_output(tmp_path: Path) -> Path:
    """Config whose output directory lies under a regular file, so it cannot be created."""
    config = small_config_text(tmp_path)
    (tmp_path / "blocker").write_text("a regular file\n")
    text = config.read_text().replace(str(tmp_path / "out"), str(tmp_path / "blocker" / "out"))
    config.write_text(text)
    return config


def test_cli_codebook_build_unwritable_output_fails_before_building(tmp_path, capsys, monkeypatch):
    config = _blocked_output(tmp_path)
    builds = []
    monkeypatch.setattr("thztrack.cli.build_codebook", lambda *args, **kw: builds.append(args))
    out = tmp_path / "blocker" / "cb.json"
    assert main(["codebook-build", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("run error:") and "blocker" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert builds == []


def test_cli_codebook_build_into_directory_fails_before_building(tmp_path, capsys, monkeypatch):
    config = small_config_text(tmp_path)
    out = tmp_path / "existing"
    out.mkdir()

    def no_build(*args, **kw):
        pytest.fail("build_codebook ran although the output is a directory")

    monkeypatch.setattr("thztrack.cli.build_codebook", no_build)
    assert main(["codebook-build", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("run error:") and str(out) in err and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_cli_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: thztrack simulate [-h] --config CONFIG")


def test_cli_seed_overrides_where_the_swarm_runs():
    parser = _build_parser()
    for swarm_command in (["codebook-build"], ["pattern", "--velocities", "10"]):
        assert parser.parse_args([*swarm_command, "--config", "x.ini", "--seed", "3"]).seed == 3


# ---------------------------------------------------------------------------
# Every documented failure of the command line, one row per run.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One command run, its exit code and every stderr line; "<tmp>" is the run's directory.

    A command's argv that names no ``--config`` gets the run's config. ``edits`` set config
    keys, after any build. ``header`` sets values by key path in a codebook built first from
    the unedited config; None builds none. ``text`` replaces the whole config file.
    """

    argv: list[str]
    code: int
    lines: list[str]
    edits: dict = field(default_factory=dict)
    header: dict | None = None
    text: str | None = None


def _run_row(row: Row, tmp: Path, capfd, monkeypatch) -> None:
    tmp.mkdir()
    config = small_config_text(tmp)
    inputs = {"run.ini"}
    if row.header is not None:
        assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
        path, inputs = tmp / "cb.json", {"run.ini", "cb.json"}
        payload = json.loads(path.read_text())
        for (*keys, last), value in row.header.items():
            target = payload
            for key in keys:
                target = target[key]
            target[last] = value
        path.write_text(json.dumps(payload))
    lines = config.read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert set(row.edits) <= set(keys)
    edited = [f"{k} = {row.edits[k]}" if k in row.edits else line for k, line in zip(keys, lines)]
    config.write_text("\n".join(edited) + "\n" if row.text is None else row.text)
    capfd.readouterr()
    argv = [arg.replace("<tmp>", str(tmp)) for arg in row.argv]
    with monkeypatch.context() as patch:
        if row.code == 2:  # a configuration error is found before any swarm runs
            patch.delattr("thztrack.cli.optimize_omegas")
        code = main(argv if "--config" in argv or not argv else [*argv, "--config", str(config)])
    err = capfd.readouterr().err
    assert (code, err.replace(str(tmp), "<tmp>").splitlines()) == (row.code, row.lines)
    assert err.endswith("\n") and "Traceback" not in err
    if code:  # a failing run writes nothing: no output directory, and no codebook
        assert {p.name for p in tmp.iterdir()} == inputs


def _run_rows(rows: list[Row], request) -> None:
    # capfd, not capsys, since pool workers write to fd 2
    tmp_path, capfd, patch = map(request.getfixturevalue, ["tmp_path", "capfd", "monkeypatch"])
    for i, row in enumerate(rows):  # in order, each in a directory of its own
        _run_row(row, tmp_path / f"run{i}", capfd, patch)


def _float_keys() -> list[tuple[str, str]]:
    return [
        (section, f.name)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
        if "float" in str(f.type)
    ]


_CONVENTIONAL = ["simulate", "--scheme", "conventional"]
_PROPOSED = ["simulate", "--scheme", "proposed"]
_PATTERN = ["pattern", "--velocities", "30"]
_VELOCITY = ["sweep", "--axis", "velocity", "--values"]
_POWER = ["sweep", "--axis", "tx_power", "--values"]
_VELOCITY_SWEEP = [*_VELOCITY, "20", "--jobs", "1"]
_POWER_SWEEP = [*_POWER, "30,40", "--jobs", "2"]
_BUILD = ["codebook-build", "--jobs"]
_INVALID = "configuration error: invalid value: "
_ALPHA = f"{_INVALID}penalty weight must be finite and >= 0, got -1.0"
_NODES = f"{_INVALID}need 8 to 1024 quadrature nodes, got "
_SLOTS = "1.54668e+300 segments of 1e-300 s, over 1000000"
_SLOT_ZERO = f"{_INVALID}slot duration must be finite and positive"
_FAR = "warning: link distance inside the Fraunhofer range; far-field model inaccurate"
_NEAR = {"perpendicular_distance_m": 5.0, "n_antennas": 128}  # inside the 10.99 m range
# the small grid at theta_step = 1e-12: 320000000001 centres x 3 rows
_FINE_GRID = {"theta_step": 1e-12, "delta_step": 0.01, "theta_lo": 0.0, "theta_hi": 0.32,
              "delta_max": 0.02}
_CELLS = "grid of 960000000003 cells is over 1000000"
_HI = 23.561944901923447  # the small config's upper search bound
_ANTENNAS = f"{_INVALID}antenna count {10**19} is over 1000000"
_UNKNOWN = (
    "configuration error: unknown scheme 'bogus'; expected one of "
    "('proposed', 'conventional', 'event')"
)
_EACH_ONCE = "configuration error: sweep requires at least one scheme, each once; got "
_UNRECOGNIZED = "usage error: thztrack: unrecognized arguments: "
_NO_EVENT_SECTION = re.sub(r"\[event_based\][^[]*", "", render_config(RunConfig()))
# the true path's sine rounds to 1.0 within the first sensing period, where no beam points
_AT_EDGE = {"end_angle_rad": 1.5707963267948963, "velocity_mps": 1e15}

# key path and value, then the message: a negative bound or alpha, too few quadrature nodes,
# a float, bool or string where a count or seed belongs, header, grid and cell values that
# are no numbers, and a fingerprint that is no object
_INVALID_HEADERS = {
    "negative-lower-bound": (
        ("pso", "bounds", 0, -1.0),
        f"payload incomplete or invalid: invalid search bounds (-1.0, {_HI}); need 0 <= lo < hi",
    ),
    "n_quad-4": (("n_quad", 4), "n_quad 4 is below 8"),
    "alpha-negative": (("fingerprint", "alpha", -1.0), "alpha -1.0 is negative"),
    "n_quad-float": (("n_quad", 16.0), "n_quad 16.0 is not a JSON integer"),
    "n_quad-fraction": (("n_quad", 16.5), "n_quad 16.5 is not a JSON integer"),
    "n_iterations-float": (("pso", "n_iterations", 10.0), "n_iterations 10.0 is not a JSON integer"),
    "n_iterations-bool": (("pso", "n_iterations", True), "n_iterations True is not a JSON integer"),
    "n_particles-float": (("pso", "n_particles", 8.0), "n_particles 8.0 is not a JSON integer"),
    "seed-string": (("pso", "seed", "42"), "seed '42' is not a JSON integer"),
    "objective-string": (("objective", 0, "high"), "objective 'high' is not a JSON number"),
    "objective-null": (("objective", 1, None), "objective None is not a JSON number"),
    "omega-bool": (("omega", 2, True), "omega True is not a JSON number"),
    "fingerprint-int": (("fingerprint", 123), "fingerprint 123 is not a JSON object"),
    "alpha-string": (("fingerprint", "alpha", "10.0"), "alpha '10.0' is not a JSON number"),
    "tau-string": (("fingerprint", "tau", "0.165"), "tau '0.165' is not a JSON number"),
    "r_min-null": (("fingerprint", "r_min", None), "r_min None is not a JSON number"),
    "bounds-bool": (("pso", "bounds", [False, True]), "bound False is not a JSON number"),
    "upper-bound-bool": (("pso", "bounds", 1, True), "bound True is not a JSON number"),
    "inertia-bool": (("pso", "inertia", True), "inertia True is not a JSON number"),
    "cognitive-string": (("pso", "cognitive", "1.5"), "cognitive '1.5' is not a JSON number"),
    "social-null": (("pso", "social", None), "social None is not a JSON number"),
    "theta_lo-bool": (("grid", "theta_lo", False), "theta_lo False is not a JSON number"),
    "delta_step-string": (("grid", "delta_step", "0.01"), "delta_step '0.01' is not a JSON number"),
    "delta_max-null": (("grid", "delta_max", None), "delta_max None is not a JSON number"),
}

_HEADER_RUNS = {
    "simulate": _PROPOSED,
    "sweep-velocity": [*_VELOCITY, "10", "--schemes", "proposed"],
    "sweep-tx_power": [*_POWER, "30", "--schemes", "proposed"],
}
# every build value the fingerprint states: a value unlike the small config's, then the
# small config's own
_HEADER_EDITS = {
    "n_antennas": (8, 16),
    "carrier_freq": (300e9, 220e9),
    "tx_power": (1.0, 10.0),
    "noise_psd": (1e-20, 3.981071705534986e-21),
    "bandwidth": (1e9, 1e10),
    "absorption_coeff": (0.01, 0.0),
    "perpendicular_distance": (50.0, 100.0),
    "alpha": (5.0, 10.0),
    "tau": (0.2, 0.165),
    "r_min": (1.0, 2517534748.3195066),
}

# 40 particles over 10**15 iterations draw 2e15 x 40 floats of 8 bytes, 568 PiB: past a 57-bit
# address space, so no host can map them, whatever its overcommit setting
_HUGE_SWARMS = {
    "n_iterations": {"n_particles": 40, "n_iterations": 10**15},
    "n_particles": {"n_particles": 10**18},
}


def _huge_swarm_error(case: str) -> str:
    sizes = {"n_particles": 8, "n_iterations": 10, **_HUGE_SWARMS[case]}
    return (
        f"run error: {sizes['n_particles']} particles over {sizes['n_iterations']} iterations"
        " need more random draws than memory holds"
    )


def _too_long(velocity: str, samples: str) -> list[Row]:
    # a near-zero speed puts the episode's sample count over tracking.MAX_SAMPLES, or makes it
    # infinite, so the run fails with one line before it allocates anything
    needs = (
        f"velocity {float(velocity)!r} m/s at time step 0.00825 s needs {samples} samples, "
        "over 1000000"
    )
    point = "run error: sweep point (value={!r}, scheme='proposed'): " + needs
    slow = {"velocity_mps": velocity}
    return [
        Row(["simulate", "--scheme", "all"], 4, [f"run error: {needs}"], slow, {}),
        Row([*_VELOCITY, f"10,{velocity}", "--jobs", "1"], 4, [point.format(float(velocity))],
            header={}),
        Row([*_POWER, "30,40", "--jobs", "1"], 4, [point.format(30.0)], slow, {}),
    ]


# each family of cases runs as one test of the family's name, so every case keeps its id
_FAILURES = {
    # every value is checked before anything is written or optimised
    "test_cli_rejects_axis_values_no_scenario_accepts": {
        case: Row(argv + (["--schemes", "conventional"] if argv[0] == "sweep" else []), 2,
                  [f"configuration error: {line}"])
        for case, argv, line in [
            ("velocity-negative", [*_VELOCITY, "-5"], "velocity value -5.0: velocity must be >= 0"),
            ("power-underflow", [*_POWER, "-4000"],
             "tx_power value -4000.0: tx_power must be positive, got 0.0"),
            ("power-overflow", [*_POWER, "4000"],
             "tx_power value 4000.0: 4000.0 dBm is too large for a float in watts"),
            ("power-nan", [*_POWER, "30,nan"], "value list '30,nan' holds a non-finite number"),
            ("velocity-nan", [*_VELOCITY, "nan"], "value list 'nan' holds a non-finite number"),
            ("velocity-unparsable", [*_VELOCITY, "10,abc"], "cannot parse value list '10,abc'"),
            ("pattern-nan", ["pattern", "--velocities", "nan"],
             "value list 'nan' holds a non-finite number"),
            ("pattern-negative", ["pattern", "--velocities", "10,-3"],
             "velocity value -3.0: velocity must be >= 0"),
            ("pattern-repeated", ["pattern", "--velocities", "10,50,10"],
             "velocities 10.0 and 10.0 would both write pattern_v10.csv"),
            ("pattern-same-file", ["pattern", "--velocities", "10.0000001,10.0000002"],
             "velocities 10.0000001 and 10.0000002 would both write pattern_v10.csv"),
        ]
    },
    # an output directory under a regular file cannot be created
    "test_cli_unwritable_output_exit_code": {
        f"{argv[0]}-extra{i}": Row([*argv, "--out", "<tmp>/run.ini/out"], 4,
                                   ["run error: [Errno 20] Not a directory: '<tmp>/run.ini/out'"])
        for i, argv in enumerate([_CONVENTIONAL, [*_VELOCITY, "10", "--schemes", "conventional"],
                                  ["pattern", "--velocities", "10"]])
    },
    # with an explicit r_min the path distance reaches the scenario only through the cells, so
    # the fingerprint must state it; at half the distance and a quarter of the speed every
    # period's interval is on the grid
    "test_cli_rejects_codebook_built_at_another_distance": [
        Row([*_PROPOSED, "--out", "<tmp>/fresh"], 3,
            ["codebook error: codebook perpendicular_distance 100.0 is not the scenario's 50.0; "
             "rebuild the codebook"],
            {"r_min_bps": 5e9, "perpendicular_distance_m": 50.0, "velocity_mps": 5.0},
            {("fingerprint", "r_min"): 5e9}),
    ],
    "test_cli_sweep_empty_values_usage_error": [
        Row([*_VELOCITY, " , "], 2,
            ["configuration error: no values given; expected a comma-separated list"]),
    ],
    "test_cli_sweep_rejects_empty_or_repeated_schemes": {
        "empty": Row([*_VELOCITY, "10", "--schemes", ","], 2, [f"{_EACH_ONCE}[]"]),
        "repeated": Row([*_VELOCITY, "10", "--schemes", "conventional,conventional"], 2,
                        [f"{_EACH_ONCE}['conventional', 'conventional']"]),
        "unknown": Row([*_VELOCITY, "10", "--schemes", "conventional,bogus"], 2, [_UNKNOWN]),
    },
    "test_cli_malformed_config_exit_code": [
        Row(_CONVENTIONAL, 2, ["configuration error: [optimizer] alpha: cannot parse 'ten'"],
            {"alpha": "ten"}),
    ],
    "test_cli_unreadable_config_one_line_error": {
        case: Row([*_CONVENTIONAL, *argv], 2, [f"configuration error: {line}"], text=text)
        for case, text, argv, line in [
            ("no-section", "x = 1\n", [], "malformed configuration: File contains no section "
             "headers. file: '<tmp>/run.ini', line: 1 'x = 1\\n'"),
            ("open-header", "[array\n", [], "malformed configuration: File contains no section "
             "headers. file: '<tmp>/run.ini', line: 1 '[array\\n'"),
            ("no-equals", "[array]\nn_antennas\n", [], "malformed configuration: Source contains "
             "parsing errors: '<tmp>/run.ini' [line  2]: 'n_antennas\\n'"),
            ("missing-section", _NO_EVENT_SECTION, [], "missing section [event_based]"),
            ("missing-file", None, ["--config", "<tmp>/absent.ini"], "cannot read configuration "
             "'<tmp>/absent.ini': [Errno 2] No such file or directory: '<tmp>/absent.ini'"),
        ]
    },
    "test_cli_missing_codebook_exit_code": [
        Row(_PROPOSED, 3, ["codebook error: cannot read codebook: "
                           "[Errno 2] No such file or directory: '<tmp>/cb.json'"]),
    ],
    "test_cli_incomplete_codebook_exit_code": [
        Row(_PROPOSED, 3, ["codebook error: 12 omegas and 27 objectives for 27 cells"],
            header={("omega",): [1.0] * 12}),
    ],
    "test_cli_rejected_codebook_exit_code": {
        "omega-outside-bounds": Row(
            _PROPOSED, 3, [f"codebook error: codebook cell (1, 0) has omega {2.0 * _HI} outside the "
                           f"bounds (0.0, {_HI})"],
            header={("omega", 3): 2.0 * _HI},
        ),
        "version-mismatch": Row(
            _PROPOSED, 3,
            ["codebook error: unsupported codebook format 999, expected 3; rebuild the codebook"],
            header={("format_version",): 999},
        ),
    },
    # the power axis re-optimises with the stored settings, so load must reject bad ones
    "test_cli_power_sweep_rejects_invalid_codebook": {
        case: Row([*_POWER_SWEEP, "--schemes", "proposed"], 3, [f"codebook error: codebook {line}"],
                  header={tuple(keys): value})
        for case, ((*keys, value), line) in _INVALID_HEADERS.items()
    },
    # every stored build value is checked against the run's scenario, by name; tau, alpha and
    # r_min, which the runs read, are stored only there
    "test_cli_rejects_codebook_alpha_its_fingerprint_did_not_hash": {
        run if name == "alpha" else f"{run}-{name}": Row(
            [*_HEADER_RUNS[run], "--out", "<tmp>/fresh"], 3,
            [f"codebook error: codebook {name} {stored!r} is not the scenario's {own!r}; "
             "rebuild the codebook"],
            header={("fingerprint", name): stored},
        )
        for name, (stored, own) in _HEADER_EDITS.items()
        for run in _HEADER_RUNS
    },
    "test_cli_seed_only_where_the_swarm_runs": {
        "simulate": Row(["simulate", "--seed", "1"], 2, [f"{_UNRECOGNIZED}--seed 1"]),
        "sweep": Row([*_VELOCITY, "10", "--seed", "1"], 2, [f"{_UNRECOGNIZED}--seed 1"]),
    },
    # a build made at 40 dBm serves no run at 37 dBm
    "test_cli_fingerprint_mismatch_exit_code": [
        Row(argv, 3, ["codebook error: codebook tx_power 10.0 is not the scenario's "
                      "5.011872336272722; rebuild the codebook"], {"tx_power_dbm": 37.0}, {})
        for argv in (_PROPOSED, [*_VELOCITY, "10", "--jobs", "1"])
    ],
    "test_cli_invalid_config_value_exit_code": {
        f"{key}-{value}": Row(argv, 2, [f"{_INVALID}{line}"], {key: value})
        for key, value, argv, line in [
            ("n_antennas", "1", _CONVENTIONAL, "need an integer antenna count >= 2, got 1"),
            # 0.1 s exceeds tau/10
            ("time_step_s", "0.1", _CONVENTIONAL, "time step must be positive and at most tau/10"),
            # with r_min_bps = auto, the threshold's cos(start) < 0 must not be reached first
            ("start_angle_rad", "2.0", _CONVENTIONAL, "end angle must exceed start angle"),
            ("start_angle_rad", "-1.6", _CONVENTIONAL, "start angle must lie in (-pi/2, pi/2)"),
            ("n_particles", "1", [*_BUILD, "1"], "need at least 2 particles, got 1"),
            ("n_iterations", "0", [*_BUILD, "1"], "need at least 1 iteration, got 0"),
            ("theta_step", "0", [*_BUILD, "1"], "grid steps must be positive"),
            ("theta_lo", "-1.0", [*_BUILD, "1"], "theta range (-1.0, 0.32) outside (-1, 1)"),
            ("delta_max", "-0.01", [*_BUILD, "1"], "delta_max must be >= 0, got -0.01"),
            ("end_angle_rad", "1.6", [*_BUILD, "1"], "end angle must lie in (-pi/2, pi/2)"),
        ]
    },
    "test_cli_non_finite_config_value_exit_code": {
        f"{section}-{key}": [
            Row(_CONVENTIONAL, 2,
                [f"configuration error: [{section}] {key}: {value!r} is not a finite number"],
                {key: value})
            for value in ("nan", "inf", "-inf", "1e999")
        ]
        for section, key in _float_keys()
    },
    # the small grid cannot cover a 40 m/s path; every scheme runs before anything is written
    "test_cli_run_failure_exit_code": [
        Row(["simulate", "--scheme", scheme], 4,
            ["run error: no codebook beam for epoch 0 (t=0 s): interval "
             "(theta=0.03292835996322526, delta=0.03292835996322526) outside grid range; "
             "rebuild with a wider grid"],
            {"velocity_mps": 40.0}, {})
        for scheme in ("proposed", "all")
    ],
    "test_cli_beam_at_sine_edge_is_a_run_failure": {
        case: Row(argv, 4, [f"run error: {at}beam centre must lie in (-1, 1), got 1.0"], _AT_EDGE)
        for case, argv, at in [
            ("simulate-conventional", _CONVENTIONAL, ""),
            ("simulate-event", ["simulate", "--scheme", "event"], ""),
            ("sweep", [*_VELOCITY, "1e15", "--schemes", "conventional"],
             "sweep point (value=1000000000000000.0, scheme='conventional'): "),
        ]
    },
    "test_cli_episode_too_long_to_sample_exit_code": {
        "5e-324": _too_long("5e-324", "inf"),
        "1e-300": _too_long("1e-300", "3.74953e+303"),
        "0.001": _too_long("0.001", "3.74953e+06"),
        "time-step-1e-9": [
            Row(["simulate", "--scheme", "all"], 4,
                ["run error: velocity 20.0 m/s at time step 1e-09 s needs 1.54668e+09 samples, "
                 "over 1000000"], {"time_step_s": 1e-9}, {}),
        ],
    },
    "test_cli_pattern_swarm_too_large_for_memory_exit_code": {
        case: Row(["pattern", "--velocities", "10"], 4, [_huge_swarm_error(case)], edits)
        for case, edits in _HUGE_SWARMS.items()
    },
    # 18 of the small grid's 27 cells run swarms, in two chunks, so the error crosses the pool
    "test_cli_codebook_build_swarm_too_large_for_memory_exit_code": [
        Row([*_BUILD, "2"], 4, [_huge_swarm_error("n_iterations")], _HUGE_SWARMS["n_iterations"]),
    ],
    # the power axis re-optimises each period with the codebook's stored swarm settings
    "test_cli_power_sweep_swarm_too_large_for_memory_exit_code": [
        Row([*_POWER, "30,40", "--schemes", "proposed", "--jobs", "1"], 4,
            [_huge_swarm_error("n_iterations")],
            header={("pso", key): value for key, value in _HUGE_SWARMS["n_iterations"].items()}),
    ],
    "test_cli_rejects_jobs_below_one": {
        f"argv{i}": Row(
            argv, 2, [f"configuration error: --jobs must be at least 1, got {argv[-1]}"]
        )
        for i, argv in enumerate([
            [*_BUILD, "0"], [*_POWER, "30", "--jobs", "-3"], [*_VELOCITY, "10", "--jobs", "0"]
        ])
    },
    "test_cli_jobs_only_where_workers_run": {
        "simulate": Row(["simulate", "--jobs", "2"], 2, [f"{_UNRECOGNIZED}--jobs 2"]),
        "pattern": Row([*_PATTERN, "--jobs", "2"], 2, [f"{_UNRECOGNIZED}--jobs 2"]),
    },
    # centre 0.9 with half-width 0.1 already reaches sine-space edge 1, so the grid is a
    # configuration error and nothing is built
    "test_cli_codebook_build_failure_names_cell": [
        Row([*_BUILD, "1"], 2, [f"{_INVALID}cell theta=0.9 delta=0.1 reaches sine-space edge"],
            {"theta_lo": 0.9, "theta_hi": 0.95, "delta_max": 0.1, "delta_step": 0.05}),
    ],
    "test_cli_rejects_unusable_delimiter": {
        value: Row(_CONVENTIONAL, 2, [f"configuration error: [output] delimiter: {value!r} is "
                                      "not one character other than '\"'"], {"delimiter": value})
        for value in ["", ";;", '"']
    },
    "test_cli_reports_each_failure_and_warning_in_one_line": {
        "alpha-simulate": Row(["simulate"], 2, [_ALPHA], {"alpha": -1.0}),
        "alpha-velocity-sweep": Row(_VELOCITY_SWEEP, 2, [_ALPHA], {"alpha": -1.0}),
        "alpha-power-sweep": Row(_POWER_SWEEP, 2, [_ALPHA], {"alpha": -1.0}),
        "alpha-pattern": Row(_PATTERN, 2, [_ALPHA], {"alpha": -1.0}),
        "n_quad-4-pattern": Row(_PATTERN, 2, [_NODES + "4"], {"n_quad": 4}),
        "slot-simulate": Row(
            ["simulate", "--scheme", "event"], 4, [f"run error: {_SLOTS}"], {"slot_s": 1e-300}
        ),
        "slot-sweep": Row(
            [*_VELOCITY_SWEEP, "--schemes", "event"], 4,
            [f"run error: sweep point (value=20.0, scheme='event'): {_SLOTS}"], {"slot_s": 1e-300},
        ),
        # the slots are the event scheme's own segments, so its point names it, not the first
        "slot-sweep-second-scheme": Row(
            [*_VELOCITY_SWEEP, "--schemes", "conventional,event"], 4,
            [f"run error: sweep point (value=20.0, scheme='event'): {_SLOTS}"], {"slot_s": 1e-300},
        ),
        "n_quad-huge-pattern": Row(_PATTERN, 2, [_NODES + "1000000000"], {"n_quad": 10**9}),
        # the proposed scheme serves the codebook's n_quad, but the configured one must be valid
        "n_quad-huge-simulate": Row(
            ["simulate"], 2, [_NODES + "1000000000"], {"n_quad": 10**9}, {}
        ),
        "n_quad-huge-header": Row(
            _POWER_SWEEP, 3, ["codebook error: codebook n_quad 1000000000 is above 1024"],
            header={("n_quad",): 10**9},
        ),
        "cells-build": Row([*_BUILD, "1"], 2, [f"{_INVALID}{_CELLS}"], {"theta_step": 1e-12}),
        "cells-header": Row(
            ["simulate"], 3, [f"codebook error: codebook payload incomplete or invalid: {_CELLS}"], header={("grid",): _FINE_GRID}
        ),
        "far-field-simulate": Row(_CONVENTIONAL, 0, [_FAR], _NEAR),
        "far-field-build-jobs-1": Row([*_BUILD, "1"], 0, [_FAR, _FAR], _NEAR),
        "far-field-build-jobs-2": Row([*_BUILD, "2"], 0, [_FAR, _FAR], _NEAR),
        # an antenna count over channel.MAX_ANTENNAS, rejected before anything is sized by it
        "antennas-simulate": Row(
            _CONVENTIONAL, 2, [f"{_INVALID}antenna count {10**17} is over 1000000"],
            {"n_antennas": 10**17},
        ),
        **{
            f"antennas-{case}": Row(argv, 2, [_ANTENNAS], {"n_antennas": 10**19})
            for case, argv in [("simulate-all", ["simulate"]), ("sweep", _VELOCITY_SWEEP),
                               ("pattern", _PATTERN), ("build", [*_BUILD, "1"])]
        },
        # every argument and config value is checked before the codebook is read
        "order-slot-simulate": Row(["simulate"], 2, [_SLOT_ZERO], {"slot_s": 0.0}),
        **{  # whichever scheme runs, as sweep checks it whichever schemes run
            f"order-slot-simulate-{scheme}": Row(
                ["simulate", "--scheme", scheme], 2, [_SLOT_ZERO], {"slot_s": 0.0}
            )
            for scheme in ("proposed", "conventional")
        },
        "order-slot-sweep": Row(
            [*_VELOCITY, "10", "--schemes", "proposed"], 2, [_SLOT_ZERO], {"slot_s": 0.0}
        ),
        "order-unknown-scheme": Row(
            [*_VELOCITY, "10", "--schemes", "proposed,bogus"], 2, [_UNKNOWN]
        ),
        "order-repeated-scheme": Row([*_VELOCITY, "10", "--schemes", "proposed,proposed"], 2,
                                     [f"{_EACH_ONCE}['proposed', 'proposed']"]),
        "order-negative-velocity": Row(
            [*_VELOCITY, "-5"], 2,
            ["configuration error: velocity value -5.0: velocity must be >= 0"],
        ),
        # argparse's own errors, without its usage block
        "usage-no-command": Row(
            [], 2, ["usage error: thztrack: the following arguments are required: command"]
        ),
        "usage-jobs": Row(
            [*_BUILD, "two"], 2,
            ["usage error: thztrack codebook-build: argument --jobs: invalid int value: 'two'"],
        ),
        "usage-axis": Row(
            ["sweep", "--axis", "speed", "--values", "10"], 2,
            ["usage error: thztrack sweep: argument --axis: invalid choice: 'speed' "
             "(choose from 'velocity', 'tx_power')"],
        ),
    },
}
globals().update(table_tests(_FAILURES, _run_rows))
