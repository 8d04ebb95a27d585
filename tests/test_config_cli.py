"""Configuration parsing/rendering and the command-line surface."""

from __future__ import annotations

import json
import math
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thztrack import (
    CodebookGrid,
    ConfigError,
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


@pytest.mark.parametrize("field, value", [("delimiter", "\t"), ("path", "a\nb"), ("directory", "out ")])
def test_render_refuses_strings_ini_cannot_hold(field, value):
    rc = RunConfig()
    section = "output" if field in ("delimiter", "directory") else "codebook"
    rc = replace(rc, **{section: replace(getattr(rc, section), **{field: value})})
    with pytest.raises(ConfigError, match="cannot be written"):
        render_config(rc)


def test_unknown_key_rejected():
    text = render_config(RunConfig()).replace("alpha = 10.0", "alpha = 10.0\nbogus = 1")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(text)


def test_unknown_section_rejected():
    text = render_config(RunConfig()) + "\n[mystery]\nx = 1\n"
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(text)


def test_missing_key_rejected():
    text = render_config(RunConfig()).replace("alpha = 10.0\n", "")
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(text)


def test_bad_number_named():
    text = render_config(RunConfig()).replace("tx_power_dbm = 40.0", "tx_power_dbm = loud")
    with pytest.raises(ConfigError, match="tx_power_dbm"):
        parse_config(text)


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


def test_cli_sweep_empty_values_usage_error(tmp_path):
    config = small_config_text(tmp_path)
    code = main(
        ["sweep", "--config", str(config), "--axis", "velocity", "--values", " , "]
    )
    assert code == 2


@pytest.mark.parametrize(
    "schemes, message",
    [
        (",", "sweep requires at least one scheme, each once"),
        ("conventional,conventional", "sweep requires at least one scheme, each once"),
        ("conventional,bogus", "unknown scheme 'bogus'; expected one of"),
    ],
    ids=["empty", "repeated", "unknown"],
)
def test_cli_sweep_rejects_empty_or_repeated_schemes(tmp_path, capsys, schemes, message):
    config = small_config_text(tmp_path)
    argv = ["sweep", "--config", str(config), "--axis", "velocity", "--values", "10"]
    assert main([*argv, "--schemes", schemes]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


def test_cli_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(render_config(RunConfig()).replace("alpha = 10.0", "alpha = ten"))
    assert main(["simulate", "--config", str(bad), "--scheme", "conventional"]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("x = 1\n", "malformed configuration: File contains no section headers."),
        ("[array\n", "malformed configuration: File contains no section headers."),
        ("[array]\nn_antennas\n", "malformed configuration: Source contains parsing errors:"),
        (None, "cannot read configuration"),
    ],
    ids=["no-section", "open-header", "no-equals", "missing-file"],
)
def test_cli_unreadable_config_one_line_error(tmp_path, capsys, text, message):
    config = tmp_path / "run.ini"
    if text is not None:
        config.write_text(text)
    assert main(["simulate", "--config", str(config), "--scheme", "conventional"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert str(config) in err


def test_cli_missing_codebook_exit_code(tmp_path):
    config = small_config_text(tmp_path)
    assert main(["simulate", "--config", str(config), "--scheme", "proposed"]) == 3


def test_cli_incomplete_codebook_exit_code(tmp_path, capsys):
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    del payload["omega"][5:20]
    path.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(config), "--scheme", "proposed"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("codebook error:") and err.count("\n") == 1


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


def _omega_above_bounds(payload) -> None:
    payload["omega"][3] = 2.0 * payload["pso"]["bounds"][1]


def _future_version(payload) -> None:
    payload["format_version"] = 999


@pytest.mark.parametrize(
    "edit, message",
    [(_omega_above_bounds, "outside the bounds"), (_future_version, "unsupported codebook format")],
    ids=["omega-outside-bounds", "version-mismatch"],
)
def test_cli_rejected_codebook_exit_code(tmp_path, capsys, edit, message):
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(config), "--scheme", "proposed"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("codebook error:") and message in err and err.count("\n") == 1


def _negative_lower_bound(payload) -> None:
    payload["pso"]["bounds"][0] = -1.0


def _four_quad_nodes(payload) -> None:
    payload["n_quad"] = 4


def _set(*path_and_value):
    """Edit that stores the last argument at the key path given by the others."""
    *keys, last, value = path_and_value

    def edit(payload) -> None:
        target = payload
        for key in keys:
            target = target[key]
        target[last] = value

    return edit


# a float, bool or string where a count or seed belongs, header, grid and cell values that
# are no numbers, and a fingerprint that is no object
_MISTYPED = {
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


@pytest.mark.parametrize(
    "edit, message",
    [(_negative_lower_bound, "need 0 <= lo < hi"), (_four_quad_nodes, "n_quad 4 is below 8")]
    + [(_set("fingerprint", "alpha", -1.0), "codebook alpha -1.0 is negative")]
    + [(_set(*path), message) for path, message in _MISTYPED.values()],
    ids=["negative-lower-bound", "n_quad-4", "alpha-negative", *_MISTYPED],
)
def test_cli_power_sweep_rejects_invalid_codebook(tmp_path, capsys, edit, message):
    # the power axis re-optimises with the stored settings, so load must reject bad ones
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    argv = ["sweep", "--config", str(config), "--axis", "tx_power", "--values", "30,40"]
    assert main([*argv, "--schemes", "proposed", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("codebook error:") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


_HEADER_RUNS = {
    "simulate": ["simulate", "--scheme", "proposed"],
    "sweep-velocity": ["sweep", "--axis", "velocity", "--values", "10", "--schemes", "proposed"],
    "sweep-tx_power": ["sweep", "--axis", "tx_power", "--values", "30", "--schemes", "proposed"],
}
# a value unlike the small config's for every build value the fingerprint states
_HEADER_EDITS = {
    "n_antennas": 8,
    "carrier_freq": 300e9,
    "tx_power": 1.0,
    "noise_psd": 1e-20,
    "bandwidth": 1e9,
    "absorption_coeff": 0.01,
    "perpendicular_distance": 50.0,
    "alpha": 5.0,
    "tau": 0.2,
    "r_min": 1.0,
}
_HEADER_CASES = [(run, field) for field in _HEADER_EDITS for run in _HEADER_RUNS]


@pytest.mark.parametrize(
    "run, field",
    _HEADER_CASES,
    ids=[run if field == "alpha" else f"{run}-{field}" for run, field in _HEADER_CASES],
)
def test_cli_rejects_codebook_alpha_its_fingerprint_did_not_hash(tmp_path, capsys, run, field):
    # every stored build value is checked against the run's scenario, by name; tau, alpha
    # and r_min, which the runs read, are stored only there
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    assert set(payload["fingerprint"]) == set(_HEADER_EDITS)
    payload["fingerprint"][field] = _HEADER_EDITS[field]
    path.write_text(json.dumps(payload))
    out = tmp_path / "fresh"
    command, *extra = _HEADER_RUNS[run]
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("codebook error:") and err.count("\n") == 1
    assert f"codebook {field} {_HEADER_EDITS[field]!r} is not the scenario's" in err
    assert not out.exists()


def test_cli_rejects_codebook_built_at_another_distance(tmp_path, capsys):
    # with an explicit r_min the path distance reaches the scenario only through the cells,
    # so the fingerprint must state it
    config = small_config_text(tmp_path)
    text = config.read_text().replace("r_min_bps = auto", "r_min_bps = 5000000000.0")
    config.write_text(text)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    # at half the distance and a quarter of the speed every period's interval is on the grid
    nearer = tmp_path / "nearer.ini"
    distance = "perpendicular_distance_m = "
    text = text.replace(f"{distance}100.0", f"{distance}50.0")
    nearer.write_text(text.replace("velocity_mps = 20.0", "velocity_mps = 5.0"))
    capsys.readouterr()
    out = tmp_path / "fresh"
    argv = ["simulate", "--config", str(nearer), "--out", str(out), "--scheme", "proposed"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "codebook error: codebook perpendicular_distance 100.0 is not the scenario's 50.0; "
        "rebuild the codebook\n"
    )
    assert not out.exists()


def _blocked_output(tmp_path: Path) -> Path:
    """Config whose output directory lies under a regular file, so it cannot be created."""
    config = small_config_text(tmp_path)
    (tmp_path / "blocker").write_text("a regular file\n")
    text = config.read_text().replace(str(tmp_path / "out"), str(tmp_path / "blocker" / "out"))
    config.write_text(text)
    return config


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ["--scheme", "conventional"]),
        ("sweep", ["--axis", "velocity", "--values", "10", "--schemes", "conventional"]),
        ("pattern", ["--velocities", "10"]),
    ],
)
def test_cli_unwritable_output_exit_code(tmp_path, capsys, command, extra):
    config = _blocked_output(tmp_path)
    assert main([command, "--config", str(config), *extra]) == 4
    err = capsys.readouterr().err
    assert err.startswith("run error:") and "blocker" in err and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_seed_only_where_the_swarm_runs(tmp_path, command):
    config = small_config_text(tmp_path)
    extra = ["--axis", "velocity", "--values", "10"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--seed", "1", *extra])
    assert exc.value.code == 2
    parser = _build_parser()
    for swarm_command in (["codebook-build"], ["pattern", "--velocities", "10"]):
        assert parser.parse_args([*swarm_command, "--config", "x.ini", "--seed", "3"]).seed == 3


def test_cli_fingerprint_mismatch_exit_code(tmp_path):
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    # change the transmit power: the stored fingerprint no longer matches
    text = config.read_text().replace("tx_power_dbm = 40.0", "tx_power_dbm = 37.0")
    config.write_text(text)
    assert main(["simulate", "--config", str(config), "--scheme", "proposed"]) == 3
    argv = ["sweep", "--config", str(config), "--axis", "velocity", "--values", "10", "--jobs", "1"]
    assert main(argv) == 3


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("n_antennas", "1", "antenna count >= 2"),
        ("time_step_s", "0.1", "time step"),  # 0.1 s exceeds tau/10
        # with r_min_bps = auto, the threshold's cos(start) < 0 must not be reached first
        ("start_angle_rad", "2.0", "end angle must exceed start angle"),
        ("start_angle_rad", "-1.6", "start angle must lie in"),
        ("n_particles", "1", "need at least 2 particles"),
        ("n_iterations", "0", "need at least 1 iteration"),
        ("theta_step", "0", "grid steps must be positive"),
    ],
    ids=["n_antennas-1", "time_step_s-0.1", "start_angle_rad-2.0", "start_angle_rad--1.6",
         "n_particles-1", "n_iterations-0", "theta_step-0"],
)
def test_cli_invalid_config_value_exit_code(tmp_path, capsys, key, value, named):
    config = small_config_text(tmp_path)
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in config.read_text().splitlines()]
    config.write_text("\n".join(lines) + "\n")
    build_only = key in ("n_particles", "n_iterations", "theta_step")
    run = ["codebook-build", "--jobs", "1"] if build_only else ["simulate", "--scheme", "conventional"]
    assert main([*run, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid value") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "cb.json").exists()


def _float_keys() -> list[tuple[str, str]]:
    return [
        (section, f.name)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
        if "float" in str(f.type)
    ]


@pytest.mark.parametrize("section, key", _float_keys())
def test_cli_non_finite_config_value_exit_code(tmp_path, capsys, section, key):
    text = small_config_text(tmp_path).read_text()
    for i, value in enumerate(("nan", "inf", "-inf", "1e999")):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in text.splitlines()]
        config = tmp_path / f"variant{i}.ini"  # a fresh path, not a rewrite of the last one
        config.write_text("\n".join(lines) + "\n")
        assert main(["simulate", "--config", str(config), "--scheme", "conventional"]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: [{section}] {key}: {value!r} is not a finite number\n"


def test_cli_run_failure_exit_code(tmp_path, capsys):
    # the small grid cannot cover a 40 m/s path, so the proposed run fails
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    text = config.read_text().replace("velocity_mps = 20.0", "velocity_mps = 40.0")
    config.write_text(text)
    for scheme in ("proposed", "all"):
        assert main(["simulate", "--config", str(config), "--scheme", scheme]) == 4
        assert "epoch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # every scheme runs before anything is written


@pytest.mark.parametrize("velocity", ["5e-324", "1e-300"])
def test_cli_episode_too_long_to_sample_exit_code(tmp_path, capsys, velocity):
    # a near-zero speed makes the episode's sample count infinite or too large for an array
    # index, so the run fails with one line before it allocates anything
    config = small_config_text(tmp_path)
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    slow = tmp_path / "slow.ini"
    slow.write_text(config.read_text().replace("velocity_mps = 20.0", f"velocity_mps = {velocity}"))
    named = f"velocity {float(velocity)!r} m/s needs "
    sweep = ["sweep", "--jobs", "1", "--axis"]
    runs = [
        (slow, ["simulate", "--scheme", "all"], ""),
        (config, [*sweep, "velocity", "--values", f"10,{velocity}"],
         f"sweep point (value={float(velocity)!r}, scheme='proposed'): "),
        (slow, [*sweep, "tx_power", "--values", "30,40"],
         "sweep point (value=30.0, scheme='proposed'): "),
    ]
    capsys.readouterr()
    for path, argv, point in runs:
        assert main([*argv, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"run error: {point}{named}"), err
        assert err.endswith(" samples, too many to sample\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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
        " need more random draws than memory holds\n"
    )


def _edited(config: Path, **values) -> Path:
    """A copy of ``config`` beside it, with each named key set to its value."""
    lines = []
    for line in config.read_text().splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {values[key]}" if key in values else line)
    edited = config.with_name("edited.ini")
    edited.write_text("\n".join(lines) + "\n")
    return edited


@pytest.mark.parametrize("case", _HUGE_SWARMS)
def test_cli_pattern_swarm_too_large_for_memory_exit_code(tmp_path, capsys, case):
    config = _edited(small_config_text(tmp_path), **_HUGE_SWARMS[case])
    assert main(["pattern", "--config", str(config), "--velocities", "10"]) == 4
    assert capsys.readouterr().err == _huge_swarm_error(case)
    assert not (tmp_path / "out").exists()


def test_cli_codebook_build_swarm_too_large_for_memory_exit_code(tmp_path, capsys):
    # 18 of the small grid's 27 cells run swarms, in two chunks, so the error crosses the pool
    config = _edited(small_config_text(tmp_path), **_HUGE_SWARMS["n_iterations"])
    assert main(["codebook-build", "--config", str(config), "--jobs", "2"]) == 4
    assert capsys.readouterr().err == _huge_swarm_error("n_iterations")
    assert not (tmp_path / "cb.json").exists()


def test_cli_power_sweep_swarm_too_large_for_memory_exit_code(tmp_path, capsys):
    # the power axis re-optimises each period with the codebook's stored swarm settings
    config = _edited(small_config_text(tmp_path), theta_hi=0.0, delta_max=0.0)  # one cell
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
    path = tmp_path / "cb.json"
    payload = json.loads(path.read_text())
    assert len(payload["omega"]) == 1
    payload["pso"].update(_HUGE_SWARMS["n_iterations"])
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["sweep", "--config", str(config), "--axis", "tx_power", "--values", "30,40"]
    assert main([*argv, "--schemes", "proposed", "--jobs", "1"]) == 4
    assert capsys.readouterr().err == _huge_swarm_error("n_iterations")
    assert not (tmp_path / "out").exists()


_ALPHA = "configuration error: invalid value: penalty weight must be finite and >= 0, got -1.0"
_NODES = "configuration error: invalid value: need 8 to 1024 quadrature nodes, got "
_SLOTS = "1.54668e+300 segments of 1e-300 s, over 1000000"
_FAR = "warning: link distance inside the Fraunhofer range; far-field model inaccurate"
_VELOCITY_SWEEP = ["sweep", "--axis", "velocity", "--values", "20", "--jobs", "1"]
_POWER_SWEEP = ["sweep", "--axis", "tx_power", "--values", "30,40", "--jobs", "2"]
_BUILD = ["codebook-build", "--jobs"]
_NEAR = {"perpendicular_distance_m": 5.0, "n_antennas": 128}  # inside the 10.99 m range
# the small grid at theta_step = 1e-12: 320000000001 centres x 3 rows
_FINE_GRID = {"theta_step": 1e-12, "delta_step": 0.01, "theta_lo": 0.0, "theta_hi": 0.32,
              "delta_max": 0.02}
_CELLS = "grid of 960000000003 cells is over 1000000"

# name: (config edits, codebook header edits or None for no codebook, command, exit code,
# every stderr line in order); the header edits apply to a codebook built first
_ONE_LINE_CASES = {
    "alpha-simulate": ({"alpha": -1.0}, None, ["simulate"], 2, [_ALPHA]),
    "alpha-velocity-sweep": ({"alpha": -1.0}, None, _VELOCITY_SWEEP, 2, [_ALPHA]),
    "alpha-power-sweep": ({"alpha": -1.0}, None, _POWER_SWEEP, 2, [_ALPHA]),
    "alpha-pattern": ({"alpha": -1.0}, None, ["pattern", "--velocities", "30"], 2, [_ALPHA]),
    "n_quad-4-pattern": ({"n_quad": 4}, None, ["pattern", "--velocities", "30"], 2, [_NODES + "4"]),
    "slot-simulate": (
        {"slot_s": 1e-300}, None, ["simulate", "--scheme", "event"], 4, [f"run error: {_SLOTS}"]
    ),
    "slot-sweep": (
        {"slot_s": 1e-300}, None, [*_VELOCITY_SWEEP, "--schemes", "event"], 4,
        [f"run error: sweep point (value=20.0, scheme='event'): {_SLOTS}"],
    ),
    "n_quad-huge-pattern": (
        {"n_quad": 10**9}, None, ["pattern", "--velocities", "30"], 2, [_NODES + "1000000000"]
    ),
    # the proposed scheme serves the codebook's n_quad, but the configured one must be valid
    "n_quad-huge-simulate": ({"n_quad": 10**9}, {}, ["simulate"], 2, [_NODES + "1000000000"]),
    "n_quad-huge-header": (
        {}, {"n_quad": 10**9}, _POWER_SWEEP, 3,
        ["codebook error: codebook n_quad 1000000000 is above 1024"],
    ),
    "cells-build": (
        {"theta_step": 1e-12}, None, [*_BUILD, "1"], 2,
        [f"configuration error: invalid value: {_CELLS}"],
    ),
    "cells-header": (
        {}, {"grid": _FINE_GRID}, ["simulate"], 3,
        [f"codebook error: codebook payload incomplete or invalid: {_CELLS}"],
    ),
    "far-field-simulate": (_NEAR, None, ["simulate", "--scheme", "conventional"], 0, [_FAR]),
    "far-field-build-jobs-1": (_NEAR, None, [*_BUILD, "1"], 0, [_FAR, _FAR]),
    "far-field-build-jobs-2": (_NEAR, None, [*_BUILD, "2"], 0, [_FAR, _FAR]),
}


@pytest.mark.parametrize(
    "edits, header, argv, code, lines", _ONE_LINE_CASES.values(), ids=list(_ONE_LINE_CASES)
)
def test_cli_reports_each_failure_and_warning_in_one_line(
    tmp_path, capfd, edits, header, argv, code, lines
):
    # capfd, since pool workers write their warnings to fd 2
    config = small_config_text(tmp_path)
    if header is not None:
        assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 0
        path = tmp_path / "cb.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **header}))
    config = _edited(config, **edits)
    capfd.readouterr()
    assert main([*argv, "--config", str(config)]) == code
    err = capfd.readouterr().err
    assert err.splitlines() == lines and err.endswith("\n")
    assert "Traceback" not in err
    if code:  # a failing run writes nothing
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "cb.json").exists() == (header is not None)


@pytest.mark.parametrize(
    "argv",
    [
        ["codebook-build", "--jobs", "0"],
        ["sweep", "--axis", "tx_power", "--values", "30", "--jobs", "-3"],
        ["sweep", "--axis", "velocity", "--values", "10", "--jobs", "0"],
    ],
)
def test_cli_rejects_jobs_below_one(tmp_path, capsys, argv):
    config = small_config_text(tmp_path)
    assert main([*argv, "--config", str(config)]) == 2
    jobs = argv[argv.index("--jobs") + 1]
    assert capsys.readouterr().err == f"configuration error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "cb.json").exists()


@pytest.mark.parametrize("command", ["simulate", "pattern"])
def test_cli_jobs_only_where_workers_run(tmp_path, command):
    config = small_config_text(tmp_path)
    extra = ["--velocities", "10"] if command == "pattern" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--jobs", "2", *extra])
    assert exc.value.code == 2


def test_cli_codebook_build_failure_names_cell(tmp_path, capsys):
    # centre 0.9 with half-width 0.1 already reaches sine-space edge 1, so the grid is a
    # configuration error and nothing is built
    config = small_config_text(tmp_path)
    text = config.read_text()
    edge = {"theta_lo": "0.9", "theta_hi": "0.95", "delta_max": "0.1", "delta_step": "0.05"}
    for key, value in edge.items():
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in text.splitlines())
    config.write_text(text + "\n")
    assert main(["codebook-build", "--config", str(config), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    expected = "invalid value: cell theta=0.9 delta=0.1 reaches sine-space edge"
    assert err == f"configuration error: {expected}\n"
    assert not (tmp_path / "cb.json").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", "--axis", "velocity", "--values", "-5"], "velocity value -5.0: velocity"),
        (["sweep", "--axis", "tx_power", "--values", "-4000"], "tx_power value -4000.0: tx_power"),
        (["sweep", "--axis", "tx_power", "--values", "4000"], "tx_power value 4000.0: 4000.0 dBm"),
        (["sweep", "--axis", "tx_power", "--values", "30,nan"], "value list '30,nan' holds a"),
        (["sweep", "--axis", "velocity", "--values", "nan"], "value list 'nan' holds a non-finite"),
        (["sweep", "--axis", "velocity", "--values", "10,abc"], "cannot parse value list '10,abc'"),
        (["pattern", "--velocities", "nan"], "value list 'nan' holds a non-finite"),
        (["pattern", "--velocities", "10,-3"], "velocity value -3.0: velocity must be >= 0"),
        (["pattern", "--velocities", "10,50,10"],
         "velocities 10.0 and 10.0 would both write pattern_v10.csv\n"),
        (["pattern", "--velocities", "10.0000001,10.0000002"],
         "velocities 10.0000001 and 10.0000002 would both write pattern_v10.csv\n"),
    ],
    ids=["velocity-negative", "power-underflow", "power-overflow", "power-nan", "velocity-nan",
         "velocity-unparsable", "pattern-nan", "pattern-negative", "pattern-repeated",
         "pattern-same-file"],
)
def test_cli_rejects_axis_values_no_scenario_accepts(tmp_path, capsys, monkeypatch, argv, named):
    def no_swarm(*args, **kw):
        pytest.fail("a rejected value list reached the optimiser")

    monkeypatch.setattr("thztrack.cli.optimize_omegas", no_swarm)
    config = small_config_text(tmp_path)
    extra = ["--schemes", "conventional", "--jobs", "1"] if argv[0] == "sweep" else []
    assert main([*argv, *extra, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {named}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # every value is checked before anything is written


@pytest.mark.parametrize("value", ["", ";;", '"'])
def test_cli_rejects_unusable_delimiter(tmp_path, capsys, value):
    config = small_config_text(tmp_path)
    lines = [f"delimiter = {value}" if line.startswith("delimiter =") else line
             for line in config.read_text().splitlines()]
    config.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--config", str(config), "--scheme", "conventional"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [output] delimiter:") and err.count("\n") == 1
