"""Every output the CLI writes against its golden record in ``tests/golden/``.

On the host key of ``tests/golden/host.json`` the session's default codebook and every digest,
stdout line and number of its CLI runs must equal the record. Elsewhere the last bits move, so
each run must write the recorded files with each number within its command's ``TOLERANCE``, and
each golden cell's objective within ``REL`` of the built one and of its omega's value.
"""

from __future__ import annotations

import argparse
import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from thztrack import load, objectives, save
from thztrack.cli import _build_parser
from thztrack.codebook import _cell_spec
from thztrack.config import RunConfig, build_objective_template
from make_golden import CODEBOOK, HOST, RUNS, RUNS_FILE, host_key

REL = 1e-12
EXACT = host_key() == json.loads(HOST.read_text())  # on the recording host
GOLDEN_RUNS = json.loads(RUNS_FILE.read_text())
# the relative move off the recording host allowed a run's numbers, by command, else none: under
# either knob of the README's Determinism section sweep rows moved by 2.1e-16 at most, others not
TOLERANCE = {"sweep": 1e-15}


def _mismatches(built, golden, template) -> list[tuple[int, int]]:
    """The golden cells that ``built`` misses or holds an objective of more than ``REL`` apart,
    and those whose stored omega no longer gives their stored objective within ``REL``."""
    short = []
    for key, want in sorted(golden.entries.items()):
        got = built.entries.get(key)
        value = objectives([want.omega], _cell_spec(template, want.interval))[0]
        tol = REL * abs(want.objective_value)
        if (
            got is None
            or abs(got.objective_value - want.objective_value) > tol
            or abs(value - want.objective_value) > tol
        ):
            short.append(key)
    return short


def _entries(records: dict, exact: bool) -> dict[str, object]:
    """Each run record's entries by ``<run>/<file>``: the digest of each file written (only its
    name off ``exact``), the stdout when ``exact``, and each number, named by its file."""
    entries = {}
    for name, record in records.items():
        entries.update({f"{name}/{f}": d if exact else "" for f, d in record["files"].items()})
        entries.update({f"{name}/{key}": value for key, value in record["numbers"].items()})
        entries.update({f"{name}/stdout": record["stdout"]} if exact else {})
    return entries


def _run_mismatches(got: dict, want: dict, exact: bool) -> list[str]:
    """Each entry of the run records ``got`` that misses the golden ``want``s, with both values;
    off ``exact`` a number may move by its command's relative ``TOLERANCE``."""
    new, old = _entries(got, exact), _entries(want, exact)
    lines = []
    for key in sorted(new.keys() | old.keys()):
        a, b = new.get(key), old.get(key)
        tol = 0.0 if exact else TOLERANCE.get(RUNS[key.split("/")[0]][0].split()[0], 0.0)
        if a != b and not (isinstance(a, float) and isinstance(b, float) and abs(a - b) <= tol * abs(b)):
            lines.append(f"{key} = {a!r}, recorded {b!r}")
    return lines


@pytest.fixture(scope="module")
def golden():
    return load(CODEBOOK)


def test_default_codebook_matches_the_golden_record(default_codebook, golden, tmp_path):
    if EXACT:
        save(default_codebook, tmp_path / "codebook.json")
        assert (tmp_path / "codebook.json").read_bytes() == CODEBOOK.read_bytes()
        return
    for field in ("grid", "fingerprint", "n_quad", "pso"):
        assert getattr(default_codebook, field) == getattr(golden, field)
    assert default_codebook.entries.keys() == golden.entries.keys()
    template = build_objective_template(RunConfig())
    assert _mismatches(default_codebook, golden, template) == []


def test_tolerance_gate_rejects_a_moved_omega_and_objective(golden):
    # three cells with omega inside the bounds: the first keeps its entry, the second's omega
    # moves 1e-3 relative off its optimum, and the third's objective moves by 1e-10 relative
    template = build_objective_template(RunConfig())
    keys = [k for k, e in sorted(golden.entries.items()) if 0.0 < e.omega and e.interval.delta > 0.01]
    keys = keys[:: len(keys) // 3][:3]
    cells = {k: golden.entries[k] for k in keys}
    kept = replace(golden, entries=cells)
    assert _mismatches(kept, kept, template) == []
    moved = dict(cells)
    moved[keys[1]] = replace(cells[keys[1]], omega=cells[keys[1]].omega * (1.0 + 1e-3))
    nudged = replace(cells[keys[2]], objective_value=cells[keys[2]].objective_value * (1 + 1e-10))
    assert _mismatches(kept, replace(golden, entries=moved), template) == [keys[1]]
    assert _mismatches(kept, replace(golden, entries={**cells, keys[2]: nudged}), template) == [
        keys[2]
    ]


def test_every_run_matches_its_golden_record(cli_runs):
    assert _run_mismatches(cli_runs[1], GOLDEN_RUNS, EXACT) == []


def test_run_gate_rejects_an_altered_digest_and_a_moved_number():
    altered = copy.deepcopy(GOLDEN_RUNS)
    pattern, sweep = altered["pattern"], altered["sweep_power_jobs1"]
    digest, pattern["files"]["pattern_v50.csv"] = pattern["files"]["pattern_v50.csv"], "0" * 64
    line = f"pattern/pattern_v50.csv = {'0' * 64!r}, recorded {digest!r}"
    assert _run_mismatches(altered, GOLDEN_RUNS, True) == [line]
    assert _run_mismatches(altered, GOLDEN_RUNS, False) == []
    # a sweep number moved by 10 times its tolerance, and an untolerated number by one ulp
    sweep["numbers"]["sweep.csv: proposed@40.0 avg_rate_bps"] *= 1.0 + 10.0 * TOLERANCE["sweep"]
    omega = pattern["numbers"]["stdout: v=90 m/s omega"]
    pattern["numbers"]["stdout: v=90 m/s omega"] = float(np.nextafter(omega, 0.0))
    assert [line.split(" = ")[0] for line in _run_mismatches(altered, GOLDEN_RUNS, False)] == [
        "pattern/stdout: v=90 m/s omega", "sweep_power_jobs1/sweep.csv: proposed@40.0 avg_rate_bps"
    ]


def test_nothing_escapes_the_gate(cli_runs):
    # every command has a record: codebook-build's is the default codebook, the others' runs
    (commands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == {"codebook-build"} | {line.split()[0] for line, _ in RUNS.values()}
    # every file a run writes, in its --out or anywhere else, has a digest in the record
    written = {p.relative_to(cli_runs[0]).as_posix() for p in cli_runs[0].rglob("*") if p.is_file()}
    configs = {f"{name}.ini" for name, (_, edits) in RUNS.items() if edits}
    assert written == configs | {f"{name}/{f}" for name, r in GOLDEN_RUNS.items() for f in r["files"]}


def test_outputs_do_not_depend_on_how_a_run_is_made(cli_runs):
    # each scheme alone writes the trace it writes beside the others, and --jobs moves no byte
    runs = cli_runs[1]
    for scheme in ("event", "proposed", "conventional"):
        assert runs[f"simulate_{scheme}"]["files"].items() <= runs["simulate"]["files"].items()
    assert runs["sweep_power_jobs2"]["files"] == runs["sweep_power_jobs1"]["files"]
