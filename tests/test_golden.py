"""The default codebook against its golden record: bit for bit on the recording host.

Off that host numpy's ``sin``/``cos``/``log1p`` kernels or the OpenBLAS core can move the
last bits, and omega drifts along flat optima, so there each objective must be within
``REL`` of the golden one, and each golden omega must still give its stored objective.
``python tests/make_golden.py`` regenerates the record.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from thztrack import load, objectives, save
from thztrack.codebook import _cell_spec
from thztrack.config import RunConfig, build_objective_template
from make_golden import CODEBOOK, HOST, host_key

REL = 1e-12


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


@pytest.fixture(scope="module")
def golden():
    return load(CODEBOOK)


def test_default_codebook_matches_the_golden_record(default_codebook, golden, tmp_path):
    if host_key() == json.loads(HOST.read_text()):
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
