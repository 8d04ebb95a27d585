"""Regenerate the golden record of every CLI output, and the host key it was made on.

    PYTHONPATH=src python tests/make_golden.py

It writes to ``tests/golden/``, for ``tests/test_golden.py``: the default codebook of
``RunConfig()`` (``configs/table1.ini``) built at ``jobs=1``, the record of ``codebook-build``;
``runs.json``, one record per run of :data:`RUNS` on that codebook; and ``host.json``, the host
key. Run it when a change moves an output on purpose: ``git diff tests/golden/`` is then that
change's ledger. It takes about 9 s on one core of a 2.1 GHz Xeon. The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from thztrack import build_codebook, save
from thztrack.cli import main as cli_main
from thztrack.config import RunConfig, build_grid, build_objective_template, build_pso

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "table1.ini"
GOLDEN = Path(__file__).resolve().parent / "golden"
CODEBOOK = GOLDEN / "default_codebook.json"
RUNS_FILE = GOLDEN / "runs.json"
HOST = GOLDEN / "host.json"

# run name: (the command line after --config, --out and --codebook; config key edits). Traces
# at 10 and 100 m/s hold many more and fewer samples per sensing period than at 20 m/s; a 1 ms
# event slot is shorter than the 1.65 ms time step; at 309.34 m/s and 10 ms steps the path ends
# 1.4e-17 s after the second 50 ms slot, which has an outage, so nothing follows to realign.
RUNS = {
    "simulate": ("simulate --scheme all", {}),
    "simulate_v10": ("simulate --scheme all", {"velocity_mps": 10.0}),
    "simulate_v100": ("simulate --scheme all", {"velocity_mps": 100.0}),
    "simulate_event": ("simulate --scheme event", {}),
    "simulate_event_slot1ms": ("simulate --scheme event", {"slot_s": 0.001}),
    "simulate_event_boundary": ("simulate --scheme event", {"velocity_mps": 309.3362496096232, "time_step_s": 0.01}),
    "simulate_proposed": ("simulate --scheme proposed", {}),
    "simulate_conventional": ("simulate --scheme conventional", {}),
    "sweep_velocity": ("sweep --axis velocity --values 10,20,30,40,50,60,70,80,90,100", {}),
    "sweep_power_jobs1": ("sweep --axis tx_power --values 20,25,30,35,40,45,50 --jobs 1", {}),
    "sweep_power_jobs2": ("sweep --axis tx_power --values 20,25,30,35,40,45,50 --jobs 2", {}),
    "pattern": ("pattern --velocities 10,50,90", {}),
}
# made through ``python -m thztrack.cli``, so the module entry point keeps a test
SUBPROCESS_RUN = "simulate_event_boundary"


def host_key() -> dict[str, str]:
    """numpy's dispatch level for sin, cos and log1p, the OpenBLAS core numpy calls, and the
    numpy and BLAS versions."""
    dispatch = opt_func_info(func_name="^(sin|cos|log1p)$")
    key = {name: dispatch[name]["dd"]["current"] for name in ("sin", "cos", "log1p")}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    key["openblas_core"] = "unknown"
    if libs:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        key["openblas_core"] = corename().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    key["blas"] = f"{blas['name']} {blas.get('version', 'unknown')}"
    key["numpy"] = np.__version__
    return key


def _record(stdout: str, work: Path, out: Path) -> dict:
    """A run's record: the SHA-256 of each file it wrote to ``out``, its stdout lines with ``work``
    masked as ``<tmp>``, and its numbers, each named by its file: each ``key=value`` of its
    stdout as ``stdout: <line label> <key>``, each field of a ``sweep.csv`` as ``sweep.csv:
    <scheme>@<value> <column>``."""
    numbers = {}
    for line in stdout.splitlines():  # a pattern line's label is its velocity, v=<m/s>
        label, pairs = line.split(":")[0], re.findall(r"(\w+)=(\S+)", line)
        numbers.update({f"stdout: {label} {k}": float(v) for k, v in pairs if k != "v"})
    if (out / "sweep.csv").exists():
        header, *rows = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        for value, scheme, *fields in rows:
            point = f"sweep.csv: {scheme}@{value}"
            numbers.update({f"{point} {column}": float(f) for column, f in zip(header[2:], fields)})
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return {
        "files": {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "stdout": stdout.replace(str(work), "<tmp>").splitlines(),
        "numbers": numbers,
    }


def _argv(name: str, work: Path) -> list[str]:
    """Run ``name``'s command line after ``thztrack``, into ``work/name``, edited config in ``work``."""
    line, edits = RUNS[name]
    command, *rest = line.split()
    config = CONFIG
    if edits:
        text = CONFIG.read_text()
        for key, value in edits.items():
            text, count = re.subn(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
            assert count == 1, f"{CONFIG} holds {count} {key} lines"
        config = work / f"{name}.ini"
        config.write_text(text)
    argv = [command, "--config", str(config), "--out", str(work / name), *rest]
    if command != "pattern":  # pattern runs its own swarms and reads no codebook
        argv += ["--codebook", str(CODEBOOK)]
    return argv


def run_all(work: Path) -> dict[str, dict]:
    """Make every run into ``work`` and return the records: :data:`SUBPROCESS_RUN` in a
    subprocess, while the others call ``thztrack.cli.main``."""
    argv = [sys.executable, "-m", "thztrack.cli", *_argv(SUBPROCESS_RUN, work)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    stdouts = {}
    for name in [name for name in RUNS if name != SUBPROCESS_RUN]:
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            assert cli_main(_argv(name, work)) == 0, f"{name} failed"
        stdouts[name] = buffer.getvalue()
    stdouts[SUBPROCESS_RUN] = child.communicate()[0]
    assert child.returncode == 0, f"{SUBPROCESS_RUN} exited {child.returncode}"
    return {name: _record(stdouts[name], work, work / name) for name in sorted(RUNS)}


def main() -> None:
    rc = RunConfig()
    save(build_codebook(build_grid(rc), build_objective_template(rc), build_pso(rc)), CODEBOOK)
    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    RUNS_FILE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    HOST.write_text(json.dumps(host_key(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CODEBOOK.name}, {len(records)} runs to {RUNS_FILE.name} and {HOST.name}")


if __name__ == "__main__":
    main()
