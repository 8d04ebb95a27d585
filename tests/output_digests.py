"""Print a SHA-256 digest of every file and summary the CLI writes for a fixed set of runs.

Run it at two commits and diff the outputs to check that a change moved no byte:

    python tests/output_digests.py > digests.txt

It runs the package in this checkout's ``src/``, in a temporary directory:
the default codebook built at ``--jobs 1`` and ``--jobs 2``, ``simulate --scheme
all`` at the configured 20 m/s and, on a copy of the configuration with
``velocity_mps`` replaced, at 10 and 100 m/s, ``simulate --scheme event``,
``--scheme proposed`` and ``--scheme conventional`` alone at 20 m/s (their traces
must equal the ``all`` run's, or the script fails), ``simulate --scheme event`` on
a copy with ``slot_s = 0.001``, whose slots mostly hold no sample, and on a copy
at 309.34 m/s and 10 ms steps, whose path ends just after its second slot, the
velocity sweep 10-100 m/s, the ``tx_power`` sweep 20-50 dBm at ``--jobs 1`` and ``--jobs
2``, and ``pattern`` at 10, 50 and 90 m/s. Each line is ``sha256  relative-path``;
a run's stdout counts as ``<run>/stdout``, with the temporary directory and the
build's wall time masked. Each built codebook also gets a ``<run>/cells`` line:
the digest of its loaded entries' ``(ti, di, theta_m, delta, omega, objective)``
reprs, which stays put when a new file format moves the bytes but no value. Every
file and cells digest of a ``--jobs 2`` run must equal its ``--jobs 1`` twin's, or
the script fails. It prints 47 lines and takes about 18 s on a 2-core Xeon.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "table1.ini"

# (run name, CLI arguments after the command's --config and --out, the config keys whose
# lines get new values, none for the shipped config). Traces at 10 and 100 m/s hold many
# more and many fewer samples per sensing period than the configured 20 m/s; a 1 ms event
# slot is shorter than the 1.65 ms time step; at 309.34 m/s and 10 ms steps the path ends
# 1.4e-17 s after the second 50 ms slot, which has an outage and so would realign if
# anything followed it.
RUNS = [
    ("build_jobs1", ["codebook-build", "--jobs", "1"], {}),
    ("build_jobs2", ["codebook-build", "--jobs", "2"], {}),
    ("simulate", ["simulate", "--scheme", "all"], {}),
    ("simulate_v10", ["simulate", "--scheme", "all"], {"velocity_mps": 10.0}),
    ("simulate_v100", ["simulate", "--scheme", "all"], {"velocity_mps": 100.0}),
    ("simulate_event", ["simulate", "--scheme", "event"], {}),
    ("simulate_event_slot1ms", ["simulate", "--scheme", "event"], {"slot_s": 0.001}),
    ("simulate_event_boundary", ["simulate", "--scheme", "event"],
     {"velocity_mps": 309.3362496096232, "time_step_s": 0.01}),
    ("simulate_proposed", ["simulate", "--scheme", "proposed"], {}),
    ("simulate_conventional", ["simulate", "--scheme", "conventional"], {}),
    ("sweep_velocity", ["sweep", "--axis", "velocity", "--values", "10,20,30,40,50,60,70,80,90,100"], {}),
    ("sweep_power_jobs1", ["sweep", "--axis", "tx_power", "--values", "20,25,30,35,40,45,50", "--jobs", "1"], {}),
    ("sweep_power_jobs2", ["sweep", "--axis", "tx_power", "--values", "20,25,30,35,40,45,50", "--jobs", "2"], {}),
    ("pattern", ["pattern", "--velocities", "10,50,90"], {}),
]


def _config(edits: dict[str, float], configs: Path) -> Path:
    """The shipped configuration, or a copy of it in ``configs`` with each edited key's value
    replaced."""
    if not edits:
        return CONFIG
    text = CONFIG.read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.MULTILINE)
        if count != 1:
            raise SystemExit(f"{CONFIG} does not hold one {key} line")
    path = configs / ("_".join(f"{key}_{value!r}" for key, value in edits.items()) + ".ini")
    path.write_text(text)
    return path


def _run(name: str, args: list[str], work: Path, config: Path) -> str:
    """Run one command into ``work/name``; returns its stdout with the volatile parts masked."""
    command, *rest = args
    out = work / name
    if command == "codebook-build":
        out.mkdir()
        target = out / "codebook.json"
    else:
        target = out
    argv = [sys.executable, "-m", "thztrack.cli", command, "--config", str(config)]
    argv += ["--out", str(target), *rest]
    if command in ("simulate", "sweep"):
        argv += ["--codebook", str(work / "build_jobs1" / "codebook.json")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=work)
    if done.returncode != 0:
        raise SystemExit(f"{name} exited {done.returncode}: {done.stderr.strip()}")
    stdout = done.stdout.replace(str(work), "<tmp>")
    return re.sub(r" in \d+\.\d s$", " in <wall> s", stdout, flags=re.MULTILINE)


def _cell_digest(path: Path) -> str:
    """Digest of every loaded cell's indices, interval, omega and objective, in row-major order."""
    from thztrack.codebook import load

    lines = [
        f"{ti} {di} {e.interval.theta_m!r} {e.interval.delta!r} {e.omega!r} {e.objective_value!r}\n"
        for (ti, di), e in sorted(load(path).entries.items())
    ]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def _data_digests(digests: dict[str, str], run: str) -> dict[str, str]:
    """The digest of each of ``run``'s files and cells by its name in the run; not its stdout,
    which names the run's paths."""
    return {
        path.removeprefix(f"{run}/"): digest
        for path, digest in digests.items()
        if path.startswith(f"{run}/") and path != f"{run}/stdout"
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work, configs = Path(tmp) / "runs", Path(tmp) / "configs"
        work.mkdir()
        configs.mkdir()
        stdouts = {
            name: _run(name, args, work, _config(edits, configs))
            for name, args, edits in RUNS
        }
        digests = {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in work.rglob("*")
            if path.is_file()
        }
        for name, text in stdouts.items():
            digests[f"{name}/stdout"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, (command, *_), _ in RUNS:
            if command == "codebook-build":
                digests[f"{name}/cells"] = _cell_digest(work / name / "codebook.json")
    alone = ("event", "event_based"), ("proposed", "proposed"), ("conventional", "conventional")
    for scheme, slug in alone:
        name, trace = f"simulate_{scheme}", f"trace_{slug}.csv"
        if digests[f"{name}/{trace}"] != digests[f"simulate/{trace}"]:  # alone as beside the others
            raise SystemExit(f"{name}/{trace} differs from simulate/{trace}")
    for twin in ("build", "sweep_power"):  # --jobs moves no data byte
        if _data_digests(digests, f"{twin}_jobs2") != _data_digests(digests, f"{twin}_jobs1"):
            raise SystemExit(f"{twin}_jobs2 wrote other data than {twin}_jobs1")
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
