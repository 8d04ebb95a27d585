"""The benchmark's workloads: set-up, one timed round, and output checks.

Every call into the program goes through a module attribute
(``tracking.sweep``, not a name imported from it), so the traced run sees it.
All workloads use the shipped ``configs/table1.ini`` scenario at ``jobs=1``.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracles
from thztrack import codebook, config, exports, tracking

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "table1.ini"
SCHEMES = ("proposed", "conventional", "event")
SCHEME_LABELS = {
    "proposed": tracking.SCHEME_PROPOSED,
    "conventional": tracking.SCHEME_CONVENTIONAL,
    "event": tracking.SCHEME_EVENT,
}
TRACE_COLUMNS = ("time_s", "scheme", "sin_dir", "distance_m", "bf_gain", "rate_bps", "outage", "beam_id")

# Whole theta-columns 0.00..0.14 of the default grid. Cell seeds derive from
# the default grid's indices, so the band must start at theta 0 to hold the
# cells (theta-index 11..14, delta-index 21) that miss the grid-search floor.
BAND_THETA_HI = 0.14
# About 300 cells: coarse enough to build in set-up, fine enough that the
# proposed scheme still beats MRT at every velocity.
SWEEP_GRID = dict(theta_step=0.02, delta_step=0.006)
VELOCITIES = tuple(float(v) for v in range(10, 101, 10))
TRACE_VELOCITIES = (10.0, 50.0, 100.0)
POWERS_DBM = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)

REL_TOL = 1e-9
GRID_FLOOR = 1e-4


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _link(rc) -> oracles.Link:
    return oracles.Link(
        n_antennas=rc.array.n_antennas,
        carrier_hz=rc.array.carrier_freq_hz,
        tx_power_dbm=rc.link.tx_power_dbm,
        noise_dbmhz=rc.link.noise_psd_dbmhz,
        bandwidth_hz=rc.link.bandwidth_hz,
        absorption_per_m=rc.link.absorption_coeff_per_m,
        distance_m=rc.scenario.perpendicular_distance_m,
        start_angle=rc.scenario.start_angle_rad,
        end_angle=rc.scenario.end_angle_rad,
        tau=rc.scenario.sensing_period_s,
        time_step=rc.scenario.time_step_s,
        alpha=rc.optimizer.alpha,
        n_quad=rc.optimizer.n_quad,
    )


class Workload:
    """Base: ``prepare`` is cheap and repeated, ``build`` runs once.

    ``items_per_round`` counts the items of the throughput metric and
    ``operations_per_round`` the operations checked for failure.
    """

    items_per_round = 0

    @property
    def operations_per_round(self) -> int:
        return self.items_per_round

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        rc = config.parse_config_file(CONFIG_PATH)
        self.rc = rc
        self.scenario = config.build_scenario(rc)
        self.template = config.build_objective_template(rc)
        self.grid = config.build_grid(rc)
        self.event_params = config.build_event_params(rc)
        self.pso = config.build_pso(rc, seed=self._pso_seed(rc))
        self.link = _link(rc)

    def _pso_seed(self, rc) -> int:
        return self.seed

    def build(self) -> None:
        pass

    def run_round(self):
        raise NotImplementedError

    def check(self, output) -> tuple[int, list[str]]:
        """(failed operations per round, problems that make the run incorrect)."""
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two rounds gave the same result."""
        return a == b

    def _check_r_min(self, problems: list[str]) -> None:
        r_min = self.link.r_min()
        if _rel(r_min, self.scenario.r_min) > REL_TOL:
            problems.append(f"r_min {self.scenario.r_min!r} != oracle {r_min!r}")

    def _check_conventional(self, rows, axis_value, problems: list[str]) -> None:
        """Conventional rows against the oracle; axis_value maps a row value to (velocity, power)."""
        label = SCHEME_LABELS["conventional"]
        for row in rows:
            if row.scheme != label:
                continue
            velocity, power = axis_value(row.value)
            avg, outage, realign = oracles.conventional_metrics(
                self.link.with_power(power), velocity, self.link.r_min()
            )
            m = row.metrics
            if _rel(m.avg_rate, avg) > REL_TOL or m.outage_prob != outage or m.realignment_count != realign:
                problems.append(
                    f"conventional row {row.value}: {m} != oracle ({avg!r}, {outage!r}, {realign})"
                )


class CodebookBuild(Workload):
    """Builds the band, saves it and loads it back."""

    def _pso_seed(self, rc) -> int:
        # The configured seed, not --seed: the cells that fall short of the
        # grid-search floor must be the same in every run.
        return rc.optimizer.seed

    def prepare(self) -> None:
        super().prepare()
        self.band = replace(self.grid, theta_range=(self.grid.theta_range[0], BAND_THETA_HI))
        self.items_per_round = len(self.band.theta_values()) * len(self.band.delta_values())

    def run_round(self):
        cb = codebook.build_codebook(self.band, self.template, self.pso)
        path = self.work_dir / "codebook.json"
        codebook.save(cb, path)
        loaded = codebook.load(path, expected_fingerprint=cb.fingerprint)
        return path.read_bytes(), loaded

    def same(self, a, b) -> bool:
        return a[0] == b[0]

    def check(self, output) -> tuple[int, list[str]]:
        saved, cb = output
        problems: list[str] = []
        self._check_r_min(problems)
        again = self.work_dir / "codebook_again.json"
        codebook.save(cb, again)
        if again.read_bytes() != saved:
            problems.append("save -> load -> save changed the bytes")
        if len(cb.entries) != self.items_per_round:
            problems.append(f"{len(cb.entries)} cells, expected {self.items_per_round}")
        short = 0
        r_min = self.link.r_min()
        probe = np.linspace(*cb.pso.bounds, 5)
        for (ti, di), entry in sorted(cb.entries.items()):
            theta, delta = entry.interval.theta_m, entry.interval.delta
            value = float(oracles.cell_objective(self.link, theta, delta, [entry.omega], r_min)[0])
            if _rel(value, entry.objective_value) > REL_TOL:
                problems.append(f"cell ({ti},{di}) objective {entry.objective_value!r} != oracle {value!r}")
            best = oracles.grid_search_best(self.link, theta, delta, cb.pso.bounds, r_min)
            if entry.objective_value < best * (1.0 - GRID_FLOOR):
                short += 1
            if delta == 0.0:
                values = oracles.cell_objective(self.link, theta, delta, probe, r_min)
                if max(_rel(v, entry.objective_value) for v in values) > REL_TOL:
                    problems.append(f"delta=0 cell ({ti},{di}) objective depends on omega")
        return short, problems


class VelocitySweep(Workload):
    """Velocity sweep of all schemes, its table, and traces at a few velocities.

    Its operations are the sweep rows and the trace files written.
    """

    items_per_round = len(VELOCITIES) * len(SCHEMES)
    operations_per_round = items_per_round + len(TRACE_VELOCITIES) * len(SCHEMES)

    def build(self) -> None:
        grid = replace(self.grid, **SWEEP_GRID)
        self.cb = codebook.build_codebook(grid, self.template, self.pso)

    def run_round(self):
        sc = self.scenario
        rows = tracking.sweep(sc, "velocity", VELOCITIES, SCHEMES, self.cb, self.event_params)
        exports.write_sweep(rows, self.work_dir / "sweep_velocity.csv")
        window = (sc.start_angle, sc.end_angle)
        records = []
        for velocity in TRACE_VELOCITIES:
            scv = replace(sc, velocity=velocity)
            for scheme in SCHEMES:
                if scheme == "proposed":
                    rec = tracking.run_sensing_assisted(scv, self.cb)
                elif scheme == "conventional":
                    rec = tracking.run_conventional(scv)
                else:
                    rec = tracking.run_event_based(scv, self.event_params)
                path = self.work_dir / f"trace_{scheme}_v{velocity:g}.csv"
                exports.write_trace(rec, path)
                tracking.compute_metrics(rec, window)
                records.append((path, rec))
        return rows, records

    def same(self, a, b) -> bool:
        return a[0] == b[0]

    def check(self, output) -> tuple[int, list[str]]:
        rows, records = output
        problems: list[str] = []
        self._check_r_min(problems)
        self._check_conventional(rows, lambda v: (v, self.link.tx_power_dbm), problems)
        by = {(r.value, r.scheme): r.metrics for r in rows}
        proposed, conventional = SCHEME_LABELS["proposed"], SCHEME_LABELS["conventional"]
        for v in VELOCITIES:
            p, c = by[(v, proposed)].avg_rate, by[(v, conventional)].avg_rate
            if p < c or (v >= 50.0 and not p > c):
                problems.append(f"proposed {p!r} does not beat conventional {c!r} at {v} m/s")
        p100, c100 = by[(100.0, proposed)].outage_prob, by[(100.0, conventional)].outage_prob
        if not (p100 < 0.10 and c100 > p100):
            problems.append(f"outage at 100 m/s: proposed {p100}, conventional {c100}")
        _check_sweep_file(self.work_dir / "sweep_velocity.csv", rows, problems)
        # A trace whose rows do not split into its columns is a failed operation.
        unparsable = sum(not _trace_parses_back(path, rec, problems) for path, rec in records)
        for v in VELOCITIES:
            self._check_coverage(v, problems)
        return unparsable, problems

    def _check_coverage(self, velocity: float, problems: list[str]) -> None:
        rec = tracking.run_sensing_assisted(replace(self.scenario, velocity=velocity), self.cb)
        _, period = oracles.period_layout(self.link, velocity)
        for k in np.unique(period):
            beam = rec.beam_ids[int(np.argmax(period == k))]
            ti, di = (int(i) for i in beam[3:-1].split(","))
            row_delta = self.cb.entries[(ti, di)].interval.delta
            _, delta = oracles.predicted_interval(self.link, velocity, int(k))
            if row_delta < delta - 1e-12:
                problems.append(f"{velocity} m/s period {k}: row {row_delta} < interval {delta}")


class PowerSweep(Workload):
    """Transmit-power sweep; the proposed scheme re-optimises every period."""

    items_per_round = len(POWERS_DBM) * len(SCHEMES)

    def prepare(self) -> None:
        super().prepare()
        # The power axis reads only the codebook's metadata, so one cell will do.
        grid = replace(self.grid, theta_range=(0.0, 0.0), delta_max=0.0)
        self.cb = codebook.build_codebook(grid, self.template, self.pso)

    def run_round(self):
        rows = tracking.sweep(
            self.scenario, "tx_power", POWERS_DBM, SCHEMES, self.cb, self.event_params
        )
        exports.write_sweep(rows, self.work_dir / "sweep_power.csv")
        return rows

    def check(self, rows) -> tuple[int, list[str]]:
        problems: list[str] = []
        self._check_r_min(problems)
        velocity = self.scenario.velocity
        self._check_conventional(rows, lambda p: (velocity, p), problems)
        by = {(r.value, r.scheme): r.metrics.avg_rate for r in rows}
        for label in SCHEME_LABELS.values():
            rates = [by[(p, label)] for p in POWERS_DBM]
            if not all(b > a for a, b in zip(rates, rates[1:])):
                problems.append(f"{label} rate does not rise with power: {rates}")
        for p in POWERS_DBM:
            if by[(p, SCHEME_LABELS["proposed"])] < by[(p, SCHEME_LABELS["conventional"])]:
                problems.append(f"proposed below conventional at {p} dBm")
        _check_sweep_file(self.work_dir / "sweep_power.csv", rows, problems)
        return 0, problems


def _check_sweep_file(path: Path, rows, problems: list[str]) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        parsed = list(csv.reader(handle))
    expected = [
        [repr(r.value), r.scheme, repr(r.metrics.avg_rate), repr(r.metrics.outage_prob),
         str(r.metrics.realignment_count)]
        for r in rows
    ]
    if parsed[1:] != expected:
        problems.append(f"{path.name} does not parse back to the sweep rows")


def _trace_parses_back(path: Path, rec, problems: list[str]) -> bool:
    """Whether the trace file splits into its columns; values must then match."""
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    if tuple(table[0]) != TRACE_COLUMNS or len(table) != len(rec.times) + 1:
        problems.append(f"{path.name}: header or length differs from the record")
        return True
    if any(len(line) != len(TRACE_COLUMNS) for line in table[1:]):
        return False
    columns = list(zip(*table[1:]))
    for index, values in ((0, rec.times), (2, rec.sin_dirs), (3, rec.distances),
                          (4, rec.bf_gains), (5, rec.rates)):
        if not np.array_equal(np.array([float(x) for x in columns[index]]), values):
            problems.append(f"{path.name}: column {TRACE_COLUMNS[index]} differs")
    if (set(columns[1]) != {rec.scheme}
            or [int(x) for x in columns[6]] != [int(o) for o in rec.outages]
            or list(columns[7]) != list(rec.beam_ids)):
        problems.append(f"{path.name}: scheme, outage or beam columns differ")
    return True


WORKLOADS = {
    "codebook-build": CodebookBuild,
    "velocity-sweep": VelocitySweep,
    "power-sweep": PowerSweep,
}
