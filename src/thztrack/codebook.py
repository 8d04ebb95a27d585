"""Grid-indexed codebook of optimised precoders and its persistence format.

Each grid cell pairs a quantised sine-space interval (centre theta, half-width
delta) with the omega that maximises the period objective for a canonical
path matching that interval. Entries store parameters only; weights are
reconstructed from (interval, omega), which is the single source of truth.

Serialised format (JSON, UTF-8, sorted keys, compact separators so identical
builds are byte-identical):

    {
      "alpha": float,
      "base_seed": int,
      "entries": [[theta_idx, delta_idx, theta_m, delta, omega,
                   objective_value, cell_seed, n_quad], ...]   # row-major
      "fingerprint": str,          # sha256 over the build scenario
      "format_version": 1,
      "grid": {"delta_max": f, "delta_step": f, "theta_lo": f,
               "theta_hi": f, "theta_step": f},
      "n_quad": int,
      "pso": {"bounds": [lo, hi], "cognitive": f, "inertia": f,
              "n_iterations": int, "n_particles": int, "social": f},
      "r_min": float,
      "tau": float
    }
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

from .geometry import AngularInterval, SensedState, point_at_direction
from .optimizer import MIN_QUAD_NODES, ObjectiveSpec, PsoConfig, optimize_omegas
from .precoder import Precoder, adaptive_precoder
from .seeding import derive_seed

FORMAT_VERSION = 1


class CodebookError(Exception):
    """A codebook that cannot be read, does not fit the scenario or does not cover a query."""


@dataclass(frozen=True)
class CodebookGrid:
    """Quantisation of the (theta, delta) plane.

    Centres run from theta_range[0] to at least theta_range[1] in steps of
    theta_step; half-width rows run from 0 to at least delta_max in steps of
    delta_step. Every cell's interval lies strictly inside sine space (-1, 1).
    """

    theta_step: float
    delta_step: float
    theta_range: tuple[float, float]
    delta_max: float

    def __post_init__(self):
        if self.theta_step <= 0.0 or self.delta_step <= 0.0:
            raise ValueError("grid steps must be positive")
        lo, hi = self.theta_range
        if not (-1.0 < lo <= hi < 1.0):
            raise ValueError(f"theta range {self.theta_range!r} outside (-1, 1)")
        if self.delta_max < 0.0:
            raise ValueError(f"delta_max must be >= 0, got {self.delta_max!r}")
        # float addition is monotone, so the outermost cells bound every cell's edges
        reach = self.delta_values()[-1]
        for theta in (self.theta_values()[0], self.theta_values()[-1]):
            if not abs(theta) + reach < 1.0:
                raise ValueError(f"cell theta={theta!r} delta={reach!r} reaches sine-space edge")

    def theta_values(self) -> list[float]:
        lo, hi = self.theta_range
        count = int(math.ceil((hi - lo) / self.theta_step - 1e-9)) + 1
        return [lo + i * self.theta_step for i in range(count)]

    def delta_values(self) -> list[float]:
        count = int(math.ceil(self.delta_max / self.delta_step - 1e-9)) + 1
        return [i * self.delta_step for i in range(count)]

    def contains(self, interval: AngularInterval) -> bool:
        lo, hi = self.theta_range
        eps = 1e-12
        return (
            lo - eps <= interval.theta_m <= hi + eps
            and interval.delta <= self.delta_max + eps
        )


@dataclass(frozen=True)
class CodebookEntry:
    interval: AngularInterval
    omega: float
    objective_value: float


@dataclass(frozen=True)
class Codebook:
    grid: CodebookGrid
    entries: dict[tuple[int, int], CodebookEntry]
    fingerprint: str
    tau: float
    alpha: float
    r_min: float
    n_quad: int
    pso: PsoConfig


def scenario_fingerprint(cfg, budget, tau: float, alpha: float, r_min: float) -> str:
    """Hash of the build scenario; guards against stale codebooks at lookup time."""
    text = (
        f"v{FORMAT_VERSION}|nt={cfg.n_antennas!r}|fc={cfg.carrier_freq!r}"
        f"|pt={budget.tx_power!r}|n0={budget.noise_psd!r}|b={budget.bandwidth!r}"
        f"|k={budget.absorption_coeff!r}|tau={tau!r}|alpha={alpha!r}|rmin={r_min!r}"
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_fingerprint(cb: Codebook, expected: str) -> None:
    """Raise CodebookError unless ``cb`` was built for the ``expected`` scenario."""
    if cb.fingerprint != expected:
        raise CodebookError(
            "codebook was built for a different scenario "
            f"(stored {cb.fingerprint[:12]}..., expected {expected[:12]}...); rebuild the codebook"
        )


def _template_perpendicular_distance(template: ObjectiveSpec) -> float:
    """Distance from the BS to the template's position along boresight.

    Cell paths run parallel to the array, so this holds for a static target too.
    """
    (ox, oy), (px, py) = template.geom.origin, template.state.position
    bx, by = template.geom.boresight
    return (px - ox) * bx + (py - oy) * by


def _cell_spec(
    template: ObjectiveSpec, theta_m: float, delta: float, distance_scale: float
) -> ObjectiveSpec:
    """Canonical period spec whose path sweeps exactly [theta-delta, theta+delta].

    The target rides a line parallel to the array at the template's
    perpendicular distance, so the cell-centre range follows that geometry.
    """
    interval = AngularInterval(theta_m, delta)
    p0, p1 = (
        point_at_direction(template.geom, s, distance_scale / math.sqrt(1.0 - s * s))
        for s in (interval.lo, interval.hi)
    )
    velocity = ((p1[0] - p0[0]) / template.tau, (p1[1] - p0[1]) / template.tau)
    state = SensedState(position=p0, velocity=velocity)
    return replace(template, state=state, interval=interval)


def build_codebook(
    grid: CodebookGrid, template: ObjectiveSpec, pso: PsoConfig, jobs: int = 1
) -> Codebook:
    """Optimise every grid cell on a canonical scenario derived from the template.

    Cells are independent; each gets a deterministic seed derived from the PSO
    seed and its grid indices, so builds are reproducible for any job count.
    """
    distance = _template_perpendicular_distance(template)
    deltas = list(enumerate(grid.delta_values()))
    cells = [(ti, di, t, d) for ti, t in enumerate(grid.theta_values()) for di, d in deltas]
    specs = [_cell_spec(template, t, d, distance) for _, _, t, d in cells]
    seeds = [derive_seed("cell", pso.seed, ti, di) for ti, di, _, _ in cells]
    results = optimize_omegas(specs, pso, seeds, jobs)
    entries = {
        (ti, di): CodebookEntry(spec.interval, r.omega_star, r.objective_value)
        for (ti, di, _, _), spec, r in zip(cells, specs, results)
    }

    fingerprint = scenario_fingerprint(
        template.cfg, template.budget, template.tau, template.alpha, template.r_min
    )
    return Codebook(
        grid=grid,
        entries=entries,
        fingerprint=fingerprint,
        tau=template.tau,
        alpha=template.alpha,
        r_min=template.r_min,
        n_quad=template.n_quad,
        pso=pso,
    )


def lookup_indices(cb: Codebook, interval: AngularInterval) -> tuple[int, int]:
    """Grid indices serving a query: nearest centre, half-width rounded up.

    The centre index is the nearest centre, a higher one winning only when
    nearer by more than 1e-15 (so ties go to the lower index); the row index is
    the first row at or above delta * (1 - 1e-12) - 1e-15. Both are found by
    bisecting the grid's own centres and rows.
    """
    grid = cb.grid
    if not grid.contains(interval):
        raise CodebookError(
            f"interval (theta={interval.theta_m!r}, delta={interval.delta!r}) "
            f"outside grid range; rebuild with a wider grid"
        )
    thetas, rows, theta = grid.theta_values(), grid.delta_values(), interval.theta_m
    ti = max(bisect_right(thetas, theta) - 1, 0)
    if ti + 1 < len(thetas) and abs(thetas[ti + 1] - theta) < abs(thetas[ti] - theta) - 1e-15:
        ti += 1
    di = bisect_left(rows, interval.delta * (1.0 - 1e-12) - 1e-15)
    if di == len(rows):  # grid rows reach delta_max, up to the 1e-12 slack of contains()
        raise CodebookError(f"no grid row covers half-width {interval.delta!r}")
    return ti, di


def entry_precoder(entry: CodebookEntry, cfg) -> Precoder:
    """Reconstruct the stored beam; parameters are the canonical representation."""
    return adaptive_precoder(entry.interval, entry.omega, cfg)


def _to_payload(cb: Codebook) -> dict:
    lo, hi = cb.grid.theta_range
    rows = [
        [
            ti,
            di,
            entry.interval.theta_m,
            entry.interval.delta,
            entry.omega,
            entry.objective_value,
            derive_seed("cell", cb.pso.seed, ti, di),
            cb.n_quad,
        ]
        for (ti, di), entry in sorted(cb.entries.items())
    ]
    return {
        "format_version": FORMAT_VERSION,
        "fingerprint": cb.fingerprint,
        "grid": {
            "theta_step": cb.grid.theta_step,
            "delta_step": cb.grid.delta_step,
            "theta_lo": lo,
            "theta_hi": hi,
            "delta_max": cb.grid.delta_max,
        },
        "tau": cb.tau,
        "alpha": cb.alpha,
        "r_min": cb.r_min,
        "n_quad": cb.n_quad,
        "base_seed": cb.pso.seed,
        "pso": {
            "bounds": list(cb.pso.bounds),
            "n_particles": cb.pso.n_particles,
            "n_iterations": cb.pso.n_iterations,
            "inertia": cb.pso.inertia,
            "cognitive": cb.pso.cognitive,
            "social": cb.pso.social,
        },
        "entries": rows,
    }


def save(cb: Codebook, sink) -> None:
    """Write the codebook to a path or text file object (deterministic bytes)."""
    text = json.dumps(_to_payload(cb), sort_keys=True, separators=(",", ":"))
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CodebookError(f"codebook payload holds a non-finite number {text!r}")
    return value


def _check_cells(cb: Codebook, rows: list) -> None:
    """Every grid cell once, at its interval and seed, with the n_quad and an in-bounds omega."""
    if cb.n_quad < MIN_QUAD_NODES:
        raise CodebookError(f"codebook n_quad {cb.n_quad!r} is below {MIN_QUAD_NODES}")
    thetas, deltas = cb.grid.theta_values(), cb.grid.delta_values()
    grid = {(ti, di): (t, d) for ti, t in enumerate(thetas) for di, d in enumerate(deltas)}
    lo, hi = cb.pso.bounds
    for ti, di, theta_m, delta, omega, _, seed, n_quad in rows:
        key = (ti, di)
        if grid.get(key) != (theta_m, delta):
            raise CodebookError(f"codebook cell {key} does not match its grid interval")
        if seed != derive_seed("cell", cb.pso.seed, ti, di):
            raise CodebookError(f"codebook cell {key} has seed {seed!r}, not its own")
        if n_quad != cb.n_quad:
            raise CodebookError(f"codebook cell {key} has n_quad {n_quad!r}")
        if not lo <= omega <= hi:
            raise CodebookError(
                f"codebook cell {key} has omega {omega!r} outside the bounds {cb.pso.bounds}"
            )
    if not len(rows) == len(cb.entries) == len(grid):
        raise CodebookError(f"{len(rows)} rows cover {len(cb.entries)} of {len(grid)} cells")


def load(source, expected_fingerprint: str | None = None) -> Codebook:
    """Read a codebook from a path or file object, validating version and payload.

    Non-finite numbers, invalid settings, missing, duplicate or misplaced cells, seeds or n_quad
    that differ from the codebook's and out-of-bounds omegas are rejected. A given
    ``expected_fingerprint`` must match the stored one, tying it to the active scenario.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise CodebookError(f"cannot read codebook: {exc}") from exc
    try:
        payload = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise CodebookError(f"codebook payload is not valid JSON: {exc}") from exc

    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CodebookError("codebook payload missing format_version")
    if payload["format_version"] != FORMAT_VERSION:
        raise CodebookError(
            f"unsupported codebook format {payload['format_version']!r}, "
            f"expected {FORMAT_VERSION}"
        )

    try:
        grid_raw = payload["grid"]
        grid = CodebookGrid(
            theta_step=grid_raw["theta_step"],
            delta_step=grid_raw["delta_step"],
            theta_range=(grid_raw["theta_lo"], grid_raw["theta_hi"]),
            delta_max=grid_raw["delta_max"],
        )
        pso_raw = payload["pso"]
        pso = PsoConfig(
            bounds=tuple(pso_raw["bounds"]),
            n_particles=pso_raw["n_particles"],
            n_iterations=pso_raw["n_iterations"],
            inertia=pso_raw["inertia"],
            cognitive=pso_raw["cognitive"],
            social=pso_raw["social"],
            seed=payload["base_seed"],
        )
        entries = {}
        for row in payload["entries"]:
            ti, di, theta_m, delta, omega, value, _, _ = row
            entries[(ti, di)] = CodebookEntry(
                interval=AngularInterval(theta_m, delta),
                omega=omega,
                objective_value=value,
            )
        cb = Codebook(
            grid=grid,
            entries=entries,
            fingerprint=payload["fingerprint"],
            tau=payload["tau"],
            alpha=payload["alpha"],
            r_min=payload["r_min"],
            n_quad=payload["n_quad"],
            pso=pso,
        )
        _check_cells(cb, payload["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CodebookError(f"codebook payload incomplete or invalid: {exc}") from exc

    if expected_fingerprint is not None:
        check_fingerprint(cb, expected_fingerprint)
    return cb
