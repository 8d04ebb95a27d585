"""Grid-indexed codebook of optimised precoders and its persistence format.

Each grid cell pairs a quantised sine-space interval (centre theta, half-width
delta) with the omega that maximises the period objective for a canonical
path matching that interval. Entries store parameters only; weights are
reconstructed from (interval, omega), which is the single source of truth.

Serialised format (JSON, UTF-8, sorted keys, compact separators so identical
builds are byte-identical). Cells are not listed: their intervals follow from
the grid and their seeds from the PSO seed, so only omega and the objective
are stored, one value per cell in row-major order (centre index, then row).
The fingerprint states by name every build value a cell's objective depends
on, each once; :func:`check_scenario` compares them with those of a run's spec:

    {
      "fingerprint": {"absorption_coeff": f, "alpha": f, "bandwidth": f,
                      "carrier_freq": f, "n_antennas": int, "noise_psd": f,
                      "perpendicular_distance": f, "r_min": f, "tau": f,
                      "tx_power": f},
      "format_version": 3,
      "grid": {"delta_max": f, "delta_step": f, "theta_lo": f,
               "theta_hi": f, "theta_step": f},
      "n_quad": int,
      "objective": [float, ...],
      "omega": [float, ...],
      "pso": {"bounds": [lo, hi], "cognitive": f, "inertia": f,
              "n_iterations": int, "n_particles": int, "seed": int, "social": f}
    }
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .geometry import AngularInterval, SensedState
from .optimizer import MAX_QUAD_NODES, MIN_QUAD_NODES, ObjectiveSpec, PsoConfig, optimize_omegas
from .precoder import Precoder, adaptive_precoder
from .seeding import derive_seed
from .textio import write_text

FORMAT_VERSION = 3

# the build values a cell's objective depends on, as the fingerprint names them
FINGERPRINT = (
    "n_antennas", "carrier_freq", "tx_power", "noise_psd", "bandwidth", "absorption_coeff",
    "perpendicular_distance", "tau", "alpha", "r_min",
)


# Most cells a grid may hold; the default grid holds 1634, and a build lists every cell.
MAX_CELLS = 1_000_000


class CodebookError(Exception):
    """A codebook that cannot be read, does not fit the scenario or does not cover a query."""


def _step_count(span: float, step: float) -> int:
    """Values 0, step, 2 * step, ... needed to reach ``span``: ceil(span / step - 1e-9) + 1."""
    steps = span / step
    if not math.isfinite(steps):
        raise ValueError(f"grid step {step!r} is too small for a span of {span!r}")
    return int(math.ceil(steps - 1e-9)) + 1


@dataclass(frozen=True)
class CodebookGrid:
    """Quantisation of the (theta, delta) plane.

    Centres run from theta_range[0] to at least theta_range[1] in steps of
    theta_step; half-width rows run from 0 to at least delta_max in steps of
    delta_step. Every cell's interval lies strictly inside sine space (-1, 1), and there are
    at most :data:`MAX_CELLS` cells.
    """

    theta_step: float
    delta_step: float
    theta_range: tuple[float, float]
    delta_max: float

    def __post_init__(self):
        for name in ("theta_step", "delta_step", "delta_max"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.theta_step <= 0.0 or self.delta_step <= 0.0:
            raise ValueError("grid steps must be positive")
        lo, hi = self.theta_range
        if not (-1.0 < lo <= hi < 1.0):
            raise ValueError(f"theta range {self.theta_range!r} outside (-1, 1)")
        if self.delta_max < 0.0:
            raise ValueError(f"delta_max must be >= 0, got {self.delta_max!r}")
        n_cells = self.theta_count * self.delta_count  # before any list of cells is built
        if n_cells > MAX_CELLS:
            raise ValueError(f"grid of {n_cells} cells is over {MAX_CELLS}")
        # float addition is monotone, so the outermost cells bound every cell's edges;
        # each end value is the same float as the last entry of its value list
        reach = (self.delta_count - 1) * self.delta_step
        for theta in (lo, lo + (self.theta_count - 1) * self.theta_step):
            if not abs(theta) + reach < 1.0:
                raise ValueError(f"cell theta={theta!r} delta={reach!r} reaches sine-space edge")

    @property
    def theta_count(self) -> int:
        lo, hi = self.theta_range
        return _step_count(hi - lo, self.theta_step)

    @property
    def delta_count(self) -> int:
        return _step_count(self.delta_max, self.delta_step)

    def theta_values(self) -> list[float]:
        lo = self.theta_range[0]
        return [lo + i * self.theta_step for i in range(self.theta_count)]

    def delta_values(self) -> list[float]:
        return [i * self.delta_step for i in range(self.delta_count)]

    def cells(self) -> list[tuple[tuple[int, int], AngularInterval]]:
        """Every cell's indices and interval in row-major order: centre index, then row."""
        thetas, rows = enumerate(self.theta_values()), list(enumerate(self.delta_values()))
        return [((ti, di), AngularInterval(t, d)) for ti, t in thetas for di, d in rows]

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
    """Optimised cells of a grid, with the build values of :data:`FINGERPRINT` by name."""

    grid: CodebookGrid
    entries: dict[tuple[int, int], CodebookEntry]
    fingerprint: dict[str, float]
    n_quad: int
    pso: PsoConfig

    tau = property(lambda self: self.fingerprint["tau"])
    alpha = property(lambda self: self.fingerprint["alpha"])
    r_min = property(lambda self: self.fingerprint["r_min"])


def _spec_fingerprint(spec: ObjectiveSpec) -> dict[str, float]:
    """The :data:`FINGERPRINT` values of a period spec, by name; D is its BS-frame x."""
    cfg, budget = spec.cfg, spec.budget
    values = (
        int(cfg.n_antennas), cfg.carrier_freq,
        budget.tx_power, budget.noise_psd, budget.bandwidth, budget.absorption_coeff,
        spec.state.position[0], spec.tau, spec.alpha, spec.r_min,
    )
    return dict(zip(FINGERPRINT, values))


def check_fingerprint(cb: Codebook, expected: dict[str, float]) -> None:
    """Raise CodebookError naming the first build value of ``cb`` not equal to ``expected``'s."""
    for name in FINGERPRINT:
        stored, value = cb.fingerprint[name], expected[name]
        if stored != value:
            raise CodebookError(
                f"codebook {name} {stored!r} is not the scenario's {value!r}; rebuild the codebook"
            )


def check_scenario(cb: Codebook, spec: ObjectiveSpec) -> None:
    """Raise CodebookError unless ``cb`` was built with the values of the period spec ``spec``."""
    check_fingerprint(cb, _spec_fingerprint(spec))


def _cell_spec(template: ObjectiveSpec, interval: AngularInterval) -> ObjectiveSpec:
    """Canonical period spec whose path sweeps exactly [theta-delta, theta+delta].

    In the BS frame the target rides the template's line x = D, parallel to the array,
    from the point at sine theta-delta to the one at theta+delta in one period.
    """
    distance = template.state.position[0]
    ends = [(s, distance / math.sqrt(1.0 - s * s)) for s in (interval.lo, interval.hi)]
    (x0, y0), (x1, y1) = ((d * math.sqrt(max(0.0, 1.0 - s * s)), d * s) for s, d in ends)
    velocity = ((x1 - x0) / template.tau, (y1 - y0) / template.tau)
    state = SensedState(position=(x0, y0), velocity=velocity)
    return replace(template, state=state, interval=interval)


def build_codebook(
    grid: CodebookGrid, template: ObjectiveSpec, pso: PsoConfig, jobs: int = 1
) -> Codebook:
    """Optimise every grid cell on a canonical scenario derived from the template.

    Cells are independent; each gets a deterministic seed derived from the PSO
    seed and its grid indices, so builds are reproducible for any job count.
    """
    cells = grid.cells()
    specs = [_cell_spec(template, interval) for _, interval in cells]
    seeds = [derive_seed("cell", pso.seed, ti, di) for (ti, di), _ in cells]
    results = optimize_omegas(specs, pso, seeds, jobs)
    entries = {
        key: CodebookEntry(interval, r.omega_star, r.objective_value)
        for (key, interval), r in zip(cells, results)
    }
    return Codebook(grid, entries, _spec_fingerprint(template), template.n_quad, pso)


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
    entries = [cb.entries[key] for key in sorted(cb.entries)]  # row-major
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
        "n_quad": cb.n_quad,
        "pso": asdict(cb.pso),
        "omega": [entry.omega for entry in entries],
        "objective": [entry.objective_value for entry in entries],
    }


def save(cb: Codebook, sink) -> None:
    """Write the codebook to a path or text file object (deterministic bytes)."""
    write_text(sink, [json.dumps(_to_payload(cb), sort_keys=True, separators=(",", ":"))])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CodebookError(f"codebook payload holds a non-finite number {text!r}")
    return value


def _typed(value, name: str, kinds: tuple = (int,)):
    # bool is an int subclass, and a float such as 64.0 passes every range check
    if type(value) not in kinds:
        noun = "object" if dict in kinds else "number" if float in kinds else "integer"
        raise CodebookError(f"codebook {name} {value!r} is not a JSON {noun}")
    return value


def load(path, expected_fingerprint: dict[str, float] | None = None) -> Codebook:
    """Read a codebook from a path, validating version and payload.

    Non-finite numbers, mistyped or invalid settings, an n_quad outside MIN_QUAD_NODES to
    MAX_QUAD_NODES, a negative alpha, omega and objective lists without one number per grid
    cell and out-of-bounds omegas are rejected. A given ``expected_fingerprint`` must equal
    the stored one, value by value; :func:`check_scenario` ties the codebook to a run's spec.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
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
            f"expected {FORMAT_VERSION}; rebuild the codebook"
        )

    try:
        grid_raw, pso_raw = payload["grid"], payload["pso"]
        theta_step, delta_step, theta_lo, theta_hi, delta_max = (
            _typed(grid_raw[key], key, (int, float))
            for key in ("theta_step", "delta_step", "theta_lo", "theta_hi", "delta_max")
        )
        grid = CodebookGrid(theta_step, delta_step, (theta_lo, theta_hi), delta_max)
        pso = PsoConfig(
            bounds=tuple(_typed(v, "bound", (int, float)) for v in pso_raw["bounds"]),
            n_particles=_typed(pso_raw["n_particles"], "n_particles"),
            n_iterations=_typed(pso_raw["n_iterations"], "n_iterations"),
            inertia=_typed(pso_raw["inertia"], "inertia", (int, float)),
            cognitive=_typed(pso_raw["cognitive"], "cognitive", (int, float)),
            social=_typed(pso_raw["social"], "social", (int, float)),
            seed=_typed(pso_raw["seed"], "seed"),
        )
        n_quad = _typed(payload["n_quad"], "n_quad")
        omegas, objectives = (
            [_typed(v, key, (int, float)) for v in payload[key]] for key in ("omega", "objective")
        )
        stored = _typed(payload["fingerprint"], "fingerprint", (dict,))
        fingerprint = {
            key: _typed(stored[key], key, (int,) if key == "n_antennas" else (int, float))
            for key in FINGERPRINT
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CodebookError(f"codebook payload incomplete or invalid: {exc}") from exc

    if n_quad < MIN_QUAD_NODES:
        raise CodebookError(f"codebook n_quad {n_quad!r} is below {MIN_QUAD_NODES}")
    if n_quad > MAX_QUAD_NODES:  # building the nodes is cubic in the count
        raise CodebookError(f"codebook n_quad {n_quad!r} is above {MAX_QUAD_NODES}")
    if fingerprint["alpha"] < 0.0:  # runs build their period specs with the stored alpha
        raise CodebookError(f"codebook alpha {fingerprint['alpha']!r} is negative")
    n_cells = grid.theta_count * grid.delta_count  # checked before any cell is built
    if not len(omegas) == len(objectives) == n_cells:
        raise CodebookError(
            f"{len(omegas)} omegas and {len(objectives)} objectives for {n_cells} cells"
        )
    cells = grid.cells()
    lo, hi = pso.bounds
    entries = {}
    for (key, interval), omega, value in zip(cells, omegas, objectives):
        if not lo <= omega <= hi:
            raise CodebookError(
                f"codebook cell {key} has omega {omega!r} outside the bounds {pso.bounds}"
            )
        entries[key] = CodebookEntry(interval, omega, value)
    cb = Codebook(grid=grid, entries=entries, fingerprint=fingerprint, n_quad=n_quad, pso=pso)

    if expected_fingerprint is not None:
        check_fingerprint(cb, expected_fingerprint)
    return cb
