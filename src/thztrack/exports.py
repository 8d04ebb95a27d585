"""Delimiter-separated export of traces, sweep tables, and beam patterns.

Column sets are stable:

    trace:   time_s, scheme, sin_dir, distance_m, bf_gain, rate_bps, outage, beam_id
    sweep:   value, scheme, avg_rate_bps, outage_prob, realignment_count
    pattern: sin_dir, gain_db

Every numeric column is checked to be finite before writing; beam-pattern
gains are floored at -120 dB so nulls stay finite. A field holding the
delimiter or a double quote is quoted CSV-style, e.g. the beam id cb[4,14].
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tracking import SweepRow, TrackRecord

TRACE_COLUMNS = ("time_s", "scheme", "sin_dir", "distance_m", "bf_gain", "rate_bps", "outage", "beam_id")
SWEEP_COLUMNS = ("value", "scheme", "avg_rate_bps", "outage_prob", "realignment_count")
PATTERN_COLUMNS = ("sin_dir", "gain_db")

PATTERN_FLOOR_DB = -120.0


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to export non-finite values in column {name!r}")


def _join(values, delimiter: str) -> str:
    return delimiter.join(
        '"' + v.replace('"', '""') + '"' if delimiter in v or '"' in v else v for v in values
    )


def _write_lines(sink, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def write_trace(rec: TrackRecord, sink, delimiter: str = ",") -> None:
    for name, column in (
        ("time_s", rec.times),
        ("sin_dir", rec.sin_dirs),
        ("distance_m", rec.distances),
        ("bf_gain", rec.bf_gains),
        ("rate_bps", rec.rates),
    ):
        _require_finite(name, column)
    lines = [delimiter.join(TRACE_COLUMNS)]
    for i in range(len(rec.times)):
        lines.append(
            _join(
                (
                    repr(float(rec.times[i])),
                    rec.scheme,
                    repr(float(rec.sin_dirs[i])),
                    repr(float(rec.distances[i])),
                    repr(float(rec.bf_gains[i])),
                    repr(float(rec.rates[i])),
                    str(int(rec.outages[i])),
                    rec.beam_ids[i],
                ),
                delimiter,
            )
        )
    _write_lines(sink, lines)


def write_sweep(rows: list[SweepRow], sink, delimiter: str = ",") -> None:
    lines = [delimiter.join(SWEEP_COLUMNS)]
    for row in rows:
        _require_finite("avg_rate_bps", [row.metrics.avg_rate])
        _require_finite("outage_prob", [row.metrics.outage_prob])
        lines.append(
            _join(
                (
                    repr(float(row.value)),
                    row.scheme,
                    repr(float(row.metrics.avg_rate)),
                    repr(float(row.metrics.outage_prob)),
                    str(row.metrics.realignment_count),
                ),
                delimiter,
            )
        )
    _write_lines(sink, lines)


def pattern_gain_db(gains: np.ndarray) -> np.ndarray:
    """Beamforming gain in dB with nulls floored to keep exports finite."""
    floor = 10.0 ** (PATTERN_FLOOR_DB / 10.0)
    return 10.0 * np.log10(np.maximum(np.asarray(gains, dtype=float), floor))


def write_pattern(sin_dirs: np.ndarray, gains_db: np.ndarray, sink, delimiter: str = ",") -> None:
    _require_finite("sin_dir", sin_dirs)
    _require_finite("gain_db", gains_db)
    lines = [delimiter.join(PATTERN_COLUMNS)]
    for s, g in zip(sin_dirs, gains_db):
        lines.append(delimiter.join((repr(float(s)), repr(float(g)))))
    _write_lines(sink, lines)
