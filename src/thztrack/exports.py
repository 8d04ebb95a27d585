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

import numpy as np

from .textio import write_text
from .tracking import SweepRow, TrackRecord

TRACE_COLUMNS = ("time_s", "scheme", "sin_dir", "distance_m", "bf_gain", "rate_bps", "outage", "beam_id")
SWEEP_COLUMNS = ("value", "scheme", "avg_rate_bps", "outage_prob", "realignment_count")
PATTERN_COLUMNS = ("sin_dir", "gain_db")

PATTERN_FLOOR_DB = -120.0


def _quoted(column: list[str], delimiter: str) -> list[str]:
    """The column with every field that holds the delimiter or a double quote quoted CSV-style."""
    text = "\n".join(column)
    if delimiter not in text and '"' not in text:
        return column
    return ['"' + v.replace('"', '""') + '"' if delimiter in v or '"' in v else v for v in column]


def _reprs(name: str, values) -> list[str]:
    """Shortest round-trip text of each value of column ``name`` as a float, all finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to export non-finite values in column {name!r}")
    return [repr(v) for v in values.tolist()]


def _write_rows(sink, header: tuple[str, ...], columns: list[list[str]], delimiter: str) -> None:
    """Write the header and the rows formed by ``columns``, quoting fields column by column."""
    quoted = [_quoted(column, delimiter) for column in columns]
    lines = [delimiter.join(_quoted(list(header), delimiter))]
    lines.extend(delimiter.join(row) for row in zip(*quoted))
    write_text(sink, "\n".join(lines) + "\n")


def write_trace(rec: TrackRecord, sink, delimiter: str = ",") -> None:
    columns = [
        _reprs("time_s", rec.times),
        [rec.scheme] * len(rec.times),
        _reprs("sin_dir", rec.sin_dirs),
        _reprs("distance_m", rec.distances),
        _reprs("bf_gain", rec.bf_gains),
        _reprs("rate_bps", rec.rates),
        [str(v) for v in np.asarray(rec.outages, dtype=int).tolist()],
        rec.beam_ids,
    ]
    _write_rows(sink, TRACE_COLUMNS, columns, delimiter)


def write_sweep(rows: list[SweepRow], sink, delimiter: str = ",") -> None:
    columns = [
        _reprs("value", [row.value for row in rows]),
        [row.scheme for row in rows],
        _reprs("avg_rate_bps", [row.metrics.avg_rate for row in rows]),
        _reprs("outage_prob", [row.metrics.outage_prob for row in rows]),
        [str(row.metrics.realignment_count) for row in rows],
    ]
    _write_rows(sink, SWEEP_COLUMNS, columns, delimiter)


def pattern_gain_db(gains: np.ndarray) -> np.ndarray:
    """Beamforming gain in dB with nulls floored to keep exports finite."""
    floor = 10.0 ** (PATTERN_FLOOR_DB / 10.0)
    return 10.0 * np.log10(np.maximum(np.asarray(gains, dtype=float), floor))


def write_pattern(sin_dirs: np.ndarray, gains_db: np.ndarray, sink, delimiter: str = ",") -> None:
    columns = [_reprs("sin_dir", sin_dirs), _reprs("gain_db", gains_db)]
    _write_rows(sink, PATTERN_COLUMNS, columns, delimiter)
