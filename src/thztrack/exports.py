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

# Rows per written chunk: a table's text is built a block at a time, so a long episode's trace
# text never sets its peak memory. A trace of the default path at 10 m/s (1875 rows), a
# pattern (2001 rows) and a sweep are one block each.
BLOCK_ROWS = 4096


def _quoted(column: list[str], delimiter: str) -> list[str]:
    """The column with every field that holds the delimiter or a double quote quoted CSV-style."""
    text = "\n".join(column)
    if delimiter not in text and '"' not in text:
        return column
    return ['"' + v.replace('"', '""') + '"' if delimiter in v or '"' in v else v for v in column]


def _finite(name: str, values) -> np.ndarray:
    """Column ``name`` as floats, all finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to export non-finite values in column {name!r}")
    return values


def _fields(column) -> list[str]:
    """A column's text: the shortest round-trip text of each number of an array, or the strings."""
    return [repr(v) for v in column.tolist()] if isinstance(column, np.ndarray) else column


def _write_rows(sink, header: tuple[str, ...], columns: list, delimiter: str) -> None:
    """Write the header and the rows formed by ``columns``, quoting fields column by column,
    a chunk of :data:`BLOCK_ROWS` rows at a time."""

    def chunks():
        yield delimiter.join(_quoted(list(header), delimiter)) + "\n"
        for i in range(0, len(columns[0]), BLOCK_ROWS):
            block = [_quoted(_fields(column[i : i + BLOCK_ROWS]), delimiter) for column in columns]
            yield "\n".join(delimiter.join(row) for row in zip(*block)) + "\n"

    write_text(sink, chunks())


def write_trace(rec: TrackRecord, sink, delimiter: str = ",") -> None:
    columns = [
        _finite("time_s", rec.times),
        [rec.scheme] * len(rec.times),
        _finite("sin_dir", rec.sin_dirs),
        _finite("distance_m", rec.distances),
        _finite("bf_gain", rec.bf_gains),
        _finite("rate_bps", rec.rates),
        np.asarray(rec.outages, dtype=int),
        rec.beam_ids,
    ]
    _write_rows(sink, TRACE_COLUMNS, columns, delimiter)


def write_sweep(rows: list[SweepRow], sink, delimiter: str = ",") -> None:
    columns = [
        _finite("value", [row.value for row in rows]),
        [row.scheme for row in rows],
        _finite("avg_rate_bps", [row.metrics.avg_rate for row in rows]),
        _finite("outage_prob", [row.metrics.outage_prob for row in rows]),
        [str(row.metrics.realignment_count) for row in rows],
    ]
    _write_rows(sink, SWEEP_COLUMNS, columns, delimiter)


def pattern_gain_db(gains: np.ndarray) -> np.ndarray:
    """Beamforming gain in dB with nulls floored to keep exports finite."""
    floor = 10.0 ** (PATTERN_FLOOR_DB / 10.0)
    return 10.0 * np.log10(np.maximum(np.asarray(gains, dtype=float), floor))


def write_pattern(sin_dirs: np.ndarray, gains_db: np.ndarray, sink, delimiter: str = ",") -> None:
    columns = [_finite("sin_dir", sin_dirs), _finite("gain_db", gains_db)]
    _write_rows(sink, PATTERN_COLUMNS, columns, delimiter)
