"""CSV ingestion and writing for traces, power sweeps and field sweeps.

Trace files are UTF-8 CSV (a leading UTF-8 BOM is accepted) with a header
row and '.' decimal points.
Accepted column sets (order free, extra columns rejected as ambiguity only
when they clash):

* ``freq_hz, re, im`` - complex transmission as real/imaginary parts,
* ``freq_hz, mag_db, phase_rad`` - magnitude in dB (20 log10) and phase,

each optionally extended by ``power_dbm``, which promotes the file to a
power sweep (rows grouped by power). Both forms are read; traces and sweeps
are written as ``freq_hz, re, im``. Field sweeps use
``field_t, fr_hz, sigma_hz``.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import FieldSweepPoint, FrequencyTrace, PowerSweep
from .errors import DataError, SchemaError

__all__ = [
    "parse_trace_csv",
    "write_trace_csv",
    "parse_field_csv",
    "write_field_csv",
]

_CARTESIAN = ("re", "im")
_POLAR = ("mag_db", "phase_rad")


def _read_rows(path: str | Path) -> tuple[list[str], np.ndarray | list[list[str]]]:
    """The stripped lower-case header and the non-blank data rows.

    The file is read once, as lines. The rows come as one float array from
    numpy's C reader on those lines. Where it refuses them, they come as
    ``csv`` cells of the same lines instead, for :func:`_column` to parse or
    report row by row: the reader knows neither quoting, blank cells nor
    whitespace-only lines, and it names no column in its errors.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: file is empty, expected a header row") from None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(lines[reader.line_num :], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        rows = None
    # rows of equal length other than the header's are the row loop's error
    if rows is None or (rows.size and rows.shape[1] != len(header)):
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    header = [h.strip().lower() for h in header]
    if not len(rows):
        raise DataError(f"{path}: no data rows")
    return header, rows


def _column(
    header: list[str], rows: np.ndarray | list[list[str]], name: str, path
) -> np.ndarray:
    idx = header.index(name)
    if isinstance(rows, np.ndarray):
        return rows[:, idx].copy()
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {len(header)}"
            )
        try:
            out[i] = float(row[idx])
        except ValueError:
            raise DataError(
                f"{path}: row {i + 2}, column {name!r}: cannot parse {row[idx]!r} as a number"
            ) from None
    return out


def parse_trace_csv(path: str | Path) -> FrequencyTrace | PowerSweep:
    """Read a trace file; a ``power_dbm`` column promotes it to a PowerSweep."""
    header, rows = _read_rows(path)
    if "freq_hz" not in header:
        raise SchemaError(f"{path}: missing required column 'freq_hz' (found {header})")
    has_cartesian = all(c in header for c in _CARTESIAN)
    has_polar = all(c in header for c in _POLAR)
    if has_cartesian and has_polar:
        raise SchemaError(
            f"{path}: ambiguous value columns; provide either {_CARTESIAN} or {_POLAR}, not both"
        )
    if not has_cartesian and not has_polar:
        missing = _CARTESIAN if any(c in header for c in _CARTESIAN) else _POLAR
        present = [c for c in (*_CARTESIAN, *_POLAR) if c in header]
        raise SchemaError(
            f"{path}: incomplete value columns {present}; need all of {list(missing)} "
            f"(or the other form)"
        )

    def finite(name):
        return _check_finite(_column(header, rows, name, path), name, path)

    freq = _column(header, rows, "freq_hz", path)
    if has_cartesian:
        values = finite("re") + 1j * finite("im")
    else:
        with np.errstate(over="ignore"):
            mag = 10.0 ** (finite("mag_db") / 20.0)
        _check_finite(mag, "mag_db", path, "magnitude must be finite")
        values = mag * np.exp(1j * finite("phase_rad"))

    if "power_dbm" not in header:
        _check_monotone(freq, np.arange(len(rows)), path)
        return FrequencyTrace(frequencies=freq, values=values, drive_power=None)

    power = finite("power_dbm")  # a NaN power would group no rows
    traces = []
    for p in sorted(set(power.tolist())):
        sel = np.flatnonzero(power == p)
        _check_monotone(freq[sel], sel, path)
        traces.append(
            FrequencyTrace(frequencies=freq[sel], values=values[sel], drive_power=float(p))
        )
    if len(traces) == 1:
        return traces[0]
    try:
        return PowerSweep(traces=tuple(traces))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_finite(column: np.ndarray, name: str, path, what: str = "must be finite") -> np.ndarray:
    """``column``, refused at its first non-finite cell by row and ``name``."""
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        row = int(bad[0]) + 2  # +2: header line and 1-based lines
        raise DataError(f"{path}: row {row}, column {name!r}: {what}, got {column[bad[0]]}")
    return column


def _check_monotone(freq: np.ndarray, row_indices: np.ndarray, path) -> None:
    bad = np.flatnonzero(np.diff(freq) <= 0.0)
    if bad.size:
        row = int(row_indices[bad[0] + 1]) + 2  # +2: header line and 1-based lines
        raise DataError(f"{path}: row {row}: frequency not strictly increasing")
    if np.any(freq <= 0.0) or not np.all(np.isfinite(freq)):
        row = int(row_indices[int(np.argmax(~((freq > 0) & np.isfinite(freq))))]) + 2
        raise DataError(f"{path}: row {row}: frequency must be positive and finite")


def write_trace_csv(path: str | Path, data: FrequencyTrace | PowerSweep) -> None:
    """Write a trace or sweep as ``freq_hz, re, im`` (and ``power_dbm``) rows."""
    traces = data.traces if isinstance(data, PowerSweep) else (data,)
    include_power = isinstance(data, PowerSweep) or traces[0].drive_power is not None
    header = ["freq_hz", *_CARTESIAN] + (["power_dbm"] if include_power else [])
    blocks = [",".join(header)]
    # the traces of a PowerSweep share one grid, so it is formatted once
    freqs = [repr(f) for f in traces[0].frequencies.tolist()]
    for trace in traces:
        real, imag = trace.values.real.tolist(), trace.values.imag.tolist()
        power = f",{float(trace.drive_power)!r}" if include_power else ""
        # one string per trace, so only one trace's row strings are held at a time
        blocks.append(
            "\r\n".join([f"{f},{a!r},{b!r}{power}" for f, a, b in zip(freqs, real, imag)])
        )
    _write_lines(path, blocks)


def _write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` with the CRLF terminators of a ``csv`` writer; a line may
    be a block of rows already joined by CRLF. Opened only once every line is
    formatted, so a formatting error leaves no file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + "\r\n" for line in lines)


def parse_field_csv(path: str | Path) -> list[FieldSweepPoint]:
    """Read a field sweep file with columns ``field_t, fr_hz, sigma_hz``."""
    header, rows = _read_rows(path)
    missing = [c for c in ("field_t", "fr_hz", "sigma_hz") if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing} (found {header})")
    field = _column(header, rows, "field_t", path)
    fr = _column(header, rows, "fr_hz", path)
    sigma = _column(header, rows, "sigma_hz", path)
    points = []
    for i, (b, f, s) in enumerate(zip(field, fr, sigma)):
        try:
            points.append(FieldSweepPoint(field=float(b), resonance=float(f), sigma=float(s)))
        except ValueError as exc:
            raise DataError(f"{path}: row {i + 2}: {exc}") from None
    return points


def write_field_csv(path: str | Path, points: Sequence[FieldSweepPoint]) -> None:
    lines = ["field_t,fr_hz,sigma_hz"]
    lines += [f"{p.field!r},{p.resonance!r},{p.sigma!r}" for p in points]
    _write_lines(path, lines)
