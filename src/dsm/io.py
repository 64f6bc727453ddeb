"""CSV loading and writing for the command-line interface.

Files are plain comma-separated text with a header row and '.' decimal
marker.  Floats are written with repr, which round-trips exactly and
makes repeated runs byte-identical.  Every command also writes a flat
key=value metadata sidecar next to its main output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveWeight, ParseError, SchemaMismatch
from .scores import SampleA, SampleB

__all__ = ["RunConfig", "load_samples", "write_csv", "write_meta"]


@dataclass(frozen=True)
class RunConfig:
    """The column roles `load_samples` reads: the outcome column of sample
    A, the weight column of sample B, and the covariates both share.  The
    CLI's --outcome and --weight take their defaults from here."""

    outcome: str = "y"
    weight: str = "d"
    covariates: tuple = ()


def _read_rows(path):
    """Header and data rows of a CSV file.

    A UTF-8 byte-order mark (as in spreadsheet exports) is dropped, and so
    are blank rows at the end of the file; a blank row elsewhere is a ragged
    row and, like an over-long field, fails with its line number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except csv.Error as err:
        raise ParseError(f"{path}:{reader.line_num}: {err}") from None
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    while rows and not any(field.strip() for field in rows[-1]):
        rows.pop()
    if len(rows) < 2:
        raise SchemaMismatch(f"{path}: file has no data rows")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"{path}:{ln}: expected {width} fields, got {len(row)}")
    return header, rows[1:]


def _columns(path, header, rows, names):
    missing = [n for n in names if n not in header]
    if missing:
        raise SchemaMismatch(f"{path}: missing required columns {missing}")
    repeated = [n for n in dict.fromkeys(names) if header.count(n) > 1]
    if repeated:
        raise SchemaMismatch(f"{path}: required columns appear more than once {repeated}")
    idx = [header.index(n) for n in names]
    out = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        for c, j in enumerate(idx):
            text = row[j].strip()
            if not text:
                raise ParseError(f"{path}:{r + 2}: column {names[c]!r} is empty")
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}:{r + 2}: column {names[c]!r} is not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}:{r + 2}: column {names[c]!r} is not finite")
            out[r, c] = value
    return out


def load_samples(path_a, path_b, config: RunConfig):
    """Read both sample files and map columns to their roles.

    Sample A needs the covariates plus the outcome column; sample B the
    covariates plus the weight column.  Covariate order follows the
    config, not the files, so the two matrices always line up.  Each
    column takes one role only.
    """
    cov = list(config.covariates)
    if not cov:
        raise SchemaMismatch("no covariate columns configured")
    repeated = [c for c in dict.fromkeys(cov) if cov.count(c) > 1]
    if repeated:
        raise SchemaMismatch(f"covariate columns named more than once {repeated}")
    for role, name in (("outcome", config.outcome), ("weight", config.weight)):
        if name in cov:
            raise SchemaMismatch(f"{role} column {name!r} is also a covariate")

    header_a, rows_a = _read_rows(path_a)
    header_b, rows_b = _read_rows(path_b)
    block_a = _columns(path_a, header_a, rows_a, cov + [config.outcome])
    block_b = _columns(path_b, header_b, rows_b, cov + [config.weight])

    d = block_b[:, -1]
    if np.any(d <= 0):
        bad = int(np.argmax(d <= 0))
        raise NonpositiveWeight(
            f"{path_b}:{bad + 2}: weight column {config.weight!r} is {float(d[bad])!r}"
        )
    return SampleA(block_a[:, :-1], block_a[:, -1]), SampleB(block_b[:, :-1], d)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    """Write a rectangular table; floats via repr (exact round-trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_meta(path, mapping):
    """Flat key=value sidecar, one entry per line, insertion order."""
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={_fmt(value)}\n")
