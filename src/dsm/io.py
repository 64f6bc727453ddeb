"""CSV loading and writing for the command-line interface.

Files are plain comma-separated text with a header row and '.' decimal
marker.  Floats are written with repr, which round-trips exactly and
makes repeated runs byte-identical.  Every command also writes a flat
key=value metadata sidecar next to its main output.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from math import isfinite
from operator import itemgetter

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


def _read_block(path, names):
    """The named columns of a CSV file as an (n, len(names)) array, read in
    one pass: the header first, then each row's width and cells.  The first
    fault names its line, though a row the csv module rejects is found
    before faults in the rows of its batch.  A UTF-8 byte-order mark (as in
    spreadsheet exports) and blank rows at the end are dropped; a blank row
    elsewhere fails as a short row or an empty cell.  `names` has two or
    more entries, so `take` gives tuples."""
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh)
            header = [h.strip() for h in next(rows, ())]
            width = len(header)
            missing = [n for n in names if n not in header]
            repeated = [n for n in names if header.count(n) > 1]
            # Header faults count in a file with data rows only.
            if (missing or repeated) and any(any(map(str.strip, r)) for r in rows):
                if missing:
                    raise SchemaMismatch(f"{path}: missing required columns {missing}")
                raise SchemaMismatch(f"{path}: required columns appear more than once {repeated}")
            take = None if missing else itemgetter(*(header.index(n) for n in names))
            # Whole batches of rows go in at once while each row has the header's
            # width and finite numbers; from the first other batch on, row by row.
            while batch := list(islice(rows, 1024)):
                try:
                    cells = array("d", map(float, chain.from_iterable(map(take, batch))))
                except (ValueError, IndexError):
                    break
                if set(map(len, batch)) != {width} or not isfinite(sum(cells)):
                    break
                values.extend(cells)
            rest = chain(batch, rows)
            for row in rest:
                # A blank row is trailing unless a filled row follows it.
                if not (any(map(str.strip, row)) or any(any(map(str.strip, r)) for r in rest)):
                    break
                line = len(values) // len(names) + 2
                if len(row) != width:
                    raise ParseError(f"{path}:{line}: expected {width} fields, got {len(row)}")
                for name, text in zip(names, take(row)):
                    text = text.strip()  # Unlike float(), this drops U+001C-U+001F too.
                    try:
                        value = float(text)
                    except ValueError:
                        fault = f"is not a number: {text!r}" if text else "is empty"
                        raise ParseError(f"{path}:{line}: column {name!r} {fault}") from None
                    if not isfinite(value):
                        raise ParseError(f"{path}:{line}: column {name!r} is not finite")
                    values.append(value)
    except csv.Error as err:
        raise ParseError(f"{path}:{rows.line_num}: {err}") from None
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    if not values:
        raise SchemaMismatch(f"{path}: file has no data rows")
    return np.frombuffer(values).reshape(-1, len(names))


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

    block_a = _read_block(path_a, cov + [config.outcome])
    block_b = _read_block(path_b, cov + [config.weight])

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


@contextmanager
def _naming(path):
    """Name path in an OSError raised without a filename (ENOSPC on close)."""
    try:
        yield
    except OSError as err:
        err.filename = path if err.filename is None else err.filename
        raise


def write_csv(path, header, rows):
    """Write a rectangular table; floats via repr (exact round-trip)."""
    with _naming(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_meta(path, mapping):
    """Flat key=value sidecar, one entry per line, insertion order."""
    with _naming(path), open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={_fmt(value)}\n")
