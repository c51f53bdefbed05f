"""Delimited-text readers and writers for matrices, outcomes, and configs.

Matrix files carry feature ids in the first row and sample ids in the first
column; the corner cell is ignored on read. Tab and comma delimiters are
auto-detected from the first two lines. Parsers reject NaN, infinities and
ragged rows, a tab in a cell of a comma-delimited file, and the matrix
parser negative cells too, with 1-based row/column positions in the error
message. Outcome values may be negative. Writers replace their file
atomically or fail with a `ValidationError`; a float cell is written
as its repr, which reads back to the same bits, and any other as str.
"""

import json
import math
import os
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .composition import CompositionMatrix, Outcome, _column_blocks
from .errors import ParseError, ValidationError
from .parallel import ordered_map


def _detect_delimiter(lines: list[str]) -> str:
    """Tab when the first line holds one, unless it also holds a comma and
    the second line holds no tab: that file is comma-delimited, and its
    first row has a tab in a cell, which `_split_rows` rejects."""
    first = lines[0]
    if "," in first and len(lines) > 1 and "\t" not in lines[1]:
        return ","
    return "\t" if "\t" in first else ","


def _read_text(path) -> str:
    """The text of a UTF-8 file. A missing file is a `ValidationError`, and
    so is any other `OSError` (a directory, say), named with its reason;
    bytes that do not decode are a `ParseError` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"input file does not exist: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text (byte {exc.start + 1})", path=path
        ) from None


def _read_lines(path) -> list[str]:
    lines = _read_text(path).splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("file is empty", path=path)
    return lines


def _parse_cell(text: str, path, row: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"cell {text!r} is not a number", path=path, row=row, column=column
        ) from None
    if math.isnan(value):
        raise ParseError("cell is NaN", path=path, row=row, column=column)
    if math.isinf(value):
        raise ParseError("cell is infinite", path=path, row=row, column=column)
    return value


def _split_rows(path, lines, first_row: int, n_cols: int | None, delim: str):
    """(row number, cells) of each line, rows numbered from `first_row`. A
    ragged row (not `n_cols` cells, unless that is None) is a `ParseError`,
    and so is a tab in a cell of a comma-delimited file, which a written
    table would split in two."""
    for i, line in enumerate(lines, start=first_row):
        cells = line.split(delim)
        if n_cols is not None and len(cells) != n_cols:
            message = f"ragged row: expected {n_cols} cells, got {len(cells)}"
            raise ParseError(message, path=path, row=i)
        if delim == "," and "\t" in line:
            j = next(j for j, cell in enumerate(cells, start=1) if "\t" in cell)
            message = "tab in a cell of a comma-delimited file"
            raise ParseError(message, path=path, row=i, column=j)
        yield i, cells


def read_matrix(path) -> CompositionMatrix:
    """Read an abundance matrix from delimited text. Rows are converted one
    at a time and the whole matrix is tested once; only a failure rescans
    the rows, in reading order, to name the first ragged row or bad cell."""
    lines = _read_lines(path)
    delim = _detect_delimiter(lines)
    ((_, header),) = _split_rows(path, lines[:1], 1, None, delim)
    n_cols = len(header)
    if n_cols < 3:
        message = "matrix needs a sample-id column and at least two features"
        raise ParseError(message, path=path, row=1)
    feature_ids = [h.strip() for h in header[1:]]
    if len(lines) < 2:
        raise ParseError("matrix has no sample rows", path=path)
    sample_ids = []
    # One row of Python floats at a time, not the whole table.
    values = np.empty((len(lines) - 1, n_cols - 1))
    try:
        for i, fields in _split_rows(path, lines[1:], 2, n_cols, delim):
            sample_ids.append(fields[0].strip())
            values[i - 2] = list(map(float, fields[1:]))
        # A NaN makes min and max NaN, which fails both tests.
        valid = values.min() >= 0.0 and values.max() < np.inf
    except (ParseError, ValueError):
        valid = False
    if not valid:
        for i, fields in _split_rows(path, lines[1:], 2, n_cols, delim):
            for j, cell in enumerate(fields[1:], start=2):
                if _parse_cell(cell, path, i, j) < 0.0:
                    raise ParseError(
                        f"cell {cell!r} is negative", path=path, row=i, column=j
                    )
    return CompositionMatrix(values, sample_ids, feature_ids)


def write_table(path, row_ids, col_ids, values):
    """Write a tab-separated table with "sample_id" in its corner; floats
    are written with full repr precision.

    `values` is a 2-d array or a function from a row index to its row, so
    a caller can build each row only when it is written. Rows are
    formatted in blocks of at most `_BLOCK_ELEMENTS` values (at least one
    row each) through `ordered_map`: a table of more than one block is
    formatted on every CPU in the process's affinity mask, into the bytes
    a one-CPU run writes (`taskset -c 0` keeps it to one core).
    """
    header = ["sample_id", *col_ids]
    row_ids = list(row_ids)
    row = values if callable(values) else values.__getitem__

    def format_rows(block: slice) -> str:
        return "".join(
            _line([row_ids[i]], np.asarray(row(i), dtype=float).tolist())
            for i in range(len(row_ids))[block]
        )

    # Row slices of at most `_BLOCK_ELEMENTS` values each: the column
    # blocks of the transposed table.
    blocks = _column_blocks(max(1, len(header) - 1), len(row_ids))
    with _atomic_writer(path) as f:
        f.write(_line(header))
        for text in ordered_map(format_rows, blocks):
            f.write(text)


def write_matrix(path, matrix: CompositionMatrix):
    write_table(path, matrix.sample_ids, matrix.feature_ids, matrix.values)


def read_outcome_pairs(path) -> tuple[list[str], np.ndarray]:
    """Read (sample id, value) pairs; values must be finite."""
    lines = _read_lines(path)
    delim = _detect_delimiter(lines)
    ((_, first),) = _split_rows(path, lines[:1], 1, None, delim)
    # A header row is optional; detect it by a non-numeric second cell.
    try:
        float(first[1])
        start = 0
    except (ValueError, IndexError):
        start = 1
    ids, values = [], []
    for i, (sample_id, cell) in _split_rows(path, lines[start:], start + 1, 2, delim):
        ids.append(sample_id.strip())
        values.append(_parse_cell(cell, path, i, 2))
    if not ids:
        raise ParseError("outcome file has no rows", path=path)
    return ids, np.array(values, dtype=float)


def infer_outcome_kind(values: np.ndarray) -> str:
    return (
        "binary"
        if np.all((values == 0.0) | (values == 1.0))
        else "continuous"
    )


def outcome_for_matrix(matrix, ids, values, kind=None) -> Outcome:
    """Align outcome pairs to the matrix sample order."""
    lookup = dict(zip(ids, values))
    if len(lookup) != len(ids):
        raise ValidationError("duplicate sample ids in outcome")
    missing = [s for s in matrix.sample_ids if s not in lookup]
    if missing:
        raise ValidationError(
            f"outcome is missing samples: {', '.join(missing[:5])}"
        )
    ordered = np.array([lookup[s] for s in matrix.sample_ids], dtype=float)
    if kind is None:
        kind = infer_outcome_kind(ordered)
    return Outcome(kind, ordered)


def write_outcome(path, sample_ids, values):
    """(sample id, float value) rows, with no header."""
    write_rows(path, None, zip(sample_ids, map(float, values)))


def _line(cells, floats=()) -> str:
    """A tab-separated line of `cells`, then `floats`: a float cell, numpy's
    included, is written as its repr, any other cell as str. `floats` are
    Python floats, as `ndarray.tolist` gives, so they skip the type test."""
    text = [repr(float(c)) if isinstance(c, float) else str(c) for c in cells]
    text += map(repr, floats)
    return "\t".join(text) + "\n"


def write_rows(path, header, rows):
    """A tab-separated table, written row by row: the column names in
    `header` unless it is None, then each row of `rows`."""
    with _atomic_writer(path) as f:
        if header is not None:
            f.write(_line(header))
        f.writelines(map(_line, rows))


def read_config(path) -> dict[str, str]:
    """Read key=value configuration, one pair per line.

    A JSON file (for instance a previously written run manifest) is also
    accepted; its "config" object, or the top-level object itself, is used.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON: {exc.msg}", path=path, row=exc.lineno, column=exc.colno
            ) from None
        # Text that starts with "{" parses to an object, or not at all.
        if isinstance(data.get("config"), dict):
            data = data["config"]
        return {str(k): str(v) for k, v in data.items() if v is not None}
    config = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", path=path, row=i)
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def json_text(payload) -> str:
    """Strict JSON text of `payload`, keys sorted and indented by two.

    numpy arrays and scalars become lists and numbers, and a non-finite
    float becomes null, so the text never holds NaN or Infinity.
    """
    return (
        json.dumps(_json_ready(payload), sort_keys=True, indent=2, allow_nan=False)
        + "\n"
    )


def write_config(path, config: dict):
    lines = [f"{k} = {v}" for k, v in config.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str):
    """Write via a temp file and rename, so files appear exactly once."""
    with _atomic_writer(path) as f:
        f.write(text)


@contextmanager
def _atomic_writer(path):
    """A text file that appears at `path` only once it is written whole.

    It is written to a temp file beside `path` whose name is unique per
    write, so concurrent writes to one path do not collide, then renamed
    over `path`; on error the temp file is removed. The file is created
    with the usual umask-derived mode. An `OSError` (opening, writing or
    renaming) becomes a `ValidationError` that names `path` and the reason.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as f:
            yield f
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        tmp.unlink(missing_ok=True)
