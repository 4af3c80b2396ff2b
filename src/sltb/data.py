"""Tabular data container and CSV ingestion.

Columns are either numeric (float64 arrays) or factors (string tuples).
The CSV reader is strict: header required, rectangular rows, no missing
values; every complaint carries the 1-based line number.
"""

from __future__ import annotations

import csv
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError

_MISSING_TOKENS = {"", "na", "nan", "null", "n/a"}


class TabularDataset:
    """Immutable table of named columns, numeric or factor."""

    def __init__(self, columns: Mapping[str, Sequence]):
        if not columns:
            raise ValidationError("dataset needs at least one column")
        numeric: Dict[str, np.ndarray] = {}
        factors: Dict[str, Tuple[str, ...]] = {}
        n = None
        for name, values in columns.items():
            if isinstance(values, np.ndarray) and values.dtype.kind in "fiub":
                col = np.asarray(values, dtype=float)
                if not np.all(np.isfinite(col)):
                    raise ValidationError(f"column '{name}' has non-finite values")
                numeric[name] = col
                length = col.shape[0]
            else:
                vals = list(values)
                if all(isinstance(v, (int, float, np.floating, np.integer))
                       and not isinstance(v, bool) for v in vals):
                    col = np.asarray(vals, dtype=float)
                    if not np.all(np.isfinite(col)):
                        raise ValidationError(f"column '{name}' has non-finite values")
                    numeric[name] = col
                    length = col.shape[0]
                else:
                    factors[name] = tuple(str(v) for v in vals)
                    length = len(factors[name])
            if n is None:
                n = length
            elif length != n:
                raise ValidationError(
                    f"column '{name}' has {length} rows, expected {n}")
        if n == 0:
            raise ValidationError("dataset has no rows")
        self._numeric = numeric
        self._factors = factors
        self._order = tuple(columns.keys())
        self.n_rows = int(n)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._order

    def has_column(self, name: str) -> bool:
        return name in self._numeric or name in self._factors

    def is_factor(self, name: str) -> bool:
        self._require(name)
        return name in self._factors

    def numeric(self, name: str) -> np.ndarray:
        self._require(name)
        if name not in self._numeric:
            raise ValidationError(f"column '{name}' is a factor, not numeric")
        return self._numeric[name].copy()

    def factor(self, name: str) -> Tuple[str, ...]:
        self._require(name)
        if name not in self._factors:
            raise ValidationError(f"column '{name}' is numeric, not a factor")
        return self._factors[name]

    def _require(self, name: str) -> None:
        if not self.has_column(name):
            raise ValidationError(f"unknown column '{name}'")


def round_responses(y: np.ndarray, decimals: Optional[int]) -> np.ndarray:
    """`y` rounded to `decimals` places (ties to even), or `y` itself for
    None: how the data generators put exact 0s and 1s into draws on (0, 1).

    A negative count is refused, since it would round every response to 0,
    and so is a count above 308, at which 10**decimals overflows and
    `np.round` returns NaN.
    """
    if decimals is None:
        return y
    if decimals < 0:
        raise ValidationError("rounding_decimals must be >= 0 or None")
    if decimals > 308:
        raise ValidationError(f"rounding_decimals must be at most 308, got {decimals}")
    return np.round(y, decimals)


def read_csv(path: str) -> TabularDataset:
    """Read a strict comma-separated table (UTF-8, header row, '.' decimal)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise ValidationError(f"{path}: line 1: blank column name in header")
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: line 1: duplicate column names")
        raw: list[list[str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(row)}")
            for name, cell in zip(header, row):
                if cell.strip().lower() in _MISSING_TOKENS:
                    raise ValidationError(
                        f"{path}: line {lineno}: missing value in column '{name}'")
            raw.append([c.strip() for c in row])
    if not raw:
        raise ValidationError(f"{path}: no data rows")
    columns: Dict[str, Sequence] = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in raw]
        try:
            columns[name] = np.array([float(c) for c in cells], dtype=float)
        except ValueError:
            columns[name] = cells
    return TabularDataset(columns)


def write_csv(path: str, table: Union[TabularDataset, Sequence[str]],
              rows: Optional[Iterable[Sequence]] = None) -> None:
    """Write a table with a fixed float format so outputs are reproducible.

    `table` is either a TabularDataset, written as its columns in order and
    one line per record, or a header row that `rows` goes under. A float
    is written as its repr, an integer as its digits, and None as an empty
    cell.
    """
    if isinstance(table, TabularDataset) == (rows is not None):
        raise TypeError("write_csv takes a dataset, or a header and its rows")
    if isinstance(table, TabularDataset):
        header = table.column_names
        columns = [table.factor(c) if table.is_factor(c) else table.numeric(c)
                   for c in header]
    else:
        header, columns = table, list(zip(*rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows(zip(*map(_format_column, columns)))


def _format_column(col) -> list:
    """The cells of one column as text: in one pass where every cell is a
    float, or a float or None, else cell by cell."""
    if isinstance(col, np.ndarray):
        col = col.tolist()
    text = float.__repr__
    try:
        return list(map(text, col))
    except TypeError:  # a cell that is not a float
        pass
    try:
        return ["" if c is None else text(c) for c in col]
    except TypeError:  # a cell that is neither a float nor None
        return [_format_cell(c) for c in col]


def _format_cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return str(c)
