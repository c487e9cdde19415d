"""Plain-text tabular and JSON output helpers.

Tables are tab-separated with a single header line of column names.
Floats are written with ``%.17g`` so that a re-run with identical inputs
produces byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

import numpy as np


WRITE_CHUNK_ROWS = 1024


def format_rows(columns) -> Iterator[str]:
    """Yield the rows of equal-length 1-d columns as tab-separated text.

    Integer columns are written with ``%d`` and every other column with
    ``%.17g``, so a float re-read with ``float`` is exact.  Rows are formatted
    ``WRITE_CHUNK_ROWS`` at a time: each chunk converts its slice of every
    column with ``tolist`` and feeds one ``%`` operation.
    """
    arrays = [np.asarray(col) for col in columns]
    row_fmt = "\t".join("%d" if np.issubdtype(arr.dtype, np.integer) else "%.17g"
                        for arr in arrays) + "\n"
    for start in range(0, len(arrays[0]), WRITE_CHUNK_ROWS):
        parts = [arr[start:start + WRITE_CHUNK_ROWS].tolist() for arr in arrays]
        yield (row_fmt * len(parts[0])) % _row_major(parts)


def _row_major(parts: list) -> tuple:
    """The values of equal-length lists, row by row."""
    width = len(parts)
    flat = [None] * sum(map(len, parts))
    for j, part in enumerate(parts):
        flat[j::width] = part
    return tuple(flat)


def write_table(path, columns: dict) -> None:
    """Write named columns (equal-length 1-d arrays) as a TSV table."""
    arrays = _arrays(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        fh.writelines(format_rows(arrays))


class SharedFirstColumn:
    """One block of rows of several float tables that share their first
    column, such as the times of a block of dumped paths.  That column is
    formatted once, into a row template, and each table formats only its own
    columns into it; the bytes are those :func:`write_table` writes."""

    def __init__(self, names, first):
        values = np.asarray(first).tolist()
        self.names, self.rows = tuple(names), len(values)
        row = "%.17g" + "\t%%.17g" * (len(self.names) - 1) + "\n"
        self.template = (row * self.rows) % tuple(values)

    def write(self, path, columns, header: bool) -> None:
        """Write one table's block: ``columns`` are its columns after the
        first, in ``names`` order, each as long as the shared one.  With
        ``header``, the block begins a new table under a line of ``names``;
        without, it is appended to a table begun so."""
        parts = [np.asarray(col).tolist() for col in columns]
        if len(parts) != len(self.names) - 1 or any(len(p) != self.rows for p in parts):
            raise ValueError(f"a block of {self.names[1:]} needs {len(self.names) - 1} "
                             f"columns of {self.rows} rows")
        text = self.template % _row_major(parts)
        with open(path, "w" if header else "a", encoding="utf-8") as fh:
            if header:
                fh.write("\t".join(self.names) + "\n")
            fh.write(text)


def _arrays(columns: dict) -> list:
    arrays = [np.asarray(col) for col in columns.values()]
    n = len(arrays[0])
    for name, arr in zip(columns, arrays):
        if len(arr) != n:
            raise ValueError(f"column {name!r} has length {len(arr)}, expected {n}")
    return arrays


def read_table(path) -> dict:
    """Read a TSV table written by :func:`write_table` into float columns."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty table")
        names = header.split("\t")
        repeated = [name for j, name in enumerate(names) if name in names[:j]]
        if repeated:
            raise ValueError(f"column {repeated[0]!r} is named twice in the header")
        rows = [line.rstrip("\r\n").split("\t") for line in fh if line.strip()]
    for number, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise ValueError(f"row {number} has {len(row)} cells, the header {len(names)}")
    data = np.array(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, j] for j, name in enumerate(names)}


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
