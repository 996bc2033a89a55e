"""Atomic text output: a file is either written whole or left as it was."""

from __future__ import annotations

import contextlib
import os

_ROWS_PER_WRITE = 4096


@contextlib.contextmanager
def atomic_write(path):
    """Open a sibling temporary file for writing text and move it onto
    ``path`` with ``os.replace`` once the block completes. If the block
    raises, the temporary file is removed and ``path`` is untouched."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_rows(path, head, fmt, *columns):
    """Atomically write ``head``, then ``fmt % (c0[i], c1[i], ...)`` for each
    index i of the equal-length array columns, one block of rows per write
    call to bound the transient text; no column's dtype is upcast."""
    n, width = len(columns[0]), len(columns)
    with atomic_write(path) as fh:
        fh.write(head)
        for start in range(0, n, _ROWS_PER_WRITE):
            rows = min(_ROWS_PER_WRITE, n - start)
            values = [None] * (rows * width)
            for j, column in enumerate(columns):
                values[j::width] = column[start:start + rows].tolist()
            fh.write(fmt * rows % tuple(values))
