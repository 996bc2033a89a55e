"""Atomic text output: a file is either written whole or left as it was."""

from __future__ import annotations

import contextlib
import os


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
