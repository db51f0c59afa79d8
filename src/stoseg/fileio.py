"""Whole-file writes that never leave a partial file at the destination."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a new file in the same directory,
    then ``os.replace`` it over ``path``.

    A reader sees the old file or the new one, never a partial one. If the
    write or the replace fails, the old file is left as it was and the
    temporary file is removed. The temporary file is opened like a new
    ``path`` would be, so the umask sets its permissions. Nothing is
    fsynced: this guards against a writer that fails or is killed, not
    against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
