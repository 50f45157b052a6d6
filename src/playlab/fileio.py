"""Atomic file replacement for the files a run leaves behind."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path, data: bytes) -> Path:
    """Write ``data`` to a sibling temp file, then rename it over ``path``.

    Readers see the old file or the new one, never a torn one; a failed
    write leaves ``path`` as it was and removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
