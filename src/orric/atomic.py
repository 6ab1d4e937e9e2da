"""Atomic file output shared by every writer in the package, and the one writer of its per-slot CSVs."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Replace path with text: readers see the old file or the new one, never a part.

    The temporary file has a unique name in the target directory, so concurrent writers never share
    one; on failure it is removed and the old file is left as it was, and an OSError that names a file
    names path, not the temporary file. Nothing is synced to disk (atomic, not durable).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:  # name path, not the temporary file, whose random part would differ between reruns
        raise exc if exc.filename is None else OSError(exc.errno, exc.strerror, str(path))


def write_csv(path, header: str, row: str, columns) -> None:
    """Write a CSV atomically: the header line, then row % fields for each zip(*columns), one per line."""
    lines = [header, *(row % fields for fields in zip(*columns))]
    write_atomic(path, "\n".join(lines) + "\n")
