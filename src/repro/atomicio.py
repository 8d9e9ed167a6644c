"""Atomic file writes for results, reports, and checkpoints.

Long characterization campaigns die at arbitrary points — a SIGKILL mid
``json.dump`` must never leave a truncated artifact that a later
``--resume`` (or a human) trips over.  Every writer in the library goes
through :func:`atomic_write_text`: the content lands in a temporary file
in the destination directory, is fsynced, and is moved into place with
:func:`os.replace`, which POSIX guarantees to be atomic.  Readers see
either the old complete file or the new complete file, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: str, content: str) -> None:
    """Write ``content`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave the temp file behind: a crashed write must look
        # exactly like no write at all.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload: object) -> None:
    """Serialize ``payload`` to JSON (indented by 2) and write it atomically."""
    atomic_write_text(path, json.dumps(payload, indent=2))
