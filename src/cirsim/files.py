"""The one way a whole file reaches disk (CSV rows are appended in place)."""

import os
from pathlib import Path


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` to ``<name>.tmp``, then rename it onto ``path``: a crash
    leaves the old file or the new one, and a failed write removes what it
    wrote aside. A ``str`` is written as UTF-8, with no newline translation."""
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
