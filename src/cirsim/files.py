"""The one way anything reaches disk, or a pipe: a whole file lands by
rename, a CSV row is appended to a file that already holds its header, and
a run's worker reports its failure down a pipe (``write_all``). A run
directory is locked while one run writes it."""

import contextlib
import os
from pathlib import Path

try:
    import fcntl
except ImportError:  # Windows has no fcntl; there nothing is locked
    fcntl = None


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


def append(path, text: str) -> None:
    """Append ``text`` to the existing file ``path`` as UTF-8, with no newline
    translation. A missing file raises ``FileNotFoundError``: appending never
    creates a file, so rows never land in one without its header."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | getattr(os, "O_BINARY", 0))
    try:
        write_all(fd, text.encode("utf-8"))
    finally:
        os.close(fd)


def write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the open descriptor ``fd``, a file or a
    pipe, going on after each short write."""
    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


@contextlib.contextmanager
def lock_dir(path):
    """Hold an exclusive lock on the directory ``path`` for the ``with`` block.
    The lock is ``flock`` on the directory itself, so no file is made. It
    belongs to this open of the directory, which processes forked inside
    the block share: another ``lock_dir`` of it, in this process or another,
    raises ``BlockingIOError`` while it is held, and the kernel drops it
    when the last process holding that open dies. Where ``fcntl`` is missing,
    nothing is locked."""
    if fcntl is None:
        yield
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)  # and with it the lock
