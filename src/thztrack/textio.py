"""The one text writer behind every output file: traces, sweeps, patterns and codebooks."""

from __future__ import annotations

import os
import stat


def write_text(sink, text: str) -> None:
    """Write ``text`` to a text file object, or as UTF-8 to a path.

    An existing regular file is overwritten in place and then truncated to the
    written length, never truncated first: on ext4, truncating a non-empty 60 kB
    file and writing it again took tens of milliseconds, writing it in place
    about ten microseconds. A symlink is written through, and a new file is
    created as ``open(path, "w")`` would.
    """
    if hasattr(sink, "write"):
        sink.write(text)
        return
    with open(os.open(sink, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # a FIFO or terminal has no length
            handle.truncate()  # at the end of what was written
