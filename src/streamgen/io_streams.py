"""File- and stdin-backed sources with a hidden open/read/close
lifecycle.

The handle opens at construction, so unreadable paths fail early; it is
closed exactly once, whether the stream is drained, stopped, or hits an
I/O error mid-read.  Pass a filesystem path, ``"-"`` for standard
input, or an already-open text file object.
"""

import sys
from collections import deque

from .core import Source

__all__ = ["line_reader", "token_reader"]


def _open(source):
    if source == "-":
        return sys.stdin, False
    if hasattr(source, "read"):
        return source, True
    return open(source, "r"), True


def _closer(handle, owns):
    closed = [False]

    def close():
        if not closed[0]:
            closed[0] = True
            if owns and handle is not sys.stdin:
                handle.close()

    return close


def token_reader(source):
    """Whitespace-delimited tokens from ``source``: decimal integers
    become ints, anything else a raw-text symbol."""
    handle, owns = _open(source)
    close = _closer(handle, owns)
    pending = deque()

    def step():
        while not pending:
            line = handle.readline()
            if not line:
                close()
                return None
            pending.extend(line.split())
        text = pending.popleft()
        try:
            return int(text)
        except ValueError:
            return text

    return Source(step, cleanup=close)


def line_reader(source):
    """One symbol per line of ``source``, newline stripped (CR before LF
    too); a final unterminated line is still yielded."""
    handle, owns = _open(source)
    close = _closer(handle, owns)

    def step():
        line = handle.readline()
        if not line:
            close()
            return None
        if line.endswith("\n"):
            line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
        return line

    return Source(step, cleanup=close)
