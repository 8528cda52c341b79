"""File- and stdin-backed sources with a hidden open/read/close
lifecycle.

The handle opens at construction, so unreadable paths fail early; it is
closed exactly once, whether the stream is drained, stopped (also before
its first ask), dropped unfinished, or hits an I/O error mid-read.  Pass
a filesystem path, ``"-"`` for standard input, or an already-open text
file object.
"""

import sys

from .core import _source

__all__ = ["line_reader", "token_reader"]


def _open(source):
    """The handle to read and an idempotent function closing it (standard
    input is never closed)."""
    if source == "-":
        source = sys.stdin
    handle = source if hasattr(source, "read") else open(source, "r")
    closed = [handle is sys.stdin]

    def close():
        if not closed[0]:
            closed[0] = True
            handle.close()

    return handle, close


def _started(reader):
    """``reader`` run to its first bare ``yield``, inside its ``try``, so
    that dropping it unread still closes the file."""
    next(reader)
    return reader


def _tokens(handle, close):
    try:
        yield
        for line in iter(handle.readline, ""):
            for text in line.split():
                try:
                    token = int(text)
                except ValueError:
                    token = text
                yield token
    finally:
        close()


def token_reader(source):
    """Whitespace-delimited tokens from ``source``: decimal integers
    become ints, anything else a raw-text symbol."""
    handle, close = _open(source)
    return _source(_started(_tokens(handle, close)), cleanup=close)


def _lines(handle, close):
    try:
        yield
        for line in iter(handle.readline, ""):
            if line.endswith("\n"):
                line = line[:-1]
                if line.endswith("\r"):
                    line = line[:-1]
            yield line
    finally:
        close()


def line_reader(source):
    """One symbol per line of ``source``, newline stripped (CR before LF
    too); a final unterminated line is still yielded."""
    handle, close = _open(source)
    return _source(_started(_lines(handle, close)), cleanup=close)
