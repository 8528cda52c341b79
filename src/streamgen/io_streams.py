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
from .values import INT_MAX_DIGITS

__all__ = ["line_reader", "token_reader"]


def _open(source, read):
    """A source over ``read(handle, owned)``, run to its first bare
    ``yield`` inside its ``try``: its ``finally`` closes the file (unless
    it is standard input) however the source ends, dropped unread too."""
    if source == "-":
        source = sys.stdin
    handle = source if hasattr(source, "read") else open(source, "r")
    it = read(handle, handle is not sys.stdin)
    next(it)
    return _source(it)


def _tokens(handle, owned):
    try:
        yield
        for line in iter(handle.readline, ""):
            for text in line.split():
                digits = text[1:] if text[0] == "-" else text
                if digits.isdigit() and digits.isascii() and len(digits) <= INT_MAX_DIGITS:
                    yield int(text)
                else:
                    yield text
    finally:
        if owned:
            handle.close()


def token_reader(source):
    """Whitespace-delimited tokens from ``source``: a token is an int
    exactly when it is the lexer's ``INT`` (an optional ``-``, then 1 to
    640 ASCII digits), anything else is a raw-text symbol."""
    return _open(source, _tokens)


def _lines(handle, owned):
    try:
        yield
        for line in iter(handle.readline, ""):
            if line.endswith("\n"):
                line = line[:-1]
                if line.endswith("\r"):
                    line = line[:-1]
            yield line
    finally:
        if owned:
            handle.close()


def line_reader(source):
    """One symbol per line of ``source``, newline stripped (CR before LF
    too); a final unterminated line is still yielded."""
    return _open(source, _lines)
