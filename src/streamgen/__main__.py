"""``python -m streamgen``: the same command line as the ``streamgen``
script."""

from .cli import entry

if __name__ == "__main__":
    entry()
