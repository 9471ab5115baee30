"""``python -m greenheight``: the same command line as the console script."""

from .cli import entry

entry()
