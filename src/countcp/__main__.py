"""``python -m countcp``: the ``countcp`` command line."""

from .cli import entry

entry()
