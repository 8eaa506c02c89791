"""Span tracing of countcp's public functions, applied from outside the library.

``Tracer`` replaces every public function of the traced modules with a
wrapper that records one ``Span`` per call: name, start, end and the index
of the enclosing span.  The replacement is made in every loaded countcp
module namespace that holds the function, so calls through ``from x import
y`` names are traced too.  ``remove`` puts the originals back; the library
itself is never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

MODULES = (
    "synth", "tensors", "bptf", "ntf", "masking", "cp", "evaluation",
    "components", "cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _region_attrs(bound, result):
    region, truth = bound["region"], bound["truth"]
    return {
        "cells": int(region.n_cells),
        "nnz": int(region.contains(truth.coords).sum()),
    }


# size attributes recorded for a few calls; computed after the span closes
ATTRS = {
    "cp.reconstruct_entries": lambda bound, result: {"rows": len(result)},
    "evaluation.region_metrics": _region_attrs,
    "tensors.read_event_file": lambda bound, result: {"events": len(result)},
}


def replace_everywhere(original, replacement) -> list:
    """Rebind every countcp module attribute that is ``original``.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "countcp" or name.startswith("countcp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Collects spans from wrapped countcp functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        measure = ATTRS.get(name)
        signature = inspect.signature(fn) if measure else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.attrs = measure(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"countcp.{short}")
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                ):
                    continue
                self._undo += replace_everywhere(value, self._wrap(f"{short}.{attr}", value))

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent
