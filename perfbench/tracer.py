"""Span tracing of nepritz's public functions, installed from outside.

``Tracer`` wraps every public function of each layer (module) and a few
public methods, and rebinds the wrapper under *every* name that refers to
the original in any loaded nepritz module: the package uses
``from .nep_model import eval_T``-style imports, so patching only the
defining module would miss most calls.  Each call records one span (name,
case id, start, end, parent span) in memory; ``uninstall`` restores the
original bindings.

Self time of a span is its duration minus the durations of its direct
children, which, with one thread, tile disjoint parts of its interval.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "dense_kernels",
    "nep_model",
    "projection",
    "small_nep_solver",
    "extraction",
    "bounds_lab",
    "experiments",
)
METHODS = (
    ("nep_model", "MatrixFunction", "from_terms"),
    ("nep_model", "MatrixFunction", "compress"),
    ("projection", "Subspace", "from_basis"),
)
# kernels whose array arguments are summed into input_bytes_computed
BYTES_LAYER = "dense_kernels"


class Tracer:
    def __init__(self) -> None:
        # span: [name, case, start, end, parent index, nested-in-same-name, bytes]
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._active: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_bytes: bool):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nbytes = 0
            if count_bytes:
                nbytes = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
            idx = len(spans)
            span = [name, self.case, 0.0, 0.0, stack[-1] if stack else -1,
                    active[name] > 0, nbytes]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                active[name] -= 1
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items()
                      if k == "nepritz" or k.startswith("nepritz.")]
        for layer in LAYERS:
            mod = sys.modules[f"nepritz.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn, layer == BYTES_LAYER)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._rebind(ns, attr, traced)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"nepritz.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._rebind(cls, meth, classmethod(self._wrap(name, raw.__func__, False)))
            else:
                self._rebind(cls, meth, self._wrap(name, raw, False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and input bytes.

    total_s counts only outermost activations of a name, so a function that
    reaches itself again is not counted twice.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
    for i, (name, _, start, end, _, nested, nbytes) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += end - start - child[i]
        if not nested:
            row["total_s"] += end - start
        row["bytes"] += nbytes
    return dict(out)


def layer_self(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed per layer (the module part of each span name)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, row in stats.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out
