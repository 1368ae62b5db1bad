"""Span tracer that wraps resonatorlab's public functions from outside.

Nothing in the package is edited: :meth:`Tracer.install` replaces each
public function of the layer modules, and ``least_squares`` /
``minimize_scalar`` as bound in the fitting modules, by a timing wrapper in
every ``resonatorlab`` namespace that holds it, and :meth:`Tracer.uninstall`
puts the originals back. A name the package no longer has is skipped, so its
metric is absent instead of the run crashing.

A span is ``[id, name, start, end, parent, op, attrs]``: ``parent`` is the id
of the span open on the same thread when this one started (``None`` for a
root, including spans started in worker threads), ``op`` the benchmark
operation it belongs to, and ``attrs`` a small dict of counts taken from the
call's arguments and result. Spans stay in memory until :meth:`dump`.

Standard library only, so the traced CLI child can import it before numpy.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

#: Modules whose public functions are wrapped, in the order layers are listed.
LAYERS = ("cli", "io", "linfit", "kerrfit", "fieldmodel", "designer", "reports", "synth")

#: Optimizers wrapped as bound in these namespaces, not in scipy itself.
OPTIMIZER_NAMESPACES = ("linfit", "kerrfit", "fieldmodel")
OPTIMIZERS = ("least_squares", "minimize_scalar")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rows(data) -> int:
    traces = getattr(data, "traces", None)
    if traces is not None:
        return sum(len(t) for t in traces)
    return len(data)


def _optimizer_attrs(args, kwargs, result):
    x0 = _arg(args, kwargs, 1, "x0")
    n = len(x0) if hasattr(x0, "__len__") else 1
    return {"n": n, "nfev": int(getattr(result, "nfev", 0))}


def _cubic_attrs(args, kwargs, result):
    import numpy as np

    points = int(result.size // 3)
    bistable = int(np.count_nonzero(np.isfinite(result[..., 2])))
    return {"points": points, "bistable": bistable}


def _fit_kerr_attrs(args, kwargs, result):
    options = _arg(args, kwargs, 2, "options")
    branch = getattr(options, "branch", "lowest") if options is not None else "lowest"
    return {"branch": branch, "powers": len(_arg(args, kwargs, 0, "sweep").traces)}


def _cli_main_attrs(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or []
    return {"sub": next((a for a in argv if not a.startswith("-")), "version")}


#: Per-span attribute extractors, called after the span's end time is taken.
EXTRACTORS = {
    "linfit.least_squares": _optimizer_attrs,
    "kerrfit.least_squares": _optimizer_attrs,
    "fieldmodel.least_squares": _optimizer_attrs,
    "linfit.minimize_scalar": lambda a, k, r: {"nfev": int(getattr(r, "nfev", 0))},
    "kerrfit.photon_cubic_roots": _cubic_attrs,
    "kerrfit.fit_kerr": _fit_kerr_attrs,
    "io.parse_trace_csv": lambda a, k, r: {"rows": _rows(r)},
    "io.write_trace_csv": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "data"))},
    "io.parse_field_csv": lambda a, k, r: {"rows": len(r)},
    "reports.dump_report": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}

#: Attributes known before the call, so they survive a call that raises.
PRE_EXTRACTORS = {"cli.main": _cli_main_attrs}


_RAISED = object()  # marks a call that raised, so it has no result to inspect


def layer_modules() -> dict:
    """The layer modules the package has, by layer name."""
    layers = {}
    for layer in LAYERS:
        try:
            layers[layer] = importlib.import_module(f"resonatorlab.{layer}")
        except ImportError:
            continue
    return layers


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        fn = getattr(module, attr, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        pre_extract = PRE_EXTRACTORS.get(name)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            attrs = pre_extract(args, kwargs, None) if pre_extract else None
            stack.append(sid)
            start = clock()
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if extract is not None and result is not _RAISED:
                    attrs = extract(args, kwargs, result)
                spans.append([sid, name, start, end, parent, self.op, attrs])

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around a block of code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, name, start, end, parent, self.op, None])

    def _replace_everywhere(self, original, wrapper, namespaces) -> None:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        """Wrap the public functions of every layer module the package has."""
        layers = layer_modules()
        package_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "resonatorlab" or n.startswith("resonatorlab."))
        ]
        for layer, module in layers.items():
            for attr, fn in public_functions(module):
                self._replace_everywhere(fn, self.wrap(f"{layer}.{attr}", fn), package_modules)
            if layer in OPTIMIZER_NAMESPACES:
                for attr in OPTIMIZERS:
                    fn = getattr(module, attr, None)
                    if fn is not None:
                        setattr(module, attr, self.wrap(f"{layer}.{attr}", fn))
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
