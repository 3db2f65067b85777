"""Spans around calls into the package's layers, recorded from outside it.

Every public function of the layer modules is wrapped in this process;
each wrapper is bound wherever the package holds a reference to the
original (``from .linalg import psd_sqrt`` copies the name into the
importing module), so calls between modules are traced as well.  A span
is (name, start, end, parent span, pass id, work), kept in flat arrays
in memory and written out once at the end.  Classes are not wrapped, so
dataclass construction counts toward the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Package modules that do work; `errors` only defines exception types.
LAYERS = ("cli", "experiments", "dynamics", "observables", "model", "linalg")
# Spans named by the size of their matrix argument, e.g. hermitian_eigensystem_4.
SIZED = {"linalg.hermitian_eigensystem"}


def _rk4_steps(args, kwargs, result) -> float:
    return (args[2] if len(args) > 2 else kwargs["grid"]).n_steps


def _file_bytes(args, kwargs, result) -> float:
    return os.path.getsize(result)


# Per-call quantity stored in a span's `work` field.
WORK = {
    "dynamics.evolve_rk4": _rk4_steps,
    "experiments.write_csv": _file_bytes,
}

# (metric, span name, scale, unit): median inclusive time per call.
PER_CALL = (
    ("observables.concurrence.us", "observables.concurrence", 1e6, "us"),
    ("observables.damping_forces.us", "observables.damping_forces", 1e6, "us"),
    ("linalg.hermitian_eigensystem_4.us", "linalg.hermitian_eigensystem_4", 1e6, "us"),
    ("linalg.hermitian_eigensystem_16.us", "linalg.hermitian_eigensystem_16", 1e6, "us"),
    ("linalg.psd_sqrt.us", "linalg.psd_sqrt", 1e6, "us"),
    ("dynamics.steady_state.ms", "dynamics.steady_state", 1e3, "ms"),
    ("dynamics.liouvillian_from_params.us", "dynamics.liouvillian_from_params", 1e6, "us"),
    ("experiments.write_csv.s", "experiments.write_csv", 1.0, "s"),
)
COUNTED = ("dynamics", "linalg", "experiments", "observables", "model")


class Tracer:
    """Wraps the layers of `package` and records spans while a pass is traced."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._pass = -1
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            for attr, fn in vars(module).items() if module else ():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._patches = [
            (module, attr, fn, wrappers[fn])
            for modname, module in list(sys.modules.items())
            if modname == package.__name__ or modname.startswith(package.__name__ + ".")
            for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn):
        fixed = None if qualname in SIZED else self._id(qualname)
        work = WORK.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fixed is None:
                matrix = args[0] if args else next(iter(kwargs.values()))
                sid = tracer._id(f"{qualname}_{np.shape(matrix)[-1]}")
            else:
                sid = fixed
            idx = len(tracer.start)
            tracer.name.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.pass_id.append(tracer._pass)
            tracer.work.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def end_pass(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def exists(self, span_name: str) -> bool:
        """Whether the package still defines the function behind a span name."""
        layer, _, attr = span_name.partition(".")
        base = next((s for s in SIZED if span_name.startswith(s + "_")), None)
        if base is not None:
            attr = base.partition(".")[2]
        return hasattr(sys.modules.get(f"{self.package.__name__}.{layer}"), attr)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), name=np.array(self.name), parent=np.array(self.parent),
            pass_id=np.array(self.pass_id), start=np.array(self.start), end=np.array(self.end),
            work=np.array(self.work),
        )

    def metrics(self, traced_passes: list[int]) -> list[tuple[str, float, str, str]]:
        """Per-layer metrics as (name, value, unit, note), medians over the traced passes.

        The result line needs a number for every metric, so a per-call
        metric of a function the traced passes never called, or that the
        package no longer defines, reads 0 and its note says which.
        """
        name = np.array(self.name, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        pass_id = np.array(self.pass_id, dtype=np.intp)
        work = np.array(self.work)
        duration = np.array(self.end) - np.array(self.start)
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(name))
        own = duration - child
        layer = np.array([LAYERS.index(n.partition(".")[0]) for n in self.names], dtype=np.intp)[name]
        in_passes = np.isin(pass_id, traced_passes)
        n_pass = max(traced_passes) + 1
        note = f"median of {len(traced_passes)} traced passes"

        def per_pass(mask, weights=None):
            totals = np.bincount(pass_id[mask], weights=None if weights is None else weights[mask], minlength=n_pass)
            return float(np.median(totals[traced_passes]))

        def spans(span_name):
            """Spans of the traced passes, and a note on how many."""
            if not self.exists(span_name):
                return np.zeros(len(name), bool), "absent: the package no longer defines it"
            mask = (name == self._ids.get(span_name)) & in_passes
            return mask, f"median of {int(mask.sum())} calls" if mask.any() else "not called by this workload"

        def median(values, scale):
            return float(np.median(values)) * scale if values.size else 0.0

        out = []
        for i, lay in enumerate(LAYERS):
            out.append((f"{lay}.self_s", per_pass(layer == i, own), "s", f"self time per pass, {note}"))
        for lay in COUNTED:
            out.append((f"{lay}.calls", per_pass(layer == LAYERS.index(lay)), "count", f"calls per pass, {note}"))
        for metric, span_name, scale, unit in PER_CALL:
            mask, call_note = spans(span_name)
            out.append((metric, median(duration[mask], scale), unit, call_note))
        rk4, call_note = spans("dynamics.evolve_rk4")
        out.append(("dynamics.evolve_rk4.step_us", median(duration[rk4] / work[rk4], 1e6), "us", call_note))
        csv = name == self._ids.get("experiments.write_csv")
        out.append(("experiments.csv_bytes", per_pass(csv, work), "bytes", f"bytes written per pass, {note}"))
        return out
