"""Spans around the calls into nbbm's layers, recorded from outside the package.

A traced op swaps a few module-level bindings, which the package's own
callers look up at call time, for timing wrappers, and puts the originals
back when the op ends.  Each span records its name, start, end, parent span
and op id, plus the work counts read off its arguments or result.  Spans
stay in memory and are written out with the run report.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import numpy as np

import nbbm.experiments
import nbbm.obstacle


def _kernel_span(a: dict, out) -> tuple[str, dict]:
    # the dispatch rule of nbbm.kernels.mixture_node_values: a lattice step
    # in d = 1 or 3 takes the image FFT, everything else the Poisson series
    route = "image" if a["lattice_h"] is not None and a["dim"] in (1, 3) else "series"
    return f"kernels.{route}", {"nodes": int(np.size(a["r_nodes"])),
                                "jumps": int(np.size(a["locs"]))}


# (module, binding, span name and counts from the bound arguments and result)
BINDINGS = (
    (nbbm.obstacle, "mixture_node_values", _kernel_span),
    (nbbm.experiments, "advance_nbbm", lambda a, out: ("sim.nbbm", {"events": len(out[1])})),
    (nbbm.experiments, "stationary_state", lambda a, out: ("experiments.stationary_state", {})),
    (nbbm.experiments, "empirical_cdf", lambda a, out: ("core.empirical_cdf", {})),
)


def wrapped_bindings() -> list[str]:
    """The traced bindings that currently hold something other than the
    package's own function; empty outside ``Tracer.installed()``."""
    return [f"{mod.__name__}.{attr}" for mod, attr, _ in BINDINGS
            if not getattr(mod, attr).__module__.startswith("nbbm.")]


class Tracer:
    """In-memory span recorder; ``installed()`` wraps the layer bindings."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        rec = {"id": len(self.spans), "op": self._op, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrapper(self, fn, describe):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span("pending") as rec:
                out = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec["name"], counts = describe(bound.arguments, out)
            rec.update(counts)
            return out
        return traced

    @contextmanager
    def installed(self):
        saved = {(mod, attr): getattr(mod, attr) for mod, attr, _ in BINDINGS}
        try:
            for mod, attr, describe in BINDINGS:
                setattr(mod, attr, self._wrapper(getattr(mod, attr), describe))
            yield
        finally:
            for mod, attr, _ in BINDINGS:
                setattr(mod, attr, saved[(mod, attr)])

    def op_totals(self, op: int) -> dict:
        """Per span name: calls, busy seconds and summed counts; plus the
        self time of the op's root span (its duration minus its children)."""
        spans = [s for s in self.spans if s["op"] == op]
        totals: dict[str, dict] = {}
        for s in spans:
            t = totals.setdefault(s["name"], {"calls": 0, "busy_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += s["end"] - s["start"]
            for key in ("nodes", "jumps", "events"):
                if key in s:
                    t[key] = t.get(key, 0) + s[key]
        for root in (s for s in spans if s["parent"] is None):
            child = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
            totals[root["name"]]["self_s"] = (root["end"] - root["start"]) - child
        return totals
