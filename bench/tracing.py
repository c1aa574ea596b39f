"""Spans and counters around the package's layers, installed from outside.

The tracer rebinds public functions of dressedatom's modules to wrappers
that record a span (name, start, end, parent, pass) and, for a few, derived
counts.  Integrand calls and zero scans are counted with plain counters, not
spans, because there are ~1e5 of them per pass.  A hook whose target no
longer exists is listed in ``absent`` and its metrics read 0; refactors
that delete a call site must not break the benchmark.

Spans stay in memory and are written out once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "dressedatom"


def _points(tr, args, result):
    ts = args.get("ts")
    if ts is not None:
        tr.counts["closedform.points"] += int(np.size(ts))


def _propagate(tr, args, result):
    rep = getattr(result, "step_report", None)
    if rep is not None:
        for key, value in (("oracle.norm_drift_max", rep.norm_drift),
                           ("oracle.richardson_err_max", rep.richardson_error)):
            tr.counts[key] = max(tr.counts[key], float(value))


def _csv(tr, args, result):
    data = getattr(args.get("self"), "data", None)
    if data is not None:
        tr.counts["series.csv_rows"] += int(data.shape[0])
    if isinstance(result, str):
        tr.counts["series.csv_bytes"] += len(result.encode())


# (module, attribute, span name, after-call hook).  Module functions are
# rebound in every dressedatom module that imported them by name.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("scenario", "sweep", "scenario.sweep", None),
    ("scenario", "run_scenario", "scenario.run_scenario", None),
    ("closedform", "dressed_series", "closedform.dressed_series", _points),
    ("oracle", "propagate", "oracle.propagate", _propagate),
    ("oracle", "compare", "oracle.compare", None),
    ("oracle", "current_dynamics_check", "oracle.current_fit", None),
    ("frames", "frame_series", "frames.frame_series", None),
    ("frames", "identity_residuals", "frames.identity_residuals", None),
    ("series", "TimeSeries.to_csv", "series.to_csv", _csv),
]


def _count_quad(tr, args, result):
    tr.counts["closedform.quad_calls"] += 1
    if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], dict):
        tr.counts["closedform.quad_neval"] += int(result[2].get("neval", 0))


def _count_rabi(tr, args, result):
    tr.counts["closedform.integrand_evals"] += int(np.size(result))


def _count_zero_scan(tr, args, result):
    tr.counts["drives.zero_scans"] += 1


def _count_rk4(tr, args, result):
    # every RK4 run propagate makes, the Richardson re-run included
    if "n_steps" in args:
        tr.counts["oracle.rk4_steps"] += int(args["n_steps"])


# (module, attribute, counter hook, whether the hook reads the arguments).
# Rebound in the named module only, so that e.g. rabi_frequency calls from
# frames or oracle are not counted as closed-form integrand evaluations.
# "*." patches every class in the module.
COUNTERS = [
    ("closedform", "quad", _count_quad, False),
    ("closedform", "rabi_frequency", _count_rabi, False),
    ("drives", "*.coupling_zero_times", _count_zero_scan, False),
    ("oracle", "_rk4_run", _count_rk4, True),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.pass_id = -1
        self.counts: Counter = Counter()            # the current pass's
        self.pass_counts: dict[int, Counter] = {}  # counters and maxima per pass
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = self.pass_counts[pass_id] = Counter()

    def _wrap(self, fn, name, after, with_span, binds):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        def bound(args, kwargs):
            if sig is None:
                return {}
            try:
                return sig.bind(*args, **kwargs).arguments
            except TypeError:
                return {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not with_span:  # counters bind arguments only if they read them
                result = fn(*args, **kwargs)
                after(self, bound(args, kwargs) if binds else None, result)
                return result
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "pass": self.pass_id,
                               "parent": self._stack[-1] if self._stack else None,
                               "start": time.perf_counter(), "end": None})
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[sid]["end"] = time.perf_counter()
            if after is not None:
                after(self, bound(args, kwargs), result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, modname, attr, name, after, with_span, binds) -> bool:
        mod = sys.modules.get(f"{PACKAGE}.{modname}")
        if mod is None:
            return False
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name == "*":
            classes = [c for c in vars(mod).values()
                       if inspect.isclass(c) and c.__module__ == mod.__name__
                       and leaf in vars(c)]
            for cls in classes:
                self._set(cls, leaf, self._wrap(vars(cls)[leaf], name, after, with_span,
                                                binds))
            return bool(classes)
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None or not callable(orig):
            return False
        wrapper = self._wrap(orig, name, after, with_span, binds)
        if owner is not mod or not with_span:
            self._set(owner, leaf, wrapper)
            return True
        for m in self._modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, key, wrapper)
        return True

    def install(self) -> None:
        self.absent = []
        for modname, attr, name, after in SPANS:
            if not self._patch(modname, attr, name, after, True, True):
                self.absent.append(f"{modname}.{attr}")
        for modname, attr, after, binds in COUNTERS:
            if not self._patch(modname, attr, f"{modname}.{attr}", after, False, binds):
                self.absent.append(f"{modname}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def pass_times(self, pass_id: int) -> dict:
        """Per span name: total duration and total self time in one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        total, self_t = Counter(), Counter()
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            self_t[s["name"]] += dur - child[s["id"]]
        return {"total": total, "self": self_t}
