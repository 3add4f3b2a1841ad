"""Spans around the library's public functions, recorded from outside it.

Modules bind each other with `from .x import f`, so wrapping a function in
its defining module alone misses the callers that hold their own name for
it. install() replaces the function in every loaded l1landscape module that
binds it, and uninstall() puts the originals back, so untraced passes run
the library untouched.
"""

from __future__ import annotations

import sys

import numpy as np

PACKAGE = "l1landscape"
LAYERS = {
    "core": ("residual_pattern", "subdifferential_model", "subgradient_select", "objective"),
    "lpcore": ("solve", "feasibility_min_infinity_norm"),
    "stationarity": ("is_stationary_closed_form", "is_stationary_lp",
                     "project_to_spurious_set", "distance_to_ground_truths",
                     "gaussian_separation"),
    "firstorder": ("directional_derivative",),
    "secondorder": ("second_subderivative", "classify_point"),
    "dynamics": ("run_subgradient", "conjecture_probe"),
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
COUNT_KEYS = [f"{name}.calls" for name in NAMES] + [
    "lpcore.solve.rows_x_cols", "secondorder.classify_point.fallback_calls"]

SOLVE = NAMES.index("lpcore.solve")
FMIN = NAMES.index("lpcore.feasibility_min_infinity_norm")
CLASSIFY = NAMES.index("secondorder.classify_point")


class Tracer:
    """Records (function, start, end, parent, extra) per call while installed."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self._stack = [-1]
        self._patches = []   # (module, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for fid, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            if fid == SOLVE:
                optimal = sys.modules[f"{PACKAGE}.lpcore"].OPTIMAL
                wrapper = self._wrap_solve(fid, original, optimal)
            else:
                wrapper = self._wrap(fid, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))

    def _wrap(self, fid, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, 0)
        return traced

    def _wrap_solve(self, fid, fn, optimal):
        """solve also records m*k of its BoxEqLP and whether it ended OPTIMAL."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(lp, *args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            m, k = lp.eq_matrix.shape
            ok = False
            t0 = clock()
            try:
                res = fn(lp, *args, **kwargs)
                ok = res.status == optimal
                return res
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, m * k if ok else -m * k - 1)
        return traced

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def take(self) -> np.ndarray:
        """Spans recorded so far as a structured array; the buffer is emptied."""
        out = np.array(self.spans, dtype=[("fid", "i4"), ("start", "f8"), ("end", "f8"),
                                          ("parent", "i8"), ("extra", "i8")])
        self.spans.clear()
        return out


def summarize(spans: np.ndarray, factor: float) -> dict:
    """Per-function calls and self time, plus the LP and fallback counts.

    Self times are multiplied by `factor`, the pass's speed factor.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children nest inside parents.
    `extra` on solve spans holds m*k when the LP ended OPTIMAL and
    -(m*k) - 1 otherwise.
    """
    fid, parent = spans["fid"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.zeros(len(spans))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    calls = np.bincount(fid, minlength=len(NAMES))
    self_total = np.bincount(fid, weights=self_s, minlength=len(NAMES))
    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_total[i]) * factor

    extra = spans["extra"][fid == SOLVE]
    optimal = extra >= 0
    out["lpcore.solve.rows_x_cols"] = int(np.where(optimal, extra, -extra - 1).sum())
    out["lpcore.solve.optimal_frac"] = float(optimal.mean()) if extra.size else 0.0

    # A fallback is a classify_point span with a feasibility_min_infinity_norm
    # child; it was useful when the steepest-descent LP did not follow, seen as
    # a solve span directly under classify_point (second_subderivative's face
    # LP sits under its own span).
    under_classify = has_parent & (fid[np.maximum(parent, 0)] == CLASSIFY)
    fallback = set(parent[under_classify & (fid == FMIN)].tolist())
    steepest = set(parent[under_classify & (fid == SOLVE)].tolist())
    out["secondorder.classify_point.fallback_calls"] = len(fallback)
    out["secondorder.classify_point.fallback_useful_frac"] = (
        len(fallback - steepest) / len(fallback) if fallback else 0.0)
    return out
