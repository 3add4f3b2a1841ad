"""Second-order analysis of f(u) = 0.5 ||u u^T - ustar ustar^T||_1.

At a stationary point the second subderivative of f at u for v = 0 is +inf
off the critical cone and otherwise equals

    d2f(u;0)(w) = max { <Q, w w^T> : Q in Q(u) },

where Q(u) collects the symmetric matrices inside the residual sign boxes
that annihilate u. At a spurious point the face is (on the support of ustar)
the singleton -Sign(ustar ustar^T), which gives the escape value
-||ustar||_1^2 along w = +-ustar - u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_ZERO, _pair, subdifferential_model
from .firstorder import EPS_DIR, _require_stationary
from .lpcore import OPTIMAL, BoxEqLP, NumericalFailureError, solve
from .stationarity import (
    GROUND_TRUTH_MINUS,
    GROUND_TRUTH_PLUS,
    NOT_STATIONARY,
    SPURIOUS,
    is_stationary_closed_form,
    min_norm_element,
)

GLOBAL_MIN = "global_min"
SPURIOUS_STATIONARY = "spurious_stationary"


def second_subderivative(u, ustar, w) -> float:
    """d2f(u;0)(w): +inf off the critical cone, else an LP over the face."""
    u, ustar = _pair(u, ustar)
    u, w = _pair(u, w)
    _require_stationary(u, ustar)
    return _second_subderivative(u, ustar, w)


def _second_subderivative(u, ustar, w):
    """second_subderivative at a point already certified stationary.

    The face objective <Q, w w^T> splits into the fixed-entry constant plus
    w_i^2 per free diagonal coordinate and 2 w_i w_j per free off-diagonal
    pair.
    """
    model = subdifferential_model(u, ustar)
    if model.support(w) > EPS_DIR:
        return math.inf

    constant = float(w @ model.fixed_sign @ w)
    p = len(model.free_pairs)
    if p == 0:
        return constant
    i, j = model.free_pairs.T
    coeffs = np.where(i == j, 1.0, 2.0) * w[i] * w[j]
    lp = BoxEqLP(-np.ones(p), np.ones(p), model.pair_matrix(), -model.fixed_vector(), coeffs)
    res = solve(lp)
    if res.status != OPTIMAL:
        raise NumericalFailureError(f"face LP ended with status {res.status}: {res.reason}")
    return constant + res.value


def escape_curvature(u, ustar):
    """Escape direction w = ustar - u at a spurious point, with its curvature.

    The value is -||ustar||_1^2; the LP route must reproduce it to 1e-9,
    otherwise something is inconsistent and we refuse to return.
    """
    u, ustar = _pair(u, ustar)
    verdict = _require_stationary(u, ustar)
    if verdict.kind != SPURIOUS:
        raise ValueError("escape curvature is defined at spurious stationary points")
    return _escape_curvature(u, ustar)


def _escape_curvature(u, ustar):
    """escape_curvature at a point already certified spurious."""
    w = ustar - u
    value = _second_subderivative(u, ustar, w)
    expected = -float(np.abs(ustar).sum()) ** 2
    if abs(value - expected) > 1e-9:
        raise ArithmeticError(
            f"curvature {value} disagrees with -||ustar||_1^2 = {expected}")
    return w, value


@dataclass
class PointClassification:
    kind: str
    escape_direction: np.ndarray | None = None
    curvature: float | None = None
    descent_direction: np.ndarray | None = None


def classify_point(u, ustar) -> PointClassification:
    """Global minimum, spurious stationary point, or descent direction.

    Second-order stationarity singles out the global minima, so every
    spurious point ships with an escape direction of negative curvature and
    every non-stationary point with a verified descent direction. Two
    candidates are tried, in order: the negated midpoint subgradient, then
    -w/||w||_2, where w is the dual certificate of the min-norm solve. -w
    minimizes df(u) over the l1 ball: when the min-norm value v exceeds
    EPS_LP, ||w||_1 = 1 and df(u)(-w/||w||_2) = -v/||w||_2 <= -v, so it
    descends at every point the LP calls non-stationary. Both are read from
    one subdifferential model, whose support function checks them.
    """
    u, ustar = _pair(u, ustar)
    verdict = is_stationary_closed_form(u, ustar)
    if verdict.kind in (GROUND_TRUTH_PLUS, GROUND_TRUTH_MINUS):
        return PointClassification(GLOBAL_MIN)
    if verdict.kind == SPURIOUS:
        if np.abs(ustar).max() <= EPS_ZERO:
            # ustar = 0 makes u = 0 the unique stationary point and the
            # global minimum; there is nothing to escape from.
            return PointClassification(GLOBAL_MIN)
        w, value = _escape_curvature(u, ustar)
        return PointClassification(SPURIOUS_STATIONARY, escape_direction=w, curvature=value)

    model = subdifferential_model(u, ustar)

    def descend_along(g):
        norm = float(np.linalg.norm(g))
        if norm <= EPS_ZERO:
            return None
        d = -g / norm
        if model.support(d) < -EPS_DIR:
            return d
        return None

    d = descend_along(model.fixed_vector())  # the midpoint subgradient
    if d is None:
        d = descend_along(min_norm_element(model)[2])  # df(u)(-w) = -value
    if d is None:
        raise ArithmeticError("no certified descent direction at a point "
                              "the closed form labels non-stationary")
    return PointClassification(NOT_STATIONARY, descent_direction=d)
