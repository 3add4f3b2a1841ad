"""Second-order analysis of f(u) = 0.5 ||u u^T - ustar ustar^T||_1.

At a stationary point the second subderivative of f at u for v = 0 is +inf
off the critical cone and otherwise equals

    d2f(u;0)(w) = max { <Q, w w^T> : Q in Q(u) },

where Q(u) collects the symmetric matrices inside the residual sign boxes
that annihilate u. At a spurious point the face is (on the support of ustar)
the singleton -Sign(ustar ustar^T), which gives the escape value
-||ustar||_1^2 along w = +-ustar - u. The numeric estimator approximates the
liminf defining the subderivative directly from objective values and is used
to cross-check the linear-programming route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_ZERO, _pair, as_vector, objective, subdifferential_model
from .firstorder import EPS_DIR, NotStationaryError
from .lpcore import EPS_LP, OPTIMAL, BoxEqLP, NumericalFailureError, solve
from .stationarity import (
    GROUND_TRUTH_MINUS,
    GROUND_TRUTH_PLUS,
    SPURIOUS,
    is_stationary_closed_form,
    min_norm_element,
)

GLOBAL_MIN = "global_min"
SPURIOUS_STATIONARY = "spurious_stationary"
NOT_STATIONARY = "not_stationary"

# Numeric estimator defaults: geometric t-ladder and a ball around the
# direction whose radius shrinks with t (the liminf ranges over w' -> w).
T0 = 1e-2
RHO = 0.5
K_MAX = 12
DELTA_W = 1e-3
BALL_SAMPLES = 64


def _require_stationary(u, ustar, eps_zero):
    verdict = is_stationary_closed_form(u, ustar, eps_zero)
    if not verdict.is_stationary:
        raise NotStationaryError("second subderivative at v = 0 requires a stationary point")
    return verdict


def second_subderivative(u, ustar, w, eps_zero: float = EPS_ZERO,
                         eps_lp: float = EPS_LP) -> float:
    """d2f(u;0)(w): +inf off the critical cone, else an LP over the face."""
    u, ustar = _pair(u, ustar)
    w = as_vector(w)
    if w.size != u.size:
        raise ValueError("direction dimension mismatch")
    _require_stationary(u, ustar, eps_zero)
    return _second_subderivative(u, ustar, w, eps_zero, eps_lp)


def _second_subderivative(u, ustar, w, eps_zero, eps_lp):
    """second_subderivative at a point already certified stationary.

    The face objective <Q, w w^T> splits into the fixed-entry constant plus
    w_i^2 per free diagonal coordinate and 2 w_i w_j per free off-diagonal
    pair.
    """
    model = subdifferential_model(u, ustar, eps_zero)
    if model.support(w) > EPS_DIR:
        return math.inf

    constant = float(w @ model.fixed_sign @ w)
    p = len(model.free_pairs)
    if p == 0:
        return constant
    i, j = model.free_pairs.T
    coeffs = np.where(i == j, 1.0, 2.0) * w[i] * w[j]
    lp = BoxEqLP(-np.ones(p), np.ones(p), model.pair_matrix(), -model.fixed_vector(), coeffs)
    res = solve(lp, eps_lp)
    if res.status != OPTIMAL:
        raise NumericalFailureError(f"face LP ended with status {res.status}: {res.reason}")
    return constant + res.value


def escape_curvature(u, ustar, eps_zero: float = EPS_ZERO,
                     eps_lp: float = EPS_LP):
    """Escape direction w = ustar - u at a spurious point, with its curvature.

    The value is -||ustar||_1^2; the LP route must reproduce it to 1e-9,
    otherwise something is inconsistent and we refuse to return.
    """
    u, ustar = _pair(u, ustar)
    verdict = _require_stationary(u, ustar, eps_zero)
    if verdict.kind != SPURIOUS:
        raise ValueError("escape curvature is defined at spurious stationary points")
    return _escape_curvature(u, ustar, eps_zero, eps_lp)


def _escape_curvature(u, ustar, eps_zero, eps_lp):
    """escape_curvature at a point already certified spurious."""
    w = ustar - u
    value = _second_subderivative(u, ustar, w, eps_zero, eps_lp)
    expected = -float(np.abs(ustar).sum()) ** 2
    if abs(value - expected) > 1e-9:
        raise ArithmeticError(
            f"curvature {value} disagrees with -||ustar||_1^2 = {expected}")
    return w, value


def second_subderivative_numeric(u, ustar, w, t0: float = T0, rho: float = RHO,
                                 k_max: int = K_MAX, delta_w: float | None = None,
                                 ball_samples: int = BALL_SAMPLES,
                                 seed: int = 0) -> float:
    """Grid estimate of liminf [f(u + t w') - f(u)] / (t^2 / 2).

    For each t = t0 * rho^k the direction cloud is w itself plus
    ball_samples points uniform in the ball of radius delta_w * t around w;
    the estimate is the minimum quotient over the whole grid. Sample draws
    are keyed by k so enlarging k_max or ball_samples only extends the grid,
    never reshuffles it, keeping the estimate monotone in both parameters.
    """
    u, ustar = _pair(u, ustar)
    w = as_vector(w)
    if delta_w is None:
        delta_w = DELTA_W * float(np.linalg.norm(w))
    f0 = objective(u, ustar)
    best = math.inf
    for k in range(k_max + 1):
        t = t0 * rho ** k
        rng = np.random.default_rng([seed, k])
        cloud = [w]
        for _ in range(ball_samples):
            g = rng.standard_normal(w.size)
            norm = float(np.linalg.norm(g))
            radius = delta_w * t * rng.uniform() ** (1.0 / max(w.size, 1))
            cloud.append(w if norm == 0.0 else w + radius * g / norm)
        for wp in cloud:
            quotient = (objective(u + t * wp, ustar) - f0) / (0.5 * t * t)
            best = min(best, quotient)
    return best


@dataclass
class PointClassification:
    kind: str
    escape_direction: np.ndarray | None = None
    curvature: float | None = None
    descent_direction: np.ndarray | None = None


def classify_point(u, ustar, eps_zero: float = EPS_ZERO,
                   eps_lp: float = EPS_LP) -> PointClassification:
    """Global minimum, spurious stationary point, or descent direction.

    Second-order stationarity singles out the global minima, so every
    spurious point ships with an escape direction of negative curvature and
    every non-stationary point with a verified descent direction. The descent
    direction is the negated midpoint subgradient when that works; otherwise
    the negated minimum-infinity-norm subdifferential element, and as a last
    resort -w, the dual certificate of that same min-norm solve, which
    minimizes df(u) over the l1 ball and is negative whenever 0 is outside
    the subdifferential. All three are read from one subdifferential model,
    whose support function checks them.
    """
    u, ustar = _pair(u, ustar)
    verdict = is_stationary_closed_form(u, ustar, eps_zero)
    if verdict.kind in (GROUND_TRUTH_PLUS, GROUND_TRUTH_MINUS):
        return PointClassification(GLOBAL_MIN)
    if verdict.kind == SPURIOUS:
        if np.abs(ustar).max() <= eps_zero:
            # ustar = 0 makes u = 0 the unique stationary point and the
            # global minimum; there is nothing to escape from.
            return PointClassification(GLOBAL_MIN)
        w, value = _escape_curvature(u, ustar, eps_zero, eps_lp)
        return PointClassification(SPURIOUS_STATIONARY, escape_direction=w, curvature=value)

    model = subdifferential_model(u, ustar, eps_zero)

    def descend_along(g):
        norm = float(np.linalg.norm(g))
        if norm <= eps_zero:
            return None
        d = -g / norm
        if model.support(d) < -EPS_DIR:
            return d
        return None

    d = descend_along(model.fixed_vector())  # the midpoint subgradient
    if d is None:
        _, _, element, w = min_norm_element(model, eps_lp)
        d = descend_along(element)
        if d is None:
            d = descend_along(w)  # df(u)(-w) = -value
    if d is None:
        raise ArithmeticError("no certified descent direction at a point "
                              "the closed form labels non-stationary")
    return PointClassification(NOT_STATIONARY, descent_direction=d)
