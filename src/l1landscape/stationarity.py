"""Stationarity certificates for f(u) = 0.5 ||u u^T - ustar ustar^T||_1.

The stationary set has a closed-form description: it is the union of the two
ground truths {+ustar, -ustar} and the polytope

    { u : |u_i| <= |ustar_i| for all i,  sum_i Sign(ustar_i) u_i = 0 },

where coordinates with ustar_i = 0 force u_i = 0. Points of the polytope
other than +-ustar are called spurious. This module certifies membership two
independent ways: by checking the closed form directly, and by solving a
linear feasibility problem for 0 in the subdifferential polytope
(Sign(u u^T - ustar ustar^T) ∩ Sym) . u. It also provides the Euclidean
projection onto the spurious polytope and a Monte Carlo estimate of how far
a Gaussian ground truth sits from the hyperplane part of that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EPS_ZERO, SubdifferentialModel, _pair, as_vector, subdifferential_model
from .lpcore import EPS_LP, feasibility_min_infinity_norm

GROUND_TRUTH_PLUS = "ground_truth_plus"
GROUND_TRUTH_MINUS = "ground_truth_minus"
SPURIOUS = "spurious"
NOT_STATIONARY = "not_stationary"


@dataclass
class StationarityVerdict:
    is_stationary: bool
    kind: str
    witness: np.ndarray | None = field(default=None, repr=False)
    violation: float | None = None


def _stationary_kind(u, ustar, eps_zero):
    """Kind label for a stationary point; ustar = 0 makes u = 0 SPURIOUS."""
    if np.abs(ustar).max() <= eps_zero:
        return SPURIOUS
    if np.abs(u - ustar).max() <= eps_zero:
        return GROUND_TRUTH_PLUS
    if np.abs(u + ustar).max() <= eps_zero:
        return GROUND_TRUTH_MINUS
    return SPURIOUS


def is_stationary_closed_form(u, ustar, eps_zero: float = EPS_ZERO) -> StationarityVerdict:
    """Certify stationarity from the closed-form description of the set."""
    u, ustar = _pair(u, ustar)
    kind = _stationary_kind(u, ustar, eps_zero)
    if kind != SPURIOUS:
        return StationarityVerdict(True, kind, np.zeros((u.size, u.size)), 0.0)

    # With ustar = 0 s vanishes and the test reduces to ||u||_inf <= eps_zero.
    s = np.sign(ustar) * (np.abs(ustar) > eps_zero)
    box_ok = np.all(np.abs(u) <= np.abs(ustar) + eps_zero)
    forced_ok = np.all(np.abs(u[s == 0]) <= eps_zero)
    plane_ok = abs(float(s @ u)) <= eps_zero
    if box_ok and forced_ok and plane_ok:
        # -Sign(ustar ustar^T) annihilates every polytope point and respects
        # the sign boxes of the residual there, so it is a valid witness.
        z = -np.outer(s, s)
        return StationarityVerdict(True, SPURIOUS, z, float(np.abs(z @ u).max()))
    return StationarityVerdict(False, NOT_STATIONARY)


def min_norm_element(model: SubdifferentialModel, eps_lp: float = EPS_LP):
    """(value, free_values, element, w) for the least-infinity-norm S u.

    The constant fixed_vector() enters through a column pinned to 1, so the
    epigraph solver sees min ||A x||_inf over the free box; element is A x.
    w is the solver's dual certificate: when value > 0, ||w||_1 = 1 and
    model.support(-w) = -value, so -w is the steepest descent direction of f
    over the l1 ball.
    """
    a = np.hstack([model.fixed_vector()[:, None], model.pair_matrix()])
    lower = np.concatenate([[1.0], -np.ones(len(model.free_pairs))])
    value, point, w = feasibility_min_infinity_norm(lower, np.ones(lower.size), a, eps_lp)
    return value, point[1:], a @ point, w


def is_stationary_lp(u, ustar, eps_zero: float = EPS_ZERO,
                     eps_lp: float = EPS_LP) -> StationarityVerdict:
    """Certify stationarity by minimizing ||Z u||_inf over the sign polytope.

    The subdifferential is {S u : S in the sign boxes, symmetric}, so 0 lies
    in it exactly when its min-norm element vanishes.
    """
    u, ustar = _pair(u, ustar)
    model = subdifferential_model(u, ustar, eps_zero)
    value, free_values, _, _ = min_norm_element(model, eps_lp)
    if value > eps_lp:
        return StationarityVerdict(False, NOT_STATIONARY, None, value)
    witness = model.assemble(np.clip(free_values, -1.0, 1.0))
    return StationarityVerdict(True, _stationary_kind(u, ustar, eps_zero), witness, value)


def project_to_spurious_set(y, ustar):
    """Euclidean projection onto the spurious polytope, with its distance.

    The projection clips y - lam * Sign(ustar) to the box [-|ustar|, |ustar|]
    coordinatewise. With z = Sign(ustar) * y, the hyperplane value
    sum_i clip(z_i - lam, -|ustar_i|, |ustar_i|) is nonincreasing and piecewise
    linear in lam, with breakpoints z_i -+ |ustar_i| over ustar_i != 0. A
    binary search over the sorted breakpoints brackets its root between two
    neighbours, and lam solves the linear piece on the coordinates left
    unclipped there (Kiwiel, Math. Programming 112, 2008).
    """
    y, ustar = _pair(y, ustar)
    if np.abs(ustar).max() == 0.0:
        raise ValueError("ustar must be nonzero")
    s = np.sign(ustar)
    cap = np.abs(ustar)
    on = s != 0
    z, c = s[on] * y[on], cap[on]
    breaks = np.sort(np.concatenate([z - c, z + c]))
    lo, hi = 0, breaks.size - 1  # the plane value is > 0 at breaks[0], < 0 at breaks[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.clip(z - breaks[mid], -c, c).sum() > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (breaks[lo] + breaks[hi])
    u = np.clip(y - lam * s, -cap, cap)
    free = on & (np.abs(y - lam * s) < cap)
    # free is empty only where the root is a flat piece, which u already meets.
    if free.any():
        lam = (float(s[free] @ y[free]) + float(s[~free] @ u[~free])) / int(free.sum())
        u = np.clip(y - lam * s, -cap, cap)
    return u, float(np.linalg.norm(y - u))


def distance_to_ground_truths(u, ustar) -> float:
    u, ustar = _pair(u, ustar)
    return float(min(np.linalg.norm(u - ustar), np.linalg.norm(u + ustar)))


def _spurious_distance(u, ustar) -> float:
    """Distance to the spurious set ({0} when ustar = 0) for arrays the
    caller has validated; the subgradient runs call it on every iterate."""
    if np.abs(ustar).max() == 0.0:
        return float(np.linalg.norm(u))
    return project_to_spurious_set(u, ustar)[1]


def distance_to_stationary_set(u, ustar) -> float:
    """Distance to the full stationary set: polytope and the two ground truths."""
    u, ustar = _pair(u, ustar)
    return min(_spurious_distance(u, ustar), distance_to_ground_truths(u, ustar))


def expected_gaussian_separation(n: int) -> float:
    """E ||ustar||_1 / sqrt(n) for a standard Gaussian ustar: sqrt(2 n / pi)."""
    return math.sqrt(2.0 * n / math.pi)


def gaussian_separation(n: int, trials: int, seed: int = 0):
    """Monte Carlo mean and standard error of ||ustar||_1 / sqrt(n).

    This is the exact distance from a Gaussian ground truth to the hyperplane
    {u : Sign(ustar)^T u = 0} containing the spurious polytope; its mean is
    sqrt(2 n / pi), so the separation grows with dimension. Trial t draws
    from the stream seeded with [seed, t], so distinct seeds give independent
    sets of streams; trials are merged in trial order, which keeps the
    estimate reproducible under parallel evaluation.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    root = math.sqrt(n)
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        values[t] = np.abs(rng.standard_normal(n)).sum() / root
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
