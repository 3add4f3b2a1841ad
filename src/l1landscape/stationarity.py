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

from .core import EPS_ZERO, SubdifferentialModel, _pair, _points, subdifferential_model
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


def _stationary_kind(u, ustar):
    """Kind label for a stationary point; ustar = 0 makes u = 0 SPURIOUS."""
    if np.abs(ustar).max() <= EPS_ZERO:
        return SPURIOUS
    if np.abs(u - ustar).max() <= EPS_ZERO:
        return GROUND_TRUTH_PLUS
    if np.abs(u + ustar).max() <= EPS_ZERO:
        return GROUND_TRUTH_MINUS
    return SPURIOUS


def is_stationary_closed_form(u, ustar) -> StationarityVerdict:
    """Certify stationarity from the closed-form description of the set."""
    u, ustar = _pair(u, ustar)
    kind = _stationary_kind(u, ustar)
    if kind != SPURIOUS:
        return StationarityVerdict(True, kind, np.zeros((u.size, u.size)), 0.0)

    # With ustar = 0 s vanishes and the test reduces to ||u||_inf <= EPS_ZERO.
    s = np.sign(ustar) * (np.abs(ustar) > EPS_ZERO)
    box_ok = np.all(np.abs(u) <= np.abs(ustar) + EPS_ZERO)
    forced_ok = np.all(np.abs(u[s == 0]) <= EPS_ZERO)
    plane_ok = abs(float(s @ u)) <= EPS_ZERO
    if box_ok and forced_ok and plane_ok:
        # -Sign(ustar ustar^T) annihilates every polytope point and respects
        # the sign boxes of the residual there, so it is a valid witness.
        z = -np.outer(s, s)
        return StationarityVerdict(True, SPURIOUS, z, float(np.abs(z @ u).max()))
    return StationarityVerdict(False, NOT_STATIONARY)


def min_norm_element(model: SubdifferentialModel):
    """(value, free_values, w) for the least-infinity-norm S u.

    The constant fixed_vector() enters through a column pinned to 1, so the
    epigraph solver sees min ||A x||_inf over the free box; the element
    itself is model.fixed_vector() + model.pair_matrix() @ free_values.
    w is the solver's dual certificate: when value > 0, ||w||_1 = 1 and
    model.support(-w) = -value, so -w is the steepest descent direction of f
    over the l1 ball.
    """
    a = np.hstack([model.fixed_vector()[:, None], model.pair_matrix()])
    lower = np.concatenate([[1.0], -np.ones(len(model.free_pairs))])
    value, point, w = feasibility_min_infinity_norm(lower, np.ones(lower.size), a)
    return value, point[1:], w


def is_stationary_lp(u, ustar) -> StationarityVerdict:
    """Certify stationarity by minimizing ||Z u||_inf over the sign polytope.

    The subdifferential is {S u : S in the sign boxes, symmetric}, so 0 lies
    in it exactly when its min-norm element vanishes.
    """
    u, ustar = _pair(u, ustar)
    model = subdifferential_model(u, ustar)
    value, free_values, _ = min_norm_element(model)
    if value > EPS_LP:
        return StationarityVerdict(False, NOT_STATIONARY, None, value)
    witness = model.assemble(np.clip(free_values, -1.0, 1.0))
    return StationarityVerdict(True, _stationary_kind(u, ustar), witness, value)


def _row_dots(a, b) -> np.ndarray:
    """a_k . b_k for each row k of two (K, n) stacks.

    Each product is one BLAS ddot, the kernel behind np.linalg.norm and a
    1-D @, so a row gets the bits of the single-vector call; an elementwise
    (a * b).sum(axis=1) does not, because ddot accumulates with FMA.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(x) -> np.ndarray:
    return np.sqrt(_row_dots(x, x))


def _as_given(values, ndim: int):
    """A (K,) result as a float for a single-point call (ndim 1)."""
    return float(values[0]) if ndim == 1 else values


def project_to_spurious_set(y, ustar):
    """Euclidean projection onto the spurious polytope, with its distance.

    The projection clips y - lam * Sign(ustar) to the box [-|ustar|, |ustar|]
    coordinatewise. With z = Sign(ustar) * y, the hyperplane value
    sum_i clip(z_i - lam, -|ustar_i|, |ustar_i|) is nonincreasing and piecewise
    linear in lam, with breakpoints z_i -+ |ustar_i| over ustar_i != 0. A
    binary search over the sorted breakpoints brackets its root between two
    neighbours, and lam solves the linear piece on the coordinates left
    unclipped there (Kiwiel, Math. Programming 112, 2008).

    y is one point (n,), giving (u (n,), distance float), or a stack (K, n),
    giving (u (K, n), distances (K,)). A stack sorts its breakpoints per row
    and runs the binary searches in lockstep, one bracket per row; a single
    point is the one-row stack.
    """
    y, ustar = _points(y, ustar)
    if np.abs(ustar).max() == 0.0:
        raise ValueError("ustar must be nonzero")
    ys = y.reshape(-1, ustar.size)
    s = np.sign(ustar)
    cap = np.abs(ustar)
    on = s != 0
    z, c = ys[:, on] * s[on], cap[on]
    breaks = np.sort(np.concatenate([z - c, z + c], axis=1), axis=1)
    rows = np.arange(len(ys))
    # the plane value is > 0 at breaks[:, 0], < 0 at breaks[:, -1]
    lo = np.zeros(len(ys), dtype=np.intp)
    hi = np.full(len(ys), breaks.shape[1] - 1)
    open_rows = rows[hi - lo > 1]
    while open_rows.size:
        mid = (lo[open_rows] + hi[open_rows]) // 2
        above = np.clip(z[open_rows] - breaks[open_rows, mid][:, None], -c, c).sum(axis=1) > 0.0
        lo[open_rows[above]] = mid[above]
        hi[open_rows[~above]] = mid[~above]
        open_rows = open_rows[hi[open_rows] - lo[open_rows] > 1]
    lam = 0.5 * (breaks[rows, lo] + breaks[rows, hi])
    shifted = ys - lam[:, None] * s
    u = np.clip(shifted, -cap, cap)
    free = on & (np.abs(shifted) < cap)
    # A row with no free coordinate has its root on a flat piece, which u
    # already meets. The others solve the piece with masked dot products:
    # s[free] . y[free] + s[~free] . u[~free] over the unclipped count. The
    # zeros add nothing, but from n = 16 on they move the other entries
    # between ddot's SIMD accumulators, so the last bit of lam can differ
    # from that of a dot over the compacted entries.
    solve = rows[free.any(axis=1)]
    if solve.size:
        mask = free[solve]
        lam_free = (_row_dots(np.where(mask, s, 0.0), ys[solve])
                    + _row_dots(np.where(mask, 0.0, s), u[solve])) / mask.sum(axis=1)
        u[solve] = np.clip(ys[solve] - lam_free[:, None] * s, -cap, cap)
    dist = _row_norms(ys - u)
    return (u[0], float(dist[0])) if y.ndim == 1 else (u, dist)


def distance_to_ground_truths(u, ustar):
    """min(||u - ustar||, ||u + ustar||) for one point (n,), as a float, or
    for each row of a stack (K, n), as a (K,) array."""
    u, ustar = _points(u, ustar)
    rows = u.reshape(-1, ustar.size)
    dist = np.minimum(_row_norms(rows - ustar), _row_norms(rows + ustar))
    return _as_given(dist, u.ndim)


def _spurious_distance(u, ustar):
    """Distance to the spurious set ({0} when ustar = 0) of one point (n,),
    as a float, or of each row of a stack (K, n), as a (K,) array, for
    arrays the caller has validated."""
    if np.abs(ustar).max() == 0.0:
        return _as_given(_row_norms(u.reshape(-1, ustar.size)), u.ndim)
    return project_to_spurious_set(u, ustar)[1]


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
