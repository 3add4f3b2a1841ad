"""Dense solver for bounded-variable linear programs with equality rows.

Problems have the shape

    maximize c^T x   subject to   A x = b,  lower <= x <= upper,

with all bounds finite. This is exactly the family needed by the
stationarity certifier (membership of 0 in a sign polytope acting on u) and
the second-subderivative evaluator (maximizing a quadratic form's linear
representation over a face of that polytope). The solver is a two-phase
bounded-variable primal simplex with Bland's rule for the entering variable,
so runs are deterministic and cycling cannot persist. Instances are dense,
with up to a few thousand columns at n = 80, so the simplex keeps the basis
inverse in product form instead of solving with the basis at every pivot. It
recomputes that inverse every _REFACTOR_EVERY basis changes, and before any
ratio test whose entering column has an entry small enough for the drift of
the product form to decide which row blocks.

Every LP, with or without equality rows, runs the same two phases. Two
shapes of the epigraph program of feasibility_min_infinity_norm() are
answered in closed form without a pivot: a box with no free column, where
the optimum is ||A lower||_inf, and a box whose point nearest 0 has
A x = 0, where the optimum is 0.

Every OPTIMAL result carries the row duals of its final basis, read from the
basis inverse the simplex keeps; feasibility_min_infinity_norm() reads a
certificate w of its value from them.

The feasibility tolerance EPS_LP is a module constant, like the pivoting
tolerances and the two recompute triggers: a solve accepts equality rows
met to within EPS_LP, and the callers in stationarity read the same
constant as their zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest equality-row residual an OPTIMAL result may carry.
EPS_LP = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"

# Why a solve did not end OPTIMAL.
SINGULAR_BASIS = "singular basis"
PIVOT_BUDGET = "pivot budget exhausted"
RESIDUAL_ABOVE_EPS = "residual above eps"
ROWS_UNMET = "equality rows unmet after phase 1"

# Nonbasic variables sit at a bound; the basic ones are solved from A x = b.
_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

_REDUCED_COST_TOL = 1e-10
_RATIO_TOL = 1e-11
# The kept basis inverse is recomputed after this many basis changes, and
# whenever an entry of the entering column is no larger than _FRESH_BELOW
# (and above _RATIO_TOL, so it takes part in the ratio test).
_REFACTOR_EVERY = 64
_FRESH_BELOW = 1e-7


class NumericalFailureError(RuntimeError):
    """An LP that should have solved did not; the message gives its reason."""


def _box(lower, upper, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, A) as float arrays (k,), (k,), (m, k) with lower <= upper;
    each caller checks finiteness in its own one pass over all of its data."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or lower.shape != (a.shape[1],) or upper.shape != lower.shape:
        raise ValueError("inconsistent problem dimensions")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    return lower, upper, a


@dataclass
class BoxEqLP:
    lower: np.ndarray      # (k,)
    upper: np.ndarray      # (k,)
    eq_matrix: np.ndarray  # (m, k)
    eq_rhs: np.ndarray     # (m,)
    objective: np.ndarray  # (k,), maximized

    def __post_init__(self):
        self.lower, self.upper, self.eq_matrix = _box(self.lower, self.upper, self.eq_matrix)
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        if self.objective.size != self.lower.size:
            raise ValueError("inconsistent problem dimensions")
        if self.eq_rhs.size != self.eq_matrix.shape[0]:
            raise ValueError("eq_rhs length does not match eq_matrix rows")
        for arr in (self.lower, self.upper, self.eq_matrix, self.eq_rhs, self.objective):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all problem data must be finite")


@dataclass
class LPResult:
    status: str
    value: float
    solution: np.ndarray | None
    residual_norm: float
    reason: str | None = None  # set whenever status is not OPTIMAL
    duals: np.ndarray | None = None  # (m,) row duals y, set when OPTIMAL


def _refresh(a, basis, binv):
    """Overwrite binv with a fresh inverse of a[:, basis]; False when singular."""
    try:
        binv[:] = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError:
        return False
    return True


def _simplex(a, lo, hi, c, x, vstat, basis, binv, changes, budget):
    """Run primal pivots in place on at least one row; return (pivots_used,
    stop, changes), where stop is None at optimality, else PIVOT_BUDGET or
    SINGULAR_BASIS.

    binv holds the inverse of a[:, basis] and is kept in place in product
    form (Dantzig & Orchard-Hays, 1954): each basis change updates it by one
    rank-one step, so pricing and the entering column cost a product with
    binv rather than a fresh solve. changes counts the basis changes since
    binv was last recomputed; np.linalg.inv recomputes it after
    _REFACTOR_EVERY of them, and before a ratio test whose entering column
    has an entry in (_RATIO_TOL, _FRESH_BELOW], where the drift of the
    product form could flip which rows block.
    """
    pivots = 0
    while True:
        y = binv.T @ c[basis]
        d = c - (a.T @ y)
        eligible = (
            (((vstat == _AT_LOWER) & (d > _REDUCED_COST_TOL))
             | ((vstat == _AT_UPPER) & (d < -_REDUCED_COST_TOL)))
            & (hi - lo > 0.0)
        )
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return pivots, None, changes
        if pivots >= budget:
            return pivots, PIVOT_BUDGET, changes
        enter = int(idx[0])  # Bland: smallest eligible index
        direction = 1.0 if vstat[enter] == _AT_LOWER else -1.0

        col = binv @ a[:, enter]
        size = np.abs(col)
        if changes and np.any((size > _RATIO_TOL) & (size <= _FRESH_BELOW)):
            if not _refresh(a, basis, binv):
                return pivots, SINGULAR_BASIS, changes
            changes = 0
            col = binv @ a[:, enter]
        t_flip = hi[enter] - lo[enter]
        g = direction * col
        xb = x[basis]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_down = np.where(g > _RATIO_TOL, (xb - lo[basis]) / g, np.inf)
            t_up = np.where(g < -_RATIO_TOL, (hi[basis] - xb) / (-g), np.inf)
        t_rows = np.maximum(np.minimum(t_down, t_up), 0.0)
        t_min_rows = float(t_rows.min(initial=np.inf))  # inf without rows

        if t_flip <= t_min_rows:
            # The entering variable crosses to its other bound; basis unchanged.
            x[basis] = xb - direction * t_flip * col
            x[enter] = hi[enter] if vstat[enter] == _AT_LOWER else lo[enter]
            vstat[enter] = _AT_UPPER if vstat[enter] == _AT_LOWER else _AT_LOWER
        else:
            t_star = t_min_rows
            tie = 1e-12 * max(1.0, t_star)
            rows = np.flatnonzero(t_rows <= t_star + tie)
            # Bland again: among blocking rows, evict the smallest variable index.
            leave_row = int(rows[np.argmin(basis[rows])])
            leaving = int(basis[leave_row])
            x[basis] = xb - direction * t_star * col
            x[enter] += direction * t_star
            if t_down[leave_row] <= t_up[leave_row]:
                x[leaving] = lo[leaving]
                vstat[leaving] = _AT_LOWER
            else:
                x[leaving] = hi[leaving]
                vstat[leaving] = _AT_UPPER
            basis[leave_row] = enter
            vstat[enter] = _BASIC
            changes += 1
            if changes >= _REFACTOR_EVERY:
                if not _refresh(a, basis, binv):
                    return pivots, SINGULAR_BASIS, changes
                changes = 0
            else:
                # Eta step: row leave_row of binv is divided by the pivot and
                # eliminated from every other row, so binv @ a[:, enter] = e_r.
                pivot_row = binv[leave_row] / col[leave_row]
                binv -= np.outer(col, pivot_row)
                binv[leave_row] = pivot_row
        pivots += 1


def solve(lp: BoxEqLP) -> LPResult:
    """Maximize over the box-equality feasible set.

    Phase 1 drives artificial slack on each row to zero (INFEASIBLE when it
    cannot); phase 2 then optimizes the real objective with the artificials
    pinned at zero. Phase 1 starts from the artificial basis diag(art_sign),
    which is its own inverse, and phase 2 continues from the inverse phase 1
    kept. Pivots in both phases share one budget of 10 * (k + m)^2, after
    which the result is NUMERICAL_FAILURE. Every result that is not OPTIMAL
    says why in its reason; an OPTIMAL one carries the row duals of its
    final basis, the prices of the last pricing step, read from the kept
    inverse. Without equality rows both phases still run: phase 1 has
    nothing to do, and phase 2 flips each variable whose cost is beyond the
    reduced-cost tolerance to the bound that cost points to.
    """
    a = lp.eq_matrix
    b = lp.eq_rhs
    m, k = a.shape
    budget = 10 * (k + m) ** 2

    # Structural variables start at the bound closer to zero.
    start_low = np.abs(lp.lower) <= np.abs(lp.upper)
    x = np.where(start_low, lp.lower, lp.upper).astype(float)
    vstat = np.where(start_low, _AT_LOWER, _AT_UPPER).astype(int)

    r = b - a @ x
    art_sign = np.where(r >= 0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(art_sign)])
    lo1 = np.concatenate([lp.lower, np.zeros(m)])
    hi1 = np.concatenate([lp.upper, np.abs(r)])
    x1 = np.concatenate([x, np.abs(r)])
    vstat1 = np.concatenate([vstat, np.full(m, _BASIC)])
    basis = np.arange(k, k + m)
    binv = np.diag(art_sign)  # the artificial basis is its own inverse

    c1 = np.concatenate([np.zeros(k), -np.ones(m)])
    used, stop, changes = _simplex(a1, lo1, hi1, c1, x1, vstat1, basis, binv, 0, budget)
    if stop:
        return LPResult(NUMERICAL_FAILURE, np.nan, None, np.nan, f"{stop} in phase 1")
    infeas = float(np.abs(b - a @ x1[:k]).max(initial=0.0))
    if infeas > EPS_LP:
        return LPResult(INFEASIBLE, np.nan, None, infeas, ROWS_UNMET)

    # Pin artificials at zero so phase 2 cannot reopen the rows.
    lo1[k:] = 0.0
    hi1[k:] = 0.0
    x1[k:] = 0.0
    c2 = np.concatenate([lp.objective, np.zeros(m)])
    _, stop, _ = _simplex(a1, lo1, hi1, c2, x1, vstat1, basis, binv, changes, budget - used)
    if stop:
        return LPResult(NUMERICAL_FAILURE, np.nan, None, np.nan, f"{stop} in phase 2")

    xs = x1[:k]
    residual_norm = float(np.abs(a @ xs - b).max(initial=0.0))
    if residual_norm > EPS_LP:
        return LPResult(NUMERICAL_FAILURE, np.nan, xs, residual_norm, RESIDUAL_ABOVE_EPS)
    return LPResult(OPTIMAL, float(lp.objective @ xs), xs, residual_norm,
                    duals=binv.T @ c2[basis])


def feasibility_min_infinity_norm(lower, upper, eq_matrix):
    """(value, x, w): min over the box of ||A x||_inf, a minimizing x, and a
    dual certificate w, by an epigraph reformulation.

    Introduces t >= 0 with rows (A x)_i - t + p_i = 0 and (A x)_i + t - q_i = 0
    for slack p, q in [0, 2 T], where T bounds |A x| over the box, and
    maximizes -t. A value <= EPS_LP certifies that 0 lies in A . box.

    w = y[:m] + y[m:] adds the duals of the two rows of each i. For a positive
    value, ||w||_1 = 1 and the least <w, A x> over the box,
    sum_j min(lower_j (A^T w)_j, upper_j (A^T w)_j), equals the value, which
    proves it by weak duality (Boyd & Vandenberghe, Convex Optimization, 5.1.6).

    A presolve answers two cases without building the program (Andersen &
    Andersen, "Presolving in linear programming", Math. Programming 71,
    1995). With no free column (lower == upper) it returns ||A lower||_inf,
    x = lower and w = sign(r_i) e_i for the first i maximizing |r_i|,
    r = A lower. When A mid = 0 at mid = clip(0, lower, upper), a norm is
    never below 0, so it returns (0.0, mid, 0). This is the stationarity LP
    at +-ustar, where every residual entry vanishes, and every box on which
    A x is 0 throughout. Without rows the value is 0 at mid.
    """
    lower, upper, a = _box(lower, upper, eq_matrix)
    m, k = a.shape

    if m == 0:
        # No row, so no t_cap: the bounds are all the data there is to check.
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("all problem data must be finite")
        return 0.0, np.clip(0.0, lower, upper), np.zeros(0)
    with np.errstate(invalid="ignore"):  # 0 * inf is nan, which the check below rejects
        row_bound = np.maximum(np.abs(a * lower), np.abs(a * upper)).sum(axis=1)
    t_cap = float(row_bound.max())
    if not math.isfinite(t_cap):
        # Every entry of A and of both bounds enters t_cap, so this is the
        # check solve makes, in time for the presolve exits.
        raise ValueError("all problem data must be finite")
    if np.array_equal(lower, upper):
        # lower is the only feasible x.
        r = a @ lower
        i = int(np.abs(r).argmax())
        w = np.zeros(m)
        w[i] = np.sign(r[i])
        return float(abs(r[i])) + 0.0, lower, w
    mid = np.clip(0.0, lower, upper)
    if not np.any(a @ mid):
        # A norm is never negative, so x = mid attains the least value 0.
        return 0.0, mid, np.zeros(m)

    # Variable layout: [x (k), t (1), p (m), q (m)].
    total = k + 1 + 2 * m
    lo = np.concatenate([lower, [0.0], np.zeros(2 * m)])
    hi = np.concatenate([upper, [t_cap], np.full(2 * m, 2.0 * t_cap)])
    rows = np.zeros((2 * m, total))
    rows[:m, :k] = a
    rows[:m, k] = -1.0
    rows[:m, k + 1:k + 1 + m] = np.eye(m)
    rows[m:, :k] = a
    rows[m:, k] = 1.0
    rows[m:, k + 1 + m:] = -np.eye(m)
    c = np.zeros(total)
    c[k] = -1.0

    res = solve(BoxEqLP(lo, hi, rows, np.zeros(2 * m), c))
    if res.status != OPTIMAL:
        # The reformulation is feasible for every box, so this is numerics.
        raise NumericalFailureError(
            f"epigraph solve ended with status {res.status}: {res.reason}")
    w = res.duals[:m] + res.duals[m:]
    return max(-res.value, 0.0) + 0.0, res.solution[:k], w  # + 0.0 normalizes -0.0
