"""Dense solver for bounded-variable linear programs with equality rows.

Problems have the shape

    maximize c^T x   subject to   A x = b,  lower <= x <= upper,

with all bounds finite. This is exactly the family needed by the
stationarity certifier (membership of 0 in a sign polytope acting on u) and
the second-subderivative evaluator (maximizing a quadratic form's linear
representation over a face of that polytope). The solver is a two-phase
bounded-variable primal simplex with Bland's rule for the entering variable,
so runs are deterministic and cycling cannot persist. Instances here are tiny
and dense; robustness is worth more than speed.

Two shapes are answered in closed form without a pivot: solve() with no
equality rows (m = 0), and the epigraph program of
feasibility_min_infinity_norm() when the box has no free column or no row
can move, where the optimum is ||A x0||_inf.

Every OPTIMAL result carries the row duals of its final basis, from which
feasibility_min_infinity_norm() reads a certificate w of its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class NumericalFailureError(RuntimeError):
    """An LP that should have solved did not; the message gives its reason."""


@dataclass
class BoxEqLP:
    lower: np.ndarray      # (k,)
    upper: np.ndarray      # (k,)
    eq_matrix: np.ndarray  # (m, k)
    eq_rhs: np.ndarray     # (m,)
    objective: np.ndarray  # (k,), maximized

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        if self.eq_matrix.ndim != 2:
            self.eq_matrix = self.eq_matrix.reshape(-1, self.lower.size)
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        k = self.lower.size
        m = self.eq_matrix.shape[0]
        if self.upper.size != k or self.objective.size != k or self.eq_matrix.shape[1] != k:
            raise ValueError("inconsistent problem dimensions")
        if self.eq_rhs.size != m:
            raise ValueError("eq_rhs length does not match eq_matrix rows")
        for arr in (self.lower, self.upper, self.eq_matrix, self.eq_rhs, self.objective):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all problem data must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class LPResult:
    status: str
    value: float
    solution: np.ndarray | None
    residual_norm: float
    reason: str | None = None  # set whenever status is not OPTIMAL
    duals: np.ndarray | None = None  # (m,) row duals y, set when OPTIMAL


def _simplex(a, b, lo, hi, c, x, vstat, basis, budget):
    """Run primal pivots in place on at least one row; return (pivots_used,
    stop, y), where stop is None at optimality, else PIVOT_BUDGET or
    SINGULAR_BASIS. At optimality y solves B^T y = c_B for the final basis B:
    the row duals from the pricing step that found no entering variable."""
    pivots = 0
    while True:
        if pivots >= budget:
            return pivots, PIVOT_BUDGET, None
        bmat = a[:, basis]
        try:
            y = np.linalg.solve(bmat.T, c[basis])
        except np.linalg.LinAlgError:
            return pivots, SINGULAR_BASIS, None
        d = c - (a.T @ y)
        eligible = (
            (((vstat == _AT_LOWER) & (d > _REDUCED_COST_TOL))
             | ((vstat == _AT_UPPER) & (d < -_REDUCED_COST_TOL)))
            & (hi - lo > 0.0)
        )
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return pivots, None, y
        enter = int(idx[0])  # Bland: smallest eligible index
        direction = 1.0 if vstat[enter] == _AT_LOWER else -1.0

        try:
            col = np.linalg.solve(bmat, a[:, enter])
        except np.linalg.LinAlgError:
            return pivots, SINGULAR_BASIS, None
        t_flip = hi[enter] - lo[enter]
        g = direction * col
        xb = x[basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_down = np.where(g > _RATIO_TOL, (xb - lo[basis]) / g, np.inf)
            t_up = np.where(g < -_RATIO_TOL, (hi[basis] - xb) / (-g), np.inf)
        t_rows = np.maximum(np.minimum(t_down, t_up), 0.0)
        t_min_rows = float(t_rows.min())

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
        pivots += 1


def solve(lp: BoxEqLP, eps_lp: float = EPS_LP) -> LPResult:
    """Maximize over the box-equality feasible set.

    Phase 1 drives artificial slack on each row to zero (INFEASIBLE when it
    cannot); phase 2 then optimizes the real objective with the artificials
    pinned at zero. Pivots in both phases share one budget of
    10 * (k + m)^2, after which the result is NUMERICAL_FAILURE. Every
    result that is not OPTIMAL says why in its reason; an OPTIMAL one carries
    the row duals of its final basis. Without equality rows the maximum is
    closed form: each variable sits at the bound its cost points to, and at
    its start where the cost is within the reduced-cost tolerance of 0.
    """
    if eps_lp <= 0:
        raise ValueError("eps_lp must be positive")
    a = lp.eq_matrix
    b = lp.eq_rhs
    m, k = a.shape
    budget = 10 * (k + m) ** 2

    # Structural variables start at the bound closer to zero.
    start_low = np.abs(lp.lower) <= np.abs(lp.upper)
    x = np.where(start_low, lp.lower, lp.upper).astype(float)
    if m == 0:
        c = lp.objective
        x = np.where(c > _REDUCED_COST_TOL, lp.upper,
                     np.where(c < -_REDUCED_COST_TOL, lp.lower, x))
        return LPResult(OPTIMAL, float(c @ x), x, 0.0, duals=np.zeros(0))
    vstat = np.where(start_low, _AT_LOWER, _AT_UPPER).astype(int)

    r = b - a @ x
    art_sign = np.where(r >= 0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(art_sign)])
    lo1 = np.concatenate([lp.lower, np.zeros(m)])
    hi1 = np.concatenate([lp.upper, np.abs(r)])
    x1 = np.concatenate([x, np.abs(r)])
    vstat1 = np.concatenate([vstat, np.full(m, _BASIC)])
    basis = np.arange(k, k + m)

    c1 = np.concatenate([np.zeros(k), -np.ones(m)])
    used, stop, _ = _simplex(a1, b, lo1, hi1, c1, x1, vstat1, basis, budget)
    if stop:
        return LPResult(NUMERICAL_FAILURE, np.nan, None, np.nan, f"{stop} in phase 1")
    infeas = float(np.abs(b - a @ x1[:k]).max())
    if infeas > eps_lp:
        return LPResult(INFEASIBLE, np.nan, None, infeas, ROWS_UNMET)

    # Pin artificials at zero so phase 2 cannot reopen the rows.
    lo1[k:] = 0.0
    hi1[k:] = 0.0
    x1[k:] = 0.0
    c2 = np.concatenate([lp.objective, np.zeros(m)])
    _, stop, y = _simplex(a1, b, lo1, hi1, c2, x1, vstat1, basis, budget - used)
    if stop:
        return LPResult(NUMERICAL_FAILURE, np.nan, None, np.nan, f"{stop} in phase 2")

    xs = x1[:k]
    residual_norm = float(np.abs(a @ xs - b).max())
    if residual_norm > eps_lp:
        return LPResult(NUMERICAL_FAILURE, np.nan, xs, residual_norm, RESIDUAL_ABOVE_EPS)
    return LPResult(OPTIMAL, float(lp.objective @ xs), xs, residual_norm, duals=y)


def feasibility_min_infinity_norm(lower, upper, eq_matrix, eps_lp: float = EPS_LP):
    """(value, x, w): min over the box of ||A x||_inf, a minimizing x, and a
    dual certificate w, by an epigraph reformulation.

    Introduces t >= 0 with rows (A x)_i - t + p_i = 0 and (A x)_i + t - q_i = 0
    for slack p, q in [0, 2 T], where T bounds |A x| over the box, and
    maximizes -t. A value <= eps_lp certifies that 0 lies in A . box.

    w = y[:m] + y[m:] adds the duals of the two rows of each i. For a positive
    value, ||w||_1 = 1 and the least <w, A x> over the box,
    sum_j min(lower_j (A^T w)_j, upper_j (A^T w)_j), equals the value, which
    proves it by weak duality (Boyd & Vandenberghe, Convex Optimization, 5.1.6).

    A presolve answers two cases without building the program: no free
    column (lower == upper), and no row that can move (every |A_ij| times
    the bound of column j is 0). Both return ||A x0||_inf and x0, where x0
    takes each column's bound closer to 0 (Andersen & Andersen, "Presolving
    in linear programming", Math. Programming 71, 1995), and
    w = sign(r_i) e_i for the first i maximizing |r_i|, r = A x0.
    """
    if eps_lp <= 0:
        raise ValueError("eps_lp must be positive")
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    a = np.asarray(eq_matrix, dtype=float)
    if a.ndim != 2:
        a = a.reshape(-1, lower.size)
    m, k = a.shape
    if lower.size != k or upper.size != k:
        raise ValueError("bounds do not match matrix columns")
    if np.any(lower > upper):
        raise ValueError("empty box")

    start_low = np.abs(lower) <= np.abs(upper)
    x0 = np.where(start_low, lower, upper).astype(float)
    if m == 0:
        return 0.0, x0, np.zeros(0)
    row_bound = np.maximum(np.abs(a * lower), np.abs(a * upper)).sum(axis=1)
    t_cap = float(row_bound.max())
    if t_cap == 0.0 or np.array_equal(lower, upper):
        # x0 is the only feasible x, or every row is 0 on the whole box.
        r = a @ x0
        i = int(np.abs(r).argmax())
        w = np.zeros(m)
        w[i] = np.sign(r[i])
        return float(abs(r[i])) + 0.0, x0, w

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

    res = solve(BoxEqLP(lo, hi, rows, np.zeros(2 * m), c), eps_lp)
    if res.status != OPTIMAL:
        # The reformulation is feasible for every box, so this is numerics.
        raise NumericalFailureError(
            f"epigraph solve ended with status {res.status}: {res.reason}")
    w = res.duals[:m] + res.duals[m:]
    return max(-res.value, 0.0) + 0.0, res.solution[:k], w  # + 0.0 normalizes -0.0
