from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import lpcore
from l1landscape.lpcore import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    ROWS_UNMET,
    BoxEqLP,
    NumericalFailureError,
    feasibility_min_infinity_norm,
    solve,
)


def brute_force_value(lp):
    """Best objective over all basic feasible points, None when infeasible.

    Every extreme point of {l <= x <= u, A x = b} fixes some coordinate
    subset at bounds and solves the equality system on the rest, so
    enumerating (basis choice) x (bound pattern) visits all of them. Only
    meant for small instances; the search is exponential in k.
    """
    a, b = lp.eq_matrix, lp.eq_rhs
    lo, hi = lp.lower, lp.upper
    m, k = a.shape
    best = None
    if m == 0:
        x = np.where(lp.objective >= 0, hi, lo)
        return float(lp.objective @ x)
    for basic in combinations(range(k), m):
        sub = a[:, basic]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        nonbasic = [j for j in range(k) if j not in basic]
        for pattern in product(*[(lo[j], hi[j]) for j in nonbasic]):
            x = np.empty(k)
            x[nonbasic] = pattern
            rhs = b - a[:, nonbasic] @ np.asarray(pattern)
            x[list(basic)] = np.linalg.solve(sub, rhs)
            if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
                continue
            val = float(lp.objective @ x)
            if best is None or val > best:
                best = val
    return best


def test_box_only_maximum():
    cases = [  # (lower, upper, cost, x, value)
        ([-1.0], [1.0], [1.0], [1.0], 1.0),
        # mixed-sign costs: each variable goes to the bound its cost points to
        ([-1.0, -2.0, 0.0], [1.0, 3.0, 2.0], [2.0, -1.0, 0.5], [1.0, -2.0, 2.0], 5.0),
        # a zero cost leaves the variable at its start, the bound closer to 0
        ([-2.0, -1.0, -1.0], [3.0, 1.0, 0.5], [0.0, 1.0, 0.0], [-2.0, 1.0, 0.5], 1.0),
        # a fixed variable (lower = upper) stays put whatever its cost
        ([0.5, -1.0], [0.5, 1.0], [-3.0, -1.0], [0.5, -1.0], -0.5),
    ]
    for lower, upper, cost, x, value in cases:
        res = solve(BoxEqLP(lower, upper, np.zeros((0, len(lower))), [], cost))
        assert res.status == OPTIMAL
        assert res.reason is None
        assert res.value == value
        np.testing.assert_array_equal(res.solution, x)


def test_feasibility_on_hyperplane():
    res = solve(BoxEqLP([-1.0, -1.0], [1.0, 1.0], [[1.0, 1.0]], [0.0], [0.0, 0.0]))
    assert res.status == OPTIMAL
    assert abs(res.solution.sum()) <= 1e-9


def test_equality_constrained_maximum():
    res = solve(BoxEqLP([-1.0, -1.0], [1.0, 1.0], [[1.0, -1.0]], [2.0], [1.0, 1.0]))
    assert res.status == OPTIMAL
    assert abs(res.value) <= 1e-9
    np.testing.assert_allclose(res.solution, [1.0, -1.0], atol=1e-9)


def test_infeasible_row_is_detected():
    res = solve(BoxEqLP([0.0], [1.0], [[1.0]], [2.0], [1.0]))
    assert res.status == INFEASIBLE
    assert res.reason == ROWS_UNMET
    assert res.residual_norm >= 1.0 - 1e-9


def test_failure_reason_names_a_singular_basis(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lpcore.np.linalg, "solve", singular)
    res = solve(BoxEqLP([-1.0, -1.0], [1.0, 1.0], [[1.0, 1.0]], [0.5], [1.0, 0.0]))
    assert res.status == NUMERICAL_FAILURE
    assert res.reason == "singular basis in phase 1"
    with pytest.raises(NumericalFailureError, match="singular basis"):
        feasibility_min_infinity_norm([2.0, -1.0], [3.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])


def test_min_infinity_norm_examples():
    assert feasibility_min_infinity_norm([-1.0], [1.0], [[1.0]])[0] == 0.0
    assert abs(feasibility_min_infinity_norm([2.0], [3.0], [[1.0]])[0] - 2.0) <= 1e-9
    assert feasibility_min_infinity_norm([-1.0, 1.0], [1.0, 1.0], [[1.0, 1.0]])[0] <= 1e-12


def test_min_infinity_norm_returns_attaining_point():
    value, point, _ = feasibility_min_infinity_norm(
        [2.0, -1.0], [3.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]
    )
    assert abs(value - 2.0) <= 1e-9
    assert np.abs(point).max() <= value + 1e-9
    assert 2.0 - 1e-9 <= point[0] <= 3.0 + 1e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        BoxEqLP([0.0], [-1.0], np.zeros((0, 1)), [], [1.0])
    with pytest.raises(ValueError):
        BoxEqLP([0.0, 0.0], [1.0], np.zeros((0, 2)), [], [1.0, 1.0])
    with pytest.raises(ValueError):
        BoxEqLP([0.0], [np.inf], np.zeros((0, 1)), [], [1.0])
    with pytest.raises(ValueError):
        solve(BoxEqLP([-1.0], [1.0], np.zeros((0, 1)), [], [1.0]), eps_lp=0.0)
    # Both presolve exits, all fixed and no movable row, return before any
    # solve; they must still reject a nonpositive eps_lp.
    for lower, upper, a in (([0.5, 0.2], [0.5, 0.2], [[1.0, 2.0]]),
                            ([-1.0], [1.0], [[0.0]])):
        for eps_lp in (0.0, -1.0):
            with pytest.raises(ValueError, match="eps_lp must be positive"):
                feasibility_min_infinity_norm(lower, upper, a, eps_lp)


def random_instance(rng, feasible=True):
    k = int(rng.integers(1, 7))
    m = int(rng.integers(0, min(k, 3) + 1))
    lo = rng.uniform(-2.0, 0.5, size=k)
    hi = lo + rng.uniform(0.0, 2.5, size=k)
    a = rng.standard_normal((m, k))
    if feasible and m > 0:
        x0 = rng.uniform(lo, hi)
        b = a @ x0
    else:
        b = rng.standard_normal(m) * 3.0
    c = rng.standard_normal(k)
    return BoxEqLP(lo, hi, a, b, c)


def test_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(3)
    checked = 0
    for trial in range(160):
        lp = random_instance(rng, feasible=trial % 2 == 0)
        res = solve(lp)
        best = brute_force_value(lp)
        if best is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert abs(res.value - best) <= 1e-8 * max(1.0, abs(best))
            checked += 1
    assert checked >= 60


def test_solution_is_feasible_and_consistent():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp = random_instance(rng)
        res = solve(lp)
        assert res.status == OPTIMAL
        x = res.solution
        assert np.all(x >= lp.lower - 1e-9)
        assert np.all(x <= lp.upper + 1e-9)
        if lp.eq_matrix.shape[0]:
            assert np.abs(lp.eq_matrix @ x - lp.eq_rhs).max() <= 1e-8
        assert res.value == pytest.approx(float(lp.objective @ x), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_objective_scaling(alpha, seed):
    rng = np.random.default_rng(seed)
    lp = random_instance(rng)
    scaled = BoxEqLP(lp.lower, lp.upper, lp.eq_matrix, lp.eq_rhs, alpha * lp.objective)
    v1 = solve(lp).value
    v2 = solve(scaled).value
    assert v2 == pytest.approx(alpha * v1, rel=1e-9, abs=1e-9)


def test_min_infinity_norm_presolve_agrees_with_simplex(monkeypatch):
    """With every column fixed the answer is ||A lower||_inf, read without a
    pivot; one extra zero column on [-1, 1] leaves the optimum unchanged but
    frees a column, so the simplex must find the same value."""
    calls = []
    simplex = lpcore.solve

    def counting_solve(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(lpcore, "solve", counting_solve)
    rng = np.random.default_rng(8)
    for trial in range(120):
        m, k = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        a = rng.standard_normal((m, k))
        a[rng.random(m) < 0.2] = 0.0  # some zero rows
        lower = [-rng.uniform(0.1, 2.0, k), np.zeros(k),
                 rng.uniform(-2.0, 2.0, k)][trial % 3]
        value, x, _ = feasibility_min_infinity_norm(lower, lower, a)
        assert not calls
        assert value == np.abs(a @ lower).max()
        np.testing.assert_array_equal(x, lower)

        freed = np.hstack([a, np.zeros((m, 1))])
        lo, hi = np.append(lower, -1.0), np.append(lower, 1.0)
        simplex_value, _, _ = feasibility_min_infinity_norm(lo, hi, freed)
        assert len(calls) == (value > 0.0)
        calls.clear()
        assert abs(simplex_value - value) <= 1e-12


def test_min_infinity_norm_dual_certificate():
    """w proves the value: ||w||_1 = 1 and the least <w, A x> over the box,
    sum_j min(lo_j (A^T w)_j, hi_j (A^T w)_j), equals it (weak duality), on
    both the presolve and the simplex path."""
    rng = np.random.default_rng(9)
    checked = 0
    for trial in range(200):
        m, k = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        a = rng.standard_normal((m, k))
        a[rng.random(m) < 0.2] = 0.0  # some zero rows
        lo = rng.uniform(-2.0, 1.0, k)
        width = rng.uniform(0.0, 2.0, k)
        width[rng.random(k) < 0.3] = 0.0  # some fixed columns
        if trial % 4 == 0:
            width[:] = 0.0  # an all-fixed box
        hi = lo + width
        value, _, w = feasibility_min_infinity_norm(lo, hi, a)
        assert w.shape == (m,)
        if value <= lpcore.EPS_LP:
            continue
        checked += 1
        assert abs(np.abs(w).sum() - 1.0) <= 1e-12
        g = a.T @ w
        bound = np.minimum(lo * g, hi * g).sum()
        assert abs(bound - value) <= 1e-9 * value
    assert checked >= 150
