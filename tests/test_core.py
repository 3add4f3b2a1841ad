import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import core
from l1landscape.core import (
    EPS_ZERO,
    STACK_ENTRIES,
    as_vector,
    midpoint_subgradient,
    objective,
    residual_pattern,
    subdifferential_model,
    subgradient_select,
)
from l1landscape.dynamics import INV_SQRT_K, StepSchedule, conjecture_probe, run_subgradient
from l1landscape.firstorder import directional_derivative, growth_check
from l1landscape.lpcore import feasibility_min_infinity_norm
from l1landscape.secondorder import second_subderivative
from oracles import secant_slope

vectors = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def test_objective_at_ground_truth_is_zero():
    for ustar in ([1.0, 1.0], [2.0, 0.0], [0.3, -1.2, 0.7]):
        assert objective(ustar, ustar) == 0.0
        assert objective(-np.asarray(ustar), ustar) == 0.0


def test_objective_known_values():
    # residual [[0, -2], [-2, 0]], half the entrywise l1 norm is 2
    assert objective([-1.0, 1.0], [1.0, 1.0]) == 2.0
    # residual -ustar ustar^T with a single unit entry
    assert objective([0.0, 0.0], [1.0, 0.0]) == 0.5


def reference_sign(u, ustar):
    """np.sign of the residual with the zero band |r| <= EPS_ZERO set to 0."""
    r = np.outer(u, u) - np.outer(ustar, ustar)
    return np.where(np.abs(r) <= EPS_ZERO, 0.0, np.sign(r))


def test_residual_pattern_spurious_point():
    np.testing.assert_array_equal(residual_pattern([-1.0, 1.0], [1.0, 1.0]),
                                  [[0, -1], [-1, 0]])


def test_residual_pattern_origin():
    np.testing.assert_array_equal(residual_pattern([0.0, 0.0], [1.0, 1.0]), -np.ones((2, 2)))


def test_residual_pattern_mixed_index_sets():
    np.testing.assert_array_equal(residual_pattern([0.0, 2.0], [1.0, 0.0]),
                                  [[-1, 0], [0, 1]])


def test_subgradient_select_midpoint_examples():
    np.testing.assert_array_equal(subgradient_select([1.0, 1.0], [1.0, 1.0]), [0.0, 0.0])
    np.testing.assert_array_equal(subgradient_select([-1.0, 1.0], [1.0, 1.0]), [-1.0, 1.0])
    np.testing.assert_array_equal(subgradient_select([2.0, 0.0], [1.0, 0.0]), [2.0, 0.0])


def test_midpoint_subgradient_stack_matches_single_points():
    """A (trials, n) stack gives each row the bits of the single-point call and
    of Sign(residual) u built from an independent np.sign reference."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 10):
        ustar = rng.standard_normal(n)
        ustar[0] = 0.0
        u = rng.standard_normal((12, n))
        u[1] = ustar                                   # residual exactly zero
        u[2] = 0.0
        u[3:6, 1:] = ustar[1:] * rng.choice([-1.0, 1.0], (3, n - 1))  # |u_i| = |ustar_i|
        u[6, 0] = 0.0
        u[7] = ustar + 1e-12                           # entries inside the zero band
        stack = midpoint_subgradient(u, ustar)
        assert stack.shape == (12, n)
        assert not stack[1].any()
        for row, g in zip(u, stack):
            np.testing.assert_array_equal(g, reference_sign(row, ustar) @ row)
            np.testing.assert_array_equal(g, subgradient_select(row, ustar))


def test_finite_difference_slope_examples():
    assert secant_slope([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], 0.1) == 0.0
    # at t = 1 the secant from (-1, 1) along (2, 0) lands on the opposite
    # ground truth, so the slope is -f(u)/1 = -2
    assert secant_slope([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0], 1.0) == -2.0
    assert secant_slope([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], 0.5) == -0.25


def test_finite_difference_slope_shrinks_to_directional_value():
    # the fixed off-diagonal signs at (-1, 1) are stable under small moves,
    # so the secant error relative to the directional derivative is O(t)
    slopes = [
        secant_slope([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0], t)
        for t in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    # directional derivative here is 0; secants approach it linearly in t
    for s, t in zip(slopes, (1e-1, 1e-2, 1e-3, 1e-4)):
        assert abs(s) <= 4.1 * t


def test_objective_of_a_stack_has_the_bits_of_single_points():
    rng = np.random.default_rng(12)
    for n in (1, 2, 10, 40):
        ustar = rng.standard_normal(n)
        u = rng.standard_normal((7, n))
        values = objective(u, ustar)
        assert values.shape == (7,)
        for k in range(7):
            single = objective(u[k], ustar)
            assert isinstance(single, float)
            assert values[k] == single
    for bad in (np.ones((2, 3)), np.ones((0, 2)), [[1.0, np.nan]]):
        with pytest.raises(ValueError):
            objective(bad, [1.0, 1.0])


def test_objective_blocks_a_large_stack_with_single_point_bits():
    # 150 x 150 residuals: a 100-row stack spans three blocks of 46 rows
    rng = np.random.default_rng(13)
    ustar = rng.standard_normal(150)
    u = rng.standard_normal((100, 150))
    values = objective(u, ustar)
    assert values.shape == (100,)
    assert [values[k] for k in range(100)] == [objective(row, ustar) for row in u]
    u[-1, 0] = np.inf   # the last block still validates its rows
    with pytest.raises(ValueError, match="finite"):
        objective(u, ustar)


def test_no_stacked_caller_holds_more_than_stack_entries(monkeypatch):
    """At n = 150 a 1,024-row residual would hold 23 million entries, and
    the 200 lockstep trials of a probe a sign pattern of 4.5 million."""
    assert STACK_ENTRIES == 1 << 20
    shapes = {"residual": [], "residual_pattern": []}

    def recording(name):
        kernel = getattr(core, name)

        def wrapped(u, *args):
            shapes[name].append(np.shape(u))
            return kernel(u, *args)
        return wrapped

    for name in shapes:
        monkeypatch.setattr(core, name, recording(name))
    rng = np.random.default_rng(21)
    ustar = rng.standard_normal(150)
    traj = run_subgradient(rng.standard_normal(150), ustar, StepSchedule(INV_SQRT_K, 0.1),
                           max_iters=1500, stop_tol=0.0)
    assert len(traj) == 1501
    growth_check(ustar, 0.05, samples=1000)
    report = conjecture_probe(ustar, trials=200, max_iters=3)
    assert report.final_points.shape == (200, 150)
    rows = {name: sum(math.prod(s[:-1]) for s in found) for name, found in shapes.items()}
    assert rows == {"residual": 1501 + 1000 + 1,             # + f(ustar)
                    "residual_pattern": 1500 + 3 * 200}
    assert max(math.prod(s) * s[-1] for found in shapes.values() for s in found) <= 1 << 20


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan])
    with pytest.raises(ValueError):
        objective([1.0, 2.0], [1.0])
    # a direction of another size than u = (-1, 1); the size-1 one would
    # broadcast if it were not checked
    for w in ([2.0], [1.0, 0.0, 0.0]):
        for estimate in (directional_derivative, second_subderivative):
            with pytest.raises(ValueError, match=r"dimension mismatch: \(2,\) vs"):
                estimate([-1.0, 1.0], [1.0, 1.0], w)


@given(
    st.lists(
        st.tuples(
            st.floats(-3.0, 3.0, allow_nan=False),
            st.floats(-3.0, 3.0, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_entry_sign_matches_residual_sign(pairs):
    u = [p[0] for p in pairs]
    ustar = [p[1] for p in pairs]
    np.testing.assert_array_equal(residual_pattern(u, ustar), reference_sign(u, ustar))


@given(vectors)
def test_objective_invariant_under_sign_flips(u):
    rng = np.random.default_rng(7)
    ustar = rng.standard_normal(len(u))
    base = objective(u, ustar)
    assert objective(-np.asarray(u), ustar) == base
    assert objective(u, -ustar) == base


@given(vectors, st.integers(0, 2**32 - 1))
def test_objective_invariant_under_signed_permutations(u, seed):
    rng = np.random.default_rng(seed)
    n = len(u)
    ustar = rng.standard_normal(n)
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    pu = signs * np.asarray(u)[perm]
    pustar = signs * ustar[perm]
    np.testing.assert_allclose(objective(pu, pustar), objective(u, ustar), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_midpoint_selection_lies_in_subdifferential(n, seed):
    """The selected vector must be S u for an admissible sign matrix S."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    ustar = rng.standard_normal(n)
    g = subgradient_select(u, ustar)
    model = subdifferential_model(u, ustar)
    m = model.pair_matrix()
    # solve min ||c0 - g + M x||_inf over the free box; zero iff g in df(u)
    cols = [np.asarray(model.fixed_vector() - g).reshape(-1, 1), m]
    lower = [1.0] + [-1.0] * m.shape[1]
    upper = [1.0] + [1.0] * m.shape[1]
    value, _, _ = feasibility_min_infinity_norm(lower, upper, np.hstack(cols))
    assert value <= 1e-9


def test_subdifferential_model_assemble_round_trip():
    u, ustar = [-1.0, 1.0], [1.0, 1.0]
    model = subdifferential_model(u, ustar)
    np.testing.assert_array_equal(model.free_pairs, [[0, 0], [1, 1]])
    s = model.assemble([0.25, -0.5])
    np.testing.assert_array_equal(s, [[0.25, -1.0], [-1.0, -0.5]])
    np.testing.assert_allclose(
        model.fixed_vector() + model.pair_matrix() @ [0.25, -0.5], s @ np.asarray(u)
    )
