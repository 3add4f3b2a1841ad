import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape.core import (
    EPS_ZERO,
    as_vector,
    finite_difference_slope,
    midpoint_subgradient,
    objective,
    residual_pattern,
    subdifferential_model,
    subgradient_select,
)
from l1landscape.lpcore import feasibility_min_infinity_norm

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


def reference_sign(u, ustar, eps_zero=EPS_ZERO):
    """np.sign of the residual with the zero band |r| <= eps_zero set to 0."""
    r = np.outer(u, u) - np.outer(ustar, ustar)
    return np.where(np.abs(r) <= eps_zero, 0.0, np.sign(r))


def test_residual_pattern_spurious_point():
    np.testing.assert_array_equal(residual_pattern([-1.0, 1.0], [1.0, 1.0]),
                                  [[0, -1], [-1, 0]])


def test_residual_pattern_origin():
    np.testing.assert_array_equal(residual_pattern([0.0, 0.0], [1.0, 1.0]), -np.ones((2, 2)))


def test_residual_pattern_mixed_index_sets():
    np.testing.assert_array_equal(residual_pattern([0.0, 2.0], [1.0, 0.0]),
                                  [[-1, 0], [0, 1]])
    with pytest.raises(ValueError):
        residual_pattern([0.0, 2.0], [1.0, 0.0], eps_zero=0.0)


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
    assert finite_difference_slope([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], 0.1) == 0.0
    # at t = 1 the secant from (-1, 1) along (2, 0) lands on the opposite
    # ground truth, so the slope is -f(u)/1 = -2
    assert finite_difference_slope([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0], 1.0) == -2.0
    assert finite_difference_slope([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], 0.5) == -0.25


def test_finite_difference_slope_shrinks_to_directional_value():
    # the fixed off-diagonal signs at (-1, 1) are stable under small moves,
    # so the secant error relative to the directional derivative is O(t)
    slopes = [
        finite_difference_slope([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0], t)
        for t in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    # directional derivative here is 0; secants approach it linearly in t
    for s, t in zip(slopes, (1e-1, 1e-2, 1e-3, 1e-4)):
        assert abs(s) <= 4.1 * t


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan])
    with pytest.raises(ValueError):
        finite_difference_slope([1.0], [1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        objective([1.0, 2.0], [1.0])


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
