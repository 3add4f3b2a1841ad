from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape.core import subdifferential_model
from l1landscape.firstorder import (
    EPS_DIR,
    FREE,
    HALF_LINE,
    ZERO,
    CriticalConeDescriptor,
    GroundTruthConeError,
    NotStationaryError,
    cone_membership,
    critical_cone,
    directional_derivative,
    growth_check,
    sharpness_coefficient,
)
from l1landscape.stationarity import project_to_spurious_set


def enumerate_support_value(u, ustar, w):
    """max <sym(S) u, w> over every extreme sign matrix, built explicitly."""
    model = subdifferential_model(u, ustar)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    best = -np.inf
    for signs in product((-1.0, 1.0), repeat=len(model.free_pairs)):
        s = model.assemble(signs)
        best = max(best, float((s @ u) @ w))
    return best


def test_directional_derivative_examples():
    assert directional_derivative([1.0, 1.0], [1.0, 1.0], [1.0, 0.0]) == 2.0
    assert directional_derivative([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0]) == 0.0
    assert directional_derivative([0.0, 0.0], [1.0, -2.0], [0.7, 0.3]) == 0.0


def test_critical_cone_at_spurious_point():
    cone = critical_cone([-1.0, 1.0], [1.0, 1.0])
    assert cone.kinds == (HALF_LINE, HALF_LINE)
    assert cone.signs == (-1, 1)
    # sign -1 half line is the nonnegative axis, sign +1 the nonpositive one
    assert cone.contains([2.0, 0.0])
    assert cone.contains([0.5, -3.0])
    assert not cone.contains([-1.0, 0.0])
    assert not cone.contains([0.0, 1.0])


def test_critical_cone_at_origin_is_everything():
    cone = critical_cone([0.0, 0.0], [1.0, 1.0])
    assert cone.kinds == (FREE, FREE)
    assert cone.contains([-5.0, 9.0])


def test_critical_cone_mixed_coordinates():
    cone = critical_cone([0.5, -0.5, 0.0], [1.0, 1.0, 0.0])
    assert cone.kinds == (FREE, FREE, ZERO)
    assert cone.contains([1.0, 1.0, 0.0])
    assert not cone.contains([1.0, 1.0, 0.1])


def test_critical_cone_rejects_bad_points():
    with pytest.raises(NotStationaryError):
        critical_cone([0.5, 0.2], [1.0, 1.0])
    with pytest.raises(GroundTruthConeError):
        critical_cone([1.0, 1.0], [1.0, 1.0])
    cone = critical_cone([1.0, 1.0], [1.0, 1.0], allow_ground_truth=True)
    assert cone.kinds == (ZERO, ZERO)
    assert cone.contains([0.0, 0.0])
    assert not cone.contains([1e-3, 0.0])


def test_cone_membership_examples():
    assert cone_membership([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0])
    assert not cone_membership([-1.0, 1.0], [1.0, 1.0], [-1.0, 0.0])
    assert cone_membership([0.0, 0.0], [1.0, 1.0], [3.0, -7.0])


def test_sharpness_coefficient_examples():
    assert sharpness_coefficient([1.0, 1.0]) == 1.0
    assert sharpness_coefficient([3.0, 0.0]) == 1.5
    assert sharpness_coefficient([1.0, 1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        sharpness_coefficient([0.0, 0.0])


def test_brute_force_support_function_small_dims():
    rng = np.random.default_rng(2)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        u = rng.standard_normal(n)
        ustar = rng.standard_normal(n)
        if rng.random() < 0.3:
            u, _ = project_to_spurious_set(u, ustar)
        w = rng.standard_normal(n)
        dd = directional_derivative(u, ustar, w)
        brute = enumerate_support_value(u, ustar, w)
        scale = max(1.0, abs(brute))
        assert abs(dd - brute) <= 1e-12 * scale


def test_brute_force_exact_on_dyadic_inputs():
    # entries on a quarter-integer grid make every product and sum exact in
    # double precision, so the two evaluation orders must agree bitwise
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        u = rng.integers(-8, 9, size=n) / 4.0
        ustar = rng.integers(-8, 9, size=n) / 4.0
        w = rng.integers(-8, 9, size=n) / 4.0
        assert directional_derivative(u, ustar, w) == enumerate_support_value(u, ustar, w)


def test_sharpness_bound_at_ground_truth():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        ustar = rng.standard_normal(n)
        ustar[np.abs(ustar) < 0.05] = 0.5
        w = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        dd = directional_derivative(ustar, ustar, w)
        bound = sharpness_coefficient(ustar) * float(np.abs(w).sum())
        assert dd >= bound - 1e-12


def test_cone_membership_matches_zero_derivative():
    rng = np.random.default_rng(13)
    agreements = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        ustar = rng.standard_normal(n)
        u, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
        cone = critical_cone(u, ustar)
        for _ in range(25):
            if rng.random() < 0.5:
                w = cone.sample(rng)
            else:
                w = rng.standard_normal(n)
            dd = directional_derivative(u, ustar, w)
            assert dd >= -1e-12
            inside = cone.contains(w)
            assert inside == (dd <= EPS_DIR)
            agreements += 1
    assert agreements == 1000


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_positive_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    u = rng.standard_normal(n)
    ustar = rng.standard_normal(n)
    w = rng.standard_normal(n)
    a = directional_derivative(u, ustar, lam * w)
    b = lam * directional_derivative(u, ustar, w)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_growth_check_examples():
    report = growth_check([1.0, 1.0], 0.05, 1000, seed=0)
    assert report.samples == 1000
    assert report.violations == 0
    assert report.beta == 0.5 * sharpness_coefficient([1.0, 1.0])
    assert report.min_margin >= 0.0

    report = growth_check([2.0, 0.0, 0.0], 0.05, 1000, seed=0)
    assert report.violations == 0


def test_growth_check_is_deterministic():
    a = growth_check([1.0, 1.0], 0.05, 200, seed=3)
    b = growth_check([1.0, 1.0], 0.05, 200, seed=3)
    assert a == b


def test_growth_check_sample_count():
    report = growth_check([1.0, 1.0], 0.05, 0)
    assert (report.samples, report.violations, report.min_margin) == (0, 0, 0.0)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        growth_check([1.0, 1.0], 0.05, -3)


def test_descriptor_validation():
    cone = CriticalConeDescriptor((FREE, ZERO), (0, 0))
    assert cone.dim == 2
    with pytest.raises(ValueError):
        cone.contains([1.0, 2.0, 3.0])
