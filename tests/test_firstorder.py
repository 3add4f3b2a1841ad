import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import firstorder
from l1landscape.core import objective
from l1landscape.firstorder import (
    EPS_DIR,
    FREE,
    HALF_LINE,
    ZERO,
    CriticalConeDescriptor,
    GrowthReport,
    NotStationaryError,
    critical_cone,
    directional_derivative,
    growth_check,
    sharpness_coefficient,
)
from l1landscape.stationarity import (
    GROUND_TRUTH_MINUS,
    GROUND_TRUTH_PLUS,
    is_stationary_closed_form,
    project_to_spurious_set,
)
from oracles import enumerate_support_value


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
    # at a nonzero ground truth the cone is {0}, the all-ZERO descriptor
    for u in ([1.0, 1.0], [-1.0, -1.0]):
        cone = critical_cone(u, [1.0, 1.0])
        assert cone == CriticalConeDescriptor((ZERO, ZERO), (0, 0))
        assert cone.contains([0.0, 0.0])
        assert not cone.contains([1e-3, 0.0])


def test_cone_membership_examples():
    assert critical_cone([-1.0, 1.0], [1.0, 1.0]).contains([2.0, 0.0])
    assert not critical_cone([-1.0, 1.0], [1.0, 1.0]).contains([-1.0, 0.0])
    assert critical_cone([0.0, 0.0], [1.0, 1.0]).contains([3.0, -7.0])


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


def reference_critical_cone(u, ustar):
    """critical_cone with its former loop over coordinates, as an oracle."""
    eps_zero = 1e-9
    u = np.asarray(u, dtype=float)
    ustar = np.asarray(ustar, dtype=float)
    verdict = is_stationary_closed_form(u, ustar)
    if not verdict.is_stationary:
        raise NotStationaryError
    if verdict.kind in (GROUND_TRUTH_PLUS, GROUND_TRUTH_MINUS):
        return CriticalConeDescriptor((ZERO,) * u.size, (0,) * u.size)
    if np.abs(u).max() <= eps_zero:
        return CriticalConeDescriptor((FREE,) * u.size, (0,) * u.size)
    kinds = []
    signs = []
    for j in range(u.size):
        if abs(ustar[j]) <= eps_zero:
            kinds.append(ZERO)
            signs.append(0)
        elif abs(u[j]) >= abs(ustar[j]) - eps_zero:
            kinds.append(HALF_LINE)
            signs.append(int(np.sign(u[j])))
        else:
            kinds.append(FREE)
            signs.append(0)
    return CriticalConeDescriptor(tuple(kinds), tuple(signs))


def reference_growth_check(ustar, radius, samples, seed=0):
    """growth_check with a loop over samples, as an oracle: sample t is row t
    of one (samples, n) draw from default_rng(seed)."""
    ustar = np.asarray(ustar, dtype=float)
    beta = 0.5 * sharpness_coefficient(ustar)
    f_star = objective(ustar, ustar)
    violations = 0
    min_margin = np.inf
    draws = np.random.default_rng(seed).uniform(-radius, radius, (samples, ustar.size))
    for t in range(samples):
        u = ustar + draws[t]
        margin = objective(u, ustar) - f_star - beta * float(np.abs(u - ustar).sum())
        if margin < 0.0:
            violations += 1
        min_margin = min(min_margin, margin)
    if samples == 0:
        min_margin = 0.0
    return GrowthReport(samples, violations, float(min_margin), radius, beta)


def cone_or_error(cone_fn, u, ustar):
    try:
        return cone_fn(u, ustar)
    except NotStationaryError:
        return NotStationaryError


def test_critical_cone_matches_the_per_coordinate_reference():
    rng = np.random.default_rng(31)
    checked = 0
    for n in range(1, 41):
        for trial in range(8):
            ustar = rng.standard_normal(n)
            ustar[rng.random(n) < 0.25] = 0.0   # coordinates with ustar_i = 0
            ustar[-1] = ustar[-1] or 1.0
            if trial == 0:
                points = [np.zeros(n), ustar, -ustar]
            else:
                points = [project_to_spurious_set(rng.standard_normal(n) * s, ustar)[0]
                          for s in (0.1, 1.0, 3.0)]
            for u in points:
                cone = cone_or_error(critical_cone, u, ustar)
                assert cone == cone_or_error(reference_critical_cone, u, ustar)
                if cone is not NotStationaryError:
                    checked += 1
                    assert all(type(s) is int for s in cone.signs)
                    assert all(type(k) is str for k in cone.kinds)
    assert checked > 800


def test_critical_cone_has_no_loop_over_coordinates():
    tree = ast.parse(inspect.getsource(critical_cone))
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    assert not any(isinstance(node, loops) for node in ast.walk(tree))


def test_growth_check_matches_the_per_sample_reference():
    rng = np.random.default_rng(32)
    violations = 0
    for n in range(1, 41):
        ustar = rng.standard_normal(n)
        ustar[rng.random(n) < 0.25] = 0.0
        ustar[0] = 1.5
        radius = float(rng.choice([0.05, 0.5, 4.0]))   # 4.0 reaches -ustar at small n
        for samples in (0, 1, int(rng.integers(2, 200))):
            seed = int(rng.integers(100))
            report = growth_check(ustar, radius, samples, seed)
            assert report == reference_growth_check(ustar, radius, samples, seed)
            violations += report.violations
    assert violations > 0


def test_growth_check_evaluates_one_stack(monkeypatch):
    shapes = []

    def counting(u, ustar):
        shapes.append(np.shape(u))
        return objective(u, ustar)

    monkeypatch.setattr(firstorder, "objective", counting)
    growth_check([1.0, -0.5, 2.0], 0.1, 500, seed=4)
    assert shapes == [(3,), (500, 3)]
