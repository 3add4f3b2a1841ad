import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import lpcore, stationarity
from l1landscape.core import residual, sign_scalar, subdifferential_model
from l1landscape.lpcore import NumericalFailureError
from l1landscape.stationarity import (
    GROUND_TRUTH_MINUS,
    GROUND_TRUTH_PLUS,
    NOT_STATIONARY,
    SPURIOUS,
    distance_to_ground_truths,
    distance_to_stationary_set,
    expected_gaussian_separation,
    gaussian_separation,
    is_stationary_closed_form,
    is_stationary_lp,
    project_to_spurious_set,
)

BOTH = (is_stationary_closed_form, is_stationary_lp)


def pattern_is_ambiguous(u, ustar, band=(1e-10, 1e-8)):
    """True when some classification quantity sits near the zero tolerance.

    The two certifiers threshold slightly different quantities, so points
    whose residual entries, bound gaps, or hyperplane offset fall inside the
    band around eps_zero can be tagged differently without either being
    wrong. Exact zeros and clearly nonzero values are unambiguous.
    """
    lo, hi = band
    u = np.asarray(u, dtype=float)
    ustar = np.asarray(ustar, dtype=float)
    s = np.array([sign_scalar(v) for v in ustar], dtype=float)
    checks = [np.abs(residual(u, ustar)).ravel(), np.abs(np.abs(u) - np.abs(ustar))]
    checks.append(np.atleast_1d(abs(float(s @ u))))
    off = np.abs(u[s == 0])
    if off.size:
        checks.append(off)
    checks.append(np.atleast_1d(np.abs(u - ustar).max()))
    checks.append(np.atleast_1d(np.abs(u + ustar).max()))
    vals = np.concatenate(checks)
    return bool(np.any((vals > lo) & (vals < hi)))


def test_spurious_point_certified_by_both_routes():
    for cert in BOTH:
        verdict = cert([-1.0, 1.0], [1.0, 1.0])
        assert verdict.is_stationary
        assert verdict.kind == SPURIOUS


def test_ground_truth_kinds():
    ustar = [1.5, -0.5, 2.0]
    for cert in BOTH:
        assert cert(ustar, ustar).kind == GROUND_TRUTH_PLUS
        assert cert(-np.asarray(ustar), ustar).kind == GROUND_TRUTH_MINUS


def test_hyperplane_violation_is_not_stationary():
    for cert in BOTH:
        verdict = cert([0.5, 0.2], [1.0, 1.0])
        assert not verdict.is_stationary
        assert verdict.kind == NOT_STATIONARY


def test_off_support_mass_is_not_stationary():
    for cert in BOTH:
        assert not cert([0.0, 0.5], [1.0, 0.0]).is_stationary


def test_lp_route_reports_violation_magnitude():
    verdict = is_stationary_lp([2.0, 0.0], [1.0, 0.0])
    assert not verdict.is_stationary
    assert verdict.violation == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("u, ustar, kind", [
    ([0.5, 0.2], [1.0, 1.0], NOT_STATIONARY),
    # u_1 + u_2 = -4.4e-16 puts u on the plane within eps_zero; no residual
    # entry vanishes, so the violation is the gradient's norm, 4.4e-16
    ([-0.3333333333333335, 0.33333333333333304], [1.0, 1.0], SPURIOUS),
])
def test_lp_certifier_reads_a_differentiable_point_without_pivots(monkeypatch, u, ustar, kind):
    """With no free pair the subdifferential is the one vector fixed_vector(),
    and the epigraph presolve returns its norm without calling the simplex."""
    fmin_calls, solve_calls = [], []
    fmin, simplex = stationarity.feasibility_min_infinity_norm, lpcore.solve

    def counting_fmin(*args):
        fmin_calls.append(args)
        return fmin(*args)

    def counting_solve(*args):
        solve_calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(stationarity, "feasibility_min_infinity_norm", counting_fmin)
    monkeypatch.setattr(lpcore, "solve", counting_solve)
    verdict = is_stationary_lp(u, ustar)
    assert len(fmin_calls) == 1
    assert not solve_calls
    assert verdict.kind == kind == is_stationary_closed_form(u, ustar).kind
    model = subdifferential_model(u, ustar)
    assert len(model.free_pairs) == 0
    assert verdict.violation == float(np.abs(model.fixed_vector()).max())


def test_closed_form_witness_is_valid_subgradient():
    verdict = is_stationary_closed_form([-1.0, 1.0], [1.0, 1.0])
    z = verdict.witness
    np.testing.assert_array_equal(z, z.T)
    assert np.abs(z).max() <= 1.0 + 1e-12
    np.testing.assert_allclose(z @ np.array([-1.0, 1.0]), 0.0, atol=1e-12)


def test_projection_examples():
    p, d = project_to_spurious_set([1.0, 1.0], [1.0, 1.0])
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-12)
    assert d == pytest.approx(math.sqrt(2.0))

    p, d = project_to_spurious_set([-1.0, 1.0], [1.0, 1.0])
    np.testing.assert_allclose(p, [-1.0, 1.0], atol=1e-12)
    assert d <= 1e-12

    p, d = project_to_spurious_set([2.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(p, [1.0, -1.0], atol=1e-9)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_projection_lands_on_spurious_set():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        ustar = rng.standard_normal(n)
        y = rng.standard_normal(n) * 3.0
        p, d = project_to_spurious_set(y, ustar)
        assert is_stationary_closed_form(p, ustar).kind == SPURIOUS
        assert d == pytest.approx(float(np.linalg.norm(y - p)), abs=1e-12)


def test_projection_variational_inequality():
    """<y - p, q - p> <= 0 for every feasible q certifies the projection."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        ustar = rng.standard_normal(n)
        y = rng.standard_normal(n) * 2.0
        p, _ = project_to_spurious_set(y, ustar)
        for _ in range(40):
            q, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
            assert float((y - p) @ (q - p)) <= 1e-9


def test_projection_edge_cases():
    # n = 1: the set is {0}
    p, d = project_to_spurious_set([3.0], [-2.0])
    np.testing.assert_array_equal(p, [0.0])
    assert d == 3.0
    # ustar_0 = 0 forces u_0 = 0; the other two stay unclipped
    p, d = project_to_spurious_set([7.0, 1.0, 0.5], [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(p, [0.0, 0.25, -0.25])
    assert d == pytest.approx(math.sqrt(50.125), abs=1e-12)
    # the multiplier is exactly the breakpoint z_2 + |ustar_2| = 0
    p, d = project_to_spurious_set([2.0, 0.0, -1.0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(p, [1.0, 0.0, -1.0])
    assert d == 1.0
    # every coordinate clipped, with the root on a breakpoint or a flat piece
    for y, dist in (([2.0, -2.0], math.sqrt(2.0)), ([5.0, -5.0], math.sqrt(32.0))):
        p, d = project_to_spurious_set(y, [1.0, 1.0])
        np.testing.assert_array_equal(p, [1.0, -1.0])
        assert d == pytest.approx(dist, abs=1e-12)
    # points of the set are their own projection
    for y, ustar in (([0.5, -0.5], [1.0, 1.0]), ([-1.0, 1.0], [1.0, 1.0]),
                     ([0.25, 0.0, 0.25], [1.0, 0.0, -0.25])):
        p, d = project_to_spurious_set(y, ustar)
        np.testing.assert_array_equal(p, y)
        assert d == 0.0


def test_projection_rejects_zero_ground_truth():
    with pytest.raises(ValueError):
        project_to_spurious_set([1.0, 1.0], [0.0, 0.0])


def test_zero_ground_truth_corner():
    for cert in BOTH:
        assert cert([0.0, 0.0], [0.0, 0.0]).kind == SPURIOUS
        assert cert([0.1, 0.0], [0.0, 0.0]).kind == NOT_STATIONARY


def test_certifiers_agree_on_sampled_points():
    rng = np.random.default_rng(23)
    disagreements = 0
    compared = 0
    for n in (2, 3, 4):
        ustar = rng.standard_normal(n)
        points = [rng.uniform(-2.0, 2.0, size=n) for _ in range(60)]
        points += [project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)[0] for _ in range(60)]
        points += [ustar + rng.standard_normal(n) * 1e-4 for _ in range(30)]
        points += [ustar, -ustar]
        for u in points:
            if pattern_is_ambiguous(u, ustar):
                continue
            a = is_stationary_closed_form(u, ustar)
            b = is_stationary_lp(u, ustar)
            compared += 1
            if (a.is_stationary, a.kind) != (b.is_stationary, b.kind):
                disagreements += 1
    assert compared >= 400
    assert disagreements == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_sign_flip_swaps_ground_truth_kinds(n, seed):
    rng = np.random.default_rng(seed)
    ustar = rng.standard_normal(n)
    u = rng.choice([ustar, -ustar, project_to_spurious_set(rng.standard_normal(n), ustar)[0]])
    a = is_stationary_closed_form(u, ustar)
    b = is_stationary_closed_form(-u, ustar)
    swap = {GROUND_TRUTH_PLUS: GROUND_TRUTH_MINUS, GROUND_TRUTH_MINUS: GROUND_TRUTH_PLUS}
    assert b.kind == swap.get(a.kind, a.kind)
    # the spurious polytope is symmetric, so flipping u preserves membership
    assert a.is_stationary == b.is_stationary


def test_distance_helpers():
    ustar = np.array([1.0, 1.0])
    assert distance_to_ground_truths(ustar, ustar) == 0.0
    assert distance_to_ground_truths(-ustar, ustar) == 0.0
    assert distance_to_stationary_set([-1.0, 1.0], ustar) == 0.0
    d = distance_to_stationary_set([2.0, 0.0], ustar)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # ustar = 0: the stationary set is {0}
    assert distance_to_stationary_set([3.0, -4.0], [0.0, 0.0]) == 5.0
    # ustar below EPS_ZERO but nonzero: the polytope shrinks to a tiny box
    assert distance_to_stationary_set([3.0, -4.0], [1e-10, -1e-10]) == pytest.approx(5.0, abs=1e-9)


def test_expected_gaussian_separation_values():
    assert expected_gaussian_separation(16) == pytest.approx(math.sqrt(32.0 / math.pi))
    assert expected_gaussian_separation(2) == pytest.approx(1.1284, abs=1e-4)


def test_gaussian_separation_matches_expectation():
    for n in (2, 8, 16, 64):
        mean, stderr = gaussian_separation(n, 20_000, seed=1)
        assert stderr > 0.0
        assert abs(mean - expected_gaussian_separation(n)) <= 4.0 * stderr


def test_gaussian_separation_is_deterministic():
    a = gaussian_separation(8, 500, seed=42)
    b = gaussian_separation(8, 500, seed=42)
    assert a == b
    c = gaussian_separation(8, 500, seed=1 << 20)
    assert a != c


def test_gaussian_separation_neighbouring_seeds_differ():
    # seeding trial t with seed XOR t made seeds 0 and 1 replay one set of streams
    assert gaussian_separation(16, 4096, seed=0) != gaussian_separation(16, 4096, seed=1)


def test_gaussian_separation_single_trial_stderr():
    mean, stderr = gaussian_separation(4, 1, seed=0)
    assert math.isfinite(mean)
    assert stderr == 0.0


def test_gaussian_separation_validates_arguments():
    with pytest.raises(ValueError):
        gaussian_separation(0, 10)
    with pytest.raises(ValueError):
        gaussian_separation(4, 0)
    with pytest.raises(ValueError):
        gaussian_separation(4, 10, seed=-1)


@pytest.mark.xfail(raises=NumericalFailureError, strict=True,
                   reason="phase 1 of the epigraph LP meets a singular basis here")
def test_lp_certifier_on_a_singular_phase_one_basis():
    # a spurious point with 9 of 10 coordinates on the box face and one
    # |ustar_i| = 7.9e-5; the closed form certifies it
    u = [-0.41566138146244624, -1.830369861635468, 0.3736184332528183,
         -0.9710849374641949, -7.863467519813408e-05, -0.17424604000433436,
         0.3415261536132461, -1.079959206905213, -0.6072699121373675,
         -0.26127982932894545]
    ustar = [0.41566138146244624, 1.830369861635468, 0.3736184332528183,
             -0.9710849374641949, -7.863467519813408e-05, 0.2834318192359391,
             0.3415261536132461, -1.079959206905213, 0.6072699121373675,
             -0.26127982932894545]
    assert is_stationary_closed_form(u, ustar).kind == SPURIOUS
    assert is_stationary_lp(u, ustar).kind == SPURIOUS
