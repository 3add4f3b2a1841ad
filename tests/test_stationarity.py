import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import lpcore, stationarity
from l1landscape.core import subdifferential_model
from l1landscape.stationarity import (
    GROUND_TRUTH_MINUS,
    GROUND_TRUTH_PLUS,
    NOT_STATIONARY,
    SPURIOUS,
    distance_to_ground_truths,
    expected_gaussian_separation,
    gaussian_separation,
    is_stationary_closed_form,
    is_stationary_lp,
    project_to_spurious_set,
)
from oracles import certify_scale_point, pattern_is_ambiguous

BOTH = (is_stationary_closed_form, is_stationary_lp)


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


def bisection_projection(y, ustar):
    """Reference projection: bisect on lam for the plane value itself."""
    s, cap = np.sign(ustar), np.abs(ustar)
    z = s * y

    def plane(lam):
        return float(np.clip(z - lam, -cap, cap)[s != 0].sum())

    lo, hi = float((z - cap).min()) - 1.0, float((z + cap).max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if plane(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    u = np.clip(y - 0.5 * (lo + hi) * s, -cap, cap)
    return u, float(np.linalg.norm(y - u))


def test_stacked_projection_rows_match_single_points_and_a_bisection():
    rng = np.random.default_rng(31)
    for n in range(1, 81):
        ustar = rng.standard_normal(n)
        ustar[rng.random(n) < 0.2] = 0.0          # forced coordinates u_i = 0
        if not ustar.any():
            ustar[0] = 1.0
        y = rng.standard_normal((6, n)) * 2.0
        # points already in the set, inside the box and on its faces
        y[4] = bisection_projection(y[0], ustar)[0]
        y[5] = bisection_projection(10.0 * y[1], ustar)[0]
        p, d = project_to_spurious_set(y, ustar)
        assert p.shape == (6, n) and d.shape == (6,)
        for k in range(6):
            pk, dk = project_to_spurious_set(y[k], ustar)
            assert isinstance(dk, float)
            np.testing.assert_array_equal(p[k], pk)
            assert d[k] == dk
            ref_p, ref_d = bisection_projection(y[k], ustar)
            np.testing.assert_allclose(pk, ref_p, rtol=0.0, atol=1e-12)
            assert abs(dk - ref_d) <= 1e-12
        np.testing.assert_allclose(d[4:], 0.0, rtol=0.0, atol=1e-12)


def test_stacked_distances_match_single_points():
    rng = np.random.default_rng(8)
    for n in (1, 2, 10, 40):
        ustar = rng.standard_normal(n)
        u = rng.standard_normal((5, n))
        dist = distance_to_ground_truths(u, ustar)
        assert dist.shape == (5,)
        for k in range(5):
            assert dist[k] == distance_to_ground_truths(u[k], ustar)
        zero = stationarity._spurious_distance(u, np.zeros(n))
        np.testing.assert_array_equal(zero, [np.linalg.norm(x) for x in u])


def test_stacked_projection_validates_its_input():
    for bad in (np.ones((2, 3)), np.ones((0, 2)), np.ones((2, 2, 2)),
                [[1.0, np.inf], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            project_to_spurious_set(bad, [1.0, 1.0])
    with pytest.raises(ValueError):
        project_to_spurious_set(np.ones((3, 2)), [0.0, 0.0])


def test_zero_ground_truth_corner():
    # u = ustar = 0 is the ground truth, not a point of the spurious set
    for cert in BOTH:
        assert cert([0.0, 0.0], [0.0, 0.0]).kind == GROUND_TRUTH_PLUS
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
    assert project_to_spurious_set([-1.0, 1.0], ustar)[1] == 0.0
    d = project_to_spurious_set([2.0, 0.0], ustar)[1]
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # ustar below EPS_ZERO but nonzero: the polytope shrinks to a tiny box
    d = project_to_spurious_set([3.0, -4.0], [1e-10, -1e-10])[1]
    assert d == pytest.approx(5.0, abs=1e-9)


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


@pytest.mark.parametrize("n,trials,seed", [(1, 1, 0), (4, 1, 3), (16, 2000, 7),
                                           (3, 257, 1 << 20), (64, 50, 11)])
def test_gaussian_separation_draws_trials_as_columns_of_one_stream(n, trials, seed):
    values = np.abs(np.random.default_rng(seed).standard_normal((n, trials))).sum(axis=0)
    values /= math.sqrt(n)
    stderr = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
    mean, got_stderr = gaussian_separation(n, trials, seed)
    assert mean == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
    assert got_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


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


def test_lp_certifier_on_a_singular_phase_one_basis():
    # two spurious points whose epigraph LP once met a basis LAPACK calls
    # singular in phase 1: 9 of 10 coordinates on the box face with one
    # |ustar_i| = 7.9e-5, where a fresh solve at every pivot failed; and
    # certify-scale seed 2, round 51, n40/face90, where a kept inverse
    # recomputed only every 64 basis changes drifted into one
    u = [-0.41566138146244624, -1.830369861635468, 0.3736184332528183,
         -0.9710849374641949, -7.863467519813408e-05, -0.17424604000433436,
         0.3415261536132461, -1.079959206905213, -0.6072699121373675,
         -0.26127982932894545]
    ustar = [0.41566138146244624, 1.830369861635468, 0.3736184332528183,
             -0.9710849374641949, -7.863467519813408e-05, 0.2834318192359391,
             0.3415261536132461, -1.079959206905213, 0.6072699121373675,
             -0.26127982932894545]
    for u, ustar in ((u, ustar), certify_scale_point(2, 51, "n40/face90")):
        assert is_stationary_closed_form(u, ustar).kind == SPURIOUS
        assert is_stationary_lp(u, ustar).kind == SPURIOUS


def test_lp_certifier_at_ground_truths_runs_no_pivot(monkeypatch):
    # at +-ustar every residual entry is 0, so A vanishes at the box point
    # nearest 0 and the epigraph presolve answers exactly 0
    def no_pivot(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(lpcore, "_simplex", no_pivot)
    rng = np.random.default_rng(22)
    for n in (2, 5, 10, 20, 40, 80):
        ustar = rng.standard_normal(n)
        for u, kind in ((ustar, GROUND_TRUTH_PLUS), (-ustar, GROUND_TRUTH_MINUS)):
            verdict = is_stationary_lp(u, ustar)
            assert verdict.kind == kind
            assert verdict.violation == 0.0
            np.testing.assert_array_equal(verdict.witness, np.zeros((n, n)))
