import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1landscape import lpcore, secondorder, stationarity
from l1landscape.core import (
    SubdifferentialModel,
    residual_pattern,
    subdifferential_model,
    subgradient_select,
)
from l1landscape.firstorder import EPS_DIR, NotStationaryError, critical_cone, directional_derivative
from l1landscape.secondorder import (
    GLOBAL_MIN,
    NOT_STATIONARY,
    SPURIOUS_STATIONARY,
    classify_point,
    escape_curvature,
    second_subderivative,
    second_subderivative_numeric,
)
from l1landscape.stationarity import (
    is_stationary_closed_form,
    is_stationary_lp,
    min_norm_element,
    project_to_spurious_set,
)


def random_spurious(rng, n):
    ustar = rng.standard_normal(n)
    ustar[np.abs(ustar) < 0.05] = 0.25
    u, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
    return u, ustar


def solve_face_member(model):
    """A feasible matrix in the face, from the min-norm witness program."""
    value, free_values, _, _ = min_norm_element(model)
    assert value <= 1e-9
    return model.assemble(np.clip(free_values, -1.0, 1.0))


def test_second_subderivative_examples():
    v = second_subderivative([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0])
    assert v == pytest.approx(-4.0, abs=1e-9)
    v = second_subderivative([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    assert v == pytest.approx(1.0, abs=1e-10)
    assert math.isinf(second_subderivative([-1.0, 1.0], [1.0, 1.0], [-1.0, 0.0]))


def test_second_subderivative_rejects_non_stationary_points():
    with pytest.raises(NotStationaryError):
        second_subderivative([0.5, 0.2], [1.0, 1.0], [1.0, 0.0])


def test_infinite_off_cone_at_ground_truth():
    ustar = np.array([1.0, -2.0])
    assert math.isinf(second_subderivative(ustar, ustar, [1.0, 0.0]))
    assert second_subderivative(ustar, ustar, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_escape_curvature_examples():
    w, value = escape_curvature([-1.0, 1.0], [1.0, 1.0])
    np.testing.assert_allclose(w, [2.0, 0.0])
    assert value == pytest.approx(-4.0, abs=1e-9)

    w, value = escape_curvature([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(w, [1.0, 1.0])
    assert value == pytest.approx(-4.0, abs=1e-9)

    w, value = escape_curvature([0.5, -0.5], [1.0, 1.0])
    np.testing.assert_allclose(w, [0.5, 1.5])
    assert value == pytest.approx(-4.0, abs=1e-9)


def test_escape_curvature_rejects_ground_truth():
    with pytest.raises(ValueError):
        escape_curvature([1.0, 1.0], [1.0, 1.0])


def test_face_is_singleton_at_full_support_spurious_point():
    face = subdifferential_model([-1.0, 1.0], [1.0, 1.0])
    q = solve_face_member(face)
    np.testing.assert_allclose(q, -np.ones((2, 2)), atol=1e-9)
    assert face.contains(q)
    assert not face.contains(np.zeros((2, 2)))


def test_face_members_satisfy_defining_constraints():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        u, ustar = random_spurious(rng, n)
        face = subdifferential_model(u, ustar)
        q = solve_face_member(face)
        np.testing.assert_allclose(q, q.T, atol=1e-12)
        assert np.abs(q @ u).max() <= 1e-8
        assert np.abs(q).max() <= 1.0 + 1e-9


def test_spurious_curvature_law():
    """Escape value equals -||ustar||_1^2 on both signed escape directions."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        u, ustar = random_spurious(rng, n)
        target = -float(np.abs(ustar).sum()) ** 2
        for sign in (1.0, -1.0):
            w = sign * ustar - u
            assert second_subderivative(u, ustar, w) == pytest.approx(target, abs=1e-8)


def test_escape_direction_lies_in_critical_cone():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        u, ustar = random_spurious(rng, n)
        cone = critical_cone(u, ustar)
        for sign in (1.0, -1.0):
            w = sign * ustar - u
            assert directional_derivative(u, ustar, w) <= 1e-9
            assert cone.contains(w)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-2, 1e2), st.integers(0, 2**32 - 1))
def test_degree_two_homogeneity_on_cone_directions(lam, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    u, ustar = random_spurious(rng, n)
    w = critical_cone(u, ustar).sample(rng)
    base = second_subderivative(u, ustar, w)
    scaled = second_subderivative(u, ustar, lam * w)
    assert scaled == pytest.approx(lam * lam * base, rel=1e-7, abs=1e-9)


def test_numeric_estimator_brackets_exact_values():
    est = second_subderivative_numeric(
        [-1.0, 1.0], [1.0, 1.0], [2.0, 0.0], t0=1e-2, rho=0.5, k_max=10,
        delta_w=1e-3, ball_samples=50,
    )
    assert -4.2 <= est <= -3.8
    est = second_subderivative_numeric(
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], t0=1e-2, rho=0.5, k_max=10,
        delta_w=1e-3, ball_samples=50,
    )
    assert 0.95 <= est <= 1.05


def test_numeric_estimator_zero_direction_at_ground_truth():
    assert second_subderivative_numeric([1.0, 1.0], [1.0, 1.0], [0.0, 0.0]) == 0.0


def test_numeric_estimator_monotone_under_grid_refinement():
    # the sample cloud is keyed per t-level, so growing the grid only adds
    # quotients and the minimum cannot increase
    args = ([-1.0, 1.0], [1.0, 1.0], [2.0, 0.0])
    coarse = second_subderivative_numeric(*args, k_max=4, ball_samples=8)
    medium = second_subderivative_numeric(*args, k_max=8, ball_samples=32)
    fine = second_subderivative_numeric(*args, k_max=12, ball_samples=64)
    assert coarse >= medium >= fine
    assert fine == pytest.approx(-4.0, rel=0.05)


def test_numeric_matches_lp_on_escape_directions():
    rng = np.random.default_rng(14)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        u, ustar = random_spurious(rng, n)
        w, exact = escape_curvature(u, ustar)
        est = second_subderivative_numeric(u, ustar, w)
        assert est == pytest.approx(exact, rel=0.05)


def test_classify_point_examples():
    ustar = np.array([1.0, 1.0])
    res = classify_point(ustar, ustar)
    assert res.kind == GLOBAL_MIN

    res = classify_point([-1.0, 1.0], ustar)
    assert res.kind == SPURIOUS_STATIONARY
    np.testing.assert_allclose(res.escape_direction, [2.0, 0.0])
    assert res.curvature == pytest.approx(-4.0, abs=1e-9)

    res = classify_point([0.5, 0.2], ustar)
    assert res.kind == NOT_STATIONARY
    d = res.descent_direction
    assert directional_derivative([0.5, 0.2], ustar, d) < 0.0


# A box-face point where -midpoint does not descend and the min-norm element
# does (the FALLBACK input of the CLI tests), and one where neither does, so
# the steepest-descent direction read from the min-norm LP's duals decides.
MIN_NORM_POINT = (np.array([-0.7278215444386658, 0.344234196431766, -0.30043137049255364]),
                  np.array([-0.7278215444386658, -1.2948348672230032, 0.30043137049255364]))
STEEPEST_LP_POINT = (np.array([0.31, 0.52]), np.array([-0.44, 0.52]))


def test_classify_point_min_norm_fallback():
    """At this box-face point -midpoint does not descend; the min-norm element
    does, so it decides the direction before the min-norm LP's duals."""
    u, ustar = MIN_NORM_POINT
    g = subgradient_select(u, ustar)
    assert directional_derivative(u, ustar, -g / np.linalg.norm(g)) >= -EPS_DIR

    _, _, element, _ = min_norm_element(subdifferential_model(u, ustar))
    res = classify_point(u, ustar)
    assert res.kind == NOT_STATIONARY
    np.testing.assert_array_equal(res.descent_direction,
                                  -element / float(np.linalg.norm(element)))
    assert directional_derivative(u, ustar, res.descent_direction) < -EPS_DIR


@pytest.mark.parametrize("point", [MIN_NORM_POINT, STEEPEST_LP_POINT])
def test_classify_point_builds_one_model(monkeypatch, point):
    """Every candidate direction, the min-norm element and the steepest
    descent direction are read from a single subdifferential model and one
    LP solve. Both points reach the min-norm element through one
    feasibility_min_infinity_norm call, the call perfbench's tracer counts as
    a fallback; at the second the direction comes from that solve's duals."""
    models = []
    init = SubdifferentialModel.__init__

    def counting_init(self, *args):
        models.append(self)
        init(self, *args)

    solves = []
    simplex = lpcore.solve

    def counting_solve(*args):
        solves.append(args)
        return simplex(*args)

    min_norm = []
    fmin = stationarity.feasibility_min_infinity_norm

    def counting_fmin(*args):
        min_norm.append(args)
        return fmin(*args)

    monkeypatch.setattr(SubdifferentialModel, "__init__", counting_init)
    monkeypatch.setattr(lpcore, "solve", counting_solve)
    monkeypatch.setattr(secondorder, "solve", counting_solve)
    monkeypatch.setattr(stationarity, "feasibility_min_infinity_norm", counting_fmin)
    res = classify_point(*point)
    assert res.kind == NOT_STATIONARY
    assert len(models) == 1
    assert len(solves) == 1
    assert len(min_norm) == 1
    assert directional_derivative(*point, res.descent_direction) < -EPS_DIR


def dual_route_point():
    """Draw 92 of a seeded box-face stream: n = 40, 39 coordinates at
    +-|ustar_i|, 420 free pairs. Neither the midpoint nor the min-norm element
    descends there, and a separately formulated descent LP met a singular
    basis in phase 2."""
    rng = np.random.default_rng(1)
    for i in range(93):
        n = (10, 20, 40)[i % 3]
        u = rng.standard_normal(n)
        ustar = rng.standard_normal(n)
        face = rng.random(n) < 0.9
        u[face] = rng.choice([-1, 1], size=int(face.sum())) * np.abs(ustar[face])
    return u, ustar


def test_classify_point_descends_along_the_min_norm_duals():
    u, ustar = dual_route_point()
    model = subdifferential_model(u, ustar)
    assert len(model.free_pairs) == 420
    value, _, element, w = min_norm_element(model)
    for g in (model.fixed_vector(), element):
        assert model.support(-g / np.linalg.norm(g)) >= -EPS_DIR

    res = classify_point(u, ustar)
    assert res.kind == NOT_STATIONARY
    assert model.support(res.descent_direction) < -EPS_DIR
    np.testing.assert_array_equal(res.descent_direction, -w / np.linalg.norm(w))
    assert abs(np.abs(w).sum() - 1.0) <= 1e-12
    assert model.support(-w) == pytest.approx(-value, rel=1e-9)


@pytest.mark.parametrize("point, kind", [
    (([-1.0, 1.0], [1.0, 1.0]), SPURIOUS_STATIONARY),
    (MIN_NORM_POINT, NOT_STATIONARY),
    (STEEPEST_LP_POINT, NOT_STATIONARY),
])
def test_classify_point_runs_closed_form_once(monkeypatch, point, kind):
    """The escape path and the descent path reuse the first closed-form
    verdict instead of certifying the point again."""
    verdicts = []
    closed_form = secondorder.is_stationary_closed_form

    def counting_closed_form(*args):
        verdicts.append(args)
        return closed_form(*args)

    models = []
    init = SubdifferentialModel.__init__

    def counting_init(self, *args):
        models.append(self)
        init(self, *args)

    monkeypatch.setattr(secondorder, "is_stationary_closed_form", counting_closed_form)
    monkeypatch.setattr(SubdifferentialModel, "__init__", counting_init)
    assert classify_point(*point).kind == kind
    assert len(verdicts) == 1
    assert len(models) == 1


def test_classify_point_zero_ground_truth():
    assert classify_point([0.0, 0.0], [0.0, 0.0]).kind == GLOBAL_MIN
    assert classify_point([0.3, 0.0], [0.0, 0.0]).kind == NOT_STATIONARY


def test_classifier_soundness_on_random_points():
    from l1landscape.core import objective

    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        ustar = rng.standard_normal(n)
        if rng.random() < 0.4:
            u, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
        else:
            u = rng.uniform(-2.0, 2.0, size=n)
        res = classify_point(u, ustar)
        if res.kind == GLOBAL_MIN:
            assert objective(u, ustar) <= 1e-9
        if res.kind == NOT_STATIONARY:
            both = (
                is_stationary_closed_form(u, ustar).is_stationary
                and is_stationary_lp(u, ustar).is_stationary
            )
            assert not both
            assert directional_derivative(u, ustar, res.descent_direction) < 0.0
        if res.kind == SPURIOUS_STATIONARY:
            assert res.curvature < 0.0


# Reference model: the free pairs, pair matrix, assembly and face-LP
# coefficients written as plain loops over the pairs, one at a time.
def reference_free_pairs(sign):
    n = sign.shape[0]
    return [(i, j) for i in range(n) for j in range(i, n) if sign[i, j] == 0]


def reference_pair_matrix(u, pairs):
    m = np.zeros((u.size, len(pairs)))
    for d, (i, j) in enumerate(pairs):
        m[i, d] = u[j]
        m[j, d] = u[i]
    return m


def reference_assemble(sign, pairs, values):
    s = sign.copy()
    for (i, j), v in zip(pairs, values):
        s[i, j] = v
        s[j, i] = v
    return s


def reference_face_coefficients(pairs, w):
    return np.array([w[i] * w[j] if i == j else 2.0 * w[i] * w[j] for i, j in pairs])


def reference_points(rng, n):
    """(label, u, ustar) per input class."""
    ustar = rng.standard_normal(n)
    yield "spurious", *random_spurious(rng, n)
    sparse = ustar.copy()
    sparse[1:][rng.random(n - 1) < 0.5] = 0.0
    u, _ = project_to_spurious_set(2.0 * rng.standard_normal(n), sparse)
    yield "ustar_i = u_i = 0", u, sparse
    yield "all free", np.zeros(n), np.zeros(n)
    face = rng.standard_normal(n)
    on = rng.random(n) < 0.6
    face[on] = rng.choice([-1.0, 1.0], on.sum()) * ustar[on]
    yield "box face", face, ustar
    zeroed = rng.standard_normal(n)
    zeroed[sparse == 0.0] = 0.0
    yield "non-stationary, ustar_i = u_i = 0", zeroed, sparse
    yield "generic", rng.standard_normal(n), ustar


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_array_model_matches_loop_reference(monkeypatch):
    """Free-pair order, pair matrix, assembly and face-LP coefficients agree
    bit for bit with the loop reference, on every input class."""
    objectives = []
    solve = secondorder.solve

    def recording_solve(lp, *args):
        objectives.append(lp.objective)
        return solve(lp, *args)

    monkeypatch.setattr(secondorder, "solve", recording_solve)
    rng = np.random.default_rng(61)
    seen = set()
    for n in range(1, 13):
        for label, u, ustar in reference_points(rng, n):
            model = subdifferential_model(u, ustar)
            sign = residual_pattern(u, ustar)
            pairs = reference_free_pairs(sign)
            p = len(pairs)
            assert model.free_pairs.shape == (p, 2)
            assert model.free_pairs.tolist() == [list(pair) for pair in pairs]
            assert same_bits(model.pair_matrix(), reference_pair_matrix(model.base_point, pairs))
            values = rng.uniform(-1.0, 1.0, p)
            assert same_bits(model.assemble(values), reference_assemble(sign, pairs, values))
            if label == "generic":
                assert p == 0
            if label == "all free":
                assert p == n * (n + 1) // 2
            seen.add((label, p > 0))

            if not is_stationary_closed_form(u, ustar).is_stationary:
                continue
            directions = [ustar - u, -ustar - u] if np.any(ustar) else [rng.standard_normal(n)]
            for w in directions:
                objectives.clear()
                second_subderivative(u, ustar, w)
                if p == 0:
                    assert objectives == []
                else:
                    assert len(objectives) == 1
                    assert same_bits(objectives[0], reference_face_coefficients(pairs, w))
    for label in ("spurious", "ustar_i = u_i = 0", "all free", "box face",
                  "non-stationary, ustar_i = u_i = 0"):
        assert (label, True) in seen
