import io
import math

import numpy as np
import pytest

from l1landscape.core import subgradient_select
from l1landscape.dynamics import (
    GEOMETRIC,
    INV_K,
    INV_SQRT_K,
    SUCCESS,
    TRAPPED,
    UNDECIDED,
    ConjectureReport,
    GridSpec,
    StepSchedule,
    conjecture_probe,
    flow_field,
    run_subgradient,
    write_trajectory_csv,
)
from l1landscape.lpcore import feasibility_min_infinity_norm
from l1landscape.core import subdifferential_model
from l1landscape.stationarity import distance_to_ground_truths


def in_subdifferential(g, u, ustar, tol=1e-8):
    model = subdifferential_model(u, ustar)
    m = model.pair_matrix()
    cols = np.hstack([np.asarray(model.fixed_vector() - g).reshape(-1, 1), m])
    lower = [1.0] + [-1.0] * m.shape[1]
    upper = [1.0] + [1.0] * m.shape[1]
    return feasibility_min_infinity_norm(lower, upper, cols)[0] <= tol


def test_schedule_values_and_flags():
    s = StepSchedule(INV_K, 0.5)
    assert s.step(1) == 0.5
    assert s.step(4) == 0.125
    assert not s.summable

    s = StepSchedule(INV_SQRT_K, 0.1)
    assert s.step(4) == pytest.approx(0.05)
    assert not s.summable

    s = StepSchedule(GEOMETRIC, 1.0, q=0.5)
    assert s.step(1) == 0.5
    assert s.step(3) == 0.125
    assert s.summable


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(INV_K, 0.0)
    with pytest.raises(ValueError):
        StepSchedule(GEOMETRIC, 1.0)
    with pytest.raises(ValueError):
        StepSchedule(GEOMETRIC, 1.0, q=1.5)
    with pytest.raises(ValueError):
        StepSchedule(INV_K, 1.0, q=0.5)
    with pytest.raises(ValueError):
        StepSchedule("linear", 1.0)
    with pytest.raises(ValueError):
        StepSchedule(INV_K, 1.0).step(0)


def test_ground_truth_start_is_a_fixed_point():
    traj = run_subgradient([1.0, 1.0], [1.0, 1.0], StepSchedule(INV_K, 0.1))
    assert len(traj) == 1
    assert traj.steps[0] == 0.0
    np.testing.assert_array_equal(traj.final_point, [1.0, 1.0])


def test_one_dimensional_oracle():
    schedule = StepSchedule(INV_SQRT_K, 0.1)
    for u0 in (2.0, -2.0, 0.5, -0.5):
        traj = run_subgradient([u0], [1.0], schedule, max_iters=10_000, stop_tol=1e-2)
        assert traj.dist_ground_truth[-1] <= 1e-2
        assert len(traj) < 10_000


def test_spurious_point_is_not_fixed_under_midpoint_rule():
    # the midpoint subgradient at (-1, 1) is (-1, 1), so the iterate moves;
    # one step later it reaches the polytope interior where the midpoint
    # subgradient vanishes, and the run freezes there
    traj = run_subgradient([-1.0, 1.0], [1.0, 1.0], StepSchedule(INV_SQRT_K, 0.1))
    assert len(traj) == 2
    assert not np.array_equal(traj.points[1], traj.points[0])
    np.testing.assert_allclose(traj.final_point, [-0.9, 0.9])
    assert traj.dist_spurious[-1] <= 1e-12
    assert traj.steps[-1] == 0.0


def test_trajectory_distance_bookkeeping_is_exact():
    rng = np.random.default_rng(1)
    ustar = np.array([1.0, -0.5, 0.0])
    traj = run_subgradient(rng.standard_normal(3), ustar,
                           StepSchedule(INV_SQRT_K, 0.05), max_iters=50, stop_tol=0.0)
    for k in range(len(traj)):
        assert traj.dist_ground_truth[k] == distance_to_ground_truths(traj.points[k], ustar)


def test_recorded_steps_reproduce_the_iteration():
    schedule = StepSchedule(INV_K, 0.2)
    traj = run_subgradient([1.5, -0.3], [1.0, 1.0], schedule, max_iters=40, stop_tol=0.0)
    for k in range(len(traj) - 1):
        assert traj.steps[k] == schedule.step(k + 1)
        g = (traj.points[k] - traj.points[k + 1]) / traj.steps[k]
        assert in_subdifferential(g, traj.points[k], [1.0, 1.0])


def test_run_is_deterministic():
    a = run_subgradient([1.7, 0.4], [1.0, 1.0], StepSchedule(INV_SQRT_K, 0.1), max_iters=100)
    b = run_subgradient([1.7, 0.4], [1.0, 1.0], StepSchedule(INV_SQRT_K, 0.1), max_iters=100)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.values, b.values)


def test_trajectory_csv_format():
    traj = run_subgradient([1.5, -0.3], [1.0, 1.0], StepSchedule(INV_K, 0.2),
                           max_iters=5, stop_tol=0.0)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    raw = buf.getvalue()
    lines = raw.split("\r\n")
    assert lines[-1] == ""
    assert lines[0] == "iter,u_1,u_2,f,dist_gt,dist_spurious,step"
    assert len(lines) == len(traj) + 2
    # 17 significant digits round-trip doubles exactly
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    assert float(cells[1]) == traj.points[0][0]
    assert float(cells[4]) == traj.dist_ground_truth[0]


def test_conjecture_probe_gaussian_inits():
    report = conjecture_probe([1.0, 1.0], trials=50, max_iters=2000, seed=0)
    assert report.trials == 50
    assert report.successes + report.trapped + report.undecided == 50
    assert len(report.labels) == 50
    assert report.final_points.shape == (50, 2)
    d = report.to_json_dict()
    assert d["success_fraction"] == report.successes / 50
    assert d["schedule"]["kind"] == INV_SQRT_K


def test_conjecture_probe_is_deterministic():
    a = conjecture_probe([1.0, 1.0], trials=30, max_iters=500, seed=7)
    b = conjecture_probe([1.0, 1.0], trials=30, max_iters=500, seed=7)
    assert a.labels == b.labels
    np.testing.assert_array_equal(a.final_points, b.final_points)
    assert a.to_json_dict() == b.to_json_dict()


def test_conjecture_probe_single_trial_at_ground_truth():
    report = conjecture_probe([1.0, 1.0], init=lambda rng: np.array([1.0, 1.0]),
                              trials=1, max_iters=10, seed=0)
    assert report.successes == 1
    assert report.labels == (SUCCESS,)


def test_conjecture_probe_rejects_a_wrong_size_init():
    # a length-1 start would otherwise broadcast one value to every coordinate
    with pytest.raises(ValueError, match=r"init\(rng\) returned shape \(1,\)"):
        conjecture_probe([1.0, -0.5, 2.0], init=lambda rng: [0.5], trials=2, max_iters=5)


def test_run_subgradient_rejects_a_wrong_size_selection():
    # a length-1 g would otherwise step every coordinate by the same amount
    with pytest.raises(ValueError, match=r"selection\(u, k\) returned shape \(1,\)"):
        run_subgradient([0.5, 0.2, 0.1], [1.0, 1.0, 1.0], StepSchedule(INV_K, 0.1),
                        max_iters=5, selection=lambda u, k: [1.0])


def test_batch_and_per_trial_paths_agree():
    """The lockstep probe, the per-trial probe and run_subgradient from the same
    starts end on the same bits."""
    for ustar in ([1.0, 1.0], [1.0, -0.5, 2.0], np.linspace(-1.0, 1.5, 10)):
        ustar = np.asarray(ustar)
        batch = conjecture_probe(ustar, trials=20, max_iters=300, seed=3)
        explicit = conjecture_probe(
            ustar, trials=20, max_iters=300, seed=3,
            selection=lambda u, k: subgradient_select(u, ustar),
        )
        assert batch.labels == explicit.labels
        np.testing.assert_array_equal(batch.final_points, explicit.final_points)
        for t in range(3):
            u0 = np.random.default_rng([3, t]).standard_normal(ustar.size)
            traj = run_subgradient(u0, ustar, batch.schedule, 300, stop_tol=0.0)
            np.testing.assert_array_equal(traj.final_point, batch.final_points[t])


def test_adversarial_selection_traps_on_the_polytope():
    # the constant matrix -Sign(ustar ustar^T) is a valid subgradient choice
    # everywhere on the spurious polytope and annihilates the whole line
    # x + y = 0, so starts there never move
    ustar = np.array([1.0, 1.0])
    z = -np.ones((2, 2))
    report = conjecture_probe(
        ustar,
        init=lambda rng: rng.standard_normal() * np.array([1.0, -1.0]),
        trials=40,
        max_iters=200,
        seed=5,
        selection=lambda u, k: z @ u,
    )
    assert report.trapped > 0
    assert report.successes == 0


def test_report_counts_must_partition():
    with pytest.raises(ValueError):
        ConjectureReport(
            trials=3, successes=1, trapped=1, undecided=2, seed=0,
            labels=(SUCCESS, TRAPPED, UNDECIDED),
            final_points=np.zeros((3, 2)),
            final_dist_ground_truth=np.zeros(3),
            final_dist_spurious=np.zeros(3),
            schedule=StepSchedule(INV_K, 0.1),
        )


def test_flow_field_examples():
    points, dirs = flow_field([1.0, 1.0], GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21))
    assert points.shape == dirs.shape == (441, 2)
    # x varies fastest
    np.testing.assert_allclose(points[0], [-2.0, -2.0])
    np.testing.assert_allclose(points[1], [-1.8, -2.0])

    def direction_at(x, y):
        idx = np.flatnonzero((points[:, 0] == x) & (points[:, 1] == y))
        assert idx.size == 1
        return dirs[idx[0]]

    np.testing.assert_allclose(direction_at(1.0, 1.0), [0.0, 0.0])
    np.testing.assert_allclose(direction_at(1.0, 0.0), [0.0, 1.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(direction_at(-1.0, 1.0), [s, -s], atol=1e-12)


def test_flow_field_directions_are_unit_or_zero():
    points, dirs = flow_field([1.0, -0.5], GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9))
    norms = np.linalg.norm(dirs, axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))
    # the whole-grid field has the bits of a point-by-point evaluation
    for u, d in zip(points, dirs):
        g = subgradient_select(u, [1.0, -0.5])
        norm = float(np.linalg.norm(g))
        np.testing.assert_array_equal(d, 0.0 if norm == 0.0 else -g / norm)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=0)
    with pytest.raises(ValueError):
        GridSpec(xmin=1.0, xmax=-1.0)
    with pytest.raises(ValueError):
        flow_field([1.0, 1.0, 1.0])
