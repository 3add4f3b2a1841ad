import io
import math

import numpy as np
import pytest

from l1landscape import dynamics, stationarity
from l1landscape.core import midpoint_subgradient, objective, subgradient_select
from l1landscape.dynamics import (
    BLOCK_ROWS,
    DEFAULT_TAU_SUCC,
    DEFAULT_TAU_TRAP,
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
from l1landscape.stationarity import distance_to_ground_truths, project_to_spurious_set


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

    s = StepSchedule(INV_SQRT_K, 0.1)
    assert s.step(4) == pytest.approx(0.05)

    s = StepSchedule(GEOMETRIC, 1.0, q=0.5)
    assert s.step(1) == 0.5
    assert s.step(3) == 0.125


def test_schedule_validation():
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive"):
            StepSchedule(INV_K, c)
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
    np.testing.assert_array_equal(traj.points[-1], [1.0, 1.0])


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
    np.testing.assert_allclose(traj.points[-1], [-0.9, 0.9])
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


def reference_run(u0, ustar, schedule, max_iters, stop_tol):
    """run_subgradient's columns, one iterate at a time, from the public
    single-point functions."""
    u = np.asarray(u0, dtype=float)
    points, dist_gt, steps = [], [], []
    for k in range(1, max_iters + 1):
        points.append(u)
        dist_gt.append(distance_to_ground_truths(u, ustar))
        if dist_gt[-1] <= stop_tol:
            break
        g = subgradient_select(u, ustar)
        if np.abs(g).max() == 0.0:
            break
        steps.append(schedule.step(k))
        u = u - steps[-1] * g
    else:
        points.append(u)
        dist_gt.append(distance_to_ground_truths(u, ustar))
    steps.append(0.0)
    values = [objective(p, ustar) for p in points]
    if np.any(ustar):
        dist_sp = [project_to_spurious_set(p, ustar)[1] for p in points]
    else:
        dist_sp = [float(np.linalg.norm(p)) for p in points]
    return np.array(points), values, dist_gt, dist_sp, steps


@pytest.mark.parametrize("n", [2, 3, 10, 20, 40])
def test_run_matches_a_per_iterate_reference(n):
    """Every column has the reference's bits, across block boundaries.

    dist_spurious at n >= 16 is held to 2e-15 relative instead: there its
    dot products reach ddot's SIMD blocks, and a BLAS may split those by
    memory alignment, which differs between a stack row and a lone vector.
    """
    schedule = StepSchedule(INV_SQRT_K, 0.1)
    for seed, stop_tol in ((0, 0.0), (1, 1e-2), (2, 0.0)):
        rng = np.random.default_rng([seed, n])
        ustar = rng.standard_normal(n) if seed < 2 else np.zeros(n)
        u0 = rng.standard_normal(n)
        traj = run_subgradient(u0, ustar, schedule, BLOCK_ROWS + 300, stop_tol)
        points, values, dist_gt, dist_sp, steps = reference_run(
            u0, ustar, schedule, BLOCK_ROWS + 300, stop_tol)
        np.testing.assert_array_equal(traj.iters, np.arange(len(points)))
        np.testing.assert_array_equal(traj.points, points)
        np.testing.assert_array_equal(traj.values, values)
        np.testing.assert_array_equal(traj.dist_ground_truth, dist_gt)
        np.testing.assert_array_equal(traj.steps, steps)
        if n <= 10:
            np.testing.assert_array_equal(traj.dist_spurious, dist_sp)
        else:
            np.testing.assert_allclose(traj.dist_spurious, dist_sp, rtol=2e-15, atol=0.0)


def test_diagnostics_are_computed_per_block_not_per_iterate(monkeypatch):
    calls = {"objective": 0, "project": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, "objective", counting("objective", dynamics.objective))
    monkeypatch.setattr(stationarity, "project_to_spurious_set",
                        counting("project", stationarity.project_to_spurious_set))
    rng = np.random.default_rng(4)
    traj = run_subgradient(rng.standard_normal(10), rng.standard_normal(10),
                           StepSchedule(INV_SQRT_K, 0.1), 20_000, stop_tol=0.0)
    assert len(traj) == 20_001
    blocks = math.ceil(len(traj) / BLOCK_ROWS)
    assert calls == {"objective": blocks, "project": blocks}


def test_memory_follows_the_run_not_max_iters():
    # a start at the ground truth stops at once; a (max_iters + 1, n) buffer
    # would not fit in memory
    traj = run_subgradient([1.0, -2.0], [1.0, -2.0], StepSchedule(INV_K, 0.1),
                           max_iters=10**12)
    assert len(traj) == 1
    assert traj.points.shape == (1, 2)


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
    # the label follows from the final distances, which are the public ones
    ustar = np.array([1.0, 1.0])
    report = conjecture_probe(ustar, trials=1, max_iters=2000, seed=0)
    assert report.successes == 1
    assert report.labels == (SUCCESS,)
    final = report.final_points[0]
    assert report.final_dist_ground_truth[0] == distance_to_ground_truths(final, ustar)
    assert report.final_dist_ground_truth[0] <= report.tau_succ
    assert report.final_dist_spurious[0] == project_to_spurious_set(final, ustar)[1]


def test_conjecture_probe_iteration_count():
    # zero steps label the Gaussian starts themselves
    report = conjecture_probe([1.0, 1.0], trials=2, max_iters=0, seed=5)
    assert report.schedule == dynamics.DEFAULT_SCHEDULE
    np.testing.assert_array_equal(report.final_points[1],
                                  np.random.default_rng([5, 1]).standard_normal(2))
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        conjecture_probe([1.0, 1.0], trials=2, max_iters=-4)


def test_batch_and_per_trial_paths_agree():
    """The lockstep probe and run_subgradient from the same starts end on the
    same bits."""
    for ustar in ([1.0, 1.0], [1.0, -0.5, 2.0], np.linspace(-1.0, 1.5, 10)):
        ustar = np.asarray(ustar)
        batch = conjecture_probe(ustar, trials=20, max_iters=300, seed=3)
        for t in range(3):
            u0 = np.random.default_rng([3, t]).standard_normal(ustar.size)
            traj = run_subgradient(u0, ustar, batch.schedule, 300, stop_tol=0.0)
            np.testing.assert_array_equal(traj.points[-1], batch.final_points[t])


def test_probe_steps_in_the_lockstep_loop(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conjecture_probe called run_subgradient")

    monkeypatch.setattr(dynamics, "run_subgradient", refuse)
    shapes = []

    def recording(u, ustar):
        shapes.append(u.shape)
        return midpoint_subgradient(u, ustar)

    monkeypatch.setattr(dynamics, "midpoint_subgradient", recording)
    report = conjecture_probe([1.0, -0.5, 2.0], trials=4, max_iters=3, seed=2)
    assert report.trials == 4
    # one kernel call on the whole stack per step
    assert shapes == [(4, 3)] * 3


def test_adversarial_selection_traps_on_the_polytope():
    # the paper's potential risk: the constant matrix -Sign(ustar ustar^T) is
    # a valid subgradient choice everywhere on the spurious polytope and
    # annihilates the whole line x + y = 0, so a method that selects it
    # never moves from starts there; the midpoint rule does not select it
    ustar = np.array([1.0, 1.0])
    z = -np.ones((2, 2))
    schedule = StepSchedule(INV_SQRT_K, 0.1)
    rng = np.random.default_rng(5)
    trapped = 0
    for _ in range(40):
        u = start = rng.standard_normal() * np.array([1.0, -1.0])
        for k in range(1, 201):
            u = u - schedule.step(k) * (z @ u)
        np.testing.assert_array_equal(u, start)
        assert distance_to_ground_truths(u, ustar) > DEFAULT_TAU_SUCC
        if project_to_spurious_set(u, ustar)[1] <= DEFAULT_TAU_TRAP:
            assert in_subdifferential(z @ u, u, ustar)
            trapped += 1
    assert trapped > 0


def test_nan_thresholds_are_refused():
    schedule = StepSchedule(INV_K, 0.1)
    with pytest.raises(ValueError, match="stop_tol must not be NaN"):
        run_subgradient([1.0, 2.0], [1.0, 1.0], schedule, stop_tol=math.nan)
    for name in ("tau_succ", "tau_trap"):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            conjecture_probe([1.0, 1.0], trials=2, max_iters=2, **{name: math.nan})


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
    # a bound or a span that is not finite puts inf and nan in the sweep
    for bounds in ({"xmax": math.inf}, {"ymin": -math.inf}, {"xmin": math.nan},
                   {"xmin": -1e308, "xmax": 1e308}):
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec(**bounds)
    with pytest.raises(ValueError):
        flow_field([1.0, 1.0, 1.0])
