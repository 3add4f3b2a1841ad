import io
import math

import numpy as np
import pytest

from l1landscape.core import objective, subdifferential_model
from l1landscape.dynamics import INV_SQRT_K, StepSchedule
from l1landscape.tilting import (
    EX41,
    EX42,
    SCALAR_FNS,
    certify_sharp_local_min_1d,
    certify_sharp_local_min_tilted_f,
    eval_ex41,
    eval_ex42,
    tilt_divergence_probe_ex41,
    write_tilt_samples_csv,
)


def test_plateau_function_values():
    assert eval_ex41(0.0) == (-0.5, 0.0)
    assert eval_ex41(3.0) == (0.5, 0.0)
    assert eval_ex41(1.5) == (0.375, 0.5)
    assert eval_ex41(-3.0) == (0.5, 0.0)


def test_plateau_function_is_c1_at_branch_edges():
    for edge in (-2.0, -1.0, 1.0, 2.0):
        v_left, d_left = eval_ex41(edge - 1e-9)
        v_right, d_right = eval_ex41(edge + 1e-9)
        assert v_left == pytest.approx(v_right, abs=1e-8)
        assert d_left == pytest.approx(d_right, abs=1e-8)


def test_sawtooth_values_and_intervals():
    # value at 0 is pinned by continuity with the x > 0 arcs
    value, interval = eval_ex42(0.0)
    assert value == 0.0
    assert interval == (-1.0, 1.0)

    value, interval = eval_ex42(1.0)
    assert value == 0.5
    assert interval == (0.0, 1.0)

    value, interval = eval_ex42(-2.5)
    assert value == 1.375
    assert interval == (-0.5, -0.5)

    value, interval = eval_ex42(-1.0)
    assert value == 0.5
    assert interval == (-1.0, 0.0)


def test_sawtooth_slopes_off_integers():
    _, (lo, hi) = eval_ex42(0.25)
    assert lo == hi == 0.75
    _, (lo, hi) = eval_ex42(-0.25)
    assert lo == hi == -0.75


def test_sawtooth_is_continuous_at_integers():
    for m in range(-5, 6):
        v_left = eval_ex42(m - 1e-9)[0]
        v_mid = eval_ex42(float(m))[0]
        v_right = eval_ex42(m + 1e-9)[0]
        assert v_left == pytest.approx(v_mid, abs=1e-8)
        assert v_right == pytest.approx(v_mid, abs=1e-8)


def test_weak_convexity_of_plateau_function():
    rng = np.random.default_rng(12)
    xs = rng.uniform(-6.0, 6.0, size=10_000)
    ys = rng.uniform(-6.0, 6.0, size=10_000)
    for x, y in zip(xs, ys):
        dx = eval_ex41(x)[1]
        dy = eval_ex41(y)[1]
        assert (dx - dy) * (x - y) >= -((x - y) ** 2) - 1e-12


def test_weak_convexity_of_sawtooth():
    rng = np.random.default_rng(15)
    xs = rng.uniform(-6.0, 6.0, size=10_000)
    ys = rng.uniform(-6.0, 6.0, size=10_000)
    # a few exact kinks so the interval endpoints actually participate
    xs[:20] = np.arange(-10, 10)
    for x, y in zip(xs, ys):
        _, (vlo, vhi) = eval_ex42(x)
        _, (wlo, whi) = eval_ex42(y)
        bound = -((x - y) ** 2) - 1e-12
        for v in (vlo, vhi):
            for w in (wlo, whi):
                assert (v - w) * (x - y) >= bound


def test_certify_1d_examples():
    assert certify_sharp_local_min_1d(EX42, 3.0, 0.45) == (True, 0.45)
    assert certify_sharp_local_min_1d(EX42, 3.0, 0.0) == (False, 0.0)
    assert certify_sharp_local_min_1d(EX42, -1.0, 0.45) == (False, 0.0)


def test_certify_1d_never_certifies_smooth_points():
    for x0 in (-3.0, 0.0, 0.7, 2.0):
        certified, modulus = certify_sharp_local_min_1d(EX41, x0, 0.3)
        assert not certified
        assert modulus == 0.0


def test_countable_minima_structure():
    for x0 in range(1, 11):
        certified, modulus = certify_sharp_local_min_1d(EX42, float(x0), 0.45)
        assert certified
        assert modulus == 0.45
    for x0 in range(-10, 0):
        certified, modulus = certify_sharp_local_min_1d(EX42, float(x0), -0.45)
        assert certified
        assert modulus == 0.45
    for x0 in range(1, 11):
        assert not certify_sharp_local_min_1d(EX42, float(x0), -0.45)[0]


def test_certified_1d_minima_are_genuine():
    cases = [(3.0, 0.45), (1.0, 0.45), (7.0, 0.2), (-2.0, -0.45)]
    for x0, a in cases:
        certified, modulus = certify_sharp_local_min_1d(EX42, x0, a)
        assert certified
        h0 = eval_ex42(x0)[0] - a * x0
        for delta in (1e-4, 1e-3, 1e-2):
            for s in (1.0, -1.0):
                x = x0 + s * delta
                h = eval_ex42(x)[0] - a * x
                assert h >= h0 + (modulus / 2.0) * delta


def test_certify_tilted_f_examples():
    certified, modulus = certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0])
    assert certified
    assert modulus == pytest.approx(1.0, abs=1e-12)

    certified, modulus = certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], [0.0, 0.0])
    assert not certified
    assert modulus == 0.0

    certified, modulus = certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], [-0.5, 1.5])
    assert certified
    assert modulus == pytest.approx(0.5, abs=1e-12)


def test_certify_tilted_f_matches_interval_formula():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = np.array([rng.uniform(-2.0, 0.0), rng.uniform(0.0, 2.0)])
        _, modulus = certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], a)
        expected = min(abs(2.0 + a[0]), abs(a[0]), abs(a[1]), abs(2.0 - a[1]))
        assert modulus == pytest.approx(expected, abs=1e-12)


def test_certify_tilted_f_on_the_opposite_corner():
    certified, modulus = certify_sharp_local_min_tilted_f([1.0, 1.0], [1.0, -1.0], [1.0, -1.0])
    assert certified
    assert modulus == pytest.approx(1.0, abs=1e-12)


def test_certified_tilted_f_minima_are_genuine():
    ustar = np.array([1.0, 1.0])
    u0 = np.array([-1.0, 1.0])
    a = np.array([-1.0, 1.0])
    certified, modulus = certify_sharp_local_min_tilted_f(ustar, u0, a)
    assert certified
    h0 = objective(u0, ustar) - float(a @ u0)
    rng = np.random.default_rng(22)
    for _ in range(8):
        e = rng.standard_normal(2)
        e /= np.linalg.norm(e)
        for delta in (1e-4, 1e-3, 1e-2):
            u = u0 + delta * e
            h = objective(u, ustar) - float(a @ u)
            assert h >= h0 + (modulus / 2.0) * delta


def test_certify_tilted_f_rejects_other_instances():
    # df is a box here too, flat in the second coordinate, so no tilt certifies
    assert certify_sharp_local_min_tilted_f([1.0, 2.0], [-1.0, 1.0], [0.0, 0.0]) == (False, 0.0)
    # two face coordinates of one sign tie off the diagonal: not a box
    with pytest.raises(ValueError, match="not a coordinate box"):
        certify_sharp_local_min_tilted_f([1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not a coordinate box"):
        certify_sharp_local_min_tilted_f([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="tilt must have the point's dimension 2"):
        certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], [0.0, 0.0, 0.0])


def test_certify_tilted_f_away_from_the_corner():
    assert certify_sharp_local_min_tilted_f([2.0, 1.0], [-2.0, 1.0], [-1.0, 2.0]) == (True, 1.0)
    # a ground truth near (1, 1) is not the corner: its first diagonal
    # residual is -1e-5, outside the zero band, so df has no width there
    assert certify_sharp_local_min_tilted_f([1.000005, 1.0], [-1.0, 1.0],
                                            [-1.0, 1.0]) == (False, 0.0)


def box_points(rng, count):
    """(u0, ustar) with n = 2-5 whose df(u0) is a coordinate box: each
    coordinate is on the box face (at most one of each sign, so no two face
    coordinates tie off the diagonal), a zero of ustar and u0, or generic."""
    for _ in range(count):
        n = int(rng.integers(2, 6))
        ustar = rng.standard_normal(n)
        u0 = rng.standard_normal(n)
        signs = iter(rng.permutation([-1.0, 1.0]))
        for i, kind in enumerate(rng.integers(0, 3, n)):
            s = next(signs, None) if kind == 0 else None
            if s is not None:
                u0[i] = s * ustar[i]
            elif kind < 2:
                ustar[i] = u0[i] = 0.0
        yield u0, ustar


def test_box_certificate_growth_at_random_box_points():
    """At 3,000 seeded box points, a tilt a drawn inside df(u0) that
    certifies with modulus kappa gives h = f - <a, .> the growth
    h(u0 + delta e) >= h(u0) + (kappa / 2) delta ||e||_inf for delta in
    {1e-6, 1e-5, 1e-4} along 20 random directions e. At u0 = ustar with two
    or more nonzeros an off-diagonal free pair couples two coordinates, and
    the certificate raises."""
    rng = np.random.default_rng(25)
    certified_count = 0
    for u0, ustar in box_points(rng, 3000):
        model = subdifferential_model(u0, ustar)
        half = np.abs(model.pair_matrix()).sum(axis=1)
        a = model.fixed_vector() + half * rng.uniform(-1.0, 1.0, u0.size)
        certified, kappa = certify_sharp_local_min_tilted_f(ustar, u0, a)
        if np.count_nonzero(ustar) >= 2:
            with pytest.raises(ValueError, match="not a coordinate box"):
                certify_sharp_local_min_tilted_f(ustar, ustar, a)
        if not certified:
            continue
        certified_count += 1
        h0 = objective(u0, ustar) - a @ u0
        for _ in range(20):
            e = rng.standard_normal(u0.size)
            for delta in (1e-6, 1e-5, 1e-4):
                u = u0 + delta * e
                assert objective(u, ustar) - a @ u >= h0 + kappa / 2.0 * delta * np.abs(e).max()
    assert certified_count >= 500


def test_tilt_probe_escapes_for_positive_tilt():
    report = tilt_divergence_probe_ex41(
        0.01, 3.0, StepSchedule(INV_SQRT_K, 200.0), 100_000
    )
    assert report.escaped
    assert report.final_x > 1e3
    assert report.iterations < 100_000


def test_tilt_probe_escapes_for_negative_tilt():
    report = tilt_divergence_probe_ex41(
        -0.01, -3.0, StepSchedule(INV_SQRT_K, 200.0), 100_000
    )
    assert report.escaped
    assert report.final_x < -1e3


def test_tilt_probe_untilted_origin_is_fixed():
    report = tilt_divergence_probe_ex41(0.0, 0.0, StepSchedule(INV_SQRT_K, 200.0), 1000)
    assert not report.escaped
    assert report.final_x == 0.0


def test_tilt_probe_refuses_nan():
    schedule = StepSchedule(INV_SQRT_K, 200.0)
    for name, args in (("a", (math.nan, 3.0)), ("x0", (0.01, math.nan))):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            tilt_divergence_probe_ex41(*args, schedule, 10)
    with pytest.raises(ValueError, match="threshold must not be NaN"):
        tilt_divergence_probe_ex41(0.01, 3.0, schedule, 10, threshold=math.nan)


def test_tilt_probe_refuses_infinite_start_and_tilt():
    # an infinite a or x0 would run to a non-finite final_x, and the report
    # echoes the threshold, which strict JSON cannot write when infinite
    schedule = StepSchedule(INV_SQRT_K, 200.0)
    for name, args in (("a", (math.inf, 3.0)), ("a", (-math.inf, 3.0)),
                       ("x0", (0.01, math.inf)), ("x0", (0.01, -math.inf))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tilt_divergence_probe_ex41(*args, schedule, 10)
    with pytest.raises(ValueError, match="threshold must be finite"):
        tilt_divergence_probe_ex41(0.01, 3.0, schedule, 10, threshold=math.inf)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_scalar_tilt_inputs_must_be_finite(value):
    # math.floor of an infinite x raised OverflowError, an ArithmeticError
    message = "must not be NaN" if math.isnan(value) else "must be finite"
    with pytest.raises(ValueError, match=f"x0 {message}"):
        certify_sharp_local_min_1d(EX42, value, 0.5)
    with pytest.raises(ValueError, match=f"a {message}"):
        certify_sharp_local_min_1d(EX42, 3.0, value)
    with pytest.raises(ValueError, match=f"a {message}"):
        write_tilt_samples_csv(EX42, value, [0.5], io.StringIO())


def test_tilt_probe_refuses_a_negative_iteration_count():
    schedule = StepSchedule(INV_SQRT_K, 200.0)
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        tilt_divergence_probe_ex41(0.01, 3.0, schedule, -1)
    assert tilt_divergence_probe_ex41(0.01, 3.0, schedule, 0).iterations == 0


def test_tilt_samples_csv():
    buf = io.StringIO()
    xs = np.linspace(-1.0, 1.0, 5)
    write_tilt_samples_csv(EX42, 0.45, xs, buf)
    lines = buf.getvalue().split("\r\n")
    assert lines[0] == "x,g,h_a"
    assert len(lines) == 7
    x, g, h = (float(c) for c in lines[1].split(","))
    assert x == -1.0
    assert g == eval_ex42(-1.0)[0]
    assert h == g - 0.45 * x
    with pytest.raises(ValueError):
        write_tilt_samples_csv("ex99", 0.0, xs, io.StringIO())



def test_scalar_functions_table():
    value, slope = eval_ex41(1.5)
    assert SCALAR_FNS[EX41](1.5) == (value, (slope, slope))
    assert SCALAR_FNS[EX42](3.0) == eval_ex42(3.0)
    with pytest.raises(ValueError, match="unknown scalar function"):
        certify_sharp_local_min_1d("ex99", 0.0, 0.0)
