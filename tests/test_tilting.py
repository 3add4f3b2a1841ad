import io
import math

import numpy as np
import pytest

from l1landscape.core import objective
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
    with pytest.raises(ValueError):
        certify_sharp_local_min_tilted_f([1.0, 2.0], [-1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        certify_sharp_local_min_tilted_f([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        certify_sharp_local_min_tilted_f([1.0, 1.0], [-1.0, 1.0], [0.0, 0.0, 0.0])


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
