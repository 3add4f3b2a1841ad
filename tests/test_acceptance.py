"""End-to-end gates for the library.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single pass/fail line; run with -rA (the repo default) to see the
lines in the summary. The convergence probe in criterion 12 reports counts
rather than asserting a target fraction.
"""

import time

import numpy as np
import pytest

from l1landscape.core import objective, residual
from l1landscape.dynamics import INV_SQRT_K, StepSchedule, conjecture_probe
from l1landscape.firstorder import (
    critical_cone,
    directional_derivative,
    growth_check,
    sharpness_coefficient,
)
from l1landscape.secondorder import second_subderivative
from l1landscape.stationarity import (
    expected_gaussian_separation,
    gaussian_separation,
    is_stationary_closed_form,
    is_stationary_lp,
    project_to_spurious_set,
)
from l1landscape.tilting import (
    certify_sharp_local_min_1d,
    certify_sharp_local_min_tilted_f,
    tilt_divergence_probe_ex41,
)
from oracles import (
    enumerate_support_value,
    pattern_is_ambiguous,
    second_subderivative_grid,
    secant_slope,
)


def _criterion(num, ok, detail=""):
    """Print the one-line verdict and hand the flag back for the assert."""
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def _random_ustar(rng, n):
    ustar = rng.standard_normal(n)
    ustar[np.abs(ustar) < 0.05] = 0.25
    return ustar


@pytest.fixture(scope="module")
def spurious_corpus():
    """1000 exact spurious points with their planted vectors, n in 2..6."""
    rng = np.random.default_rng(7)
    corpus = []
    for i in range(1000):
        n = 2 + i % 5
        ustar = _random_ustar(rng, n)
        u, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
        corpus.append((u, ustar))
    return corpus


def test_criterion_01_certifier_agreement():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    checked = {}
    excluded = 0
    disagreements = 0
    for n in (2, 3, 4, 5):
        checked[n] = 0
        for i in range(1000):
            ustar = _random_ustar(rng, n)
            family = i % 3
            if family == 0:
                u = rng.uniform(-2.0, 2.0, n)
            elif family == 1:
                u, _ = project_to_spurious_set(rng.standard_normal(n) * 2.0, ustar)
            else:
                s = 1.0 if rng.uniform() < 0.5 else -1.0
                scale = 10.0 ** rng.uniform(-12.0, -2.0)
                u = s * ustar + scale * rng.standard_normal(n)
            if pattern_is_ambiguous(u, ustar):
                excluded += 1
                continue
            a = is_stationary_closed_form(u, ustar)
            b = is_stationary_lp(u, ustar)
            checked[n] += 1
            if a.is_stationary != b.is_stationary or a.kind != b.kind:
                disagreements += 1
    elapsed = time.perf_counter() - start
    total = sum(checked.values())
    ok = (disagreements == 0 and min(checked.values()) >= 700
          and elapsed < 30.0)
    assert _criterion(1, ok, f"{total} checked, {excluded} excluded, "
                             f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_02_escape_curvature_value(spurious_corpus):
    start = time.perf_counter()
    worst = 0.0
    for u, ustar in spurious_corpus:
        expected = -float(np.abs(ustar).sum()) ** 2
        for s in (1.0, -1.0):
            value = second_subderivative(u, ustar, s * ustar - u)
            worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    assert _criterion(2, ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_orthogonal_curvature_at_origin():
    start = time.perf_counter()
    value = second_subderivative((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    elapsed = time.perf_counter() - start
    ok = abs(value - 1.0) <= 1e-10 and elapsed < 1.0
    assert _criterion(3, ok, f"value {value:.12f}, {elapsed:.2f}s")


def test_criterion_04_descent_directions_in_cone(spurious_corpus):
    failures = 0
    for u, ustar in spurious_corpus:
        for s in (1.0, -1.0):
            w = s * ustar - u
            if directional_derivative(u, ustar, w) > 1e-9:
                failures += 1
            if not critical_cone(u, ustar).contains(w):
                failures += 1
    ok = failures == 0
    assert _criterion(4, ok, f"{len(spurious_corpus)} points, {failures} failures")


def test_criterion_05_sharpness_bound_and_enumeration():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = np.inf
    for i in range(10_000):
        n = 2 + i % 4
        ustar = _random_ustar(rng, n)
        w = rng.standard_normal(n)
        bound = sharpness_coefficient(ustar) * float(np.abs(w).sum())
        worst = min(worst, directional_derivative(ustar, ustar, w) - bound)
    # Quarter-integer coordinates keep every product and sum exact in
    # binary, so the support-function formula and the vertex enumeration
    # must agree bit for bit.
    mismatches = 0
    for i in range(500):
        n = 1 + i % 3
        ustar = rng.integers(-8, 9, n) / 4.0
        w = rng.integers(-8, 9, n) / 4.0
        value = directional_derivative(ustar, ustar, w)
        if value != enumerate_support_value(ustar, ustar, w):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and mismatches == 0
    assert _criterion(5, ok, f"worst margin {worst:.2e}, "
                             f"{mismatches} enumeration mismatches, {elapsed:.1f}s")


def test_criterion_06_gaussian_separation_statistic():
    start = time.perf_counter()
    mean, stderr = gaussian_separation(16, 100_000, seed=0)
    elapsed = time.perf_counter() - start
    expected = expected_gaussian_separation(16)
    gap = abs(mean - expected)
    ok = gap <= 4.0 * stderr and elapsed < 10.0
    assert _criterion(6, ok, f"mean {mean:.4f} vs {expected:.4f}, "
                             f"{gap / stderr:.2f} stderr, {elapsed:.1f}s")


def test_criterion_07_local_growth():
    report = growth_check((1.0, 1.0), 0.05, 1000)
    ok = (report.violations == 0
          and report.beta == 0.5 * sharpness_coefficient((1.0, 1.0)))
    assert _criterion(7, ok, f"{report.violations} violations, beta {report.beta}")


def test_criterion_08_numeric_curvature_defaults():
    start = time.perf_counter()
    low = second_subderivative_grid((-1.0, 1.0), (1.0, 1.0), (2.0, 0.0))
    t_low = time.perf_counter() - start
    start = time.perf_counter()
    high = second_subderivative_grid((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    t_high = time.perf_counter() - start
    ok = (abs(low + 4.0) <= 0.05 * 4.0 and abs(high - 1.0) <= 0.05
          and t_low < 5.0 and t_high < 5.0)
    assert _criterion(8, ok, f"estimates {low:.4f} and {high:.4f}, "
                             f"{t_low:.2f}s and {t_high:.2f}s")


def test_criterion_09_tilt_escape():
    schedule = StepSchedule(INV_SQRT_K, 200.0)
    escaped = []
    for a, x0 in ((0.01, 3.0), (-0.01, -3.0)):
        report = tilt_divergence_probe_ex41(a, x0, schedule, 100_000)
        escaped.append(report.escaped and abs(report.final_x) > 1e3)
    fixed = tilt_divergence_probe_ex41(0.0, 0.0, schedule, 1000)
    ok = all(escaped) and not fixed.escaped and fixed.final_x == 0.0
    assert _criterion(9, ok, f"escapes {escaped}, untilted stays at "
                             f"{fixed.final_x}")


def test_criterion_10_sawtooth_tilt_certificates():
    failures = 0
    for x0 in range(1, 11):
        certified, modulus = certify_sharp_local_min_1d("ex42", float(x0), 0.45)
        if not certified or modulus != 0.45:
            failures += 1
        certified, _ = certify_sharp_local_min_1d("ex42", float(x0), -0.45)
        if certified:
            failures += 1
    ok = failures == 0
    assert _criterion(10, ok, f"{failures} failures over x0 in 1..10")


def test_criterion_11_corner_tilt_certificates():
    certified, base_modulus = certify_sharp_local_min_tilted_f(
        (1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    base_ok = certified and abs(base_modulus - 1.0) <= 1e-12
    rng = np.random.default_rng(23)
    worst = 0.0
    failures = 0
    for _ in range(100):
        a = np.array([rng.uniform(-2.0, 0.0), rng.uniform(0.0, 2.0)])
        certified, modulus = certify_sharp_local_min_tilted_f(
            (1.0, 1.0), (-1.0, 1.0), a)
        expected = min(abs(2.0 + a[0]), abs(a[0]), abs(a[1]), abs(2.0 - a[1]))
        if not certified:
            failures += 1
        worst = max(worst, abs(modulus - expected))
    ok = base_ok and failures == 0 and worst <= 1e-12
    assert _criterion(11, ok, f"base modulus {base_modulus:.3f}, "
                              f"max modulus error {worst:.2e}")


def test_criterion_12_convergence_probe_report():
    schedule = StepSchedule(INV_SQRT_K, 0.1)
    start = time.perf_counter()
    first = conjecture_probe((1.0, 1.0), schedule=schedule, trials=200,
                             max_iters=20_000, seed=0)
    elapsed = time.perf_counter() - start
    second = conjecture_probe((1.0, 1.0), schedule=schedule, trials=200,
                              max_iters=20_000, seed=0)
    deterministic = (first.labels == second.labels
                     and np.array_equal(first.final_points, second.final_points))
    counted = first.successes + first.trapped + first.undecided
    ok = deterministic and counted == 200 and elapsed < 120.0
    assert _criterion(12, ok, f"successes={first.successes} "
                              f"trapped={first.trapped} "
                              f"undecided={first.undecided}, {elapsed:.1f}s")


def test_criterion_13_finite_difference_consistency():
    # Stable pattern: every residual entry keeps its sign along the whole
    # segment u + [0, t_max] w, guaranteed by the margin test below. There
    # the secant error is exactly t/2 times a signed sum of w_i w_j, bounded
    # by ||w||_1^2 / 2 times t. The second term of C absorbs cancellation
    # noise in the secant numerator, which is proportional to the function
    # values being differenced and shows up at the smallest t.
    rng = np.random.default_rng(29)
    t_values = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    t_max = max(t_values)
    checked = 0
    failures = 0
    while checked < 1000:
        n = 2 + checked % 4
        ustar = _random_ustar(rng, n)
        u = rng.standard_normal(n) * 1.5
        w = rng.standard_normal(n)
        margin = float(np.abs(residual(u, ustar)).min())
        drift = float(np.abs(np.outer(u, w) + np.outer(w, u)).max())
        wiggle = float(np.abs(np.outer(w, w)).max())
        if t_max * drift + t_max * t_max * wiggle >= margin:
            continue
        checked += 1
        slope_limit = directional_derivative(u, ustar, w)
        c = 0.5 * float(np.abs(w).sum()) ** 2 + 0.05 * (1.0 + objective(u, ustar))
        for t in t_values:
            err = abs(secant_slope(u, ustar, w, t) - slope_limit)
            if err > c * t:
                failures += 1
    ok = failures == 0
    assert _criterion(13, ok, f"{checked} points, {failures} failures")
