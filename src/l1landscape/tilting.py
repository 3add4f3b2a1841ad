"""Tilt counterexamples: two scalar weakly convex functions and a tilted f.

Both scalar functions have bounded, countable stationary structure that a
linear tilt reshapes drastically. The first is smooth with compact plateaus,
so any nonzero tilt pushes its minimizers to infinity. The second has kinks
on the integers, and a tilt of size below 1 turns countably many of them
into sharp local minima at once. The same tilting applied to
f(u) = 0.5 ||u u^T - ustar ustar^T||_1 turns a spurious stationary point
into a sharp local minimum for an open box of tilt vectors; its certificate
covers every point where df is a coordinate box. Both certificates apply one
rule: 0 interior to the tilted subdifferential box, with the distance to the
nearest face as the modulus.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import _require_finite, as_vector, subdifferential_model
from .dynamics import StepSchedule

EX41 = "ex41"
EX42 = "ex42"

ESCAPE_THRESHOLD = 1e3


def eval_ex41(x: float):
    """Smooth plateau function: value and derivative.

    Flat at 0.5 outside [-2, 2], two downward parabolic shoulders, one
    upward parabolic well touching -0.5 at the origin. The derivative is
    continuous and 1-Lipschitz.
    """
    x = float(x)
    if x <= -2.0:
        return 0.5, 0.0
    if x <= -1.0:
        return -((x + 2.0) ** 2) / 2.0 + 0.5, -(x + 2.0)
    if x <= 1.0:
        return x * x / 2.0 - 0.5, x
    if x <= 2.0:
        return -((x - 2.0) ** 2) / 2.0 + 0.5, -(x - 2.0)
    return 0.5, 0.0


def eval_ex42(x: float):
    """Sawtooth of parabolic arcs: value and Fréchet subdifferential interval.

    Between consecutive integers the function is a downward parabola; each
    integer is a kink. The interval is a singleton off the integers, [0, 1]
    at positive integers, [-1, 0] at negative ones, and [-1, 1] at 0, which
    is the global minimum. Branch edges follow the defining formulas
    literally: the x <= 0 branch owns x = 0 and floor is exact on integers.
    """
    x = float(x)
    if x <= 0.0:
        m = math.floor(-x)
        value = -((x + m + 1.0) ** 2) / 2.0 + 0.5 + m / 2.0
    else:
        m = math.floor(x)
        value = -((x - m - 1.0) ** 2) / 2.0 + 0.5 + m / 2.0

    if x == 0.0:
        interval = (-1.0, 1.0)
    elif x == math.floor(x):
        interval = (0.0, 1.0) if x > 0.0 else (-1.0, 0.0)
    elif x > 0.0:
        v = -(x - math.floor(x)) + 1.0
        interval = (v, v)
    else:
        v = -(x - math.floor(x))
        interval = (v, v)
    return value, interval


def _ex41_interval(x: float):
    value, slope = eval_ex41(x)
    return value, (slope, slope)


# Each scalar example as x -> (value, subdifferential interval).
SCALAR_FNS = {EX41: _ex41_interval, EX42: eval_ex42}


def _scalar_fn(fn: str):
    if fn not in SCALAR_FNS:
        raise ValueError(f"unknown scalar function {fn!r}")
    return SCALAR_FNS[fn]


def _sharp_modulus(lo, hi):
    """(certified, modulus): 0 must be interior to the tilted subdifferential
    box [lo, hi], and the modulus is its distance to the nearest face."""
    modulus = float(np.minimum(-lo, hi).min())
    if modulus > 0.0:
        return True, modulus
    return False, 0.0


def certify_sharp_local_min_1d(fn: str, x0: float, a: float):
    """Is x0 a sharp local minimum of g(x) - a x, and with what modulus?

    The tilted subdifferential interval is [lo - a, hi - a]; sharpness needs
    0 strictly inside, and the modulus is the smaller endpoint distance,
    min(a - lo, hi - a). Smooth points have a degenerate interval and never
    certify.
    """
    x0, a = float(x0), float(a)
    _require_finite(x0=x0, a=a)
    lo, hi = _scalar_fn(fn)(x0)[1]
    return _sharp_modulus(lo - a, hi - a)


def certify_sharp_local_min_tilted_f(ustar, u0, a):
    """Sharp-local-minimum certificate for f(u) - <a, u> at u0.

    f - <a, .> has a sharp local minimum at u0 with modulus kappa in the
    infinity norm when a + kappa B_1 lies in df(u0) (Burke & Ferris, SIAM J.
    Control Optim. 31, 1993). When each column of M = pair_matrix() has at
    most one nonzero, df(u0) is the coordinate box c0 +- the row sums of |M|,
    and the tilted box is shifted by -a. Other points raise ValueError.
    """
    model = subdifferential_model(u0, ustar)
    a = as_vector(a)
    if a.shape != (model.dim,):
        raise ValueError(f"tilt must have the point's dimension {model.dim}")
    m = np.abs(model.pair_matrix())
    if np.any(np.count_nonzero(m, axis=0) > 1):
        raise ValueError("df(u0) is not a coordinate box: a free pair couples two coordinates")
    c0 = model.fixed_vector()
    half = m.sum(axis=1)
    return _sharp_modulus(c0 - half - a, c0 + half - a)


@dataclass
class TiltProbeReport:
    final_x: float
    iterations: int
    escaped: bool
    threshold: float
    tilt: float


def tilt_divergence_probe_ex41(a: float, x0: float, schedule: StepSchedule,
                               max_iters: int,
                               threshold: float = ESCAPE_THRESHOLD) -> TiltProbeReport:
    """Gradient descent on the tilted plateau function, watching for escape.

    With any a != 0 the tilted function has no minimizer: beyond the plateau
    edge the gradient is the constant -a, so a non-summable schedule drifts
    the iterate toward Sign(a) * infinity. The run stops as soon as |x|
    passes the threshold and reports the last iterate either way. a = 0 is
    allowed for contrast runs; then x0 = 0 is a genuine global minimum and
    nothing moves.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    _require_finite(a=a, x0=x0, threshold=threshold)
    x = float(x0)
    a = float(a)
    iterations = 0
    for k in range(1, max_iters + 1):
        if abs(x) > threshold:
            break
        _, slope = eval_ex41(x)
        x -= schedule.step(k) * (slope - a)
        iterations = k
    return TiltProbeReport(x, iterations, abs(x) > threshold, threshold, a)


def write_tilt_samples_csv(fn: str, a: float, xs, fileobj) -> None:
    """Rows x, g, h_a over the sample points, for plotting tilted landscapes."""
    evaluate = _scalar_fn(fn)
    a = float(a)
    _require_finite(a=a)
    writer = csv.writer(fileobj)
    writer.writerow(["x", "g", "h_a"])
    for x in np.asarray(xs, dtype=float):
        g = evaluate(float(x))[0]
        writer.writerow([f"{x:.17g}", f"{g:.17g}", f"{g - a * x:.17g}"])
