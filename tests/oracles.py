"""Numeric and brute-force oracles that check the library from outside.

f and the residual are computed here with their own numpy expressions. The
library names used are subdifferential_model, whose free sign pairs the
support-function enumeration and the face LP run over, and the cone slack
EPS_DIR and the simplex of lpcore, which face_lp_value solves the face LP
with. perfbench_module() loads a module of the benchmark, whose workloads
and HiGHS oracle some tests reuse.
"""

import importlib.util
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from l1landscape.core import subdifferential_model
from l1landscape.firstorder import EPS_DIR
from l1landscape.lpcore import OPTIMAL, BoxEqLP, NumericalFailureError, solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(stem):
    """perfbench/<stem>.py as a module, loaded once from its file; the
    benchmark directory is not a package."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def certify_scale_point(seed, rnd, label):
    """(u, ustar) of the certify-scale operation labelled label, e.g.
    "n40/face90", in round rnd of the benchmark seed."""
    (op,) = [op for op in perfbench_module("workloads").CertifyScale(seed).round(rnd)
             if op.label == label]
    return op.args["u"], op.args["g"]


def _f(u, ustar):
    return 0.5 * float(np.abs(np.outer(u, u) - np.outer(ustar, ustar)).sum())


def secant_slope(u, ustar, w, t):
    """(f(u + t w) - f(u)) / t, which tends to df(u)(w) as t decreases."""
    u, ustar, w = (np.asarray(x, dtype=float) for x in (u, ustar, w))
    return (_f(u + t * w, ustar) - _f(u, ustar)) / t


def second_subderivative_grid(u, ustar, w, t0=1e-2, rho=0.5, k_max=12, delta_w=None,
                              ball_samples=64, seed=0):
    """Grid estimate of the liminf of [f(u + t w') - f(u)] / (t^2 / 2).

    For each t = t0 * rho^k the directions are w and ball_samples points
    uniform in the ball of radius delta_w * t around w (delta_w defaults to
    1e-3 ||w||). Draws are keyed by k, so a larger k_max or ball_samples
    only adds quotients and the minimum cannot increase.
    """
    u, ustar, w = (np.asarray(x, dtype=float) for x in (u, ustar, w))
    if delta_w is None:
        delta_w = 1e-3 * float(np.linalg.norm(w))
    f0 = _f(u, ustar)
    best = math.inf
    for k in range(k_max + 1):
        t = t0 * rho ** k
        rng = np.random.default_rng([seed, k])
        cloud = [w]
        for _ in range(ball_samples):
            g = rng.standard_normal(w.size)
            norm = float(np.linalg.norm(g))
            radius = delta_w * t * rng.uniform() ** (1.0 / max(w.size, 1))
            cloud.append(w if norm == 0.0 else w + radius * g / norm)
        for wp in cloud:
            best = min(best, (_f(u + t * wp, ustar) - f0) / (0.5 * t * t))
    return best


def face_lp_value(u, ustar, w):
    """d2f(u;0)(w) at a stationary point as the LP over the face Q(u): +inf
    off the critical cone, else max <Q, w w^T> over the free values x in
    [-1, 1] with pair_matrix() @ x = -fixed_vector(). The objective splits
    into the fixed-entry constant plus w_i^2 per free diagonal coordinate
    and 2 w_i w_j per free off-diagonal pair. The free pairs come from the
    EPS_ZERO band, so a product ustar_i ustar_j inside it is a whole free
    box here."""
    u, ustar, w = (np.asarray(x, dtype=float) for x in (u, ustar, w))
    model = subdifferential_model(u, ustar)
    if model.support(w) > EPS_DIR:
        return math.inf

    constant = float(w @ model.fixed_sign @ w)
    p = len(model.free_pairs)
    if p == 0:
        return constant
    i, j = model.free_pairs.T
    coeffs = np.where(i == j, 1.0, 2.0) * w[i] * w[j]
    lp = BoxEqLP(-np.ones(p), np.ones(p), model.pair_matrix(), -model.fixed_vector(), coeffs)
    res = solve(lp)
    if res.status != OPTIMAL:
        raise NumericalFailureError(f"face LP ended with status {res.status}: {res.reason}")
    return constant + res.value


def enumerate_support_value(u, ustar, w):
    """max <sym(S) u, w> over every extreme sign matrix, built explicitly."""
    model = subdifferential_model(u, ustar)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    best = -np.inf
    for signs in product((-1.0, 1.0), repeat=len(model.free_pairs)):
        best = max(best, float((model.assemble(signs) @ u) @ w))
    return best


def in_face(model, q, eps=1e-9):
    """Whether q lies in the second-order face of the model: symmetric,
    inside the sign boxes, and annihilating the base point, each up to eps."""
    q = np.asarray(q, dtype=float)
    free = model.fixed_sign == 0
    return (np.allclose(q, q.T, atol=eps)
            and np.abs(np.where(free, 0.0, q - model.fixed_sign)).max() <= eps
            and np.abs(q[free]).max(initial=0.0) <= 1.0 + eps
            and float(np.abs(q @ model.base_point).max()) <= eps)


def pattern_is_ambiguous(u, ustar, band=(1e-10, 1e-8)):
    """True when a quantity one certifier or the other thresholds sits in
    the band: a residual entry, a box gap, the hyperplane offset, an
    off-support coordinate, or the distance to either ground truth. Such a
    point can flip one route without either being wrong."""
    u = np.asarray(u, dtype=float)
    ustar = np.asarray(ustar, dtype=float)
    s = np.sign(ustar)
    vals = np.concatenate([np.abs(np.outer(u, u) - np.outer(ustar, ustar)).ravel(),
                           np.abs(np.abs(u) - np.abs(ustar)),
                           [abs(float(s @ u))],
                           np.abs(u[s == 0]),
                           [np.abs(u - ustar).max(), np.abs(u + ustar).max()]])
    return bool(np.any((vals > band[0]) & (vals < band[1])))
