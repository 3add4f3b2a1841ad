"""First-order analysis: directional derivatives, critical cones, sharpness.

The directional derivative of f at u is the support function of the
subdifferential polytope evaluated at the direction. Fixed sign entries of
the residual pattern contribute linearly; each free entry contributes the
absolute value of its coefficient, since the maximizing sign matrix picks
the extreme of every free box independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EPS_ZERO, MAX_ENTRY, _pair, _require_seed, as_vector, objective,
                   subdifferential_model)
from .stationarity import GROUND_TRUTH_MINUS, GROUND_TRUTH_PLUS, is_stationary_closed_form

HALF_LINE = "half_line"
FREE = "free"
ZERO = "zero"

# Slack of every sign test on a direction w: cone membership, and df(u)(w)
# compared with 0 for the critical cone and for descent.
EPS_DIR = 1e-9


class NotStationaryError(ValueError):
    """Raised when an object defined at stationary points only is asked for elsewhere."""


def _require_stationary(u, ustar):
    """The closed-form verdict at a validated pair; NotStationaryError if not stationary."""
    verdict = is_stationary_closed_form(u, ustar)
    if not verdict.is_stationary:
        raise NotStationaryError("u is not a stationary point of f")
    return verdict


@dataclass(frozen=True)
class CriticalConeDescriptor:
    """Per-coordinate description of {w : df(u)(w) = 0} at a stationary point.

    kinds[j] is HALF_LINE, FREE or ZERO; signs[j] is the sign s of a
    HALF_LINE coordinate, whose condition reads w_j in s * (-inf, 0],
    and 0 for the other two kinds.
    """

    kinds: tuple[str, ...]
    signs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.kinds)

    def contains(self, w) -> bool:
        """Whether w meets every coordinate's condition to within EPS_DIR."""
        w = as_vector(w)
        if w.size != self.dim:
            raise ValueError("direction dimension mismatch")
        for wj, kind, s in zip(w, self.kinds, self.signs):
            if kind == ZERO and abs(wj) > EPS_DIR:
                return False
            if kind == HALF_LINE and s * wj > EPS_DIR:
                return False
        return True

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random element of the cone (standard Gaussian magnitudes)."""
        g = rng.standard_normal(self.dim)
        w = np.empty(self.dim)
        for j, (kind, s) in enumerate(zip(self.kinds, self.signs)):
            if kind == ZERO:
                w[j] = 0.0
            elif kind == FREE:
                w[j] = g[j]
            else:
                w[j] = -s * abs(g[j])
        return w


def directional_derivative(u, ustar, w) -> float:
    """df(u)(w) = max over the sign boxes of <sym(S) u, w>, the support
    function SubdifferentialModel.support of the subdifferential."""
    u, ustar = _pair(u, ustar)
    u, w = _pair(u, w)
    return subdifferential_model(u, ustar).support(w)


def critical_cone(u, ustar) -> CriticalConeDescriptor:
    """Closed-form critical cone at a stationary point of f.

    At u = 0 it is all of R^n, also where ustar = 0 makes u = 0 the ground
    truth: f = 0.5 ||u||_1^2 there. At any other ground truth the cone is
    {0}, the all-ZERO descriptor. At a spurious point u != 0 coordinate j is
    ZERO off the support of ustar, HALF_LINE(Sign(u_j)) where |u_j| meets
    the box bound |ustar_j|, and FREE where it sits strictly inside.
    """
    u, ustar = _pair(u, ustar)
    verdict = _require_stationary(u, ustar)
    if np.abs(u).max() <= EPS_ZERO:
        return CriticalConeDescriptor((FREE,) * u.size, (0,) * u.size)
    if verdict.kind in (GROUND_TRUTH_PLUS, GROUND_TRUTH_MINUS):
        return CriticalConeDescriptor((ZERO,) * u.size, (0,) * u.size)

    zero = np.abs(ustar) <= EPS_ZERO
    half = ~zero & (np.abs(u) >= np.abs(ustar) - EPS_ZERO)
    kinds = np.where(zero, ZERO, np.where(half, HALF_LINE, FREE))
    signs = np.sign(u).astype(int) * half
    return CriticalConeDescriptor(tuple(kinds.tolist()), tuple(signs.tolist()))


def sharpness_coefficient(ustar) -> float:
    """Coefficient of the l1 sharpness bound df(ustar)(w) >= coeff * ||w||_1."""
    ustar = as_vector(ustar)
    support = np.flatnonzero(ustar)
    if support.size == 0:
        raise ValueError("ustar must be nonzero")
    alpha = float(np.abs(ustar[support]).min())
    return min(alpha, 0.5 * alpha * support.size)


@dataclass
class GrowthReport:
    samples: int
    violations: int
    min_margin: float
    radius: float
    beta: float


def growth_check(ustar, radius: float, samples: int, seed: int = 0) -> GrowthReport:
    """Sample the local growth inequality f(u) >= f(ustar) + beta ||u - ustar||_1.

    Points are uniform in the l-infinity ball of the given radius around
    ustar, drawn in one call from default_rng(seed), so sample t is row t of
    its (samples, n) draw. beta is half the sharpness coefficient, a
    conservative margin below the first-order rate.
    """
    ustar = as_vector(ustar)
    if not 0.0 < 2.0 * radius < math.inf:
        raise ValueError("radius must be positive, with 2 * radius finite")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    _require_seed(seed)
    if float(np.abs(ustar).max()) + radius > MAX_ENTRY:
        raise ValueError(f"radius too large: sampled entries would pass {MAX_ENTRY:g}")
    beta = 0.5 * sharpness_coefficient(ustar)
    if samples == 0:
        return GrowthReport(0, 0, 0.0, radius, beta)
    f_star = objective(ustar, ustar)
    u = ustar + np.random.default_rng(seed).uniform(-radius, radius, (samples, ustar.size))
    margin = objective(u, ustar) - f_star - beta * np.abs(u - ustar).sum(axis=1)
    return GrowthReport(samples, int((margin < 0.0).sum()), float(margin.min()), radius, beta)
