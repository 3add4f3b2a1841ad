"""Shared objects for the rank-one l1 factorization objective.

The objective throughout is

    f(u) = 0.5 * || u u^T - ustar ustar^T ||_1

for a planted vector ustar. Its subdifferential has the explicit form

    df(u) = (Sign(u u^T - ustar ustar^T) ∩ Sym(n)) . u,

where Sign acts entrywise and maps 0 to the interval [-1, 1]. This module
provides the objective, the sign pattern of the residual matrix (with the
per-coordinate index sets that drive the stationarity classification), the
midpoint subgradient kernel shared by single and batched runs, a canonical
subgradient selection, and a secant-slope helper used to validate
directional derivatives numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lpcore import EPS_LP

# Residual entries with |r_ij| <= EPS_ZERO are classified as exact zeros.
EPS_ZERO = 1e-9

# Per-coordinate sign-agreement tags.
AGREE = "agree"        # sign(u_i) * sign(ustar_i) > 0
DISAGREE = "disagree"  # sign(u_i) * sign(ustar_i) < 0
ZERO = "zero"          # u_i = 0 or ustar_i = 0 (within tolerance)

MIDPOINT = "midpoint"


def as_vector(u) -> np.ndarray:
    """Validate and convert to a 1-D float array with finite entries."""
    v = np.asarray(u, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _pair(u, ustar) -> tuple[np.ndarray, np.ndarray]:
    u = as_vector(u)
    ustar = as_vector(ustar)
    if u.shape != ustar.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {ustar.shape}")
    return u, ustar


def sign_scalar(x: float, eps: float = 0.0) -> int:
    """Sign in {-1, 0, +1} with a zero band of half-width eps.

    For nonzero arguments this satisfies the product rule
    sign_scalar(x * y) == sign_scalar(x) * sign_scalar(y) (eps = 0), which is
    what makes the entrywise sign of u u^T - ustar ustar^T factor through the
    signs of the coordinates.
    """
    if x > eps:
        return 1
    if x < -eps:
        return -1
    return 0


def residual(u, ustar) -> np.ndarray:
    """The symmetric residual matrix u u^T - ustar ustar^T."""
    u, ustar = _pair(u, ustar)
    return np.outer(u, u) - np.outer(ustar, ustar)


def objective(u, ustar) -> float:
    """f(u) = 0.5 * sum_ij |(u u^T - ustar ustar^T)_ij|."""
    return 0.5 * float(np.abs(residual(u, ustar)).sum())


@dataclass
class ResidualPattern:
    """Sign structure of the residual matrix at a base point.

    entry_sign holds -1/0/+1 per entry (0 meaning |r_ij| <= eps_zero). The
    index sets split coordinates by |u_i| versus |ustar_i| and the tags record
    whether the two coordinates carry the same sign.
    """

    entry_sign: np.ndarray          # (n, n) int8 in {-1, 0, +1}
    j_greater: tuple[int, ...]      # |u_i| >  |ustar_i|
    j_equal: tuple[int, ...]        # |u_i| == |ustar_i| within eps_zero
    j_less: tuple[int, ...]         # |u_i| <  |ustar_i|
    tags: tuple[str, ...]           # AGREE / DISAGREE / ZERO per coordinate

    @property
    def dim(self) -> int:
        return self.entry_sign.shape[0]


def residual_pattern(u, ustar, eps_zero: float = EPS_ZERO) -> ResidualPattern:
    """Classify residual entries and coordinates at tolerance eps_zero."""
    u, ustar = _pair(u, ustar)
    if eps_zero <= 0:
        raise ValueError("eps_zero must be positive")
    r = np.outer(u, u) - np.outer(ustar, ustar)
    entry_sign = np.where(r > eps_zero, 1, np.where(r < -eps_zero, -1, 0)).astype(np.int8)

    gap = np.abs(u) - np.abs(ustar)
    j_greater = tuple(int(i) for i in np.flatnonzero(gap > eps_zero))
    j_less = tuple(int(i) for i in np.flatnonzero(gap < -eps_zero))
    j_equal = tuple(int(i) for i in np.flatnonzero(np.abs(gap) <= eps_zero))

    tags = []
    for ui, vi in zip(u, ustar):
        s = sign_scalar(ui, eps_zero) * sign_scalar(vi, eps_zero)
        tags.append(AGREE if s > 0 else DISAGREE if s < 0 else ZERO)
    return ResidualPattern(entry_sign, j_greater, j_equal, j_less, tuple(tags))


@dataclass
class SubdifferentialModel:
    """df(u) encoded as fixed sign entries plus free symmetric box entries.

    The represented set is {S u : S symmetric, S_ij = fixed_sign_ij on fixed
    entries, S_ij in [-1, 1] on free pairs}. A free unordered pair {i, j}
    carries a single scalar (symmetry), listed once with i <= j. The matrices
    S with S u = 0 form the second-order face Q(u): free values x with
    pair_matrix() @ x = -fixed_vector(), assembled by assemble(x).
    """

    fixed_sign: np.ndarray               # (n, n) int8, 0 on free entries
    free_pairs: list[tuple[int, int]]    # unordered pairs (i <= j), residual zero
    base_point: np.ndarray               # u

    @property
    def dim(self) -> int:
        return self.base_point.size

    def fixed_vector(self) -> np.ndarray:
        """Contribution of the fixed entries to S u."""
        return self.fixed_sign.astype(float) @ self.base_point

    def pair_matrix(self) -> np.ndarray:
        """Matrix M with (S u)_i = fixed_vector_i + (M x)_i for free values x.

        Column p corresponds to free_pairs[p]: a diagonal pair (i, i)
        contributes u_i to coordinate i, an off-diagonal pair {i, j}
        contributes u_j to coordinate i and u_i to coordinate j.
        """
        u = self.base_point
        m = np.zeros((self.dim, len(self.free_pairs)))
        for p, (i, j) in enumerate(self.free_pairs):
            m[i, p] = u[j]   # a diagonal pair writes u_i twice
            m[j, p] = u[i]
        return m

    def assemble(self, free_values) -> np.ndarray:
        """Full symmetric matrix S from values for the free pairs."""
        s = self.fixed_sign.astype(float)
        for (i, j), v in zip(self.free_pairs, np.asarray(free_values, dtype=float)):
            s[i, j] = v
            s[j, i] = v
        return s

    def contains(self, q, eps_lp: float = EPS_LP) -> bool:
        """Whether q lies in the second-order face: symmetric, inside the
        sign boxes, and annihilating base_point, each up to eps_lp."""
        q = np.asarray(q, dtype=float)
        if not np.allclose(q, q.T, atol=eps_lp):
            return False
        free = self.fixed_sign == 0
        if np.abs(np.where(free, 0.0, q - self.fixed_sign)).max() > eps_lp:
            return False
        if np.abs(q[free]).max(initial=0.0) > 1.0 + eps_lp:
            return False
        return float(np.abs(q @ self.base_point).max()) <= eps_lp


def subdifferential_model(u, ustar, eps_zero: float = EPS_ZERO) -> SubdifferentialModel:
    u, ustar = _pair(u, ustar)
    pattern = residual_pattern(u, ustar, eps_zero)
    n = u.size
    free_pairs = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if pattern.entry_sign[i, j] == 0
    ]
    return SubdifferentialModel(pattern.entry_sign, free_pairs, u)


def midpoint_subgradient(u, ustar, eps_zero: float = EPS_ZERO) -> np.ndarray:
    """Sign(u u^T - ustar ustar^T) u with free entries set to 0, row by row.

    u is one point (n,) or a stack (trials, n); ustar is (n,). Residual entries
    with |r_ij| <= eps_zero count as free. The sign matrices are built in place
    in one (trials, n, n) array, and the product is a matmul, so a stack gives
    each row the bits of the single-point call. The caller validates u.
    """
    s = u[..., :, None] * u[..., None, :]
    s -= np.outer(ustar, ustar)
    zero = np.abs(s) <= eps_zero
    np.sign(s, out=s)
    s[zero] = 0.0
    return (s @ u[..., None])[..., 0]


def subgradient_select(u, ustar, rule=MIDPOINT, eps_zero: float = EPS_ZERO) -> np.ndarray:
    """One element of df(u).

    rule "midpoint" sets every free entry to 0, the center of its interval,
    which makes the selection deterministic. Alternatively rule may be a full
    symmetric matrix S; it is validated against the sign boxes of the residual
    before S u is returned.
    """
    u, ustar = _pair(u, ustar)
    if eps_zero <= 0:
        raise ValueError("eps_zero must be positive")
    if isinstance(rule, str):
        if rule != MIDPOINT:
            raise ValueError(f"unknown selection rule {rule!r}")
        return midpoint_subgradient(u, ustar, eps_zero)
    sigma = residual_pattern(u, ustar, eps_zero).entry_sign.astype(float)
    s = np.asarray(rule, dtype=float)
    if s.shape != sigma.shape:
        raise ValueError(f"custom selection has shape {s.shape}, expected {sigma.shape}")
    if not np.allclose(s, s.T, atol=1e-12, rtol=0.0):
        raise ValueError("custom selection must be symmetric")
    fixed = sigma != 0
    if np.any(np.abs(s[fixed] - sigma[fixed]) > 1e-12):
        raise ValueError("custom selection changes a fixed sign entry")
    if np.any(np.abs(s[~fixed]) > 1.0 + 1e-12):
        raise ValueError("custom selection leaves the [-1, 1] box on a free entry")
    return s @ u


def finite_difference_slope(u, ustar, w, t: float) -> float:
    """Secant slope (f(u + t w) - f(u)) / t for t > 0.

    As t decreases this converges to the directional derivative df(u)(w)
    whenever the sign pattern of the residual is stable around u.
    """
    u, ustar = _pair(u, ustar)
    w = as_vector(w)
    if w.shape != u.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {w.shape}")
    if not t > 0:
        raise ValueError("t must be positive")
    return (objective(u + t * w, ustar) - objective(u, ustar)) / t
