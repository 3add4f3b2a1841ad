"""Shared objects for the rank-one l1 factorization objective.

The objective throughout is

    f(u) = 0.5 * || u u^T - ustar ustar^T ||_1

for a planted vector ustar. Its subdifferential has the explicit form

    df(u) = (Sign(u u^T - ustar ustar^T) ∩ Sym(n)) . u,

where Sign acts entrywise and maps 0 to the interval [-1, 1]. This module
provides the objective, the zero-band sign of the residual matrix (the one
kernel the subdifferential model and the midpoint subgradient are read
from), and the midpoint subgradient shared by single and batched runs.

The zero band EPS_ZERO is a module constant, not a parameter: every caller
in the package reads the one value, so a sign pattern, a certificate and a
classification of the same point always see the same zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Residual entries with |r_ij| <= EPS_ZERO are classified as exact zeros; the
# certifiers use the same band on coordinates and on the stationary plane.
EPS_ZERO = 1e-9

# objective and midpoint_subgradient evaluate a stack (K, n) in row blocks of
# at most this many residual entries, so their memory does not grow as K n^2.
STACK_ENTRIES = 1 << 20

# The largest |entry| a point or ground truth may have. Below it every
# residual entry is at most 2e200, so f <= n^2 1e200 and the squared norm of
# the midpoint subgradient, at most n^3 1e200, stay finite for n below 1e36.
# The float limit sqrt(max / 2) would keep the residual finite but let f
# overflow already at n = 2.
MAX_ENTRY = 1e100


def _check_entries(v: np.ndarray, name: str = "vector entries") -> None:
    # The comparison is False for NaN, so it refuses every non-finite entry.
    if v.size and not np.abs(v).max() <= MAX_ENTRY:
        raise ValueError(f"{name} must be finite and at most {MAX_ENTRY:g} in magnitude")


def as_vector(u) -> np.ndarray:
    """Validate and convert to a 1-D float array with entries of magnitude at
    most MAX_ENTRY."""
    v = np.asarray(u, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    _check_entries(v)
    return v


def _pair(u, ustar) -> tuple[np.ndarray, np.ndarray]:
    u = as_vector(u)
    ustar = as_vector(ustar)
    if u.shape != ustar.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {ustar.shape}")
    return u, ustar


def _points(u, ustar) -> tuple[np.ndarray, np.ndarray]:
    """_pair for one point u (n,) or a stack of points (K, n)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        return _pair(u, ustar)
    ustar = as_vector(ustar)
    if u.shape[0] < 1 or u.shape[1] != ustar.size:
        raise ValueError(f"expected a stack of shape (K, {ustar.size}), got {u.shape}")
    _check_entries(u)
    return u, ustar


def _reject_nan(**values) -> None:
    """A NaN threshold compares false with everything, so a run would go on
    as if it had never been set; refuse it by name instead."""
    for name, value in values.items():
        if math.isnan(value):
            raise ValueError(f"{name} must not be NaN")


def _require_finite(**values) -> None:
    """_reject_nan, then refuse an infinite value by name: a result built
    from it is not finite, and strict JSON cannot echo it."""
    _reject_nan(**values)
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _require_bounded(**values) -> None:
    """Refuse by name a scalar or array value with a NaN entry, then one
    past MAX_ENTRY in magnitude: the product of two values within the bound
    stays finite, while finite values beyond it can overflow."""
    for name, value in values.items():
        v = np.asarray(value, dtype=float)
        if np.isnan(v).any():
            raise ValueError(f"{name} must not be NaN")
        _check_entries(v, name)


def _require_seed(seed) -> None:
    """Refuse a negative seed by name; default_rng would refuse it unnamed."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _row_blocks(u: np.ndarray) -> list[np.ndarray]:
    """Row blocks of a stack u (K, n), each of at most STACK_ENTRIES residual
    entries; [] when u is one point or fits in one block."""
    if u.ndim != 2:
        return []
    rows = max(1, STACK_ENTRIES // max(u.shape[1], 1) ** 2)
    return [u[i:i + rows] for i in range(0, len(u), rows)] if len(u) > rows else []


def residual(u, ustar) -> np.ndarray:
    """The symmetric residual matrix u u^T - ustar ustar^T.

    u is one point (n,), giving (n, n), or a stack (K, n), giving (K, n, n).
    """
    u, ustar = _points(u, ustar)
    r = u[..., :, None] * u[..., None, :]
    r -= np.outer(ustar, ustar)
    return r


def objective(u, ustar):
    """f(u) = 0.5 * sum_ij |(u u^T - ustar ustar^T)_ij|.

    u is one point (n,), giving a float, or a stack (K, n), giving a (K,)
    array whose entries have the bits of the single-point calls; a stack
    is evaluated in row blocks of at most STACK_ENTRIES residual entries.
    """
    u = np.asarray(u, dtype=float)
    blocks = _row_blocks(u)
    if blocks:
        return np.concatenate([objective(block, ustar) for block in blocks])
    r = residual(u, ustar)
    f = 0.5 * np.abs(r, out=r).sum(axis=(-2, -1))
    return float(f) if r.ndim == 2 else f


def residual_pattern(u, ustar) -> np.ndarray:
    """Sign(u u^T - ustar ustar^T) as floats in {-1, 0, +1}.

    Residual entries with |r_ij| <= EPS_ZERO count as 0. u is one point (n,)
    or a stack (trials, n); ustar is (n,). The signs are built in place in
    one (n, n) or (trials, n, n) array. The caller validates u and ustar.
    """
    u = np.asarray(u, dtype=float)
    s = u[..., :, None] * u[..., None, :]
    s -= np.outer(ustar, ustar)
    zero = np.abs(s) <= EPS_ZERO
    np.sign(s, out=s)
    s[zero] = 0.0
    return s


@dataclass
class SubdifferentialModel:
    """df(u) encoded as fixed sign entries plus free symmetric box entries.

    The represented set is {S u : S symmetric, S_ij = fixed_sign_ij on fixed
    entries, S_ij in [-1, 1] on free pairs}. A free unordered pair {i, j}
    carries a single scalar (symmetry), listed once with i <= j. free_pairs
    is a (p, 2) int array of these pairs in upper-triangle order, row by row;
    row d is column d of pair_matrix() and entry d of the free values, which
    makes it the column order of every LP built on the model. The matrices
    S with S u = 0 form the second-order face Q(u): free values x with
    pair_matrix() @ x = -fixed_vector(), assembled by assemble(x).
    """

    fixed_sign: np.ndarray               # (n, n) float in {-1, 0, +1}, 0 on free entries
    free_pairs: np.ndarray               # (p, 2) int rows (i, j), i <= j, residual zero
    base_point: np.ndarray               # u

    @property
    def dim(self) -> int:
        return self.base_point.size

    def fixed_vector(self) -> np.ndarray:
        """Contribution of the fixed entries to S u."""
        return self.fixed_sign @ self.base_point

    def pair_matrix(self) -> np.ndarray:
        """Matrix M with (S u)_i = fixed_vector_i + (M x)_i for free values x.

        Column p corresponds to free_pairs[p]: a diagonal pair (i, i)
        contributes u_i to coordinate i, an off-diagonal pair {i, j}
        contributes u_j to coordinate i and u_i to coordinate j.
        """
        u = self.base_point
        i, j = self.free_pairs.T
        col = np.arange(i.size)
        m = np.zeros((self.dim, i.size))
        m[i, col] = u[j]   # a diagonal pair writes u_i twice
        m[j, col] = u[i]
        return m

    def assemble(self, free_values) -> np.ndarray:
        """Full symmetric matrix S from values for the free pairs."""
        s = self.fixed_sign.copy()
        i, j = self.free_pairs.T
        v = np.asarray(free_values, dtype=float)
        s[i, j] = v
        s[j, i] = v
        return s

    def support(self, w) -> float:
        """df(u)(w) = max over the set of <S u, w>.

        The fixed entries give the linear term <fixed_vector(), w>; free pair
        d adds |(M^T w)_d| for M = pair_matrix() (|u_i w_i| on a diagonal
        pair, |u_i w_j + u_j w_i| off it), each maximized over its own
        [-1, 1] box.
        """
        return float(self.fixed_vector() @ w) + float(np.abs(self.pair_matrix().T @ w).sum())


def subdifferential_model(u, ustar) -> SubdifferentialModel:
    u, ustar = _pair(u, ustar)
    sign = residual_pattern(u, ustar)
    i, j = np.nonzero(sign == 0)   # row-major, so the upper triangle row by row
    upper = i <= j
    return SubdifferentialModel(sign, np.column_stack((i[upper], j[upper])), u)


def midpoint_subgradient(u, ustar) -> np.ndarray:
    """Sign(u u^T - ustar ustar^T) u with free entries set to 0, row by row.

    u is one point (n,) or a stack (trials, n), taken in objective's row
    blocks; ustar is (n,). The product is a matmul, so each row of a stack
    has the bits of the single-point call. The caller validates u.
    """
    blocks = _row_blocks(u)
    if blocks:
        return np.concatenate([midpoint_subgradient(block, ustar) for block in blocks])
    return (residual_pattern(u, ustar) @ u[..., None])[..., 0]


def subgradient_select(u, ustar) -> np.ndarray:
    """The midpoint element of df(u), for a validated pair u, ustar.

    Every free entry is set to 0, the center of its interval, which makes
    the selection deterministic.
    """
    u, ustar = _pair(u, ustar)
    return midpoint_subgradient(u, ustar)
