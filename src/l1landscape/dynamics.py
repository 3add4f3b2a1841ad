"""Subgradient-method dynamics on f(u) = 0.5 ||u u^T - ustar ustar^T||_1.

Plain iteration u_{k+1} = u_k - alpha_k g_k with a diminishing step schedule,
where g_k is the midpoint element of the subdifferential at u_k. The Monte
Carlo harness estimates how often a standard Gaussian start reaches a ground
truth, how often it lands on the spurious polytope, and leaves the rest
undecided.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (MAX_ENTRY, _pair, _reject_nan, _require_finite, _require_seed, as_vector,
                   midpoint_subgradient, objective)
from .stationarity import _spurious_distance, distance_to_ground_truths

INV_K = "inv_k"
INV_SQRT_K = "inv_sqrt_k"
GEOMETRIC = "geometric"

SUCCESS = "success"
TRAPPED = "trapped"
UNDECIDED = "undecided"

DEFAULT_MAX_ITERS = 20_000
DEFAULT_TAU_SUCC = 1e-2
DEFAULT_TAU_TRAP = 1e-3

# Rows per buffer in which run_subgradient records its iterates and then
# computes their diagnostics.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes alpha_k for k = 1, 2, ...

    INV_K (c/k) and INV_SQRT_K (c/sqrt(k)) are not summable, the regime the
    almost-sure convergence question is about. GEOMETRIC (c q^k) is summable
    and is provided only as a contrast: its total travel is finite, so runs
    under it can stall anywhere.
    """

    kind: str
    c: float
    q: float | None = None

    def __post_init__(self):
        if self.kind not in (INV_K, INV_SQRT_K, GEOMETRIC):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.kind == GEOMETRIC:
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError("geometric schedule needs q in (0, 1)")
        elif self.q is not None:
            raise ValueError("q only applies to the geometric schedule")

    def step(self, k: int) -> float:
        if k < 1:
            raise ValueError("step index starts at 1")
        if self.kind == INV_K:
            return self.c / k
        if self.kind == INV_SQRT_K:
            return self.c / math.sqrt(k)
        return self.c * self.q ** k


DEFAULT_SCHEDULE = StepSchedule(INV_SQRT_K, 0.1)


@dataclass
class Trajectory:
    iters: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dist_ground_truth: np.ndarray = field(repr=False)
    dist_spurious: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = len(self.iters)
        if not (len(self.points) == len(self.values) == len(self.dist_ground_truth)
                == len(self.dist_spurious) == len(self.steps) == k):
            raise ValueError("trajectory columns disagree on length")

    def __len__(self) -> int:
        return len(self.iters)


def run_subgradient(u0, ustar, schedule: StepSchedule,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    stop_tol: float = DEFAULT_TAU_SUCC) -> Trajectory:
    """Midpoint-subgradient iteration with full per-iterate diagnostics.

    Stops early when the distance to {+-ustar} drops to stop_tol or the
    midpoint subgradient vanishes, which happens only at a stationary point;
    the final row records step 0.

    The loop only computes g, steps, runs the stopping test and writes the
    iterate into (BLOCK_ROWS, n) buffers, one more each time the last fills,
    so memory follows the run's length K, not max_iters. f and the distance
    to the spurious set are computed after the loop, one call each per
    buffer of the (K, n) stack of iterates; every column has the bits of
    the single-point functions.
    """
    u, ustar = _pair(u0, ustar)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    _reject_nan(stop_tol=stop_tol)
    n = u.size
    blocks = []
    dist_gt, steps = [], []
    row = k = 0
    while True:
        # distance_to_ground_truths's bits: each norm is the sqrt of one ddot
        a, b = u - ustar, u + ustar
        dist = min(math.sqrt(a.dot(a)), math.sqrt(b.dot(b)))
        if row % BLOCK_ROWS == 0:
            blocks.append(np.empty((BLOCK_ROWS, n)))
        blocks[-1][row % BLOCK_ROWS] = u
        row += 1
        dist_gt.append(dist)
        if dist <= stop_tol or k == max_iters:
            break
        k += 1
        g = midpoint_subgradient(u, ustar)
        if not g.any():
            break
        alpha = schedule.step(k)
        steps.append(alpha)
        u = u - alpha * g
    steps.append(0.0)

    blocks[-1] = blocks[-1][:(row - 1) % BLOCK_ROWS + 1]
    values = np.concatenate([objective(block, ustar) for block in blocks])
    dist_sp = np.concatenate([_spurious_distance(block, ustar) for block in blocks])
    return Trajectory(np.arange(row), np.concatenate(blocks), values,
                      np.array(dist_gt), dist_sp, np.array(steps))


def write_trajectory_csv(trajectory: Trajectory, fileobj) -> None:
    """RFC 4180 rows iter,u_1..u_n,f,dist_gt,dist_spurious,step."""
    n = trajectory.points.shape[1]
    writer = csv.writer(fileobj)
    writer.writerow(["iter"] + [f"u_{i + 1}" for i in range(n)]
                    + ["f", "dist_gt", "dist_spurious", "step"])
    for row in range(len(trajectory)):
        cells = [str(int(trajectory.iters[row]))]
        cells += [f"{x:.17g}" for x in trajectory.points[row]]
        cells += [f"{trajectory.values[row]:.17g}",
                  f"{trajectory.dist_ground_truth[row]:.17g}",
                  f"{trajectory.dist_spurious[row]:.17g}",
                  f"{trajectory.steps[row]:.17g}"]
        writer.writerow(cells)


@dataclass
class ConjectureReport:
    trials: int
    successes: int
    trapped: int
    undecided: int
    seed: int
    labels: tuple[str, ...]
    final_points: np.ndarray = field(repr=False)
    final_dist_ground_truth: np.ndarray = field(repr=False)
    final_dist_spurious: np.ndarray = field(repr=False)
    schedule: StepSchedule = None
    tau_succ: float = DEFAULT_TAU_SUCC
    tau_trap: float = DEFAULT_TAU_TRAP
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if self.successes + self.trapped + self.undecided != self.trials:
            raise ValueError("success/trapped/undecided counts must partition the trials")

    @property
    def trial_seeds(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.seed, t) for t in range(self.trials))

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "trapped": self.trapped,
            "undecided": self.undecided,
            "success_fraction": self.successes / self.trials,
            "seed": self.seed,
            "trial_seeds": [list(s) for s in self.trial_seeds],
            "schedule": {"kind": self.schedule.kind, "c": self.schedule.c,
                         "q": self.schedule.q},
            "tau_succ": self.tau_succ,
            "tau_trap": self.tau_trap,
            "max_iters": self.max_iters,
            "labels": list(self.labels),
            "final_points": [[float(x) for x in row] for row in self.final_points],
            "final_dist_ground_truth": [float(x) for x in self.final_dist_ground_truth],
            "final_dist_spurious": [float(x) for x in self.final_dist_spurious],
        }


def conjecture_probe(ustar, schedule: StepSchedule = DEFAULT_SCHEDULE,
                     trials: int = 200, max_iters: int = DEFAULT_MAX_ITERS,
                     tau_succ: float = DEFAULT_TAU_SUCC,
                     tau_trap: float = DEFAULT_TAU_TRAP,
                     seed: int = 0) -> ConjectureReport:
    """Monte Carlo convergence counts for the midpoint-subgradient method.

    Trial t starts from default_rng([seed, t]).standard_normal(n), takes
    exactly max_iters steps, and is labeled by its final state: success
    within tau_succ of a ground truth, trapped within tau_trap of the
    spurious polytope, undecided otherwise. All trials step in lockstep, one
    midpoint_subgradient call on the (trials, n) stack per step, and each
    row ends on the bits run_subgradient gives from the same start with
    stop_tol = 0. Aggregation is in trial order, so the report is
    reproducible bit for bit.
    """
    ustar = as_vector(ustar)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    _require_finite(tau_succ=tau_succ, tau_trap=tau_trap)
    _require_seed(seed)
    n = ustar.size

    finals = np.empty((trials, n))
    for t in range(trials):
        finals[t] = np.random.default_rng([seed, t]).standard_normal(n)

    # Two statements, not one: folding g into the update measured slower.
    for k in range(1, max_iters + 1):
        g = midpoint_subgradient(finals, ustar)
        finals -= schedule.step(k) * g

    dist_gt = distance_to_ground_truths(finals, ustar)
    dist_sp = _spurious_distance(finals, ustar)
    labels = tuple(SUCCESS if dg <= tau_succ else TRAPPED if ds <= tau_trap else UNDECIDED
                   for dg, ds in zip(dist_gt, dist_sp))
    return ConjectureReport(
        trials=trials,
        successes=labels.count(SUCCESS),
        trapped=labels.count(TRAPPED),
        undecided=labels.count(UNDECIDED),
        seed=seed,
        labels=labels,
        final_points=finals,
        final_dist_ground_truth=dist_gt,
        final_dist_spurious=dist_sp,
        schedule=schedule,
        tau_succ=tau_succ,
        tau_trap=tau_trap,
        max_iters=max_iters,
    )


@dataclass(frozen=True)
class GridSpec:
    xmin: float = -2.0
    xmax: float = 2.0
    ymin: float = -2.0
    ymax: float = 2.0
    nx: int = 21
    ny: int = 21

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one point per axis")
        # Bounds within MAX_ENTRY keep every grid point a valid vector, and
        # the spans and the flow figure's padded view box finite.
        if not all(abs(b) <= MAX_ENTRY for b in (self.xmin, self.xmax, self.ymin, self.ymax)):
            raise ValueError(f"grid bounds and spans must be finite, with bounds at most "
                             f"{MAX_ENTRY:g} in magnitude")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid bounds must be increasing")

    def points(self) -> np.ndarray:
        """All grid points as an (nx * ny, 2) array, x varying fastest."""
        xs, ys = np.meshgrid(np.linspace(self.xmin, self.xmax, self.nx),
                             np.linspace(self.ymin, self.ymax, self.ny))
        return np.column_stack([xs.ravel(), ys.ravel()])


def flow_field(ustar, grid: GridSpec = GridSpec()):
    """Negative midpoint-subgradient directions on a 2-D grid.

    Returns (points, directions), both (nx * ny, 2), x varying fastest.
    Directions are unit vectors; exact zeros stay zero so stationary grid
    points show up as gaps in the rendered field.
    """
    ustar = as_vector(ustar)
    if ustar.size != 2:
        raise ValueError("flow field is two-dimensional")
    points = grid.points()
    g = midpoint_subgradient(points, ustar)
    norms = np.linalg.norm(g, axis=1)
    moving = norms != 0.0
    directions = np.zeros_like(points)
    directions[moving] = -g[moving] / norms[moving, None]
    return points, directions
