"""Seeded inputs and operations for the four benchmark workloads.

Every workload is an endless stream of rounds, each round a list of
operations. The stream is a pure function of the workload seed, so the same
seed gives the same inputs; the library only ever sees the generated arrays.
A run executes whole rounds in a closed loop (one caller, each operation
starts after the previous one returns) and times only the library calls.

Operations call the library through attributes of the package module looked
up at call time, so the tracer's wrappers take effect when installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Draw tags that keep these streams apart from the per-seed ones.
WARMUP_TAG = 7_777_777
GSEP_TAG = 8_888_888
USTAR_TAG = 9_999_999

DESCEND_ITERS = 20_000           # the CLI default for `descend`
PROBE_TRIALS = 200               # the CLI default for `conjecture`
PROBE_ITERS = 20_000
PROBE_N = 10
GSEP_N = 16
GSEP_TRIALS = 100_000            # the CLI default for `gaussian-sep`
SCHEDULE_KIND = "inv_sqrt_k"     # the CLI default schedule inv_sqrt_k:0.1
SCHEDULE_C = 0.1
DESCEND_SAMPLE_ROWS = 16         # trajectory rows sent to the oracle per run
SPURIOUS_MAX_DRAWS = 100_000     # rejection-sampling attempts per spurious point

CERTIFY_DIMS = (10, 20, 40)
FACE_FRACTIONS = (0.0, 0.5, 0.9)


@dataclass
class Op:
    kind: str      # "certify", "descend", "probe" or "gsep"
    args: dict
    key: object    # identifies the input when a workload repeats it, else None
    label: str     # input class, for reports


@dataclass
class Outcome:
    start: float             # on the caller's clock
    end: float
    units: float
    error: str | None
    record: dict | None      # what the oracle checks
    signature: tuple | None  # exact output, for comparing repeats of one input
    raised: bool = False     # the library raised instead of answering

    @property
    def seconds(self):
        return self.end - self.start


def _vec(x):
    return None if x is None else [float(v) for v in x]


def spurious_point(rng, ustar, face_fraction):
    """A point of the spurious polytope with a chosen share on the box face.

    round(face_fraction * n) coordinates (at most n - 1) sit exactly at
    +-|ustar_i|; the rest are uniform inside the box and are then shifted
    along sign(ustar) onto the hyperplane sum_i sign(ustar_i) u_i = 0. Draws
    whose shifted coordinates leave the box are rejected. Face coordinates
    are never touched after they are set, so their residual entries with
    each other are exact zeros: the free pairs of the subdifferential.
    """
    n = ustar.size
    s = np.sign(ustar)
    cap = np.abs(ustar)
    k = min(int(round(face_fraction * n)), n - 1)
    for _ in range(SPURIOUS_MAX_DRAWS):
        face = np.zeros(n, dtype=bool)
        face[rng.choice(n, size=k, replace=False)] = True
        u = rng.uniform(-cap, cap)
        u[face] = rng.choice([-1.0, 1.0], size=k) * cap[face]
        inner = ~face
        u[inner] -= s[inner] * (float(s @ u) / int(inner.sum()))
        if np.all(np.abs(u[inner]) <= cap[inner]):
            return u
    raise RuntimeError(f"no spurious draw with face fraction {face_fraction} "
                       f"in {SPURIOUS_MAX_DRAWS} tries")


class Workload:
    """A seeded stream of rounds; subclasses set how a run reports on it.

    tail_percentile is fixed per workload so that op_ms_tail keeps its
    meaning when a faster commit completes more operations; at 100 it is
    the maximum. counts_depend_on_seed says whether the traced run's exact
    counts must change for another seed, or are fixed by construction.
    round_s, about how long one round takes at reference speed, sets the
    time limit of a run.
    """

    name = ""
    round_s = 0.0
    tail_percentile = 100.0
    latency_per_round = False  # one latency sample per round, not per op
    counts_depend_on_seed = False
    trace_rounds = 1           # rounds in the traced run's fixed pass

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def primary(self, op: Op) -> bool:
        """Whether op's units count towards work_per_s."""
        return True


class GridN2(Workload):
    name = "grid-n2"
    round_s = 2.0
    # p99.9 would keep >=10 samples beyond it only while a run certifies
    # >=10k points, about half of what a 20 s run managed when this was
    # written; p99 keeps >=10 down to 1000.
    tail_percentile = 99.0

    INSTANCES = (np.array([1.0, 1.0]), np.array([2.0, 0.5]))
    AXIS = np.linspace(-2.5, 2.5, 31)   # scripts/flow_figure.py's grid

    def __init__(self, seed):
        super().__init__(seed)
        self.points = [(g, np.array([x, y])) for g in self.INSTANCES
                       for x in self.AXIS for y in self.AXIS]
        self.order = np.random.default_rng(seed).permutation(len(self.points))

    def round(self, r):
        # Every round is the whole grid in the seed's order, so repeats of a
        # point can be compared with its first result.
        return [Op("certify", {"u": self.points[i][1], "g": self.points[i][0]},
                   int(i), "grid") for i in self.order]

    def warmup(self):
        return [Op("certify", {"u": np.array([-1.0, 1.0]), "g": np.array([1.0, 1.0])},
                   None, "warmup")]


class CertifyScale(Workload):
    name = "certify-scale"
    round_s = 0.7
    # A 20 s run certified 500-700 points when this was written; p95 keeps
    # >=10 samples beyond it down to 200 points, p99 would need 1000.
    tail_percentile = 95.0
    counts_depend_on_seed = True
    trace_rounds = 8

    def _cell(self, r, n):
        # The planted vector of round r is the same for every seed; the seed
        # draws the points. The +-u* LPs (n(n+1)/2 free pairs) vary several
        # fold in cost with u*, and sharing u* across seeds keeps that
        # variation out of the seed-to-seed spread while every run still
        # pays it.
        g = np.random.default_rng([USTAR_TAG, r, n]).standard_normal(n)
        rng = np.random.default_rng([self.seed, r, n])
        points = {"generic": rng.standard_normal(n), "zero": np.zeros(n),
                  "plus": g.copy(), "minus": -g}
        for f in FACE_FRACTIONS:
            points[f"face{int(100 * f)}"] = spurious_point(rng, g, f)
        return g, points

    def round(self, r):
        ops = []
        for n in CERTIFY_DIMS:
            g, points = self._cell(r, n)
            ops += [Op("certify", {"u": u, "g": g}, None, f"n{n}/{label}")
                    for label, u in points.items()]
        order = np.random.default_rng([self.seed, r]).permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self):
        # The largest LPs of the workload, so lazy BLAS set-up lands here.
        rng = np.random.default_rng([self.seed, WARMUP_TAG])
        g = rng.standard_normal(40)
        return [Op("certify", {"u": spurious_point(rng, g, 0.9), "g": g}, None, "warmup")]


class Descend(Workload):
    name = "descend"
    round_s = 21.0

    def round(self, r):
        ops = []
        for n in (2, 10):
            rng = np.random.default_rng([self.seed, r, n])
            g = rng.standard_normal(n)
            ops.append(Op("descend", {"u0": rng.standard_normal(n), "g": g,
                                      "max_iters": DESCEND_ITERS,
                                      "sample_seed": [self.seed, r, n]},
                          None, f"n{n}"))
        return ops

    def warmup(self):
        rng = np.random.default_rng([self.seed, WARMUP_TAG])
        return [Op("descend", {"u0": rng.standard_normal(10), "g": rng.standard_normal(10),
                               "max_iters": 200, "sample_seed": [self.seed, WARMUP_TAG]},
                   None, "warmup")]


class MonteCarlo(Workload):
    name = "montecarlo"
    round_s = 5.3
    latency_per_round = True

    def __init__(self, seed):
        super().__init__(seed)
        # One gsep seed per run: each call in a run repeats the same command,
        # so a run makes one statistical check, not one per round.
        self.gsep_seed = int(np.random.default_rng([seed, GSEP_TAG]).integers(2**31))

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        g = rng.standard_normal(PROBE_N)
        probe_seed = int(rng.integers(2**31))
        return [Op("probe", {"g": g, "trials": PROBE_TRIALS, "max_iters": PROBE_ITERS,
                             "seed": probe_seed}, None, "probe"),
                Op("gsep", {"n": GSEP_N, "trials": GSEP_TRIALS, "seed": self.gsep_seed},
                   ("gsep", self.gsep_seed), "gsep")]

    def warmup(self):
        rng = np.random.default_rng([self.seed, WARMUP_TAG])
        return [Op("probe", {"g": rng.standard_normal(PROBE_N), "trials": PROBE_TRIALS,
                             "max_iters": 200, "seed": 0}, None, "warmup"),
                Op("gsep", {"n": GSEP_N, "trials": 1000, "seed": 0}, None, "warmup")]

    def primary(self, op):
        return op.kind == "probe"


WORKLOADS = {w.name: w for w in (GridN2, CertifyScale, Descend, MonteCarlo)}


# ------------------------------------------------------------- operations


def _certify(lib, a, clock):
    u, g = a["u"], a["g"]
    t0 = clock()
    try:
        cf = lib.is_stationary_closed_form(u, g)
        lp = lib.is_stationary_lp(u, g)
        cls = lib.classify_point(u, g)
    except Exception as exc:  # a library failure is a measured outcome
        return Outcome(t0, clock(), 1, f"{type(exc).__name__}: {exc}",
                       None, None, raised=True)
    t1 = clock()
    error = None
    if cf.is_stationary != lp.is_stationary or cf.kind != lp.kind:
        error = f"certifiers disagree: closed form {cf.kind}, LP {lp.kind}"
    record = {"u": _vec(u), "g": _vec(g), "cf": cf.kind, "lp": lp.kind,
              "lp_stationary": bool(lp.is_stationary),
              "lp_value": None if lp.violation is None else float(lp.violation),
              "cls": cls.kind, "curvature": cls.curvature,
              "escape": _vec(cls.escape_direction),
              "descent": _vec(cls.descent_direction)}
    signature = (cf.kind, lp.kind, record["lp_value"], cls.kind, cls.curvature,
                 None if cls.escape_direction is None else cls.escape_direction.tobytes(),
                 None if cls.descent_direction is None else cls.descent_direction.tobytes())
    return Outcome(t0, t1, 1, error, record, signature)


def _descend(lib, a, clock):
    schedule = lib.StepSchedule(SCHEDULE_KIND, SCHEDULE_C)
    m = a["max_iters"]
    t0 = clock()
    try:
        traj = lib.run_subgradient(a["u0"], a["g"], schedule, max_iters=m, stop_tol=0.0)
    except Exception as exc:
        return Outcome(t0, clock(), m, f"{type(exc).__name__}: {exc}",
                       None, None, raised=True)
    t1 = clock()
    error = None
    if len(traj) != m + 1 or not np.array_equal(traj.iters, np.arange(m + 1)):
        error = f"expected {m + 1} rows, got {len(traj)}"
        rows = []
    else:
        picks = np.random.default_rng(a["sample_seed"]).choice(
            m, size=min(DESCEND_SAMPLE_ROWS, m), replace=False)
        rows = sorted({int(k) for k in picks} | {int(k) + 1 for k in picks} | {m})
    record = {"g": _vec(a["g"]), "u0": _vec(a["u0"]), "max_iters": m,
              "schedule_c": SCHEDULE_C,
              "rows": [{"iter": int(traj.iters[k]), "u": _vec(traj.points[k]),
                        "f": float(traj.values[k]),
                        "dist_gt": float(traj.dist_ground_truth[k]),
                        "dist_sp": float(traj.dist_spurious[k]),
                        "step": float(traj.steps[k])} for k in rows]}
    return Outcome(t0, t1, m, error, record, (traj.points.tobytes(), traj.values.tobytes()))


def _probe(lib, a, clock):
    schedule = lib.StepSchedule(SCHEDULE_KIND, SCHEDULE_C)
    t0 = clock()
    try:
        rep = lib.conjecture_probe(a["g"], schedule=schedule, trials=a["trials"],
                                   max_iters=a["max_iters"], seed=a["seed"])
    except Exception as exc:
        return Outcome(t0, clock(), a["trials"] * a["max_iters"],
                       f"{type(exc).__name__}: {exc}", None, None, raised=True)
    t1 = clock()
    record = {"g": _vec(a["g"]), "seed": a["seed"], "max_iters": a["max_iters"],
              "schedule_c": SCHEDULE_C, "trials": rep.trials, "successes": rep.successes,
              "trapped": rep.trapped, "undecided": rep.undecided,
              "labels": list(rep.labels), "tau_succ": rep.tau_succ,
              "tau_trap": rep.tau_trap,
              "final_points": [_vec(p) for p in rep.final_points],
              "dist_gt": _vec(rep.final_dist_ground_truth),
              "dist_sp": _vec(rep.final_dist_spurious)}
    signature = (rep.labels, rep.final_points.tobytes(), rep.final_dist_spurious.tobytes())
    return Outcome(t0, t1, a["trials"] * a["max_iters"], None, record, signature)


def _gsep(lib, a, clock):
    t0 = clock()
    try:
        mean, stderr = lib.gaussian_separation(a["n"], a["trials"], a["seed"])
    except Exception as exc:
        return Outcome(t0, clock(), a["trials"],
                       f"{type(exc).__name__}: {exc}", None, None, raised=True)
    t1 = clock()
    record = {"n": a["n"], "trials": a["trials"], "mean": mean, "stderr": stderr}
    return Outcome(t0, t1, a["trials"], None, record, (mean, stderr))


RUNNERS = {"certify": _certify, "descend": _descend, "probe": _probe, "gsep": _gsep}


def execute(lib, op: Op, clock) -> Outcome:
    """Run one operation, timing only its library calls with clock()."""
    return RUNNERS[op.kind](lib, op.args, clock)


def free_pairs(lib, op: Op) -> int | None:
    """Free pairs (zero residual entries) at an operation's input point."""
    if op.kind == "certify":
        return len(lib.subdifferential_model(op.args["u"], op.args["g"]).free_pairs)
    if op.kind == "descend":
        return len(lib.subdifferential_model(op.args["u0"], op.args["g"]).free_pairs)
    return None


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, with the count beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank
