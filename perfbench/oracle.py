"""Independent checks of the library's outputs, run in their own process.

    python3 perfbench/oracle.py --records FILE [--highs]

Reads one [op index, kind, record] JSON line per output from FILE and
prints {"failed_ops": [[op index, reason], ...], "checked": {...}} on
stdout; --highs adds the HiGHS checks of the certify LPs. It
never imports l1landscape: the objective, the stationary set, the
projection and the LPs are rebuilt here from their definitions, and the LPs
are solved by HiGHS through scipy. Importing scipy roughly triples a
process's RSS, which is why this is not the measuring process.
"""

import argparse
import json
import math
import sys

import numpy as np

# The library's documented zero band for residual entries and coordinates,
# restated here rather than imported.
EPS_ZERO = 1e-9
# HiGHS works to a primal feasibility tolerance of 1e-7, so its optimum of
# min ||Z u||_inf is only trusted to that order.
HIGHS_TOL = 1e-6
STEP_LADDER = [10.0 ** -k for k in range(1, 10)]
# Probe trials rerun per conjecture_probe call; each costs about 0.3 s.
PROBE_RERUNS = 3
PROBE_RERUN_TAG = 6_666_666


def f(u, g):
    return 0.5 * float(np.abs(np.outer(u, u) - np.outer(g, g)).sum())


def stationary_kind(u, g):
    """Closed form: +-g, or the box-hyperplane polytope, or not stationary."""
    if np.abs(u - g).max() <= EPS_ZERO:
        return "ground_truth_plus"
    if np.abs(u + g).max() <= EPS_ZERO:
        return "ground_truth_minus"
    s = np.sign(g) * (np.abs(g) > EPS_ZERO)
    if (np.all(np.abs(u) <= np.abs(g) + EPS_ZERO) and np.all(np.abs(u[s == 0]) <= EPS_ZERO)
            and abs(float(s @ u)) <= EPS_ZERO):
        return "spurious"
    return "not_stationary"


CLASS_OF = {"ground_truth_plus": "global_min", "ground_truth_minus": "global_min",
            "spurious": "spurious_stationary", "not_stationary": "not_stationary"}


def sign_model(u, g):
    """Fixed part c0 = sigma u and pair matrix M of the subdifferential {c0 + M x}."""
    r = np.outer(u, u) - np.outer(g, g)
    sigma = np.where(r > EPS_ZERO, 1.0, np.where(r < -EPS_ZERO, -1.0, 0.0))
    ii, jj = np.nonzero(np.triu(sigma == 0))
    m = np.zeros((u.size, ii.size))
    cols = np.arange(ii.size)
    m[ii, cols] = u[jj]
    m[jj, cols] += np.where(ii == jj, 0.0, u[ii])
    return sigma, sigma @ u, m, ii, jj


def highs_min_inf_norm(c0, m):
    """min ||c0 + M x||_inf over x in [-1, 1]^p, by HiGHS."""
    from scipy.optimize import linprog
    n, p = m.shape
    if p == 0:
        return float(np.abs(c0).max())
    ones = np.ones((n, 1))
    a_ub = np.vstack([np.hstack([m, -ones]), np.hstack([-m, -ones])])
    b_ub = np.concatenate([-c0, c0])
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(-1.0, 1.0)] * p + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def highs_face_value(sigma, c0, m, ii, jj, w):
    """max <Q, w w^T> over the face {Q in the sign boxes, Q u = 0}, by HiGHS."""
    from scipy.optimize import linprog
    constant = float(w @ sigma @ w)
    if ii.size == 0:
        return constant
    coeff = np.where(ii == jj, w[ii] * w[jj], 2.0 * w[ii] * w[jj])
    res = linprog(-coeff, A_eq=m, b_eq=-c0, bounds=[(-1.0, 1.0)] * ii.size, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS face LP: {res.message}")
    return constant - float(res.fun)


def project(y, g):
    """Exact projection onto {|x| <= |g|, sign(g).x = 0} by breakpoint search.

    With z = sign(g) y the hyperplane value is phi(lam) = sum clip(z - lam,
    -|g|, |g|), nonincreasing and piecewise linear with breakpoints z -+ |g|;
    its root lies between two sorted breakpoints, where phi is linear.
    """
    s, c = np.sign(g), np.abs(g)
    z = s * y

    def phi(lam):
        return float(np.clip(z - lam, -c, c).sum())

    bps = np.unique(np.concatenate([z - c, z + c]))
    vals = np.array([phi(b) for b in bps])
    k = int(np.searchsorted(-vals, 0.0))   # first breakpoint with phi <= 0
    if k == 0:
        lam = bps[0]
    elif vals[k] == 0.0:
        lam = bps[k]
    else:
        lo, hi = bps[k - 1], bps[k]
        lam = lo + (hi - lo) * vals[k - 1] / (vals[k - 1] - vals[k])
    x = s * np.clip(z - lam, -c, c)
    return x, float(np.linalg.norm(y - x))


def dist_gt(u, g):
    return float(min(np.linalg.norm(u - g), np.linalg.norm(u + g)))


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_certify(rec, highs):
    u, g = np.array(rec["u"]), np.array(rec["g"])
    kind = stationary_kind(u, g)
    if rec["cf"] != kind or rec["lp"] != kind:
        return f"kinds closed form {rec['cf']}, LP {rec['lp']}, oracle {kind}"
    if rec["cls"] != CLASS_OF[kind]:
        return f"classified {rec['cls']}, oracle {CLASS_OF[kind]}"
    sigma, c0, m, ii, jj = sign_model(u, g)
    if highs:
        value = highs_min_inf_norm(c0, m)
        stationary = value <= HIGHS_TOL
        if stationary != rec["lp_stationary"] or abs(value - rec["lp_value"]) > HIGHS_TOL:
            return f"LP value {rec['lp_value']} vs HiGHS {value}"
    if kind == "spurious":
        w = np.array(rec["escape"])
        expected = -float(np.abs(g).sum()) ** 2
        if np.abs(w - (g - u)).max() > 1e-12 or not close(rec["curvature"], expected, 1e-9):
            return f"escape curvature {rec['curvature']} vs -||u*||_1^2 = {expected}"
        t = 1e-4
        quotient = (f(u + t * w, g) - f(u, g)) / (0.5 * t * t)
        if not close(quotient, expected, 1e-3):
            return f"second difference {quotient} vs curvature {expected}"
        if highs:
            face = highs_face_value(sigma, c0, m, ii, jj, w)
            if not close(face, rec["curvature"], HIGHS_TOL):
                return f"face LP {rec['curvature']} vs HiGHS {face}"
    elif kind == "not_stationary":
        d = np.array(rec["descent"])
        if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
            return "descent direction is not a unit vector"
        f0 = f(u, g)
        if not any(f(u + t * d, g) < f0 for t in STEP_LADDER):
            return "descent direction does not decrease f"
    return None


def midpoint_step(u, g, step):
    """u - step * (the midpoint subgradient of f at u)."""
    r = np.outer(u, u) - np.outer(g, g)
    return u - step * (np.where(np.abs(r) <= EPS_ZERO, 0.0, np.sign(r)) @ u)


def check_descend(rec):
    g = np.array(rec["g"])
    rows = {row["iter"]: row for row in rec["rows"]}
    if not rows:
        return "no trajectory rows"
    for k, row in rows.items():
        u = np.array(row["u"])
        if not close(row["f"], f(u, g), 1e-12):
            return f"row {k}: f {row['f']} vs {f(u, g)}"
        if not close(row["dist_gt"], dist_gt(u, g), 1e-12):
            return f"row {k}: dist_gt {row['dist_gt']} vs {dist_gt(u, g)}"
        d_sp = project(u, g)[1]
        if abs(row["dist_sp"] - d_sp) > 1e-9:
            return f"row {k}: dist_spurious {row['dist_sp']} vs {d_sp}"
        last = k == rec["max_iters"]
        step = 0.0 if last else rec["schedule_c"] / math.sqrt(k + 1)
        if not close(row["step"], step, 1e-15):
            return f"row {k}: step {row['step']} vs {step}"
        if k + 1 in rows:   # u_{k+1} = u_k - step_k * (midpoint subgradient at u_k)
            nxt = np.array(rows[k + 1]["u"])
            if np.abs(nxt - midpoint_step(u, g, step)).max() > 1e-12 * max(1.0, np.abs(u).max()):
                return f"row {k + 1} is not a midpoint subgradient step from row {k}"
    return None


def check_probe(rec):
    g = np.array(rec["g"])
    labels = rec["labels"]
    counts = (rec["successes"], rec["trapped"], rec["undecided"])
    if sum(counts) != rec["trials"] or len(labels) != rec["trials"]:
        return f"counts {counts} do not partition {rec['trials']} trials"
    if counts != tuple(labels.count(x) for x in ("success", "trapped", "undecided")):
        return "counts disagree with the labels"
    for t, p in enumerate(rec["final_points"]):
        u = np.array(p)
        dg, ds = dist_gt(u, g), project(u, g)[1]
        if not close(rec["dist_gt"][t], dg, 1e-12) or abs(rec["dist_sp"][t] - ds) > 1e-9:
            return f"trial {t}: distances {rec['dist_gt'][t]}, {rec['dist_sp'][t]} vs {dg}, {ds}"
        label = ("success" if dg <= rec["tau_succ"] else
                 "trapped" if ds <= rec["tau_trap"] else "undecided")
        if labels[t] != label:
            return f"trial {t}: label {labels[t]} vs {label}"
    # A few trials rerun from their documented start, default_rng([seed, t]),
    # with the midpoint step c/sqrt(k) for k = 1..max_iters. The library's
    # batch kernel sums in another order; the two agreed to 1e-13.
    picks = np.random.default_rng([rec["seed"], PROBE_RERUN_TAG]).choice(
        rec["trials"], size=min(PROBE_RERUNS, rec["trials"]), replace=False)
    for t in sorted(int(t) for t in picks):
        u = np.random.default_rng([rec["seed"], t]).standard_normal(g.size)
        for k in range(1, rec["max_iters"] + 1):
            u = midpoint_step(u, g, rec["schedule_c"] / math.sqrt(k))
        gap = float(np.abs(np.array(rec["final_points"][t]) - u).max())
        if gap > 1e-9 * max(1.0, np.abs(u).max()):
            return f"trial {t}: final point differs from a rerun by {gap:.3g}"
    return None


def check_gsep(rec):
    # |Z| has variance 1 - 2/pi, so a trial value sum|z_i|/sqrt(n) does too.
    expected = math.sqrt(2.0 * rec["n"] / math.pi)
    se = math.sqrt((1.0 - 2.0 / math.pi) / rec["trials"])
    if abs(rec["mean"] - expected) > 4.0 * se:
        return f"mean {rec['mean']} is more than 4 standard errors from {expected}"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--records", required=True)
    p.add_argument("--highs", action="store_true")
    args = p.parse_args()
    failed, checked = [], {}
    with open(args.records) as fh:
        lines = [json.loads(line) for line in fh]
    for idx, kind, rec in lines:
        try:
            if kind == "certify":
                reason = check_certify(rec, args.highs)
            else:
                reason = {"descend": check_descend, "probe": check_probe,
                          "gsep": check_gsep}[kind](rec)
        except Exception as exc:  # an oracle that cannot decide counts as a failure
            reason = f"oracle error {type(exc).__name__}: {exc}"
        checked[kind] = checked.get(kind, 0) + 1
        if reason is not None:
            failed.append([idx, reason])
    json.dump({"failed_ops": failed, "checked": checked}, sys.stdout)


if __name__ == "__main__":
    main()
