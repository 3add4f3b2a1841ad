"""Command-line front end: certificates, dynamics runs, and figure emission.

Exit codes: 0 success, 1 usage or configuration error, 2 internal
consistency failure (the two stationarity certifiers disagree), 3 numerical
failure inside the LP machinery. JSON output is strict: a result that is
not finite exits 1 and writes nothing.

Each invocation builds one options map: a flag that was set wins over the
same key in the --config JSON object, and a JSON null counts as unset. A
config key that names no option of the subcommand is a usage error. An
option left unset is not passed on, so the library function applies its own
default (GridSpec's grid, conjecture_probe's trial count). Defaults are set
here only where the library has none or the output echoes the value. The
numerical tolerances are constants of the library (core.EPS_ZERO,
lpcore.EPS_LP, firstorder.EPS_DIR), not options.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from .core import _require_finite
from .dynamics import (
    DEFAULT_SCHEDULE,
    GridSpec,
    StepSchedule,
    conjecture_probe,
    flow_field,
    run_subgradient,
    write_trajectory_csv,
)
from .firstorder import growth_check
from .lpcore import NumericalFailureError
from .secondorder import classify_point
from .stationarity import (
    expected_gaussian_separation,
    gaussian_separation,
    is_stationary_closed_form,
    is_stationary_lp,
)
from .tilting import (
    EX42,
    SCALAR_FNS,
    certify_sharp_local_min_1d,
    certify_sharp_local_min_tilted_f,
    tilt_divergence_probe_ex41,
    write_tilt_samples_csv,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for
    consistency failures, so usage errors are remapped to 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Vector values like -1,1 must parse as values, not option names;
        # widen the stock negative-number test to anything starting -digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_vector(text) -> np.ndarray:
    if isinstance(text, (list, tuple)):
        return np.asarray([float(v) for v in text])
    try:
        return np.asarray([float(part) for part in str(text).split(",")])
    except ValueError:
        raise ValueError(f"expected comma-separated reals, got {text!r}")


def parse_schedule(text) -> StepSchedule:
    """kind:c or geometric:c:q, e.g. inv_sqrt_k:0.1 (dashes in kind ok)."""
    parts = str(text).split(":")
    if len(parts) < 2:
        raise ValueError("schedule needs a constant, e.g. inv_sqrt_k:0.1")
    q = float(parts[2]) if len(parts) > 2 else None
    return StepSchedule(parts[0].replace("-", "_").lower(), float(parts[1]), q)


def _options(args) -> dict:
    """The --config object overlaid with the flags that were set; a JSON
    null, like an unset flag, leaves the key out. A config key the
    subcommand has no option for is an error."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = sorted(config.keys() - vars(args).keys())
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0].replace('_', '-')!r}")
    return {key: value for layer in (config, vars(args))
            for key, value in layer.items() if value is not None}


def _convert(opts: dict, key: str, converter):
    try:
        return converter(opts[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for parameter {key.replace('_', '-')!r}: {exc}") from None


def _require(opts: dict, key: str, converter):
    if key not in opts:
        raise ValueError(f"missing required parameter {key.replace('_', '-')!r}")
    return _convert(opts, key, converter)


def _given(opts: dict, **converters) -> dict:
    """The options among converters' keys that are set, converted, as
    keyword arguments; the callee's defaults cover the rest."""
    return {key: _convert(opts, key, converter)
            for key, converter in converters.items() if key in opts}


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


def _verdict_dict(v) -> dict:
    return {"is_stationary": v.is_stationary, "kind": v.kind,
            "violation": v.violation}


def _certifiers_agree(cf, lp) -> bool:
    return cf.is_stationary == lp.is_stationary and cf.kind == lp.kind


def _vec(u) -> list:
    return [float(x) for x in u]


# ---------------------------------------------------------------- commands


def cmd_certify(opts: dict) -> int:
    u = _require(opts, "point", parse_vector)
    g = _require(opts, "ground_truth", parse_vector)

    cf = is_stationary_closed_form(u, g)
    lp = is_stationary_lp(u, g)
    agree = _certifiers_agree(cf, lp)
    cls = classify_point(u, g)

    payload = {
        "point": _vec(u),
        "ground_truth": _vec(g),
        "closed_form": _verdict_dict(cf),
        "lp": _verdict_dict(lp),
        "certifiers_agree": agree,
        "classification": {
            "kind": cls.kind,
            "curvature": cls.curvature,
            "escape_direction": None if cls.escape_direction is None
                                else _vec(cls.escape_direction),
            "descent_direction": None if cls.descent_direction is None
                                 else _vec(cls.descent_direction),
        },
    }
    _emit_json(payload, opts.get("out"))
    return 0 if agree else 2


def _grid_from(opts: dict) -> GridSpec:
    return GridSpec(**_given(opts, xmin=float, xmax=float, ymin=float,
                             ymax=float, nx=int, ny=int))


def render_flow_svg(ustar, grid: GridSpec) -> str:
    """Self-contained SVG of flow_field(ustar, grid): one arrow group per grid
    point, the spurious polytope as a thick segment (a dot when it
    degenerates), ground truths as dots. Problem coordinates throughout, y
    flipped for screen space. The view box pads the grid by half a cell."""
    hx = (grid.xmax - grid.xmin) / (grid.nx - 1) if grid.nx > 1 else 0.4
    hy = (grid.ymax - grid.ymin) / (grid.ny - 1) if grid.ny > 1 else 0.4
    length = 0.38 * min(hx, hy)
    pad = 0.5 * max(hx, hy)
    x0, y0 = grid.xmin - pad, -(grid.ymax + pad)
    width = grid.xmax - grid.xmin + 2 * pad
    height = grid.ymax - grid.ymin + 2 * pad
    points, directions = flow_field(ustar, grid)

    def fmt(v):
        return f"{v:.5g}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(x0)} {fmt(y0)} '
        f'{fmt(width)} {fmt(height)}" width="640" height="640">',
        "<style>",
        f".arrow line {{stroke:#445; stroke-width:{fmt(0.09 * length)};}}",
        ".arrow polygon {fill:#445;}",
        ".arrow circle {fill:#9aa;}",
        f".polytope {{stroke:#c0392b; stroke-width:{fmt(0.6 * length)}; "
        "stroke-linecap:round; fill:#c0392b;}",
        ".gt {fill:#1a7a4a;}",
        "</style>",
        f'<rect x="{fmt(x0)}" y="{fmt(y0)}" width="{fmt(width)}" '
        f'height="{fmt(height)}" fill="white"/>',
    ]

    for (px, py), (dx, dy) in zip(points, directions):
        sx, sy = px, -py
        if dx == 0.0 and dy == 0.0:
            lines.append(f'<g class="arrow"><circle cx="{fmt(sx)}" cy="{fmt(sy)}" '
                         f'r="{fmt(0.12 * length)}"/></g>')
            continue
        ex, ey = px + length * dx, py + length * dy
        # Triangle head: two back-corners perpendicular to the shaft tip.
        bx, by = ex - 0.35 * length * dx, ey - 0.35 * length * dy
        ox, oy = -0.18 * length * dy, 0.18 * length * dx
        lines.append(
            '<g class="arrow">'
            f'<line x1="{fmt(sx)}" y1="{fmt(sy)}" x2="{fmt(bx)}" y2="{fmt(-by)}"/>'
            f'<polygon points="{fmt(ex)},{fmt(-ey)} {fmt(bx + ox)},{fmt(-(by + oy))} '
            f'{fmt(bx - ox)},{fmt(-(by - oy))}"/>'
            "</g>")

    s = np.sign(ustar)
    caps = np.abs(ustar)
    if caps.min() > 0.0:
        m = float(caps.min())
        ax, ay = m * s[1], -m * s[0]
        lines.append(f'<line class="polytope" x1="{fmt(ax)}" y1="{fmt(-ay)}" '
                     f'x2="{fmt(-ax)}" y2="{fmt(ay)}"/>')
    else:
        lines.append(f'<circle class="polytope" cx="0" cy="0" r="{fmt(0.3 * length)}"/>')
    for gt in (ustar, -ustar):
        lines.append(f'<circle class="gt" cx="{fmt(gt[0])}" cy="{fmt(-gt[1])}" '
                     f'r="{fmt(0.25 * length)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_flow(opts: dict) -> int:
    g = _require(opts, "ground_truth", parse_vector)
    grid = _grid_from(opts)
    _emit(render_flow_svg(g, grid), opts.get("out"))
    return 0


def cmd_descend(opts: dict) -> int:
    g = _require(opts, "ground_truth", parse_vector)
    if opts.get("u0", "random") == "random":
        seed = _given(opts, seed=int).get("seed", 0)
        u0 = np.random.default_rng(seed).standard_normal(g.size)
    else:
        u0 = _require(opts, "u0", parse_vector)
    schedule = _given(opts, schedule=parse_schedule).get("schedule", DEFAULT_SCHEDULE)
    trajectory = run_subgradient(u0, g, schedule,
                                 **_given(opts, max_iters=int, stop_tol=float))
    buf = io.StringIO()
    write_trajectory_csv(trajectory, buf)
    _emit(buf.getvalue(), opts.get("out"))
    return 0


def cmd_conjecture(opts: dict) -> int:
    g = _require(opts, "ground_truth", parse_vector)
    report = conjecture_probe(g, **_given(
        opts, schedule=parse_schedule, trials=int, max_iters=int,
        tau_succ=float, tau_trap=float, seed=int))
    _emit_json(report.to_json_dict(), opts.get("out"))
    return 0


def cmd_gaussian_sep(opts: dict) -> int:
    n = _require(opts, "n", int)
    # trials has no library default, and both values are echoed in the output
    opts = {"trials": 100_000, "seed": 0, **opts}
    run = _given(opts, trials=int, seed=int)
    mean, stderr = gaussian_separation(n, **run)
    _emit_json({"n": n, **run, "mean": mean, "stderr": stderr,
                "expected": expected_gaussian_separation(n)}, opts.get("out"))
    return 0


def cmd_growth_check(opts: dict) -> int:
    g = _require(opts, "ground_truth", parse_vector)
    opts = {"radius": 0.05, "samples": 1000, **opts}
    report = growth_check(g, **_given(opts, radius=float, samples=int, seed=int))
    _emit_json({"ground_truth": _vec(g), "radius": report.radius,
                "samples": report.samples, "violations": report.violations,
                "min_margin": report.min_margin, "beta": report.beta},
               opts.get("out"))
    return 0


def cmd_landscape(opts: dict) -> int:
    g = _require(opts, "ground_truth", parse_vector)
    if g.size != 2:
        raise ValueError("landscape sweeps a 2-d grid; ground truth must be a 2-vector")
    grid = _grid_from(opts)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "stationary_closed_form", "kind_closed_form",
                     "stationary_lp", "kind_lp", "agree"])
    disagreements = 0
    for u in grid.points():
        cf = is_stationary_closed_form(u, g)
        lp = is_stationary_lp(u, g)
        agree = _certifiers_agree(cf, lp)
        disagreements += 0 if agree else 1
        writer.writerow([f"{u[0]:.17g}", f"{u[1]:.17g}",
                         str(cf.is_stationary).lower(), cf.kind,
                         str(lp.is_stationary).lower(), lp.kind,
                         str(agree).lower()])
    _emit(buf.getvalue(), opts.get("out"))
    if disagreements:
        print(f"{disagreements} grid points with certifier disagreement",
              file=sys.stderr)
        return 2
    return 0


def cmd_tilt_ex41_probe(opts: dict) -> int:
    a = _require(opts, "a", float)
    opts = {"x0": 3.0, "schedule": "inv_sqrt_k:200", "max_iters": 100_000, **opts}
    report = tilt_divergence_probe_ex41(a, **_given(
        opts, x0=float, schedule=parse_schedule, max_iters=int, threshold=float))
    _emit_json({"tilt": report.tilt, "final_x": report.final_x,
                "iterations": report.iterations, "escaped": report.escaped,
                "threshold": report.threshold}, opts.get("out"))
    return 0


def cmd_tilt_ex42_certify(opts: dict) -> int:
    x0 = _require(opts, "x", float)
    a = _require(opts, "a", float)
    certified, modulus = certify_sharp_local_min_1d(EX42, x0, a)
    _emit_json({"fn": EX42, "x0": x0, "tilt": a, "certified": certified,
                "modulus": modulus}, opts.get("out"))
    return 0


def cmd_tilt_f_certify(opts: dict) -> int:
    opts = {"ground_truth": "1,1", "point": "-1,1", **opts}
    g = _require(opts, "ground_truth", parse_vector)
    u0 = _require(opts, "point", parse_vector)
    a = _require(opts, "a", parse_vector)
    certified, modulus = certify_sharp_local_min_tilted_f(g, u0, a)
    _emit_json({"ground_truth": _vec(g), "point": _vec(u0), "tilt": _vec(a),
                "certified": certified, "modulus": modulus}, opts.get("out"))
    return 0


def cmd_tilt_samples(opts: dict) -> int:
    a = _require(opts, "a", float)
    opts = {"fn": EX42, "xmin": -5.0, "xmax": 5.0, "num": 1001, **opts}
    xmin, xmax = _require(opts, "xmin", float), _require(opts, "xmax", float)
    _require_finite(xmin=xmin, xmax=xmax)
    xs = np.linspace(xmin, xmax, _require(opts, "num", int))
    buf = io.StringIO()
    write_tilt_samples_csv(_require(opts, "fn", str), a, xs, buf)
    _emit(buf.getvalue(), opts.get("out"))
    return 0


# ----------------------------------------------------------------- parser


def _add_common(p, *names):
    if "ground_truth" in names:
        p.add_argument("-g", "--ground-truth", dest="ground_truth",
                       help="comma-separated ground-truth vector")
    if "point" in names:
        p.add_argument("-u", "--point", dest="point",
                       help="comma-separated point to analyze")
    if "seed" in names:
        p.add_argument("-s", "--seed", dest="seed", type=int)
    if "out" in names:
        p.add_argument("-o", "--out", dest="out", help="output path (default stdout)")
    if "schedule" in names:
        p.add_argument("--schedule", dest="schedule",
                       help="step schedule kind:c[:q], e.g. inv_sqrt_k:0.1")
    if "max_iters" in names:
        p.add_argument("--max-iters", dest="max_iters", type=int)
    if "grid" in names:
        p.add_argument("--xmin", type=float)
        p.add_argument("--xmax", type=float)
        p.add_argument("--ymin", type=float)
        p.add_argument("--ymax", type=float)
        p.add_argument("--nx", type=int)
        p.add_argument("--ny", type=int)
    p.add_argument("--config", help="JSON file with defaults for any flag")


def build_parser() -> _Parser:
    parser = _Parser(prog="l1landscape",
                     description="Landscape toolkit for the l1 rank-one "
                                 "factorization objective")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("certify", help="run both stationarity certifiers "
                                            "and the point classifier")
    _add_common(p, "point", "ground_truth", "out")
    p.set_defaults(func=cmd_certify)

    p = commands.add_parser("flow", help="negative subgradient field as SVG")
    _add_common(p, "ground_truth", "out", "grid")
    p.set_defaults(func=cmd_flow)

    p = commands.add_parser("descend", help="one subgradient run as CSV")
    _add_common(p, "ground_truth", "seed", "out", "schedule", "max_iters")
    p.add_argument("-u0", "--u0", dest="u0",
                   help="start point, comma-separated or 'random'")
    p.add_argument("--stop-tol", dest="stop_tol", type=float)
    p.set_defaults(func=cmd_descend)

    p = commands.add_parser("conjecture", help="Monte Carlo convergence probe")
    _add_common(p, "ground_truth", "seed", "out", "schedule", "max_iters")
    p.add_argument("--trials", dest="trials", type=int)
    p.add_argument("--tau-succ", dest="tau_succ", type=float)
    p.add_argument("--tau-trap", dest="tau_trap", type=float)
    p.set_defaults(func=cmd_conjecture)

    p = commands.add_parser("gaussian-sep", help="Monte Carlo distance of a "
                                                 "Gaussian ground truth to the spurious hyperplane")
    _add_common(p, "seed", "out")
    p.add_argument("-n", dest="n", type=int)
    p.add_argument("-t", "--trials", dest="trials", type=int)
    p.set_defaults(func=cmd_gaussian_sep)

    p = commands.add_parser("growth-check", help="sample the sharp growth "
                                                 "inequality near the ground truth")
    _add_common(p, "ground_truth", "seed", "out")
    p.add_argument("--radius", dest="radius", type=float)
    p.add_argument("--samples", dest="samples", type=int)
    p.set_defaults(func=cmd_growth_check)

    p = commands.add_parser("landscape", help="batch certify over a grid, CSV")
    _add_common(p, "ground_truth", "out", "grid")
    p.set_defaults(func=cmd_landscape)

    p = commands.add_parser("tilt", help="tilt counterexample experiments")
    tilt_sub = p.add_subparsers(dest="tilt_command", required=True)

    q = tilt_sub.add_parser("ex41-probe", help="gradient descent on the tilted "
                                               "plateau function")
    _add_common(q, "out", "schedule", "max_iters")
    q.add_argument("-a", dest="a", help="tilt size")
    q.add_argument("--x0", dest="x0", type=float)
    q.add_argument("--threshold", dest="threshold", type=float)
    q.set_defaults(func=cmd_tilt_ex41_probe)

    q = tilt_sub.add_parser("ex42-certify", help="sharp-local-min certificate "
                                                 "for the sawtooth function")
    _add_common(q, "out")
    q.add_argument("-x", dest="x", help="candidate point")
    q.add_argument("-a", dest="a", help="tilt size")
    q.set_defaults(func=cmd_tilt_ex42_certify)

    q = tilt_sub.add_parser("f-certify", help="sharp-local-min certificate for "
                                              "the tilted matrix objective")
    _add_common(q, "ground_truth", "point", "out")
    q.add_argument("-a", dest="a", help="comma-separated tilt vector")
    q.set_defaults(func=cmd_tilt_f_certify)

    q = tilt_sub.add_parser("samples", help="CSV samples of g and its tilt")
    _add_common(q, "out")
    q.add_argument("--fn", dest="fn", choices=list(SCALAR_FNS))
    q.add_argument("-a", dest="a", help="tilt size")
    q.add_argument("--xmin", type=float)
    q.add_argument("--xmax", type=float)
    q.add_argument("--num", dest="num", type=int)
    q.set_defaults(func=cmd_tilt_samples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_options(args))
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
