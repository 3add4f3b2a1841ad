import argparse
import hashlib
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from l1landscape import cli, lpcore
from l1landscape.cli import build_parser, main, parse_schedule, parse_vector
from l1landscape.dynamics import GEOMETRIC, INV_SQRT_K


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_parse_vector():
    np.testing.assert_array_equal(parse_vector("-1,1"), [-1.0, 1.0])
    np.testing.assert_array_equal(parse_vector([1, 2]), [1.0, 2.0])
    with pytest.raises(ValueError):
        parse_vector("1,two")


def test_parse_schedule():
    s = parse_schedule("inv-sqrt-k:0.1")
    assert s.kind == INV_SQRT_K and s.c == 0.1
    s = parse_schedule("geometric:1.0:0.5")
    assert s.kind == GEOMETRIC and s.q == 0.5
    with pytest.raises(ValueError):
        parse_schedule("linear:1.0")
    with pytest.raises(ValueError):
        parse_schedule("inv_k")


def test_certify_spurious_point(capsys):
    code, payload = run_json(capsys, "certify", "-u", "-1,1", "-g", "1,1")
    assert code == 0
    assert payload["closed_form"]["kind"] == "spurious"
    assert payload["lp"]["kind"] == "spurious"
    assert payload["certifiers_agree"] is True
    cls = payload["classification"]
    assert cls["kind"] == "spurious_stationary"
    assert cls["curvature"] == pytest.approx(-4.0, abs=1e-9)
    assert cls["escape_direction"] == pytest.approx([2.0, 0.0])


def test_certify_origin_with_a_tiny_ground_truth_coordinate(capsys):
    # ustar_2^2 = 6.25e-10 lies in the EPS_ZERO band; the closed-form curvature
    # keeps that diagonal term with its exact sign, so it reads -||ustar||_1^2
    code, out, err = run_cli(capsys, "certify", "-u", "0,0", "-g", "1,2.5e-5")
    assert "disagrees" not in err
    assert code == 0
    assert json.loads(out)["classification"]["kind"] == "spurious_stationary"


def test_certify_ground_truth(capsys):
    code, payload = run_json(capsys, "certify", "-u", "1,1", "-g", "1,1")
    assert code == 0
    assert payload["classification"]["kind"] == "global_min"
    assert payload["closed_form"]["kind"] == "ground_truth_plus"


def test_certify_non_stationary_point(capsys):
    code, payload = run_json(capsys, "certify", "-u", "0.5,0.2", "-g", "1,1")
    assert code == 0
    assert payload["classification"]["kind"] == "not_stationary"
    assert payload["classification"]["descent_direction"] is not None


def test_certify_writes_output_file(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code, stdout, _ = run_cli(capsys, "certify", "-u", "1,1", "-g", "1,1",
                              "-o", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["certifiers_agree"] is True


def test_certify_rejects_malformed_vector(capsys):
    code, _, err = run_cli(capsys, "certify", "-u", "abc", "-g", "1,1")
    assert code == 1
    assert "error" in err


EPS_COMMANDS = ("certify -u 0.5,0.2 -g 1,1", "landscape -g 1,1 --nx 3 --ny 3")


@pytest.mark.parametrize("command,tolerance", [
    *(pytest.param(command, "--eps-lp=-1", id=command) for command in EPS_COMMANDS),
    *((command, f"{flag}={value}") for command in EPS_COMMANDS
      for flag in ("--eps-lp", "--eps-zero") for value in ("nan", "inf", "1e-3")),
    *((command, f"config:{key}") for command in EPS_COMMANDS
      for key in ("eps_zero", "eps_lp")),
])
def test_nonpositive_eps_lp_exits_one(tmp_path, capsys, command, tolerance):
    """The tolerances are library constants: certify and landscape take no
    --eps-zero or --eps-lp flag and no eps_zero or eps_lp config key, at any
    value, and exit 1 with nothing on stdout."""
    argv = command.split()
    if tolerance.startswith("config:"):
        key = tolerance.partition(":")[2]
        cfg = tmp_path / "eps.json"
        cfg.write_text(json.dumps({key: 1e-3}))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert err == f"error: unknown parameter {key.replace('_', '-')!r}\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + [tolerance])
        code = exc.value.code
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {tolerance}" in err
    assert code == 1
    assert out == ""


def test_flow_svg_arrow_count(tmp_path, capsys):
    out = tmp_path / "field.svg"
    code, _, _ = run_cli(capsys, "flow", "-g", "1,1", "-o", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count('<g class="arrow"') == 441
    assert 'class="polytope"' in svg
    assert svg.count('class="gt"') == 2


def test_flow_degenerate_grid(capsys):
    code, out, _ = run_cli(capsys, "flow", "-g", "1,1", "--nx", "1", "--ny", "1",
                           "--xmin", "-0.5", "--xmax", "0.5",
                           "--ymin", "-0.5", "--ymax", "0.5")
    assert code == 0
    assert out.count('<g class="arrow"') == 1


def test_flow_requires_two_dimensions(capsys):
    code, _, _ = run_cli(capsys, "flow", "-g", "1,1,1")
    assert code == 1


def test_descend_csv_header_and_reproducibility(capsys):
    code, first, _ = run_cli(capsys, "descend", "-g", "1,1", "-u0", "random",
                             "-s", "3", "--max-iters", "50")
    assert code == 0
    assert first.splitlines()[0] == "iter,u_1,u_2,f,dist_gt,dist_spurious,step"
    _, second, _ = run_cli(capsys, "descend", "-g", "1,1", "-u0", "random",
                           "-s", "3", "--max-iters", "50")
    assert first == second
    _, third, _ = run_cli(capsys, "descend", "-g", "1,1", "-u0", "random",
                          "-s", "4", "--max-iters", "50")
    assert first != third


def test_descend_explicit_start(capsys):
    code, out, _ = run_cli(capsys, "descend", "-g", "1,1", "-u0", "1,1")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_descend_memory_follows_the_run_not_max_iters(capsys):
    # the start is the ground truth, so the run is one row; a buffer of
    # max_iters + 1 rows would not fit in memory
    code, out, _ = run_cli(capsys, "descend", "-g", "1,1", "-u0", "1,1",
                           "--max-iters", "1000000000")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_conjecture_report_counts(capsys):
    code, payload = run_json(capsys, "conjecture", "-g", "1,1", "--trials", "20",
                             "--max-iters", "200", "-s", "11",
                             "--schedule", "inv_k:0.5")
    assert code == 0
    assert payload["trials"] == 20
    total = payload["successes"] + payload["trapped"] + payload["undecided"]
    assert total == 20
    assert payload["schedule"]["kind"] == "inv_k"
    assert payload["schedule"]["c"] == 0.5
    assert len(payload["final_points"]) == 20


def test_gaussian_sep_output(capsys):
    code, payload = run_json(capsys, "gaussian-sep", "-n", "16", "-t", "20000",
                             "-s", "7")
    assert code == 0
    assert payload["n"] == 16
    assert payload["expected"] == pytest.approx(3.1915, abs=1e-4)
    assert abs(payload["mean"] - payload["expected"]) <= 4.0 * payload["stderr"]


def test_growth_check_output(capsys):
    code, payload = run_json(capsys, "growth-check", "-g", "1,1",
                             "--radius", "0.05", "--samples", "500")
    assert code == 0
    assert payload["violations"] == 0
    assert payload["beta"] == 0.5


def test_landscape_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "landscape", "-g", "1,1", "--nx", "5", "--ny", "5")
    assert code == 0
    lines = out.strip().split("\n")
    header = "x,y,stationary_closed_form,kind_closed_form,stationary_lp,kind_lp,agree"
    assert lines[0].strip() == header
    assert len(lines) == 26
    assert all(line.strip().endswith(",true") for line in lines[1:])


def test_landscape_requires_a_two_vector_ground_truth(capsys):
    code, out, err = run_cli(capsys, "landscape", "-g", "1,1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: landscape sweeps a 2-d grid")


def test_landscape_counts_disagreements_and_exits_two(capsys, monkeypatch):
    calls = []
    lp_certifier = cli.is_stationary_lp

    def one_flipped(*args, **kwargs):
        verdict = lp_certifier(*args, **kwargs)
        calls.append(verdict)
        return replace(verdict, kind="flipped") if len(calls) == 5 else verdict

    monkeypatch.setattr(cli, "is_stationary_lp", one_flipped)
    code, out, err = run_cli(capsys, "landscape", "-g", "1,1", "--nx", "3", "--ny", "3")
    assert code == 2
    assert len(calls) == 9
    assert [line.endswith(",false") for line in out.split()[1:]].count(True) == 1
    assert err == "1 grid points with certifier disagreement\n"


def test_numerical_failure_exits_three(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    # recompute the kept basis inverse after every basis change, so the
    # epigraph LP meets the failing np.linalg.inv at its first one
    monkeypatch.setattr(lpcore.np.linalg, "inv", singular)
    monkeypatch.setattr(lpcore, "_REFACTOR_EVERY", 1)
    code, out, err = run_cli(capsys, "certify", "-u", "-1,1", "-g", "1,1")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "singular basis" in err


def test_tilt_probe_escapes(capsys):
    code, payload = run_json(capsys, "tilt", "ex41-probe", "-a", "0.01")
    assert code == 0
    assert payload["escaped"] is True
    assert payload["final_x"] > 1e3


def test_tilt_ex42_certificate(capsys):
    code, payload = run_json(capsys, "tilt", "ex42-certify", "-x", "3", "-a", "0.45")
    assert code == 0
    assert payload["certified"] is True
    assert payload["modulus"] == 0.45


def test_tilt_f_certificate(capsys):
    code, payload = run_json(capsys, "tilt", "f-certify", "-a", "-1,1")
    assert code == 0
    assert payload["certified"] is True
    assert payload["modulus"] == pytest.approx(1.0, abs=1e-12)


def test_tilt_f_certificate_away_from_the_corner(capsys):
    code, payload = run_json(capsys, "tilt", "f-certify", "-g", "2,1", "-u", "-2,1",
                             "-a", "-1,2")
    assert code == 0
    assert (payload["certified"], payload["modulus"]) == (True, 1.0)
    # at u0 = ustar an off-diagonal free pair couples the two coordinates
    code, out, err = run_cli(capsys, "tilt", "f-certify", "-u", "1,1", "-g", "1,1",
                             "-a", "0,0")
    assert code == 1
    assert out == ""
    assert err == "error: df(u0) is not a coordinate box: a free pair couples two coordinates\n"


@pytest.mark.parametrize("point,ground_truth", [
    ("1e13,1", "1,1"),
    ("3e13,-1e13,2e13", "4e13,2e13,-1e13"),
])
def test_certify_far_from_the_origin(capsys, point, ground_truth):
    """Large points inside core.MAX_ENTRY: the LP's rows are met to EPS_LP
    relative to the size of their terms, not to an absolute EPS_LP."""
    code, payload = run_json(capsys, "certify", "-u", point, "-g", ground_truth)
    assert code == 0
    assert payload["certifiers_agree"] is True
    assert payload["classification"]["kind"] == "not_stationary"


def test_tilt_samples_csv(capsys):
    code, out, _ = run_cli(capsys, "tilt", "samples", "-a", "0.45",
                           "--xmin", "-1", "--xmax", "1", "--num", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].strip() == "x,g,h_a"
    assert len(lines) == 6


def test_tilt_requires_tilt_value(capsys):
    code, _, err = run_cli(capsys, "tilt", "f-certify")
    assert code == 1
    assert "missing required parameter" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"trials": 7, "seed": 9, "max_iters": 50}))
    code, payload = run_json(capsys, "conjecture", "-g", "1,1",
                             "--config", str(cfg), "-s", "3")
    assert code == 0
    assert payload["trials"] == 7
    assert payload["max_iters"] == 50
    assert payload["seed"] == 3


@pytest.mark.parametrize("command,config,name", [
    ("conjecture -g 1,1", {"max_iter": 5}, "max-iter"),
    ("certify -u 1,1 -g 1,1", {"nx": 3, "seed": 1}, "nx"),
])
def test_config_key_without_an_option_exits_one(tmp_path, capsys, command, config, name):
    # a typo or another subcommand's key is not silently ignored
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *command.split(), "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"error: unknown parameter {name!r}\n"


@pytest.mark.parametrize("config,key", [({"trials": [1]}, "trials"),
                                        ({"seed": "abc"}, "seed"),
                                        ({"schedule": 0.1}, "schedule")])
def test_config_value_of_the_wrong_type_exits_one(tmp_path, capsys, config, key):
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "conjecture", "-g", "1,1", "--max-iters", "5",
                             "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err


def test_config_null_is_unset(tmp_path, capsys):
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"seed": None, "trials": None, "max_iters": 5}))
    code, payload = run_json(capsys, "conjecture", "-g", "1,1", "--config", str(cfg))
    assert code == 0
    _, default = run_json(capsys, "conjecture", "-g", "1,1", "--max-iters", "5")
    assert payload == default
    assert (payload["seed"], payload["trials"]) == (0, 200)
    # a null does not satisfy a required key either
    cfg.write_text(json.dumps({"ground_truth": None}))
    code, _, err = run_cli(capsys, "conjecture", "--config", str(cfg))
    assert code == 1
    assert "missing required parameter 'ground-truth'" in err


@pytest.mark.parametrize("command,message", [
    ("growth-check -g 1,1 --samples -3", "samples must be nonnegative"),
    ("conjecture -g 1,1 --trials 2 --max-iters -4", "max_iters must be nonnegative"),
    ("growth-check -g 1,1 --radius nan", "radius must be positive"),
    ("growth-check -g 1,1 --radius inf", "radius must be positive"),
    ("descend -g 1,1 --schedule inv_sqrt_k:inf", "c must be positive"),
    # 2 * radius overflows in the sampler; the samples pass core.MAX_ENTRY
    ("growth-check -g 1,1 --radius 1e308 --samples 2", "2 * radius finite"),
    ("growth-check -g 1,1 --radius 8e307 --samples 2", "radius too large"),
    ("flow -g 1,1 --xmax inf", "grid bounds and spans must be finite"),
    ("flow -g 1,1 --xmin -1e308 --xmax 1e308 --nx 3 --ny 3", "spans must be finite"),
    # finite bounds and spans, but bounds beyond core.MAX_ENTRY
    ("flow -g 1,1 --xmin -8e307 --xmax 8e307 --nx 2 --ny 2",
     "grid bounds and spans must be finite, with bounds at most 1e+100"),
    ("landscape -g 1,1 --xmin -1e308 --xmax 1e308 --nx 3 --ny 3", "spans must be finite"),
    # finite entries whose products overflow u u^T; the suite's warnings
    # filter turns numpy's overflow warning into a failure
    ("landscape -g 1,1 --xmin -8e307 --xmax 8e307 --nx 2 --ny 2", "at most 1e+100 in magnitude"),
    ("flow -g 1,1 --xmin -1e200 --xmax 1e200 --nx 3 --ny 3", "at most 1e+100 in magnitude"),
    ("certify -u 1e200,1 -g 1,1", "vector entries must be finite and at most 1e+100"),
    ("conjecture -g 1,1 --tau-succ nan --trials 2 --max-iters 2", "tau_succ must not be NaN"),
    ("descend -g 1,1 -u0 1,2 --stop-tol nan", "stop_tol must not be NaN"),
    ("tilt ex41-probe -a 1 --threshold nan", "threshold must not be NaN"),
    ("tilt ex41-probe -a nan", "a must not be NaN"),
    ("tilt ex41-probe -a inf --max-iters 5", "a must be finite"),
    ("tilt ex41-probe -a 1 --x0 inf --max-iters 5", "x0 must be finite"),
    # strict JSON has no inf, so the report could not echo an infinite threshold
    ("tilt ex41-probe -a 1 --threshold inf --max-iters 5", "threshold must be finite"),
    ("tilt ex41-probe -a 1 --max-iters -1", "max_iters must be nonnegative"),
])
def test_negative_counts_exit_one(capsys, command, message):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("line,name", [
    ("tilt samples -a 1e308 --xmin -10 --xmax 10 --num 3", "a"),
    ("tilt samples -a 0.45 --xmin -1e308 --xmax 1e308 --num 3", "xmin"),
    ("tilt samples -a 0.45 --xmin -1 --xmax 1e101 --num 3", "xmax"),
])
def test_tilt_samples_refuses_values_past_the_entry_bound(capsys, line, name):
    # finite values whose product a * x, or linspace span, overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *line.split())
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 1
    assert out == ""
    assert err == f"error: {name} must be finite and at most 1e+100 in magnitude\n"


def test_tilt_samples_at_the_entry_bound(capsys):
    code, out, _ = run_cli(capsys, *"tilt samples -a 1e100 --xmin -1e100 --xmax 1e100 "
                                     "--num 5".split())
    assert code == 0
    cells = np.array([row.split(",") for row in out.splitlines()[1:]], dtype=float)
    assert cells.shape == (5, 3)
    assert np.isfinite(cells).all()


@pytest.mark.parametrize("line", ["growth-check -g 1,1", "conjecture -g 1,1",
                                  "descend -g 1,1", "gaussian-sep -n 4"])
def test_negative_seed_exits_one_by_name(capsys, line):
    code, out, err = run_cli(capsys, *line.split(), "-s", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be a nonnegative integer\n"


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


GRID_31 = " --xmin -2.5 --xmax 2.5 --ymin -2.5 --ymax 2.5 --nx 31 --ny 31"
FALLBACK = ("-u -0.7278215444386658,0.344234196431766,-0.30043137049255364 "
            "-g -0.7278215444386658,-1.2948348672230032,0.30043137049255364")
GOLDEN = [  # (command line, exit code, sha256 of stdout)
    ("certify -u -1,1 -g 1,1", 0,
     "326574530334d4142fa6df6f025969a487b4594ba06e7d3a19219fc06f9bb1bb"),
    ("certify -u 1,1 -g 1,1", 0,
     "ef0c5fa7511cde46f4b6d8d57aec7c3eb3a8d0d70e17556af1cf633afeb3a1bc"),
    ("certify -u 0.5,0.2 -g 1,1", 0,
     "0ac9eda83327b230f38a0d9b72b6e405fbffae0b367c27c32cecf24c6631f255"),
    ("certify -u 0,0 -g 1,1", 0,
     "0bd303155e84d45003f289ffeb5b504a00d25f77440c1ba4c3e13876e13132ee"),
    # -midpoint does not descend here, so the descent direction is -w/||w||_2
    # from the min-norm solve's duals, the l1-steepest direction e_3
    ("certify " + FALLBACK, 0,
     "23be5319a9265dba85b4e7c6e3c657504c751cdfe92952f2d66931efc632eb55"),
    ("certify -u 0,0 -g 0,0", 0,
     "481504c76f81e5f4bc97ca72687a45cc9935c49c5b7ffd533c8a2ab1c82dbf59"),
    ("certify -u 0.3,-0.2 -g 0,0", 0,
     "d2f4e2c9e5be95edfd19ad5fc3a3a0e67afc4e2cc6ccc61cde9a70f7c1ffd5d7"),
    ("certify -u 2e-6,0 -g 1e-6,1e-6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("landscape -g 1,1" + GRID_31, 0,
     "b435ce52190d18f89e6633cc829a86ff75d2c5ef9ceea6c432324eb0d202f839"),
    ("landscape -g 2,0.5" + GRID_31, 0,
     "6129889f4997d6a894d25e941aca84fa9d98ac5b9839dfd67e7203d01296eeba"),
    ("flow -g 1,1" + GRID_31, 0,
     "880503ea89bcfc6af7c4363151859fc8c90ad60517f42c9e72e6028078e78323"),
    ("flow -g 2,0.5" + GRID_31, 0,
     "e74643bb92b2305327398acef310aceb6d383d8e17f704100a6d2bc7d80b27cc"),
    ("descend -g 1,1 -s 3 --max-iters 300", 0,
     "897c5a0bd3d9ec2e41d06c3ba75147218b7736adb65f8fd04930bf5aa20c300b"),
    ("descend -g 2,0.5,-1 -s 5 --max-iters 300 --stop-tol 0", 0,
     "22886cf1aaad73ac84b1a135e26a09820d4d9939cdeec988a0415560e2bdf0a5"),
    ("conjecture -g 1,1 --trials 20 --max-iters 500 -s 0", 0,
     "041ac2b4892319deda9b0d53d45b989c3c1750ee822b4a34852ed5805297de98"),
    ("growth-check -g 1,1 --samples 200 -s 0", 0,
     "5df282fe9df6737a83d26a9210c8b84d26f8c3373ea1e3bba1862f20acc163ea"),
    ("gaussian-sep -n 16 -t 2000 -s 7", 0,
     "e0b5c86dc051f51e9cca05f8b2929e6c34cc783e76ed729a4cc7a225eed550bb"),
    ("tilt ex41-probe -a 0.01", 0,
     "08b3d93993ef0d3c9bad3abcfb77c859a4d73d17627fb1df7cb87df2177a97a5"),
    ("tilt ex42-certify -x 3 -a 0.45", 0,
     "f3391ad57360d8317163a1f76e37990273050ac3402d700a57cf0d4d460f3b67"),
    ("tilt f-certify -a -1,1", 0,
     "edb812b4f9b3079eda9df11b78dd872fc12bade432a9569b6c1539d689efeb2b"),
    ("tilt samples -a 0.45 --xmin -1 --xmax 1 --num 5", 0,
     "cebc6b903db4ac1e657dadfc4d917c7eece227dbb3fa0ff14240586f8a9f4fd3"),
]


@pytest.mark.parametrize("line,code,digest", GOLDEN, ids=[g[0].partition(" --")[0] for g in GOLDEN])
def test_golden_output(capsys, line, code, digest):
    """stdout and exit code match outputs recorded with numpy 2.4.6, byte for byte.

    certify at u = (2e-6, 0), ustar = (1e-6, 1e-6) pins a known defect as it
    stands: the absolute zero tolerance makes the closed form say not_stationary
    and the LP say spurious, no descent direction is found, and it exits 2.
    """
    got, out, _ = run_cli(capsys, *line.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _leaf_commands(parser, prefix=""):
    """Every runnable subcommand path, e.g. "certify" or "tilt samples"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + name + " ")
            return
    yield prefix.strip()


def _option_strings(parser):
    """Every option string of the parser and of all its subcommands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_unknown_flags(text):
    """The --flags that an inline code span of text starts with and that no
    subcommand has."""
    named = set(re.findall(r"`(--[a-z][a-z0-9-]*)", text))
    return sorted(named - _option_strings(build_parser()))


def test_readme_command_lines_parse_and_its_flags_exist():
    text = README.read_text()
    lines = [line.split() for line in text.splitlines()
             if line.strip().startswith("l1landscape ")]
    assert len(lines) >= 11
    for argv in lines:
        build_parser().parse_args(argv[1:])   # a usage error exits 1
    assert readme_unknown_flags(text) == []
    assert readme_unknown_flags("`--config f.json` or `--eps-zero`") == ["--eps-zero"]


def test_every_subcommand_has_a_golden_line():
    leaves = list(_leaf_commands(build_parser()))
    assert len(leaves) == 11
    pinned = {line for line, _, _ in GOLDEN}
    missing = [leaf for leaf in leaves
               if not any(line.startswith(leaf + " ") for line in pinned)]
    assert missing == []


# Scalar options a subcommand parses from a string itself, not through argparse.
STRING_FLOATS = {"tilt ex41-probe": {"-a"}, "tilt ex42-certify": {"-a", "-x"},
                 "tilt samples": {"-a"}}
# The name an error gives an option where it is not the option's dest.
NAMED_AS = {"x": "x0", **dict.fromkeys(("xmin", "xmax", "ymin", "ymax"), "grid bounds")}


def _leaf_parser(parser, leaf):
    for name in leaf.split():
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return parser


def _non_finite_cases():
    """(golden line + one float option set to inf, -inf or nan, the option's dest)."""
    leaves = sorted(_leaf_commands(build_parser()), key=len, reverse=True)
    for line, _, _ in GOLDEN:
        leaf = next(leaf for leaf in leaves if line.startswith(leaf + " "))
        for action in _leaf_parser(build_parser(), leaf)._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if action.type is float or flag in STRING_FLOATS.get(leaf, ()):
                for value in ("inf", "-inf", "nan"):
                    yield pytest.param(f"{line} {flag}={value}", action.dest,
                                       id=f"{leaf} {flag}={value}")


@pytest.mark.parametrize("line,dest", _non_finite_cases())
def test_non_finite_float_options(capsys, line, dest):
    """A non-finite float option either runs to a finite result or exits 1
    with one error line that names it; it never reaches a consistency or LP
    exit, and no numpy RuntimeWarning is emitted on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *line.split())
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        names = {dest, NAMED_AS.get(dest, dest)}
        assert any(re.search(rf"\b{name}\b", err) for name in names)
    else:
        assert re.search(r"(?i)\b(nan|inf|infinity)\b", out) is None
