import hashlib
import json

import numpy as np
import pytest

from l1landscape.cli import main, parse_schedule, parse_vector
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


@pytest.mark.parametrize("command", ["certify -u 0.5,0.2 -g 1,1",
                                     "landscape -g 1,1 --nx 3 --ny 3"])
def test_nonpositive_eps_lp_exits_one(capsys, command):
    """Points whose LP is presolved still reject eps_lp <= 0."""
    code, _, err = run_cli(capsys, *command.split(), "--eps-lp=-1")
    assert code == 1
    assert "eps_lp must be positive" in err


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
    ("certify " + FALLBACK, 0,
     "9954ea160d9176c256b0f61ba16c46c8fd3978d6c5178110dd4027666f28aa81"),
    ("certify -u 0,0 -g 0,0", 0,
     "aec0bae1d6ec75ca675369283c44c2ffb602d387966dc6eef3563e4e28c0f098"),
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
     "d91cc483e7cef626ceb84c77735b3fe1c3ad1d19ebd989f13d08708e6711b225"),
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
