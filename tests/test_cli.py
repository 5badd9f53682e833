import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynamohull
from dynamohull.cli import main

K_POINT = '{"B": [1, 0, 0], "u": [0, 1, 0], "E": [0, 0, 1]}'


def run(args, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return main(args)


def test_verify_hull_small_campaign(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-hull", "--count", "500", "--seed", "7",
                 "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["failure_count"] == 0
    assert report["seed"] == 7
    assert report["checked"] == 550
    assert report["checked_detail"] == {"laminate": 500, "decompose": 50}


def test_verify_hull_stationary_notes_extra_checks(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-hull", "--count", "400", "--kind",
                 "stationary-incompressible", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["failure_count"] == 0
    assert "max_u_orthogonality" in report
    assert "max_mixing_orthogonality" in report


def test_verify_hull_rejects_bad_radius(capsys):
    assert main(["verify-hull", "--r", "0"]) == 2
    assert main(["verify-hull", "--r", "-1"]) == 2


def test_unknown_command_and_flags():
    assert main(["frobnicate"]) == 2
    assert main(["verify-hull", "--kind", "imaginary"]) == 2
    assert main(["sample", "--format", "xml"]) == 2


def test_decompose_constraint_set_point(capsys, monkeypatch):
    code = run(["decompose"], stdin=K_POINT, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["lambda"] == pytest.approx(0.5)
    assert payload["max_residual"] <= 1e-9


def test_decompose_interior_point_from_file(tmp_path, capsys):
    z = {"B": [0, 0, 0], "u": [0, 0, 0], "E": [0, 0, 0.5]}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(z))
    code = main(["decompose", "--input", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == pytest.approx(0.5)
    assert payload["passed"] is True
    assert set(payload["residuals"]) >= {"reconstruction", "cone_BE"}


def test_decompose_outside_hull_exits_one_with_witness(capsys, monkeypatch):
    z = '{"B": [0, 0, 0], "u": [0, 0, 0], "E": [0, 0, 2]}'
    code = run(["decompose"], stdin=z, monkeypatch=monkeypatch)
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "not-in-hull"
    assert payload["witness"]["function"] == "g2"
    assert payload["witness"]["value"] == pytest.approx(1.0)


def test_decompose_failure_inside_the_hull_exits_one(capsys, monkeypatch):
    # in_hull accepts this point through the absolute floor of the g1 test,
    # but B is parallel to the excess E - B x u = (1e-5, 0, 0), so the
    # working plane of the solver is degenerate.
    z = '{"B": [1e-5, 0, 0], "u": [0, 0.5, 0], "E": [1e-5, 0, 5e-6]}'
    code = run(["decompose"], stdin=z, monkeypatch=monkeypatch)
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "decomposition-failed"
    assert "working plane degenerate" in payload["message"]
    assert "witness" not in payload


def test_decompose_parse_failure_exits_two(capsys, monkeypatch):
    assert run(["decompose"], stdin="{not json", monkeypatch=monkeypatch) == 2
    assert run(["decompose"], stdin='{"B": [1, 0, 0]}', monkeypatch=monkeypatch) == 2


def test_wavecone_verdict(capsys, monkeypatch):
    code = run(["wavecone", "--kind", "stationary-incompressible"],
               stdin=K_POINT, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "in-cone"
    assert payload["g1"] == 0.0
    assert payload["g3"] == 0.0


def test_wavecone_negative_verdict(capsys, monkeypatch):
    z = '{"B": [1, 0, 0], "u": [0, 0, 0], "E": [1, 0, 0]}'
    code = run(["wavecone"], stdin=z, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not-in-cone"


def test_sample_csv(capsys):
    code = main(["sample", "--count", "50", "--format", "csv", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("Bx,By,Bz")
    assert len(lines) == 51
    assert all(line.split(",")[9] == "true" for line in lines[1:])


def test_sample_json_hull_sampler(capsys):
    code = main(["sample", "--count", "20", "--sampler", "hull",
                 "--deterministic"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["samples"]) == 20
    assert all(row["in_hull"] for row in payload["samples"])


def test_sample_deterministic_output_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sample", "--count", "100", "--format", "csv",
                     "--seed", "11", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_hull_deterministic_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify-hull", "--count", "300", "--seed", "5",
                     "--deterministic", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `verify-hull --seed 0 --count 20000 --deterministic` at r = s = 1,
# pinned on Python 3.11.7 with numpy 2.4.6.  A change to the sample stream,
# a verdict or a residual changes the digest; the determinism criterion
# only compares a rerun with itself and cannot see such a change.
GOLDEN_DIGESTS = {
    "nonstationary": "024cb6e27e21e9c2476b70875c0d27899a97e47eff26be7ca408f9e4f420b7fe",
    "stationary-incompressible":
        "27486e1751c6241a27d5779dc756cc2b2c08f580cde1c6231fbb6512c9ab7e88",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_verify_hull_golden_digest(kind, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-hull", "--seed", "0", "--count", "20000", "--kind", kind,
                 "--deterministic", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[kind]


def test_reports_carry_timestamp_unless_deterministic(tmp_path):
    out = tmp_path / "r.json"
    main(["verify-hull", "--count", "50", "--output", str(out)])
    assert "generated_at" in json.loads(out.read_text())
    main(["verify-hull", "--count", "50", "--deterministic", "--output", str(out)])
    assert "generated_at" not in json.loads(out.read_text())


@pytest.mark.parametrize("kind", ["nonstationary", "nonstationary-incompressible",
                                  "stationary", "stationary-incompressible"])
def test_residual_convergence_table(kind, capsys):
    code = main(["residual", "--n", "32", "--kind", kind, "--deterministic"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [8, 16, 32]
    for ratios in payload["ratios"].values():
        assert all(r >= 3.0 for r in ratios if r is not None)


@pytest.mark.parametrize("kind", ["nonstationary", "nonstationary-incompressible",
                                  "stationary", "stationary-incompressible"])
def test_residual_fine_grid_converges_at_second_order(kind, capsys):
    # n = 1024 samples 1024^3 points (times 1024 in t for a time-dependent
    # wave); the stencil runs on the at most n reached phase residues.
    code = main(["residual", "--n", "1024", "--kind", kind, "--deterministic"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [256, 512, 1024]
    for ratios in payload["ratios"].values():
        assert ratios and all(r is not None and 3.9 <= r <= 4.1 for r in ratios)


def test_residual_rejects_bad_grid():
    assert main(["residual", "--n", "10"]) == 2
    assert main(["residual", "--n", "8"]) == 2
    assert main(["residual", "--n", "16"]) == 2


def test_residual_rejects_odd_coarsest_level(capsys):
    # --n 20 is a multiple of 4 but its coarsest level n/4 = 5 is odd: the
    # parser refuses it before any grid is built.
    assert main(["residual", "--n", "20"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--n must be a multiple of 8 and at least 32, got 20" in err


@pytest.mark.parametrize("command, flag", [
    ("verify-hull", "--format"),
    *(("decompose", flag) for flag in ("--seed", "--count", "--format")),
    *((command, flag) for command in ("wavecone", "residual")
      for flag in ("--r", "--s", "--seed", "--count", "--format")),
])
def test_flags_a_subcommand_never_reads_are_rejected(command, flag, capsys):
    assert main([command, flag, "csv" if flag == "--format" else "1"]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("radii", [("1e-100", "1e-100"), ("1e155", "1"), ("1e100", "1e-100")])
@pytest.mark.parametrize("command", ["decompose", "verify-hull", "sample"])
def test_radii_out_of_range_exit_two(command, radii, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(K_POINT))
    assert main([command, "--r", radii[0], "--s", radii[1]]) == 2
    assert "out of range" in capsys.readouterr().err


def test_sampler_choices_validated():
    assert main(["sample", "--sampler", "everything"]) == 2


def test_tol_flag_loosens_membership_slack(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify-hull", "--count", "200", "--tol", "1e-6",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["failure_count"] == 0


def test_tol_flag_rejects_value_below_exact_ohm_threshold():
    # eps_mem must stay above the default exact-Ohm threshold eps_root.
    assert main(["verify-hull", "--count", "10", "--tol", "1e-14"]) == 2


def test_sample_constraint_sampler_csv(capsys):
    code = main(["sample", "--count", "10", "--sampler", "constraint",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 11
    # constraint-set rows: g1 = g3 = 0 and g2 = 0 up to rounding
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[10])) < 1e-14
        assert abs(float(cells[11])) < 1e-12


# sha256 of `sample --seed 0 --count 2000 --deterministic`, pinned on Python
# 3.11.7 with numpy 2.4.6.  The samplers draw nothing from the decomposition
# solver, so these digests guard the sample streams and the CSV/JSON rows
# while solver changes move the verify-hull digests above.
SAMPLE_DIGESTS = {
    ("laminate", "nonstationary", "csv"):
        "140764aeaadc73fe3bdf1d690326b21b150e033bb848fa38bb3747cb7ee98222",
    ("hull", "nonstationary", "csv"):
        "4a22e10299d3e4f9ff738f7bce2e0e35c32157bf1236c51275b3f178973af8b5",
    ("laminate", "stationary-incompressible", "csv"):
        "110719059d406febd26260e94a48debd62d1064552ead46e602edefebcde82c8",
    ("hull", "stationary-incompressible", "csv"):
        "01b087461ded54c4db3eee61f5abd62327c649fe19fb60d794cedd5e7c58fb1d",
    ("laminate", "nonstationary", "json"):
        "98f052f7c8be33a33e0c1e8155bf71661506e9e655909152a83bd0cc9836b13d",
}


@pytest.mark.parametrize("sampler,kind,fmt", sorted(SAMPLE_DIGESTS))
def test_sample_stream_digest(sampler, kind, fmt, tmp_path):
    out = tmp_path / f"samples.{fmt}"
    assert main(["sample", "--seed", "0", "--count", "2000", "--format", fmt,
                 "--sampler", sampler, "--kind", kind, "--deterministic",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_DIGESTS[(sampler, kind, fmt)]


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # main parses with one parser per process; no call leaves a value behind.
    plain = ["verify-hull", "--count", "200", "--deterministic"]
    assert main(plain) == 0
    alone = capsys.readouterr().out
    assert main(["verify-hull", "--count", "200", "--tol", "1e-6", "--seed", "3",
                 "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert main(plain) == 0
    assert capsys.readouterr().out == alone
    # A point outside the hull exits 1 on its own; a refused --n 20 before it
    # changes neither its code nor its report.
    path = tmp_path / "outside.json"
    path.write_text('{"B": [0, 0, 0], "u": [0, 0, 0], "E": [0, 0, 2]}')
    outside = ["decompose", "--input", str(path), "--deterministic"]
    assert main(outside) == 1
    alone = capsys.readouterr().out
    assert main(["residual", "--n", "20"]) == 2
    capsys.readouterr()
    assert main(outside) == 1
    assert capsys.readouterr().out == alone
    assert main(["residual", "--n", "20"]) == 2
    assert main(["residual", "--n", "32", "--deterministic"]) == 0


def test_parser_is_built_on_the_first_main_call_only():
    # Importing the package and its CLI builds no parser; two main calls build one.
    code = ("import os, dynamohull, dynamohull.cli as cli\n"
            "before = cli._parser.cache_info().currsize\n"
            "for _ in range(2):\n"
            "    assert cli.main(['residual', '--n', '32', '--output', os.devnull]) == 0\n"
            "info = cli._parser.cache_info()\n"
            "print(before, info.misses, info.hits)\n")
    src = str(Path(dynamohull.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", "1", "1"]
