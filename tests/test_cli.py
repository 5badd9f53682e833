import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynamohull
from dynamohull import cli
from dynamohull.cli import main
from _helpers import MIXING_GAP_POINT, OFF_MIXING_SPLIT, active_cpu_features, cli_output_digests

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


def test_decompose_exits_1_on_a_mixing_orthogonality_failure(tmp_path, capsys, monkeypatch):
    # decompose's own split keeps u . (dB x du) = 0 by construction, so the
    # split it once gave for this point, off mixing orthogonality, stands in:
    # the command reports the failing residual and exits 1.
    monkeypatch.setattr(cli, "decompose", lambda z, p, kind, tol: OFF_MIXING_SPLIT)
    path = tmp_path / "triple.json"
    path.write_text(MIXING_GAP_POINT.to_json())
    assert main(["decompose", "--kind", "stationary-incompressible", "--input", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["residuals"]["mixing_orthogonality"] > 1e-9


def test_verify_hull_rejects_bad_radius(capsys):
    assert main(["verify-hull", "--r", "0"]) == 2
    assert main(["verify-hull", "--r", "-1"]) == 2


def test_verify_hull_rejects_a_negative_seed(capsys):
    assert main(["verify-hull", "--seed", "-1", "--count", "10"]) == 2
    assert "error: seed must be a nonnegative integer, got -1" in capsys.readouterr().err


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
    # Two points in_hull accepts whose splits fail reconstruction.  The first
    # passes the g1 test through its absolute floor, but B is parallel to the
    # excess E - B x u = (1e-5, 0, 0), so the split, across B, drops it.  The
    # second has u . E at 0.9 eps_mem of g3's bound, and the split, along
    # B x u, drops the excess's part along u.
    for kind, point in (
            ("nonstationary", '{"B": [1e-5, 0, 0], "u": [0, 0.5, 0], "E": [1e-5, 0, 5e-6]}'),
            ("stationary-incompressible", MIXING_GAP_POINT.to_json())):
        code = run(["decompose", "--kind", kind], stdin=point, monkeypatch=monkeypatch)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert [name for name, v in payload["residuals"].items() if v > 1e-9] == ["reconstruction"]
        assert "error" not in payload


@pytest.mark.parametrize("kind", ["nonstationary", "stationary-incompressible"])
def test_decompose_a_member_a_hair_inside_the_amplitude_face_exits_zero(kind, tmp_path, capsys):
    # |B| = r (1 - 1e-12) at r = s = 1 and an excess within its cap: a member
    # of the set, 1e-12 inside the face |B| = r, that decompose splits.
    path = tmp_path / "triple.json"
    path.write_text('{"B": [0.999999999999, 0.0, 0.0], "u": [0.0, 0.5, 0.0], '
                    '"E": [0.0, 0.0, 0.5000006123651624]}')
    assert main(["decompose", "--kind", kind, "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["lambda"] <= 0.5


def test_decompose_parse_failure_exits_two(capsys, monkeypatch):
    assert run(["decompose"], stdin="{not json", monkeypatch=monkeypatch) == 2
    assert run(["decompose"], stdin='{"B": [1, 0, 0]}', monkeypatch=monkeypatch) == 2


# A component of 401 digits: valid JSON, but too large for a float.
TOO_LARGE_POINT = '{"B": [1%s, 0, 0], "u": [0, 1, 0], "E": [0, 0, 0]}' % ("0" * 400)


@pytest.mark.parametrize("command", ["decompose", "wavecone"])
def test_a_number_too_large_for_a_float_exits_two(command, capsys, monkeypatch):
    assert run([command], stdin=TOO_LARGE_POINT, monkeypatch=monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Vec3 component x is too large for a float\n"


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def test_non_finite_values_are_written_as_null(capsys, monkeypatch):
    # Finite inputs whose products overflow: the witness value g2 and the
    # cone value g1 are inf, written as null, which json.loads reads without
    # the parse_constant hook, the one path of NaN, Infinity and -Infinity.
    point = '{"B": [1e300, 0, 0], "u": [0, 1e300, 0], "E": [%s, 0, %s]}'
    assert run(["decompose"], stdin=point % (0, 1e300), monkeypatch=monkeypatch) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["witness"] == {"function": "g2", "value": None}
    assert payload["message"] == "point outside the relaxed set (witness g2 = inf)"
    assert run(["wavecone"], stdin=point % (1e300, 0), monkeypatch=monkeypatch) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["g1"] is None and payload["verdict"] == "not-in-cone"


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
# pinned with numpy 2.4.6; they do not depend on the CPU, as
# test_seeded_outputs_do_not_depend_on_simd_dispatch checks.  A change to the sample stream,
# a verdict or a residual changes the digest; the determinism criterion
# only compares a rerun with itself and cannot see such a change.
GOLDEN_DIGESTS = {
    "nonstationary": "024d15f6284727e7778a7bdd214ee10733543a6620d9e6a683bd7e28ae283692",
    "stationary-incompressible":
        "d9fad5324b2ea63dd66887a35340c15aa437524d58b665d5cad4b6da53f74968",
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


# sha256 of `residual --n <n> --kind <kind> --deterministic`, pinned with numpy
# 2.4.6, independent of the CPU.  The bytes carry the wave vector
# wave_vector_for and round_to_lattice give each CLI direction and every
# level's grid residuals, so a change in the rounding of either moves a digest.
RESIDUAL_DIGESTS = {
    ("nonstationary", 32): "03459b15fa3aa1a716c80cc59a78039e43624c08e9a1e0becfb1903d3e384064",
    ("nonstationary-incompressible", 32):
        "ab7ea84eb1d557518474fd65547c1103fa9aada5a45ed460e2f2cd3fbe2e4edf",
    ("stationary", 32): "0d5749dc76bbb273b51239383181778b4df0204fb2c6023a31dea3efd5bb6751",
    ("stationary-incompressible", 32):
        "4e5ca9293fa78a82e73516add1376e45e49436aaba7e7e82f1f11d6fc4ad0423",
    ("nonstationary", 64): "4f46e0b39c4905fabf29b71ac64b7f6eda207bf3949d3c6ff839ec2274b144e8",
    ("nonstationary-incompressible", 64):
        "99ff4cdb2acb02657a51d1faca75cf6c55a8d080936dd8a70b089b3404283db1",
    ("stationary", 64): "fdeabc733c66f655b82881c09cc28c95f4f6a5c293805ad3a386ebb684a48aee",
    ("stationary-incompressible", 64):
        "1dfee5cb12d035de5815807e08756a227c8d28227f61d409b1ebad44a68690e6",
}


@pytest.mark.parametrize("kind,n", sorted(RESIDUAL_DIGESTS))
def test_residual_golden_digest(kind, n, capsys):
    assert main(["residual", "--n", str(n), "--kind", kind, "--deterministic"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == RESIDUAL_DIGESTS[(kind, n)]


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


def test_tol_flag_takes_any_positive_slack(capsys, monkeypatch):
    # The decomposition takes no tolerance, so no slack is too small for it.
    assert run(["decompose", "--tol", "1e-14"], stdin=K_POINT, monkeypatch=monkeypatch) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


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


# sha256 of `sample --seed 0 --count 2000 --deterministic`, pinned with numpy
# 2.4.6, independent of the CPU.  The samplers draw nothing from the
# decomposition solver, so these digests guard the sample streams and the
# CSV/JSON rows while solver changes move the verify-hull digests above.
SAMPLE_DIGESTS = {
    ("laminate", "nonstationary", "csv"):
        "48c0633c04a623a7d0d1f898bf4e7d132c6b7de6fa2cdb551c91dbe4b0f4c3dd",
    ("hull", "nonstationary", "csv"):
        "068b0d91fad32acbf500c25bcbe5046716c16ddbd4164313073a239df0265e6b",
    ("laminate", "stationary-incompressible", "csv"):
        "d4a3c60d5920c171de9497c58044016c9437b32b4553c9242552e89470b83378",
    ("hull", "stationary-incompressible", "csv"):
        "333e3d594f6f44dde946949ad4025ea60ed90c9229e23306fa10f073ae3e7c20",
    ("laminate", "nonstationary", "json"):
        "74360b42b6d6fbe6f6e9648321c59373fdbdb4f1d2363f535bc9999f4d0a4e9f",
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


# Seeded outputs of every command that draws or computes on numpy columns:
# the campaign for each kind, each sampler on both cone families, and the
# residual table for each kind.  Their bits must not depend on the SIMD
# kernels numpy picks for the CPU it runs on.
KINDS = ("nonstationary", "nonstationary-incompressible", "stationary",
         "stationary-incompressible")
DISPATCH_COMMANDS = (
    [["verify-hull", "--seed", "0", "--count", "20000", "--kind", k, "--deterministic"]
     for k in KINDS]
    + [["sample", "--seed", "0", "--count", "2000", "--sampler", sampler, "--kind", k,
        "--deterministic"]
       for sampler in ("constraint", "laminate", "hull")
       for k in ("nonstationary", "stationary-incompressible")]
    + [["residual", "--n", "32", "--kind", k, "--deterministic"] for k in KINDS])
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def test_seeded_outputs_do_not_depend_on_simd_dispatch():
    # The same outputs in a process whose numpy dispatches no AVX-512 kernel.
    # On a host without X86_V4 the default run is already that path (and on
    # one that is not x86 the variable breaks numpy's import).
    if "X86_V4" not in active_cpu_features():
        pytest.skip("numpy dispatches no AVX-512 kernel on this host")
    code = ("import json, sys\n"
            "from _helpers import active_cpu_features, cli_output_digests\n"
            "print(json.dumps(['X86_V4' in active_cpu_features(),\n"
            "                  cli_output_digests(json.loads(sys.argv[1]))]))\n")
    paths = [str(Path(dynamohull.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF,
           "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(DISPATCH_COMMANDS)], env=env,
                          capture_output=True, text=True, check=True)
    avx512, digests = json.loads(proc.stdout)
    assert not avx512
    expected = cli_output_digests(DISPATCH_COMMANDS)
    assert [rc for rc, _ in expected] == [0] * len(DISPATCH_COMMANDS)
    for args, got, want in zip(DISPATCH_COMMANDS, digests, expected):
        assert got == want, " ".join(args)
