"""Command-line front end: verification campaigns, point queries, exports.

Exit codes are a stable contract: 0 success, 1 mathematical failure
(membership violation, failed decomposition, convergence ratio below 3),
2 usage or parse error.  All randomized commands print the effective seed,
and --deterministic suppresses the timestamp so reports are byte-stable.

The per-point commands, decompose and wavecone, import no numpy: the
commands that sample or build grids import oracle or planewave when they run.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

from .core import (
    ConeKind,
    HullParams,
    Tolerances,
    Triple,
    Vec3,
    eval_g1,
    eval_g3,
    in_wave_cone,
)
from .laminate import NotInHullError, decompose, verify_decomposition

USAGE_ERROR = 2
MATH_FAILURE = 1

# Per cone kind, the direction `residual` studies, with small-integer lattice
# frequencies and a genuinely second-order truncation term in every
# equation, and the coefficients (a, c) wave_vector_for takes for it.  On
# the nonstationary cone (0.6, -0.2) lands exactly on the integer frequency
# (1, 1, 3; 1).
_SHARED_DIRECTION = Triple(Vec3(6, -3, -1), Vec3(1, 2, -1), Vec3(1, 2, 0))
_RESIDUAL_WAVES = {
    ConeKind.NONSTATIONARY: (_SHARED_DIRECTION, 0.6, -0.2),
    ConeKind.NONSTATIONARY_INCOMPRESSIBLE: (_SHARED_DIRECTION, 1.0, 1.0),
    ConeKind.STATIONARY: (_SHARED_DIRECTION, 1.0, 1.0),
    ConeKind.STATIONARY_INCOMPRESSIBLE:
        (Triple(Vec3(6, -3, -1), Vec3(2, -1, 3), Vec3(1, 2, 0)), 1.0, 1.0),
}


_FLAGS = {
    "r": dict(type=float, default=1.0, help="magnetic amplitude radius (default 1)"),
    "s": dict(type=float, default=1.0, help="velocity amplitude radius (default 1)"),
    "kind": dict(default="nonstationary", choices=[k.value for k in ConeKind],
                 help="system variant (default nonstationary)"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "count": dict(type=int, default=10_000, help="sample count (default 10000)"),
    "tol": dict(type=float, default=None,
                help="membership slack eps_mem override (default 1e-9)"),
    "output": dict(default=None, help="output path (default stdout)"),
    "format": dict(default="json", choices=["json", "csv"], help="output format (default json)"),
    "deterministic": dict(action="store_true",
                          help="suppress the timestamp so reports are byte-identical"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str):
    """Register the flags of _FLAGS that the subcommand reads: those named, plus
    the four every subcommand reads (--kind, --tol, --output, --deterministic)."""
    wanted = {*names, "kind", "tol", "output", "deterministic"}
    for name, spec in _FLAGS.items():
        if name in wanted:
            parser.add_argument(f"--{name}", **spec)


def _finest_grid(text: str) -> int:
    """The residual subcommand's --n: levels n/4, n/2, n must all be even grids,
    and the coarsest must resolve the residual directions' waves (at n/4 = 4
    the 4 -> 8 ratio is 1.41, so --n 16 would always exit 1)."""
    n = int(text)
    if n < 32 or n % 8 != 0:
        raise argparse.ArgumentTypeError(f"--n must be a multiple of 8 and at least 32, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynamohull",
        description="Verify and export the relaxed set of the ideal-Ohm "
                    "constraint equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-hull", help="two-sided membership/decomposition campaign")
    _add_flags(p, "r", "s", "seed", "count")

    p = sub.add_parser("decompose", help="decompose one triple read as JSON")
    _add_flags(p, "r", "s")
    p.add_argument("--input", default="-", help="triple JSON path, or - for stdin")

    p = sub.add_parser("wavecone", help="cone membership verdict for one triple")
    _add_flags(p)
    p.add_argument("--input", default="-", help="triple JSON path, or - for stdin")

    p = sub.add_parser("sample", help="export sampled triples")
    _add_flags(p, "r", "s", "seed", "count", "format")
    p.add_argument("--sampler", default="laminate",
                   choices=["constraint", "laminate", "hull"],
                   help="which set to sample (default laminate)")

    p = sub.add_parser("residual", help="plane-wave grid residual convergence table")
    _add_flags(p)
    p.add_argument("--n", type=_finest_grid, default=32,
                   help="finest grid points per axis, a multiple of 8 and at least 32; "
                        "levels n/4, n/2, n (default 32)")
    return parser


# main's parser, built on its first call and shared by every later one:
# parse_args keeps no state between calls, and importing the package builds none.
_parser = functools.cache(build_parser)


def _tolerances(args) -> Tolerances:
    if args.tol is None:
        return Tolerances()
    return Tolerances(eps_mem=args.tol)


def _emit_text(args, text: str):
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _null_non_finite(x):
    """x with each non-finite float, at any depth of its dicts, lists and tuples,
    replaced by None: RFC 8259 JSON has no token for them."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _null_non_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_null_non_finite(v) for v in x]
    return x


def _emit_json(args, payload: dict):
    """Write payload as RFC 8259 JSON, each non-finite float as null (a message
    in the payload names such a value)."""
    if not args.deterministic:
        payload = {**payload,
                   "generated_at": datetime.now(timezone.utc).isoformat()}
    text = json.dumps(_null_non_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    _emit_text(args, text + "\n")


def _read_triple(args) -> Triple:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as f:
            text = f.read()
    return Triple.from_json(text)


def _cmd_verify_hull(args) -> int:
    # The campaign calls no BLAS routine, and OpenBLAS's pool of threads,
    # started as numpy is imported, would keep it from forking (oracle._shares).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .oracle import SampleConfig, two_sided_hull_check

    p = HullParams(args.r, args.s)
    tol = _tolerances(args)
    cfg = SampleConfig(seed=args.seed, count=args.count, params=p,
                       kind=ConeKind.from_label(args.kind))
    report = two_sided_hull_check(cfg, tol)
    _emit_json(args, report.to_json_dict())
    return 0 if report.failure_count == 0 else MATH_FAILURE


def _cmd_decompose(args) -> int:
    p = HullParams(args.r, args.s)
    tol = _tolerances(args)
    kind = ConeKind.from_label(args.kind)
    z = _read_triple(args)
    try:
        d = decompose(z, p, kind, tol)
    except NotInHullError as exc:
        _emit_json(args, {"error": "not-in-hull", "message": str(exc),
                          "witness": exc.witness.to_json_dict()})
        return MATH_FAILURE
    ver = verify_decomposition(d, z, p, kind, tol)
    payload = d.to_json_dict(residuals=ver.residuals)
    payload["passed"] = ver.passed
    payload["max_residual"] = ver.max_residual
    _emit_json(args, payload)
    return 0 if ver.passed else MATH_FAILURE


def _cmd_wavecone(args) -> int:
    tol = _tolerances(args)
    kind = ConeKind.from_label(args.kind)
    z = _read_triple(args)
    verdict = in_wave_cone(z, kind, tol)
    payload = {
        "verdict": "in-cone" if verdict else "not-in-cone",
        "kind": kind.label,
        "g1": eval_g1(z),
    }
    if kind.restricts_u:
        payload["g3"] = eval_g3(z)
    _emit_json(args, payload)
    return 0


def _cmd_sample(args) -> int:
    from .oracle import (SampleConfig, _sample_row, sample_K, sample_first_laminate,
                         sample_hull, write_samples_csv)

    p = HullParams(args.r, args.s)
    tol = _tolerances(args)
    kind = ConeKind.from_label(args.kind)
    cfg = SampleConfig(seed=args.seed, count=args.count, params=p, kind=kind)
    sampler = {"constraint": sample_K, "laminate": sample_first_laminate,
               "hull": sample_hull}[args.sampler]
    if args.format == "csv":
        buf = io.StringIO()
        write_samples_csv(buf, sampler(cfg), p, kind, tol)
        _emit_text(args, buf.getvalue())
        return 0
    rows = [{**z.to_json_dict(), **_sample_row(z, p, kind, tol)} for z in sampler(cfg)]
    _emit_json(args, {"seed": args.seed, "kind": kind.label, "sampler": args.sampler,
                      "samples": rows})
    return 0


def _cmd_residual(args) -> int:
    from .planewave import refinement_study, round_to_lattice, wave_vector_for

    kind = ConeKind.from_label(args.kind)
    direction, a, c = _RESIDUAL_WAVES[kind]
    xi = wave_vector_for(direction, kind, _tolerances(args), a, c)
    xi = round_to_lattice(xi, direction, kind)
    levels = (args.n // 4, args.n // 2, args.n)
    study = refinement_study(direction, xi, kind, levels)
    study["direction"] = direction.to_json_dict()
    _emit_json(args, study)
    ok = all(ratio >= 3.0 for row in study["ratios"].values()
             for ratio in row if ratio is not None)
    return 0 if ok else MATH_FAILURE


_DISPATCH = {
    "verify-hull": _cmd_verify_hull,
    "decompose": _cmd_decompose,
    "wavecone": _cmd_wavecone,
    "sample": _cmd_sample,
    "residual": _cmd_residual,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
