"""Command line interface.

Subcommands: generate (emit a system as JSON), check (run identity
verifications, exit 1 on failure), reconstruct (persymmetric recovery from
a spectrum file), export (JSON or CSV to a path).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 reconstruction failure, 4 I/O failure, 5 numerical failure on valid
input (weights, convergence or spectrum validity).

JSON output is canonical and byte-stable: keys sorted, floats printed with
17 significant digits (enough to round-trip doubles bit-exactly, -0 kept),
complex numbers as [real, imag] pairs.  Arrays are rendered straight from
their ndarrays, one join per row.

``main`` builds its argument parser once per process, so callers that run
it in-process repeatedly pay only for the numerical work of each command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import cmv as cmv_mod
from . import families as fam_mod
from .complex_poly import TWO_PI, unit_points
from .errors import (
    ConvergenceError,
    NotPersymmetricError,
    PopucError,
    SpectralValidityError,
    SpectrumInconsistencyError,
    SzegoClassError,
    WeightError,
)
from .inverse_spectral import reconstruct_persymmetric
from .mirror import is_persymmetric, persymmetry_defect, verify_persymmetry_characterizations
from .opuc_core import (
    VerblunskySequence,
    orthogonality_residual,
    paraorthogonality_residual,
    spectrum,
    weights,
)
from .tolerances import MIRROR_RELATIONS, ORTHOGONALITY, PARAORTHOGONALITY, PERSYMMETRY_IDENTITIES

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RECONSTRUCTION = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

# --family name -> the family instance built from the parsed arguments
FAMILIES = {
    "free": lambda args: fam_mod.free_family(args.n, args.nu),
    "single_moment": lambda args: fam_mod.single_moment(args.n),
    "single_moment_dual": lambda args: fam_mod.single_moment_dual(args.n),
    "single_moment_persymmetric": lambda args: fam_mod.single_moment_persymmetric(args.n),
    "krawtchouk": lambda args: fam_mod.krawtchouk_family(args.n, complex(np.exp(1j * args.omega_arg))),
}


def _array(arr: np.ndarray) -> str:
    """A real or complex array as nested JSON lists, complex entries as [re, im]."""
    if arr.ndim > 1:
        return "[" + ",".join(map(_array, arr)) + "]"
    if arr.dtype.kind == "c":
        return "[" + ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in arr.tolist()) + "]"
    return "[" + ",".join(f"{x:.17g}" for x in arr.tolist()) + "]"


def _canonical(value: Any) -> str:
    """Render a JSON document with sorted keys and fixed float formatting."""
    if type(value) is np.ndarray:
        return _array(value)
    if type(value) is float:
        return f"{value:.17g}"
    if isinstance(value, dict):
        items = sorted(value.items())
        inner = ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return "null"
    return json.dumps(value)


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _load_json_arg(text: str) -> Any:
    """Accept either inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    return json.loads(Path(text).read_text())


def _verblunsky_from_json(doc: Any) -> VerblunskySequence:
    if not isinstance(doc, dict) or "a" not in doc or "omega" not in doc:
        raise ValueError('expected an object with keys "a" and "omega"')
    try:
        a = np.array([complex(re, im) for re, im in doc["a"]], dtype=np.complex128)
        om = complex(doc["omega"][0], doc["omega"][1])
    except OverflowError:
        raise ValueError("a JSON integer is outside the double range") from None
    return VerblunskySequence(a, om)


def _system_from_args(args: argparse.Namespace) -> VerblunskySequence:
    if args.verblunsky is not None:
        return _verblunsky_from_json(_load_json_arg(args.verblunsky))
    if args.family is None:
        raise ValueError("provide either --verblunsky or --family")
    if args.n is None:
        raise ValueError("--family needs --n")
    return FAMILIES[args.family](args).v


def _payload(v: VerblunskySequence, emit: str) -> dict[str, Any]:
    out: dict[str, Any] = {
        "n": v.n,
        "verblunsky": {"a": v.a, "omega": _pair(v.omega)},
    }
    if emit in ("phis", "all"):
        out["phis"] = list(v.phis)
        out["h"] = v.h
    if emit in ("spectrum", "weights", "all"):
        theta = spectrum(v)
        out["spectrum"] = {"theta": theta, "z": unit_points(theta)}
        if emit in ("weights", "all"):
            out["weights"] = weights(v, theta).weights
    if emit in ("cmv", "all"):
        m1, m2 = v.cmv_factors
        out["cmv"] = {"m1": m1, "m2": m2, "u": m2 @ m1}
    return out


def _document(command: str, payload: dict[str, Any]) -> str:
    return _canonical(
        {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    )


def cmd_generate(args: argparse.Namespace) -> int:
    v = _system_from_args(args)
    print(_document("generate", _payload(v, args.emit)))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    v = _system_from_args(args)
    run_all = args.all or not (args.persymmetric or args.mirror_relations or args.orthogonality)
    checks: dict[str, Any] = {}
    passed = True
    # every check below takes v and reads the one eigen-solve, ladder and factor pair it keeps
    if args.orthogonality or run_all:
        data = weights(v, spectrum(v))
        ortho = orthogonality_residual(v, data)
        para = paraorthogonality_residual(v)
        checks["orthogonality_residual"] = ortho
        checks["paraorthogonality_residual"] = para
        passed = passed and ortho <= ORTHOGONALITY and para <= PARAORTHOGONALITY
    if args.mirror_relations or run_all:
        report = cmv_mod.verify_mirror_relations(v)
        checks["mirror_relations"] = {
            "m1_residual": report.m1_residual,
            "m2_residual": report.m2_residual,
            "u_residual": report.u_residual,
            "parity": report.parity,
        }
        passed = passed and report.max_residual <= MIRROR_RELATIONS
    persym = is_persymmetric(v)
    checks["persymmetric"] = persym
    checks["persymmetry_defect"] = persymmetry_defect(v)
    if persym and (args.persymmetric or run_all):
        chars = verify_persymmetry_characterizations(v)
        checks["persymmetry_characterizations"] = {
            "weight_residual": chars.weight_residual,
            "modulus_residual": chars.modulus_residual,
            "phase_residual": chars.phase_residual,
            "epsilon": chars.epsilon,
        }
        passed = passed and chars.max_residual <= PERSYMMETRY_IDENTITIES
    elif args.persymmetric:
        passed = False
    checks["passed"] = passed
    print(_document("check", {"n": v.n, "checks": checks}))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _angles(doc: Any) -> np.ndarray:
    """A JSON list of angles as float64, each entry checked in input order.

    An entry that is not a number (null, a string, a list), an integer
    beyond the double range, or a non-finite number raises ValueError
    naming its index in the input.
    """
    if isinstance(doc, dict) and "theta" in doc:
        doc = doc["theta"]
    if not isinstance(doc, list):
        raise ValueError("spectrum input must be a JSON list of angles")
    for k, t in enumerate(doc):
        if type(t) not in (int, float):
            raise ValueError(f"theta[{k}] is {json.dumps(t)}, not a number")
        try:
            finite = math.isfinite(t)
        except OverflowError:
            raise ValueError(f"theta[{k}] is an integer outside the double range") from None
        if not finite:
            raise ValueError(f"theta must be finite; theta[{k}] is {t!r}")
    return np.array(doc, dtype=np.float64)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    theta = _angles(_load_json_arg(args.spectrum))
    theta %= TWO_PI
    theta[theta >= TWO_PI] -= TWO_PI  # the modulo can land exactly on the seam
    theta.sort()
    omega = complex(np.exp(1j * args.omega_arg))
    result = reconstruct_persymmetric(theta, omega)
    payload = {
        "a": result.v.a,
        "omega": _pair(result.v.omega),
        "n": result.v.n,
        "h_final": result.h_final,
        "log_h_final": result.log_h_final,
        "spectrum_residual": result.spectrum_residual,
    }
    print(_document("reconstruct", payload))
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    v = _system_from_args(args)
    path = Path(args.out)
    if args.format == "json":
        text = _document("export", _payload(v, args.emit)) + "\n"
        path.write_text(text)
    else:
        payload = _payload(v, "weights")
        lines = ["s,theta,weight"]
        for s, (theta, wgt) in enumerate(zip(payload["spectrum"]["theta"], payload["weights"])):
            lines.append(f"{s},{theta:.17g},{wgt:.17g}")
        path.write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _add_system_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verblunsky", help="inline JSON or path: {\"a\": [[re,im],..], \"omega\": [re,im]}")
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--n", type=int, help="number of coefficients below the closure")
    p.add_argument("--nu", type=float, default=0.0, help="free family rotation (turns)")
    p.add_argument("--omega-arg", type=float, default=0.0, help="arg(omega) in radians")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The popuc parser, built on first use; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Finite paraorthogonal polynomials on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a system and print it as JSON")
    _add_system_arguments(g)
    g.add_argument("--emit", choices=["phis", "spectrum", "weights", "cmv", "all"], default="all")
    g.set_defaults(fn=cmd_generate)

    c = sub.add_parser("check", help="verify identities; exit 1 when any fails")
    _add_system_arguments(c)
    c.add_argument("--persymmetric", action="store_true")
    c.add_argument("--mirror-relations", action="store_true")
    c.add_argument("--orthogonality", action="store_true")
    c.add_argument("--all", action="store_true")
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("reconstruct", help="recover persymmetric data from node angles")
    r.add_argument("--spectrum", required=True, help="JSON list of angles, inline or a path")
    r.add_argument("--omega-arg", type=float, required=True, help="arg(omega) in radians")
    r.set_defaults(fn=cmd_reconstruct)

    e = sub.add_parser("export", help="write JSON or CSV output to a file")
    _add_system_arguments(e)
    e.add_argument("--emit", choices=["phis", "spectrum", "weights", "cmv", "all"], default="all")
    e.add_argument("--format", choices=["json", "csv"], required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except (SpectrumInconsistencyError, NotPersymmetricError, SzegoClassError) as exc:
        if args.command == "reconstruct":
            print(f"reconstruction failed: {exc}", file=sys.stderr)
            return EXIT_RECONSTRUCTION
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (WeightError, ConvergenceError, SpectralValidityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, PopucError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
