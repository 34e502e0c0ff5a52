"""Command line interface.

Subcommands: generate (emit a system as JSON), check (run identity
verifications, exit 1 on failure), reconstruct (persymmetric recovery from
a spectrum file), export (write the generate document, or its weights as
s,theta,weight CSV, to a path).  The report blocks of check are the fields
of ``MirrorRelationReport`` and ``PersymmetryCharacterizations`` as they are.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 reconstruction failure (reconstruct only), 4 I/O failure, 5 numerical
failure on valid input (weights, spectrum validity, coincident nodes or
ladder overflow).

JSON output is canonical and byte-stable: keys sorted, floats printed with
17 significant digits (enough to round-trip doubles bit-exactly, -0 kept),
complex numbers as [real, imag] pairs.  Each array is rendered by one
printf template built for its shape and filled once from its flat entries.

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
from .complex_poly import _exp_i, unit_points
from .errors import (
    NotPersymmetricError,
    PopucError,
    SpectralValidityError,
    SpectrumInconsistencyError,
    SzegoClassError,
    WeightError,
)
from .inverse_spectral import reconstruct_persymmetric
from .mirror import persymmetry_defect, verify_persymmetry_characterizations
from .opuc_core import (
    VerblunskySequence,
    factors,
    orthogonality_residual,
    paraorthogonality_residual,
    spectrum,
    weights,
)
from .tolerances import MIRROR_RELATIONS, ORTHOGONALITY, PARAORTHOGONALITY, PERSYMMETRY_IDENTITIES, SELF_DUAL_DEFECT

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
    "krawtchouk": lambda args: fam_mod.krawtchouk_family(args.n, _omega(args.omega_arg)),
}


def _omega(arg: float) -> complex:
    """exp(i arg) for ``--omega-arg``, exact at quarter turns; an infinite arg raises ValueError before numpy warns."""
    if math.isinf(arg):
        raise ValueError(f"omega-arg = {arg!r} must be finite")
    return _exp_i(arg)


def _array(arr: np.ndarray) -> str:
    """A real or complex array as nested JSON lists, complex entries as [re, im].

    One printf template per shape takes the flat entries in a single
    ``%``; "%.17g" % x gives the bytes of f"{x:.17g}".
    """
    flat, template = arr.ravel(), "%.17g"
    if arr.dtype.kind == "c":
        flat, template = flat.view(flat.real.dtype), "[%.17g,%.17g]"
    for size in reversed(arr.shape):
        template = "[" + ",".join([template] * size) + "]"
    return template % tuple(flat.tolist())


def _canonical(value: Any) -> str:
    """A JSON document with sorted keys and fixed float formatting; a kind no document holds raises TypeError."""
    if type(value) is np.ndarray:
        return _array(value)
    if type(value) is float:
        return f"{value:.17g}"
    if type(value) is complex:
        return f"[{value.real:.17g},{value.imag:.17g}]"
    if type(value) is dict:
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in sorted(value.items())) + "}"
    if type(value) is list:
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) in (int, str):
        return json.dumps(value)
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def _load_json_arg(text: str) -> Any:
    """Accept either inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    return json.loads(Path(text).read_text())


def _number(field: str, x: Any) -> float:
    """x as a float once it is a JSON number (int or float, not bool) within the double range.

    Else ValueError naming the field.
    """
    if type(x) not in (int, float):
        raise ValueError(f"{field} is {json.dumps(x)}, not a number")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{field} is an integer outside the double range") from None


def _pair(field: str, entry: Any) -> complex:
    """re + i im from a JSON list [re, im] of two ``_number`` entries, else ValueError naming the field."""
    if type(entry) is not list or len(entry) != 2:
        raise ValueError(f"{field} is {json.dumps(entry)}, not a pair [re, im] of numbers")
    return complex(_number(f"{field}[0]", entry[0]), _number(f"{field}[1]", entry[1]))


def _verblunsky_from_json(doc: Any) -> VerblunskySequence:
    if not isinstance(doc, dict) or "a" not in doc or "omega" not in doc:
        raise ValueError('expected an object with keys "a" and "omega"')
    if type(doc["a"]) is not list:
        raise ValueError(f"a is {json.dumps(doc['a'])}, not a list of [re, im] pairs")
    a = np.array([_pair(f"a[{k}]", z) for k, z in enumerate(doc["a"])], dtype=np.complex128)
    return VerblunskySequence(a, _pair("omega", doc["omega"]))


def _system_from_args(args: argparse.Namespace) -> VerblunskySequence:
    if args.verblunsky is not None:
        return _verblunsky_from_json(_load_json_arg(args.verblunsky))
    if args.family is None:
        raise ValueError("provide either --verblunsky or --family")
    if args.n is None:
        raise ValueError("--family needs --n")
    return FAMILIES[args.family](args).v


def _payload(v: VerblunskySequence, emit: str) -> dict[str, Any]:
    out: dict[str, Any] = {"n": v.n, "verblunsky": {"a": v.a, "omega": v.omega}}
    if emit in ("phis", "all"):
        out["phis"] = list(v.phis)
        out["h"] = v.h
    if emit in ("spectrum", "weights", "all"):
        theta = spectrum(v)
        out["spectrum"] = {"theta": theta, "z": unit_points(theta)}
        if emit in ("weights", "all"):
            out["weights"] = weights(v, theta).weights
    if emit in ("cmv", "all"):
        m1, m2 = factors(v)
        out["cmv"] = {"m1": m1, "m2": m2, "u": m2.dot(m1)}  # the product ``cmv_matrix`` forms
    return out


def _document(command: str, payload: dict[str, Any]) -> str:
    return _canonical(
        {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    )


def cmd_generate(args: argparse.Namespace) -> int:
    """Print the ``--emit`` document; ``export`` writes it, or its weights as CSV, to ``--out``."""
    v = _system_from_args(args)
    if args.format == "csv":
        data = weights(v, spectrum(v))
        rows = enumerate(zip(data.theta.tolist(), data.weights.tolist()))
        text = "s,theta,weight\n" + "".join(f"{s},{t:.17g},{w:.17g}\n" for s, (t, w) in rows)
    else:
        text = _document(args.command, _payload(v, args.emit)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    v = _system_from_args(args)
    run_all = args.all or not (args.persymmetric or args.mirror_relations or args.orthogonality)
    checks: dict[str, Any] = {}
    passed = True
    # every check below takes v and reads the one eigen-solve and ladder it keeps
    if args.orthogonality or run_all:
        data = weights(v, spectrum(v))
        ortho = orthogonality_residual(v, data)
        para = paraorthogonality_residual(v)
        checks["orthogonality_residual"] = ortho
        checks["paraorthogonality_residual"] = para
        passed = passed and ortho <= ORTHOGONALITY and para <= PARAORTHOGONALITY
    if args.mirror_relations or run_all:
        report = cmv_mod.verify_mirror_relations(v)
        checks["mirror_relations"] = vars(report)
        passed = passed and report.max_residual <= MIRROR_RELATIONS
    defect = persymmetry_defect(v)
    persym = defect <= SELF_DUAL_DEFECT
    checks["persymmetric"] = persym
    checks["persymmetry_defect"] = defect
    if persym and (args.persymmetric or run_all):
        chars = verify_persymmetry_characterizations(v)
        checks["persymmetry_characterizations"] = vars(chars)
        passed = passed and chars.max_residual <= PERSYMMETRY_IDENTITIES
    elif args.persymmetric:
        passed = False
    checks["passed"] = passed
    print(_document("check", {"n": v.n, "checks": checks}))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _angles(doc: Any) -> np.ndarray:
    """A JSON list of angles as float64, each entry checked in input order.

    An entry that is not a ``_number`` (null, a string, a list, an integer
    beyond the double range) or is not finite raises ValueError naming its
    index in the input.
    """
    if isinstance(doc, dict) and "theta" in doc:
        doc = doc["theta"]
    if not isinstance(doc, list):
        raise ValueError("spectrum input must be a JSON list of angles")
    for k, t in enumerate(doc):
        if not math.isfinite(_number(f"theta[{k}]", t)):
            raise ValueError(f"theta must be finite; theta[{k}] is {t!r}")
    return np.array(doc, dtype=np.float64)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    theta = _angles(_load_json_arg(args.spectrum))  # a new array, sorted in place
    theta.sort()
    result = reconstruct_persymmetric(theta, _omega(args.omega_arg))
    payload = {
        "a": result.v.a,
        "omega": result.v.omega,
        "n": result.v.n,
        "h_final": result.h_final,
        "log_h_final": result.log_h_final,
        "spectrum_residual": result.spectrum_residual,
    }
    print(_document("reconstruct", payload))
    return EXIT_OK


def _add_system_arguments(p: argparse.ArgumentParser, emit: bool = False) -> None:
    p.add_argument("--verblunsky", help="inline JSON or path: {\"a\": [[re,im],..], \"omega\": [re,im]}")
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--n", type=int, help="number of coefficients below the closure")
    p.add_argument("--nu", type=float, default=0.0, help="free family rotation (turns)")
    p.add_argument("--omega-arg", type=float, default=0.0, help="arg(omega) in radians")
    if emit:
        p.add_argument("--emit", choices=["phis", "spectrum", "weights", "cmv", "all"], default="all")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The popuc parser, built on first use; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Finite paraorthogonal polynomials on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a system and print it as JSON")
    _add_system_arguments(g, emit=True)
    g.set_defaults(fn=cmd_generate, format="json", out=None)

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
    _add_system_arguments(e, emit=True)
    e.add_argument("--format", choices=["json", "csv"], required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except (SpectrumInconsistencyError, NotPersymmetricError, SzegoClassError) as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    except (WeightError, SpectralValidityError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, PopucError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
