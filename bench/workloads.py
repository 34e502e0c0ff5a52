"""The four workloads: fixed lists of operations on popuc, with their checks.

An operation's ``run`` calls popuc through module attributes (``oc.spectrum``
and so on), looked up at call time, so the tracer's wrappers see every
call.  ``check`` compares the output with a computation made apart from
the program (``oracle``) or with a property the method must have, and
returns a message when the output is wrong.  An operation that raises, or a
command that exits with a code other than 0, counts as failed.

The inputs of operation i come from ``numpy.random.default_rng([seed, i])``
alone, so the same seed gives the same list and the set-up probe can build
operation 0 without the rest.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle

import popuc.cli as cli
import popuc.cmv as cmv
import popuc.complex_poly as cp
import popuc.families as fam
import popuc.inverse_spectral as inv
import popuc.mirror as mirror
import popuc.opuc_core as oc

# bounds the outputs are checked against
NODE_TOL = 1e-9          # node distance on the circle, against the oracle or a closed form
WEIGHT_TOL = 1e-8        # weight difference, against the oracle or a closed form
COEFF_TOL = 1e-7         # recovered coefficients against the generating ones
ORTHO_TOL = 1e-8         # orthogonality residual (the command line's pass bound)
PARA_TOL = 1e-10         # paraorthogonality residual (the command line's pass bound)
PERSYM_TOL = 1e-8        # persymmetry characterizations (the command line's pass bound)
MIRROR_TOL = 1e-10       # mirror relations (the command line's pass bound)

# n of every operation in the random workloads.  The median and the 90th
# percentile of the operation times fall in the middle of the n = 6 and
# n = 9 groups, not on the edge between two sizes, and 480 draws keep the
# percentiles from moving with the seed.
SIZE_PLAN = ((2,) * 12 + (3,) * 12 + (4,) * 12 + (5,) * 12 + (6,) * 24 + (7,) * 12 + (8,) * 12 + (9,) * 24) * 4
FAMILY_SIZES = tuple(range(8, 65, 4))
CLI_KINDS = ("check_random", "check_self_dual", "generate", "reconstruct")


class ExitCodeError(Exception):
    """A command returned an exit code other than 0."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _quadrature_errors(theta, w, ref_theta, ref_w) -> "str | None":
    node_err, weight_err = oracle.match_error(theta, w, ref_theta, ref_w)
    if not node_err <= NODE_TOL:
        return f"nodes off by {node_err:.3e}"
    if not weight_err <= WEIGHT_TOL:
        return f"weights off by {weight_err:.3e}"
    return None


def _weight_properties(w) -> "str | None":
    w = np.asarray(w)
    if not np.all(w > 0.0) or abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
        return f"weights not positive with sum 1 (min {w.min():.3e}, sum {w.sum():.17g})"
    return None


def _forward_check(ref_theta, ref_w, closed=None):
    def check(out) -> "str | None":
        _, data, ortho, para = out
        theta = np.array([p.theta for p in data.nodes])
        problems = [
            _weight_properties(data.weights),
            _quadrature_errors(theta, data.weights, ref_theta, ref_w),
            None if closed is None else _quadrature_errors(theta, data.weights, *closed),
            None if ortho <= ORTHO_TOL else f"orthogonality residual {ortho:.3e}",
            None if para <= PARA_TOL else f"paraorthogonality residual {para:.3e}",
        ]
        return next((p for p in problems if p), None)

    return check


def _forward(make_v: Callable[[], Any]) -> Callable[[], Any]:
    def run():
        v = make_v()
        sys_ = oc.build_system(v)
        nodes = oc.spectrum(sys_)
        data = oc.weights(sys_, nodes)
        return v, data, oc.orthogonality_residual(sys_, data), oc.paraorthogonality_residual(sys_)

    return run


def _coeff_check(a_true) -> Callable[[Any], "str | None"]:
    def check(a) -> "str | None":
        a = np.asarray(a)
        if a.shape != a_true.shape:
            return f"recovered {a.size} coefficients, expected {a_true.size}"
        err = float(np.max(np.abs(a - a_true)))
        return None if err <= COEFF_TOL else f"coefficients off by {err:.3e}"

    return check


def _reconstruct(theta, omega) -> Callable[[], Any]:
    def run():
        nodes = [cp.UnitCirclePoint(t) for t in theta]
        return inv.reconstruct_persymmetric(nodes, omega).v.a

    return run


# ---------------------------------------------------------------- quadrature


def _quadrature_op(seed: int, i: int, n: int) -> Op:
    a, omega = oracle.random_disc(np.random.default_rng([seed, i]), n)
    ref = oracle.quadrature(a, omega)
    return Op(f"n={n}", _forward(lambda: oc.VerblunskySequence(a, omega)), _forward_check(*ref))


# ----------------------------------------------------------------- self_dual


def _self_dual_op(seed: int, i: int, n: int) -> Op:
    a, arg = oracle.self_dual(np.random.default_rng([seed, i]), n)
    omega = complex(np.exp(1j * arg))
    theta, _ = oracle.quadrature(a, omega)
    recover = _reconstruct(theta, omega)

    def run():
        v = oc.VerblunskySequence(a, omega)
        signs = cmv.persymmetric_sign_pattern(v) if n % 2 else None
        return (
            recover(),
            mirror.verify_persymmetry_characterizations(v),
            cmv.verify_mirror_relations(v),
            signs,
        )

    coeffs = _coeff_check(a)

    def check(out) -> "str | None":
        rec, chars, rel, signs = out
        if (msg := coeffs(rec)) is not None:
            return msg
        if not chars.max_residual <= PERSYM_TOL:
            return f"persymmetry characterizations off by {chars.max_residual:.3e}"
        if not rel.max_residual <= MIRROR_TOL:
            return f"mirror relations off by {rel.max_residual:.3e}"
        if signs is not None:
            s = np.asarray(signs)
            if s.size != n + 1 or not np.all(s[1:] == -s[:-1]) or abs(s[0]) != 1:
                return f"sign pattern {signs} does not alternate"
        return None

    return Op(f"n={n}", run, check)


# ------------------------------------------------------------------ families

# each constructor is looked up on the module at call time, so the tracer sees it
_CONSTRUCTORS = {
    "free": lambda n: fam.free_family(n, oracle.FREE_NU),
    "single_moment": lambda n: fam.single_moment(n),
    "single_moment_dual": lambda n: fam.single_moment_dual(n),
    "single_moment_persymmetric": lambda n: fam.single_moment_persymmetric(n),
    "krawtchouk": lambda n: fam.krawtchouk_family(n, complex(np.exp(1j * oracle.KRAWTCHOUK_OMEGA_ARG))),
}


def _family_specs() -> list[tuple[str, str, int]]:
    forward = [("forward", name, n) for name in oracle.FAMILIES for n in FAMILY_SIZES]
    recover = [("reconstruct", name, n) for name in oracle.MIRROR_SYMMETRIC for n in FAMILY_SIZES]
    return forward + recover


def _family_op(kind: str, name: str, n: int) -> Op:
    a, omega, theta, w = oracle.family(name, n)
    label = f"{kind} {name} n={n}"
    if kind == "reconstruct":
        return Op(label, _reconstruct(theta, omega), _coeff_check(a))
    construct = _CONSTRUCTORS[name]
    ref = oracle.quadrature(a, omega)
    forward_check = _forward_check(*ref, closed=(theta, w))

    def check(out) -> "str | None":
        v = out[0]
        err = max(float(np.max(np.abs(v.a - a))), abs(v.omega - omega))
        if err > 1e-14:
            return f"constructor coefficients off by {err:.3e}"
        return forward_check(out)

    return Op(label, _forward(lambda: construct(n).v), check)


# ----------------------------------------------------------------------- cli


def _run_cli(argv: list[str]) -> Callable[[], Any]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise ExitCodeError(f"exit {code}: {err.getvalue().strip()[:200]}")
        return json.loads(out.getvalue())["payload"]

    return run


def _verblunsky_json(a, omega) -> str:
    return json.dumps({"a": [[z.real, z.imag] for z in map(complex, a)], "omega": [omega.real, omega.imag]})


def _cli_op(seed: int, i: int, n: int) -> Op:
    # every size group holds a multiple of four operations, so each command
    # kind runs on the whole size plan in proportion
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    rng = np.random.default_rng([seed, i])
    if kind == "check_random":
        a, omega = oracle.random_disc(rng, n)
    else:
        a, arg = oracle.self_dual(rng, n)
        omega = complex(np.exp(1j * arg))
    theta, w = oracle.quadrature(a, omega)
    label = f"{kind} n={n}"

    if kind == "reconstruct":
        argv = ["reconstruct", "--spectrum", json.dumps(theta.tolist()), "--omega-arg", repr(arg)]
        coeffs = _coeff_check(a)
        return Op(label, _run_cli(argv), lambda p: coeffs([complex(*z) for z in p["a"]]))

    if kind == "generate":
        argv = ["generate", "--verblunsky", _verblunsky_json(a, omega), "--emit", "all"]

        def check_generate(p) -> "str | None":
            got = np.array(p["weights"])
            return _weight_properties(got) or _quadrature_errors(p["spectrum"]["theta"], got, theta, w)

        return Op(label, _run_cli(argv), check_generate)

    argv = ["check", "--verblunsky", _verblunsky_json(a, omega), "--all"]
    self_dual = kind == "check_self_dual"

    def check_check(p) -> "str | None":
        checks = p["checks"]
        if checks["passed"] is not True:
            return "check did not pass"
        if checks["persymmetric"] is not self_dual or self_dual != ("persymmetry_characterizations" in checks):
            return f"persymmetry detected as {checks['persymmetric']}, expected {self_dual}"
        return None

    return Op(label, _run_cli(argv), check_check)


def build(workload: str, seed: int, count: int | None = None) -> list[Op]:
    """The operation list of a workload; ``count`` builds only the first ones."""
    if workload == "families":
        specs = _family_specs()[:count]
        return [_family_op(*spec) for spec in specs]
    makers = {"quadrature": _quadrature_op, "self_dual": _self_dual_op, "cli": _cli_op}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return [makers[workload](seed, i, n) for i, n in enumerate(SIZE_PLAN[:count])]
