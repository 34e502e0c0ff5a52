#!/usr/bin/env python3
"""Residual battery over the closed-form families and random systems.

Prints one row per check with the worst observed residual and its bound
from ``popuc.tolerances``, so a glance shows how much headroom each
identity has.  Use --json for a machine-readable dump of the same
residuals.  Exits 1 when any residual exceeds its bound.
"""

import argparse
import json
import sys

import numpy as np

from popuc import (
    VerblunskySequence,
    cmv_matrix,
    factors,
    free_family,
    krawtchouk_family,
    laurent_eigenvectors,
    make_persymmetric,
    orthogonality_residual,
    paraorthogonality_residual,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    spectrum,
    unit_points,
    unitarity_residual,
    verify_family,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.opuc_core import symmetric_form
from popuc.tolerances import (
    MIRROR_RELATIONS,
    ORTHOGONALITY,
    PARAORTHOGONALITY,
    PERSYMMETRY_IDENTITIES,
    RESIDUAL,
)


def random_verblunsky(rng, n, max_mag=0.85):
    mags = max_mag * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    args = rng.uniform(0.0, 2.0 * np.pi, size=n)
    omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return VerblunskySequence(mags * np.exp(1j * args), omega)


def symmetric_form_residual(v):
    """Worst of |W diag(d) W^T - M1|, |S - S^T|, W's unitarity and |U conj(W) - conj(W) S diag(d)| for v's symmetric form."""
    m1, m2 = factors(v)
    w, d, s = symmetric_form(v)
    u = m2 @ m1
    return max(
        float(np.max(np.abs((w * d) @ w.T - m1))),
        float(np.max(np.abs(s - s.T))),
        unitarity_residual(w),
        float(np.max(np.abs(u @ w.conj() - w.conj() @ (s * d)))),
    )


def symmetric_form_rows(n_values, seed, count, n_max=70):
    """The symmetric form of the five families and the six real ones at each n, and of count random real lists.

    For the five families it also checks the nodes that the solve gives against the closed form.
    """
    rows = []
    for n in n_values:
        families = (
            free_family(n, nu=0.3),
            single_moment(n),
            single_moment_dual(n),
            single_moment_persymmetric(n),
            krawtchouk_family(n, np.exp(0.9j)),
        )
        real = (free_family(n, nu=0.0), free_family(n, nu=0.5), *families[1:4], krawtchouk_family(n, 1.0))
        worst = max(symmetric_form_residual(inst.v) for inst in families)
        nodes = max(
            float(np.max(np.abs(unit_points(spectrum(inst.v)) - unit_points(inst.closed_form_nodes))))
            for inst in families
        )
        rows.append((f"symmetric form, five families n={n}", worst, RESIDUAL))
        rows.append((f"nodes against the closed form, five families n={n}", nodes, RESIDUAL))
        worst = max(symmetric_form_residual(inst.v) for inst in real)
        rows.append((f"symmetric form, six real families n={n}", worst, RESIDUAL))
    rng = np.random.default_rng(seed)
    worst = max(
        symmetric_form_residual(
            VerblunskySequence(rng.uniform(-0.85, 0.85, int(rng.integers(1, n_max + 1))), float(rng.choice((1.0, -1.0))))
        )
        for _ in range(count)
    )
    rows.append((f"random real ({count} draws, n <= {n_max}): symmetric form", worst, RESIDUAL))
    return rows


def family_rows(n_values):
    rows = []
    for n in n_values:
        for inst in (
            free_family(n, nu=0.3),
            single_moment(n),
            single_moment_dual(n),
            single_moment_persymmetric(n),
            krawtchouk_family(n, np.exp(0.9j)),
        ):
            report = verify_family(inst)
            rows.append((f"{inst.name} n={n}", max(report.values()), RESIDUAL))
    return rows


def random_rows(seed, count, n_max):
    rng = np.random.default_rng(seed)
    worst = {
        "orthogonality": 0.0,
        "paraorthogonality": 0.0,
        "cmv unitarity": 0.0,
        "cmv eigenpairs": 0.0,
        "mirror relations": 0.0,
        "symmetric form": 0.0,
    }
    for _ in range(count):
        v = random_verblunsky(rng, int(rng.integers(1, n_max + 1)))
        nodes = spectrum(v)
        data = weights(v, nodes)
        worst["orthogonality"] = max(worst["orthogonality"], orthogonality_residual(v, data))
        worst["paraorthogonality"] = max(
            worst["paraorthogonality"], paraorthogonality_residual(v)
        )
        u = cmv_matrix(v)
        worst["cmv unitarity"] = max(worst["cmv unitarity"], unitarity_residual(u))
        z = unit_points(nodes)
        psi = laurent_eigenvectors(v, z)
        resid = np.max(np.abs(u @ psi - z * psi), axis=0)
        scaled = resid / np.maximum(1.0, np.max(np.abs(psi), axis=0))
        worst["cmv eigenpairs"] = max(worst["cmv eigenpairs"], float(np.max(scaled)))
        worst["mirror relations"] = max(
            worst["mirror relations"], verify_mirror_relations(v).max_residual
        )
        worst["symmetric form"] = max(worst["symmetric form"], symmetric_form_residual(v))
    bounds = {
        "orthogonality": ORTHOGONALITY,
        "paraorthogonality": PARAORTHOGONALITY,
        "cmv unitarity": RESIDUAL,
        "cmv eigenpairs": RESIDUAL,
        "mirror relations": MIRROR_RELATIONS,
        "symmetric form": RESIDUAL,
    }
    return [(f"random ({count} draws, n <= {n_max}): {k}", v, bounds[k]) for k, v in worst.items()]


def persymmetric_rows(seed, count, n_max):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        half = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, size=n // 2))
        args = rng.uniform(0.0, 2.0 * np.pi, size=n // 2)
        omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        v = make_persymmetric(
            half * np.exp(1j * args), omega, middle_r=float(rng.uniform(-0.8, 0.8)) if n % 2 else None
        )
        report = verify_persymmetry_characterizations(v)
        worst = max(worst, report.max_residual)
    name = f"persymmetric characterizations ({count} draws, n <= {n_max})"
    return [(name, worst, PERSYMMETRY_IDENTITIES)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=60, help="random draws per battery")
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = parser.parse_args()

    rows = []
    rows.extend(family_rows((2, 5, 9)))
    rows.extend(symmetric_form_rows((20, 64, 255), args.seed + 2, args.count))
    rows.extend(random_rows(args.seed, args.count, args.n_max))
    rows.extend(persymmetric_rows(args.seed + 1, args.count, args.n_max))

    over = [name for name, value, bound in rows if not value <= bound]
    if args.json:
        print(json.dumps({name: value for name, value, _ in rows}, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name, _, _ in rows)
        print(f"{'check':<{width}}  worst residual      bound")
        print("-" * (width + 27))
        for name, value, bound in rows:
            mark = "  OVER" if name in over else ""
            print(f"{name:<{width}}  {value:>14.3e}  {bound:>9.0e}{mark}")
    if over:
        print(f"{len(over)} residual(s) over their bound: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
