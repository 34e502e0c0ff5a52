#!/usr/bin/env python3
"""Round-trip error of the inverse spectral recovery over random seeds.

For each n, draws self-dual coefficient sequences, computes their nodes,
reconstructs from the nodes alone and reports the error distribution.
Useful for judging how the recovery conditions with depth.  Each n has
--trials complex draws and as many real ones for each of omega = -1 and
omega = 1 (real free parameters; at odd n the middle coefficient is real for
omega = -1 and 0 for omega = 1), whose spectra are closed under conjugation.
Exits 1 when a worst |da|, relative dh or node drift exceeds
``popuc.tolerances.RESIDUAL``, or when a real draw comes back with an
imaginary part other than 0.0.
"""

import argparse
import sys

import numpy as np

from popuc import (
    VerblunskySequence,
    make_persymmetric,
    reconstruct_persymmetric,
    spectrum,
)
from popuc.mirror import mirrored
from popuc.tolerances import RESIDUAL


def draw(rng, n, max_mag):
    half = max_mag * np.sqrt(rng.uniform(0.0, 1.0, size=n // 2))
    args = rng.uniform(0.0, 2.0 * np.pi, size=n // 2)
    omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return make_persymmetric(
        half * np.exp(1j * args), omega, middle_r=float(rng.uniform(-max_mag, max_mag)) if n % 2 else None
    )


def draw_real(rng, n, max_mag, omega):
    half = rng.uniform(-max_mag, max_mag, size=n // 2)
    middle = [rng.uniform(-max_mag, max_mag) if omega == -1.0 else 0.0] if n % 2 else []
    return VerblunskySequence(np.concatenate((half, middle, mirrored(half, omega))), omega)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--trials", type=int, default=40, help="draws per n")
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--max-mag", type=float, default=0.8)
    args = parser.parse_args()

    bound = RESIDUAL
    over = []
    rng = np.random.default_rng(args.seed)
    print(
        f"{'n':>3}  {'median |da|':>12}  {'worst |da|':>12}  {'worst rel dh':>13}  {'worst node drift':>17}"
        f"  {'real worst |Im a|':>18}"
    )
    for n in range(1, args.n_max + 1):
        errs, herrs, drifts, imags = [], [], [], []
        draws = [draw(rng, n, args.max_mag) for _ in range(args.trials)]
        draws += [draw_real(rng, n, args.max_mag, omega) for omega in (-1.0, 1.0) for _ in range(args.trials)]
        for i, v in enumerate(draws):
            nodes = spectrum(v)
            result = reconstruct_persymmetric(nodes, v.omega)
            errs.append(float(np.max(np.abs(result.v.a - v.a))))
            herrs.append(abs(result.h_final - float(v.h[-1])) / float(v.h[-1]))
            drifts.append(result.spectrum_residual)
            if i >= args.trials:
                imags.append(float(np.max(np.abs(result.v.a.imag))))
        worst = {"|da|": max(errs), "rel dh": max(herrs), "node drift": max(drifts)}
        over.extend(f"{k} {x:.3e} at n = {n}" for k, x in worst.items() if not x <= bound)
        if max(imags) != 0.0:
            over.append(f"real draws keep an imaginary part {max(imags):.3e} at n = {n}")
        print(
            f"{n:>3}  {np.median(errs):>12.3e}  {worst['|da|']:>12.3e}"
            f"  {worst['rel dh']:>13.3e}  {worst['node drift']:>17.3e}  {max(imags):>18.3e}"
        )
    if over:
        print(f"over the bound {bound:.0e} or not real: {'; '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
