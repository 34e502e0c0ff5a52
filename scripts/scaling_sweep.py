#!/usr/bin/env python3
"""Wall-clock times of the forward and inverse stages over the five families, n = 8 .. 1024.

For each family at n in {8, 16, 32, ..., --n-max}, each of RUNS = 5 runs takes
a fresh coefficient list, so no memo of an earlier run is read, and times:

- ``construct``: the family constructor (``krawtchouk_family`` for krawtchouk);
- ``quadrature``: ``VerblunskySequence.quadrature``, the one solve;
- ``ladder_values``: the value ladder at the list's own nodes;
- ``orthogonality_residual``: with the weights made beforehand, so it
  times the ladder memo and the Gram product;
- ``paraorthogonality_residual``: the coefficient ladder and its closure;
- ``reconstruct_persymmetric``: recovery from the node angles, on the three
  self-dual families only.

Each row holds the median, best and worst time of the runs, in ms, after
one untimed warm-up run of the same family and n, and ``scaled_median_ms``,
the median of the same times put on one scale: the reference kernel of
``bench/reference.py`` (imported read-only, as ``bench/run.py`` imports it) is
timed just before and just after each stage call, and the call's time is
multiplied by ``REFERENCE_S`` over the shorter of the two.  The host the
benchmark was built on runs at two speeds about 1.6 times apart, in spells,
so compare two checkouts by ``scaled_median_ms``.  BLAS runs on one
thread: the script sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS to 1 before numpy loads.  It prints one line per row.
With --out it also writes the rows to a JSON file under --label, keeping the
other labels already in that file, so two checkouts can be measured into one
file:

    PYTHONPATH=<parent>/src python scripts/scaling_sweep.py --label before --out BENCH.json
    PYTHONPATH=src python scripts/scaling_sweep.py --label after --out BENCH.json

Times only: no oracle or accuracy column.  The settings record
``reference_s``.  A stage that raises is reported with its error, the rest
of that family and n is skipped, and the script exits 1; no time makes it
fail.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
from reference import REFERENCE_S, time_reference  # noqa: E402

from popuc import (  # noqa: E402
    VerblunskySequence,
    free_family,
    krawtchouk_family,
    orthogonality_residual,
    paraorthogonality_residual,
    reconstruct_persymmetric,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    spectrum,
    unit_points,
    weights,
)
from popuc.opuc_core import ladder_values  # noqa: E402

FAMILIES = {
    "free": lambda n: free_family(n, 0.3),
    "single_moment": single_moment,
    "single_moment_dual": single_moment_dual,
    "single_moment_persymmetric": single_moment_persymmetric,
    "krawtchouk": lambda n: krawtchouk_family(n, complex(np.exp(0.9j))),
}
RUNS = 5  # timed runs per family and n
STAGES = (
    "construct",
    "quadrature",
    "ladder_values",
    "orthogonality_residual",
    "paraorthogonality_residual",
    "reconstruct_persymmetric",
)


class StageError(Exception):
    """A stage raised; the message names the stage and its error."""


def _run(stage, call):
    try:
        return call()
    except Exception as exc:  # a stage error is a result of the sweep, not a crash of it
        raise StageError(f"{stage}: {type(exc).__name__}: {exc}") from exc


def _timed(times, stage, call):
    """call's result; appends (ms, ms at reference speed) to times[stage]."""
    before = time_reference()
    start = time.perf_counter()
    result = _run(stage, call)
    elapsed = time.perf_counter() - start
    after = time_reference()
    times.setdefault(stage, []).append((1e3 * elapsed, 1e3 * elapsed * REFERENCE_S / min(before, after)))
    return result


def one_run(make, n, times):
    """Time every stage once on a fresh list of the family made by make(n), adding to times[stage]."""
    fam = _timed(times, "construct", lambda: make(n))
    v = VerblunskySequence(fam.v.a, fam.v.omega)
    theta = _timed(times, "quadrature", lambda: v.quadrature)[0]
    z = unit_points(theta)
    _timed(times, "ladder_values", lambda: ladder_values(v, z))
    data = _run("weights", lambda: weights(v, spectrum(v)))
    _timed(times, "orthogonality_residual", lambda: orthogonality_residual(v, data))
    _timed(times, "paraorthogonality_residual", lambda: paraorthogonality_residual(v))
    if fam.persymmetric:
        _timed(times, "reconstruct_persymmetric", lambda: reconstruct_persymmetric(theta, v.omega))


def sweep(n_max):
    """(rows, errors): one row per (family, n, stage) timed, one error string per stage that raised."""
    grid = [8 << i for i in range((n_max // 8).bit_length())]
    rows, errors = [], []
    for n in grid:
        for family, make in FAMILIES.items():
            times = {}
            try:
                one_run(make, n, {})  # a warm-up, untimed: the first run of a cell pays for cold caches
                for _ in range(RUNS):
                    one_run(make, n, times)
            except StageError as exc:
                errors.append(f"{family} n = {n} {exc}")
            for stage in STAGES:
                if stage in times:
                    t, scaled = zip(*times[stage])
                    row = {"family": family, "n": n, "stage": stage, "median_ms": round(statistics.median(t), 4),
                           "best_ms": round(min(t), 4), "worst_ms": round(max(t), 4), "runs": len(t),
                           "scaled_median_ms": round(statistics.median(scaled), 4)}
                    rows.append(row)
                    print(f"{family:>27} {n:>5} {stage:>27} {row['median_ms']:>10.3f} ms"
                          f"  ({row['best_ms']:.3f} to {row['worst_ms']:.3f}, {len(t)} runs)"
                          f"  scaled {row['scaled_median_ms']:.3f} ms", flush=True)
    return rows, errors


def write(doc, path):
    """doc, a dict of labels, as JSON with one row per line."""
    labels = []
    for label, entry in doc.items():
        rows = ",\n".join(f"   {json.dumps(row)}" for row in entry["rows"])
        labels.append(f' {json.dumps(label)}: {{\n  "settings": {json.dumps(entry["settings"])},\n'
                      f'  "errors": {json.dumps(entry["errors"])},\n  "rows": [\n{rows}\n  ]\n }}')
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(labels) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n-max", type=int, default=1024, help="largest n of the grid 8, 16, 32, ...")
    parser.add_argument("--out", help="JSON file to write the rows into, under --label")
    parser.add_argument("--label", default="current", help="key of this sweep in --out")
    args = parser.parse_args()
    if args.n_max < 8:
        parser.error("need --n-max >= 8")

    rows, errors = sweep(args.n_max)
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc[args.label] = {
            "settings": {
                "runs": RUNS,
                "reference_s": REFERENCE_S,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "rows": rows,
            "errors": errors,
        }
        write(doc, args.out)
    for line in errors:
        print(f"stage error: {line}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
