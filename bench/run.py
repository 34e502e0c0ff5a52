"""popuc benchmark: one workload per run, timed from outside the package.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each workload is a fixed list of operations (``workloads.py``).  The run
passes over the list again and again for ``--seconds`` and checks every
output of every pass.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` the run
alternates plain and traced passes and reports the per-layer metrics.
``--smoke`` runs the oracle self-test and every workload for a pass or two.
See README.md for the timing rule and the metrics.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP before numpy loads; set-up probes inherit the environment
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import REFERENCE_S, time_reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3    # fewest passes (of each kind, when tracing) in a run
PROBES = 7        # fresh-interpreter set-up probes, spread through the run
PROBE_TIMEOUT = 60.0
WORKLOADS = ("quadrature", "self_dual", "families", "cli")

# per-layer metrics: (span, what); "ms" is self time per operation
LAYER_METRICS = (
    ("complex_poly.roots", "ms"),
    ("complex_poly.roots", "failed"),
    ("complex_poly.lagrange_interpolate", "ms"),
    ("complex_poly.from_roots", "ms"),
    ("opuc_core.build_system", "ms"),
    ("opuc_core.spectrum", "ms"),
    ("opuc_core.spectrum", "calls"),
    ("opuc_core.weights", "ms"),
    ("opuc_core.weights", "failed"),
    ("opuc_core.orthogonality_residual", "ms"),
    ("mirror.verify_persymmetry_characterizations", "ms"),
    ("mirror.persymmetric_weights", "ms"),
    ("cmv.verify_mirror_relations", "ms"),
    ("cmv.persymmetric_sign_pattern", "ms"),
    ("inverse_spectral.reconstruct_persymmetric", "ms"),
    ("inverse_spectral.reconstruct_persymmetric", "failed"),
    ("families.construct", "ms"),
    ("families.construct", "failed"),
    ("cli.main", "ms"),
)
LAYER_UNITS = {"ms": "ms/op", "calls": "calls/op", "failed": "fails/op"}


def import_popuc():
    """Import popuc from this checkout's ``src``, or exit without a result."""
    if not (SRC / "popuc" / "__init__.py").is_file():
        sys.exit(f"bench: no popuc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import popuc

    if Path(popuc.__file__).resolve().parent != (SRC / "popuc").resolve():
        sys.exit(f"bench: imported popuc from {popuc.__file__}, not from {SRC}")
    return popuc


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def run_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import popuc and run operation 0:
    (at reference speed, wall)."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    reference = float(proc.stdout.split()[-1])
    return elapsed * REFERENCE_S / reference, elapsed


class Measurement:
    """Per-operation times of every pass, plus what went wrong."""

    def __init__(self, count: int):
        self.scaled: list[list[float]] = [[] for _ in range(count)]  # seconds at reference speed
        self.wall_best = [float("inf")] * count
        self.reference: list[float] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, str] = {}   # first error of each failed operation
        self.wrong: dict[int, str] = {}      # first bad output of each operation
        self.layers: list[list[tuple[float, dict]]] = []  # traced: per pass, per op (scale, stats)
        self.warnings = 0
        self.spans: list[tuple] = []

    def op_seconds(self) -> np.ndarray:
        """An operation's time: the median over passes of its scaled time."""
        return np.array([statistics.median(t) for t in self.scaled])

    def ops_per_s(self) -> float:
        return len(self.scaled) / float(np.sum(self.op_seconds()))


def one_pass(ops, m: Measurement, tracer=None, keep_spans: bool = False) -> None:
    gc.collect()
    clock = time.perf_counter
    before = time_reference()
    layers = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, keep_spans)
        error = None
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # a failure of the program is counted, not fatal
            error = exc
        elapsed = clock() - start
        after = time_reference()
        scale = REFERENCE_S / min(before, after)
        before = after
        m.reference.append(after)
        m.scaled[i].append(elapsed * scale)
        m.wall_best[i] = min(m.wall_best[i], elapsed)
        if tracer is not None:
            layers.append((scale, {k: tuple(v) for k, v in tracer.op_stats.items()}))
        m.attempted += 1
        if error is not None:
            m.failed += 1
            m.failures.setdefault(i, f"{type(error).__name__}: {str(error)[:160]}")
        elif (msg := op.check(out)) is not None:
            m.wrong.setdefault(i, msg)
    if tracer is not None:
        m.layers.append(layers)
    m.passes += 1


def traced_pass(ops, m: Measurement, tracer) -> None:
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            one_pass(ops, m, tracer, keep_spans=m.passes == 0)
        m.warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    finally:
        tracer.uninstall()


def measure(ops, workload: str, seed: int, seconds: float, trace: bool, min_passes: int, probes: int):
    """Pass over ``ops`` until ``seconds`` are up, with ``probes`` set-up probes
    spread through the run; returns (plain, traced or None, probe times)."""
    plain = Measurement(len(ops))
    traced = tracer = None
    if trace:
        import popuc
        from tracer import Tracer

        traced, tracer = Measurement(len(ops)), Tracer(popuc)
    probe_times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        if len(probe_times) < probes and now >= len(probe_times) * seconds / probes:
            probe_times.append(run_probe(workload, seed))
        elif traced is not None and traced.passes < plain.passes:
            traced_pass(ops, traced, tracer)
        else:
            one_pass(ops, plain)
        done = time.perf_counter() - start >= seconds and plain.passes >= min_passes
        if done and len(probe_times) >= probes and (traced is None or traced.passes >= plain.passes):
            if traced is not None:
                traced.spans = tracer.spans
            return plain, traced, probe_times


def end_to_end(plain: Measurement, probe_times: list[float]) -> dict:
    ms = plain.op_seconds() * 1e3
    return {
        "setup_s": (statistics.median(scaled for scaled, _ in probe_times), "s"),
        "ops_per_s": (plain.ops_per_s(), "1/s"),
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: Measurement, traced: Measurement) -> dict:
    count = len(traced.scaled)
    # scaled self seconds of each span, summed over the operations of a pass
    per_pass = []
    for layers in traced.layers:
        total: dict[str, float] = defaultdict(float)
        for scale, stats in layers:
            for span, (self_s, _, _) in stats.items():
                total[span] += self_s * scale
        per_pass.append(total)
    metrics = {}
    for span, what in LAYER_METRICS:
        if what == "ms":
            value = statistics.median(t[span] for t in per_pass) * 1e3 / count
        else:  # call and failure counts repeat exactly from pass to pass
            slot = 1 if what == "calls" else 2
            value = sum(stats.get(span, (0, 0, 0))[slot] for _, stats in traced.layers[0]) / count
        metrics[f"{span}.{what}"] = (value, LAYER_UNITS[what])
    metrics["trace.numpy_warnings"] = (traced.warnings, "count")
    metrics["trace.overhead"] = (plain.ops_per_s() / traced.ops_per_s(), "ratio")
    return metrics


def summary(args, ops, plain: Measurement, traced, probe_times) -> dict:
    """What the run did besides the metrics: printed and written to bench/out."""
    ms = plain.op_seconds() * 1e3
    wrong = {**plain.wrong, **(traced.wrong if traced else {})}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(ops),
        "passes": plain.passes,
        "traced_passes": traced.passes if traced else 0,
        "beyond_p90": int(np.sum(ms > np.percentile(ms, 90))),
        "setup_probes_s": [{"scaled": scaled, "wall": wall} for scaled, wall in probe_times],
        "wall_ops_per_s": len(ops) / sum(plain.wall_best),
        "reference_ms": {
            "p5": float(np.percentile(plain.reference, 5)) * 1e3,
            "median": float(np.median(plain.reference)) * 1e3,
        },
        "failed_operations": {f"#{i} {ops[i].label}": msg for i, msg in sorted(plain.failures.items())},
        "wrong_outputs": {f"#{i} {ops[i].label}": msg for i, msg in sorted(wrong.items())},
        "environment": environment(),
    }


def run_workload(args, seconds: float, min_passes: int, probes: int):
    import workloads

    ops = workloads.build(args.workload, args.seed)
    plain, traced, probe_times = measure(
        ops, args.workload, args.seed, seconds, args.trace == 1, min_passes, probes
    )
    metrics = per_layer(plain, traced) if traced else end_to_end(plain, probe_times)
    return ops, plain, traced, probe_times, metrics


def write_record(args, info: dict, metrics: dict, ops, plain: Measurement, traced) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(
        info,
        metrics={k: v for k, (v, _) in metrics.items()},
        operations=[
            {"label": op.label, "ms": t * 1e3, "wall_best_ms": w * 1e3, "failed": i in plain.failures}
            for i, (op, t, w) in enumerate(zip(ops, plain.op_seconds(), plain.wall_best))
        ],
    )
    if traced is not None:
        record["spans_of_first_traced_pass"] = [
            {"op": op, "id": sid, "parent": parent, "name": name, "start": t0, "end": t1, "failed": bool(f)}
            for op, sid, parent, name, t0, t1, f in traced.spans
        ]
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def smoke(args) -> int:
    """Oracle self-test, then one plain and one traced pass of every workload."""
    import selftest

    ok = selftest.main() == 0
    for name in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            ops, plain, traced, probe_times, metrics = run_workload(args, 0.0, 1, 0 if trace else 1)
            info = summary(args, ops, plain, traced, probe_times)
            ok = ok and not info["wrong_outputs"]
            shown = ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in list(metrics.items())[:5])
            print(
                f"smoke {name:10s} trace {trace}: {'WRONG' if info['wrong_outputs'] else 'ok'}, "
                f"{len(ops)} operations, {len(info['failed_operations'])} failed; {shown}"
            )
            for label, msg in info["wrong_outputs"].items():
                print(f"    wrong: {label}: {msg}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test, then every workload briefly")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import_popuc()
    if args.smoke:
        return smoke(args)

    ops, plain, traced, probe_times, metrics = run_workload(
        args, args.seconds, MIN_PASSES, 0 if args.trace else PROBES
    )
    info = summary(args, ops, plain, traced, probe_times)
    path = write_record(args, info, metrics, ops, plain, traced)
    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": not info["wrong_outputs"],
        "attempted": plain.attempted + (traced.attempted if traced else 0),
        "failed": plain.failed + (traced.failed if traced else 0),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
