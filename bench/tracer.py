"""Spans around popuc's public functions, recorded from outside the package.

Each traced function is replaced, in every popuc module that holds a
reference to it, by a wrapper that records a span.  Modules look their
imports up by global name at call time, so a call from ``spectrum`` to
``roots`` or from ``reconstruct_persymmetric`` to ``build_system`` goes
through the wrapper and gets its own child span.  A span's self time is
its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from types import ModuleType

# (module, function) -> span name; the family constructors share one name
TRACED = {
    ("complex_poly", "roots"): "complex_poly.roots",
    ("complex_poly", "lagrange_interpolate"): "complex_poly.lagrange_interpolate",
    ("complex_poly", "from_roots"): "complex_poly.from_roots",
    ("opuc_core", "build_system"): "opuc_core.build_system",
    ("opuc_core", "spectrum"): "opuc_core.spectrum",
    ("opuc_core", "weights"): "opuc_core.weights",
    ("opuc_core", "orthogonality_residual"): "opuc_core.orthogonality_residual",
    ("mirror", "verify_persymmetry_characterizations"): "mirror.verify_persymmetry_characterizations",
    ("mirror", "persymmetric_weights"): "mirror.persymmetric_weights",
    ("cmv", "verify_mirror_relations"): "cmv.verify_mirror_relations",
    ("cmv", "persymmetric_sign_pattern"): "cmv.persymmetric_sign_pattern",
    ("inverse_spectral", "reconstruct_persymmetric"): "inverse_spectral.reconstruct_persymmetric",
    ("families", "free_family"): "families.construct",
    ("families", "single_moment"): "families.construct",
    ("families", "single_moment_dual"): "families.construct",
    ("families", "single_moment_persymmetric"): "families.construct",
    ("families", "krawtchouk_family"): "families.construct",
    ("cli", "main"): "cli.main",
}


class Tracer:
    """Installs span wrappers into the popuc modules and aggregates per operation."""

    def __init__(self, package: ModuleType):
        prefix = package.__name__ + "."
        self._modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._stack: list[list] = []  # open spans: [name, start, child_time, id]
        self._next_id = 0
        self._op = -1
        self._keep = False
        self.op_stats: dict[str, list] = {}
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end, failed)

    def install(self) -> None:
        originals = {}
        for (mod, fn), span in TRACED.items():
            module = sys.modules[f"{self._modules[0].__name__}.{mod}"]
            originals[id(getattr(module, fn))] = self._wrap(getattr(module, fn), span)
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def begin_op(self, op: int, keep_spans: bool) -> None:
        """Start aggregating operation ``op``: span name -> [self seconds, calls, failed].

        With ``keep_spans`` every span of the operation is also appended to
        ``spans``; the spans of one operation share its index.
        """
        self.op_stats = defaultdict(lambda: [0.0, 0, 0])
        self._op = op
        self._keep = keep_spans

    def _wrap(self, fn, span: str):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [span, clock(), 0.0, self._next_id]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                entry = self.op_stats[span]
                entry[0] += duration - frame[2]
                entry[1] += 1
                entry[2] += failed
                if self._keep:
                    parent = stack[-1][3] if stack else 0
                    self.spans.append((self._op, frame[3], parent, span, frame[1], end, failed))

        return wrapper
