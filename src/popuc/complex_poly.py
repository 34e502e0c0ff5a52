"""Points on the unit circle, plus a small monomial-coefficient layer.

Nodes travel through the pipeline as a float64 array of angles theta.
``node_angles`` is the one gate for caller-supplied angles (finite, strictly
increasing), ``wrap_angles`` the one convention for where an angle lies ([0, 2 pi),
seam at 0), and ``unit_points`` turns angles into cos theta + i sin theta.
``Polynomial`` (ascending coefficients), ``roots``, ``from_roots`` and
``lagrange_interpolate`` are not called by any pipeline stage; they serve
the tests as independent checks.  ``roots`` takes the eigenvalues of
the companion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateNodesError, ShapeError
from .tolerances import NODE_SEPARATION, RESIDUAL, UNIMODULAR

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Dense complex polynomial; ``coeffs[k]`` multiplies ``z**k``."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ShapeError("coefficient vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(c)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])


@dataclass(frozen=True, order=True)
class UnitCirclePoint:
    """Point exp(i*theta) on the unit circle; theta is kept in [0, 2*pi)."""

    theta: float

    def __post_init__(self) -> None:
        t = float(self.theta)
        if not math.isfinite(t):
            raise ValueError("theta must be finite")
        t = t % TWO_PI
        if t >= TWO_PI:  # the modulo can land exactly on the seam in floats
            t -= TWO_PI
        object.__setattr__(self, "theta", t)

    def __complex__(self) -> complex:
        return complex(np.cos(self.theta), np.sin(self.theta))


def node_angles(nodes: "np.ndarray | Iterable[UnitCirclePoint]") -> np.ndarray:
    """Node angles as float64, once they are real, non-empty, finite and strictly increasing.

    A real ndarray is read as it is.  The branch that reads each point's
    ``.theta`` stays only because ``bench/workloads.py`` passes
    ``UnitCirclePoint`` values to ``reconstruct_persymmetric``.  A
    non-finite angle raises ValueError naming its index, any other fault ShapeError.
    """
    if isinstance(nodes, np.ndarray):
        if nodes.dtype.kind not in "fiu":
            raise ShapeError(f"node angles must be real, got dtype {nodes.dtype}")
        theta = nodes.astype(np.float64, copy=False)
    else:
        theta = np.array([p.theta for p in nodes], dtype=np.float64)
    if theta.ndim != 1 or theta.size < 1:
        raise ShapeError("need at least one node")
    if not np.isfinite(theta).all():
        k = int(np.argmin(np.isfinite(theta)))
        raise ValueError(f"theta must be finite; theta[{k}] is {float(theta[k])!r}")
    if (theta[1:] <= theta[:-1]).any():
        raise ShapeError("nodes must be strictly increasing in theta")
    return theta


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """theta mod 2 pi in [0, 2 pi) as a new array, with 0 for an angle within UNIMODULAR below 2 pi."""
    wrapped = np.mod(theta, TWO_PI)
    wrapped[wrapped > TWO_PI - UNIMODULAR] = 0.0
    return wrapped


def unit_points(theta: np.ndarray) -> np.ndarray:
    """cos theta + i sin theta, elementwise."""
    return np.cos(theta) + 1j * np.sin(theta)


def _horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z, dtype=np.complex128)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _root_residuals(p: Polynomial, z: np.ndarray) -> np.ndarray:
    """|p(z)| / (1 + |p'(z)| |z|) at each z, for p of degree >= 1."""
    pv = np.abs(_horner_many(p.coeffs, z))
    dc = p.coeffs[1:] * np.arange(1, p.degree + 1)
    dv = np.abs(_horner_many(dc, z))
    return pv / (1.0 + dv * np.abs(z))


def roots(p: Polynomial) -> list[complex]:
    """All complex roots, as the eigenvalues of the companion matrix.

    The backward-style residual |p(r)| / (1 + |p'(r)| |r|) must meet
    RESIDUAL for every root, else ConvergenceError.
    """
    n = p.degree
    if n < 1:
        raise ShapeError("root finding needs degree >= 1")
    if abs(p.leading) == 0.0:
        raise ShapeError("leading coefficient must be nonzero")
    companion = np.diag(np.ones(n - 1, dtype=np.complex128), -1)
    companion[:, -1] = -p.coeffs[:-1] / p.leading
    z = np.linalg.eigvals(companion)
    worst = float(np.max(_root_residuals(p, z)))
    if worst > RESIDUAL:
        raise ConvergenceError("root residual above tolerance", worst)
    return [complex(r) for r in z]


def from_roots(rts: Iterable[complex]) -> Polynomial:
    """Monic polynomial with the given roots (empty product gives 1)."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rts:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0.0j]))
    return Polynomial(coeffs)


def lagrange_interpolate(nodes: Sequence, values: Sequence) -> Polynomial:
    """Interpolating polynomial through (nodes[k], values[k]).

    Newton divided differences, expanded to monomial coefficients.  Nodes
    closer than NODE_SEPARATION are rejected as degenerate.
    """
    x = np.asarray(nodes, dtype=np.complex128)
    y = np.asarray(values, dtype=np.complex128)
    if x.size != y.size:
        raise ShapeError("nodes and values must have the same length")
    if x.size == 0:
        raise ShapeError("need at least one interpolation node")
    m = x.size
    if m > 1:
        dist = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(dist, np.inf)
        closest = float(np.min(dist))
        if closest <= NODE_SEPARATION:
            raise DegenerateNodesError(f"nodes only {closest:.3e} apart")
    dd = y.copy()
    for j in range(1, m):
        dd[j:] = (dd[j:] - dd[j - 1 : m - 1]) / (x[j:] - x[: m - j])
    coeffs = np.array([dd[m - 1]])
    for k in range(m - 2, -1, -1):
        coeffs = np.convolve(coeffs, np.array([-x[k], 1.0 + 0.0j]))
        coeffs[0] += dd[k]
    return Polynomial(coeffs)
