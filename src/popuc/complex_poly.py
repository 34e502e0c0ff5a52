"""Points on the unit circle, and three monomial-coefficient helpers.

Nodes travel through the pipeline as a float64 array of angles theta.
``node_angles`` is the one gate for caller-supplied angles (finite, strictly
increasing), ``wrap_angles`` the one convention for where an angle lies ([0, 2 pi),
seam at 0), and ``unit_points`` turns angles into cos theta + i sin theta.
``roots``, ``from_roots`` and ``lagrange_interpolate`` work on ascending
coefficient arrays.  No pipeline stage calls them, nor builds a ``UnitCirclePoint``;
``popuc`` does not export them, and they stay because ``bench/`` reads them here.
``roots`` takes the eigenvalues of the companion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateNodesError, ShapeError
from .tolerances import NODE_SEPARATION, RESIDUAL, UNIMODULAR

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
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


def node_angles(nodes: "np.ndarray | Sequence[float] | Sequence[UnitCirclePoint]") -> np.ndarray:
    """Node angles as float64, once they are real, non-empty, finite and strictly increasing.

    A real ndarray is read as it is, a sequence of real numbers as its
    array.  The branch that reads each point's ``.theta`` stays only because
    ``bench/workloads.py`` passes ``UnitCirclePoint`` values to
    ``reconstruct_persymmetric``.  A non-finite angle raises ValueError
    naming its index, any other fault ShapeError; an angle given twice is named.
    """
    if isinstance(nodes, np.ndarray):
        if nodes.dtype.kind not in "fiu":
            raise ShapeError(f"node angles must be real, got dtype {nodes.dtype}")
        theta = nodes.astype(np.float64, copy=False)
    else:
        try:
            theta = np.array([p.theta for p in nodes], dtype=np.float64)
        except (AttributeError, TypeError):  # not points: the branch above gates the array
            try:
                arr = np.array(nodes)
            except ValueError:  # a ragged nesting
                raise ShapeError("node angles must be a flat sequence of real numbers") from None
            return node_angles(arr)
    if theta.ndim != 1 or theta.size < 1:
        raise ShapeError("need at least one node")
    if not np.isfinite(theta).all():
        k = int(np.argmin(np.isfinite(theta)))
        raise ValueError(f"theta must be finite; theta[{k}] is {float(theta[k])!r}")
    if (theta[1:] <= theta[:-1]).any():
        tied = theta[1:] == theta[:-1]
        twice = f"; theta {float(theta[np.argmax(tied)])!r} is given twice" if tied.any() else ""
        raise ShapeError(f"nodes must be strictly increasing in theta{twice}")
    return theta


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """theta mod 2 pi in [0, 2 pi) as a new array, with 0 for an angle within UNIMODULAR below 2 pi."""
    wrapped = np.mod(theta, TWO_PI)
    wrapped[wrapped > TWO_PI - UNIMODULAR] = 0.0
    return wrapped


def unit_points(theta: np.ndarray) -> np.ndarray:
    """cos theta + i sin theta, elementwise."""
    return np.cos(theta) + 1j * np.sin(theta)


def _exp_i(arg: float) -> complex:
    """exp(i arg), exactly 1, i, -1 or -i with +0.0 parts at a whole number of quarter turns, so real data stay real."""
    w = complex(np.exp(1j * arg))
    return complex(round(w.real), round(w.imag)) if (4.0 * arg / TWO_PI).is_integer() else w


def roots(coeffs: "np.ndarray | Sequence[complex]") -> list[complex]:
    """All complex roots of sum_k coeffs[k] z^k, as the eigenvalues of the companion matrix.

    coeffs must be finite (else ValueError) and one-dimensional, of degree
    >= 1 with a non-zero leading coefficient (else ShapeError).  The
    backward-style residual |p(r)| / (1 + |p'(r)| |r|) must meet RESIDUAL
    for every root, else ConvergenceError.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size < 2:
        raise ShapeError("root finding needs a coefficient vector of degree >= 1")
    if not np.isfinite(c).all():
        raise ValueError("polynomial coefficients must be finite")
    if c[-1] == 0.0:
        raise ShapeError("leading coefficient must be nonzero")
    companion = np.diag(np.ones(c.size - 2, dtype=np.complex128), -1)
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)
    p = c[::-1]  # descending, as np.polyval reads it
    slope = np.abs(np.polyval(np.polyder(p), z)) * np.abs(z)
    worst = float(np.max(np.abs(np.polyval(p, z)) / (1.0 + slope)))
    if worst > RESIDUAL:
        raise ConvergenceError("root residual above tolerance", worst)
    return [complex(r) for r in z]


def from_roots(rts: Iterable[complex]) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given roots (empty product gives [1])."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rts:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0.0j]))
    return coeffs


def lagrange_interpolate(nodes: Sequence, values: Sequence) -> np.ndarray:
    """Ascending coefficients of the interpolating polynomial through (nodes[k], values[k]).

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
    return coeffs
