"""Complex polynomial arithmetic used throughout the package.

Coefficients are stored in ascending degree order.  Root finding is an
Aberth-Ehrlich simultaneous iteration; all degrees in this package stay
small (below roughly 70), so the solver favors robustness over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateNodesError, ShapeError
from .tolerances import DEFAULT, Tolerances

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

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


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

    @property
    def value(self) -> complex:
        return complex(np.cos(self.theta), np.sin(self.theta))

    def __complex__(self) -> complex:
        return self.value

    @classmethod
    def from_complex(cls, z: complex, radius_slack: float = DEFAULT.spectrum_radius) -> "UnitCirclePoint":
        """Snap a near-unimodular number onto the circle, keeping its argument."""
        drift = abs(abs(z) - 1.0)
        if drift > radius_slack:
            raise ValueError(f"|z| is {drift:.3e} away from the unit circle")
        return cls(float(np.angle(z)))


def as_complex_array(points: Iterable) -> np.ndarray:
    """Coerce a sequence of numbers or UnitCirclePoint values to complex128."""
    if isinstance(points, np.ndarray):
        return points.astype(np.complex128)
    return np.array([complex(p) for p in points], dtype=np.complex128)


def evaluate(p: Polynomial, z: complex) -> complex:
    """Evaluate p at a scalar z with Horner's nested scheme."""
    acc = 0.0 + 0.0j
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def _horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z, dtype=np.complex128)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def star(p: Polynomial, n: int) -> Polynomial:
    """Conjugate reversal z^n * conj(p)(1/z) at formal degree n.

    Involutive on polynomials of degree <= n; the formal degree matters
    because trailing zeros of p become leading zeros of the result.
    """
    if p.degree > n:
        raise ShapeError(f"formal degree {n} is below the actual degree {p.degree}")
    padded = np.zeros(n + 1, dtype=np.complex128)
    padded[: p.degree + 1] = p.coeffs
    return Polynomial(np.conj(padded[::-1]))


def derivative_at(p: Polynomial, z: complex) -> complex:
    """Value of p' at z (exact coefficient differentiation, then Horner)."""
    if p.degree == 0:
        return 0.0 + 0.0j
    dc = p.coeffs[1:] * np.arange(1, p.degree + 1)
    acc = 0.0 + 0.0j
    for c in dc[::-1]:
        acc = acc * z + c
    return complex(acc)


def _root_residuals(p: Polynomial, z: np.ndarray) -> np.ndarray:
    pv = np.abs(_horner_many(p.coeffs, z))
    if p.degree == 0:
        return pv
    dc = p.coeffs[1:] * np.arange(1, p.degree + 1)
    dv = np.abs(_horner_many(dc, z))
    return pv / (1.0 + dv * np.abs(z))


def roots(p: Polynomial, tol: Tolerances = DEFAULT) -> list[complex]:
    """All complex roots by Aberth-Ehrlich simultaneous iteration.

    Initial guesses sit on a circle sized by the Cauchy coefficient bound,
    rotated off any coefficient symmetry.  Iteration stops once every
    simultaneous correction drops below ``tol.aberth_correction`` (cap
    ``tol.aberth_sweeps`` sweeps), and the backward-style residual
    |p(r)| / (1 + |p'(r)| |r|) must meet ``tol.residual`` for every root.
    """
    n = p.degree
    if n < 1:
        raise ShapeError("root finding needs degree >= 1")
    if abs(p.leading) == 0.0:
        raise ShapeError("leading coefficient must be nonzero")
    c = p.coeffs / p.leading
    converged = True
    if n == 1:
        z = np.array([-c[0]])
    else:
        bound = 1.0 + float(np.max(np.abs(c[:-1])))
        k = np.arange(n)
        z = 0.7 * bound * np.exp(1j * (TWO_PI * (k + 0.25) / n + 0.4))
        dc = c[1:] * np.arange(1, n + 1)
        converged = False
        for _ in range(tol.aberth_sweeps):
            pv = _horner_many(c, z)
            dv = _horner_many(dc, z)
            dv = np.where(np.abs(dv) < 1e-290, 1e-290, dv)
            newton = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            diff = np.where(np.abs(diff) < 1e-290, 1e-290, diff)
            recip = 1.0 / diff
            np.fill_diagonal(recip, 0.0)
            den = 1.0 - newton * recip.sum(axis=1)
            den = np.where(np.abs(den) < 1e-290, 1.0, den)
            corr = newton / den
            z = z - corr
            if float(np.max(np.abs(corr))) < tol.aberth_correction:
                converged = True
                break
    worst = float(np.max(_root_residuals(p, z)))
    if worst > tol.residual:
        # corrections may dither at rounding level without formally
        # converging; only a failed residual contract is fatal
        what = "root residual above tolerance" if converged else "iteration hit the sweep cap"
        raise ConvergenceError(what, worst)
    return [complex(r) for r in z]


def from_roots(rts: Iterable[complex]) -> Polynomial:
    """Monic polynomial with the given roots (empty product gives 1)."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rts:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0.0j]))
    return Polynomial(coeffs)


def lagrange_interpolate(nodes: Sequence, values: Sequence, tol: Tolerances = DEFAULT) -> Polynomial:
    """Interpolating polynomial through (nodes[k], values[k]).

    Newton divided differences, expanded to monomial coefficients.  Nodes
    closer than ``tol.node_separation`` are rejected as degenerate.
    """
    x = as_complex_array(nodes)
    y = as_complex_array(values)
    if x.size != y.size:
        raise ShapeError("nodes and values must have the same length")
    if x.size == 0:
        raise ShapeError("need at least one interpolation node")
    m = x.size
    if m > 1:
        dist = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(dist, np.inf)
        closest = float(np.min(dist))
        if closest <= tol.node_separation:
            raise DegenerateNodesError(f"nodes only {closest:.3e} apart")
    dd = y.copy()
    for j in range(1, m):
        dd[j:] = (dd[j:] - dd[j - 1 : m - 1]) / (x[j:] - x[: m - j])
    coeffs = np.array([dd[m - 1]])
    for k in range(m - 2, -1, -1):
        coeffs = np.convolve(coeffs, np.array([-x[k], 1.0 + 0.0j]))
        coeffs[0] += dd[k]
    return Polynomial(coeffs)
