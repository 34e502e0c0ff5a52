"""Finite paraorthogonal systems on the unit circle.

A system is generated from truncated Verblunsky data (a_0 .. a_{N-1} in the
open unit disc, plus a unimodular closure parameter omega) by the Szego
recurrence

    Phi_{n+1}(z) = z Phi_n(z) - conj(a_n) Phi_n^*(z),

where the final step substitutes a_N = omega.  That closure pushes every
root of Phi_{N+1} onto the unit circle and turns the system into an
(N+1)-point discrete orthogonality problem.  The nodes are computed as the
eigenvalues of the unitary CMV matrix U = M2 M1, whose characteristic
polynomial is Phi_{N+1} (Cantero-Moral-Velazquez 2003); the weights are the
Christoffel numbers, from the ladder's values at the nodes.  Those values
come from the same recurrence run on numbers rather than coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .complex_poly import TWO_PI, Polynomial, UnitCirclePoint, as_complex_array, star
from .errors import ShapeError, SpectralValidityError, WeightError
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class VerblunskySequence:
    """Truncated coefficient data: a_0 .. a_{N-1} plus unimodular omega."""

    a: np.ndarray
    omega: complex

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.a, dtype=np.complex128))
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError("need at least one Verblunsky coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Verblunsky coefficients must be finite")
        mags = np.abs(arr)
        if np.any(mags > 1.0 - DEFAULT.verblunsky_margin):
            k = int(np.argmax(mags))
            raise ValueError(f"|a_{k}| = {mags[k]!r} violates the strict bound |a| < 1")
        w = complex(self.omega)
        if abs(abs(w) - 1.0) > DEFAULT.unimodular:
            raise ValueError(f"|omega| = {abs(w)!r} is not unimodular")
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "omega", w)

    @property
    def n(self) -> int:
        return self.a.size


@dataclass(frozen=True, eq=False)
class OpucSystem:
    """Verblunsky data with the squared norms h_0 .. h_N, built from v alone in O(N).

    The ladder ``phis`` is run on first access; the spectral stages read only v and h.
    """

    v: VerblunskySequence
    h: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", squared_norms(self.v.a))

    @cached_property
    def phis(self) -> tuple[Polynomial, ...]:
        """The ladder Phi_0 .. Phi_{N+1}, through the closure a_N = omega."""
        v = self.v
        phis = [Polynomial(np.array([1.0 + 0.0j]))]
        for k in range(v.n + 1):
            a_k = v.omega if k == v.n else complex(v.a[k])
            prev = phis[-1].coeffs
            nxt = np.zeros(k + 2, dtype=np.complex128)
            nxt[1:] = prev
            nxt[: k + 1] -= np.conj(a_k) * np.conj(prev[::-1])  # star(prev, k)
            phis.append(Polynomial(nxt))
        return tuple(phis)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Theta-sorted unimodular nodes with positive weights summing to one."""

    nodes: tuple[UnitCirclePoint, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(nodes) < 1:
            raise ShapeError("need at least one node")
        thetas = np.array([p.theta for p in nodes])
        if np.any(np.diff(thetas) <= 0.0):
            raise ShapeError("nodes must be strictly increasing in theta")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(nodes),):
            raise ShapeError("one weight per node required")
        if np.any(w <= 0.0):
            raise WeightError(f"non-positive weight {float(np.min(w))!r}")
        total = float(np.sum(w))
        if abs(total - 1.0) > DEFAULT.weight_sum:
            raise WeightError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)


def squared_norms(a: np.ndarray) -> np.ndarray:
    """h_0 .. h_N with h_0 = 1 and h_{k+1} = h_k (1 - |a_k|^2)."""
    h = np.ones(a.size + 1)
    h[1:] = np.cumprod(1.0 - np.abs(a) ** 2)
    return h


def build_system(v: VerblunskySequence) -> OpucSystem:
    """The system of v: squared norms now, the ladder ``phis`` on first use."""
    return OpucSystem(v)


def verblunsky_from_polys(phis: Sequence[Polynomial]) -> np.ndarray:
    """Read coefficients back off the ladder: a_k = -conj(Phi_{k+1}(0))."""
    if len(phis) < 2:
        raise ShapeError("need at least Phi_0 and Phi_1")
    for k, p in enumerate(phis):
        if p.degree != k:
            raise ShapeError(f"entry {k} has degree {p.degree}, expected {k}")
        if abs(p.leading - 1.0) > 1e-9:
            raise ShapeError(f"entry {k} is not monic")
    return np.array([-np.conj(p.coeffs[0]) for p in phis[1:]])


def theta_block(a: complex) -> np.ndarray:
    """2x2 rotation block [[a, rho], [rho, -conj(a)]] with rho = sqrt(1 - |a|^2)."""
    a = np.complex128(a)
    if np.abs(a) >= 1.0 - DEFAULT.verblunsky_margin:
        raise ValueError(f"|a| = {float(np.abs(a))!r} must stay strictly inside the unit disc")
    rho = np.sqrt(1.0 - np.abs(a) ** 2)  # numpy's modulus, as in ``factors``
    return np.array([[a, rho], [rho, -np.conj(a)]], dtype=np.complex128)


def factors(v: VerblunskySequence) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal unitary factors (M1, M2) of the CMV matrix U = M2 @ M1.

    Block k sits at rows k, k+1 and is theta_block(conj(a_k)); M1 carries a
    leading scalar 1 and the odd-index blocks, M2 the even-index blocks.
    Whichever factor runs out of blocks first ends in the scalar conj(omega).
    """
    n, size = v.n, v.n + 1
    m1 = np.zeros((size, size), dtype=np.complex128)
    m2 = np.zeros((size, size), dtype=np.complex128)
    m1[0, 0] = 1.0
    rho = np.sqrt(1.0 - np.abs(v.a) ** 2)
    for m, first in ((m2, 0), (m1, 1)):
        flat = m.reshape(-1)  # views of the main, upper and lower diagonals
        main, upper, lower = flat[:: size + 1], flat[1 :: size + 1], flat[size :: size + 1]
        main[first:n:2] = np.conj(v.a[first::2])
        main[first + 1 :: 2] = -v.a[first::2]
        upper[first::2] = lower[first::2] = rho[first::2]
    (m1 if n % 2 == 1 else m2)[n, n] = np.conj(v.omega)
    return m1, m2


def cmv_matrix(v: VerblunskySequence) -> np.ndarray:
    """The (N+1) x (N+1) unitary five-diagonal matrix U = M2 @ M1."""
    m1, m2 = factors(v)
    return m2 @ m1


def ladder_values(v: VerblunskySequence, z: np.ndarray) -> np.ndarray:
    """Values of Phi_0 .. Phi_N at the points z; row k holds Phi_k.

    The recurrence runs on values, carrying the reversed polynomials along:
    Phi_{k+1} = z Phi_k - conj(a_k) Phi_k^* and
    Phi_{k+1}^* = Phi_k^* - a_k z Phi_k.
    """
    vals = np.empty((v.n + 1, z.size), dtype=np.complex128)
    vals[0] = 1.0
    rev = np.ones(z.size, dtype=np.complex128)
    for k, a_k in enumerate(v.a.tolist()):
        shifted = z * vals[k]
        vals[k + 1] = shifted - a_k.conjugate() * rev
        rev = rev - a_k * shifted
    return vals


def christoffel_weights(vals: np.ndarray, h: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Christoffel numbers w_s = 1 / sum_{k <= N} |Phi_k(z_s)|^2 / h_k.

    vals holds the ladder values at the z_s (``ladder_values``), h the
    squared norms.  The weights are real and positive by construction.  They
    sum to one only when the z_s are the zeros of Phi_{N+1}; a sum off by
    more than tol.weight_sum raises WeightError.
    """
    w = 1.0 / np.sum(np.abs(vals) ** 2 / h[:, None], axis=0)
    total = float(np.sum(w))
    if not abs(total - 1.0) <= tol.weight_sum:
        raise WeightError(f"Christoffel weights sum to {total!r}, expected 1")
    return w


def spectrum(sys: OpucSystem, tol: Tolerances = DEFAULT) -> list[UnitCirclePoint]:
    """Theta-sorted eigenvalues of the CMV matrix, snapped onto the circle.

    They are the roots of Phi_{N+1}.  An eigenvalue whose radius drifts
    from one by more than tol.spectrum_radius raises SpectralValidityError.
    Angles within tol.unimodular below 2 pi are mapped to 0, so a node on
    the seam sorts first whichever side of it rounding put it.
    """
    lam = np.linalg.eigvals(cmv_matrix(sys.v))
    drift = float(np.max(np.abs(np.abs(lam) - 1.0)))
    if drift > tol.spectrum_radius:
        raise SpectralValidityError(f"eigenvalue radius off the circle by {drift:.3e}")
    theta = np.angle(lam) % TWO_PI
    theta[theta > TWO_PI - tol.unimodular] = 0.0
    return [UnitCirclePoint(t) for t in np.sort(theta).tolist()]


def weights(sys: OpucSystem, nodes: Sequence[UnitCirclePoint], tol: Tolerances = DEFAULT) -> SpectralData:
    """Quadrature weights at the nodes: the Christoffel numbers of the system.

    See ``christoffel_weights``; SpectralData further requires the nodes to
    be strictly increasing in theta.
    """
    vals = ladder_values(sys.v, as_complex_array(nodes))
    return SpectralData(tuple(nodes), christoffel_weights(vals, sys.h, tol))


def paraorthogonality_residual(sys: OpucSystem) -> float:
    """Max coefficient magnitude of star(Phi_{N+1}) + omega * Phi_{N+1}, relative.

    The closure a_N = omega forces Phi_{N+1}^* = -omega Phi_{N+1}, so this
    vanishes for every valid system regardless of omega's phase.  The defect
    is divided by max(1, max |coefficient of Phi_{N+1}|), so at large N,
    where the coefficients grow, rounding does not read as a defect.
    """
    top = sys.phis[-1]
    resid = star(top, top.degree).coeffs + sys.v.omega * top.coeffs
    return float(np.max(np.abs(resid))) / max(1.0, float(np.max(np.abs(top.coeffs))))


def orthogonality_residual(sys: OpucSystem, data: SpectralData) -> float:
    """Max deviation of the weighted Gram matrix of Phi_0 .. Phi_N from diag(h)."""
    vals = ladder_values(sys.v, as_complex_array(data.nodes))
    gram = (vals * data.weights) @ np.conj(vals.T)
    gram[np.diag_indices_from(gram)] -= sys.h
    return float(np.max(np.abs(gram)))
