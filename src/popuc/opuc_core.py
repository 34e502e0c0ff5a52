"""Finite paraorthogonal systems on the unit circle.

A system is generated from truncated Verblunsky data (a_0 .. a_{N-1} in the
open unit disc, plus a unimodular closure parameter omega) by the Szego
recurrence

    Phi_{n+1}(z) = z Phi_n(z) - conj(a_n) Phi_n^*(z),

where the final step substitutes a_N = omega.  That closure pushes every
root of Phi_{N+1} onto the unit circle and turns the system into an
(N+1)-point discrete orthogonality problem.  Nodes and weights come from
the unitary CMV matrix U = M2 M1, whose characteristic polynomial is
Phi_{N+1} (Cantero-Moral-Velazquez 2003): the nodes are its eigenvalues and
the weight of node s is |V[0, s]|^2 for the unit eigenvector v_s, the
unit-circle Golub-Welsch rule.  U is normal, so one Hermitian eigen-solve of
U + U^H gives V (``eigen_rows``); row N of |V|^2 holds the weights of the
mirror dual.  Real data (real a_k, omega = +-1) give a real orthogonal U,
which ``eigen_rows`` solves in real arithmetic.

The coefficient list is the system.  A ``VerblunskySequence`` builds its
squared norms and CMV factors, solves U and runs the ladder at its own nodes
once, however many checks read it: ``spectrum``, ``weights``,
``mirror.dual_weights``, the persymmetry checks, the mirror relations and
the sign pattern all take the list and share ``VerblunskySequence.quadrature``
and ``cmv_factors``, and ``orthogonality_residual`` checks the weights against
``VerblunskySequence.node_values``, the recurrence at the nodes; U itself is
formed in one place, ``cmv_matrix``.  Every memo holds arrays only, so no
reference cycle keeps a solve alive.  ``_resolved`` checks each row of |V|^2
once, where ``weights`` (row 0) or ``mirror.dual_weights`` (row N) hands it
out, so ``SpectralData`` is a plain record.  ``phis`` copies the rows of one
coefficient recurrence run on one row, whose last row the closure check reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .complex_poly import UnitCirclePoint, node_angles, unit_points, wrap_angles
from .errors import ShapeError, SpectralValidityError, WeightError
from .tolerances import EIGEN_CLUSTER, SPECTRUM_RADIUS, UNIMODULAR, VERBLUNSKY_MARGIN, WEIGHT_SUM


@dataclass(frozen=True, eq=False)
class VerblunskySequence:
    """Truncated coefficient data: a_0 .. a_{N-1} plus unimodular omega.

    The list is the finite system itself.  ``a`` is a read-only copy of the
    input, so a memo built from it cannot go stale when the caller's array
    changes.  The squared norms ``h``, the CMV factors, the sorted nodes and
    weights, the ladder values at the nodes and the ladder ``phis`` are
    computed on first access and kept here, so every check of one
    coefficient list shares them.  Each memo is a read-only array or a tuple
    of them, so the list is freed by reference counting alone.
    """

    a: np.ndarray
    omega: complex

    def __post_init__(self) -> None:
        arr = np.array(self.a, dtype=np.complex128, ndmin=1)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError("need at least one Verblunsky coefficient")
        inside_disc("a", arr)
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "omega", unimodular("omega", self.omega))

    @property
    def n(self) -> int:
        return self.a.size

    @cached_property
    def h(self) -> np.ndarray:
        """The squared norms h_0 .. h_N, h_0 = 1 and h_{k+1} = h_k (1 - |a_k|^2), read-only."""
        h = np.ones(self.n + 1)
        h[1:] = np.cumprod(1.0 - np.abs(self.a) ** 2)
        h.flags.writeable = False
        return h

    @cached_property
    def cmv_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``factors`` (M1, M2) of the CMV matrix U = M2 @ M1, read-only."""
        m1, m2 = factors(self)
        m1.flags.writeable = m2.flags.writeable = False
        return m1, m2

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, rows): the node angles sorted in [0, 2 pi), and rows 0 and N of |V|^2 in their order.

        Both come from one ``eigen_rows`` of the CMV matrix U.  Row 0 holds
        the weights, row N the weights of the mirror dual; both arrays are
        read-only.  An eigenvalue whose radius drifts from one by more than
        SPECTRUM_RADIUS raises SpectralValidityError.  The angles pass
        ``wrap_angles``, so a node on the seam sorts first; two nodes equal in
        double precision raise SpectralValidityError naming the pair.
        """
        lam, rows = eigen_rows(cmv_matrix(self))
        drift = float(np.abs(np.abs(lam) - 1.0).max())
        if not drift <= SPECTRUM_RADIUS:
            raise SpectralValidityError(f"eigenvalue radius off the circle by {drift:.3e}")
        theta = wrap_angles(np.arctan2(lam.imag, lam.real))
        order = theta.argsort()
        theta, rows = theta.take(order), rows.take(order, axis=1)
        tied = theta[1:] == theta[:-1]
        if np.count_nonzero(tied):
            s = int(np.argmax(tied))
            raise SpectralValidityError(
                f"nodes {s} and {s + 1} coincide in double precision at theta {theta[s]}"
            )
        theta.flags.writeable = rows.flags.writeable = False
        return theta, rows

    @cached_property
    def node_values(self) -> np.ndarray:
        """``ladder_values`` at the sorted nodes of ``quadrature``, read-only."""
        vals = ladder_values(self, unit_points(self.quadrature[0]))
        vals.flags.writeable = False
        return vals

    @cached_property
    def phis(self) -> tuple[np.ndarray, ...]:
        """The ladder Phi_0 .. Phi_{N+1}, through the closure a_N = omega.

        Entry k holds the k + 1 ascending coefficients of Phi_k, a read-only
        copy of row k of ``_ladder_rows``, so no zero padding is kept.
        """
        rows = tuple(row.copy() for row in _ladder_rows(self))
        for row in rows:
            row.flags.writeable = False
        return rows


def _ladder_rows(v: VerblunskySequence) -> Iterator[np.ndarray]:
    """Yield Phi_0 .. Phi_{N+1}, a_N = omega, as views of one (N+2)-long row that the next step overwrites.

    Each step runs ``row[-k-2:-1] -= conj(a_k) * conj(phi[::-1])`` in place through one scratch row.
    An overflow raises OverflowError naming the rung before numpy can warn.  That
    error state also holds while the generator waits, so readers only copy or skip rows.
    """
    row = np.zeros(v.n + 2, dtype=np.complex128)
    row[-1] = 1.0  # Phi_k fills the last k + 1 places behind zeros, so z Phi_k needs no shift
    scratch = np.empty_like(row)
    subtract, multiply, conjugate = np.subtract, np.multiply, np.conjugate  # looked up once, not per rung
    with np.errstate(over="raise", invalid="raise"):
        for k, conj_a_k in enumerate(np.conj(np.append(v.a, v.omega)).tolist()):
            phi, tmp, lower = row[-k - 1 :], scratch[: k + 1], row[-k - 2 : -1]
            yield phi
            try:  # z Phi_k - conj(a_k) Phi_k^*
                subtract(lower, multiply(conj_a_k, conjugate(phi[::-1], tmp), tmp), lower)
            except FloatingPointError:
                raise OverflowError(f"ladder coefficients of Phi_{k + 1} overflow the double range") from None
    yield row


@dataclass(frozen=True, eq=False)
class SpectralData:
    """The node angles theta and their weights, as ``weights`` makes them: read-only float64 arrays.

    ``nodes`` gives the same nodes as UnitCirclePoint values, built on first
    access, for ``bench/workloads.py``.
    """

    theta: np.ndarray
    weights: np.ndarray

    @cached_property
    def nodes(self) -> tuple[UnitCirclePoint, ...]:
        return tuple(UnitCirclePoint(t) for t in self.theta.tolist())


def unimodular(name: str, value: complex) -> complex:
    """value as a complex number, once it is within UNIMODULAR of the unit circle.

    Else ValueError names the parameter and its value; NaN fails too.
    """
    w = complex(value)
    if not abs(abs(w) - 1.0) <= UNIMODULAR:
        raise ValueError(f"{name} = {w!r} is not unimodular")
    return w


def inside_disc(name: str, values: "complex | np.ndarray") -> None:
    """ValueError naming the value (``name_k`` in an array) unless |value| < 1 - VERBLUNSKY_MARGIN."""
    mags = np.abs(np.ravel(values))
    inside = mags < 1.0 - VERBLUNSKY_MARGIN  # NaN fails too
    if not inside.all():
        k = int(np.argmin(inside))
        label = f"{name}_{k}" if np.ndim(values) else name
        raise ValueError(f"|{label}| = {float(mags[k])!r} must stay strictly inside the unit disc")


def build_system(v: VerblunskySequence) -> VerblunskySequence:
    """v itself: the coefficient list is the system and keeps every memo.

    The name stays because ``bench/workloads.py`` calls it and
    ``bench/tracer.py`` times it by name.
    """
    return v


def theta_block(a: complex) -> np.ndarray:
    """2x2 rotation block [[a, rho], [rho, -conj(a)]] with rho = sqrt(1 - |a|^2).

    The dense reference form that tests compare ``factors`` against; no pipeline stage calls it.
    """
    a = np.complex128(a)
    inside_disc("a", a)
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
    """The (N+1) x (N+1) unitary five-diagonal matrix U = M2 @ M1, from the factors v keeps."""
    m1, m2 = v.cmv_factors
    return m2 @ m1


def eigen_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the unitary u and rows 0 and -1 of |V|^2, V its unit eigenvectors, column by column.

    u is normal, so the Hermitian u + u^H (eigenvalues 2 cos theta_s) has
    the eigenvectors of u: one ``eigh`` gives V, and the eigenvalues are the
    Rayleigh quotients v_s^H u v_s.  cos is two-to-one, so where eigenvalues
    of u + u^H lie closer than 2 EIGEN_CLUSTER (theta and -theta for real
    data) eigh may return any basis of their span, and u is diagonalised
    again on it: pairs in closed form and all at once, or, where some
    cluster holds three or more, every cluster by ``eig`` of V_g^H u V_g.
    Only the two rows are kept, not V.  A u with no non-zero imaginary entry
    (real Verblunsky data and omega = +-1) is solved in real arithmetic: a
    real orthogonal u gives a real symmetric u + u^T, whose ``eigh`` is
    cheaper than the complex one.  The split stays complex, since a real
    eigenvector pair spans theta and -theta.
    """
    if not u.imag.any():
        u = np.ascontiguousarray(u.real)
    c, vec = np.linalg.eigh(u + u.conj().T)
    uv = u @ vec
    lam = np.vecdot(vec, uv, axis=0).astype(np.complex128, copy=False)
    edge = vec[:: vec.shape[0] - 1].astype(np.complex128, copy=False)  # rows 0 and N; a view for complex u
    close = c[1:] - c[:-1] < 2.0 * EIGEN_CLUSTER  # column k clusters with column k + 1
    if close.any():
        if (close[1:] & close[:-1]).any():
            _split_clusters(vec, uv, close, lam, edge)
        else:
            _split_pairs(vec, uv, np.flatnonzero(close), lam, edge)
    return lam, np.abs(edge) ** 2


def _split_pairs(vec: np.ndarray, uv: np.ndarray, i: np.ndarray, lam: np.ndarray, edge: np.ndarray) -> None:
    """Diagonalise u on each pair of columns i, i + 1, updating lam and edge in place.

    M = V_g^H u V_g is normal; with half = (M00 - M11) / 2 and
    r^2 = half^2 + M01 M10 its eigenvalues are (M00 + M11) / 2 +- r, with
    unit eigenvectors along (half + r, M10) and its orthogonal complement.
    r takes the sign that keeps |half + r| >= |r|.
    """
    j = i + 1
    m01 = np.vecdot(vec[:, :-1], uv[:, 1:], axis=0)[i]
    m10 = np.vecdot(vec[:, 1:], uv[:, :-1], axis=0)[i]
    lam_i, lam_j = lam[i], lam[j]
    half, mean = 0.5 * (lam_i - lam_j), 0.5 * (lam_i + lam_j)
    root = np.sqrt(half * half + m01 * m10)
    root *= np.copysign(1.0, (half.conj() * root).real)
    x, y = half + root, m10
    norm = np.hypot(np.abs(x), np.abs(y))
    x /= norm
    y /= norm
    e_i, e_j = edge[:, i], edge[:, j]
    lam[i], lam[j] = mean + root, mean - root
    edge[:, i] = e_i * x + e_j * y
    edge[:, j] = e_j * x.conj() - e_i * y.conj()


def _split_clusters(
    vec: np.ndarray, uv: np.ndarray, close: np.ndarray, lam: np.ndarray, edge: np.ndarray
) -> None:
    """Diagonalise u by ``eig`` on each run of columns linked by ``close``, updating lam and edge in place."""
    bounds = np.flatnonzero(np.diff(close, prepend=False, append=False)).reshape(-1, 2)
    for start, stop in bounds + [0, 1]:
        g = slice(start, stop)
        lam[g], w = np.linalg.eig(vec[:, g].conj().T @ uv[:, g])
        edge[:, g] = edge[:, g] @ w


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


def spectrum(v: VerblunskySequence) -> np.ndarray:
    """The node angles ``v.quadrature[0]``, the roots of Phi_{N+1}: sorted, in [0, 2 pi), read-only."""
    return v.quadrature[0]


def _own_nodes(v: VerblunskySequence, nodes: np.ndarray) -> None:
    """ValueError unless nodes are the angles ``spectrum(v)``, where v keeps its weights and ladder values.

    nodes has one legal value: this stays only for the two-argument calls of ``bench/workloads.py``.
    """
    theta = v.quadrature[0]
    if nodes is not theta and not np.array_equal(node_angles(nodes), theta):
        raise ValueError("weights are defined at the system's own nodes only: pass spectrum(v)")


def weights(v: VerblunskySequence, nodes: np.ndarray) -> SpectralData:
    """Quadrature weights |V[0, s]|^2 at the system's own nodes ``spectrum(v)``.

    v_s is the unit eigenvector of U at node s, so these are the Gauss
    weights of the unit-circle Golub-Welsch rule, read off the solve that
    gave the nodes.  nodes must be those angles, else ValueError.  The
    SpectralData holds the read-only arrays of ``v.quadrature``, which the
    solve made sorted, distinct and finite, once ``_resolved`` passes row 0.
    """
    _own_nodes(v, nodes)
    theta, rows = v.quadrature
    return SpectralData(theta, _resolved(rows[0], "0"))


def _resolved(w: np.ndarray, row: str) -> np.ndarray:
    """w, the squared moduli of row ``row`` of V, once its entries are positive and sum to one.

    A weight of 0.0 (or NaN) means the eigenvector component is below
    rounding; WeightError names the node and the smallest weight.  A sum off
    one by more than WEIGHT_SUM raises WeightError too.
    """
    if not w.min() > 0.0:
        s = int(np.argmin(w))
        raise WeightError(
            f"weight {float(w[s])!r} at node {s} is below what the eigenvector resolves: "
            f"|V[{row}, {s}]| is lost to rounding in a unit vector"
        )
    total = float(w.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM:
        raise WeightError(f"weights sum to {total!r}, expected 1")
    return w


def paraorthogonality_residual(v: VerblunskySequence) -> float:
    """Max coefficient magnitude of Phi_{N+1}^* + omega * Phi_{N+1}, relative.

    The closure a_N = omega forces Phi_{N+1}^* = -omega Phi_{N+1}, so this
    vanishes for every valid system regardless of omega's phase.  The defect
    is divided by max(1, max |coefficient of Phi_{N+1}|), so at large N,
    where the coefficients grow, rounding does not read as a defect.
    Phi_{N+1} is the last row of ``_ladder_rows``, so O(N) memory suffices.
    """
    for top in _ladder_rows(v):
        pass
    resid = np.conj(top[::-1]) + v.omega * top
    return float(np.max(np.abs(resid))) / max(1.0, float(np.max(np.abs(top))))


def orthogonality_residual(v: VerblunskySequence, data: SpectralData) -> float:
    """Max deviation of the weighted Gram matrix of Phi_0 .. Phi_N from diag(h).

    The values come from the recurrence, not from the eigenvectors, so this
    checks the weights independently of the solve that produced them.  data
    must come from ``weights(v, spectrum(v))``, else ValueError.
    """
    _own_nodes(v, data.theta)
    vals = v.node_values
    gram = (vals * data.weights) @ np.conj(vals.T)
    gram.reshape(-1)[:: gram.shape[0] + 1] -= v.h  # the diagonal, as a view
    return float(np.abs(gram).max())
