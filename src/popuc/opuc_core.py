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
mirror dual.  Real data (real a_k, omega exactly +-1: ``_real_data``) give
a real orthogonal U, solved in real arithmetic.  From SYMMETRIC_SOLVE_N
coefficients on, the factors' symmetry cuts the solve (``symmetric_rows``).
M1 and M2 are complex symmetric, so U is unitarily similar to S D with
S = W^T M2 W and M1 = W D W^T.  For complex data D = I, and one real ``eigh``
of Re S diagonalises the complex symmetric unitary S.  For real data W and S
are real and D = diag(+-1), since M1 is a real reflection; U + U^T commutes
with it, so one half-size ``eigh`` per eigenspace of M1 gives the eigenvectors.

The coefficient list is the system.  A ``VerblunskySequence`` builds its
squared norms, solves U and runs the ladder at its own nodes once, however
many checks read it: ``spectrum``, ``weights``, ``mirror.dual_weights``, the
persymmetry checks and the sign pattern share ``quadrature``, and
``orthogonality_residual`` checks the weights against ``node_values``, the
recurrence at the nodes.  No CMV factor is kept: ``cmv_matrix``, the mirror
relations and ``generate --emit cmv`` each build M1 and M2 with ``factors``
and form U as ``m2.dot(m1)``.  Two-operand products call ``ndarray.dot``,
which reaches the BLAS routine of ``@`` without the matmul gufunc's dispatch,
bit for bit; ``_rows_by_blocks``' stacked product and ``_split_clusters``'
V_g^H (U V_g) stay on ``@``.  Every memo holds arrays only, so no reference
cycle keeps a solve alive.  ``_resolved`` checks each row of |V|^2 once,
where ``weights`` (row 0) or ``mirror.dual_weights`` (row N) hands it out, so
``SpectralData`` is a plain record.  ``phis`` copies the rows of one
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

# Lists of at least this many coefficients are solved through the factors'
# symmetry by ``symmetric_rows``, in float64.  Below it ``eigen_rows`` costs less
# than forming S, and no more than splitting real data on M1's eigenspaces (the
# timing sweeps are in CHANGES.md).
SYMMETRIC_SOLVE_N = 20


@dataclass(frozen=True, eq=False)
class VerblunskySequence:
    """Truncated coefficient data: a_0 .. a_{N-1} plus unimodular omega.

    The list is the finite system itself.  ``a`` is a read-only copy of the
    input, so a memo built from it cannot go stale when the caller's array
    changes.  The squared norms ``h``, the sorted nodes and weights, the
    ladder values at the nodes and the ladder ``phis`` are computed on first
    access and kept here, so every check of one coefficient list shares
    them.  Each memo is a read-only array or a tuple of them, so the list is
    freed by reference counting alone.
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
        h = np.empty(self.n + 1)
        h[0] = 1.0
        (1.0 - np.abs(self.a) ** 2).cumprod(out=h[1:])
        h.flags.writeable = False
        return h

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, rows): the node angles sorted in [0, 2 pi), and rows 0 and N of |V|^2 in their order.

        Both come from one solve of the CMV matrix U: ``symmetric_rows`` for a
        list of at least SYMMETRIC_SOLVE_N coefficients, ``eigen_rows`` below
        it, on U's real part where ``_real_data`` holds.  Row 0 holds the
        weights, row N the weights of the mirror dual; both are read-only.  An
        eigenvalue whose radius drifts from one by more than SPECTRUM_RADIUS
        raises SpectralValidityError.  The angles pass ``wrap_angles``, so a
        node on the seam sorts first; two nodes equal in double precision
        raise SpectralValidityError naming the pair.
        """
        if self.n >= SYMMETRIC_SOLVE_N:
            lam, rows = symmetric_rows(self)
        else:
            lam, rows = eigen_rows(cmv_matrix(self).real.copy() if _real_data(self) else cmv_matrix(self))
        drift = float(np.abs(np.abs(lam) - 1.0).max())
        if not drift <= SPECTRUM_RADIUS:
            raise SpectralValidityError(f"eigenvalue radius off the circle by {drift:.3e}")
        theta = wrap_angles(np.arctan2(lam.imag, lam.real))
        order = theta.argsort()
        theta, rows = theta.take(order), rows.take(order, axis=1)
        tied = theta[1:] == theta[:-1]
        if tied.any():
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
        for k, conj_a_k in enumerate(np.conj(v.a).tolist() + [v.omega.conjugate()]):
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


def inside_disc(name: str, values: "np.complex128 | np.ndarray") -> None:
    """ValueError naming the value (``name_k`` in an array) unless |value| < 1 - VERBLUNSKY_MARGIN."""
    mags = np.abs(values.ravel())
    inside = mags < 1.0 - VERBLUNSKY_MARGIN  # NaN fails too
    if not inside.all():
        k = int(np.argmin(inside))
        label = f"{name}_{k}" if values.ndim else name
        raise ValueError(f"|{label}| = {float(mags[k])!r} must stay strictly inside the unit disc")


def build_system(v: VerblunskySequence) -> VerblunskySequence:
    """v itself: the coefficient list is the system and keeps every memo.

    The name stays because ``bench/workloads.py`` calls it and
    ``bench/tracer.py`` times it by name.
    """
    return v


def factors(v: VerblunskySequence) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal unitary factors (M1, M2) of the CMV matrix U = M2 @ M1.

    Block k sits at rows k, k+1 and is [[conj a_k, rho_k], [rho_k, -a_k]] with
    rho_k = sqrt(1 - |a_k|^2); M1 carries a leading scalar 1 and the odd-index
    blocks, M2 the even-index blocks.  Whichever factor runs out of blocks
    first ends in the scalar conj(omega).
    """
    rho = np.sqrt(1.0 - np.abs(v.a) ** 2)
    return _factor(v, 1, rho), _factor(v, 0, rho)


def _factor(v: VerblunskySequence, first: int, rho: np.ndarray) -> np.ndarray:
    """M1 of ``factors`` for first = 1, M2 for first = 0; rho holds sqrt(1 - |a_k|^2) for every k."""
    n, size = v.n, v.n + 1
    m = np.zeros((size, size), dtype=np.complex128)
    a = v.a[first::2]
    flat = m.reshape(-1)  # views of the main, upper and lower diagonals
    main, upper, lower = flat[:: size + 1], flat[1 :: size + 1], flat[size :: size + 1]
    main[first:n:2] = np.conj(a)
    main[first + 1 :: 2] = -a
    upper[first::2] = lower[first::2] = rho[first::2]
    if first:
        m[0, 0] = 1.0
    if n % 2 == first:
        m[n, n] = np.conj(v.omega)
    return m


def cmv_matrix(v: VerblunskySequence) -> np.ndarray:
    """The (N+1) x (N+1) unitary five-diagonal matrix U = M2 @ M1 of the pair ``factors`` builds."""
    m1, m2 = factors(v)
    return m2.dot(m1)


def eigen_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the unitary u and rows 0 and -1 of |V|^2, V its unit eigenvectors, column by column.

    u is normal, so the Hermitian u + u^H (eigenvalues 2 cos theta_s) has
    the eigenvectors of u: one ``eigh`` gives V, and the eigenvalues are the
    Rayleigh quotients v_s^H u v_s.  cos is two-to-one, so where eigenvalues
    of u + u^H lie closer than 2 EIGEN_CLUSTER (theta and -theta for real
    data) eigh may return any basis of their span, and u is diagonalised
    again on it: pairs in closed form and all at once, or, where some
    cluster holds three or more, every cluster by ``eig`` of V_g^H u V_g.
    Only the two rows are kept, not V.  u is solved in its own dtype: a real
    orthogonal u, which ``quadrature`` hands over where ``_real_data`` holds,
    gives a real symmetric u + u^T, whose ``eigh`` is cheaper than the
    complex one.  The split stays complex, since a real eigenvector pair
    spans theta and -theta.
    """
    c, vec = np.linalg.eigh(u + u.conj().T)
    uv = u.dot(vec)
    lam = np.vecdot(vec, uv, axis=0).astype(np.complex128, copy=False)
    edge = vec[:: vec.shape[0] - 1].astype(np.complex128, copy=False)  # rows 0 and N; a view for complex u
    return _split_close(c[1:] - c[:-1] < 2.0 * EIGEN_CLUSTER, vec, uv, lam, edge)


def _real_data(v: VerblunskySequence) -> bool:
    """The one rule by which both solves take v as real data: real a_k and omega exactly 1 or -1."""
    return not v.a.imag.any() and v.omega in (1.0, -1.0)


def _symmetric_blocks(v: VerblunskySequence) -> tuple[np.ndarray, "complex | None", np.ndarray, np.ndarray]:
    """(wt, last, d, S): the 2x2 blocks of W^T, W's trailing scalar (None if W has none), D's diagonal and S = W^T M2 W.

    W D W^T = M1, and W has M1's block pattern.  Its leading entry is 1.  In
    place of each block [[conj a, rho], [rho, -a]] of M1, with a = x + iy and
    rho = sqrt(1 - |a|^2), it has R(psi / 2) diag(e^{-i phi / 2}, i e^{i phi / 2}),
    where psi = atan2(rho, x) and phi = atan2(y, hypot(x, rho)).  At odd n the
    trailing conj(omega) of M1 becomes sqrt(conj(omega)); D = I.  Real data
    (``_real_data``) take the real rotations R(psi / 2) alone and no trailing
    scalar, so S is real, and d keeps M1's signs: -1 at the second row of each
    block, omega at a trailing scalar, else 1.  S costs O(n^2): W^T mixes the
    rows of M2 two at a time, then the rows of the transpose.
    """
    rho = np.sqrt(1.0 - np.abs(v.a) ** 2)  # as in ``factors``
    a, rho_odd, m2 = v.a[1::2], rho[1::2], _factor(v, 0, rho)  # M2, with no M1 built
    half = 0.5 * np.arctan2(rho_odd, a.real)
    cos, sin = np.cos(half), np.sin(half)
    d = np.ones(v.n + 1)
    if _real_data(v):
        wt = np.empty((a.size, 2, 2))
        wt[:, 0, 0], wt[:, 0, 1], wt[:, 1, 0], wt[:, 1, 1] = cos, sin, -sin, cos
        last, m2 = None, np.ascontiguousarray(m2.real)
        d[2::2] = -1.0  # row N among them at even n
        if v.n % 2:
            d[-1] = v.omega.real
    else:
        d0 = np.exp(-0.5j * np.arctan2(a.imag, np.hypot(a.real, rho_odd)))
        d1 = 1j * d0.conj()
        wt = np.empty((a.size, 2, 2), dtype=np.complex128)
        wt[:, 0, 0], wt[:, 0, 1], wt[:, 1, 0], wt[:, 1, 1] = cos * d0, sin * d0, -sin * d1, cos * d1
        last = np.sqrt(v.omega.conjugate()) if v.n % 2 else None
    m2 = _rows_by_blocks(m2, wt, last)  # W^T M2
    return wt, last, d, _rows_by_blocks(m2.T.copy(), wt, last)  # W^T (W^T M2)^T, as M2 is symmetric


def _rows_by_blocks(x: np.ndarray, wt: np.ndarray, last: "complex | None") -> np.ndarray:
    """x, its rows 2j + 1 and 2j + 2 replaced in place by wt[j] times them, and its last row times last unless None."""
    k = wt.shape[0]
    pairs = x[1 : 2 * k + 1].reshape(k, 2, x.shape[1])
    pairs[...] = wt @ pairs
    if last is not None:
        x[-1] *= last
    return x


def symmetric_rows(v: VerblunskySequence) -> tuple[np.ndarray, np.ndarray]:
    """``eigen_rows`` of v's CMV matrix U = conj(W) S D W^T in float64, through ``_symmetric_blocks``.

    Complex data (D = I): Re S and Im S of the complex symmetric unitary S
    commute, so one real ``eigh`` of Re S gives cos theta_s and a real
    orthogonal eigenbasis O of S, and the eigenvalues are diag(O^T S O), read
    off S as interleaved real and imaginary columns.  Real data (D = diag(d),
    d = +-1): (S D + D S) / 2 is block diagonal, S_PP on P = {d = 1} and
    -S_MM on M = {d = -1}, so one ``eigh`` per block gives O; a node pair
    theta, -theta spans one column of each, side by side once sorted by cos theta.
    conj(W) O holds the unit eigenvectors of U.  Its row 0 is O[0]; row N
    mixes rows N - 1 and N of O by W's last block at even n, and is O[N] times
    a phase, which |.|^2 drops, at odd n.  Clusters in cos theta are split on
    S D as ``eigen_rows`` splits them on U.
    """
    wt, last, d, s = _symmetric_blocks(v)
    if s.dtype == np.float64:  # real data
        sd = s * d  # S D, whose diagonal blocks are S_PP and -S_MM
        plus, minus = (d > 0.0).nonzero()[0], (d < 0.0).nonzero()[0]
        c_plus, o_plus = np.linalg.eigh(sd.take(plus, 0).take(plus, 1))
        c_minus, o_minus = np.linalg.eigh(sd.take(minus, 0).take(minus, 1))
        o = np.zeros((d.size, d.size))
        o[plus, : plus.size], o[minus, plus.size :] = o_plus, o_minus
        c = np.concatenate((c_plus, c_minus))
        order = c.argsort()
        c, o = c.take(order), o.take(order, axis=1)
        so = sd.dot(o)
        lam = np.vecdot(o, so, axis=0).astype(np.complex128)
    else:
        c, o = np.linalg.eigh(s.real)
        so = o.T.dot(s.view(np.float64)).view(np.complex128).T  # (O^T S)^T = S O, S symmetric
        lam = np.vecdot(o, so, axis=0)
    edge = o[:: o.shape[0] - 1].astype(np.complex128)  # rows 0 and N of O
    if not v.n % 2:
        edge[1] = wt[-1, :, 1].conj().dot(o[-2:])  # W[N, N-1:] is column 1 of W^T's last block
    return _split_close(c[1:] - c[:-1] < EIGEN_CLUSTER, o, so, lam, edge)


def _split_close(
    close: np.ndarray, vec: np.ndarray, uv: np.ndarray, lam: np.ndarray, edge: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lam, |edge|^2) once u is diagonalised again where ``close`` links column k with column k + 1."""
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
        lam[g], w = np.linalg.eig(vec[:, g].conj().T @ uv[:, g])  # ``dot`` would change its last bits
        edge[:, g] = edge[:, g].dot(w)


def ladder_values(v: VerblunskySequence, z: np.ndarray) -> np.ndarray:
    """Values of Phi_0 .. Phi_N at the points z; row k holds Phi_k.

    The recurrence runs on values, carrying the reversed polynomials along:
    Phi_{k+1} = z Phi_k - conj(a_k) Phi_k^* and
    Phi_{k+1}^* = Phi_k^* - a_k z Phi_k.  Each rung writes into row k + 1,
    the reversed values and two scratch vectors made once, with the same
    operations on the same operands as fresh temporaries, so no rung allocates.
    An overflow raises OverflowError naming the rung.
    """
    vals = np.empty((v.n + 1, z.size), dtype=np.complex128)
    vals[0] = 1.0
    rev = np.ones(z.size, dtype=np.complex128)
    shifted, scaled = np.empty_like(rev), np.empty_like(rev)
    subtract, multiply = np.subtract, np.multiply
    with np.errstate(over="raise", invalid="raise"):
        for k, a_k in enumerate(v.a.tolist()):
            try:
                multiply(z, vals[k], shifted)
                subtract(shifted, multiply(a_k.conjugate(), rev, scaled), vals[k + 1])
                subtract(rev, multiply(a_k, shifted, scaled), rev)
            except FloatingPointError:
                raise OverflowError(f"ladder values of Phi_{k + 1} overflow the double range") from None
    return vals


def spectrum(v: VerblunskySequence) -> np.ndarray:
    """The node angles ``v.quadrature[0]``, the roots of Phi_{N+1}: sorted, in [0, 2 pi), read-only."""
    return v.quadrature[0]


def weights(v: VerblunskySequence, nodes: np.ndarray) -> SpectralData:
    """Quadrature weights |V[0, s]|^2 at the system's own nodes ``spectrum(v)``.

    v_s is the unit eigenvector of U at node s, so these are the Gauss
    weights of the unit-circle Golub-Welsch rule, read off the solve that
    gave the nodes.  nodes must be those angles, else ValueError: the
    argument stays only for ``bench/workloads.py``.  The SpectralData holds the
    read-only arrays of ``v.quadrature``, made sorted, distinct and finite by
    the solve, once ``_resolved`` passes row 0.
    """
    theta, rows = v.quadrature
    if nodes is not theta and not np.array_equal(node_angles(nodes), theta):
        raise ValueError("weights are defined at the system's own nodes only: pass spectrum(v)")
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

    It depends on Phi_N only through the one closure step:
    Phi_{N+1}^* + omega Phi_{N+1} vanishes for every Phi_N of degree N, so it
    checks that step's rounding and cannot see a defect in an earlier rung.
    At N = 12 (seed 43, omega = e^{0.7i}), moving one coefficient of Phi_5
    by 1e-3 left it at 1.4e-16 (2.2e-16 untouched).
    """
    for top in _ladder_rows(v):
        pass
    resid = np.conj(top[::-1]) + v.omega * top
    return float(np.abs(resid).max()) / max(1.0, float(np.abs(top).max()))


def orthogonality_residual(v: VerblunskySequence, data: SpectralData) -> float:
    """Max deviation of the weighted Gram matrix of Phi_0 .. Phi_N from diag(h).

    The values come from the recurrence, not from the eigenvectors, so this
    checks the weights independently of the solve that produced them.  The
    Gram reads v's own weights, row 0 of ``v.quadrature``: data must come from
    ``weights(v, spectrum(v))``, else ValueError.  An overflow raises OverflowError.
    """
    w = v.quadrature[1][0]
    if not np.array_equal(data.weights, w):
        raise ValueError("orthogonality check: data holds other weights than the system's own")
    vals = v.node_values
    with np.errstate(over="raise", invalid="raise"):
        try:
            gram = (vals * w).dot(np.conj(vals.T))
            gram.reshape(-1)[:: gram.shape[0] + 1] -= v.h  # the diagonal, as a view
            return float(np.abs(gram).max())
        except FloatingPointError:
            raise OverflowError("orthogonality check: the weighted Gram matrix overflows the double range") from None
