"""Inverse spectral reconstruction for persymmetric systems.

A persymmetric system is determined by its node set alone: its weights are
sqrt(h_N) / |Phi'_{N+1}(z_s)|, and only its first ceil(N/2) coefficients
are free.  The recovery solves the unitary inverse eigenvalue problem
(Ammar, Gragg and Reichel, 1991) for just those coefficients.  It reads the
nodes as a set on the circle, through ``wrap_angles`` and a sort, and checks
what it recovers before it returns: the mirror defect first, then the
spectrum rebuilt forward.  ``ReconstructionResult`` is a plain record.

A spectrum closed under conjugation with omega exactly 1 or -1 belongs to a
real list, since the conjugate of the self-dual list is self-dual with the
same nodes and omega; it is recovered as real data and rebuilt by the real
solve.  Through the command line ``--omega-arg`` gives such an omega at
0 and at pi (3.141592653589793), which ``cli._omega`` rounds to exactly -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complex_poly import UnitCirclePoint, node_angles, unit_points, wrap_angles
from .errors import (
    DegenerateNodesError,
    NotPersymmetricError,
    ShapeError,
    SpectrumInconsistencyError,
    SzegoClassError,
)
from .mirror import _neg_log_derivative, mirrored, persymmetry_defect
from .opuc_core import VerblunskySequence, spectrum, unimodular
from .tolerances import NODE_PRODUCT_DRIFT, NODE_SEPARATION, RECOVERED_DEFECT, RESIDUAL, VERBLUNSKY_MARGIN


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Recovered coefficient data plus the diagnostics of the recovery; ``reconstruct_persymmetric`` checks both."""

    v: VerblunskySequence
    log_h_final: float        # log of the recovered squared norm of Phi_N
    spectrum_residual: float  # max node distance after rebuilding forward

    @property
    def h_final(self) -> float:
        """exp(log_h_final); 0.0 where h_N is below the double range."""
        return float(np.exp(self.log_h_final))


def reconstruct_persymmetric(
    nodes: "np.ndarray | Sequence[float] | Sequence[UnitCirclePoint]", omega: complex
) -> ReconstructionResult:
    """Recover the unique persymmetric system with the given spectrum.

    nodes (angles as an array or a sequence of reals, or UnitCirclePoint
    values) must pass ``node_angles``, are read as a set on the circle
    (sorted after ``wrap_angles``), must number
    at least two, lie at least NODE_SEPARATION apart and have the
    product z_0 ... z_N = (-1)^N / omega (checked to NODE_PRODUCT_DRIFT,
    1e-8); that consistency pins omega to the node set.  The weights are
    sqrt(h_N) / |Phi'_{N+1}(z_s)|, formed in the log domain and normalised,
    which also gives log h_N.  Arnoldi on
    diag(z) from sqrt(w), orthogonalising twice, builds the first ceil(N/2)
    columns of the unitary Hessenberg matrix H; peeling its Givens
    blocks from row 0 (a_k = conj(r_k[k]), r_{k+1} = rho_k r_k - r_k[k] H[k+1])
    reads a_k without dividing by a product of the rho_k.  A peeled
    |a_k| >= 1 - VERBLUNSKY_MARGIN raises SzegoClassError.  ``mirrored``
    gives the rest of the data, a_{N-1-k} = -omega conj(a_k).  A mirror
    defect above RECOVERED_DEFECT raises NotPersymmetricError before the
    system is built forward again; a rebuilt spectrum farther than RESIDUAL
    from the nodes raises it too.  Where omega is exactly 1 or -1, the nodes
    lie within RESIDUAL of their conjugates and no recovered imaginary part
    exceeds RECOVERED_DEFECT, those parts are dropped: the list is real, and
    its rebuild runs in float64.
    """
    thetas = wrap_angles(node_angles(nodes))  # a new array, sorted in place
    thetas.sort()
    count = thetas.size
    if count < 2:
        raise ShapeError("need at least two nodes")
    n_top = count - 1
    w = unimodular("omega", omega)

    z = unit_points(thetas)
    closest = float(np.abs(z - np.concatenate((z[-1:], z[:-1]))).min())  # sorted: the closest pair is adjacent
    if closest <= NODE_SEPARATION:
        raise DegenerateNodesError(f"nodes only {closest:.3e} apart")
    target = (-1.0) ** n_top * np.conj(w)
    drift = abs(complex(z.prod()) - target)
    if drift > NODE_PRODUCT_DRIFT:
        raise SpectrumInconsistencyError(
            f"node product misses (-1)^N / omega by {drift:.3e}"
        )

    # weights w_s = sqrt(h_N) exp(log_w[s]) sum to one, which fixes h_N
    log_w = _neg_log_derivative(z)
    shift = float(log_w.max())
    scaled = np.exp(log_w - shift)
    total = float(scaled.sum())
    log_h_final = float(-2.0 * (shift + np.log(total)))

    free = count // 2
    basis = np.empty((free, count), dtype=np.complex128)  # Arnoldi vectors as rows
    conj_basis = np.empty_like(basis)  # their conjugates, each taken once
    basis[0] = np.sqrt(scaled / total)
    row = np.zeros(free, dtype=np.complex128)  # peeled row r_k in the basis of H's rows 0..k
    row[0] = 1.0
    a = np.empty(n_top, dtype=np.complex128)
    for k in range(free):
        x = z * basis[k]
        np.conj(basis[k], out=conj_basis[k])
        q, q_conj = basis[: k + 1], conj_basis[: k + 1]
        column = q_conj.dot(x)  # H[:k+1, k] is column + again: classical Gram-Schmidt twice
        x -= column.dot(q)
        again = q_conj.dot(x)
        x -= again.dot(q)
        r_kk = complex(row[: k + 1].dot(column + again))
        a[k] = r_kk.conjugate()
        if abs(r_kk) >= 1.0 - VERBLUNSKY_MARGIN:
            raise SzegoClassError(f"recovered |a_{k}| = {abs(r_kk)!r} is not inside the disc")
        if k + 1 < free:
            rho = np.vdot(x, x).real ** 0.5  # H[k+1, k]
            basis[k + 1] = x / rho
            row[: k + 1] *= rho
            row[k + 1] = -r_kk
    a[free:] = mirrored(a[: n_top - free], w)
    real = w.imag == 0.0 and abs(w.real) == 1.0 and float(np.abs(a.imag).max()) <= RECOVERED_DEFECT
    if real and _conjugate_gap(z) <= RESIDUAL:
        a = a.real  # its conjugate is self-dual with the same nodes and omega, so the list is real
    v = VerblunskySequence(a, w)
    defect = persymmetry_defect(v)
    if not defect <= RECOVERED_DEFECT:
        raise NotPersymmetricError(f"recovered data has mirror defect {defect:.3e}")

    rebuilt = spectrum(v)
    spectrum_residual = float(np.abs(unit_points(rebuilt) - z).max())
    if not spectrum_residual <= RESIDUAL:
        raise NotPersymmetricError(
            f"rebuilt spectrum misses the nodes by {spectrum_residual:.3e} (bound {RESIDUAL:.1e})"
        )
    return ReconstructionResult(v, log_h_final, spectrum_residual)


def _conjugate_gap(z: np.ndarray) -> float:
    """Largest distance between the angle-sorted nodes z and their conjugates, matched one to one.

    conj(z[::-1]) lists the conjugates in angle order, except that a node at 1,
    first in z, comes last there; the gap is the closer of the two matchings.
    """
    mirror_z = np.conj(z[::-1])
    in_order = float(np.abs(mirror_z - z).max())
    node_at_one = max(abs(complex(mirror_z[-1] - z[0])), float(np.abs(mirror_z[:-1] - z[1:]).max()))
    return min(in_order, node_at_one)
