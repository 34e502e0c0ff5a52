"""Mirror duality and the persymmetric subclass.

The mirror dual of (a_0 .. a_{N-1}, omega) is (-omega conj(a_{N-1}) ..
-omega conj(a_0), omega), the map ``mirrored``.  Dual data share the final
polynomial, hence the spectrum, while their weights multiply to
h_N / |Phi'_{N+1}|^2 node by node; the dual weights are the squared last
components of the eigenvectors that give the primal weights.  Data equal to
its own dual is called persymmetric; ``make_persymmetric`` builds it from
its free half.  Such a system is pinned down by its spectrum alone, which
drives the inverse problem elsewhere in the package.  Every check here takes
the coefficient list and reads the memos it keeps.  The public closed forms pass
their node angles through ``node_angles``; the characterizations read ``spectrum(v)`` as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_poly import TWO_PI, _exp_i, node_angles, unit_points
from .errors import NotPersymmetricError, ShapeError, WeightError
from .opuc_core import VerblunskySequence, _resolved, inside_disc, spectrum, unimodular
from .tolerances import SELF_DUAL_DEFECT


def principal_sqrt_unimodular(w: complex) -> complex:
    """exp(i arg(w) / 2) with arg taken in (-pi, pi]; exactly i for -1 + 0j and -i for -1 - 0j."""
    return _exp_i(0.5 * np.arctan2(w.imag, w.real))


def mirrored(a: np.ndarray, omega: complex) -> np.ndarray:
    """The mirror map a_k -> -omega conj(a_{N-1-k}) on a coefficient array."""
    return -omega * np.conj(a[::-1])


def mirror_dual(v: VerblunskySequence) -> VerblunskySequence:
    """Reverse, conjugate and twist the coefficient list; omega is kept."""
    return VerblunskySequence(mirrored(v.a, v.omega), v.omega)


def persymmetry_defect(v: VerblunskySequence) -> float:
    """Max distance between the data and its own mirror dual, max |a - mirrored(a, omega)|."""
    return float(np.abs(v.a - mirrored(v.a, v.omega)).max())


def is_persymmetric(v: VerblunskySequence) -> bool:
    """Whether the mirror defect is within SELF_DUAL_DEFECT."""
    return persymmetry_defect(v) <= SELF_DUAL_DEFECT


def _persymmetry_gate(v: VerblunskySequence, self_dual: bool = True) -> None:
    """Raise before any solve where the persymmetric forms are undefined.

    NotPersymmetricError names a mirror defect above SELF_DUAL_DEFECT (when self_dual); WeightError
    names the first h_k that underflows to 0.0, by whose square root the forms divide.
    """
    if self_dual and not is_persymmetric(v):
        raise NotPersymmetricError(f"coefficient list has mirror defect {persymmetry_defect(v):.3e}")
    if not v.h[-1] > 0.0:
        k = int(np.argmax(v.h <= 0.0))
        raise WeightError(f"squared norm h_{k} underflows to 0, so the persymmetric forms are undefined")


def make_persymmetric(
    free_params: np.ndarray, omega: complex, middle_r: float | None = None
) -> VerblunskySequence:
    """The self-dual list whose first half is free_params: a fixed point of ``mirrored``.

    n = 2 len(free_params), plus one when the real middle parameter r in
    (-1, 1) is given: the middle coefficient is then i r omega^(1/2)
    (principal branch).  A free parameter outside the disc, r outside
    (-1, 1) or omega off the circle raises ValueError; empty input ShapeError.
    """
    free = np.asarray(free_params, dtype=np.complex128).reshape(-1)
    inside_disc("free_params", free)
    if middle_r is not None and not -1.0 < float(middle_r) < 1.0:
        raise ValueError("middle parameter must lie in (-1, 1)")
    omega = unimodular("omega", omega)
    middle = () if middle_r is None else (1j * float(middle_r) * principal_sqrt_unimodular(omega),)
    return VerblunskySequence(np.concatenate((free, middle, mirrored(free, omega))), omega)


def dual_weights(v: VerblunskySequence) -> np.ndarray:
    """Weights of the mirror dual at the theta-sorted nodes of v: |V[N, s]|^2, read-only.

    v_s is the unit eigenvector of U at node s.  The quasi-reflection that
    carries U to the dual's CMV matrix reverses the basis, so the dual's
    eigenvector at the shared node z_s has the moduli of v_s in reverse
    order, and its first component is v_s's last.  The dual weights equal
    Phi_N(z_s) / Phi'_{N+1}(z_s), and their product with the primal weight
    is h_N / |Phi'_{N+1}(z_s)|^2.  A dual weight of 0.0, or a sum off one
    by more than WEIGHT_SUM, raises WeightError, as in ``weights``.
    """
    return _resolved(v.quadrature[1][1], "N")


def persymmetric_weights(nodes: np.ndarray, h_final: float) -> np.ndarray:
    """Closed-form weights sqrt(h_N) / |Phi'_{N+1}(z_s)| from the node angles alone.

    Phi_{N+1} is monic with these roots, so |Phi'_{N+1}(z_s)| is the product
    of the distances |z_s - z_j| over j != s; it is summed as logarithms,
    which neither overflows nor underflows at large N.  Valid only for
    persymmetric systems, where primal and dual weights agree node by node.
    No normalization is applied; for valid input the sum comes out as one on
    its own, and silently rescaling would hide bugs.
    """
    if not 0.0 < h_final < np.inf:
        raise ValueError("h_final must be positive and finite")
    return _weights_at(node_angles(nodes), h_final)


def _weights_at(theta: np.ndarray, h_final: float) -> np.ndarray:
    """``persymmetric_weights`` at checked angles theta and a positive h_final."""
    return np.exp(0.5 * np.log(h_final) + _neg_log_derivative(unit_points(theta)))


def _neg_log_derivative(z: np.ndarray) -> np.ndarray:
    """-log |Phi'_{N+1}(z_s)| = -sum_{j != s} log |z_s - z_j| for the monic Phi_{N+1} with roots z."""
    gaps = np.abs(z[:, None] - z[None, :])
    gaps.reshape(-1)[:: z.size + 1] = 1.0  # the diagonal, as a view
    return -np.log(gaps).sum(axis=1)


def phi_n_values(
    nodes: np.ndarray,
    omega: complex,
    h_final: float,
    epsilon: int,
) -> np.ndarray:
    """Predicted values of Phi_N at the theta-sorted nodes of a persymmetric system.

    Phi_N(z_s) = (-1)^s epsilon omega^(-1/2) exp(i (N-1) theta_s / 2) sqrt(h_N)
    with the principal square root branch.  omega off the unit circle raises
    ValueError, theta outside [0, 2 pi) ShapeError.
    """
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    if not 0.0 < h_final < np.inf:
        raise ValueError("h_final must be positive and finite")
    omega = unimodular("omega", omega)
    thetas = node_angles(nodes)
    if thetas[0] < 0.0 or thetas[-1] >= TWO_PI:
        raise ShapeError(f"node angles must lie in [0, 2 pi), got {thetas[0]:.17g} .. {thetas[-1]:.17g}")
    return _phi_n_at(thetas, omega, h_final, epsilon)


def _phi_n_at(thetas: np.ndarray, omega: complex, h_final: float, epsilon: int) -> np.ndarray:
    """``phi_n_values`` at checked, sorted angles in [0, 2 pi), a checked complex omega and a positive h_final."""
    n_top = thetas.size - 1  # node count is N + 1
    signs = np.ones(thetas.size)
    signs[1::2] = -1.0
    inv_half = np.conj(principal_sqrt_unimodular(omega))
    return signs * float(epsilon) * inv_half * np.exp(0.5j * (n_top - 1) * thetas) * float(np.sqrt(h_final))


@dataclass(frozen=True)
class PersymmetryCharacterizations:
    """Residuals of the three equivalent descriptions of a persymmetric system; ``check`` prints each field."""

    weight_residual: float    # w_s versus sqrt(h_N) / |Phi'_{N+1}(z_s)|
    modulus_residual: float   # |Phi_N(z_s)| versus sqrt(h_N)
    phase_residual: float     # Phi_N(z_s) versus the alternating phase formula
    epsilon: int              # sign that matched the phase formula

    @property
    def max_residual(self) -> float:
        return max(self.weight_residual, self.modulus_residual, self.phase_residual)


def verify_persymmetry_characterizations(v: VerblunskySequence) -> PersymmetryCharacterizations:
    """Check the three persymmetry-only identities on a concrete system.

    Rejects input whose coefficient list is not self-dual (defect above
    SELF_DUAL_DEFECT, 1e-10); for valid input, returns the worst residual of
    each identity and the phase sign that fits.  The weights come from the
    eigen-solve v keeps, the Phi_N values from its ladder at the nodes; any
    other check of v reads the same memos, and the closed forms read the
    solve's angles as they are.  An h_N that has underflowed to 0.0 leaves
    the closed forms undefined and raises WeightError naming the first h_k.
    """
    _persymmetry_gate(v)
    nodes = spectrum(v)
    h_final = float(v.h[-1])
    w = v.quadrature[1][0]
    weight_residual = float(np.abs(w - _weights_at(nodes, h_final)).max())
    phi_n = v.node_values[-1]
    modulus_residual = float(np.abs(np.abs(phi_n) - np.sqrt(h_final)).max())

    predicted = _phi_n_at(nodes, v.omega, h_final, 1)  # epsilon = -1 predicts its exact negation
    best_eps, best = 1, np.inf
    for eps, diff in ((1, phi_n - predicted), (-1, phi_n + predicted)):
        resid = float(np.abs(diff).max())
        if resid < best:
            best_eps, best = eps, resid
    return PersymmetryCharacterizations(weight_residual, modulus_residual, best, best_eps)
