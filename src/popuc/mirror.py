"""Mirror duality and the persymmetric subclass.

The mirror dual of (a_0 .. a_{N-1}, omega) is (-omega conj(a_{N-1}) ..
-omega conj(a_0), omega).  Dual data share the final polynomial, hence the
spectrum, while their weights multiply to h_N / |Phi'_{N+1}|^2 node by node;
the dual weights are the squared last components of the eigenvectors that
give the primal weights.  Data equal to its own dual is called
persymmetric; such a system is pinned down by its spectrum alone, which
drives the inverse problem elsewhere in the package.  Every check here
takes the coefficient list and reads the memos it keeps; the closed forms
take the node angles as one array, checked by ``node_angles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_poly import node_angles, unit_points
from .errors import NotPersymmetricError, ShapeError, WeightError
from .opuc_core import VerblunskySequence, _resolved, inside_disc, spectrum, unimodular
from .tolerances import SELF_DUAL_DEFECT


def principal_sqrt_unimodular(w: complex) -> complex:
    """exp(i arg(w) / 2) with arg taken in (-pi, pi]."""
    return complex(np.exp(0.5j * np.angle(w)))


def mirror_dual(v: VerblunskySequence) -> VerblunskySequence:
    """Reverse, conjugate and twist the coefficient list; omega is kept."""
    return VerblunskySequence(-v.omega * np.conj(v.a[::-1]), v.omega)


def persymmetry_defect(v: VerblunskySequence) -> float:
    """Max distance between the data and its own mirror dual, max |a + omega conj(a reversed)|."""
    return float(np.max(np.abs(v.a + v.omega * np.conj(v.a[::-1]))))


def is_persymmetric(v: VerblunskySequence) -> bool:
    """Whether the mirror defect is within SELF_DUAL_DEFECT."""
    return persymmetry_defect(v) <= SELF_DUAL_DEFECT


@dataclass(frozen=True, eq=False)
class PersymmetricSeed:
    """Free parameters that pin down a persymmetric coefficient list.

    Even n: floor(n/2) disc values fill the first half, the second half is
    forced by duality.  Odd n: additionally a real middle parameter r in
    (-1, 1); the middle coefficient is forced onto the line
    i * r * omega^(1/2) (principal branch).
    """

    free_params: np.ndarray
    omega: complex
    n: int
    middle_r: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ShapeError("need n >= 1")
        arr = np.asarray(self.free_params, dtype=np.complex128).reshape(-1)
        if arr.size != self.n // 2:
            raise ShapeError(f"expected {self.n // 2} free parameters, got {arr.size}")
        inside_disc("free_params", arr)
        if self.n % 2 == 1:
            if self.middle_r is None:
                raise ShapeError("odd n needs the real middle parameter")
            if not -1.0 < float(self.middle_r) < 1.0:
                raise ValueError("middle parameter must lie in (-1, 1)")
        elif self.middle_r is not None:
            raise ShapeError("even n takes no middle parameter")
        object.__setattr__(self, "free_params", arr)
        object.__setattr__(self, "omega", unimodular("omega", self.omega))


def make_persymmetric(seed: PersymmetricSeed) -> VerblunskySequence:
    """Expand a seed into the full self-dual coefficient list."""
    a = np.zeros(seed.n, dtype=np.complex128)
    half = seed.n // 2
    a[:half] = seed.free_params
    for k in range(half):
        a[seed.n - 1 - k] = -seed.omega * np.conj(seed.free_params[k])
    if seed.n % 2 == 1:
        a[half] = 1j * float(seed.middle_r) * principal_sqrt_unimodular(seed.omega)
    return VerblunskySequence(a, seed.omega)


def dual_weights(v: VerblunskySequence) -> np.ndarray:
    """Weights of the mirror dual at the theta-sorted nodes of v: |V[N, s]|^2, read-only.

    v_s is the unit eigenvector of U at node s.  The quasi-reflection that
    carries U to the dual's CMV matrix reverses the basis, so the dual's
    eigenvector at the shared node z_s has the moduli of v_s in reverse
    order, and its first component is v_s's last.  The dual weights equal
    Phi_N(z_s) / Phi'_{N+1}(z_s), and their product with the primal weight
    is h_N / |Phi'_{N+1}(z_s)|^2.  A dual weight of 0.0 raises WeightError,
    as in ``weights``.
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
    if not h_final > 0.0:
        raise ValueError("h_final must be positive")
    return np.exp(0.5 * np.log(h_final) + _neg_log_derivative(unit_points(node_angles(nodes))))


def _neg_log_derivative(z: np.ndarray) -> np.ndarray:
    """-log |Phi'_{N+1}(z_s)| = -sum_{j != s} log |z_s - z_j| for the monic Phi_{N+1} with roots z."""
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, 1.0)
    return -np.sum(np.log(gaps), axis=1)


def phi_n_values(
    nodes: np.ndarray,
    omega: complex,
    h_final: float,
    epsilon: int,
) -> np.ndarray:
    """Predicted values of Phi_N at the theta-sorted nodes of a persymmetric system.

    Phi_N(z_s) = (-1)^s epsilon omega^(-1/2) exp(i (N-1) theta_s / 2) sqrt(h_N)
    with the principal square root branch and theta kept in [0, 2*pi).
    """
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    if not h_final > 0.0:
        raise ValueError("h_final must be positive")
    thetas = node_angles(nodes)
    n_top = thetas.size - 1  # node count is N + 1
    signs = np.where(np.arange(thetas.size) % 2 == 0, 1.0, -1.0)
    inv_half = np.conj(principal_sqrt_unimodular(complex(omega)))
    return (
        signs
        * float(epsilon)
        * inv_half
        * np.exp(0.5j * (n_top - 1) * thetas)
        * float(np.sqrt(h_final))
    )


@dataclass(frozen=True)
class PersymmetryCharacterizations:
    """Residuals of the three equivalent descriptions of a persymmetric system."""

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
    other check of v reads the same memos.  An h_N that has underflowed to
    0.0 leaves the closed forms undefined and raises WeightError naming the
    first such h_k.
    """
    if not is_persymmetric(v):
        raise NotPersymmetricError(
            f"coefficient list has mirror defect {persymmetry_defect(v):.3e}"
        )
    if not v.h[-1] > 0.0:
        k = int(np.argmax(v.h <= 0.0))
        raise WeightError(f"squared norm h_{k} underflows to 0, so the persymmetric forms are undefined")
    nodes = spectrum(v)
    h_final = float(v.h[-1])
    w = v.quadrature[1][0]
    weight_residual = float(np.max(np.abs(w - persymmetric_weights(nodes, h_final))))
    phi_n = v.node_values[-1]
    modulus_residual = float(np.max(np.abs(np.abs(phi_n) - np.sqrt(h_final))))

    predicted = phi_n_values(nodes, v.omega, h_final, 1)  # epsilon = -1 predicts its exact negation
    best_eps, best = 1, np.inf
    for eps, diff in ((1, phi_n - predicted), (-1, phi_n + predicted)):
        resid = float(np.max(np.abs(diff)))
        if resid < best:
            best_eps, best = eps, resid
    return PersymmetryCharacterizations(weight_residual, modulus_residual, best, best_eps)
