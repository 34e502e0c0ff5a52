"""Mirror duality and the persymmetric subclass.

The mirror dual of (a_0 .. a_{N-1}, omega) is (-omega conj(a_{N-1}) ..
-omega conj(a_0), omega).  Dual data share the final polynomial, hence the
spectrum, while their weights multiply to h_N / |Phi'_{N+1}|^2 node by node;
the dual weights are the Christoffel numbers of the dual data at the shared
nodes.  Data equal to its own dual is called persymmetric; such a system is
pinned down by its spectrum alone, which drives the inverse problem
elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complex_poly import UnitCirclePoint, as_complex_array
from .errors import NotPersymmetricError, ShapeError
from .opuc_core import (
    OpucSystem,
    VerblunskySequence,
    build_system,
    christoffel_weights,
    ladder_values,
    spectrum,
    squared_norms,
)
from .tolerances import DEFAULT, Tolerances


def principal_sqrt_unimodular(w: complex) -> complex:
    """exp(i arg(w) / 2) with arg taken in (-pi, pi]."""
    return complex(np.exp(0.5j * np.angle(w)))


def mirror_dual(v: VerblunskySequence) -> VerblunskySequence:
    """Reverse, conjugate and twist the coefficient list; omega is kept."""
    return VerblunskySequence(-v.omega * np.conj(v.a[::-1]), v.omega)


def persymmetry_defect(v: VerblunskySequence) -> float:
    """Max distance between the data and its own mirror dual."""
    return float(np.max(np.abs(v.a - mirror_dual(v).a)))


def is_persymmetric(v: VerblunskySequence, tol: float = 1e-10) -> bool:
    return persymmetry_defect(v) <= tol


@dataclass(frozen=True, eq=False)
class PersymmetricSeed:
    """Free parameters that pin down a persymmetric coefficient list.

    Even n: floor(n/2) disc values fill the first half, the second half is
    forced by duality.  Odd n: additionally a real middle parameter r in
    (-1, 1); the middle coefficient is forced onto the line
    i * r * omega^(1/2) (principal branch).  epsilon records the sign
    convention used by the phase identities; it does not affect the
    coefficients themselves.
    """

    free_params: np.ndarray
    omega: complex
    n: int
    middle_r: float | None = None
    epsilon: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ShapeError("need n >= 1")
        arr = np.asarray(self.free_params, dtype=np.complex128).reshape(-1)
        if arr.size != self.n // 2:
            raise ShapeError(f"expected {self.n // 2} free parameters, got {arr.size}")
        if arr.size and np.any(np.abs(arr) > 1.0 - DEFAULT.verblunsky_margin):
            raise ValueError("free parameters must stay strictly inside the unit disc")
        if self.n % 2 == 1:
            if self.middle_r is None:
                raise ShapeError("odd n needs the real middle parameter")
            if not -1.0 < float(self.middle_r) < 1.0:
                raise ValueError("middle parameter must lie in (-1, 1)")
        elif self.middle_r is not None:
            raise ShapeError("even n takes no middle parameter")
        w = complex(self.omega)
        if abs(abs(w) - 1.0) > DEFAULT.unimodular:
            raise ValueError("omega must be unimodular")
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be +1 or -1")
        object.__setattr__(self, "free_params", arr)
        object.__setattr__(self, "omega", w)


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


def dual_weights(sys: OpucSystem, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Weights of the mirror dual at the theta-sorted nodes of the system.

    The dual shares the nodes, so these are the Christoffel numbers of
    mirror_dual(v) there.  They equal Phi_N(z_s) / Phi'_{N+1}(z_s), and
    their product with the primal weight is h_N / |Phi'_{N+1}(z_s)|^2.
    """
    vh = mirror_dual(sys.v)
    vals = ladder_values(vh, as_complex_array(spectrum(sys, tol)))
    return christoffel_weights(vals, squared_norms(vh.a), tol)


def persymmetric_weights(nodes: Sequence[UnitCirclePoint], h_final: float) -> np.ndarray:
    """Closed-form weights sqrt(h_N) / |Phi'_{N+1}(z_s)| from nodes alone.

    Phi_{N+1} is monic with these roots, so |Phi'_{N+1}(z_s)| is the product
    of the distances |z_s - z_j| over j != s; it is summed as logarithms,
    which neither overflows nor underflows at large N.  Valid only for
    persymmetric systems, where primal and dual weights agree node by node.
    No normalization is applied; for valid input the sum comes out as one on
    its own, and silently rescaling would hide bugs.
    """
    if h_final <= 0.0:
        raise ValueError("h_final must be positive")
    z = as_complex_array(nodes)
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, 1.0)
    return np.exp(0.5 * np.log(h_final) - np.sum(np.log(gaps), axis=1))


def phi_n_values(
    nodes: Sequence[UnitCirclePoint],
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
    if h_final <= 0.0:
        raise ValueError("h_final must be positive")
    thetas = np.array([p.theta for p in nodes])
    if np.any(np.diff(thetas) <= 0.0):
        raise ShapeError("nodes must be sorted by theta")
    n_top = len(nodes) - 1  # node count is N + 1
    signs = np.where(np.arange(len(nodes)) % 2 == 0, 1.0, -1.0)
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


def verify_persymmetry_characterizations(
    v: VerblunskySequence, tol: Tolerances = DEFAULT
) -> PersymmetryCharacterizations:
    """Check the three persymmetry-only identities on a concrete system.

    Rejects input whose coefficient list is not self-dual (defect above
    1e-10); for valid input, returns the worst residual of each identity
    and the phase sign that fits.  The Christoffel weights and the Phi_N
    values come from one evaluation of the ladder at the nodes.
    """
    if not is_persymmetric(v, 1e-10):
        raise NotPersymmetricError(
            f"coefficient list has mirror defect {persymmetry_defect(v):.3e}"
        )
    sys = build_system(v)
    nodes = spectrum(sys, tol)
    z = as_complex_array(nodes)
    vals = ladder_values(v, z)
    h_final = float(sys.h[-1])
    w_closed = persymmetric_weights(z, h_final)
    weight_residual = float(np.max(np.abs(christoffel_weights(vals, sys.h, tol) - w_closed)))
    phi_n = vals[-1]
    modulus_residual = float(np.max(np.abs(np.abs(phi_n) - np.sqrt(h_final))))

    best_eps, best = 1, np.inf
    for eps in (1, -1):
        predicted = phi_n_values(nodes, v.omega, h_final, eps)
        resid = float(np.max(np.abs(phi_n - predicted)))
        if resid < best:
            best_eps, best = eps, resid
    return PersymmetryCharacterizations(weight_residual, modulus_residual, best, best_eps)
