"""Inverse spectral reconstruction for persymmetric systems.

A persymmetric system is determined by its node set alone.  The phase
formula for Phi_N at the nodes has only a global sign left free, so the
recovery runs: interpolation of the phase values, fixing the sign and the
final squared norm from monicity, then descending the Szego recurrence one
degree at a time back to the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complex_poly import (
    Polynomial,
    UnitCirclePoint,
    as_complex_array,
    lagrange_interpolate,
)
from .errors import (
    NotPersymmetricError,
    ShapeError,
    SpectrumInconsistencyError,
    SzegoClassError,
)
from .mirror import is_persymmetric, persymmetry_defect
from .opuc_core import VerblunskySequence, build_system, spectrum
from .tolerances import DEFAULT, Tolerances


def _descend(coeffs: np.ndarray) -> tuple[complex, np.ndarray, float]:
    """inverse_szego_step on ascending coefficients, plus the remainder of the division by z."""
    d = coeffs.size - 1
    if d < 1:
        raise ShapeError("descent needs degree >= 1")
    if abs(coeffs[-1] - 1.0) > 1e-9:
        raise ShapeError("descent input must be monic")
    a = complex(-np.conj(coeffs[0]))
    if abs(a) >= 1.0 - 1e-10:
        raise SzegoClassError(f"recovered |a_{d - 1}| = {abs(a)!r} is not inside the disc")
    num = coeffs + a.conjugate() * np.conj(coeffs[::-1])
    return a, num[1:] / (1.0 - abs(a) ** 2), float(abs(num[0]))


def inverse_szego_step(phi_next: Polynomial) -> tuple[complex, Polynomial]:
    """One step down the recurrence: recover a_n and Phi_n from Phi_{n+1}.

    a_n is read off the constant term, then
    Phi_n = (Phi_{n+1} + conj(a_n) Phi_{n+1}^*) / (z (1 - |a_n|^2)); the
    numerator's constant term cancels identically.  Coefficients on or
    outside the unit circle are rejected: the final unimodular closure step
    is not invertible this way and is handled by the caller.
    """
    a, lower, _ = _descend(phi_next.coeffs)
    return a, Polynomial(lower)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Recovered coefficient data plus the diagnostics of the recovery."""

    v: VerblunskySequence
    epsilon: int                    # sign fixed by monicity of the interpolant
    h_final: float                  # recovered squared norm of Phi_N
    division_residuals: np.ndarray  # constant-term remainder of each descent step
    spectrum_residual: float        # max node distance after rebuilding forward

    def __post_init__(self) -> None:
        if not is_persymmetric(self.v, 1e-8):
            raise NotPersymmetricError(
                f"recovered data has mirror defect {persymmetry_defect(self.v):.3e}"
            )


def reconstruct_persymmetric(
    nodes: Sequence[UnitCirclePoint],
    omega: complex,
    tol: Tolerances = DEFAULT,
) -> ReconstructionResult:
    """Recover the unique persymmetric system with the given spectrum.

    nodes must be theta-sorted with product z_0 ... z_N = (-1)^N / omega
    (checked to 1e-8); that consistency pins omega to the node set.  The
    phase values at the nodes are interpolated, the free sign epsilon and
    sqrt(h_N) are fixed by making the interpolant monic, and the recurrence
    is descended down to degree zero.  The result is validated by building
    the system forward again and comparing spectra.
    """
    count = len(nodes)
    if count < 2:
        raise ShapeError("need at least two nodes")
    n_top = count - 1
    thetas = np.array([p.theta for p in nodes])
    if np.any(np.diff(thetas) <= 0.0):
        raise ShapeError("nodes must be strictly increasing in theta")
    w = complex(omega)
    if abs(abs(w) - 1.0) > tol.unimodular:
        raise ValueError("omega must be unimodular")

    z = as_complex_array(nodes)
    target = (-1.0) ** n_top * np.conj(w)
    drift = abs(complex(np.prod(z)) - target)
    if drift > 1e-8:
        raise SpectrumInconsistencyError(
            f"node product misses (-1)^N / omega by {drift:.3e}"
        )

    # phase values with sign and scale left out
    signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    half = np.exp(-0.5j * np.angle(w))
    g = signs * half * np.exp(0.5j * (n_top - 1) * thetas)
    interp = lagrange_interpolate(z, g, tol)
    c = complex(interp.coeffs[-1])

    epsilon = 0
    for eps in (1, -1):
        if abs(np.angle(eps * c)) <= 1e-6:
            if epsilon != 0:
                raise NotPersymmetricError("both signs make the interpolant monic")
            epsilon = eps
    if epsilon == 0:
        raise NotPersymmetricError(
            f"no sign makes the interpolant monic (leading coefficient {c!r})"
        )
    h_final = float(1.0 / abs(c)) ** 2

    phi = interp.coeffs / c  # equals epsilon sqrt(h_N) * interpolant
    coeffs_rev: list[complex] = []
    remainders: list[float] = []
    for _ in range(n_top):
        a, phi, rem = _descend(phi)
        coeffs_rev.append(a)
        remainders.append(rem)
    v = VerblunskySequence(np.array(coeffs_rev[::-1]), w)

    rebuilt = spectrum(build_system(v), tol)
    spectrum_residual = float(
        np.max(np.abs(as_complex_array(rebuilt) - z))
    )
    return ReconstructionResult(
        v, epsilon, h_final, np.array(remainders), spectrum_residual
    )
