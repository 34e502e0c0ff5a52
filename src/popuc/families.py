"""Closed-form example families and their cross-checks.

Each constructor returns a ``FamilyInstance`` bundling the coefficient data
with whatever closed forms the family admits (ladder polynomials, node
angles as one sorted array, weights).  ``verify_family`` rebuilds everything
from the recurrence and reports the worst deviation per closed form, so the
instances double as regression fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex_poly import TWO_PI, unit_points
from .errors import ShapeError
from .mirror import persymmetry_defect
from .opuc_core import (
    VerblunskySequence,
    orthogonality_residual,
    paraorthogonality_residual,
    spectrum,
    unimodular,
    weights,
)
from .tolerances import KRAWTCHOUK_CLOSURE, KRAWTCHOUK_DEGENERATE, KRAWTCHOUK_HALF_SINE, KRAWTCHOUK_REMAINDER


@dataclass(frozen=True, eq=False)
class FamilyInstance:
    """Coefficient data plus the closed forms a family is known to satisfy.

    closed_form_phis, when present, holds Phi_0 .. Phi_{N+1} as ascending
    complex coefficient arrays, entry k of length k + 1, like ``VerblunskySequence.phis``.
    closed_form_nodes holds the node angles in [0, 2 pi), sorted and made read-only here.
    """

    name: str
    v: VerblunskySequence
    closed_form_phis: tuple[np.ndarray, ...] | None = None
    closed_form_nodes: np.ndarray | None = None
    closed_form_weights: np.ndarray | None = None
    persymmetric: bool = False

    def __post_init__(self) -> None:
        if self.closed_form_nodes is not None:
            self.closed_form_nodes.flags.writeable = False


def free_family(n: int, nu: float = 0.0) -> FamilyInstance:
    """All coefficients zero; closure omega = exp(2*pi*i*nu).

    The ladder is the monomials, the final polynomial is
    z^(n+1) - 1/omega, nodes are equally spaced angles shifted by nu and
    every weight is 1 / (n + 1).
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    if not math.isfinite(nu):
        raise ValueError(f"nu = {nu!r} must be finite")
    omega = complex(np.exp(2j * np.pi * nu))
    v = VerblunskySequence(np.zeros(n, dtype=np.complex128), omega)
    phis = []
    for m in range(n + 2):
        c = np.zeros(m + 1, dtype=np.complex128)
        c[m] = 1.0
        phis.append(c)
    phis[-1][0] = -np.conj(omega)
    nodes = TWO_PI * (np.arange(n + 1) - nu) / (n + 1) % TWO_PI
    nodes[nodes >= TWO_PI] = 0.0  # the modulo can land exactly on the seam
    nodes.sort()
    w = np.full(n + 1, 1.0 / (n + 1))
    return FamilyInstance("free", v, tuple(phis), nodes, w, persymmetric=True)


def _running_sum_poly(m: int, scale: float) -> np.ndarray:
    # scale * (1 + 2 z + ... + (m + 1) z^m)
    return (scale * np.arange(1, m + 2, dtype=np.float64)).astype(np.complex128)


def single_moment(n: int) -> FamilyInstance:
    """Coefficients a_k = -1/(k+2) with omega = -1.

    Ladder entries are running sums Phi_m = (1 + 2z + .. + (m+1)z^m)/(m+1),
    the final polynomial is 1 + z + .. + z^(n+1), nodes are the
    (n+2)-th roots of unity except 1, and the normalized weights are
    (2/(n+2)) sin^2(pi (s+1) / (n+2)).
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    a = np.array([-1.0 / (k + 2) for k in range(n)], dtype=np.complex128)
    v = VerblunskySequence(a, -1.0 + 0.0j)
    phis = [_running_sum_poly(m, 1.0 / (m + 1)) for m in range(n + 1)]
    phis.append(np.ones(n + 2, dtype=np.complex128))
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    w = (2.0 / (n + 2)) * np.sin(half) ** 2
    return FamilyInstance("single_moment", v, tuple(phis), 2.0 * half, w)


def single_moment_dual(n: int) -> FamilyInstance:
    """Mirror dual of the single-moment family: a_k = -1/(n-k+1), omega = -1.

    Shares nodes and the final polynomial with the primal family; the dual
    weights are flat, 1/(n+1), and the ladder is
    Phi_m = z^m + (z^m - 1) / ((n - m + 2)(z - 1)).
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    a = np.array([-1.0 / (n - k + 1) for k in range(n)], dtype=np.complex128)
    v = VerblunskySequence(a, -1.0 + 0.0j)
    phis = []
    for m in range(n + 2):
        c = np.zeros(m + 1, dtype=np.complex128)
        c[m] = 1.0
        c[:m] += 1.0 / (n - m + 2)  # geometric sum (z^m - 1)/(z - 1)
        phis.append(c)
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    w = np.full(n + 1, 1.0 / (n + 1))
    return FamilyInstance("single_moment_dual", v, tuple(phis), 2.0 * half, w)


def single_moment_persymmetric(n: int) -> FamilyInstance:
    """The persymmetric system sharing the single-moment spectrum.

    With nu = pi / (2 (n + 2)): a_k = -sin(nu) / sin(nu (2k + 3)), omega = -1.
    Its weights are tan(nu) sin(theta_s / 2) at node angle theta_s, which is
    proportional to the square root of the single-moment weight.
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    nu = np.pi / (2.0 * (n + 2))
    a = np.array(
        [-np.sin(nu) / np.sin(nu * (2 * k + 3)) for k in range(n)],
        dtype=np.complex128,
    )
    v = VerblunskySequence(a, -1.0 + 0.0j)
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    w = np.tan(nu) * np.sin(half)
    return FamilyInstance(
        "single_moment_persymmetric", v, None, 2.0 * half, w, persymmetric=True
    )


def _divide_out_linear(coeffs: np.ndarray, root: complex) -> tuple[np.ndarray, complex]:
    # synthetic division of an ascending-coefficient polynomial by (w - root)
    d = coeffs.size - 1
    q = np.zeros(d, dtype=np.complex128)
    q[d - 1] = coeffs[d]
    for j in range(d - 1, 0, -1):
        q[j - 1] = coeffs[j] + root * q[j]
    remainder = coeffs[0] + root * q[0]
    return q, complex(remainder)


def _krawtchouk_ladder(n: int, omega: complex, kappa_sq: float) -> list[tuple[np.ndarray, complex, float]]:
    # (R_{m+1} - A_m R_m) / (w - omega) for m = 0 .. n+1, each as (quotient,
    # remainder, max(1, largest numerator coefficient)), where
    # R_0 = 1, R_1 = 1 + w, R_{m+1} = (w + 1) R_m - kappa^2 m (n + 2 - m) / 4 w R_{m-1}
    r_prev = np.ones(1, dtype=np.complex128)
    r = np.ones(2, dtype=np.complex128)
    out = []
    for m in range(n + 2):
        num = r.copy()
        num[:-1] -= (omega + 1.0) * (n - m + 1.0) / (n + 1.0) * r_prev
        quotient, remainder = _divide_out_linear(num, omega)
        out.append((quotient, remainder, max(1.0, float(np.max(np.abs(num))))))
        nxt = np.zeros(r.size + 1, dtype=np.complex128)
        nxt[:-1] += r
        nxt[1:] += r
        nxt[1:-1] -= kappa_sq * (m + 1.0) * (n + 1.0 - m) / 4.0 * r_prev
        r_prev, r = r, nxt
    return out


def krawtchouk_family(n: int, omega: complex) -> FamilyInstance:
    """Linear-coefficient family a_k = (omega + 1)(k + 1)/(n + 1) - 1.

    The ladder comes from symmetric Krawtchouk polynomials rescaled by kappa
    with kappa^2 = 4 |omega + 1|^2 / (n + 1)^2.  In w = z^2 they satisfy
    R_0 = 1, R_1 = 1 + w and
    R_{m+1} = (w + 1) R_m - kappa^2 m (n + 2 - m) / 4 w R_{m-1},
    and the ladder is Phi_m(w) = (R_{m+1}(w) - A_m R_m(w)) / (w - omega),
    A_m = (omega + 1)(n - m + 1)/(n + 1).  Nodes come from
    cos(theta_k / 2) = (2k/(n+1) - 1) cos(sigma/2), k = 0 .. n+1 with
    sigma = arg(omega); the candidate equal to omega itself is dropped.
    Weights are 1/(k! (n+1-k)!) times |sin(theta_k/2 - sigma/2)/sin(theta_k/2)|,
    formed in the log domain and normalized to sum one.  All node angles
    stay outside the arc |theta| < |sigma|.
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    w_om = unimodular("omega", omega)
    if abs(1.0 + w_om) < KRAWTCHOUK_DEGENERATE:
        raise ValueError("omega too close to -1, the family degenerates")
    a = np.array(
        [(w_om + 1.0) * (k + 1.0) / (n + 1.0) - 1.0 for k in range(n)],
        dtype=np.complex128,
    )
    v = VerblunskySequence(a, w_om)

    kappa_sq = 4.0 * abs(1.0 + w_om) ** 2 / (n + 1.0) ** 2
    phis = []
    for m, (quotient, remainder, scale) in enumerate(_krawtchouk_ladder(n, w_om, kappa_sq)):
        if abs(remainder) > KRAWTCHOUK_REMAINDER * scale:
            raise ValueError(f"ladder entry {m}: division remainder {abs(remainder):.3e}")
        phis.append(quotient)

    sigma = float(np.angle(w_om))
    ks = np.arange(n + 2)
    xs = (2.0 * ks / (n + 1.0) - 1.0) * np.cos(sigma / 2.0)
    half_angles = np.arccos(np.clip(xs, -1.0, 1.0))
    cand = np.exp(2j * half_angles)
    drop = int(np.argmin(np.abs(cand - w_om)))
    if abs(cand[drop] - w_om) > KRAWTCHOUK_CLOSURE:
        raise ValueError("no root candidate matches the closure parameter")
    kept = np.delete(ks, drop)
    half = half_angles[kept]
    s_half = np.abs(np.sin(half))
    # a vanishing sin(theta_k / 2) is reachable only when sigma = 0, where the
    # two endpoint candidates coincide at z = 1 and contribute jointly; the
    # limit of the ratio along sigma -> 0 is 2 cos(sigma / 2) -> 2, matching
    # the merged binomial masses C(n+1, 0) + C(n+1, n+1)
    ratio = np.full(kept.size, 2.0)
    inner = s_half >= KRAWTCHOUK_HALF_SINE
    ratio[inner] = np.abs(np.sin(half[inner] - sigma / 2.0)) / s_half[inner]
    log_mass = np.log(ratio) - np.array(
        [math.lgamma(k + 1.0) + math.lgamma(n + 2.0 - k) for k in kept]
    )
    raw = np.exp(log_mass - log_mass.max())
    raw /= raw.sum()
    nodes = 2.0 * half % TWO_PI  # 2 pi, the kept candidate at z = 1 when sigma = 0, becomes 0
    order = nodes.argsort()
    return FamilyInstance(
        "krawtchouk", v, tuple(phis), nodes[order], raw[order], persymmetric=True
    )


def verify_family(inst: FamilyInstance) -> dict[str, float]:
    """Rebuild a family instance from the recurrence and report worst deviations.

    Keys present depend on which closed forms the instance carries:
    "phi" (coefficientwise ladder deviation), "nodes", "weights", always
    "orthogonality" and "paraorthogonality", and "persymmetry_defect" for
    families that claim it.
    """
    v = inst.v
    report: dict[str, float] = {}
    if inst.closed_form_phis is not None:
        if len(inst.closed_form_phis) != len(v.phis):
            raise ShapeError("closed-form ladder has the wrong length")
        worst = 0.0
        for ours, closed in zip(v.phis, inst.closed_form_phis):
            worst = max(worst, float(np.max(np.abs(ours - closed))))
        report["phi"] = worst
    nodes = spectrum(v)
    if inst.closed_form_nodes is not None:
        closed_z = unit_points(inst.closed_form_nodes)
        report["nodes"] = float(np.max(np.abs(closed_z - unit_points(nodes))))
    data = weights(v, nodes)
    if inst.closed_form_weights is not None:
        report["weights"] = float(np.max(np.abs(inst.closed_form_weights - data.weights)))
    report["orthogonality"] = orthogonality_residual(v, data)
    report["paraorthogonality"] = paraorthogonality_residual(v)
    if inst.persymmetric:
        report["persymmetry_defect"] = persymmetry_defect(v)
    return report
