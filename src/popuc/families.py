"""Closed-form example families and their cross-checks.

Each constructor returns a ``FamilyInstance`` bundling the coefficient data
with the closed forms the family admits: node angles as one sorted array,
weights, and ladder polynomials, built from the data on first read by
``_LADDERS``.  ``verify_family`` rebuilds everything from the recurrence and
reports the worst deviation per closed form, so the instances double as
regression fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complex_poly import TWO_PI, _exp_i, unit_points, wrap_angles
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
    """Coefficient data plus its closed forms, both made read-only; closed_form_nodes is sorted in [0, 2 pi)."""

    name: str
    v: VerblunskySequence
    closed_form_nodes: np.ndarray
    closed_form_weights: np.ndarray
    persymmetric: bool = False

    def __post_init__(self) -> None:
        self.closed_form_nodes.flags.writeable = self.closed_form_weights.flags.writeable = False

    @cached_property
    def closed_form_phis(self) -> tuple[np.ndarray, ...] | None:
        """Phi_0 .. Phi_{N+1} shaped like ``VerblunskySequence.phis``, built on first read, or None."""
        build = _LADDERS[self.name]
        return None if build is None else build(self.v)


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
    nu = math.fmod(nu, 1.0)  # exact, so s - nu below keeps s however large nu was
    v = VerblunskySequence(np.zeros(n, dtype=np.complex128), _exp_i(TWO_PI * nu))
    nodes = np.sort(wrap_angles(TWO_PI * (np.arange(n + 1) - nu) / (n + 1)))
    w = np.full(n + 1, 1.0 / (n + 1))
    return FamilyInstance("free", v, nodes, w, persymmetric=True)


def _free_ladder(v: VerblunskySequence) -> tuple[np.ndarray, ...]:
    phis = [np.eye(1, m + 1, m, dtype=np.complex128)[0] for m in range(v.n + 2)]  # the monomials z^m
    phis[-1][0] = -np.conj(v.omega)
    return tuple(phis)


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
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    w = (2.0 / (n + 2)) * np.sin(half) ** 2
    return FamilyInstance("single_moment", v, 2.0 * half, w)


def _single_moment_ladder(v: VerblunskySequence) -> tuple[np.ndarray, ...]:
    running = [(1.0 / (m + 1) * np.arange(1.0, m + 2)).astype(np.complex128) for m in range(v.n + 1)]
    return (*running, np.ones(v.n + 2, dtype=np.complex128))


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
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    w = np.full(n + 1, 1.0 / (n + 1))
    return FamilyInstance("single_moment_dual", v, 2.0 * half, w)


def _single_moment_dual_ladder(v: VerblunskySequence) -> tuple[np.ndarray, ...]:
    # z^m plus the geometric sum (z^m - 1)/(z - 1) = 1 + z + .. + z^(m-1), over n - m + 2
    geometric = (np.append(np.full(m, 1.0 / (v.n - m + 2)), 1.0) for m in range(v.n + 2))
    return tuple(c.astype(np.complex128) for c in geometric)


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
    return FamilyInstance("single_moment_persymmetric", v, 2.0 * half, w, persymmetric=True)


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


def _krawtchouk_phis(v: VerblunskySequence) -> tuple[np.ndarray, ...]:
    kappa_sq = 4.0 * abs(1.0 + v.omega) ** 2 / (v.n + 1.0) ** 2
    phis = []
    for m, (quotient, remainder, scale) in enumerate(_krawtchouk_ladder(v.n, v.omega, kappa_sq)):
        if abs(remainder) > KRAWTCHOUK_REMAINDER * scale:
            raise ValueError(f"ladder entry {m}: division remainder {abs(remainder):.3e}")
        phis.append(quotient)
    return tuple(phis)


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

    sigma = float(np.angle(w_om))
    ks = np.arange(n + 2)
    xs = 2.0 * ks / (n + 1.0) - 1.0
    # sin(theta_k / 2) = sqrt((1 - xc)(1 + xc)), c = cos(sigma / 2), from 1 - xc = (1 - x) + x t and
    # 1 + xc = (1 + x) - x t with t = 1 - c = 2 sin^2(sigma / 4): like-signed terms, so nothing cancels
    t = 2.0 * np.sin(sigma / 4.0) ** 2
    sines = np.sqrt((2.0 * (n + 1.0 - ks) / (n + 1.0) + xs * t) * (2.0 * ks / (n + 1.0) - xs * t))
    c = np.cos(sigma / 2.0)
    half_angles = np.arctan2(sines, xs * c)
    cand = np.exp(2j * half_angles)
    drop = int(np.argmin(np.abs(cand - w_om)))
    if abs(cand[drop] - w_om) > KRAWTCHOUK_CLOSURE:
        raise ValueError("no root candidate matches the closure parameter")
    kept = np.delete(ks, drop)
    half, s_half, x_kept = half_angles[kept], sines[kept], xs[kept]
    # a vanishing sin(theta_k / 2) is reachable only when sigma = 0, where the
    # two endpoint candidates coincide at z = 1 and contribute jointly; the
    # limit of the ratio along sigma -> 0 is 2 cos(sigma / 2) -> 2, matching
    # the merged binomial masses C(n+1, 0) + C(n+1, n+1)
    ratio = np.full(kept.size, 2.0)
    inner = s_half >= KRAWTCHOUK_HALF_SINE
    # sin(theta_k / 2 - sigma / 2) = c (sin(theta_k / 2) - x_k sin(sigma / 2)), as cos(theta_k / 2) = x_k c:
    # no sine of an angle near pi, whose absolute rounding would swamp sin ~ sigma / 2 at the kept endpoint
    ratio[inner] = c * np.abs(s_half[inner] - x_kept[inner] * np.sin(sigma / 2.0)) / s_half[inner]
    log_mass = np.log(ratio) - np.array(
        [math.lgamma(k + 1.0) + math.lgamma(n + 2.0 - k) for k in kept.tolist()]  # Python floats, not numpy scalars
    )
    raw = np.exp(log_mass - log_mass.max())
    raw /= raw.sum()
    nodes = wrap_angles(2.0 * half)  # 2 pi, the kept candidate at z = 1 when sigma = 0, becomes 0
    order = nodes.argsort()
    return FamilyInstance("krawtchouk", v, nodes[order], raw[order], persymmetric=True)


# family name -> builder of its closed-form ladder from the coefficient data
_LADDERS = {
    "free": _free_ladder, "single_moment": _single_moment_ladder, "krawtchouk": _krawtchouk_phis,
    "single_moment_dual": _single_moment_dual_ladder, "single_moment_persymmetric": None,
}


def verify_family(inst: FamilyInstance) -> dict[str, float]:
    """Rebuild a family instance from the recurrence and report worst deviations.

    Keys: "phi" (coefficientwise ladder deviation) for families with a
    closed-form ladder, always "nodes", "weights", "orthogonality" and
    "paraorthogonality", and "persymmetry_defect" for families that claim it.
    """
    v = inst.v
    report: dict[str, float] = {}
    closed = inst.closed_form_phis
    if closed is not None:
        if len(closed) != len(v.phis):
            raise ShapeError("closed-form ladder has the wrong length")
        report["phi"] = max(float(np.max(np.abs(ours - c))) for ours, c in zip(v.phis, closed))
    nodes = spectrum(v)
    report["nodes"] = float(np.max(np.abs(unit_points(inst.closed_form_nodes) - unit_points(nodes))))
    data = weights(v, nodes)
    report["weights"] = float(np.max(np.abs(inst.closed_form_weights - data.weights)))
    report["orthogonality"] = orthogonality_residual(v, data)
    report["paraorthogonality"] = paraorthogonality_residual(v)
    if inst.persymmetric:
        report["persymmetry_defect"] = persymmetry_defect(v)
    return report
