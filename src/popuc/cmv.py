"""CMV matrices, quasi-reflections and the spectral identities they satisfy.

The unitary matrix U = M2 @ M1 acts on the Laurent-polynomial basis built
from the ladder; its eigenvalues are exactly the spectrum of the final
polynomial, and ``opuc_core.spectrum`` computes the nodes that way.  The
checks here take the coefficient list and read the nodes and ladder values
it keeps, or build its factors where they read them; they apply the
antidiagonal Q(tau) as a scaled reversal (``_reflect``), never as a matrix.
The builder (``factors``, ``cmv_matrix``) lives in ``opuc_core``.  Two entry
conventions for the 2x2 rotation blocks circulate in the literature,
differing by conjugation of the coefficient.  The one built (conjugated
coefficient on the upper-left, plain negated coefficient on the lower-right,
scalar tail conj(omega)) is the one that reproduces the spectrum; the
calibration test demonstrates the other choice produces the conjugate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_poly import unit_points
from .errors import PersymmetryViolationError, ShapeError
from .mirror import _persymmetry_gate, mirror_dual, principal_sqrt_unimodular
from .opuc_core import VerblunskySequence, factors, ladder_values, spectrum
from .tolerances import SIGN_SLACK, TRANSPORT_RESIDUAL, UNIMODULAR


def unitarity_residual(m: np.ndarray) -> float:
    """Max deviation of m* m from the identity.

    m must be a square two-dimensional integer, float or complex array (else
    ShapeError) of finite entries (else ValueError naming the first that is not).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"need a square matrix, got shape {m.shape}")
    if m.dtype.kind not in "fciu":
        raise ShapeError(f"need a numeric matrix, got dtype {m.dtype}")
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), m.shape)
        raise ValueError(f"m[{i}, {j}] = {m[i, j].item()!r} is not finite")
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return float(np.abs(np.conj(m.T).dot(m) - eye).max())


def laurent_eigenvectors(v: VerblunskySequence, z: np.ndarray) -> np.ndarray:
    """Eigenvectors of the CMV matrix at the points z, one per column.

    Component 2m is z^(-m) Phi_2m(z) / sqrt(h_2m); component 2m+1 is
    z^m conj(Phi_{2m+1}(z)) / sqrt(h_{2m+1}), using that 1/z = conj(z) on
    the circle.  The Phi_k(z) come from one run of the recurrence on the
    values (``ladder_values``).  At roots of the final polynomial each
    column psi satisfies U psi = z psi.  z must be one-dimensional (else
    ShapeError) and on the circle to UNIMODULAR (else ValueError naming the
    first point off it).  An h_k underflowed to 0 raises WeightError.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ShapeError(f"points must form a one-dimensional array, got shape {z.shape}")
    on_circle = np.abs(np.abs(z) - 1.0) <= UNIMODULAR  # NaN fails too
    if not on_circle.all():
        k = int(np.argmin(on_circle))
        raise ValueError(f"z[{k}] = {complex(z[k])!r} is not unimodular")
    _persymmetry_gate(v, self_dual=False)
    return _laurent_columns(ladder_values(v, z), z, v.h)


def _laurent_columns(vals: np.ndarray, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``laurent_eigenvectors`` from the values Phi_k(z) in row k; vals itself is not written."""
    vals = vals.copy()
    vals[1::2] = np.conj(vals[1::2])
    k = np.arange(vals.shape[0])
    powers = np.where(k % 2 == 0, -(k // 2), k // 2)
    return z ** powers[:, None] * vals / np.sqrt(h)[:, None]


def _reflection_diagonal(tau: complex, size: int) -> np.ndarray:
    # row i of Q(tau) holds tau (i even) or 1/tau (i odd), in column size - 1 - i
    d = np.empty(size, dtype=np.complex128)
    d[::2], d[1::2] = tau, 1.0 / tau
    return d


def _reflect(d_left: np.ndarray, m: np.ndarray, d_right: np.ndarray) -> np.ndarray:
    """Q @ m @ Q', with Q and Q' given by their ``_reflection_diagonal`` and applied as a reversal."""
    return d_left[:, None] * m[::-1, ::-1] * d_right[::-1]


@dataclass(frozen=True)
class MirrorRelationReport:
    """Residuals of the reflection identities to the mirror dual; ``check`` prints each field."""

    parity: str               # "odd" or "even" (parity of n)
    m1_residual: float
    m2_residual: float
    u_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.m1_residual, self.m2_residual, self.u_residual)


def verify_mirror_relations(v: VerblunskySequence) -> MirrorRelationReport:
    """Check that quasi-reflections conjugate the factors into the dual factors.

    With n odd and tau^2 = 1/omega:
        Q(1/tau) M1 Q(tau) = dual M1,  Q(tau) M2 Q(1/tau) = dual M2,
        Q(tau) U Q(tau) = dual U.
    With n even and tau^2 = omega:
        Q(1/tau) M1 Q(1/tau) = dual M2,  Q(tau) M2 Q(tau) = dual M1,
        Q(tau) U Q(1/tau) = transpose of dual U.
    Every identity involves tau quadratically, so both square root branches
    give the same residuals; tau is the principal branch.
    """
    (m1, m2), (mh1, mh2) = factors(v), factors(mirror_dual(v))
    u, uh = m2.dot(m1), mh2.dot(mh1)  # the products ``cmv_matrix`` forms
    odd = v.n % 2 == 1
    root = principal_sqrt_unimodular(v.omega)
    tau = np.conj(root) if odd else root
    q_tau, q_inv = _reflection_diagonal(tau, v.n + 1), _reflection_diagonal(1.0 / tau, v.n + 1)
    if odd:
        r1 = float(np.abs(_reflect(q_inv, m1, q_tau) - mh1).max())
        r2 = float(np.abs(_reflect(q_tau, m2, q_inv) - mh2).max())
        r3 = float(np.abs(_reflect(q_tau, u, q_tau) - uh).max())
    else:
        r1 = float(np.abs(_reflect(q_inv, m1, q_inv) - mh2).max())
        r2 = float(np.abs(_reflect(q_tau, m2, q_tau) - mh1).max())
        r3 = float(np.abs(_reflect(q_tau, u, q_inv) - uh.T).max())
    return MirrorRelationReport("odd" if odd else "even", r1, r2, r3)


def persymmetric_sign_pattern(v: VerblunskySequence) -> list[int]:
    """Eigenvalue signs of the quasi-reflection on the CMV eigenvectors.

    Requires n odd and self-dual data.  With tau the principal branch of
    omega^(-1/2), each eigenvector psi(z_s) of U is also an eigenvector of
    Q(tau) with eigenvalue epsilon (-1)^s for one global sign epsilon
    (nodes in theta-sorted order).  Componentwise this is the transport
    identity psi_{N-k} = epsilon (-1)^s omega^(+-1/2) psi_k, with exponent
    +1/2 for even k and -1/2 for odd k, read off the one Q(tau) psi; both
    are verified here to TRANSPORT_RESIDUAL, with each eigenvalue within
    SIGN_SLACK of +-1, for all nodes at once on the matrix of eigenvectors
    (``laurent_eigenvectors``) built from the ladder values v keeps.

    Returns the per-node signs; raises PersymmetryViolationError naming the
    first node (and component) where the pattern fails; before the solve,
    ``mirror._persymmetry_gate`` rejects data that are not self-dual or whose h_k underflows.
    """
    if v.n % 2 == 0:
        raise ShapeError("the sign pattern needs odd n")
    _persymmetry_gate(v)
    z = unit_points(spectrum(v))
    psi = _laurent_columns(v.node_values, z, v.h)
    tau = np.conj(principal_sqrt_unimodular(v.omega))
    qpsi = _reflection_diagonal(tau, v.n + 1)[:, None] * psi[::-1]  # Q(tau) psi
    mu = (np.conj(psi) * qpsi).sum(axis=0) / (np.abs(psi) ** 2).sum(axis=0)
    scale = np.maximum(1.0, np.abs(psi).max(axis=0))
    resid = np.abs(qpsi - mu * psi).max(axis=0) / scale
    signs = np.where(np.abs(mu - 1.0) <= SIGN_SLACK, 1, np.where(np.abs(mu + 1.0) <= SIGN_SLACK, -1, 0))
    transport = np.abs(qpsi - signs * psi)  # componentwise, across the middle of the vector
    off = transport > TRANSPORT_RESIDUAL * scale
    failing = (resid > TRANSPORT_RESIDUAL) | (signs == 0) | off.any(axis=0)
    if failing.any():
        s = int(np.argmax(failing))
        if resid[s] > TRANSPORT_RESIDUAL:
            raise PersymmetryViolationError(
                f"node {s}: eigenvector not reproduced, residual {resid[s]:.3e}"
            )
        if signs[s] == 0:
            raise PersymmetryViolationError(f"node {s}: eigenvalue {complex(mu[s])!r} is not +-1")
        k = int(np.argmax(off[:, s]))
        raise PersymmetryViolationError(
            f"node {s}, component {k}: transport identity off by {transport[k, s]:.3e}"
        )
    if (signs != signs[0] * (-1) ** np.arange(v.n + 1)).any():
        raise PersymmetryViolationError("signs do not alternate from a single epsilon")
    return signs.tolist()
