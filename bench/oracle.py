"""Reference computations made apart from popuc, with numpy alone.

Nothing here imports popuc, so a fault in the package cannot leak into the
numbers its outputs are checked against.

* ``quadrature``: the CMV eigenproblem (Cantero-Moral-Velazquez 2003).  The
  nodes are the eigenvalues of U = M2 M1 and each weight is the squared
  modulus of the first component of the matching unit eigenvector.
* ``family``: the closed forms of the five example families, derived on
  paper and evaluated here directly.
* ``self_dual``: random mirror-symmetric (self-dual) coefficient data.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi

# omega of the krawtchouk family in the families workload
KRAWTCHOUK_OMEGA_ARG = 0.9
# rotation (in turns) of the free family in the families workload
FREE_NU = 0.3

FAMILIES = (
    "free",
    "single_moment",
    "single_moment_dual",
    "single_moment_persymmetric",
    "krawtchouk",
)
MIRROR_SYMMETRIC = ("free", "single_moment_persymmetric", "krawtchouk")


def _block(a: complex) -> np.ndarray:
    rho = math.sqrt(1.0 - abs(a) ** 2)
    return np.array([[np.conj(a), rho], [rho, -a]], dtype=np.complex128)


def cmv_matrix(a: np.ndarray, omega: complex) -> np.ndarray:
    """U = M2 M1: M1 = 1 + odd blocks, M2 = even blocks, tail conj(omega)."""
    n = len(a)
    m1 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    m2 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    m1[0, 0] = 1.0
    for k in range(n):
        m = m1 if k % 2 else m2
        m[k : k + 2, k : k + 2] = _block(complex(a[k]))
    (m2 if n % 2 == 0 else m1)[n, n] = np.conj(omega)
    return m2 @ m1


def quadrature(a: np.ndarray, omega: complex) -> tuple[np.ndarray, np.ndarray]:
    """Node angles in [0, 2 pi), ascending, and their weights."""
    lam, vec = np.linalg.eig(cmv_matrix(a, omega))
    first = vec[0] / np.linalg.norm(vec, axis=0)
    theta = np.mod(np.angle(lam), TWO_PI)
    order = np.argsort(theta)
    return theta[order], np.abs(first[order]) ** 2


def family(name: str, n: int) -> tuple[np.ndarray, complex, np.ndarray, np.ndarray]:
    """Generating data (a, omega) and closed-form (theta ascending, weights)."""
    s = np.arange(n + 1)
    half = np.pi * (s + 1.0) / (n + 2)  # single-moment nodes sit at 2 * half
    if name == "free":
        omega = complex(np.exp(TWO_PI * 1j * FREE_NU))
        a = np.zeros(n, dtype=np.complex128)
        theta = np.mod(TWO_PI * (s - FREE_NU) / (n + 1), TWO_PI)
        w = np.full(n + 1, 1.0 / (n + 1))
    elif name == "single_moment":
        omega = -1.0 + 0.0j
        a = -1.0 / (np.arange(n) + 2.0) + 0j
        theta, w = 2.0 * half, (2.0 / (n + 2)) * np.sin(half) ** 2
    elif name == "single_moment_dual":
        omega = -1.0 + 0.0j
        a = -1.0 / (n + 1.0 - np.arange(n)) + 0j
        theta, w = 2.0 * half, np.full(n + 1, 1.0 / (n + 1))
    elif name == "single_moment_persymmetric":
        nu = np.pi / (2.0 * (n + 2))
        omega = -1.0 + 0.0j
        a = -np.sin(nu) / np.sin(nu * (2.0 * np.arange(n) + 3.0)) + 0j
        theta, w = 2.0 * half, np.tan(nu) * np.sin(half)
    elif name == "krawtchouk":
        sigma = KRAWTCHOUK_OMEGA_ARG
        omega = complex(np.exp(1j * sigma))
        a = (omega + 1.0) * (np.arange(n) + 1.0) / (n + 1.0) - 1.0
        # cos(theta_k / 2) = (2k / (n+1) - 1) cos(sigma / 2), k = 0 .. n+1;
        # the candidate at omega itself (k = n+1) is not a node
        k = np.arange(n + 1)
        h = np.arccos((2.0 * k / (n + 1.0) - 1.0) * np.cos(sigma / 2.0))
        binom = np.array([math.comb(n + 1, int(j)) for j in k], dtype=np.float64)
        w = binom * np.abs(np.sin(h - sigma / 2.0) / np.sin(h))
        theta, w = 2.0 * h, w / w.sum()
    else:
        raise ValueError(f"unknown family {name!r}")
    order = np.argsort(theta)
    return np.asarray(a, dtype=np.complex128), omega, theta[order], w[order]


def self_dual(rng: np.random.Generator, n: int, max_mag: float = 0.8) -> tuple[np.ndarray, float]:
    """Self-dual data a_{n-1-k} = -omega conj(a_k); returns (a, arg omega).

    The free half is uniform in the disc |a| <= max_mag.  For odd n the
    middle coefficient lies on the line i r omega^(1/2) with |r| <= max_mag.
    omega = exp(i arg) with arg in [-pi, pi), so the command line's
    --omega-arg reproduces it bit for bit.
    """
    half = n // 2
    free = max_mag * np.sqrt(rng.uniform(size=half)) * np.exp(TWO_PI * 1j * rng.uniform(size=half))
    arg = float(rng.uniform(-np.pi, np.pi))
    omega = complex(np.exp(1j * arg))
    a = np.zeros(n, dtype=np.complex128)
    a[:half] = free
    a[n - 1 - np.arange(half)] = -omega * np.conj(free)
    if n % 2:
        a[half] = 1j * rng.uniform(-max_mag, max_mag) * np.exp(0.5j * arg)
    return a, arg


def random_disc(rng: np.random.Generator, n: int, max_mag: float = 0.85) -> tuple[np.ndarray, complex]:
    """Coefficients uniform in the disc |a| <= max_mag, omega uniform on the circle."""
    a = max_mag * np.sqrt(rng.uniform(size=n)) * np.exp(TWO_PI * 1j * rng.uniform(size=n))
    return a, complex(np.exp(TWO_PI * 1j * rng.uniform()))


def mirror_dual(a: np.ndarray, omega: complex) -> np.ndarray:
    return -omega * np.conj(a[::-1])


def match_error(
    theta: np.ndarray, w: np.ndarray, ref_theta: np.ndarray, ref_w: np.ndarray
) -> tuple[float, float]:
    """Worst node distance on the circle and worst weight difference.

    Each node is paired with the nearest reference node, so the order of
    either list does not matter; a pairing that is not one to one counts as
    an infinite error.
    """
    z, ref = np.exp(1j * np.asarray(theta)), np.exp(1j * np.asarray(ref_theta))
    if z.shape != ref.shape:
        return np.inf, np.inf
    dist = np.abs(z[:, None] - ref[None, :])
    pick = np.argmin(dist, axis=1)
    if np.unique(pick).size != pick.size:
        return np.inf, np.inf
    node_err = float(np.max(dist[np.arange(pick.size), pick]))
    return node_err, float(np.max(np.abs(np.asarray(w) - ref_w[pick])))
