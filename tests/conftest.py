"""Shared corpus generators and oracles for the deterministic random tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from popuc import ShapeError, VerblunskySequence, make_persymmetric

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# what a VerblunskySequence may hold once checks have read it: its two fields
# and its memos; the CMV factors are built where they are read, never kept
KEPT = {"a", "omega", "h", "quadrature", "node_values", "phis"}


def random_verblunsky(rng: np.random.Generator, n: int, max_mag: float = 0.85) -> VerblunskySequence:
    """Coefficients uniform in the disc of radius max_mag, omega uniform on the circle."""
    radius = max_mag * np.sqrt(rng.uniform(size=n))
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    omega = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return VerblunskySequence(radius * np.exp(1j * phase), omega)


def count_calls(monkeypatch, module, name: str, calls: "list | None" = None) -> list:
    """Wrap module.name for the test; the returned list gets the arguments of each call.

    Pass the list of an earlier count as calls to count two modules' names as one.
    """
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_persymmetric(rng: np.random.Generator, n: int, max_mag: float = 0.8) -> VerblunskySequence:
    """Self-dual data from a random seed; middle parameter bounded like the rest."""
    half = n // 2
    radius = max_mag * np.sqrt(rng.uniform(size=half))
    free = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, half))
    mid = float(rng.uniform(-max_mag, max_mag)) if n % 2 else None
    omega = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return make_persymmetric(free, omega, middle_r=mid)


def eigenpair_residual(u: np.ndarray, psi: np.ndarray, z: np.ndarray) -> float:
    """Worst max |u psi_s - z_s psi_s| / max(1, max |psi_s|) over the columns psi_s."""
    resid = np.max(np.abs(u @ psi - z * psi), axis=0)
    return float(np.max(resid / np.maximum(1.0, np.max(np.abs(psi), axis=0))))


def characteristic_polynomial(m: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(zI - m), monic, by the Faddeev-LeVerrier recursion.

    Exact up to rounding and independent of any eigensolver; meant for small
    matrices (size <= 9 or so), as its cost grows like size^4.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("need a square matrix")
    size = m.shape[0]
    coeffs = np.zeros(size + 1, dtype=np.complex128)
    coeffs[size] = 1.0
    aux = np.zeros_like(m)
    eye = np.eye(size, dtype=np.complex128)
    for k in range(1, size + 1):
        aux = m @ (aux + coeffs[size - k + 1] * eye)
        coeffs[size - k] = -np.trace(aux) / k
    return coeffs
