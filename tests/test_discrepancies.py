"""Calibration tests that pin formula choices against nearby variants.

Several identities in this package admit plausible-looking variants
(a flipped conjugation, a different normalization constant) that circulate
in handwritten derivations.  Each test here shows the implemented choice is
consistent with an independent computation while the variant fails by a
wide margin, so a regression to the variant cannot pass silently.
"""

import numpy as np

from conftest import eigenpair_residual, random_verblunsky
from popuc import (
    VerblunskySequence,
    krawtchouk_family,
    laurent_eigenvectors,
    single_moment,
    spectrum,
    weights,
)
from popuc.opuc_core import factors
from popuc.complex_poly import unit_points
from popuc.families import _krawtchouk_ladder


def test_running_sum_weight_prefactor():
    # quadrature weights from the recurrence match (2/(n+2)) sin^2 exactly;
    # the variant prefactor (n+2)/2 fails normalization by a factor
    # ((n+2)/2)^2
    for n in (2, 5, 9):
        fam = single_moment(n)
        data = weights(fam.v, spectrum(fam.v))
        half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
        correct = (2.0 / (n + 2)) * np.sin(half) ** 2
        assert float(np.max(np.abs(data.weights - correct))) <= 1e-12
        variant = ((n + 2) / 2.0) * np.sin(half) ** 2
        assert abs(float(np.sum(variant)) - ((n + 2) / 2.0) ** 2) <= 1e-9
        assert abs(float(np.sum(variant)) - 1.0) > 1.0


def test_linear_family_duality_sign():
    # the linear-coefficient family is self-dual under
    # a_k = -omega conj(a_{n-1-k}); the sign-flipped variant is far off
    for n, omega in [(5, np.exp(0.7j)), (4, 1j), (7, np.exp(-1.1j))]:
        a = krawtchouk_family(n, omega).v.a
        rev = np.conj(a[::-1])
        assert float(np.max(np.abs(a + omega * rev))) <= 1e-13
        assert float(np.max(np.abs(a - omega * rev))) > 1e-2


def test_rotation_block_conjugation():
    # only the conjugated-block convention makes the ladder roots
    # eigenvalues of the five-diagonal matrix; the plain-block variant
    # produces the conjugate system and misses by O(1)
    rng = np.random.default_rng(101)
    v = random_verblunsky(rng, 5)
    nodes = spectrum(v)

    def eigen_residual(conjugate_blocks):
        # the plain-block variant is the conjugated-block builder on conjugated data
        w = v if conjugate_blocks else VerblunskySequence(np.conj(v.a), np.conj(v.omega))
        m1, m2 = factors(w)
        u = m2 @ m1
        z = unit_points(nodes)
        return eigenpair_residual(u, laurent_eigenvectors(v, z), z)

    assert eigen_residual(True) <= 1e-10
    assert eigen_residual(False) > 1e-2


def test_krawtchouk_scaling_constant():
    # the ladder only divides through by (w - omega) when the squared
    # scaling constant is 4 |1 + omega|^2 / (n+1)^2; dropping the 4/(n+1)
    # factor leaves a large division remainder
    n = 4
    omega = np.exp(0.8j)

    def worst_remainder(kappa_sq):
        return max(abs(remainder) for _, remainder, _ in _krawtchouk_ladder(n, omega, kappa_sq))

    implemented = 4.0 * abs(1.0 + omega) ** 2 / (n + 1.0) ** 2
    variant = abs(1.0 + omega) ** 2 / (n + 1.0)
    assert worst_remainder(implemented) <= 1e-12
    assert worst_remainder(variant) > 1e-3


def test_closure_conjugation_side():
    # the closure identity conjugate-reverses the final polynomial:
    # top^* + omega top = 0.  Putting omega on the star side only
    # works for real omega; at omega = i it misses by exactly 2
    omega = 1j
    v = VerblunskySequence(np.zeros(3, dtype=complex), omega)
    top = v.phis[-1]
    starred = np.conj(top[::-1])
    correct = np.max(np.abs(starred + omega * top))
    variant = np.max(np.abs(omega * starred + top))
    assert float(correct) <= 1e-15
    assert np.isclose(float(variant), 2.0)

    # on generic data the variant's top coefficient is exactly 1 - omega^2
    # (the constant term of the closure is -conj(omega)), so any closure
    # parameter away from +-1 keeps the variant bounded below
    rng = np.random.default_rng(103)
    for angle in (0.6, 2.0, -1.2, -2.7):
        w = np.exp(1j * angle)
        a = random_verblunsky(rng, 6).a
        top = VerblunskySequence(a, w).phis[-1]
        starred = np.conj(top[::-1])
        assert float(np.max(np.abs(starred + w * top))) <= 1e-12
        variant = float(np.max(np.abs(w * starred + top)))
        assert variant >= 2.0 * abs(np.sin(angle)) - 1e-9
