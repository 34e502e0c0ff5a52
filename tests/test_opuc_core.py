"""Recurrence, spectrum and weights of finite paraorthogonal systems."""

import numpy as np
import pytest

from conftest import random_verblunsky
from popuc import (
    OpucSystem,
    Polynomial,
    ShapeError,
    SpectralData,
    SpectralValidityError,
    Tolerances,
    UnitCirclePoint,
    VerblunskySequence,
    WeightError,
    build_system,
    cmv_matrix,
    orthogonality_residual,
    paraorthogonality_residual,
    spectrum,
    verblunsky_from_polys,
    weights,
)


def test_verblunsky_validation():
    with pytest.raises(ValueError):
        VerblunskySequence(np.array([1.0 + 0j]), 1.0)
    with pytest.raises(ValueError):
        VerblunskySequence(np.array([0.0j]), 1.1)
    with pytest.raises(ShapeError):
        VerblunskySequence(np.array([], dtype=complex), 1.0)
    v = VerblunskySequence([0.5j], -1.0)
    assert v.n == 1


def test_build_simplest_system():
    v = VerblunskySequence([0.0j], 1.0)
    sys_ = build_system(v)
    assert np.allclose(sys_.phis[1].coeffs, [0, 1])
    assert np.allclose(sys_.phis[2].coeffs, [-1, 0, 1])
    assert np.allclose(sys_.h, [1.0, 1.0])


def test_build_running_sum_system():
    # a = (-1/2, -1/3), omega = -1 gives the running-sum ladder
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    sys_ = build_system(v)
    assert np.allclose(sys_.phis[1].coeffs, [0.5, 1])
    assert np.allclose(sys_.phis[2].coeffs, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(sys_.phis[3].coeffs, [1, 1, 1, 1])
    assert np.allclose(sys_.h, [1.0, 0.75, 2.0 / 3.0])


def test_monomial_ladder():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(0.6j))
    sys_ = build_system(v)
    for k in range(5):
        expected = np.zeros(k + 1)
        expected[k] = 1.0
        assert np.allclose(sys_.phis[k].coeffs, expected)
    top = np.zeros(6, dtype=complex)
    top[5] = 1.0
    top[0] = -np.conj(np.exp(0.6j))
    assert np.allclose(sys_.phis[5].coeffs, top)


def test_verblunsky_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        rec = verblunsky_from_polys(build_system(v).phis)
        full = np.concatenate([v.a, [v.omega]])
        assert float(np.max(np.abs(rec - full))) <= 1e-12


def test_verblunsky_from_polys_rejects_bad_input():
    with pytest.raises(ShapeError):
        verblunsky_from_polys([Polynomial([1.0])])
    with pytest.raises(ShapeError):
        verblunsky_from_polys([Polynomial([1.0]), Polynomial([0, 2.0])])
    with pytest.raises(ShapeError):
        verblunsky_from_polys([Polynomial([1.0]), Polynomial([0, 0, 1.0])])


def test_spectrum_fourth_roots():
    v = VerblunskySequence(np.zeros(3, dtype=complex), 1.0)
    nodes = spectrum(build_system(v))
    assert np.allclose([p.theta for p in nodes], [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_spectrum_rotated_monomials():
    nu = 0.3
    n = 5
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(2j * np.pi * nu))
    nodes = spectrum(build_system(v))
    expected = sorted((2 * np.pi * (s - nu) / (n + 1)) % (2 * np.pi) for s in range(n + 1))
    assert np.allclose([p.theta for p in nodes], expected)


def test_spectrum_rejects_off_circle_roots():
    # rounding leaves the eigenvalues a little off the circle; a radius
    # slack below that drift must make spectrum refuse them
    v = random_verblunsky(np.random.default_rng(101), 12)
    drift = float(np.max(np.abs(np.abs(np.linalg.eigvals(cmv_matrix(v))) - 1.0)))
    assert drift > 0.0
    spectrum(build_system(v), Tolerances(spectrum_radius=2 * drift))
    with pytest.raises(SpectralValidityError):
        spectrum(build_system(v), Tolerances(spectrum_radius=drift / 2))


def test_weights_flat_for_monomials():
    n = 4
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(1.1j))
    sys_ = build_system(v)
    nodes = spectrum(sys_)
    data = weights(sys_, nodes)
    assert np.allclose(data.weights, np.full(n + 1, 1.0 / (n + 1)))


def test_weights_running_sum_n2():
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    sys_ = build_system(v)
    nodes = spectrum(sys_)
    data = weights(sys_, nodes)
    assert np.allclose([p.theta for p in nodes], [np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(data.weights, [0.25, 0.5, 0.25])


def test_weights_positive_real_sum_one():
    rng = np.random.default_rng(29)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        sys_ = build_system(v)
        data = weights(sys_, spectrum(sys_))
        assert np.all(data.weights > 0)
        assert abs(float(np.sum(data.weights)) - 1.0) <= 1e-9


def test_spectral_data_validation():
    nodes = (UnitCirclePoint(0.5), UnitCirclePoint(0.2))
    with pytest.raises(ShapeError):
        SpectralData(nodes, np.array([0.5, 0.5]))
    nodes = (UnitCirclePoint(0.2), UnitCirclePoint(0.5))
    with pytest.raises(WeightError):
        SpectralData(nodes, np.array([1.5, -0.5]))
    with pytest.raises(WeightError):
        SpectralData(nodes, np.array([0.6, 0.6]))
    with pytest.raises(ShapeError):
        SpectralData(nodes, np.array([1.0]))


def test_paraorthogonality_closed_forms():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(1.3j))
    assert paraorthogonality_residual(build_system(v)) <= 1e-15
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    assert paraorthogonality_residual(build_system(v)) <= 1e-15


def test_paraorthogonality_random_corpus():
    rng = np.random.default_rng(31)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        assert paraorthogonality_residual(build_system(v)) <= 1e-10


def test_orthogonality_random_corpus():
    rng = np.random.default_rng(37)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        sys_ = build_system(v)
        data = weights(sys_, spectrum(sys_))
        assert orthogonality_residual(sys_, data) <= 1e-8


def test_spectrum_gaps_are_positive():
    rng = np.random.default_rng(41)
    for _ in range(30):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        nodes = spectrum(build_system(v))
        gaps = np.diff([p.theta for p in nodes])
        assert np.all(gaps > 1e-9)


# the n = 10 and 12 seeds each include a draw on which the weight formula
# h_N / (Phi'_{N+1}(z) conj(Phi_N(z))) in the monomial basis loses accuracy
@pytest.mark.parametrize("n, seed", [(10, 1578), (12, 47), (16, 0), (32, 0)])
def test_large_n_forward_matches_cmv_eigenproblem(n, seed):
    # reference: the unit eigenvectors of the CMV matrix, each weight the
    # squared modulus of its first component
    rng = np.random.default_rng([n, seed])
    for _ in range(5):
        v = random_verblunsky(rng, n)
        sys_ = build_system(v)
        data = weights(sys_, spectrum(sys_))
        lam, vecs = np.linalg.eig(cmv_matrix(v))
        order = np.argsort(np.angle(lam) % (2.0 * np.pi))
        ref_z = lam[order] / np.abs(lam[order])
        ref_w = np.abs(vecs[0, order]) ** 2
        got_z = np.array([complex(p) for p in data.nodes])
        assert float(np.max(np.abs(got_z - ref_z))) <= 1e-12
        assert float(np.max(np.abs(data.weights - ref_w))) <= 1e-10
        assert orthogonality_residual(sys_, data) <= 1e-8


def test_paraorthogonality_flags_a_moved_coefficient():
    # the residual is relative to the largest coefficient of Phi_{N+1}; a
    # real defect on an interior coefficient must still stand out
    rng = np.random.default_rng(43)
    v = random_verblunsky(rng, 12)
    sys_ = build_system(v)
    top = sys_.phis[-1].coeffs.copy()
    top[6] += 1e-6
    moved = OpucSystem(v)
    vars(moved)["phis"] = sys_.phis[:-1] + (Polynomial(top),)  # fill the cached ladder by hand
    assert paraorthogonality_residual(sys_) <= 1e-14
    assert paraorthogonality_residual(moved) > 1e-8
