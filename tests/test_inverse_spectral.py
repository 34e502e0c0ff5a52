"""Rebuilding persymmetric systems from their nodes."""

import re

import numpy as np
import pytest

from conftest import random_persymmetric, random_verblunsky
from popuc import (
    DegenerateNodesError,
    NotPersymmetricError,
    ReconstructionResult,
    ShapeError,
    SpectrumInconsistencyError,
    UnitCirclePoint,
    VerblunskySequence,
    build_system,
    free_family,
    krawtchouk_family,
    persymmetric_weights,
    persymmetry_defect,
    phi_n_values,
    reconstruct_persymmetric,
    single_moment,
    single_moment_persymmetric,
    spectrum,
)
from popuc.complex_poly import unit_points


def test_reconstruct_monomial_system():
    n = 5
    omega = np.exp(0.6j)
    v = VerblunskySequence(np.zeros(n, dtype=complex), omega)
    nodes = spectrum(build_system(v))
    result = reconstruct_persymmetric(nodes, omega)
    assert float(np.max(np.abs(result.v.a))) <= 1e-10
    assert np.isclose(result.h_final, 1.0)
    assert result.spectrum_residual <= 1e-10


def test_reconstruct_krawtchouk():
    omega = np.exp(1j * np.pi / 3)
    fam = krawtchouk_family(4, omega)
    nodes = spectrum(build_system(fam.v))
    result = reconstruct_persymmetric(nodes, omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-8


def test_reconstruct_running_sum_persymmetric():
    fam = single_moment_persymmetric(7)
    nodes = spectrum(build_system(fam.v))
    result = reconstruct_persymmetric(nodes, fam.v.omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-8


def test_reconstruct_random_corpus():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        for _ in range(5):
            v = random_persymmetric(rng, n)
            sys_ = build_system(v)
            nodes = spectrum(sys_)
            result = reconstruct_persymmetric(nodes, v.omega)
            assert float(np.max(np.abs(result.v.a - v.a))) <= 1e-7, f"n={n}"
            assert abs(result.h_final - float(sys_.h[-1])) <= 1e-8 * sys_.h[-1]
            assert result.spectrum_residual <= 1e-7


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: free_family(n, 0.3),
        single_moment_persymmetric,
        lambda n: krawtchouk_family(n, np.exp(0.9j)),
    ],
    ids=["free", "single_moment_persymmetric", "krawtchouk"],
)
def test_reconstruct_families_at_large_n(make, n):
    fam = make(n)
    sys_ = build_system(fam.v)
    result = reconstruct_persymmetric(spectrum(sys_), fam.v.omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-12
    assert result.spectrum_residual <= 1e-12
    assert abs(result.h_final - float(sys_.h[-1])) <= 1e-10 * sys_.h[-1]


def test_reconstruct_random_draws_at_n64():
    rng = np.random.default_rng(64)
    for _ in range(4):
        v = random_persymmetric(rng, 64, max_mag=0.3)
        result = reconstruct_persymmetric(spectrum(build_system(v)), v.omega)
        assert float(np.max(np.abs(result.v.a - v.a))) <= 1e-12


@pytest.mark.parametrize(
    "inst, angles",
    [
        (free_family(4, 1e-13), lambda inst: inst.closed_form_nodes),
        (krawtchouk_family(7, np.exp(0.9j)), lambda inst: np.sort(np.angle(unit_points(inst.closed_form_nodes)))),
    ],
    ids=["free_node_just_below_two_pi", "krawtchouk_angles_in_minus_pi_pi"],
)
def test_reconstruct_reads_nodes_as_a_set_on_the_circle(inst, angles):
    # a node within UNIMODULAR below 2 pi and angles in (-pi, pi] name the same points as the spectrum
    result = reconstruct_persymmetric(angles(inst), inst.v.omega)
    assert float(np.max(np.abs(result.v.a - inst.v.a))) <= 1e-12
    assert result.spectrum_residual <= 1e-12


def test_reconstruct_raises_when_rebuilt_spectrum_misses(monkeypatch):
    import popuc.inverse_spectral as inverse_spectral

    fam = single_moment_persymmetric(5)
    nodes = spectrum(build_system(fam.v))
    residual = reconstruct_persymmetric(nodes, fam.v.omega).spectrum_residual
    monkeypatch.setattr(inverse_spectral, "RESIDUAL", -1.0)  # raises whatever the residual, 0.0 included
    with pytest.raises(NotPersymmetricError, match=re.escape(f"rebuilt spectrum misses the nodes by {residual:.3e}")):
        reconstruct_persymmetric(nodes, fam.v.omega)


def test_result_rejects_data_that_is_not_self_dual():
    with pytest.raises(NotPersymmetricError, match="recovered data has mirror defect"):
        ReconstructionResult(single_moment(4).v, 0.0, 0.0)


def test_any_node_set_is_the_spectrum_of_a_self_dual_system():
    # a persymmetric system is determined by its spectrum, so the nodes of
    # data that is not self-dual still come back as a self-dual system
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for _ in range(5):
            v = random_verblunsky(rng, n)
            nodes = spectrum(build_system(v))
            result = reconstruct_persymmetric(nodes, v.omega)
            assert persymmetry_defect(result.v) <= 1e-10, f"n={n}"
            rebuilt = unit_points(spectrum(build_system(result.v)))
            assert float(np.max(np.abs(rebuilt - unit_points(nodes)))) <= 1e-10, f"n={n}"


def test_reconstruction_sign_is_unique():
    # recompute the interpolation by hand and check exactly one sign
    # makes the leading coefficient positive real
    from popuc import lagrange_interpolate

    rng = np.random.default_rng(11)
    for n in (3, 6):
        v = random_persymmetric(rng, n)
        nodes = spectrum(build_system(v))
        signs = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        half = np.exp(-0.5j * np.angle(v.omega))
        g = signs * half * np.exp(0.5j * (n - 1) * nodes)
        c = lagrange_interpolate(unit_points(nodes), g).coeffs[-1]
        matches = [eps for eps in (1, -1) if abs(np.angle(eps * c)) <= 1e-6]
        assert len(matches) == 1


def test_reconstruct_rejects_inconsistent_omega():
    v = random_persymmetric(np.random.default_rng(13), 5)
    nodes = spectrum(build_system(v))
    with pytest.raises(SpectrumInconsistencyError):
        reconstruct_persymmetric(nodes, v.omega * np.exp(0.3j))


def test_reconstruct_input_gates():
    with pytest.raises(ShapeError):
        reconstruct_persymmetric((UnitCirclePoint(1.0),), 1.0)
    nodes = (UnitCirclePoint(2.0), UnitCirclePoint(1.0), UnitCirclePoint(3.0))
    with pytest.raises(ShapeError):
        reconstruct_persymmetric(nodes, 1.0)
    nodes = (UnitCirclePoint(1.0), UnitCirclePoint(2.0))
    with pytest.raises(ValueError):
        reconstruct_persymmetric(nodes, 2.0)
    nodes = (UnitCirclePoint(1.0), UnitCirclePoint(1.0 + 1e-13), UnitCirclePoint(4.0))
    with pytest.raises(DegenerateNodesError):
        reconstruct_persymmetric(nodes, 1.0)
    # increasing, but each point twice on the circle: read as a set, the copies are adjacent
    theta = np.array([0.5, 3.0, 0.5 + 2.0 * np.pi, 3.0 + 2.0 * np.pi])
    with pytest.raises(DegenerateNodesError, match="nodes only"):
        reconstruct_persymmetric(theta, complex(-1.0 / np.prod(np.exp(1j * theta))))


def test_non_finite_input_is_rejected_up_front():
    # RuntimeWarning is an error in this suite, so none may be emitted first
    with pytest.raises(ValueError, match=r"theta\[1\] is nan"):
        reconstruct_persymmetric(np.array([0.5, np.nan, 2.0]), 1.0)
    with pytest.raises(ValueError, match=r"theta\[2\] is inf"):
        reconstruct_persymmetric(np.array([0.5, 2.0, np.inf]), 1.0)
    nodes = np.array([0.5, 2.0, 4.0])
    with pytest.raises(ValueError, match="h_final must be positive"):
        persymmetric_weights(nodes, float("nan"))
    with pytest.raises(ValueError, match="h_final must be positive"):
        phi_n_values(nodes, 1.0, float("nan"), 1)


def test_log_h_final_matches_recovered_coefficients():
    # log h_N is formed in the log domain, so it stays exact where h_N
    # itself would leave the double range (Krawtchouk at n = 1024)
    omega = complex(np.exp(0.9j))
    inst = krawtchouk_family(256, omega)
    result = reconstruct_persymmetric(inst.closed_form_nodes, omega)
    expected = float(np.sum(np.log1p(-np.abs(result.v.a) ** 2)))
    assert abs(result.log_h_final - expected) <= 1e-9 * abs(expected)
    assert result.h_final == float(np.exp(result.log_h_final))
