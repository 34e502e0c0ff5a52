"""Rebuilding persymmetric systems from their nodes."""

import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import count_calls, random_persymmetric, random_verblunsky
from popuc import (
    DegenerateNodesError,
    NotPersymmetricError,
    ShapeError,
    SpectrumInconsistencyError,
    SzegoClassError,
    VerblunskySequence,
    free_family,
    krawtchouk_family,
    make_persymmetric,
    persymmetric_weights,
    persymmetry_defect,
    phi_n_values,
    reconstruct_persymmetric,
    single_moment_persymmetric,
    spectrum,
)
from popuc.complex_poly import node_angles, unit_points, wrap_angles
from popuc.mirror import _neg_log_derivative, mirrored
from popuc.opuc_core import SYMMETRIC_SOLVE_N


def test_reconstruct_monomial_system():
    n = 5
    omega = np.exp(0.6j)
    v = VerblunskySequence(np.zeros(n, dtype=complex), omega)
    nodes = spectrum(v)
    result = reconstruct_persymmetric(nodes, omega)
    assert float(np.max(np.abs(result.v.a))) <= 1e-10
    assert np.isclose(result.h_final, 1.0)
    assert result.spectrum_residual <= 1e-10


def test_reconstruct_krawtchouk():
    omega = np.exp(1j * np.pi / 3)
    fam = krawtchouk_family(4, omega)
    nodes = spectrum(fam.v)
    result = reconstruct_persymmetric(nodes, omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-8


def test_reconstruct_running_sum_persymmetric():
    fam = single_moment_persymmetric(7)
    nodes = spectrum(fam.v)
    result = reconstruct_persymmetric(nodes, fam.v.omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-8


def test_reconstruct_random_corpus():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        for _ in range(5):
            v = random_persymmetric(rng, n)
            nodes = spectrum(v)
            result = reconstruct_persymmetric(nodes, v.omega)
            assert float(np.max(np.abs(result.v.a - v.a))) <= 1e-7, f"n={n}"
            assert abs(result.h_final - float(v.h[-1])) <= 1e-8 * v.h[-1]
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
    result = reconstruct_persymmetric(spectrum(fam.v), fam.v.omega)
    assert float(np.max(np.abs(result.v.a - fam.v.a))) <= 1e-12
    assert result.spectrum_residual <= 1e-12
    assert abs(result.h_final - float(fam.v.h[-1])) <= 1e-10 * fam.v.h[-1]


def test_reconstruct_random_draws_at_n64():
    rng = np.random.default_rng(64)
    for _ in range(4):
        v = random_persymmetric(rng, 64, max_mag=0.3)
        result = reconstruct_persymmetric(spectrum(v), v.omega)
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
    nodes = spectrum(fam.v)
    residual = reconstruct_persymmetric(nodes, fam.v.omega).spectrum_residual
    monkeypatch.setattr(inverse_spectral, "RESIDUAL", -1.0)  # raises whatever the residual, 0.0 included
    with pytest.raises(NotPersymmetricError, match=re.escape(f"rebuilt spectrum misses the nodes by {residual:.3e}")):
        reconstruct_persymmetric(nodes, fam.v.omega)


def test_recovered_defect_is_checked_before_the_rebuild(monkeypatch):
    import popuc.inverse_spectral as inverse_spectral

    fam = single_moment_persymmetric(5)
    nodes = spectrum(fam.v)
    # no imaginary part is within a bound of -1 either, so the list the check reads is the peel's complex one
    defect = persymmetry_defect(VerblunskySequence(_reference_peel(nodes, fam.v.omega), fam.v.omega))
    rebuilds = count_calls(monkeypatch, inverse_spectral, "spectrum")
    monkeypatch.setattr(inverse_spectral, "RECOVERED_DEFECT", -1.0)  # raises whatever the defect, 0.0 included
    with pytest.raises(NotPersymmetricError, match=re.escape(f"recovered data has mirror defect {defect:.3e}")):
        reconstruct_persymmetric(nodes, fam.v.omega)
    assert rebuilds == []


def test_any_node_set_is_the_spectrum_of_a_self_dual_system():
    # a persymmetric system is determined by its spectrum, so the nodes of
    # data that is not self-dual still come back as a self-dual system
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for _ in range(5):
            v = random_verblunsky(rng, n)
            nodes = spectrum(v)
            result = reconstruct_persymmetric(nodes, v.omega)
            assert persymmetry_defect(result.v) <= 1e-10, f"n={n}"
            rebuilt = unit_points(spectrum(result.v))
            assert float(np.max(np.abs(rebuilt - unit_points(nodes)))) <= 1e-10, f"n={n}"


def test_reconstruction_sign_is_unique():
    # recompute the interpolation by hand and check exactly one sign
    # makes the leading coefficient positive real
    rng = np.random.default_rng(11)
    for n in (3, 6):
        v = random_persymmetric(rng, n)
        nodes = spectrum(v)
        signs = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        half = np.exp(-0.5j * np.angle(v.omega))
        g = signs * half * np.exp(0.5j * (n - 1) * nodes)
        c = np.linalg.solve(npoly.polyvander(unit_points(nodes), n), g)[-1]
        matches = [eps for eps in (1, -1) if abs(np.angle(eps * c)) <= 1e-6]
        assert len(matches) == 1


def test_reconstruct_rejects_inconsistent_omega():
    v = random_persymmetric(np.random.default_rng(13), 5)
    nodes = spectrum(v)
    with pytest.raises(SpectrumInconsistencyError):
        reconstruct_persymmetric(nodes, v.omega * np.exp(0.3j))


def test_two_nodes_closer_than_the_disc_allows_are_a_szego_class_error():
    # two nodes 1e-11 apart, above NODE_SEPARATION, with their consistent omega = -exp(-i(2 + 1e-11)):
    # the peel's first step lands on the circle, so a_0 is not inside the disc
    theta = np.array([1.0, 1.0 + 1e-11])
    with pytest.raises(SzegoClassError, match=r"^recovered \|a_0\| = 1\.0 is not inside the disc$"):
        reconstruct_persymmetric(theta, -np.exp(-1j * (2.0 + 1e-11)))


def test_reconstruct_input_gates():
    with pytest.raises(ShapeError):
        reconstruct_persymmetric(np.array([1.0]), 1.0)
    with pytest.raises(ShapeError):
        reconstruct_persymmetric(np.array([2.0, 1.0, 3.0]), 1.0)
    with pytest.raises(ValueError):
        reconstruct_persymmetric(np.array([1.0, 2.0]), 2.0)
    nodes = np.array([1.0, 1.0 + 1e-13, 4.0])
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
    # an infinite h_final used to come back as inf weights and +-inf+-infj values
    with pytest.raises(ValueError, match="h_final must be positive and finite"):
        persymmetric_weights(nodes, float("inf"))
    with pytest.raises(ValueError, match="h_final must be positive and finite"):
        phi_n_values(nodes, 1.0, float("inf"), 1)


def test_log_h_final_matches_recovered_coefficients():
    # log h_N is formed in the log domain, so it stays exact where h_N
    # itself would leave the double range (Krawtchouk at n = 1024)
    omega = complex(np.exp(0.9j))
    inst = krawtchouk_family(256, omega)
    result = reconstruct_persymmetric(inst.closed_form_nodes, omega)
    expected = float(np.sum(np.log1p(-np.abs(result.v.a) ** 2)))
    assert abs(result.log_h_final - expected) <= 1e-9 * abs(expected)
    assert result.h_final == float(np.exp(result.log_h_final))


def _reference_peel(nodes, omega: complex) -> np.ndarray:
    """The recovered a of the Arnoldi peel as written with ``@``, each list kept complex: the bits to match."""
    thetas = np.sort(wrap_angles(node_angles(nodes)))
    count, z = thetas.size, unit_points(thetas)
    log_w = _neg_log_derivative(z)
    scaled = np.exp(log_w - float(log_w.max()))
    free = count // 2
    basis = np.empty((free, count), dtype=np.complex128)
    conj_basis = np.empty_like(basis)
    basis[0] = np.sqrt(scaled / float(scaled.sum()))
    row = np.zeros(free, dtype=np.complex128)
    row[0] = 1.0
    a = np.empty(count - 1, dtype=np.complex128)
    for k in range(free):
        x = z * basis[k]
        np.conj(basis[k], out=conj_basis[k])
        q, q_conj = basis[: k + 1], conj_basis[: k + 1]
        column = q_conj @ x
        x -= column @ q
        again = q_conj @ x
        x -= again @ q
        r_kk = complex(row[: k + 1] @ (column + again))
        a[k] = r_kk.conjugate()
        if k + 1 < free:
            rho = np.vdot(x, x).real ** 0.5
            basis[k + 1] = x / rho
            row[: k + 1] *= rho
            row[k + 1] = -r_kk
    a[free:] = mirrored(a[: count - 1 - free], complex(omega))
    return a


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_peel_keeps_the_bits_of_the_matmul_form():
    # the peel's products go through ndarray.dot, which runs the BLAS routine matmul runs
    rng = np.random.default_rng(34)
    for _ in range(200):
        v = random_persymmetric(rng, int(rng.integers(2, 42)))
        nodes = spectrum(v)
        assert _same_bits(reconstruct_persymmetric(nodes, v.omega).v.a, _reference_peel(nodes, v.omega)), f"n={v.n}"
    for n in range(8, 65):
        for inst in (free_family(n, 0.3), krawtchouk_family(n, np.exp(0.9j))):
            nodes = spectrum(inst.v)
            assert _same_bits(reconstruct_persymmetric(nodes, inst.v.omega).v.a, _reference_peel(nodes, inst.v.omega))


_REAL_SPECTRA = {
    "single_moment_persymmetric": single_moment_persymmetric,
    "free_nu_0": lambda n: free_family(n, 0.0),
    "free_nu_half": lambda n: free_family(n, 0.5),
    "krawtchouk_omega_1": lambda n: krawtchouk_family(n, 1.0),
}


@pytest.mark.parametrize("n", [8, 9, 20, 21, 64, 255])
@pytest.mark.parametrize("name", list(_REAL_SPECTRA))
def test_real_spectrum_is_recovered_as_real_data(monkeypatch, name, n):
    # omega = +-1 and a node set closed under conjugation: the self-dual list is
    # real, so the peel's rounding-level imaginary parts go and the rebuild runs
    # the real solve, one float64 eigh below SYMMETRIC_SOLVE_N and two halves from it
    inst = _REAL_SPECTRA[name](n)
    nodes = spectrum(inst.v)
    complex_error = float(np.abs(_reference_peel(nodes, inst.v.omega) - inst.v.a).max())
    solves = count_calls(monkeypatch, np.linalg, "eigh")
    result = reconstruct_persymmetric(nodes, inst.v.omega)
    assert result.v.a.imag.tolist() == [0.0] * n
    assert float(np.abs(result.v.a - inst.v.a).max()) <= complex_error
    assert result.spectrum_residual <= 1e-12
    shapes = [args[0].shape for args in solves]
    assert [args[0].dtype for args in solves] == [np.float64] * len(shapes)
    assert len(shapes) == (1 if n < SYMMETRIC_SOLVE_N else 2)
    assert sum(rows for rows, _ in shapes) == n + 1


@pytest.mark.parametrize("omega", [1.0, complex(np.exp(0.9j))], ids=["omega_1", "omega_e_0.9i"])
def test_spectrum_not_closed_under_conjugation_keeps_complex_recovery(omega):
    # a complex self-dual list with omega = 1 has a spectrum that is not its own
    # conjugate, and e^{0.9i} is not real: both keep the complex list bit for bit
    rng = np.random.default_rng(9)
    for n in (8, 9, 20, 21, 40):
        free = 0.6 * np.sqrt(rng.uniform(size=n // 2)) * np.exp(2j * np.pi * rng.uniform(size=n // 2))
        v = make_persymmetric(free, omega, middle_r=0.3 if n % 2 else None)
        nodes = spectrum(v)
        result = reconstruct_persymmetric(nodes, omega)
        assert _same_bits(result.v.a, _reference_peel(nodes, omega)), f"n={n}"
        assert np.abs(result.v.a.imag).max() > 1e-3


@pytest.mark.parametrize("shift, real", [(1e-12, True), (1e-9, False)], ids=["within_residual", "beyond_residual"])
def test_distance_from_the_conjugate_set_decides_real_recovery(shift, real):
    # two nodes moved by +-shift keep the node product, so a self-dual list with
    # exactly these nodes and omega = -1 exists; its imaginary parts, about shift,
    # pass RECOVERED_DEFECT either way, and the node set's distance from its
    # conjugate set, against RESIDUAL, decides whether they are dropped
    inst = single_moment_persymmetric(21)
    theta = np.array(spectrum(inst.v))
    theta[2] += shift
    theta[5] -= shift
    result = reconstruct_persymmetric(theta, inst.v.omega)
    if real:
        assert result.v.a.imag.tolist() == [0.0] * 21
        assert result.spectrum_residual <= 1e-11
    else:
        assert _same_bits(result.v.a, _reference_peel(theta, inst.v.omega))
        assert 1e-10 <= float(np.abs(result.v.a.imag).max()) <= 1e-8
        assert result.spectrum_residual <= 1e-14
