"""Five-diagonal unitary matrices, quasi-reflections and sign patterns."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    KEPT,
    characteristic_polynomial,
    count_calls,
    eigenpair_residual,
    random_persymmetric,
    random_verblunsky,
)
from popuc import (
    krawtchouk_family,
    NotPersymmetricError,
    PersymmetryViolationError,
    ShapeError,
    VerblunskySequence,
    WeightError,
    cmv_matrix,
    factors,
    laurent_eigenvectors,
    make_persymmetric,
    mirror_dual,
    principal_sqrt_unimodular,
    quasi_reflection,
    single_moment_persymmetric,
    spectrum,
    theta_block,
    unitarity_residual,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    persymmetric_sign_pattern,
)
from popuc.complex_poly import unit_points


def test_theta_block_values():
    assert np.allclose(theta_block(0.0), [[0, 1], [1, 0]])
    assert np.allclose(theta_block(0.6), [[0.6, 0.8], [0.8, -0.6]])
    b = theta_block(0.3j)
    assert np.isclose(b[0, 0], 0.3j)
    assert np.isclose(b[1, 1], 0.3j)  # -conj(0.3j) = 0.3j
    with pytest.raises(ValueError):
        theta_block(1.0)


def test_factors_equal_a_block_loop():
    # reference: one theta_block per coefficient, placed at rows k, k+1
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        v = random_verblunsky(rng, n)
        ref = [np.zeros((n + 1, n + 1), dtype=complex) for _ in range(2)]
        ref[0][0, 0] = 1.0
        for k in range(n):
            ref[(k + 1) % 2][k : k + 2, k : k + 2] = theta_block(np.conj(v.a[k]))
        ref[(n + 1) % 2][n, n] = np.conj(v.omega)
        m1, m2 = factors(v)
        assert np.array_equal(m1, ref[0]) and np.array_equal(m2, ref[1])


def test_factor_layout_odd():
    rng = np.random.default_rng(3)
    v = random_verblunsky(rng, 3)
    m1, m2 = factors(v)
    assert m1[0, 0] == 1.0
    assert np.isclose(m1[1, 1], np.conj(v.a[1]))
    assert np.isclose(m1[2, 2], -v.a[1])
    assert np.isclose(m1[3, 3], np.conj(v.omega))
    assert np.isclose(m2[0, 0], np.conj(v.a[0]))
    assert np.isclose(m2[1, 1], -v.a[0])
    assert np.isclose(m2[2, 2], np.conj(v.a[2]))
    assert np.isclose(m2[3, 3], -v.a[2])
    # everything outside the blocks vanishes
    assert m1[0, 1] == 0 and m1[1, 3] == 0 and m2[1, 2] == 0


def test_factor_layout_even():
    rng = np.random.default_rng(7)
    v = random_verblunsky(rng, 4)
    m1, m2 = factors(v)
    assert m1[0, 0] == 1.0
    assert np.isclose(m1[1, 1], np.conj(v.a[1]))
    assert np.isclose(m1[3, 3], np.conj(v.a[3]))
    assert np.isclose(m2[4, 4], np.conj(v.omega))
    assert unitarity_residual(m1) <= 1e-14
    assert unitarity_residual(m2) <= 1e-14


@pytest.mark.parametrize(
    "m, error, message",
    [
        (np.ones((3, 2)), ShapeError, r"^need a square matrix, got shape \(3, 2\)$"),
        (np.ones(3), ShapeError, r"^need a square matrix, got shape \(3,\)$"),
        (np.ones((2, 2, 2)), ShapeError, r"^need a square matrix, got shape \(2, 2, 2\)$"),
        (np.array([[1.0, 0.0], [np.nan, 1.0]]), ValueError, r"^m\[1, 0\] = nan is not finite$"),
        (np.array([[1.0, np.inf], [np.nan, 1.0]], dtype=complex), ValueError, r"^m\[0, 1\] = \(inf\+0j\) is not finite$"),
    ],
    ids=["3x2", "1d", "3d", "nan", "inf_before_nan"],
)
def test_unitarity_residual_checks_its_input(m, error, message):
    # a non-square array used to raise numpy's unrelated broadcast error or, in
    # one dimension, return 3.0; a NaN entry used to come back as nan
    with pytest.raises(error, match=message):
        unitarity_residual(m)


def test_free_cmv_is_a_permutation():
    v = VerblunskySequence(np.zeros(3, dtype=complex), 1.0)
    u = cmv_matrix(v)
    expected = np.array(
        [
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(u, expected)
    assert unitarity_residual(u) == 0.0


def test_dual_factors_match_hand_built_pattern():
    # the dual factors carry entries -conj(omega) a_{n-1-k} on the upper left,
    # omega conj(a_{n-1-k}) on the lower right, and the reversed rho
    rng = np.random.default_rng(11)
    v = random_verblunsky(rng, 5)
    w = v.omega
    rho = np.sqrt(1.0 - np.abs(v.a) ** 2)
    size = 6
    mh1 = np.zeros((size, size), dtype=complex)
    mh2 = np.zeros((size, size), dtype=complex)
    mh1[0, 0] = 1.0
    for k in (1, 3):
        j = 4 - k
        mh1[k : k + 2, k : k + 2] = [
            [-np.conj(w) * v.a[j], rho[j]],
            [rho[j], w * np.conj(v.a[j])],
        ]
    mh1[5, 5] = np.conj(w)
    for k in (0, 2, 4):
        j = 4 - k
        mh2[k : k + 2, k : k + 2] = [
            [-np.conj(w) * v.a[j], rho[j]],
            [rho[j], w * np.conj(v.a[j])],
        ]
    g1, g2 = factors(mirror_dual(v))
    assert float(np.max(np.abs(g1 - mh1))) <= 1e-12
    assert float(np.max(np.abs(g2 - mh2))) <= 1e-12


def test_cmv_is_pentadiagonal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        u = cmv_matrix(v)
        i, j = np.indices(u.shape)
        off_band = np.abs(u[np.abs(i - j) > 2])
        assert float(np.max(off_band, initial=0.0)) <= 1e-14


def test_cmv_unitarity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        assert unitarity_residual(cmv_matrix(v)) <= 1e-12


def test_eigenvector_relation():
    rng = np.random.default_rng(19)
    for _ in range(30):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        u = cmv_matrix(v)
        z = unit_points(spectrum(v))
        assert eigenpair_residual(u, laurent_eigenvectors(v, z), z) <= 1e-9


def test_laurent_matrix_matches_per_node_horner():
    # reference: each ladder entry evaluated by Horner's scheme at each node;
    # the recurrence sums in another order, so agreement is to rounding
    tol = 1e-12
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 8, 11, 12):
        v = random_verblunsky(rng, n)
        z = unit_points(spectrum(v))
        ref = np.empty((n + 1, n + 1), dtype=complex)
        for s, zz in enumerate(z):
            for k in range(n + 1):
                val = 0.0j
                for c in v.phis[k][::-1]:
                    val = val * zz + c
                if k % 2 == 0:
                    ref[k, s] = zz ** (-(k // 2)) * val / np.sqrt(v.h[k])
                else:
                    ref[k, s] = zz ** ((k - 1) // 2) * np.conj(val) / np.sqrt(v.h[k])
        got = laurent_eigenvectors(v, z)
        assert float(np.max(np.abs(got - ref))) <= tol * max(1.0, float(np.max(np.abs(ref))))


def test_characteristic_polynomial_matches_ladder_top():
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        v = random_verblunsky(rng, n)
        chi = characteristic_polynomial(cmv_matrix(v))
        assert float(np.max(np.abs(chi - v.phis[-1]))) <= 1e-10


def test_numpy_eigenvalues_match_spectrum():
    rng = np.random.default_rng(27)
    for _ in range(20):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        eig = np.linalg.eigvals(cmv_matrix(v))
        z = unit_points(spectrum(v))
        # Hausdorff distance between the two point sets
        d = np.abs(eig[:, None] - z[None, :])
        assert float(max(d.min(axis=0).max(), d.min(axis=1).max())) <= 1e-8


def test_characteristic_polynomial_small_oracle():
    chi = characteristic_polynomial(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(chi, [-1, 0, 1])
    with pytest.raises(ShapeError):
        characteristic_polynomial(np.zeros((2, 3)))


def test_laurent_pattern_for_monomials():
    n = 5
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(0.8j))
    z = complex(unit_points(spectrum(v))[2])
    psi = laurent_eigenvectors(v, np.array([z]))[:, 0]
    expected = [1, z**-1, z, z**-2, z**2, z**-3]
    assert np.allclose(psi, expected)


def test_laurent_eigenvectors_read_a_list_of_points():
    v = random_verblunsky(np.random.default_rng(45), 6)
    got = laurent_eigenvectors(v, [1 + 0j, 1j])
    assert got.tobytes() == laurent_eigenvectors(v, np.array([1 + 0j, 1j])).tobytes()


def test_laurent_eigenvectors_reject_points_off_the_circle():
    # the columns take conj(z) for 1/z, which holds only on the circle
    v = random_verblunsky(np.random.default_rng(46), 6)
    with pytest.raises(ValueError, match=r"^z\[1\] = \(1\.1\+0j\) is not unimodular$"):
        laurent_eigenvectors(v, np.array([1.0, 1.1, 2.0]))
    with pytest.raises(ValueError, match=r"^z\[0\] = \(nan\+0j\) is not unimodular$"):
        laurent_eigenvectors(v, np.array([np.nan]))
    with pytest.raises(ShapeError, match=r"one-dimensional array, got shape \(1, 1\)$"):
        laurent_eigenvectors(v, np.array([[1 + 0j]]))


def test_quasi_reflection_layout():
    q = quasi_reflection(3, 1j)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1j
    expected[1, 2] = -1j
    expected[2, 1] = 1j
    expected[3, 0] = -1j
    assert np.array_equal(q, expected)
    q1 = quasi_reflection(4, 1.0)
    assert np.array_equal(q1, np.fliplr(np.eye(5)))


def test_quasi_reflection_validation():
    with pytest.raises(ValueError):
        quasi_reflection(3, 2.0)
    with pytest.raises(ShapeError):
        quasi_reflection(-1, 1.0)


@given(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True), st.integers(1, 6))
def test_quasi_reflection_odd_squares_to_identity(angle, half):
    n = 2 * half - 1
    tau = np.exp(1j * angle)
    q = quasi_reflection(n, tau)
    assert float(np.max(np.abs(q @ q - np.eye(n + 1)))) <= 1e-12


@given(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True), st.integers(1, 6))
def test_quasi_reflection_even_pairing(angle, half):
    n = 2 * half
    tau = np.exp(1j * angle)
    q = quasi_reflection(n, tau)
    qi = quasi_reflection(n, 1.0 / tau)
    assert float(np.max(np.abs(q @ qi - np.eye(n + 1)))) <= 1e-12
    assert float(np.max(np.abs(q - q.T))) == 0.0
    eig = np.linalg.eigvals(q)
    allowed = np.array([tau, -tau, 1.0 / tau, -1.0 / tau])
    for lam in eig:
        assert float(np.min(np.abs(lam - allowed))) <= 1e-9


def test_mirror_relations_monomial():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(1.9j))
    assert verify_mirror_relations(v).max_residual <= 1e-13


def test_mirror_relations_random_corpus():
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        for _ in range(5):
            v = random_verblunsky(rng, n)
            report = verify_mirror_relations(v)
            assert report.max_residual <= 1e-10, f"n={n}: {report}"
            assert report.parity == ("odd" if n % 2 else "even")


def test_persymmetric_commutation():
    # for self-dual data with odd n the reflection commutes with the matrix
    rng = np.random.default_rng(31)
    for n in range(1, 13, 2):
        v = random_persymmetric(rng, n)
        u = cmv_matrix(v)
        tau = np.conj(principal_sqrt_unimodular(v.omega))
        q = quasi_reflection(n, tau)
        assert float(np.max(np.abs(q @ u - u @ q))) <= 1e-10


def test_even_persymmetric_transport():
    # even n: reflecting and conjugating an eigenvector gives another
    # eigenvector of U with the same eigenvalue, tau^2 = omega
    rng = np.random.default_rng(37)
    for n in range(2, 13, 2):
        v = random_persymmetric(rng, n)
        u = cmv_matrix(v)
        tau = principal_sqrt_unimodular(v.omega)
        qi = quasi_reflection(n, 1.0 / tau)
        z = unit_points(spectrum(v))
        phi = qi @ np.conj(laurent_eigenvectors(v, z))
        assert eigenpair_residual(u, phi, z) <= 1e-9


def test_sign_pattern_monomial():
    v = VerblunskySequence(np.zeros(3, dtype=complex), 1.0)
    signs = persymmetric_sign_pattern(v)
    assert signs in ([1, -1, 1, -1], [-1, 1, -1, 1])


def test_sign_pattern_random_corpus():
    rng = np.random.default_rng(41)
    for n in range(1, 13, 2):
        v = random_persymmetric(rng, n)
        signs = persymmetric_sign_pattern(v)
        assert len(signs) == n + 1
        eps = signs[0]
        assert signs == [eps * (-1) ** s for s in range(n + 1)]


@pytest.mark.parametrize("n", [23, 31, 43])
def test_sign_pattern_krawtchouk_large_odd_n(n):
    # the monomial ladder evaluated by Horner's scheme loses the eigenvector
    # relation here; the recurrence on the node values keeps it
    signs = persymmetric_sign_pattern(krawtchouk_family(n, complex(np.exp(0.9j))).v)
    assert signs == [signs[0] * (-1) ** s for s in range(n + 1)]


def test_sign_pattern_input_gates():
    rng = np.random.default_rng(43)
    with pytest.raises(ShapeError):
        persymmetric_sign_pattern(random_persymmetric(rng, 4))
    with pytest.raises(NotPersymmetricError, match=r"^coefficient list has mirror defect 5\.000e-01$"):
        persymmetric_sign_pattern(VerblunskySequence([0.5, 0.1, 0.0], 1.0))


def test_persymmetry_forms_name_an_underflowed_norm_before_the_solve(monkeypatch):
    # n = 241: h_k reaches exactly 0.0 at k = 192, so sqrt(h_k) is no divisor
    v = make_persymmetric(np.full(120, 0.99), 1.0, 0.5)
    assert float(v.h[191]) > 0.0 and float(v.h[192]) == 0.0
    solves = count_calls(monkeypatch, np.linalg, "eigh")
    checks = (persymmetric_sign_pattern, verify_persymmetry_characterizations,
              lambda v: laurent_eigenvectors(v, np.array([1 + 0j])))
    for check in checks:
        with pytest.raises(WeightError, match=r"^squared norm h_192 underflows to 0"):
            check(v)
    assert solves == [] and "quadrature" not in vars(v)


def _scale_one_value(theta, vals):
    vals[3, 2] *= 1.0 + 1e-6


def _shrink_a_mixed_column(theta, vals):
    vals[:, 4] = 1e-12 * (vals[:, 4] + vals[:, 5])  # too small to fail the eigenvector test


def _swap_two_nodes(theta, vals):
    theta[[2, 3]] = theta[[3, 2]]
    vals[:, [2, 3]] = vals[:, [3, 2]]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_scale_one_value, "node 2: eigenvector not reproduced"),
        (_shrink_a_mixed_column, r"node 4: eigenvalue .* is not \+-1"),
        (_swap_two_nodes, "signs do not alternate from a single epsilon"),
    ],
    ids=["eigenvector", "eigenvalue", "alternation"],
)
def test_sign_pattern_names_each_fault(corrupt, message):
    # valid self-dual data whose kept nodes and ladder values are then corrupted
    v = single_moment_persymmetric(9).v
    theta, vals = v.quadrature[0].copy(), v.node_values.copy()
    corrupt(theta, vals)
    vars(v)["quadrature"] = (theta, v.quadrature[1])
    vars(v)["node_values"] = vals
    with pytest.raises(PersymmetryViolationError, match=message):
        persymmetric_sign_pattern(v)


@pytest.mark.parametrize("n", [9, 8])
def test_mirror_checks_share_one_solve_and_one_ladder(monkeypatch, n):
    # the checks the self-dual benchmark runs, each given the coefficient list
    import popuc.cmv as cmv
    import popuc.opuc_core as opuc_core

    v = random_persymmetric(np.random.default_rng(71), n)
    solves = count_calls(monkeypatch, np.linalg, "eigh")
    ladders, builds = [], []
    for module in (opuc_core, cmv):
        count_calls(monkeypatch, module, "ladder_values", ladders)
        count_calls(monkeypatch, module, "factors", builds)
    if n % 2:
        persymmetric_sign_pattern(v)
        assert set(vars(v)) <= KEPT
    assert verify_persymmetry_characterizations(v).max_residual <= 1e-8
    assert set(vars(v)) <= KEPT
    assert verify_mirror_relations(v).max_residual <= 1e-10
    assert set(vars(v)) <= KEPT
    assert (len(solves), len(ladders)) == (1, 1)
    # v for the solve, v again and then its mirror dual for the relations, which keep neither pair
    assert [args[0] is v for args in builds] == [True, True, False]
