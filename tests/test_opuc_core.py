"""Recurrence, spectrum and weights of finite paraorthogonal systems."""

import gc
import weakref

import numpy as np
import pytest

from conftest import KEPT, count_calls, random_persymmetric, random_verblunsky, symmetric_form
from popuc import (
    ShapeError,
    SpectralValidityError,
    VerblunskySequence,
    WeightError,
    cmv_matrix,
    dual_weights,
    factors,
    free_family,
    make_persymmetric,
    orthogonality_residual,
    paraorthogonality_residual,
    persymmetric_sign_pattern,
    persymmetric_weights,
    phi_n_values,
    reconstruct_persymmetric,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    spectrum,
    krawtchouk_family,
    unitarity_residual,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.complex_poly import node_angles, unit_points, wrap_angles
from popuc.opuc_core import (
    SYMMETRIC_SOLVE_N,
    eigen_rows,
    ladder_values,
    symmetric_rows,
)
from popuc.tolerances import SPECTRUM_RADIUS


def test_verblunsky_validation():
    with pytest.raises(ValueError):
        VerblunskySequence(np.array([1.0 + 0j]), 1.0)
    with pytest.raises(ValueError):
        VerblunskySequence(np.array([0.0j]), 1.1)
    with pytest.raises(ShapeError):
        VerblunskySequence(np.array([], dtype=complex), 1.0)
    v = VerblunskySequence([0.5j], -1.0)
    assert v.n == 1


@pytest.mark.parametrize(
    "gate, error, message",
    [
        (lambda: VerblunskySequence([0.1, 0.2], np.nan), ValueError, r"omega = \(nan\+0j\) is not unimodular"),
        (lambda: VerblunskySequence([0.1, np.nan], 1.0), ValueError, r"\|a_1\| = nan must stay strictly inside"),
        (lambda: make_persymmetric([0.1], complex(np.nan, 0.0)), ValueError, r"omega = \(nan\+0j\) is not unimodular"),
        (lambda: make_persymmetric([np.nan], 1.0), ValueError, r"\|free_params_0\| = nan must stay strictly inside"),
        (lambda: krawtchouk_family(4, complex(np.nan, np.nan)), ValueError, r"omega = \(nan\+nanj\) is not unimodular"),
        (lambda: free_family(3, np.nan), ValueError, r"nu = nan must be finite"),
        (lambda: reconstruct_persymmetric(np.array([0.5, 2.0, 4.0]), np.nan), ValueError, r"omega = \(nan\+0j\)"),
        (lambda: persymmetric_weights(np.array([0.1, np.nan]), 1.0), ValueError, r"theta\[1\] is nan"),
        (lambda: phi_n_values(np.array([0.1, np.nan]), 1, 1.0, 1), ValueError, r"theta\[1\] is nan"),
        (lambda: persymmetric_weights(np.array([0.1, 0.1, 2.0]), 1.0), ShapeError, r"strictly increasing in theta; theta 0\.1 is given twice$"),
        (lambda: phi_n_values(np.array([0.1, 0.1, 2.0]), 1, 1.0, 1), ShapeError, r"strictly increasing in theta; theta 0\.1 is given twice$"),
    ],
    ids=["VerblunskySequence", "VerblunskySequence_a", "make_persymmetric",
         "make_persymmetric_free_params", "krawtchouk_family", "free_family_nu", "reconstruct_persymmetric",
         "persymmetric_weights_nan", "phi_n_values_nan", "persymmetric_weights_repeated",
         "phi_n_values_repeated"],
)
def test_nan_fails_every_unimodular_and_disc_gate(gate, error, message):
    # abs(abs(nan) - 1) > bound is False, so a gate written that way lets NaN through;
    # repeated angles ride along, since the same angle gate rejects them
    with pytest.raises(error, match=message):
        gate()


def test_build_simplest_system():
    v = VerblunskySequence([0.0j], 1.0)
    assert np.allclose(v.phis[1], [0, 1])
    assert np.allclose(v.phis[2], [-1, 0, 1])
    assert np.allclose(v.h, [1.0, 1.0])


def test_build_running_sum_system():
    # a = (-1/2, -1/3), omega = -1 gives the running-sum ladder
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    assert np.allclose(v.phis[1], [0.5, 1])
    assert np.allclose(v.phis[2], [1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(v.phis[3], [1, 1, 1, 1])
    assert np.allclose(v.h, [1.0, 0.75, 2.0 / 3.0])


def test_monomial_ladder():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(0.6j))
    for k in range(5):
        expected = np.zeros(k + 1)
        expected[k] = 1.0
        assert np.allclose(v.phis[k], expected)
    top = np.zeros(6, dtype=complex)
    top[5] = 1.0
    top[0] = -np.conj(np.exp(0.6j))
    assert np.allclose(v.phis[5], top)


def _ladder_by_polynomials(v):
    # Phi_{k+1} = z Phi_k - conj(a_k) Phi_k^*, one coefficient array per rung
    phis = [np.ones(1, dtype=complex)]
    for k, a_k in enumerate(list(v.a) + [v.omega]):
        prev = phis[-1]
        nxt = np.zeros(k + 2, dtype=complex)
        nxt[1:] = prev
        nxt[: k + 1] -= np.conj(a_k) * np.conj(prev[::-1])
        phis.append(nxt)
    return phis


def test_ladder_array_matches_polynomial_construction():
    rng = np.random.default_rng(61)
    cases = [random_verblunsky(rng, n) for n in range(1, 13)]
    cases.append(krawtchouk_family(64, np.exp(0.9j)).v)
    for v in cases:
        phis = v.phis
        expected = _ladder_by_polynomials(v)
        assert len(phis) == len(expected) == v.n + 2
        for k, (row, ref) in enumerate(zip(phis, expected)):
            assert type(row) is np.ndarray and row.shape == (k + 1,)
            assert np.array_equal(row, ref)
    row = cases[0].phis[1]
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_verblunsky_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        rec = np.array([-np.conj(p[0]) for p in v.phis[1:]])  # a_k = -conj(Phi_{k+1}(0))
        full = np.concatenate([v.a, [v.omega]])
        assert float(np.max(np.abs(rec - full))) <= 1e-12


def test_spectrum_fourth_roots():
    v = VerblunskySequence(np.zeros(3, dtype=complex), 1.0)
    nodes = spectrum(v)
    assert np.allclose(nodes, [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_spectrum_rotated_monomials():
    nu = 0.3
    n = 5
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(2j * np.pi * nu))
    nodes = spectrum(v)
    expected = sorted((2 * np.pi * (s - nu) / (n + 1)) % (2 * np.pi) for s in range(n + 1))
    assert np.allclose(nodes, expected)


def test_spectrum_rejects_off_circle_roots(monkeypatch):
    # two copies of the coefficient list solved by a stand-in for eigen_rows
    # that pushes one eigenvalue off the circle by half and by twice SPECTRUM_RADIUS
    import popuc.opuc_core as opuc_core

    v = random_verblunsky(np.random.default_rng(101), 12)
    lam, rows = eigen_rows(cmv_matrix(v))
    inside, outside = VerblunskySequence(v.a, v.omega), VerblunskySequence(v.a, v.omega)

    def off_by(scale):
        return lambda u: (np.append(lam[1:], lam[0] * (1.0 + scale * SPECTRUM_RADIUS)), rows)

    monkeypatch.setattr(opuc_core, "eigen_rows", off_by(0.5))
    assert spectrum(inside).size == 13
    monkeypatch.setattr(opuc_core, "eigen_rows", off_by(2.0))
    with pytest.raises(SpectralValidityError):
        spectrum(outside)


def test_weights_flat_for_monomials():
    n = 4
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(1.1j))
    nodes = spectrum(v)
    data = weights(v, nodes)
    assert np.allclose(data.weights, np.full(n + 1, 1.0 / (n + 1)))


def test_weights_running_sum_n2():
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    nodes = spectrum(v)
    data = weights(v, nodes)
    assert np.allclose(nodes, [np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(data.weights, [0.25, 0.5, 0.25])


def test_weights_positive_real_sum_one():
    rng = np.random.default_rng(29)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        data = weights(v, spectrum(v))
        assert np.all(data.weights > 0)
        assert abs(float(np.sum(data.weights)) - 1.0) <= 1e-9


def test_every_node_entry_point_reads_a_list_of_floats():
    v = single_moment_persymmetric(5).v
    theta, h_final = spectrum(v), float(v.h[-1])
    listed = theta.tolist()
    w = weights(v, theta).weights
    assert np.array_equal(weights(v, listed).weights, w)
    assert np.array_equal(persymmetric_weights(listed, h_final), persymmetric_weights(theta, h_final))
    assert np.array_equal(phi_n_values(tuple(listed), v.omega, h_final, 1), phi_n_values(theta, v.omega, h_final, 1))
    assert np.array_equal(reconstruct_persymmetric(listed, v.omega).v.a, reconstruct_persymmetric(theta, v.omega).v.a)
    for bad in ([0.1, None], ["0.1", "0.2"], [0.1, [0.2, 0.3]], [True, False], [0.1 + 1j], 0.5, None):
        with pytest.raises(ShapeError):
            node_angles(bad)


def _weights_corpus() -> list:
    rng = np.random.default_rng(2402)
    corpus = [random_verblunsky(rng, n) for n in range(1, 13) for _ in range(4)]
    for n in (1, 2, 3, 8, 17, 64):
        corpus += [fam.v for fam in (free_family(n, 0.3), single_moment(n), single_moment_dual(n),
                                     single_moment_persymmetric(n), krawtchouk_family(n, np.exp(0.9j)))]
    return corpus + [random_persymmetric(rng, n) for n in range(1, 13)]


def test_weights_hold_the_solve_arrays_as_made():
    # the record holds the solve's own read-only arrays, not copies
    for v in _weights_corpus():
        data = weights(v, spectrum(v))
        theta, rows = v.quadrature
        assert data.theta is theta
        assert data.weights.base is rows and np.shares_memory(data.weights, rows[0])


def _patched_weight_row(monkeypatch, edit_row, row: int = 0) -> None:
    """Make opuc_core.eigen_rows hand back row 0 (or row N, at row = 1) as edit_row leaves it."""
    import popuc.opuc_core as opuc_core

    original = opuc_core.eigen_rows

    def eigen_rows(u):
        lam, rows = original(u)
        rows = rows.copy()
        edit_row(rows[row])
        return lam, rows

    monkeypatch.setattr(opuc_core, "eigen_rows", eigen_rows)


def _rescale_past_the_sum_bound(w):
    from popuc.tolerances import WEIGHT_SUM

    w *= (1.0 + 2.0 * WEIGHT_SUM) / w.sum()


def test_weights_still_check_the_sum_the_solve_does_not(monkeypatch):
    _patched_weight_row(monkeypatch, _rescale_past_the_sum_bound)
    v = random_verblunsky(np.random.default_rng(2403), 7)
    with pytest.raises(WeightError, match=r"^weights sum to 1\.0000000\d+, expected 1$"):
        weights(v, spectrum(v))


def test_dual_weights_check_the_sum_the_solve_does_not(monkeypatch):
    _patched_weight_row(monkeypatch, _rescale_past_the_sum_bound, row=1)
    v = random_verblunsky(np.random.default_rng(2403), 7)
    with pytest.raises(WeightError, match=r"^weights sum to 1\.0000000\d+, expected 1$"):
        dual_weights(v)


def test_weights_still_name_a_node_whose_weight_is_lost(monkeypatch):
    def lose(w):
        w[3] = 0.0

    _patched_weight_row(monkeypatch, lose)
    v = random_verblunsky(np.random.default_rng(2404), 7)
    with pytest.raises(WeightError, match=r"^weight 0\.0 at node \d+ is below what the eigenvector resolves"):
        weights(v, spectrum(v))


def _reference_ladder_rows(v) -> list:
    """Rows Phi_0 .. Phi_{N+1} by the update ``_ladder_rows`` replaced: fresh temporaries each step."""
    row = np.zeros(v.n + 2, dtype=np.complex128)
    row[-1] = 1.0
    conj_a = np.conj(np.append(v.a, v.omega))
    rows = []
    for k in range(v.n + 1):
        phi = row[-k - 1 :]
        rows.append(phi.copy())
        row[-k - 2 : -1] -= conj_a[k] * np.conj(phi[::-1])
    return rows + [row.copy()]


def test_in_place_ladder_matches_the_reference_update_bit_for_bit():
    import popuc.opuc_core as opuc_core

    rng = np.random.default_rng(2405)
    corpus = [random_verblunsky(rng, n) for n in range(1, 65)]
    corpus += [VerblunskySequence([-0.0 + 5e-301j, 0.5 - 0.0j], 1.0),  # the -0 parts of GOLDEN_TINY_PHIS
               krawtchouk_family(64, np.exp(0.9j)).v]
    for v in corpus:
        got = [row.copy() for row in opuc_core._ladder_rows(v)]
        want = _reference_ladder_rows(v)
        assert len(got) == len(want) == v.n + 2
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    # the overflow rung, Phi_1036, stays as test_ladder_overflow_names_the_rung_and_restores_the_error_state pins it


def test_paraorthogonality_closed_forms():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(1.3j))
    assert paraorthogonality_residual(v) <= 1e-15
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    assert paraorthogonality_residual(v) <= 1e-15


def test_paraorthogonality_random_corpus():
    rng = np.random.default_rng(31)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        assert paraorthogonality_residual(v) <= 1e-10


def test_orthogonality_random_corpus():
    rng = np.random.default_rng(37)
    for _ in range(60):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        data = weights(v, spectrum(v))
        assert orthogonality_residual(v, data) <= 1e-8


def test_spectrum_gaps_are_positive():
    rng = np.random.default_rng(41)
    for _ in range(30):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        nodes = spectrum(v)
        gaps = np.diff(nodes)
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
        data = weights(v, spectrum(v))
        lam, vecs = np.linalg.eig(cmv_matrix(v))
        order = np.argsort(np.angle(lam) % (2.0 * np.pi))
        ref_z = lam[order] / np.abs(lam[order])
        ref_w = np.abs(vecs[0, order]) ** 2
        got_z = unit_points(data.theta)
        assert float(np.max(np.abs(got_z - ref_z))) <= 1e-12
        assert float(np.max(np.abs(data.weights - ref_w))) <= 1e-10
        assert orthogonality_residual(v, data) <= 1e-8


def test_random_weights_at_n128_match_the_cmv_eigenvectors():
    # the Christoffel sum missed one by far more than WEIGHT_SUM on this draw;
    # the eigenvector weights meet numpy's eig, nodes and weights alike
    v = random_verblunsky(np.random.default_rng([128, 0]), 128)
    data = weights(v, spectrum(v))
    lam, vecs = np.linalg.eig(cmv_matrix(v))
    order = np.argsort(np.angle(lam) % (2.0 * np.pi))
    assert float(np.max(np.abs(unit_points(data.theta) - lam[order]))) <= 1e-12
    assert float(np.max(np.abs(data.weights - np.abs(vecs[0, order]) ** 2))) <= 1e-12
    assert orthogonality_residual(v, data) <= 1e-8


def test_weights_are_read_at_the_systems_own_nodes_only():
    v = random_verblunsky(np.random.default_rng(61), 5)
    nodes = spectrum(v)
    assert np.array_equal(weights(v, nodes.copy()).weights, weights(v, nodes).weights)
    with pytest.raises(ValueError, match="own nodes"):
        weights(v, nodes + 1e-3)


def test_weight_below_eigenvector_resolution_is_a_typed_error():
    # at n = 256 some first components round to exactly 0.0 in the solve
    v = random_verblunsky(np.random.default_rng([256, 0]), 256)
    with pytest.raises(WeightError, match=r"weight 0\.0 at node \d+ is below what the eigenvector resolves"):
        weights(v, spectrum(v))
    with pytest.raises(WeightError, match=r"\|V\[N, \d+\]\| is lost to rounding"):
        dual_weights(v)


def _assert_closed_form(inst):
    data = weights(inst.v, spectrum(inst.v))
    assert float(np.max(np.abs(data.theta - inst.closed_form_nodes))) <= 1e-13
    assert float(np.max(np.abs(data.weights - inst.closed_form_weights))) <= 1e-13


REAL_SIZES = pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 256])


@REAL_SIZES
def test_free_family_pairs_split_to_closed_form(n):
    # real data: theta and -theta share cos theta, so every node but those at
    # 0 (and at pi, for odd n) is one of a pair that eigh cannot separate
    _assert_closed_form(free_family(n, 0.0))


@REAL_SIZES
def test_single_moment_pairs_split_to_closed_form(n):
    # the nodes are the (n + 2)-th roots of unity but 1: pi, for even n, is the one node not paired
    _assert_closed_form(single_moment(n))


def test_real_data_is_solved_in_real_arithmetic(monkeypatch):
    # U is real orthogonal for real a and omega = +-1, so its eigh runs on float64
    # at every n: one eigh of U + U^T of size n + 1 below SYMMETRIC_SOLVE_N, and
    # from it on one per eigenspace of M1, two whose sizes add up to n + 1.  A
    # complex list runs the complex eigh of U + U^H below SYMMETRIC_SOLVE_N and
    # the float64 eigh of Re S from it on, as does a real omega not exactly +-1
    import popuc.opuc_core as opuc_core

    calls = count_calls(monkeypatch, np.linalg, "eigh")
    spectrum(single_moment(5).v)
    spectrum(free_family(5, 0.5).v)  # omega = -1 exactly, not exp(i pi) with its 1.2e-16 imaginary part
    spectrum(random_verblunsky(np.random.default_rng(5), 5))
    assert [args[0].dtype for args in calls] == [np.float64, np.float64, np.complex128]
    calls.clear()
    rng = np.random.default_rng(6)
    spectrum(random_verblunsky(rng, SYMMETRIC_SOLVE_N - 1))
    spectrum(random_verblunsky(rng, SYMMETRIC_SOLVE_N))
    spectrum(krawtchouk_family(SYMMETRIC_SOLVE_N, np.exp(0.9j)).v)
    assert [args[0].dtype for args in calls] == [np.complex128, np.float64, np.float64]
    assert [args[0].shape for args in calls[1:]] == [(SYMMETRIC_SOLVE_N + 1,) * 2] * 2
    for n in (SYMMETRIC_SOLVE_N - 1, SYMMETRIC_SOLVE_N, SYMMETRIC_SOLVE_N + 1, 64, 255):
        a = rng.uniform(-0.85, 0.85, n)
        for v in (VerblunskySequence(a, 1.0), VerblunskySequence(a, -1.0), single_moment_persymmetric(n).v):
            calls.clear()
            spectrum(v)
            shapes = [args[0].shape for args in calls]
            assert [args[0].dtype for args in calls] == [np.float64] * len(shapes)
            assert all(rows == cols for rows, cols in shapes)
            assert len(shapes) == (1 if n < SYMMETRIC_SOLVE_N else 2)
            assert sum(rows for rows, _ in shapes) == n + 1
    calls.clear()
    spectrum(make_persymmetric([0.3] * 10, -1.0, 0.5))  # n = 21, middle coefficient 1j * 0.5 * sqrt(-1) = -0.5
    assert [args[0].dtype for args in calls] == [np.float64] * 2
    solves = count_calls(monkeypatch, opuc_core, "symmetric_rows")
    for omega in (1.0 - 1e-13, -1.0 + 1e-13):
        calls.clear()
        spectrum(VerblunskySequence(rng.uniform(-0.85, 0.85, SYMMETRIC_SOLVE_N), omega))
        assert [(args[0].dtype, args[0].shape) for args in calls] == [(np.float64, (SYMMETRIC_SOLVE_N + 1,) * 2)]
    assert len(solves) == 2


def _mirror_free_gap(lam: np.ndarray) -> np.ndarray:
    """For each eigenvalue, the cos theta distance to the nearest other one that is not its conjugate."""
    gap = np.abs(lam.real[:, None] - lam.real)
    np.fill_diagonal(gap, np.inf)
    gap[np.abs(lam[:, None] - lam.conj()) <= 1e-8] = np.inf  # its partner at -theta
    return gap.min(axis=0)


def _assert_symmetric_rows_match(v: VerblunskySequence) -> None:
    # nodes within 1e-14 and rows 0 and N within 1e-13 of the one-eigh solve
    # of U; a node whose cos theta lies within about 1e-4 of a node other than
    # its mirror image has its eigenvector fixed only to about eps / gap by any
    # double-precision solve, the reference's too, which the second term allows
    lam, rows = symmetric_rows(v)
    ref_lam, ref_rows = eigen_rows(cmv_matrix(v))
    got, want = (np.argsort(wrap_angles(np.angle(x))) for x in (lam, ref_lam))
    assert float(np.max(np.abs(lam[got] - ref_lam[want]))) <= 1e-14
    bound = 1e-13 + 1e-15 / _mirror_free_gap(lam[got])
    assert np.all(np.abs(rows[:, got] - ref_rows[:, want]) <= bound)


def test_symmetric_rows_match_the_one_eigh_real_solve():
    # random real lists at both parities and both omegas, through the split on M1's eigenspaces
    rng = np.random.default_rng(2409)
    for n in range(SYMMETRIC_SOLVE_N, 71):
        for omega in (1.0, -1.0):
            _assert_symmetric_rows_match(VerblunskySequence(rng.uniform(-0.85, 0.85, n), omega))


@pytest.mark.parametrize("n", [20, 21, 255, 256])
def test_real_families_split_on_m1_to_closed_form(n):
    # omega = -1 for the single-moment families and free at nu = 1/2, omega = 1
    # for free at nu = 0: at odd n M1's trailing omega joins the +1 eigenspace
    # or the -1 one, at even n omega sits on M2's tail
    for inst in (single_moment(n), single_moment_dual(n), single_moment_persymmetric(n),
                 free_family(n, 0.0), free_family(n, 0.5)):
        _assert_symmetric_rows_match(inst.v)
        _assert_closed_form(inst)


@pytest.mark.parametrize("n", [20, 21, 64])
def test_krawtchouk_at_omega_one_splits_on_m1(n):
    inst = krawtchouk_family(n, 1.0)
    _assert_symmetric_rows_match(inst.v)
    _assert_closed_form(inst)


def _symmetric_form_corpus() -> list:
    rng = np.random.default_rng(2406)
    corpus = [random_verblunsky(rng, n) for n in (*range(1, 25), 64, 65) for _ in range(3)]
    corpus += [VerblunskySequence(np.full(n, edge), np.exp(0.7j)) for n in (1, 2, 3, 20, 21)
               for edge in (1j * (1 - 1e-9), -1j * (1 - 1e-9), 1 - 1e-9, -(1 - 1e-9))]
    corpus += [VerblunskySequence(edge * (1 - 1e-9) * (-1.0) ** np.arange(n), -1j) for n in (1, 2, 20, 21)
               for edge in (1j, 1)]
    return corpus + [fam.v for fam in (free_family(20, 0.3), krawtchouk_family(21, np.exp(0.9j)))]


def _real_form_corpus() -> list:
    # real a_k and omega = +-1 at both parities, random and within 1e-9 of +-1
    rng = np.random.default_rng(2410)
    return [VerblunskySequence(a, omega) for n in (1, 2, 3, 20, 21, 64, 65) for omega in (1.0, -1.0)
            for a in (rng.uniform(-0.85, 0.85, n), np.full(n, 1 - 1e-9), np.full(n, -(1 - 1e-9)))]


def test_reflection_form_diagonalises_m1_and_is_symmetric():
    # real data: G^T M1 G = diag(d), d = +-1, with G orthogonal and G[0] = e_0,
    # T = G^T M2 G = T^T and U = G T diag(d) G^T, each to 1e-15, at both
    # parities and both omegas; (G, d, T) is symmetric_form's (W, d, S), real
    for v in _real_form_corpus():
        m1, m2 = (m.real for m in factors(v))
        g, d, t = symmetric_form(v)
        assert (g.dtype, t.dtype) == (np.float64, np.float64)
        assert float(np.max(np.abs(g.T @ m1 @ g - np.diag(d)))) <= 1e-15
        assert float(np.max(np.abs(g.T @ g - np.eye(v.n + 1)))) <= 1e-15
        assert float(np.max(np.abs(t - t.T))) <= 1e-15
        assert float(np.max(np.abs(t - g.T @ m2 @ g))) <= 1e-15
        assert float(np.max(np.abs(g @ (t * d) @ g.T - m2 @ m1))) <= 1e-15
        assert np.all(np.abs(d) == 1.0) and g[0, 0] == 1.0 and float(np.max(np.abs(g[0, 1:]))) == 0.0


def test_symmetric_form_factors_m1_and_is_symmetric_and_unitary():
    # W W^T = M1 with W unitary, S = W^T M2 W = S^T and U = conj(W) S W^T,
    # each to 1e-15, on random lists, on a_k within 1e-9 of +-1 and +-i, and
    # at both parities of n: d = 1 for complex data
    for v in _symmetric_form_corpus():
        m1, m2 = factors(v)
        w, d, s = symmetric_form(v)
        assert (w.dtype, s.dtype) == (np.complex128, np.complex128)
        assert np.all(d == 1.0)
        assert float(np.max(np.abs((w * d) @ w.T - m1))) <= 1e-15
        assert unitarity_residual(w) <= 1e-15
        assert float(np.max(np.abs(s - s.T))) <= 1e-15
        assert float(np.max(np.abs(s - w.T @ m2 @ w))) <= 1e-15
        assert float(np.max(np.abs(w.conj() @ (s * d) @ w.T - m2 @ m1))) <= 1e-15
        assert w[0, 0] == 1.0 and not w[0, 1:].any()  # W fixes e_0, so row 0 of V is O[0]


def test_symmetric_form_builds_s_from_m2_alone_bit_for_bit():
    # _symmetric_blocks builds M2 without M1; S keeps the bytes of S built from factors(v)[1]
    from popuc.opuc_core import _rows_by_blocks, _symmetric_blocks

    for v in _symmetric_form_corpus():
        wt, last, s = _symmetric_blocks(v)
        m2 = _rows_by_blocks(factors(v)[1], wt, last)
        want = _rows_by_blocks(m2.T.copy(), wt, last)
        assert s.tobytes() == want.tobytes()


def test_symmetric_rows_match_the_complex_solve():
    # the float64 solve of S gives the eigenvalues and rows 0 and N of the
    # complex solve of U
    rng = np.random.default_rng(2407)
    for n in (1, 2, 3, 19, 20, 21, 33, 64):
        _assert_symmetric_rows_match(random_verblunsky(rng, n))


def test_near_real_pairs_are_split_on_s(monkeypatch):
    # real a_k with a 1e-12 imaginary part: each node lies within 1e-6 in
    # cos theta of a partner near -theta, so the float64 solve splits every
    # pair on S, and its nodes and rows meet numpy's eig of U
    import popuc.opuc_core as opuc_core

    splits = count_calls(monkeypatch, opuc_core, "_split_pairs")
    rng = np.random.default_rng(2408)
    for n in (SYMMETRIC_SOLVE_N, 21, 64):
        v = VerblunskySequence(rng.uniform(-0.85, 0.85, n) + 1e-12j, 1.0)
        theta, rows = v.quadrature
        lam, vecs = np.linalg.eig(cmv_matrix(v))
        order = np.argsort(wrap_angles(np.angle(lam)))
        z = unit_points(theta)
        assert float(np.max(np.abs(z - lam[order]))) <= 1e-12
        dist = np.abs(z[:, None] - z)
        np.fill_diagonal(dist, np.inf)
        assert np.all(np.abs(rows - np.abs(vecs[[0, -1]][:, order]) ** 2) <= 1e-10 + 1e-14 / dist.min(axis=0))
    assert len(splits) == 3


@pytest.mark.parametrize("n", [*range(1, 41), 64, 128, 256])
def test_real_data_matches_the_cmv_eigenproblem(n):
    # reference: numpy's eig of the same U, rows 0 and N read before the weight
    # check, which some first components miss at n = 256.  Any double-precision
    # solve, the reference's too, fixes an eigenvector only to about eps / gap,
    # gap the distance to the nearest other node: at n = 256 these draws hold
    # nodes 9e-11 apart across the seam (omega = -1) and 3e-7 apart at pi (omega = 1)
    rng = np.random.default_rng([n, 1])
    for omega in (1.0, -1.0):
        _assert_matches_cmv_eig(VerblunskySequence(rng.uniform(-0.85, 0.85, n), omega))


@pytest.mark.parametrize("n", [20, 21, 64, 65, 128])
def test_real_data_off_exact_omega_matches_the_cmv_eigenproblem(n):
    # real a_k with a real omega 1e-13 off +-1: the complex branch of symmetric_rows
    rng = np.random.default_rng([n, 2])
    for omega in (1.0 - 1e-13, -1.0 + 1e-13):
        _assert_matches_cmv_eig(VerblunskySequence(rng.uniform(-0.85, 0.85, n), omega))


def _assert_matches_cmv_eig(v: VerblunskySequence) -> None:
    theta, rows = v.quadrature
    lam, vecs = np.linalg.eig(cmv_matrix(v))
    order = np.argsort(wrap_angles(np.angle(lam)))
    z = unit_points(theta)
    assert float(np.max(np.abs(z - lam[order]))) <= 1e-12
    dist = np.abs(z[:, None] - z)
    np.fill_diagonal(dist, np.inf)
    assert np.all(np.abs(rows - np.abs(vecs[[0, -1]][:, order]) ** 2) <= 1e-10 + 1e-14 / dist.min(axis=0))


def test_cluster_of_five_is_split_on_u(monkeypatch):
    # nodes 0, +-1e-4 and +-2e-4 lie within 2e-8 in cos theta, one cluster
    # of five; +-1 is a pair and 2.5 a singleton
    theta = np.array([0.0, 1e-4, -1e-4, 2e-4, -2e-4, 1.0, -1.0, 2.5])
    g = np.random.default_rng(7).standard_normal((2, 8, 8))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    u = (q * np.exp(1j * theta)) @ q.conj().T
    eigs = count_calls(monkeypatch, np.linalg, "eig")
    lam, rows = eigen_rows(u)
    assert len(eigs) == 2  # with a cluster of five present, the pair too is split by eig
    got, want = np.argsort(np.angle(lam)), np.argsort(theta)
    assert float(np.max(np.abs(lam[got] - np.exp(1j * theta[want])))) <= 1e-12
    assert float(np.max(np.abs(rows[:, got] - np.abs(q[[0, -1]][:, want]) ** 2))) <= 1e-10


def test_paraorthogonality_cannot_see_a_defect_in_an_earlier_rung(monkeypatch):
    # Phi_{N+1}^* + omega Phi_{N+1} = Phi_N^* - omega z Phi_N + omega z Phi_N - |omega|^2 Phi_N^* = 0
    # for every Phi_N, so the closure check reads only the last step's rounding: a
    # coefficient of Phi_5 moved by 1e-3 moves Phi_13 by 4.5e-4 and still reads below 1e-15
    import popuc.opuc_core as opuc_core

    v = VerblunskySequence(random_verblunsky(np.random.default_rng(43), 12).a, complex(np.exp(0.7j)))
    clean_top = [row.copy() for row in opuc_core._ladder_rows(v)][-1]
    original = opuc_core._ladder_rows

    def moved(v):
        for k, phi in enumerate(original(v)):
            if k == 5:
                phi[0] += 1e-3  # the next rung reads the row it yielded
            yield phi

    moved_top = [row.copy() for row in moved(v)][-1]
    assert float(np.max(np.abs(moved_top - clean_top))) > 1e-4
    assert paraorthogonality_residual(v) <= 1e-15
    monkeypatch.setattr(opuc_core, "_ladder_rows", moved)
    assert paraorthogonality_residual(v) <= 1e-15


def test_paraorthogonality_flags_a_moved_coefficient(monkeypatch):
    # the residual is relative to the largest coefficient of Phi_{N+1}; a
    # real defect on an interior coefficient must still stand out
    import popuc.opuc_core as opuc_core

    rng = np.random.default_rng(43)
    v = random_verblunsky(rng, 12)
    rows = [row.copy() for row in opuc_core._ladder_rows(v)]
    rows[-1][6] += 1e-6
    assert paraorthogonality_residual(v) <= 1e-14
    monkeypatch.setattr(opuc_core, "_ladder_rows", lambda _: iter(rows))  # the recurrence yields the moved top
    assert paraorthogonality_residual(v) > 1e-8


def test_ladder_overflow_names_the_rung_and_restores_the_error_state():
    # one gate for both readers of the ladder, raised before numpy warns
    v = VerblunskySequence(np.full(1100, 0.999), 1.0)
    before = np.geterr()
    for read in (lambda: v.phis, lambda: paraorthogonality_residual(v)):
        with pytest.raises(OverflowError, match=r"^ladder coefficients of Phi_1036 overflow the double range$"):
            read()
        assert np.geterr() == before


def _reference_ladder_values(v, z) -> np.ndarray:
    """Values of Phi_0 .. Phi_N at z by the update ``ladder_values`` replaced: fresh temporaries each rung."""
    vals = np.empty((v.n + 1, z.size), dtype=np.complex128)
    vals[0] = 1.0
    rev = np.ones(z.size, dtype=np.complex128)
    for k, a_k in enumerate(v.a.tolist()):
        shifted = z * vals[k]
        vals[k + 1] = shifted - a_k.conjugate() * rev
        rev = rev - a_k * shifted
    return vals


@pytest.mark.parametrize("n", [1, 9, 59, 63, 64, 65, 128])
def test_buffered_ladder_values_match_the_reference_update_bit_for_bit(n):
    # a rung vector holds n + 1 complex entries: at most 1,024 bytes up to
    # n = 63, 1,040 from n = 64, past the small blocks that allocate cheaply
    rng = np.random.default_rng(2406 + n)
    complex_list = random_verblunsky(rng, n)
    real_list = VerblunskySequence(complex_list.a.real, 1.0 if n % 2 else -1.0)
    for v in (complex_list, real_list):
        for z in (unit_points(spectrum(v)), 1.5 * np.exp(2j * np.pi * rng.uniform(size=n + 1))):
            got, want = ladder_values(v, z), _reference_ladder_values(v, z)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_ladder_value_overflow_names_the_rung_and_restores_the_error_state():
    v = VerblunskySequence(np.full(1100, 0.999j), 1.0)
    before = np.geterr()
    with pytest.raises(OverflowError, match=r"^ladder values of Phi_1026 overflow the double range$"):
        ladder_values(v, np.array([1 + 0j]))
    assert np.geterr() == before


def test_gram_overflow_names_the_stage():
    # valid data whose kept ladder values are then made huge but finite
    v = single_moment_persymmetric(9).v
    data = weights(v, spectrum(v))
    vars(v)["node_values"] = np.full_like(v.node_values, 1e200)
    with pytest.raises(OverflowError, match=r"^orthogonality check: the weighted Gram matrix overflows"):
        orthogonality_residual(v, data)


def test_coincident_nodes_fail_the_solve_that_made_them():
    v = random_persymmetric(np.random.default_rng(0), 128, max_mag=0.85)
    with pytest.raises(SpectralValidityError, match=r"^nodes \d+ and \d+ coincide in double precision at theta \d"):
        spectrum(v)


def test_one_row_recurrence_ends_on_the_ladder_top_bit_for_bit():
    # the closure check reads only the last row; it must be phis[-1] exactly
    import popuc.opuc_core as opuc_core

    rng = np.random.default_rng(2026)  # the acceptance corpus: 200 draws, n from 1 to 12
    corpus = [random_verblunsky(rng, 1 + i % 12) for i in range(200)]
    families = [free_family(64, 0.3), single_moment(64), single_moment_dual(64),
                single_moment_persymmetric(64), krawtchouk_family(64, np.exp(0.9j))]
    for v in corpus + [fam.v for fam in families]:
        for top in opuc_core._ladder_rows(v):
            pass
        assert top.tobytes() == v.phis[-1].tobytes()


def test_spectrum_weights_and_residual_share_one_solve_and_one_ladder(monkeypatch):
    import popuc.opuc_core as opuc_core

    solves = count_calls(monkeypatch, np.linalg, "eigh")
    ladders = count_calls(monkeypatch, opuc_core, "ladder_values")
    v = random_verblunsky(np.random.default_rng(53), 9)
    nodes = spectrum(v)
    data = weights(v, nodes)
    assert orthogonality_residual(v, data) <= 1e-8
    assert (len(solves), len(ladders)) == (1, 1)
    assert spectrum(v) is nodes and data.theta is nodes


def test_memoised_arrays_are_read_only():
    v = random_verblunsky(np.random.default_rng(59), 6)
    data = weights(v, spectrum(v))
    memos = (v.h, *v.quadrature, v.node_values, *v.phis)
    assert set(vars(v)) == KEPT
    for arr in (*memos, data.theta, data.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        v.quadrature = (np.zeros(7), np.zeros((2, 7)))
    with pytest.raises(AttributeError):
        v.theta = np.zeros(7)


def test_systems_of_one_coefficient_list_share_its_memos(monkeypatch):
    import popuc.opuc_core as opuc_core

    solves = count_calls(monkeypatch, np.linalg, "eigh")
    builds = count_calls(monkeypatch, opuc_core, "factors")
    v = random_verblunsky(np.random.default_rng(61), 8)
    assert spectrum(v) is spectrum(v) and v.phis is v.phis
    dual_weights(v)
    assert (len(solves), len(builds)) == (1, 1)


def test_a_coefficient_list_with_filled_memos_is_freed_without_the_collector():
    # a memo that held a system would make a reference cycle, and every
    # solve would then wait for the cycle collector
    v = random_persymmetric(np.random.default_rng(67), 9)
    data = weights(v, spectrum(v))
    assert orthogonality_residual(v, data) <= 1e-8 and paraorthogonality_residual(v) <= 1e-10
    assert set(vars(v)) <= KEPT
    assert v.phis[-1].size == 11  # the closure check does not build the ladder memo; fill it here
    for check in (verify_persymmetry_characterizations, verify_mirror_relations, persymmetric_sign_pattern):
        check(v)
        assert set(vars(v)) <= KEPT
    assert set(vars(v)) == KEPT
    ref = weakref.ref(v)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del v
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_verblunsky_data_is_a_read_only_copy():
    a = np.array([0.3 + 0.1j, -0.2j, 0.5])
    v = VerblunskySequence(a, 1.0)
    a[0] = 0.9
    assert v.a[0] == 0.3 + 0.1j
    assert float(v.h[1]) == 1.0 - abs(0.3 + 0.1j) ** 2
    with pytest.raises(ValueError):
        v.a[0] = 0.9


def test_no_public_callable_takes_a_bound():
    # bounds are the constants of popuc.tolerances, not parameters
    import inspect
    from types import FunctionType

    import popuc

    offenders = []
    for name in popuc.__all__:
        obj = getattr(popuc, name)
        if inspect.isclass(obj):
            members = {
                f"{name}.{attr}": getattr(obj, attr)
                for attr, member in vars(obj).items()
                if isinstance(member, (FunctionType, classmethod, staticmethod))
            }
        else:
            members = {name: obj} if callable(obj) else {}
        for label, fn in members.items():
            if {"tol", "radius_slack"} & set(inspect.signature(fn).parameters):
                offenders.append(label)
    assert offenders == []
