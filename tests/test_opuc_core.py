"""Recurrence, spectrum and weights of finite paraorthogonal systems."""

import gc
import weakref

import numpy as np
import pytest

from conftest import count_calls, random_persymmetric, random_verblunsky
from popuc import (
    OpucSystem,
    ShapeError,
    SpectralData,
    SpectralValidityError,
    UnitCirclePoint,
    VerblunskySequence,
    WeightError,
    build_system,
    cmv_matrix,
    dual_weights,
    free_family,
    orthogonality_residual,
    paraorthogonality_residual,
    persymmetric_sign_pattern,
    spectrum,
    krawtchouk_family,
    verblunsky_from_polys,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.complex_poly import unit_points
from popuc.opuc_core import eigen_rows
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


def test_build_simplest_system():
    v = VerblunskySequence([0.0j], 1.0)
    sys_ = build_system(v)
    assert np.allclose(sys_.phis[1], [0, 1])
    assert np.allclose(sys_.phis[2], [-1, 0, 1])
    assert np.allclose(sys_.h, [1.0, 1.0])


def test_build_running_sum_system():
    # a = (-1/2, -1/3), omega = -1 gives the running-sum ladder
    v = VerblunskySequence([-0.5, -1.0 / 3.0], -1.0)
    sys_ = build_system(v)
    assert np.allclose(sys_.phis[1], [0.5, 1])
    assert np.allclose(sys_.phis[2], [1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(sys_.phis[3], [1, 1, 1, 1])
    assert np.allclose(sys_.h, [1.0, 0.75, 2.0 / 3.0])


def test_monomial_ladder():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(0.6j))
    sys_ = build_system(v)
    for k in range(5):
        expected = np.zeros(k + 1)
        expected[k] = 1.0
        assert np.allclose(sys_.phis[k], expected)
    top = np.zeros(6, dtype=complex)
    top[5] = 1.0
    top[0] = -np.conj(np.exp(0.6j))
    assert np.allclose(sys_.phis[5], top)


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
        phis = build_system(v).phis
        expected = _ladder_by_polynomials(v)
        assert len(phis) == len(expected) == v.n + 2
        for k, (row, ref) in enumerate(zip(phis, expected)):
            assert type(row) is np.ndarray and row.shape == (k + 1,)
            assert np.array_equal(row, ref)
    row = build_system(cases[0]).phis[1]
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_verblunsky_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        rec = verblunsky_from_polys(build_system(v).phis)
        full = np.concatenate([v.a, [v.omega]])
        assert float(np.max(np.abs(rec - full))) <= 1e-12


def test_verblunsky_from_polys_rejects_bad_input():
    with pytest.raises(ShapeError):
        verblunsky_from_polys([np.array([1.0])])
    with pytest.raises(ShapeError):
        verblunsky_from_polys([np.array([1.0]), np.array([0, 2.0])])
    with pytest.raises(ShapeError):
        verblunsky_from_polys([np.array([1.0]), np.array([0, 0, 1.0])])


def test_spectrum_fourth_roots():
    v = VerblunskySequence(np.zeros(3, dtype=complex), 1.0)
    nodes = spectrum(build_system(v))
    assert np.allclose(nodes, [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_spectrum_rotated_monomials():
    nu = 0.3
    n = 5
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(2j * np.pi * nu))
    nodes = spectrum(build_system(v))
    expected = sorted((2 * np.pi * (s - nu) / (n + 1)) % (2 * np.pi) for s in range(n + 1))
    assert np.allclose(nodes, expected)


def test_spectrum_rejects_off_circle_roots():
    # eigenvalues filled into the memos of two copies of the coefficient
    # list by hand, pushed off the circle by half and by twice SPECTRUM_RADIUS
    v = random_verblunsky(np.random.default_rng(101), 12)
    lam, rows = eigen_rows(cmv_matrix(v))
    inside, outside = VerblunskySequence(v.a, v.omega), VerblunskySequence(v.a, v.omega)
    vars(inside)["eigen"] = (np.append(lam[1:], lam[0] * (1.0 + 0.5 * SPECTRUM_RADIUS)), rows)
    vars(outside)["eigen"] = (np.append(lam[1:], lam[0] * (1.0 + 2.0 * SPECTRUM_RADIUS)), rows)
    assert spectrum(build_system(inside)).size == 13
    with pytest.raises(SpectralValidityError):
        spectrum(build_system(outside))


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
    assert np.allclose(nodes, [np.pi / 2, np.pi, 3 * np.pi / 2])
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
    with pytest.raises(WeightError):
        SpectralData(nodes, np.array([np.nan, 1.0]))
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
        sys_ = build_system(v)
        data = weights(sys_, spectrum(sys_))
        lam, vecs = np.linalg.eig(cmv_matrix(v))
        order = np.argsort(np.angle(lam) % (2.0 * np.pi))
        ref_z = lam[order] / np.abs(lam[order])
        ref_w = np.abs(vecs[0, order]) ** 2
        got_z = unit_points(data.theta)
        assert float(np.max(np.abs(got_z - ref_z))) <= 1e-12
        assert float(np.max(np.abs(data.weights - ref_w))) <= 1e-10
        assert orthogonality_residual(sys_, data) <= 1e-8


def test_random_weights_at_n128_match_the_cmv_eigenvectors():
    # the Christoffel sum missed one by far more than WEIGHT_SUM on this draw;
    # the eigenvector weights meet numpy's eig, nodes and weights alike
    v = random_verblunsky(np.random.default_rng([128, 0]), 128)
    sys_ = build_system(v)
    data = weights(sys_, spectrum(sys_))
    lam, vecs = np.linalg.eig(cmv_matrix(v))
    order = np.argsort(np.angle(lam) % (2.0 * np.pi))
    assert float(np.max(np.abs(unit_points(data.theta) - lam[order]))) <= 1e-12
    assert float(np.max(np.abs(data.weights - np.abs(vecs[0, order]) ** 2))) <= 1e-12
    assert orthogonality_residual(sys_, data) <= 1e-8


def test_weights_are_read_at_the_systems_own_nodes_only():
    sys_ = build_system(random_verblunsky(np.random.default_rng(61), 5))
    nodes = spectrum(sys_)
    as_points = [UnitCirclePoint(t) for t in nodes.tolist()]
    assert np.array_equal(weights(sys_, as_points).weights, weights(sys_, nodes).weights)
    with pytest.raises(ValueError, match="own nodes"):
        weights(sys_, nodes + 1e-3)


def test_weight_below_eigenvector_resolution_is_a_typed_error():
    # at n = 256 some first components round to exactly 0.0 in the solve
    sys_ = build_system(random_verblunsky(np.random.default_rng([256, 0]), 256))
    with pytest.raises(WeightError, match=r"weight 0\.0 at node \d+ is below what the eigenvector resolves"):
        weights(sys_, spectrum(sys_))
    with pytest.raises(WeightError, match=r"\|V\[N, \d+\]\| is lost to rounding"):
        dual_weights(sys_)


@pytest.mark.parametrize("n", [8, 9, 64, 256])
def test_free_family_pairs_split_to_closed_form(n):
    # real data: theta and -theta share cos theta, so every node but those at
    # 0 (and at pi, for odd n) is one of a pair that eigh cannot separate
    inst = free_family(n, 0.0)
    sys_ = build_system(inst.v)
    data = weights(sys_, spectrum(sys_))
    closed = np.array([p.theta for p in inst.closed_form_nodes])
    assert float(np.max(np.abs(data.theta - closed))) <= 1e-13
    assert float(np.max(np.abs(data.weights - inst.closed_form_weights))) <= 1e-13


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


def test_paraorthogonality_flags_a_moved_coefficient():
    # the residual is relative to the largest coefficient of Phi_{N+1}; a
    # real defect on an interior coefficient must still stand out
    rng = np.random.default_rng(43)
    v = random_verblunsky(rng, 12)
    sys_ = build_system(v)
    top = sys_.phis[-1].copy()
    top[6] += 1e-6
    moved = OpucSystem(VerblunskySequence(v.a, v.omega))
    vars(moved.v)["phis"] = sys_.phis[:-1] + (top,)  # fill the cached ladder by hand
    assert paraorthogonality_residual(sys_) <= 1e-14
    assert paraorthogonality_residual(moved) > 1e-8


def test_spectrum_weights_and_residual_share_one_solve_and_one_ladder(monkeypatch):
    import popuc.opuc_core as opuc_core

    solves = count_calls(monkeypatch, np.linalg, "eigh")
    ladders = count_calls(monkeypatch, opuc_core, "ladder_values")
    sys_ = build_system(random_verblunsky(np.random.default_rng(53), 9))
    nodes = spectrum(sys_)
    data = weights(sys_, nodes)
    assert orthogonality_residual(sys_, data) <= 1e-8
    assert (len(solves), len(ladders)) == (1, 1)
    assert spectrum(sys_) is nodes and data.theta is nodes


def test_memoised_arrays_are_read_only():
    v = random_verblunsky(np.random.default_rng(59), 6)
    sys_ = build_system(v)
    data = weights(sys_, spectrum(sys_))
    memos = (*v.cmv_factors, *v.eigen, *v.quadrature, v.node_values, *v.phis)
    for arr in (*memos, data.theta, data.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        v.quadrature = (np.zeros(7), np.zeros((2, 7)))
    with pytest.raises(AttributeError):
        sys_.theta = np.zeros(7)
    assert sys_.phis is v.phis
    assert [p.theta for p in data.nodes] == data.theta.tolist()


def test_systems_of_one_coefficient_list_share_its_memos(monkeypatch):
    import popuc.opuc_core as opuc_core

    solves = count_calls(monkeypatch, np.linalg, "eigh")
    builds = count_calls(monkeypatch, opuc_core, "factors")
    v = random_verblunsky(np.random.default_rng(61), 8)
    first, second = build_system(v), build_system(v)
    assert spectrum(first) is spectrum(second) and first.phis is second.phis
    dual_weights(second)
    assert (len(solves), len(builds)) == (1, 1)
    assert vars(first).keys() == vars(second).keys() == {"v", "h"}  # no memo on a system


def test_a_coefficient_list_with_filled_memos_is_freed_without_the_collector():
    # a memo that held a system would make a reference cycle, and every
    # solve would then wait for the cycle collector
    v = random_persymmetric(np.random.default_rng(67), 9)
    sys_ = build_system(v)
    data = weights(sys_, spectrum(sys_))
    assert orthogonality_residual(sys_, data) <= 1e-8 and paraorthogonality_residual(sys_) <= 1e-10
    verify_persymmetry_characterizations(v)
    verify_mirror_relations(v)
    persymmetric_sign_pattern(v)
    assert {"cmv_factors", "eigen", "quadrature", "node_values", "phis"} <= set(vars(v))
    ref = weakref.ref(v)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del v, sys_
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_verblunsky_data_is_a_read_only_copy():
    a = np.array([0.3 + 0.1j, -0.2j, 0.5])
    v = VerblunskySequence(a, 1.0)
    sys_ = build_system(v)
    a[0] = 0.9
    assert v.a[0] == 0.3 + 0.1j
    assert float(sys_.h[1]) == 1.0 - abs(0.3 + 0.1j) ** 2
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
