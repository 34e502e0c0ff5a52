"""Mirror duality, persymmetric construction and the three characterizations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import random_persymmetric, random_verblunsky
from popuc import (
    NotPersymmetricError,
    PersymmetryCharacterizations,
    ShapeError,
    VerblunskySequence,
    WeightError,
    dual_weights,
    is_persymmetric,
    krawtchouk_family,
    make_persymmetric,
    mirror_dual,
    persymmetric_weights,
    persymmetry_defect,
    phi_n_values,
    principal_sqrt_unimodular,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    spectrum,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.complex_poly import unit_points


def test_principal_sqrt():
    assert principal_sqrt_unimodular(1.0) == 1.0
    assert np.isclose(principal_sqrt_unimodular(-1.0), 1j)
    assert np.isclose(principal_sqrt_unimodular(1j), np.exp(0.25j * np.pi))
    # principal branch: argument taken in (-pi, pi]
    assert np.isclose(principal_sqrt_unimodular(np.exp(-0.1j)), np.exp(-0.05j))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_dual_is_an_involution(n, seed):
    rng = np.random.default_rng(seed)
    v = random_verblunsky(rng, n)
    again = mirror_dual(mirror_dual(v))
    assert float(np.max(np.abs(again.a - v.a))) <= 1e-14
    assert abs(again.omega - v.omega) <= 1e-14


def test_dual_of_running_sum_family():
    for n in range(1, 9):
        d = mirror_dual(single_moment(n).v)
        expect = single_moment_dual(n).v
        assert np.allclose(d.a, expect.a)
        assert np.isclose(d.omega, expect.omega)


def test_zero_sequence_is_self_dual():
    v = VerblunskySequence(np.zeros(5, dtype=complex), np.exp(0.7j))
    assert persymmetry_defect(v) <= 1e-16
    assert is_persymmetric(v)


def test_persymmetry_defect_equals_distance_to_mirror_dual():
    rng = np.random.default_rng(71)
    for n in range(1, 13):
        for v in (random_verblunsky(rng, n), random_persymmetric(rng, n)):
            assert persymmetry_defect(v) == float(np.max(np.abs(v.a - mirror_dual(v).a)))


def test_running_sum_is_not_persymmetric():
    for n in range(2, 7):
        assert not is_persymmetric(single_moment(n).v)
        assert persymmetry_defect(single_moment(n).v) > 1e-2


def test_make_persymmetric_even():
    v = make_persymmetric((0.3,), 1.0)
    assert np.allclose(v.a, [0.3, -0.3])
    assert is_persymmetric(v)


def test_make_persymmetric_odd():
    v = make_persymmetric((0.2j,), 1.0, middle_r=0.5)
    assert np.allclose(v.a, [0.2j, 0.5j, 0.2j])
    assert is_persymmetric(v)


def test_make_persymmetric_odd_rotated():
    # middle coefficient sits on the i * sqrt(omega) ray
    v = make_persymmetric((), 1j, middle_r=0.4)
    assert np.allclose(v.a, [0.4j * np.exp(0.25j * np.pi)])
    assert is_persymmetric(v)


def test_seed_validation():
    with pytest.raises(ValueError):
        make_persymmetric((1.2,), 1.0)
    with pytest.raises(ValueError):
        make_persymmetric((0.1,), 2.0)
    with pytest.raises(ValueError):
        make_persymmetric((0.1,), 1.0, middle_r=1.5)
    with pytest.raises(ShapeError, match="at least one Verblunsky coefficient"):
        make_persymmetric((), 1.0)


def test_make_persymmetric_matches_the_scalar_mirror_loop():
    # the array multiply may round apart from the scalar one, by at most 2 ulp of |a_k|
    rng = np.random.default_rng(17)
    for n in range(1, 40):
        free = 0.85 * np.sqrt(rng.uniform(size=n // 2)) * np.exp(2j * np.pi * rng.uniform(size=n // 2))
        omega = complex(np.exp(2j * np.pi * rng.uniform()))
        a = make_persymmetric(free, omega, middle_r=0.3 if n % 2 else None).a
        loop = np.array([-omega * np.conj(free[k]) for k in range(n // 2)])
        assert np.array_equal(a[: n // 2], free)
        assert np.all(np.abs(a[::-1][: n // 2] - loop) <= 2.0 * np.spacing(np.abs(loop)))


def test_random_persymmetric_seeds_verify():
    rng = np.random.default_rng(43)
    for n in list(range(1, 13)):
        v = random_persymmetric(rng, n)
        assert persymmetry_defect(v) <= 1e-14


def test_dual_weights_of_running_sum_are_flat():
    for n in range(1, 8):
        hat = dual_weights(single_moment(n).v)
        assert np.allclose(hat, np.full(n + 1, 1.0 / (n + 1)), atol=1e-12)


def test_dual_weights_of_running_sum_are_flat_at_large_n():
    for n in (32, 64):
        hat = dual_weights(single_moment(n).v)
        assert np.allclose(hat, np.full(n + 1, 1.0 / (n + 1)), rtol=0.0, atol=1e-13)


def test_weight_product_identity():
    # w * w_dual * |phi_top'|^2 / h_n == 1 at every node
    rng = np.random.default_rng(47)
    for _ in range(40):
        v = random_verblunsky(rng, int(rng.integers(1, 13)))
        nodes = spectrum(v)
        w = weights(v, nodes).weights
        hat = dual_weights(v)
        dvals = np.abs(npoly.polyval(unit_points(nodes), npoly.polyder(v.phis[-1])))
        combined = w * hat * dvals**2 / v.h[-1]
        assert float(np.max(np.abs(combined - 1.0))) <= 1e-8


def test_persymmetric_weights_match_dual():
    rng = np.random.default_rng(53)
    for n in range(1, 11):
        v = random_persymmetric(rng, n)
        nodes = spectrum(v)
        w = weights(v, nodes).weights
        hat = dual_weights(v)
        assert float(np.max(np.abs(w - hat))) <= 1e-9


def test_persymmetric_weights_closed_form_flat():
    n = 4
    v = VerblunskySequence(np.zeros(n, dtype=complex), np.exp(0.9j))
    nodes = spectrum(v)
    w = persymmetric_weights(nodes, v.h[-1])
    assert np.allclose(w, np.full(n + 1, 1.0 / (n + 1)))


def test_persymmetric_weights_two_nodes():
    w = persymmetric_weights(np.array([0.0, np.pi]), 1.0)
    assert np.allclose(w, [0.5, 0.5])


def test_persymmetric_weights_against_system():
    rng = np.random.default_rng(59)
    for n in range(1, 11):
        v = random_persymmetric(rng, n)
        nodes = spectrum(v)
        w_direct = weights(v, nodes).weights
        w_closed = persymmetric_weights(nodes, v.h[-1])
        assert float(np.max(np.abs(w_direct - w_closed))) <= 1e-9


def test_phi_values_modulus():
    rng = np.random.default_rng(61)
    for n in range(1, 11):
        v = random_persymmetric(rng, n)
        nodes = spectrum(v)
        for eps in (1, -1):
            vals = phi_n_values(nodes, v.omega, v.h[-1], eps)
            assert np.allclose(np.abs(vals), np.sqrt(v.h[-1]))


def test_phi_values_match_recurrence():
    # the closed phase formula reproduces the actual next-to-top values
    # for one of the two sign choices
    rng = np.random.default_rng(67)
    for n in range(1, 11):
        v = random_persymmetric(rng, n)
        nodes = spectrum(v)
        actual = npoly.polyval(unit_points(nodes), v.phis[n])
        errs = []
        for eps in (1, -1):
            vals = phi_n_values(nodes, v.omega, v.h[-1], eps)
            errs.append(float(np.max(np.abs(vals - actual))))
        assert min(errs) <= 1e-9


def test_phi_values_take_a_sign():
    with pytest.raises(ValueError, match="epsilon must be"):
        phi_n_values(np.array([0.5, 2.0, 4.0]), 1.0, 0.5, epsilon=0)


@pytest.mark.parametrize("turn", [-1.0, 1.0])
def test_phi_values_need_angles_in_one_turn(turn):
    # the sign alternation and the half-angle phase hold only for theta in [0, 2 pi)
    fam = single_moment_persymmetric(6)
    nodes = spectrum(fam.v)
    with pytest.raises(ShapeError, match=r"node angles must lie in \[0, 2 pi\)"):
        phi_n_values(nodes + turn * 2.0 * np.pi, fam.v.omega, fam.v.h[-1], 1)


def test_phi_values_consecutive_ratio():
    # sign alternation: ratio of consecutive values is -exp(i (n-1) dtheta / 2)
    n = 5
    rng = np.random.default_rng(71)
    v = random_persymmetric(rng, n)
    nodes = spectrum(v)
    vals = phi_n_values(nodes, v.omega, v.h[-1], 1)
    for s in range(n):
        expected = -np.exp(0.5j * (n - 1) * (nodes[s + 1] - nodes[s]))
        assert np.isclose(vals[s + 1] / vals[s], expected)


def test_characterizations_monomial():
    v = VerblunskySequence(np.zeros(4, dtype=complex), np.exp(0.4j))
    report = verify_persymmetry_characterizations(v)
    assert report.max_residual <= 1e-12
    assert report.epsilon in (1, -1)


def test_characterizations_krawtchouk():
    fam = krawtchouk_family(4, np.exp(1j * np.pi / 3))
    report = verify_persymmetry_characterizations(fam.v)
    assert report.max_residual <= 1e-8


def test_characterizations_running_sum_persymmetric():
    fam = single_moment_persymmetric(6)
    report = verify_persymmetry_characterizations(fam.v)
    assert report.max_residual <= 1e-8


def test_characterizations_random_corpus():
    rng = np.random.default_rng(73)
    for n in range(1, 13):
        v = random_persymmetric(rng, n)
        report = verify_persymmetry_characterizations(v)
        assert report.max_residual <= 1e-8, f"n={n}: {report}"


def test_characterizations_equal_the_public_closed_forms_on_the_solve():
    # the characterizations skip node_angles on spectrum(v); the public forms must give the same residuals
    rng = np.random.default_rng(2406)
    corpus = [random_persymmetric(rng, n) for n in range(2, 12) for _ in range(5)]
    corpus += [single_moment_persymmetric(9).v, krawtchouk_family(9, np.exp(0.9j)).v]
    for v in corpus:
        nodes, h_final = spectrum(v), float(v.h[-1])
        phi_n = v.node_values[-1]
        predicted = phi_n_values(nodes, v.omega, h_final, 1)
        phase = {1: float(np.max(np.abs(phi_n - predicted))), -1: float(np.max(np.abs(phi_n + predicted)))}
        eps = -1 if phase[-1] < phase[1] else 1
        expected = PersymmetryCharacterizations(
            float(np.max(np.abs(weights(v, nodes).weights - persymmetric_weights(nodes, h_final)))),
            float(np.max(np.abs(np.abs(phi_n) - np.sqrt(h_final)))),
            phase[eps],
            eps,
        )
        assert verify_persymmetry_characterizations(v) == expected


def test_characterizations_reject_non_persymmetric():
    with pytest.raises(NotPersymmetricError):
        verify_persymmetry_characterizations(single_moment(4).v)


def test_underflowed_norms_raise_weight_error():
    # Krawtchouk data at n = 1024 drives h_k to exactly 0.0 from k = 997;
    # the eigenvector weights do not read h and still meet the closed form,
    # while the persymmetry forms, which need h_N, name the first zero
    inst = krawtchouk_family(1024, complex(np.exp(0.9j)))
    v = inst.v
    assert float(v.h[997]) == 0.0
    data = weights(v, spectrum(v))
    assert float(np.max(np.abs(data.weights - inst.closed_form_weights))) <= 1e-12
    with pytest.raises(WeightError, match="h_997 underflows"):
        verify_persymmetry_characterizations(v)
