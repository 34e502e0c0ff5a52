"""Closed-form example families and their verification reports."""

import numpy as np
import pytest

from popuc import (
    ShapeError,
    free_family,
    krawtchouk_family,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    verify_family,
)


def _assert_clean(report, bound=1e-8):
    for key, value in report.items():
        assert value <= bound, f"{key}: {value:.3e}"


def test_free_family_many_settings():
    for n, nu in [(1, 0.0), (2, 0.25), (4, 0.1), (7, 0.6), (12, 0.37), (9, 0.99)]:
        _assert_clean(verify_family(free_family(n, nu)))


def test_single_moment_many_settings():
    for n in (1, 2, 3, 5, 8, 12):
        _assert_clean(verify_family(single_moment(n)))


def test_single_moment_dual_many_settings():
    for n in (1, 2, 3, 5, 8, 12):
        _assert_clean(verify_family(single_moment_dual(n)))


def test_single_moment_persymmetric_many_settings():
    for n in (1, 2, 3, 5, 8, 12):
        _assert_clean(verify_family(single_moment_persymmetric(n)))


def test_krawtchouk_many_settings():
    settings = [
        (1, np.exp(0.5j)),
        (2, 1.0),
        (3, np.exp(-1.2j)),
        (4, np.exp(1j * np.pi / 3)),
        (6, 1j),
        (9, np.exp(1.2j)),
        (10, np.exp(-0.9j)),
    ]
    for n, omega in settings:
        _assert_clean(verify_family(krawtchouk_family(n, omega)))


def test_single_moment_h_closed_form():
    # the squared norm of the top Szego-class entry is (n+2)/(2(n+1))
    for n in (1, 2, 5, 9):
        assert np.isclose(single_moment(n).v.h[-1], (n + 2.0) / (2.0 * (n + 1.0)))


def test_persymmetric_weights_are_sqrt_of_primal():
    # same nodes: persymmetric weight proportional to sqrt(primal weight)
    for n in (2, 5, 9):
        w_p = single_moment_persymmetric(n).closed_form_weights
        w_m = single_moment(n).closed_form_weights
        ratio = w_p / np.sqrt(w_m)
        assert float(np.max(ratio) - np.min(ratio)) <= 1e-9 * float(np.max(ratio))


def test_dual_shares_nodes_with_primal():
    for n in (2, 5):
        a = single_moment(n).closed_form_nodes
        b = single_moment_dual(n).closed_form_nodes
        assert np.allclose(a, b)


def test_krawtchouk_at_omega_one():
    # sigma = 0: the two endpoint candidates coincide at z = 1; one copy is
    # dropped as the closure match, the kept copy is a genuine node at
    # theta = 0 carrying the merged endpoint mass
    fam = krawtchouk_family(5, 1.0)
    _assert_clean(verify_family(fam))
    thetas = fam.closed_form_nodes
    assert thetas[0] == 0.0
    assert np.all(np.diff(thetas) > 1e-9)


FAMILIES = pytest.mark.parametrize(
    "make",
    [lambda: free_family(5, -0.3), lambda: single_moment(5), lambda: single_moment_dual(5),
     lambda: single_moment_persymmetric(5), lambda: krawtchouk_family(5, np.exp(-0.9j))],
    ids=["free", "single_moment", "single_moment_dual", "single_moment_persymmetric", "krawtchouk"],
)


@pytest.mark.parametrize(
    "make", [lambda: free_family(0, 0.0), lambda: single_moment(0), lambda: single_moment_dual(0),
             lambda: single_moment_persymmetric(0), lambda: krawtchouk_family(0, 1.0)],
    ids=["free", "single_moment", "single_moment_dual", "single_moment_persymmetric", "krawtchouk"],
)
def test_a_constructor_rejects_n_zero(make):
    with pytest.raises(ShapeError, match="need n >= 1"):
        make()


@FAMILIES
def test_a_constructor_leaves_the_ladder_unbuilt(make):
    inst = make()
    assert "closed_form_phis" not in vars(inst)
    report = verify_family(inst)
    assert ("phi" in report) is (inst.name != "single_moment_persymmetric")
    assert "closed_form_phis" in vars(inst)  # built by the one reader, then kept


def test_krawtchouk_remainder_gate_fires_through_verify_family(monkeypatch):
    import popuc.families as families

    monkeypatch.setattr(families, "_krawtchouk_ladder", lambda *args: [(np.ones(1, dtype=complex), 1.0, 1.0)])
    inst = krawtchouk_family(4, np.exp(0.9j))  # the constructor does not read the ladder
    with pytest.raises(ValueError, match="ladder entry 0: division remainder 1.000e"):
        verify_family(inst)


@pytest.mark.parametrize("nu", [1e12, 1e17, -7.25, 1e-13])
def test_free_family_keeps_its_nodes_at_large_nu(nu):
    # nu is reduced mod 1 before it meets s, so each closed-form angle keeps its own s;
    # at nu = 1e-13 the first node lies within UNIMODULAR below 2 pi and reads as 0 on both sides
    fam = free_family(4, nu)
    report = verify_family(fam)
    assert report["nodes"] <= 1e-12
    _assert_clean(report)
    assert np.unique(fam.closed_form_nodes).size == 5
    turn = nu % 1.0
    assert abs(fam.v.omega - np.exp(2j * np.pi * turn)) <= 1e-15
    assert np.allclose(fam.closed_form_nodes, free_family(4, turn).closed_form_nodes, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "nu, parts",
    [(0.25, (0.0, 1.0)), (0.5, (-1.0, 0.0)), (0.75, (0.0, -1.0)), (-0.5, (-1.0, 0.0)), (1e12 + 0.5, (-1.0, 0.0))],
)
def test_free_family_omega_is_exact_at_quarter_turns(nu, parts):
    # exp(2 pi i nu) leaves about 1e-16 in the part that should be 0; each 0 here is +0.0
    fam = free_family(5, nu)
    omega = fam.v.omega
    assert (omega.real, omega.imag) == parts
    assert np.signbit([omega.real, omega.imag]).tolist() == np.signbit(parts).tolist()
    _assert_clean(verify_family(fam), bound=1e-14)


@FAMILIES
def test_closed_form_nodes_are_one_sorted_read_only_theta_array(make):
    # the weights are read-only too: a caller's write would change the oracle verify_family checks against
    inst = make()
    nodes, w = inst.closed_form_nodes, inst.closed_form_weights
    assert isinstance(nodes, np.ndarray) and nodes.dtype == np.float64 and not nodes.flags.writeable
    assert nodes[0] >= 0.0 and nodes[-1] < 2.0 * np.pi and np.all(np.diff(nodes) > 0.0)
    assert isinstance(w, np.ndarray) and w.shape == nodes.shape and not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


@pytest.mark.parametrize("sigma", [1e-9, -1e-9, 1e-6])
def test_krawtchouk_nodes_keep_sigma_near_omega_one(sigma):
    # cos(sigma / 2) rounds to 1 here, so the half angles are formed without it cancelling
    assert verify_family(krawtchouk_family(6, np.exp(1j * sigma)))["nodes"] <= 1e-12


def test_krawtchouk_weights_keep_sigma_near_omega_one():
    # the kept endpoint has half angle pi - sigma / 2; its weight ratio takes no sine of it
    for n in range(1, 21):
        _assert_clean(verify_family(krawtchouk_family(n, np.exp(1e-9j))))


def test_krawtchouk_negative_angle():
    fam = krawtchouk_family(4, np.exp(-0.9j))
    _assert_clean(verify_family(fam))


def test_krawtchouk_exclusion_arc():
    # no node angle enters the arc between -|sigma| and |sigma|
    for n, omega in [(3, np.exp(0.8j)), (6, np.exp(-2.0j)), (5, 1j)]:
        fam = krawtchouk_family(n, omega)
        sigma = abs(float(np.angle(complex(omega))))
        for theta in fam.closed_form_nodes:
            dist = min(theta, 2.0 * np.pi - theta)
            assert dist >= sigma - 1e-9


def test_krawtchouk_rejects_bad_omega():
    with pytest.raises(ValueError):
        krawtchouk_family(3, -1.0)
    with pytest.raises(ValueError):
        krawtchouk_family(3, 2.0)


def test_family_coefficient_formulas():
    fam = single_moment(4)
    assert np.allclose(fam.v.a, [-1 / 2, -1 / 3, -1 / 4, -1 / 5])
    fam = single_moment_dual(4)
    assert np.allclose(fam.v.a, [-1 / 5, -1 / 4, -1 / 3, -1 / 2])
    omega = np.exp(0.7j)
    fam = krawtchouk_family(3, omega)
    expected = [(omega + 1.0) * (k + 1.0) / 4.0 - 1.0 for k in range(3)]
    assert np.allclose(fam.v.a, expected)


def test_verify_family_rejects_wrong_ladder_length():
    fam = free_family(3)
    broken = type(fam)(
        name=fam.name,
        v=fam.v,
        closed_form_nodes=fam.closed_form_nodes,
        closed_form_weights=fam.closed_form_weights,
        persymmetric=fam.persymmetric,
    )
    vars(broken)["closed_form_phis"] = fam.closed_form_phis[:-1]  # fill the cached ladder by hand
    with pytest.raises(ShapeError):
        verify_family(broken)


def test_families_clean_at_large_n():
    for fam in (free_family(64, 0.3), single_moment(64), single_moment_dual(64), single_moment_persymmetric(64)):
        _assert_clean(verify_family(fam))


def test_krawtchouk_clean_at_large_n():
    # the closed-form ladder runs the Krawtchouk recurrence in w = z^2, whose
    # coefficients grow with n (2.5e10 at n = 52, 1e42 at n = 200), so its
    # deviation is bounded relative to the largest coefficient
    for n in (40, 52, 56, 64, 96, 200):
        fam = krawtchouk_family(n, np.exp(0.9j))
        report = verify_family(fam)
        scale = max(float(np.max(np.abs(p))) for p in fam.closed_form_phis)
        assert report.pop("phi") <= 1e-12 * scale
        _assert_clean(report)


class _NumpyScalars(np.ndarray):
    """An index array whose ``tolist`` gives numpy int64 scalars, as plain iteration over it does."""

    def tolist(self):
        return list(self.view(np.ndarray))


def test_krawtchouk_weights_on_python_floats_match_numpy_scalars_bit_for_bit(monkeypatch):
    # the log masses sum lgamma over the kept indices as Python numbers; the
    # same comprehension over numpy int64 scalars gives the same bytes
    import popuc.families as families

    got = {n: krawtchouk_family(n, np.exp(0.9j)) for n in range(1, 71)}
    delete = np.delete
    monkeypatch.setattr(families.np, "delete", lambda *args: delete(*args).view(_NumpyScalars))
    for n, fam in got.items():
        want = krawtchouk_family(n, np.exp(0.9j))
        assert type(want.closed_form_weights) is np.ndarray
        assert fam.closed_form_weights.tobytes() == want.closed_form_weights.tobytes()
        assert fam.closed_form_nodes.tobytes() == want.closed_form_nodes.tobytes()
