"""Acceptance gate: one test per stated guarantee of the package.

Every test prints an explicit PASS or FAIL line with the measured worst
residual before asserting, so the suite output doubles as the acceptance
report.  The shared corpus is seeded and therefore reproducible: 200
coefficient sequences with n from 1 to 12 and |a| up to 0.85, plus 100
self-dual sequences per parity.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import characteristic_polynomial, eigenpair_residual, random_persymmetric, random_verblunsky
from popuc import (
    NotPersymmetricError,
    VerblunskySequence,
    build_system,
    cmv_matrix,
    dual_weights,
    free_family,
    krawtchouk_family,
    laurent_eigenvectors,
    mirror_dual,
    orthogonality_residual,
    paraorthogonality_residual,
    persymmetric_sign_pattern,
    principal_sqrt_unimodular,
    quasi_reflection,
    reconstruct_persymmetric,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    spectrum,
    verblunsky_from_polys,
    verify_family,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.cmv import factors
from popuc.complex_poly import unit_points
from popuc.families import _krawtchouk_ladder


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2026)
    systems = []
    for i in range(200):
        n = 1 + i % 12
        v = random_verblunsky(rng, n)
        sys_ = build_system(v)
        nodes = spectrum(sys_)
        data = weights(sys_, nodes)
        systems.append((v, sys_, nodes, data))
    return systems


@pytest.fixture(scope="module")
def persymmetric_corpus():
    rng = np.random.default_rng(4052)
    odd = [random_persymmetric(rng, 1 + 2 * (i % 6)) for i in range(100)]
    even = [random_persymmetric(rng, 2 + 2 * (i % 6)) for i in range(100)]
    return odd, even


def test_criterion_01_coefficient_round_trip(corpus):
    worst = 0.0
    for v, sys_, _, _ in corpus:
        rec = verblunsky_from_polys(sys_.phis)
        full = np.concatenate([v.a, [v.omega]])
        worst = max(worst, float(np.max(np.abs(rec - full))))
    ok = worst <= 1e-12
    _report(1, ok, f"coefficients round-trip through the ladder, worst {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_02_orthogonality(corpus):
    worst = 0.0
    for _, sys_, _, data in corpus:
        worst = max(worst, orthogonality_residual(sys_, data))
    ok = worst <= 1e-8
    _report(2, ok, f"ladder Gram matrix equals diag(h) under the node measure, worst {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_03_paraorthogonality(corpus):
    worst = 0.0
    for _, sys_, _, _ in corpus:
        worst = max(worst, paraorthogonality_residual(sys_))
    ok = worst <= 1e-10
    _report(3, ok, f"final polynomial closure identity, worst {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_04_mirror_duality(corpus):
    worst_top = 0.0
    worst_h = 0.0
    worst_product = 0.0
    for v, sys_, nodes, data in corpus:
        dual_sys = build_system(mirror_dual(v))
        worst_top = max(
            worst_top,
            float(np.max(np.abs(dual_sys.phis[-1] - sys_.phis[-1]))),
        )
        worst_h = max(
            worst_h,
            abs(float(dual_sys.h[-1]) - float(sys_.h[-1])) / float(sys_.h[-1]),
        )
        hat = dual_weights(sys_)
        dvals = np.abs(npoly.polyval(unit_points(nodes), npoly.polyder(sys_.phis[-1])))
        product = data.weights * hat * dvals**2 / float(sys_.h[-1])
        worst_product = max(worst_product, float(np.max(np.abs(product - 1.0))))
    ok = worst_top <= 1e-10 and worst_h <= 1e-10 and worst_product <= 1e-8
    _report(
        4,
        ok,
        "dual system shares the final polynomial and norms, weight product"
        f" identity holds: top {worst_top:.2e} <= 1e-10, h {worst_h:.2e} <= 1e-10,"
        f" product {worst_product:.2e} <= 1e-8",
    )
    assert ok


def test_criterion_05_persymmetry_characterizations(persymmetric_corpus):
    odd, even = persymmetric_corpus
    worst = 0.0
    for v in odd + even:
        report = verify_persymmetry_characterizations(v)
        worst = max(worst, report.max_residual)
    rejected = False
    try:
        verify_persymmetry_characterizations(single_moment(5).v)
    except NotPersymmetricError:
        rejected = True
    ok = worst <= 1e-8 and rejected
    _report(
        5,
        ok,
        f"three self-dual characterizations agree, worst {worst:.2e} <= 1e-8;"
        f" non-self-dual input rejected: {rejected}",
    )
    assert ok


def test_criterion_06_cmv_spectral(corpus):
    worst_unitary = 0.0
    worst_band = 0.0
    worst_eigen = 0.0
    worst_charpoly = 0.0
    for v, sys_, nodes, _ in corpus:
        u = cmv_matrix(v)
        eye = np.eye(u.shape[0])
        worst_unitary = max(worst_unitary, float(np.max(np.abs(np.conj(u.T) @ u - eye))))
        i, j = np.indices(u.shape)
        band = np.abs(u[np.abs(i - j) > 2])
        worst_band = max(worst_band, float(np.max(band, initial=0.0)))
        z = unit_points(nodes)
        worst_eigen = max(worst_eigen, eigenpair_residual(u, laurent_eigenvectors(sys_, z), z))
        if v.n <= 8:
            chi = characteristic_polynomial(u)
            worst_charpoly = max(worst_charpoly, float(np.max(np.abs(chi - sys_.phis[-1]))))
    ok = (
        worst_unitary <= 1e-12
        and worst_band <= 1e-14
        and worst_eigen <= 1e-9
        and worst_charpoly <= 1e-10
    )
    _report(
        6,
        ok,
        f"five-diagonal unitary represents the system: unitarity {worst_unitary:.2e}"
        f" <= 1e-12, off-band {worst_band:.2e} <= 1e-14, eigenpairs {worst_eigen:.2e}"
        f" <= 1e-9, characteristic polynomial {worst_charpoly:.2e} <= 1e-10",
    )
    assert ok


def test_criterion_07_quasi_reflection(corpus, persymmetric_corpus):
    worst_algebra = 0.0
    for n in range(1, 13):
        tau = np.exp(0.37j * (n + 1))
        q = quasi_reflection(n, tau).matrix
        if n % 2 == 1:
            worst_algebra = max(
                worst_algebra, float(np.max(np.abs(q @ q - np.eye(n + 1))))
            )
        else:
            qi = quasi_reflection(n, 1.0 / tau).matrix
            worst_algebra = max(
                worst_algebra, float(np.max(np.abs(q @ qi - np.eye(n + 1))))
            )
    worst_mirror = 0.0
    for v, _, _, _ in corpus:
        worst_mirror = max(worst_mirror, verify_mirror_relations(v).max_residual)
    odd, even = persymmetric_corpus
    worst_commute = 0.0
    pattern_ok = True
    for v in odd[:50]:
        u = cmv_matrix(v)
        tau = np.conj(principal_sqrt_unimodular(v.omega))
        q = quasi_reflection(v.n, tau).matrix
        worst_commute = max(worst_commute, float(np.max(np.abs(q @ u - u @ q))))
        signs = persymmetric_sign_pattern(v)  # raises on violation
        pattern_ok = pattern_ok and signs[0] in (1, -1)
    transport_ok = True
    for v in even[:50]:
        sys_ = build_system(v)
        u = cmv_matrix(v)
        tau = principal_sqrt_unimodular(v.omega)
        qi = quasi_reflection(v.n, 1.0 / tau).matrix
        z = unit_points(spectrum(sys_))
        phi = qi @ np.conj(laurent_eigenvectors(sys_, z))
        transport_ok = transport_ok and eigenpair_residual(u, phi, z) <= 1e-8
    ok = (
        worst_algebra <= 1e-14
        and worst_mirror <= 1e-10
        and worst_commute <= 1e-10
        and pattern_ok
        and transport_ok
    )
    _report(
        7,
        ok,
        f"quasi-reflection identities: algebra {worst_algebra:.2e} <= 1e-14,"
        f" mirror relations {worst_mirror:.2e} <= 1e-10, commutation"
        f" {worst_commute:.2e} <= 1e-10, odd sign pattern {pattern_ok},"
        f" even eigenvector transport {transport_ok}",
    )
    assert ok


def test_criterion_08_inverse_spectral(persymmetric_corpus):
    odd, even = persymmetric_corpus
    worst_a = 0.0
    worst_h = 0.0
    for v in odd + even:
        sys_ = build_system(v)
        nodes = spectrum(sys_)
        result = reconstruct_persymmetric(nodes, v.omega)
        worst_a = max(worst_a, float(np.max(np.abs(result.v.a - v.a))))
        worst_h = max(
            worst_h, abs(result.h_final - float(sys_.h[-1])) / float(sys_.h[-1])
        )
    ok = worst_a <= 1e-7 and worst_h <= 1e-8
    _report(
        8,
        ok,
        f"unique recovery from nodes alone, coefficients {worst_a:.2e} <= 1e-7,"
        f" final norm {worst_h:.2e} <= 1e-8 relative (rebuilt spectrum checked"
        " inside the recovery)",
    )
    assert ok


def test_criterion_09_example_families():
    settings = []
    for n, nu in [(1, 0.0), (3, 0.25), (5, 0.1), (8, 0.6), (12, 0.37)]:
        settings.append(free_family(n, nu))
    for n in (1, 2, 4, 7, 12):
        settings.append(single_moment(n))
        settings.append(single_moment_dual(n))
        settings.append(single_moment_persymmetric(n))
    for n, omega in [(1, np.exp(0.5j)), (2, 1.0), (4, np.exp(1j * np.pi / 3)), (6, 1j), (9, np.exp(1.2j))]:
        settings.append(krawtchouk_family(n, omega))
    worst = 0.0
    for inst in settings:
        report = verify_family(inst)
        worst = max(worst, max(report.values()))
    ok = worst <= 1e-8
    _report(
        9,
        ok,
        f"all five closed-form families verify across {len(settings)} settings,"
        f" worst residual {worst:.2e} <= 1e-8",
    )
    assert ok


def test_criterion_10_formula_calibrations():
    facts = []

    # weight prefactor: 2/(n+2) normalizes, (n+2)/2 does not
    n = 5
    fam = single_moment(n)
    sys_ = build_system(fam.v)
    data = weights(sys_, spectrum(sys_))
    half = np.pi * (np.arange(n + 1) + 1.0) / (n + 2)
    correct = (2.0 / (n + 2)) * np.sin(half) ** 2
    facts.append(float(np.max(np.abs(data.weights - correct))) <= 1e-12)
    facts.append(abs(float(np.sum(((n + 2) / 2.0) * np.sin(half) ** 2)) - 1.0) > 1.0)

    # duality twist sign for the linear-coefficient family
    a = krawtchouk_family(5, np.exp(0.7j)).v.a
    rev = np.conj(a[::-1])
    facts.append(float(np.max(np.abs(a + np.exp(0.7j) * rev))) <= 1e-13)
    facts.append(float(np.max(np.abs(a - np.exp(0.7j) * rev))) > 1e-2)

    # rotation block conjugation side
    rng = np.random.default_rng(101)
    v = random_verblunsky(rng, 5)
    sys_ = build_system(v)
    nodes = spectrum(sys_)

    def eigen_residual(conjugate_blocks):
        # the plain-block variant is the conjugated-block builder on conjugated data
        w = v if conjugate_blocks else VerblunskySequence(np.conj(v.a), np.conj(v.omega))
        m1, m2 = factors(w)
        u = m2 @ m1
        z = unit_points(nodes)
        return eigenpair_residual(u, laurent_eigenvectors(sys_, z), z)

    facts.append(eigen_residual(True) <= 1e-10)
    facts.append(eigen_residual(False) > 1e-2)

    # scaling constant of the symmetric ladder
    n_k = 4
    omega = np.exp(0.8j)

    def worst_remainder(kappa_sq):
        return max(abs(remainder) for _, remainder, _ in _krawtchouk_ladder(n_k, omega, kappa_sq))

    facts.append(worst_remainder(4.0 * abs(1.0 + omega) ** 2 / (n_k + 1.0) ** 2) <= 1e-12)
    facts.append(worst_remainder(abs(1.0 + omega) ** 2 / (n_k + 1.0)) > 1e-3)

    # conjugation side of the closure identity
    w = 1j
    top = build_system(VerblunskySequence(np.zeros(3, dtype=complex), w)).phis[-1]
    starred = np.conj(top[::-1])
    facts.append(float(np.max(np.abs(starred + w * top))) <= 1e-15)
    facts.append(np.isclose(float(np.max(np.abs(w * starred + top))), 2.0))

    ok = all(facts)
    _report(
        10,
        ok,
        f"calibrated formula choices beat their variants in {sum(facts)}/10 contrasts",
    )
    assert ok
