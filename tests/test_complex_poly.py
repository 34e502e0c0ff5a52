"""Monomial-coefficient helpers (roots, products of linear factors, interpolation) and the names bench/ reads."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import random_verblunsky
from popuc import (
    DegenerateNodesError,
    ShapeError,
    principal_sqrt_unimodular,
    reconstruct_persymmetric,
    single_moment_persymmetric,
    spectrum,
)
from popuc.complex_poly import UnitCirclePoint, _exp_i, from_roots, lagrange_interpolate, roots
from popuc.errors import ConvergenceError


def test_roots_quadratic():
    found = sorted(roots([-1, 0, 1]), key=lambda z: z.real)
    assert np.allclose(found, [-1, 1])


def test_roots_fourth_roots_of_unity():
    found = roots(np.array([-1, 0, 0, 0, 1]))
    expected = [np.exp(2j * np.pi * k / 4) for k in range(4)]
    for e in expected:
        assert min(abs(e - f) for f in found) < 1e-12


def test_roots_primitive_cube():
    found = roots([1, 1, 1])
    expected = [np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
    for e in expected:
        assert min(abs(e - f) for f in found) < 1e-12


def test_roots_degree_errors():
    with pytest.raises(ShapeError):
        roots([1.0])
    with pytest.raises(ShapeError):
        roots([1.0, 0.0])
    with pytest.raises(ShapeError):
        roots([])
    with pytest.raises(ValueError, match="finite"):
        roots([1.0, np.nan])


def test_roots_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(50):
        deg = int(rng.integers(2, 17))
        target = np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, deg)))
        coeffs = from_roots(target)
        found = roots(coeffs)
        pv = npoly.polyval(found, coeffs)
        dv = npoly.polyval(found, npoly.polyder(coeffs))
        resid = np.abs(pv) / (1.0 + np.abs(dv) * np.abs(found))
        assert float(np.max(resid)) <= 1e-10


def test_roots_nonconvergence_reports_residual(monkeypatch):
    # a residual bound below rounding level cannot be met by any root
    import popuc.complex_poly as complex_poly

    monkeypatch.setattr(complex_poly, "RESIDUAL", 1e-20)
    coeffs = from_roots(np.exp(1j * np.linspace(0.1, 5.9, 9)))
    with pytest.raises(ConvergenceError) as info:
        roots(coeffs)
    assert info.value.residual > 1e-20


def test_from_roots_examples():
    assert np.allclose(from_roots([1, -1]), [-1, 0, 1])
    assert np.allclose(from_roots([1j, -1, -1j]), [1, 1, 1, 1])
    assert np.allclose(from_roots([]), [1])


def test_roots_round_trip_seeded():
    # random monic polynomials, coefficientwise error relative to the largest coefficient
    rng = np.random.default_rng(17)
    for _ in range(200):
        deg = int(rng.integers(1, 17))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] = 1.0
        rebuilt = from_roots(roots(coeffs))
        scale = float(np.max(np.abs(coeffs)))
        assert float(np.max(np.abs(rebuilt - coeffs))) <= 1e-8 * scale


def test_lagrange_line():
    assert np.allclose(lagrange_interpolate([1.0, -1.0], [1.0, -1.0]), [0, 1])


def test_lagrange_square():
    nodes = [1, 1j, -1, -1j]
    values = [1, -1, 1, -1]
    assert np.allclose(lagrange_interpolate(nodes, values), [0, 0, 1, 0], atol=1e-14)


def test_lagrange_reproduces_at_nodes():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(2, 18))
        nodes = np.exp(1j * (2 * np.pi * np.arange(m) / m + rng.uniform(0, 2 * np.pi)))
        values = rng.normal(size=m) + 1j * rng.normal(size=m)
        coeffs = lagrange_interpolate(nodes, values)
        resid = max(
            abs(npoly.polyval(x, coeffs) - y) / max(1.0, abs(y)) for x, y in zip(nodes, values)
        )
        assert resid <= 1e-9


def test_lagrange_rejects_duplicates():
    with pytest.raises(DegenerateNodesError):
        lagrange_interpolate([1.0, 1.0 + 1e-14], [0.0, 1.0])
    with pytest.raises(ShapeError):
        lagrange_interpolate([1.0, 2.0], [1.0])


def test_quarter_turns_are_exact_and_large_args_keep_exp_i():
    # 4 arg / 2 pi is a whole number for a growing share of floats from |arg| ~ 1e14 and
    # for every float from 2^52 quarter turns (~7.07e15); rounding those gave omega = 1 for
    # arg = 3e16, where exp(i arg) = 0.896 + 0.443i, and -1 + 1j for arg = 1e16
    rng = np.random.default_rng(38)
    args = np.concatenate(
        (np.logspace(14, 300, 2000), rng.uniform(1e14, 1e15, 2000), rng.uniform(1.8e15, 7e15, 2000), [1e16, 3e16])
    )
    for arg in np.concatenate((args, -args)).tolist():
        assert _exp_i(arg) == complex(np.exp(1j * arg))
    # the seam cases stay exact, each 0 a +0.0 (test_families checks free_family at quarter nu)
    exact = [
        (_exp_i(np.pi), (-1.0, 0.0)),
        (_exp_i(-np.pi), (-1.0, 0.0)),
        (_exp_i(np.pi / 2), (0.0, 1.0)),
        (_exp_i(-np.pi / 2), (0.0, -1.0)),
        (_exp_i(2 * np.pi), (1.0, 0.0)),
        (principal_sqrt_unimodular(complex(-1.0, 0.0)), (0.0, 1.0)),
        (principal_sqrt_unimodular(complex(-1.0, -0.0)), (0.0, -1.0)),
    ]
    for w, parts in exact:
        assert (w.real, w.imag) == parts
        assert np.signbit([w.real, w.imag]).tolist() == np.signbit(parts).tolist()


def test_unit_circle_point():
    p = UnitCirclePoint(2 * np.pi + 0.5)
    assert p.theta == pytest.approx(0.5)


def test_names_the_benchmark_reads():
    # bench/workloads.py calls build_system, the two-argument weights and
    # orthogonality_residual, reads SpectralData.nodes and passes UnitCirclePoint
    # values to reconstruct_persymmetric; bench/tracer.py wraps the three helpers
    # above by name.  These go once the benchmark reads arrays only.  Until then
    # each is read from its module, and the package exports none of them.
    import types

    import popuc
    import popuc.cmv as cmv
    import popuc.complex_poly as cp
    import popuc.errors as errors
    import popuc.opuc_core as oc

    v = random_verblunsky(np.random.default_rng(3), 6)
    assert oc.build_system(v) is v
    data = oc.weights(v, oc.spectrum(v))
    assert oc.orthogonality_residual(v, data) <= 1e-12
    assert [p.theta for p in data.nodes] == data.theta.tolist()
    fam = single_moment_persymmetric(5)
    theta = spectrum(fam.v)
    points = [cp.UnitCirclePoint(t) for t in theta.tolist()]
    recovered = reconstruct_persymmetric(points, fam.v.omega).v.a
    assert np.array_equal(recovered, reconstruct_persymmetric(theta, fam.v.omega).v.a)
    assert all(callable(getattr(cp, name)) for name in ("roots", "from_roots", "lagrange_interpolate"))
    assert issubclass(errors.ConvergenceError, errors.PopucError)
    public = {k for k, m in vars(popuc).items() if not k.startswith("_") and not isinstance(m, types.ModuleType)}
    assert sorted(popuc.__all__) == sorted(public)
    retired = ("UnitCirclePoint", "roots", "from_roots", "lagrange_interpolate", "build_system", "ConvergenceError")
    assert not any(hasattr(popuc, name) for name in retired)
    # the dense reference forms live in the tests' conftest, as no stage builds them
    forms = ("theta_block", "quasi_reflection", "symmetric_form")
    assert not any(hasattr(module, name) for module in (popuc, cmv, oc) for name in forms)
