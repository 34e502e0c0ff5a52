"""Polynomial layer: roots, products of linear factors, interpolation."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from popuc import (
    ConvergenceError,
    DegenerateNodesError,
    Polynomial,
    ShapeError,
    UnitCirclePoint,
    from_roots,
    lagrange_interpolate,
    roots,
)


def test_polynomial_validation():
    with pytest.raises(ShapeError):
        Polynomial(np.array([]))
    with pytest.raises(ValueError):
        Polynomial(np.array([np.nan + 0j]))
    p = Polynomial([1, 2, 3])
    assert p.degree == 2
    assert p.leading == 3


def test_roots_quadratic():
    found = sorted(roots(Polynomial([-1, 0, 1])), key=lambda z: z.real)
    assert np.allclose(found, [-1, 1])


def test_roots_fourth_roots_of_unity():
    found = roots(Polynomial([-1, 0, 0, 0, 1]))
    expected = [np.exp(2j * np.pi * k / 4) for k in range(4)]
    for e in expected:
        assert min(abs(e - f) for f in found) < 1e-12


def test_roots_primitive_cube():
    found = roots(Polynomial([1, 1, 1]))
    expected = [np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
    for e in expected:
        assert min(abs(e - f) for f in found) < 1e-12


def test_roots_degree_errors():
    with pytest.raises(ShapeError):
        roots(Polynomial([1.0]))
    with pytest.raises(ShapeError):
        roots(Polynomial([1.0, 0.0]))


def test_roots_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(50):
        deg = int(rng.integers(2, 17))
        target = np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, deg)))
        p = from_roots(target)
        found = roots(p)
        pv = npoly.polyval(found, p.coeffs)
        dv = npoly.polyval(found, npoly.polyder(p.coeffs))
        resid = np.abs(pv) / (1.0 + np.abs(dv) * np.abs(found))
        assert float(np.max(resid)) <= 1e-10


def test_roots_nonconvergence_reports_residual(monkeypatch):
    # a residual bound below rounding level cannot be met by any root
    import popuc.complex_poly as complex_poly

    monkeypatch.setattr(complex_poly, "RESIDUAL", 1e-20)
    p = from_roots(np.exp(1j * np.linspace(0.1, 5.9, 9)))
    with pytest.raises(ConvergenceError) as info:
        roots(p)
    assert info.value.residual > 1e-20


def test_from_roots_examples():
    assert np.allclose(from_roots([1, -1]).coeffs, [-1, 0, 1])
    assert np.allclose(from_roots([1j, -1, -1j]).coeffs, [1, 1, 1, 1])
    assert np.allclose(from_roots([]).coeffs, [1])


def test_roots_round_trip_seeded():
    # random monic polynomials, coefficientwise error relative to the largest coefficient
    rng = np.random.default_rng(17)
    for _ in range(200):
        deg = int(rng.integers(1, 17))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] = 1.0
        p = Polynomial(coeffs)
        rebuilt = from_roots(roots(p))
        scale = float(np.max(np.abs(coeffs)))
        assert float(np.max(np.abs(rebuilt.coeffs - p.coeffs))) <= 1e-8 * scale


def test_lagrange_line():
    p = lagrange_interpolate([1.0, -1.0], [1.0, -1.0])
    assert np.allclose(p.coeffs, [0, 1])


def test_lagrange_square():
    nodes = [1, 1j, -1, -1j]
    values = [1, -1, 1, -1]
    p = lagrange_interpolate(nodes, values)
    assert np.allclose(p.coeffs, [0, 0, 1, 0], atol=1e-14)


def test_lagrange_reproduces_at_nodes():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(2, 18))
        nodes = np.exp(1j * (2 * np.pi * np.arange(m) / m + rng.uniform(0, 2 * np.pi)))
        values = rng.normal(size=m) + 1j * rng.normal(size=m)
        p = lagrange_interpolate(nodes, values)
        resid = max(
            abs(npoly.polyval(x, p.coeffs) - y) / max(1.0, abs(y)) for x, y in zip(nodes, values)
        )
        assert resid <= 1e-9


def test_lagrange_rejects_duplicates():
    with pytest.raises(DegenerateNodesError):
        lagrange_interpolate([1.0, 1.0 + 1e-14], [0.0, 1.0])
    with pytest.raises(ShapeError):
        lagrange_interpolate([1.0, 2.0], [1.0])


def test_unit_circle_point():
    p = UnitCirclePoint(2 * np.pi + 0.5)
    assert p.theta == pytest.approx(0.5)
    assert complex(p) == pytest.approx(np.exp(0.5j))
    assert UnitCirclePoint(0.1) < UnitCirclePoint(0.2)
