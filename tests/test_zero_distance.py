"""The (distance, zero) contract shared by the three zero-distance functions."""

import math

import numpy as np
import pytest

from zerogap import ballfinder, complexproj, sphereopt
from zerogap.ballfinder import euclidean_zero_distance
from zerogap.complexproj import ComplexHomogPoly, complex_zero_distance, hermitian_angle
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import angular_distance_to_zero_set, unit_vector


def sphere_angle(p, z):
    return math.acos(float(np.clip(unit_vector(p) @ z, -1.0, 1.0)))


def ball_distance(p, z):
    return float(np.linalg.norm(np.asarray(p, dtype=float) - z))


def complex_angle(p, z):
    p = np.asarray(p, dtype=complex)
    return hermitian_angle(p / np.linalg.norm(p), z)


SPHERE = (angular_distance_to_zero_set, sphere_angle, True)
BALL = (euclidean_zero_distance, ball_distance, False)
COMPLEX = (complex_zero_distance, complex_angle, True)

# (function, polynomial, point, whether a zero exists) for every branch of
# each function: closed-form factors, the low-dimension exact path and the
# search
CASES = {
    "sphere-factors": (
        SPHERE,
        lambda: product_of_affine_forms([AffineForm([1, 0, 0], 0.3), AffineForm([0, 1, 0], -0.5)]),
        [0.2, 0.4, 0.9],
        True,
    ),
    "sphere-factors-none": (SPHERE, lambda: product_of_affine_forms([AffineForm([1, 0, 0], 1.5)]), [0, 1, 0], False),
    "sphere-d2": (SPHERE, lambda: MultiPoly(2, {(2, 0): 1.0, (0, 2): -0.3, (1, 0): 0.2}), [0.6, 0.8], True),
    "sphere-d2-none": (SPHERE, lambda: MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), [1, 0], False),
    "sphere-search": (SPHERE, lambda: MultiPoly(3, {(1, 1, 1): 1.0}), [1, 1, 1], True),
    "sphere-search-none": (
        SPHERE,
        lambda: MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 0.5}),
        [0.0, 0.6, 0.8],
        False,
    ),
    "ball-factors": (
        BALL,
        lambda: product_of_affine_forms([AffineForm([1, 0], 0.1), AffineForm([0.6, 0.8], -0.2)]),
        [0.3, -0.4],
        True,
    ),
    "ball-1d": (BALL, lambda: MultiPoly(1, {(2,): 1.0, (1,): 0.2, (0,): -0.08}), [0.5], True),
    "ball-1d-none": (BALL, lambda: MultiPoly(1, {(2,): 1.0, (0,): 4.0}), [0.3], False),
    "ball-search": (BALL, lambda: MultiPoly(2, {(2, 0): 1.0, (0, 2): -0.5, (1, 0): 0.1}), [0.2, 0.6], True),
    "ball-search-none": (BALL, lambda: MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 0.5}), [0.2, 0.6], False),
    "complex-factors": (
        COMPLEX,
        lambda: ComplexHomogPoly.from_linear_product([[1.0, 2j, 0.5], [0.3, -1.0, 1j]]),
        [1.0, 1j, 0.5],
        True,
    ),
    "complex-d2": (COMPLEX, lambda: ComplexHomogPoly(2, {(2, 1): 1.0, (0, 3): -1 + 0.5j}), [0.6, 0.8j], True),
    "complex-d2-none": (COMPLEX, lambda: ComplexHomogPoly(2, {(0, 0): 1.0}), [0.6, 0.8j], False),
    "complex-search": (COMPLEX, lambda: ComplexHomogPoly(3, {(1, 1, 1): 1.0}), [1.0, 1.0, 1.0], True),
    "complex-search-none": (COMPLEX, lambda: ComplexHomogPoly(3, {(0, 0, 0): 1.0}), [1.0, 1j, 0.0], False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_distance_and_zero_agree(name, monkeypatch):
    # fewer search seeds keep the SLSQP branches quick; the contract does not
    # depend on their number
    for module in (sphereopt, ballfinder, complexproj):
        monkeypatch.setattr(module, "_ZERO_SEARCH_SEEDS", 8)
    (distance_to_zero, metric, on_sphere), make_poly, p, has_zero = CASES[name]
    poly = make_poly()
    dist, zero = distance_to_zero(poly, p, seed=0)
    assert isinstance(dist, float)
    if not has_zero:
        assert dist == math.inf and zero is None
        return
    assert math.isfinite(dist) and zero.shape == (poly.dim,)
    assert abs(poly.eval(zero)) <= 1e-8
    if on_sphere:
        assert abs(np.linalg.norm(zero) - 1.0) <= 1e-12
    assert metric(p, zero) == pytest.approx(dist, abs=1e-9)
