"""The (distance, zero) contract shared by the three zero-distance functions, and
the shared search against serial SLSQP references."""

import itertools
import math

import numpy as np
import pytest

from zerogap import complexproj, sphereopt
from zerogap.ballfinder import euclidean_zero_distance
from zerogap.complexproj import ComplexHomogPoly, complex_zero_distance, hermitian_angle
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import angular_distance_to_zero_set, sphere_starts, unit_vector

from _oracles import slsqp_ball_zero_distance, slsqp_complex_zero_distance


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
    # fewer search seeds keep the searches quick; the contract does not
    # depend on their number
    monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", 8)
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


def dense_poly(rng, d, n):
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) <= n]
    return MultiPoly(d, {e: rng.standard_normal() for e in exps})


def dense_form(rng, d, n):
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) == n]
    return ComplexHomogPoly(d, {e: complex(*rng.standard_normal(2)) for e in exps})


def ball_point(rng, d):
    x = rng.standard_normal(d)
    return x * rng.uniform() ** (1.0 / d) / np.linalg.norm(x)


class TestNoWorseThanSlsqpReference:
    # an SLSQP solve ends up to |P| / |grad P| off Z(P) (on the sphere of C^d,
    # the gradient projected off z), so its distance is short by at most that

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 4), (3, 3)])
    def test_ball(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        for k in range(2):
            poly, p = dense_poly(rng, d, n), ball_point(rng, d)
            # shifted to vanish at a point of the ball of radius 2
            terms = dict(poly.terms)
            terms[(0,) * d] -= poly.eval(2.0 * ball_point(rng, d))
            poly = MultiPoly(d, terms)
            ref, ref_zero = slsqp_ball_zero_distance(poly, p, seed=k)
            dist, zero = euclidean_zero_distance(poly, p, seed=k)
            assert math.isfinite(ref) and math.isfinite(dist)
            slack = abs(poly.eval(ref_zero)) / np.linalg.norm(poly.gradient(ref_zero))
            assert dist <= ref + slack + 1e-12
            assert np.linalg.norm(zero) <= 2.0 and np.linalg.norm(zero - p) == dist

    @pytest.mark.parametrize("d, n", [(3, 2), (3, 4), (4, 3)])
    def test_complex(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        for k in range(2):
            poly = dense_form(rng, d, n)
            x = complexproj._maximize_items(((poly, 1.0),), 32, k)[0]
            p = complexproj._canonical_phase(complexproj.to_complex(x))
            ref, ref_zero = slsqp_complex_zero_distance(poly, p, seed=k)
            dist, zero = complex_zero_distance(poly, p, seed=k)
            assert math.isfinite(ref) and math.isfinite(dist)
            g = np.conj(poly.holomorphic_gradient(ref_zero))
            slack = abs(poly.eval(ref_zero)) / np.linalg.norm(g - np.vdot(ref_zero, g) * ref_zero)
            assert dist <= ref + slack + 1e-12
            scale = np.max(np.abs(poly.eval(complexproj.to_complex(sphere_starts(2 * d, 256, k + 3)))))
            assert abs(poly.eval(zero)) <= 1e-12 * scale
            assert hermitian_angle(p, zero) == pytest.approx(dist, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_ball_expanded_products_match_tagged_below_distance_one(d):
    # both measure the distance to Z(P) in R^d; the expanded search sees the
    # zeros within distance 1 of the ball, and every bound is at most 1
    rng = np.random.default_rng(d)
    for m in (1, 2, 3):
        for _ in range(3):
            forms = [AffineForm(rng.standard_normal(d), rng.uniform(-1.5, 1.5)) for _ in range(m)]
            tagged = product_of_affine_forms(forms)
            expanded = MultiPoly(d, dict(tagged.terms))
            p = ball_point(rng, d)
            exact, _ = euclidean_zero_distance(tagged, p)
            dist, _ = euclidean_zero_distance(expanded, p, seed=m)
            assert dist >= exact - 1e-12
            if exact < 1.0:
                assert dist == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize(
    "poly, p, expected",
    [
        (MultiPoly(2, {(1, 0): 1.0, (0, 0): -0.9}), [0.0, 0.99], 0.9),
        (MultiPoly(2, {(1, 0): 1.0, (0, 0): -1.2}), [0.5, 0.0], 0.7),
        (MultiPoly(1, {(2,): 1.0, (0,): -1.44}), [0.5], 0.7),
    ],
    ids=["plane-inside", "plane-outside", "1d-root-outside"],
)
def test_ball_zeros_outside_the_unit_ball_count(poly, p, expected):
    assert euclidean_zero_distance(poly, p)[0] == pytest.approx(expected, abs=1e-12)
