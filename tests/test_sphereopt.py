import math
import time

import numpy as np
import pytest

from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import (
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    slice_distance,
    sphere_starts,
    verify_sphere_gap,
)

from _oracles import slice_min_angle_bruteforce


def random_form_product(rng, d, m, max_offset=0.9):
    forms = []
    for _ in range(m):
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(d)
        forms.append(AffineForm(a, rng.uniform(-max_offset, max_offset)))
    return product_of_affine_forms(forms), forms


class TestMaximize:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coordinate_function(self, d):
        p = MultiPoly(d, {(1,) + (0,) * (d - 1): 1.0})
        res = maximize_abs_on_sphere(p, seed=1)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert abs(res.point[0]) == pytest.approx(1.0, abs=1e-9)

    def test_product_two_coordinates_d2(self):
        res = maximize_abs_on_sphere(MultiPoly(2, {(1, 1): 1.0}))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in res.all_near_max)
        expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        assert np.allclose(angles, expected, atol=1e-9)

    def test_product_three_coordinates_d3(self):
        res = maximize_abs_on_sphere(MultiPoly(3, {(1, 1, 1): 1.0}), seed=0)
        assert res.value == pytest.approx(3.0 ** -1.5, rel=1e-10)
        assert np.allclose(np.abs(res.point), 1 / math.sqrt(3), atol=1e-8)

    def test_certified_d2_matches_grid(self):
        rng = np.random.default_rng(4)
        terms = {
            (2, 0): rng.standard_normal(),
            (1, 1): rng.standard_normal(),
            (0, 2): rng.standard_normal(),
            (1, 0): rng.standard_normal(),
            (0, 0): 0.1,
        }
        p = MultiPoly(2, terms)
        res = maximize_abs_on_sphere(p)
        thetas = np.linspace(0, 2 * math.pi, 400_001)
        grid_max = np.max(np.abs(p.eval(np.column_stack([np.cos(thetas), np.sin(thetas)]))))
        assert res.value == pytest.approx(grid_max, rel=1e-9)

    def test_vanishing_on_sphere_rejected(self):
        p = MultiPoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
        with pytest.raises(ValueError):
            maximize_abs_on_sphere(p)

    def test_deterministic_given_seed(self):
        p = MultiPoly(3, {(2, 1, 0): 1.0, (0, 1, 2): -0.5, (1, 0, 0): 0.25})
        r1 = maximize_abs_on_sphere(p, starts=32, seed=7)
        r2 = maximize_abs_on_sphere(p, starts=32, seed=7)
        assert r1.value == r2.value
        assert np.array_equal(r1.point, r2.point)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            maximize_abs_on_sphere(MultiPoly(1, {(1,): 1.0}))


class TestSliceDistance:
    def test_pole_to_equator(self):
        assert slice_distance(AffineForm([1, 0, 0], 0.0), [1, 0, 0]) == pytest.approx(math.pi / 2)

    def test_point_on_slice(self):
        p = np.array([0.5, math.sqrt(0.75), 0.0])
        assert slice_distance(AffineForm([1, 0, 0], 0.5), p) == pytest.approx(0.0, abs=1e-12)

    def test_missing_slice_sentinel(self):
        assert slice_distance(AffineForm([1, 0], 1.5), [0, 1]) == math.inf

    def test_tangent_slice_is_a_point(self):
        # |b| = 1: the slice is the single point b*a, not empty
        assert slice_distance(AffineForm([0, 1], 1.0), [1, 0]) == pytest.approx(math.pi / 2)
        t = 0.3
        p2 = [math.cos(t), math.sin(t)]
        assert slice_distance(AffineForm([0, 1], 1.0), p2) == pytest.approx(math.pi / 2 - t)
        assert slice_distance(AffineForm([1, 0, 0], 1.0), [0, 1, 0]) == pytest.approx(math.pi / 2)
        assert slice_distance(AffineForm([0, 0, 1], -1.0), [0, 0, 1]) == pytest.approx(math.pi)
        poly = product_of_affine_forms([AffineForm([1, 0, 0], 1.0)])
        assert angular_distance_to_zero_set(poly, [0, 1, 0]) == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bruteforce_parametrization(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3)
        b = rng.uniform(-0.8, 0.8)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        form = AffineForm(a, b)
        ref = slice_min_angle_bruteforce(form.normal, b, p, samples=400_000, seed=seed)
        assert slice_distance(form, p) == pytest.approx(ref, abs=1e-8)

    def test_zero_distance_iff_on_slice(self):
        rng = np.random.default_rng(10)
        form = AffineForm(rng.standard_normal(3), 0.3)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        d = slice_distance(form, p)
        on_slice = abs(form.normal @ p - 0.3) < 1e-9
        assert (d < 1e-9) == on_slice


class TestAngularDistance:
    def test_d2_product_at_diagonal(self):
        p = MultiPoly(2, {(1, 1): 1.0})
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        assert angular_distance_to_zero_set(p, x) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_tagged_product_d3(self):
        poly = product_of_affine_forms(
            [AffineForm([1, 0, 0], 0), AffineForm([0, 1, 0], 0), AffineForm([0, 0, 1], 0)]
        )
        x = np.ones(3) / math.sqrt(3)
        assert angular_distance_to_zero_set(poly, x) == pytest.approx(
            math.asin(1 / math.sqrt(3)), abs=1e-12
        )

    def test_no_real_zeros_sentinel(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert angular_distance_to_zero_set(p, np.array([1.0, 0.0])) == math.inf

    def test_untagged_d3_matches_closed_form(self):
        p = MultiPoly(3, {(1, 1, 1): 1.0})
        x = np.ones(3) / math.sqrt(3)
        d = angular_distance_to_zero_set(p, x, budget=24, seed=0)
        assert d == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-7)

    def test_budget_monotonicity(self):
        p = MultiPoly(3, {(2, 1, 0): 1.0, (0, 0, 2): -0.3})
        x = np.array([0.2, 0.5, 0.8])
        x /= np.linalg.norm(x)
        dists = [angular_distance_to_zero_set(p, x, budget=b, seed=3) for b in (8, 16, 48)]
        assert dists[0] >= dists[1] - 1e-12
        assert dists[1] >= dists[2] - 1e-12


class TestVerifySphereGap:
    def test_equality_instance_pure_harmonic(self):
        n = 4
        forms = [
            AffineForm([math.cos(j * math.pi / n), math.sin(j * math.pi / n)], 0.0)
            for j in range(n)
        ]
        rep = verify_sphere_gap(product_of_affine_forms(forms))
        assert rep.passed
        assert rep.distance == pytest.approx(math.pi / (2 * n), abs=1e-9)
        assert rep.equality_circle is not None
        assert rep.interlacing is True

    def test_triple_product_d3(self):
        poly = product_of_affine_forms(
            [AffineForm([1, 0, 0], 0), AffineForm([0, 1, 0], 0), AffineForm([0, 0, 1], 0)]
        )
        rep = verify_sphere_gap(poly, seed=0)
        assert rep.passed
        assert rep.distance == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-8)
        assert rep.distance >= math.pi / 6 - 1e-6

    def test_empty_zero_set_passes(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        rep = verify_sphere_gap(p)
        assert rep.passed
        assert rep.distance == math.inf

    @pytest.mark.parametrize("seed", range(10))
    def test_random_products_meet_bound(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = 2 if seed % 2 == 0 else 3
        m = int(rng.integers(1, 7))
        poly, _ = random_form_product(rng, d, m)
        rep = verify_sphere_gap(poly, seed=seed, starts=96)
        assert rep.passed, f"d={d} m={m}: distance {rep.distance} < {rep.bound}"
        assert rep.distance >= math.pi / (2 * m) - 1e-6

    def test_report_independent_of_expansion(self):
        # reading the expanded terms must not change how the product is restricted
        rng = np.random.default_rng(4)
        forms = [AffineForm(rng.standard_normal(2), rng.uniform(-0.5, 0.5)) for _ in range(9)]
        poly = MultiPoly.from_affine_product(forms)
        before = verify_sphere_gap(poly).to_json()
        poly.to_json()
        assert verify_sphere_gap(poly).to_json() == before
        assert verify_sphere_gap(product_of_affine_forms(forms)).to_json() == before

    def test_report_json_shape(self):
        rep = verify_sphere_gap(MultiPoly(2, {(1, 1): 1.0}))
        obj = rep.to_json()
        assert set(obj) == {"degree", "maximizer", "value", "distance", "bound", "passed", "equality"}
        assert obj["equality"] is not None and obj["equality"]["interlacing"] is True


class TestStarts:
    def test_starts_are_unit_and_deterministic(self):
        a = sphere_starts(4, 33, 5)
        b = sphere_starts(4, 33, 5)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_prefix_property(self):
        small = sphere_starts(3, 8, 1)
        big = sphere_starts(3, 16, 1)
        assert np.array_equal(small, big[:8])
