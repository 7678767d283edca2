import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerogap import complexproj, sphereopt
from zerogap.complexproj import (
    ComplexHomogPoly,
    WeightedSystem,
    chart_radius_check,
    complex_zero_distance,
    hermitian_angle,
    maximize_weighted_log,
    to_complex,
    verify_complex_gap,
    verify_weighted_gap,
)
from zerogap.errors import VerificationError


def mono(dim, exps, c=1.0):
    return ComplexHomogPoly(dim, {tuple(exps): c})


def loop_eval(poly, Z):
    """Reference: the per-term loop, one pow per coordinate and term."""
    vals = np.zeros(Z.shape[0], dtype=complex)
    for e, c in poly.terms:
        m = np.full(Z.shape[0], c)
        for j, ej in enumerate(e):
            if ej:
                m = m * Z[:, j] ** ej
        vals = vals + m
    return vals


def loop_holomorphic_gradient(poly, Z):
    """Reference: the per-term, per-variable loop of the product rule."""
    G = np.zeros((Z.shape[0], poly.dim), dtype=complex)
    for e, c in poly.terms:
        for j, ej in enumerate(e):
            if ej == 0:
                continue
            m = np.full(Z.shape[0], c * ej)
            for i, ei in enumerate(e):
                p = ei - 1 if i == j else ei
                if p:
                    m = m * Z[:, i] ** p
            G[:, j] += m
    return G


def dense_form(rng, d, n):
    """Every monomial of degree n in d variables, with complex normal coefficients."""
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) == n]
    return ComplexHomogPoly(d, {e: complex(*rng.standard_normal(2)) for e in exps})


def complex_points(rng, rows, d):
    return rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))


def term_magnitudes(poly, Z):
    """sum |c| |z^e| per row and its analogue per partial: the scale of rounding errors."""
    absolute = ComplexHomogPoly(poly.dim, {e: abs(c) for e, c in poly.terms})
    A = np.abs(Z)
    return loop_eval(absolute, A).real, loop_holomorphic_gradient(absolute, A).real


def assert_matches_loops(poly, Z, rel=1e-13):
    mag, gmag = term_magnitudes(poly, Z)
    assert np.all(np.abs(poly.eval(Z) - loop_eval(poly, Z)) <= rel * mag)
    assert np.all(np.abs(poly.holomorphic_gradient(Z) - loop_holomorphic_gradient(poly, Z)) <= rel * gmag)


class TestEval:
    def test_product_at_mixed_point(self):
        p = mono(2, (1, 1))
        assert p.eval(np.array([1.0, 1j])) == pytest.approx(1j, abs=1e-15)

    def test_square_phase(self):
        p = mono(2, (2, 0))
        phi = math.pi / 3
        z = np.array([np.exp(1j * phi), 0.0])
        assert p.eval(z) == pytest.approx(np.exp(2j * phi), abs=1e-14)

    def test_homogeneity_scaling(self):
        rng = np.random.default_rng(0)
        p = ComplexHomogPoly(2, {(3, 0): 1 + 2j, (2, 1): -0.5j, (0, 3): 2.0})
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = 0.7 + 0.2j
        lhs = p.eval(lam * z)
        rhs = lam**3 * p.eval(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            ComplexHomogPoly(2, {(1, 0): 1.0, (2, 0): 1.0})

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ComplexHomogPoly(2, {})

    def test_holomorphic_gradient_finite_difference(self):
        p = ComplexHomogPoly(2, {(2, 1): 1.5, (0, 3): -2j})
        rng = np.random.default_rng(1)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = p.holomorphic_gradient(z)
        h = 1e-7
        for j in range(2):
            e = np.zeros(2, dtype=complex)
            e[j] = h
            fd = (p.eval(z + e) - p.eval(z - e)) / (2 * h)
            assert abs(g[j] - fd) < 1e-6 * max(1.0, abs(g[j]))

    def test_json_round_trip(self):
        p = ComplexHomogPoly(2, {(2, 1): 1 - 1j, (0, 3): 2.0})
        q = ComplexHomogPoly.from_json(p.to_json())
        assert q.terms == p.terms

    def test_json_degree_mismatch(self):
        with pytest.raises(ValueError):
            ComplexHomogPoly.from_json({"dim": 2, "deg": 4, "terms": [{"e": [1, 1], "re": 1.0, "im": 0.0}]})


class TestTermKernels:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_dense_forms_match_term_loops(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        poly = dense_form(rng, d, n)
        for rows in (1, 9):
            assert_matches_loops(poly, complex_points(rng, rows, d))

    def test_sparse_form_and_single_point(self):
        poly = ComplexHomogPoly(3, {(4, 0, 1): 1 - 2j, (0, 5, 0): 0.5j, (1, 1, 3): -1.5})
        z = complex_points(np.random.default_rng(0), 1, 3)
        assert_matches_loops(poly, z)
        assert poly.eval(z[0]) == poly.eval(z)[0]
        assert np.array_equal(poly.holomorphic_gradient(z[0]), poly.holomorphic_gradient(z)[0])

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 3), (4, 5)])
    def test_hessian_matches_central_differences_of_gradient(self, d, n):
        # P is holomorphic, so a difference along a real direction is the
        # complex derivative
        rng = np.random.default_rng(10 * d + n)
        poly = dense_form(rng, d, n)
        Z = complex_points(rng, 4, d)
        H = poly._hessian(Z)
        assert H.shape == (4, d, d) and H.dtype == complex
        assert np.array_equal(H, np.swapaxes(H, 1, 2))
        h = 1e-5
        for i, z in enumerate(Z):
            fd = np.column_stack(
                [poly.holomorphic_gradient(z + h * e) - poly.holomorphic_gradient(z - h * e) for e in np.eye(d)]
            ) / (2 * h)
            assert np.allclose(H[i], fd, rtol=1e-7, atol=1e-7 * max(1.0, np.abs(H[i]).max()))
            assert np.array_equal(poly._hessian(z), poly._hessian(Z[i : i + 1])[0])

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(d=st.integers(2, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8))
    def test_random_forms_match_term_loops(self, d, n, seed, rows):
        rng = np.random.default_rng(seed)
        assert_matches_loops(dense_form(rng, d, n), complex_points(rng, rows, d))


class TestLinearProducts:
    @pytest.mark.parametrize("d,m", [(2, 1), (2, 5), (3, 3), (4, 6)])
    def test_expansion_matches_the_product_at_random_points(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        rows = complex_points(rng, m, d)
        poly = ComplexHomogPoly.from_linear_product(rows)
        Z = complex_points(rng, 12, d)
        L = Z @ rows.T
        others = np.stack([np.prod(np.delete(L, k, axis=1), axis=1) for k in range(m)], axis=1)
        mag, gmag = term_magnitudes(poly, Z)
        assert np.all(np.abs(poly.eval(Z) - np.prod(L, axis=1)) <= 1e-13 * mag)
        assert np.all(np.abs(poly.holomorphic_gradient(Z) - others @ rows) <= 1e-13 * gmag)

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 4), (4, 2)])
    def test_expansion_on_a_factor_zero_set(self, d, m):
        rng = np.random.default_rng(50 + 10 * d + m)
        rows = complex_points(rng, m, d)
        poly = ComplexHomogPoly.from_linear_product(rows)
        for k in range(m):
            c = rows[k]
            Z = complex_points(rng, 5, d)
            Z = Z - np.outer(Z @ c, np.conj(c)) / np.vdot(c, c).real  # sum_j c_j z_j = 0
            others = np.prod(np.delete(Z @ rows.T, k, axis=1), axis=1)
            mag, gmag = term_magnitudes(poly, Z)
            assert np.all(np.abs(poly.eval(Z)) <= 1e-13 * mag)
            # on L_k = 0 only the term without L_k survives the product rule
            assert np.all(np.abs(poly.holomorphic_gradient(Z) - others[:, None] * c) <= 1e-13 * gmag)

    def test_expanded_terms(self):
        poly = ComplexHomogPoly.from_linear_product([[1.0, 1j], [1.0, -1j]])  # z1^2 + z2^2
        assert dict(poly.terms) == {(0, 2): 1.0 + 0j, (2, 0): 1.0 + 0j}
        assert repr(poly) == "ComplexHomogPoly(dim=2, degree=2, nterms=2)"

    def test_factors_are_copied(self):
        # complex_zero_distance measures against linear_factors, so they must
        # stay the factors of the terms
        rows = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
        poly = ComplexHomogPoly.from_linear_product(rows)
        rows[0, 0] = 5.0
        assert np.array_equal(poly.linear_factors, [[1.0, 2.0], [0.5, -1.0]])

    def test_linear_factors_leave_the_constructor(self):
        with pytest.raises(TypeError):
            ComplexHomogPoly(2, {(1, 0): 1.0}, linear_factors=np.array([[0.0, 1.0]]))
        assert mono(2, (1, 0)).linear_factors is None


class TestConstructorErrors:
    @pytest.mark.parametrize(
        "dim,terms,match",
        [
            (0, {(): 1.0}, "dimension must be positive"),
            (2, {(1, 0, 0): 1.0}, r"exponent vector \(1, 0, 0\) does not match dim 2"),
            (2, {(3, -1): 1.0}, r"negative exponent in \(3, -1\)"),
            (2, {(1, 0): 1.0, (2, 0): 1.0}, r"not homogeneous: term degrees \[1, 2\]"),
            (2, {}, "identically-zero polynomial"),
            (2, {(1, 0): 0.0, (0, 1): 0j}, "identically-zero polynomial"),
        ],
    )
    def test_terms(self, dim, terms, match):
        with pytest.raises(ValueError, match=match):
            ComplexHomogPoly(dim, terms)

    @pytest.mark.parametrize(
        "rows,match",
        [
            ([[1.0, 0.0], [0.0, 0.0]], "zero linear factor"),
            (np.zeros((0, 2)), "nonempty matrix"),
            ([1.0, 2.0], "nonempty matrix"),
        ],
    )
    def test_linear_rows(self, rows, match):
        with pytest.raises(ValueError, match=match):
            ComplexHomogPoly.from_linear_product(rows)

    @pytest.mark.parametrize("point", [[1.0, 1j, 0.5], [1.0], [[1.0, 1j, 0.5]] * 3, [[1.0]] * 2])
    def test_point_dimension_checked_by_both_methods(self, point):
        poly = mono(2, (1, 1))
        for method in (poly.eval, poly.holomorphic_gradient):
            with pytest.raises(ValueError, match=r"point dimension \d != poly dim 2"):
                method(np.asarray(point, dtype=complex))


class TestWeightedMaximization:
    def test_single_coordinate(self):
        system = WeightedSystem([(mono(2, (1, 0)), 1.0)])
        x = maximize_weighted_log(system, seed=0)
        z = to_complex(x)
        assert abs(z[0]) == pytest.approx(1.0, abs=1e-9)

    def test_balanced_product(self):
        system = WeightedSystem([(mono(2, (1, 1)), 0.7)])
        x = maximize_weighted_log(system, seed=0)
        z = to_complex(x)
        assert abs(z[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert abs(mono(2, (1, 1)).eval(z)) == pytest.approx(0.5, abs=1e-10)

    def test_two_form_stationarity(self):
        d1, d2 = 0.5, 0.6
        system = WeightedSystem([(mono(2, (1, 0)), d1), (mono(2, (0, 1)), d2)])
        z = to_complex(maximize_weighted_log(system, seed=3))
        r2 = d1**2 / (d1**2 + d2**2)
        assert abs(z[0]) ** 2 == pytest.approx(r2, abs=1e-9)

    def test_weight_cap_enforced(self):
        with pytest.raises(ValueError):
            WeightedSystem([(mono(2, (1, 1)), 1.0)])  # 1^2 * 2 > 1
        with pytest.raises(ValueError):
            WeightedSystem([])
        with pytest.raises(ValueError):
            WeightedSystem([(mono(2, (1, 0)), -0.5)])


class TestZeroDistance:
    def test_coordinate_at_pole(self):
        assert complex_zero_distance(mono(2, (1, 0)), np.array([1.0, 0j]))[0] == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_product_at_diagonal(self):
        p = np.array([1.0, 1.0]) / math.sqrt(2)
        assert complex_zero_distance(mono(2, (1, 1)), p)[0] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_point_on_zero_set(self):
        assert complex_zero_distance(mono(2, (3, 0)), np.array([0.0, 1.0 + 0j]))[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unit_scalar_invariance(self):
        rng = np.random.default_rng(5)
        p = ComplexHomogPoly(2, {(2, 1): 1.0, (0, 3): -1 + 0.5j})
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        d0, _ = complex_zero_distance(p, z)
        for phi in (0.3, 1.7, 4.4):
            assert complex_zero_distance(p, np.exp(1j * phi) * z)[0] == pytest.approx(d0, abs=1e-12)

    def test_factored_matches_chart_roots(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pf = ComplexHomogPoly.from_linear_product(rows)
        expanded = ComplexHomogPoly(2, dict(pf.terms))
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            assert complex_zero_distance(pf, z)[0] == pytest.approx(
                complex_zero_distance(expanded, z)[0], abs=1e-10
            )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_factored_matches_search_in_c3(self, m):
        # the closed form for the factors and the search on the expanded
        # terms measure the same zero set
        rng = np.random.default_rng(20 + m)
        rows = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        pf = ComplexHomogPoly.from_linear_product(rows)
        expanded = ComplexHomogPoly(3, dict(pf.terms))
        for k in range(3):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z /= np.linalg.norm(z)
            assert complex_zero_distance(expanded, z, seed=k)[0] == pytest.approx(
                complex_zero_distance(pf, z)[0], abs=1e-12
            )

    def test_estimator_d3(self, monkeypatch):
        monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", 24)
        p = ComplexHomogPoly(3, {(1, 1, 1): 1.0})
        x = np.ones(3, dtype=complex) / math.sqrt(3)
        d, _ = complex_zero_distance(p, x, seed=0)
        assert d == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-7)

    def test_hermitian_angle_is_orbit_minimum(self):
        # arccos |<u,v>| equals the min real angle over the unit-scalar orbit
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            direct = hermitian_angle(u, v)
            phis = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
            dots = [abs(np.real(np.sum(np.exp(1j * phi) * u * np.conj(v)))) for phi in phis]
            orbit_min = math.acos(min(1.0, max(dots)))
            assert direct == pytest.approx(orbit_min, abs=1e-7)


class TestVerifyComplexGap:
    def test_balanced_product_equality(self):
        rep = verify_complex_gap(mono(2, (1, 1)), seed=0)
        assert rep.distances[0] == pytest.approx(math.asin(1 / math.sqrt(2)), abs=1e-8)
        assert rep.all_passed

    def test_linear_is_maximal(self):
        rep = verify_complex_gap(mono(2, (1, 0)), seed=0)
        assert rep.distances[0] == pytest.approx(math.pi / 2, abs=1e-8)
        assert rep.cp1_radius is None or rep.cp1_radius > 1e6  # tan near pi/2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_linear_products(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(1, 7))
        rows = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        poly = ComplexHomogPoly.from_linear_product(rows)
        rep = verify_complex_gap(poly, seed=seed)
        assert rep.all_passed
        assert rep.distances[0] >= math.asin(1 / math.sqrt(m)) - 1e-6

    def test_euclidean_restatement(self):
        rep = verify_complex_gap(mono(2, (1, 1)), seed=0)
        assert rep.euclidean_distances[0] == pytest.approx(math.sin(rep.distances[0]), abs=1e-12)


class TestChartRadius:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_extremal_monomial(self, n):
        poly = mono(2, (1, n - 1))
        a = chart_radius_check(poly, np.array([0.0, 1.0 + 0j]), seed=2)
        assert a == pytest.approx(1 / math.sqrt(n - 1), abs=1e-6)

    def test_balanced_square(self):
        a = chart_radius_check(mono(2, (2, 2)), np.array([0.0, 1.0 + 0j]), seed=0)
        assert a == pytest.approx(1.0, abs=1e-8)
        assert a * a >= 1.0 / 3 - 1e-8

    def test_maximizer_at_chart_infinity(self):
        # P = z1^n vanishes only at (0,1); its maximizer (1,0) sits a quarter
        # turn away, i.e. at infinite chart radius
        a = chart_radius_check(mono(2, (3, 0)), np.array([0.0, 1.0 + 0j]), seed=1)
        assert a > 1e6

    def test_requires_zero_point(self):
        with pytest.raises(ValueError):
            chart_radius_check(mono(2, (1, 1)), np.array([1.0, 1.0 + 0j]) / math.sqrt(2))

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            chart_radius_check(mono(2, (1, 0)), np.array([0.0, 1.0 + 0j]))


class TestVerifyWeightedGap:
    def test_single_full_weight(self):
        system = WeightedSystem([(mono(2, (1, 0)), 1.0)])
        rep = verify_weighted_gap(system, seed=0)
        assert rep.all_passed
        assert rep.distances[0] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_symmetric_pair_equality(self):
        d = 1 / math.sqrt(2)
        system = WeightedSystem([(mono(2, (1, 0)), d), (mono(2, (0, 1)), d)])
        rep = verify_weighted_gap(system, seed=1)
        assert rep.all_passed
        for dist in rep.distances:
            assert dist == pytest.approx(math.pi / 4, abs=1e-8)

    def test_asymmetric_pair(self):
        system = WeightedSystem([(mono(2, (1, 0)), 0.6), (mono(2, (0, 1)), 0.8)])
        rep = verify_weighted_gap(system, seed=0)
        assert rep.all_passed
        assert rep.distances[0] >= math.asin(0.6) - 1e-6
        assert rep.distances[1] >= math.asin(0.8) - 1e-6

    def test_weight_scaling_keeps_passing(self):
        base = [(mono(2, (1, 0)), 0.6), (mono(2, (0, 1)), 0.8)]
        for c in (1.0, 0.7, 0.3):
            system = WeightedSystem([(p, c * d) for p, d in base])
            rep = verify_weighted_gap(system, seed=2)
            assert rep.all_passed


def turned(x, u):
    """Real coordinates of the complex point of ``x`` times the unit scalar u."""
    z = u * to_complex(x)
    return np.concatenate([z.real, z.imag])


class TestCanonicalPhase:
    # multiplying by 1j, -1 or -1j is exact in floating point, so the turned
    # point is the same orbit point to the last bit
    EXACT_TURNS = (1j, -1.0, -1j)

    @staticmethod
    def reports(monkeypatch, verify, obj, x, turns):
        out = []
        for u in (1.0,) + tuple(turns):
            monkeypatch.setattr(complexproj, "_maximize_items", lambda *a, y=turned(x, u): [y])
            out.append(json.dumps(verify(obj, seed=0).to_json(), sort_keys=True))
        return out

    @pytest.mark.parametrize("d", [2, 3])
    def test_complex_report_independent_of_orbit_point(self, d, monkeypatch):
        rng = np.random.default_rng(40 + d)
        poly = ComplexHomogPoly.from_linear_product(rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)))
        x = complexproj._maximize_items(((poly, 1.0),), 64, 0)[0]
        base, *others = self.reports(monkeypatch, verify_complex_gap, poly, x, self.EXACT_TURNS)
        assert all(o == base for o in others)

    def test_weighted_report_independent_of_orbit_point(self, monkeypatch):
        rng = np.random.default_rng(7)
        system = WeightedSystem(
            [(ComplexHomogPoly.from_linear_product(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))), 0.5)
             for n in (1, 2)]
        )
        x = complexproj._maximize_items(system.items, 64, 0)[0]
        base, *others = self.reports(monkeypatch, verify_weighted_gap, system, x, self.EXACT_TURNS)
        assert all(o == base for o in others)

    def test_generic_turn_moves_maximizer_by_rounding_only(self, monkeypatch):
        poly = ComplexHomogPoly.from_linear_product([[1.0, 2.0 - 1j], [0.5j, 1.0], [1.0, -1.0]])
        x = complexproj._maximize_items(((poly, 1.0),), 64, 0)[0]
        reps = []
        for u in (1.0, np.exp(0.7j), np.exp(-2.9j)):
            monkeypatch.setattr(complexproj, "_maximize_items", lambda *a, y=turned(x, u): [y])
            reps.append(verify_complex_gap(poly, seed=0))
        for rep in reps:
            assert np.max(np.abs(rep.maximizer - reps[0].maximizer)) <= 1e-15
            assert rep.distances[0] == pytest.approx(reps[0].distances[0], abs=1e-15)

    def test_largest_coordinate_is_real_positive(self):
        z = complexproj._canonical_phase(np.array([0.3 - 0.1j, -0.6j, 0.6 + 0.0j, 0.2j]))
        # |z_1| = |z_2|: the lower index wins the tie
        assert z[1].real == pytest.approx(0.6, abs=1e-15) and abs(z[1].imag) <= 1e-16
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm([0.3 - 0.1j, 0.6, 0.6, 0.2]), abs=1e-15)
