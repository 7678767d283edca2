import itertools
import json
import math

import numpy as np
import pytest

from zerogap import polycore
from zerogap.cli import main
from zerogap.complexproj import ComplexHomogPoly
from zerogap.polycore import (
    AffineForm,
    CirclePlane,
    MultiPoly,
    _term_jet,
    product_of_affine_forms,
    restrict_to_circle,
)

from _oracles import circle_series_loop, fd_gradient, naive_poly_eval


class TestMultiPolyBasics:
    def test_eval_sum_of_squares(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert p.eval((3.0, 4.0)) == 25.0

    def test_eval_zero_factor(self):
        p = MultiPoly(2, {(1, 1): 1.0})
        assert p.eval((1.0, 0.0)) == 0.0

    def test_odd_polynomial_negation(self):
        # x^3 - 3x at -0.7; brute-force loop evaluation pins the value
        p = MultiPoly(1, {(3,): 1.0, (1,): -3.0})
        expected = naive_poly_eval([((3,), 1.0), ((1,), -3.0)], (-0.7,))
        assert expected == pytest.approx(1.757, abs=1e-12)
        assert p.eval((-0.7,)) == pytest.approx(expected, abs=1e-14)
        assert p.eval((0.7,)) == pytest.approx(-expected, abs=1e-14)

    def test_dimension_mismatch(self):
        p = MultiPoly(2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            p.eval((1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            p.gradient((1.0,))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {})
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, 0): 0.0})

    def test_terms_merge_and_degree(self):
        p = MultiPoly(2, {(2, 1): 2.0, (0, 0): -1.0})
        assert p.degree == 3
        assert len(p.terms) == 2

    def test_batch_eval_matches_scalar(self):
        rng = np.random.default_rng(3)
        p = MultiPoly(3, {(2, 1, 0): 1.5, (0, 0, 3): -0.5, (1, 1, 1): 2.0})
        X = rng.standard_normal((20, 3))
        batch = p.eval(X)
        for i in range(20):
            assert batch[i] == pytest.approx(p.eval(X[i]), rel=1e-14)

    def test_json_round_trip(self):
        p = MultiPoly(2, {(2, 0): 1.0, (1, 1): -0.25})
        q = MultiPoly.from_json(p.to_json())
        assert q.terms == p.terms and q.dim == p.dim


class TestGradient:
    def test_sum_of_squares(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert np.allclose(p.gradient((3.0, 4.0)), [6.0, 8.0])

    def test_linear_form_gradient_is_constant(self):
        a = np.array([0.3, -1.2, 0.5])
        p = MultiPoly(3, {(1, 0, 0): a[0], (0, 1, 0): a[1], (0, 0, 1): a[2]})
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert np.allclose(p.gradient(x), a)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        terms = {}
        for _ in range(10):
            e = tuple(int(v) for v in rng.integers(0, 3, size=d))
            if sum(e) <= 8:
                terms[e] = float(rng.standard_normal())
        terms[(1,) + (0,) * (d - 1)] = 1.0
        p = MultiPoly(d, terms)
        x = rng.uniform(-1, 1, size=d)
        g = p.gradient(x)
        g_fd = fd_gradient(p.eval, x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def random_dense_poly(rng, d, n_terms=10, max_exp=3):
    terms = {
        tuple(int(v) for v in rng.integers(0, max_exp + 1, size=d)): float(rng.standard_normal())
        for _ in range(n_terms)
    }
    terms[(1,) + (0,) * (d - 1)] = 1.0
    return MultiPoly(d, terms)


def loop_gradient(poly, X):
    """Reference: the expanded-terms gradient rebuilding its exponent table per variable."""
    E = np.array([e for e, _ in poly.terms], dtype=np.int64)
    C = np.array([c for _, c in poly.terms], dtype=float)
    G = np.empty((X.shape[0], poly.dim))
    for j in range(poly.dim):
        Ej = E.copy()
        expo = Ej[:, j].copy()
        Ej[:, j] = np.maximum(expo - 1, 0)
        mono = np.prod(X[:, None, :] ** Ej[None, :, :], axis=2)
        G[:, j] = mono @ (C * expo)
    return G


class TestTermTables:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
    def test_eval_bytes_match_pow_per_term(self, d):
        rng = np.random.default_rng(10 + d)
        p = random_dense_poly(rng, d, n_terms=15, max_exp=5)
        E = np.array([e for e, _ in p.terms], dtype=np.int64)
        C = np.array([c for _, c in p.terms], dtype=float)
        for rows in (1, 7, 64):
            X = rng.uniform(-1.5, 1.5, size=(rows, d))
            ref = np.prod(X[:, None, :] ** E[None, :, :], axis=2) @ C
            assert p.eval(X).tobytes() == ref.tobytes()
            assert p.eval(X[0]) == float((np.prod(X[:1, None, :] ** E[None, :, :], axis=2) @ C)[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
    def test_gradient_bytes_match_loop(self, d):
        rng = np.random.default_rng(20 + d)
        p = random_dense_poly(rng, d, n_terms=15)
        for rows in (1, 7, 64):
            X = rng.uniform(-1.5, 1.5, size=(rows, d))
            ref = loop_gradient(p, X)
            assert p.gradient(X).tobytes() == ref.tobytes()
            assert p.gradient(X[0]).tobytes() == loop_gradient(p, X[:1])[0].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_hessian_matches_central_differences_of_gradient(self, d):
        rng = np.random.default_rng(40 + d)
        p = random_dense_poly(rng, d)
        X = rng.uniform(-1, 1, size=(5, d))
        H = _term_jet(p, X, "h")[2]
        assert H.shape == (5, d, d)
        assert np.array_equal(H, np.swapaxes(H, 1, 2))
        h = 1e-5
        for i, x in enumerate(X):
            fd = np.column_stack([p.gradient(x + h * e) - p.gradient(x - h * e) for e in np.eye(d)]) / (2 * h)
            assert np.allclose(H[i], fd, rtol=1e-7, atol=1e-7 * max(1.0, np.abs(H[i]).max()))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_one_power_table_gives_each_part_alone(self, d):
        # P, grad P and Hess P from one power table are what each part
        # computes alone, for real and complex coefficients
        rng = np.random.default_rng(60 + d)
        real = random_dense_poly(rng, d, n_terms=15)
        cubic = [e for e in np.ndindex(*(4,) * d) if sum(e) == 3]
        cplx = ComplexHomogPoly(d, {e: complex(*rng.standard_normal(2)) for e in cubic})
        X = rng.uniform(-1.5, 1.5, size=(9, d))
        Z = X + 1j * rng.uniform(-1.5, 1.5, size=(9, d))
        for poly, rows in ((real, X), (cplx, Z)):
            v, G, H = _term_jet(poly, rows, "vgh")
            assert v.tobytes() == _term_jet(poly, rows, "v")[0].tobytes() == poly.eval(rows).tobytes()
            assert G.tobytes() == _term_jet(poly, rows, "g")[1].tobytes()
            assert H.tobytes() == _term_jet(poly, rows, "h")[2].tobytes()
            assert _term_jet(poly, rows, "vg")[2] is None and _term_jet(poly, rows, "g")[0] is None
        assert _term_jet(real, X, "g")[1].tobytes() == loop_gradient(real, X).tobytes()

    def test_hessian_of_quadric_is_constant(self):
        a = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.4], [-0.2, 0.4, 0.7]])
        terms = {}
        for i in range(3):
            for j in range(i, 3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = a[i, j] if i == j else 2 * a[i, j]
        H = _term_jet(MultiPoly(3, terms), np.random.default_rng(0).standard_normal((4, 3)), "h")[2]
        assert np.allclose(H, 2 * a, rtol=0, atol=1e-15)

    def test_factored_product_hessian_uses_expansion(self):
        forms = [
            AffineForm([1.0, 2.0, -1.0], 0.3),
            AffineForm([0.5, -1.0, 1.0], -0.2),
            AffineForm([0.0, 1.0, 1.0], 0.1),
        ]
        lazy = product_of_affine_forms(forms)
        expanded = MultiPoly(3, dict(lazy.terms))
        X = np.random.default_rng(1).standard_normal((6, 3))
        assert _term_jet(lazy, X, "h")[2].tobytes() == _term_jet(expanded, X, "h")[2].tobytes()


class TestWholeExponents:
    """``_whole`` reads an exponent as a plain int: ints as they are, whole
    floats and numpy integers converted, anything else refused by name."""

    def test_plain_int_is_returned_as_it_is(self):
        big = 10**30
        assert polycore._whole(big, "e") is big

    @pytest.mark.parametrize("value", [2.0, np.int64(2), np.int32(2), np.uint8(2), np.float64(2.0)])
    def test_whole_numbers_read_as_int(self, value):
        out = polycore._whole(value, "e")
        assert out == 2 and type(out) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.5, "2", None, math.inf, math.nan, 2 + 0j])
    def test_other_values_are_refused_by_name(self, value):
        with pytest.raises(ValueError) as err:
            polycore._whole(value, "e")
        assert str(err.value) == f'"e" must be an integer, got {value!r}'
        with pytest.raises(ValueError, match="must be an integer"):
            MultiPoly(2, {(1, value): 1.0})


class TestAffineProducts:
    def test_two_axis_forms(self):
        p = product_of_affine_forms([AffineForm([1, 0], 0.0), AffineForm([0, 1], 0.0)])
        assert p.terms == (((1, 1), 1.0),)
        assert p.degree == 2

    def test_single_form(self):
        p = product_of_affine_forms([AffineForm([1, 0], 0.5)])
        assert dict(p.terms) == {(0, 0): -0.5, (1, 0): 1.0}

    def test_random_forms_match_per_factor_product(self):
        rng = np.random.default_rng(11)
        forms = [AffineForm(rng.standard_normal(3), rng.uniform(-1, 1)) for _ in range(3)]
        p = product_of_affine_forms(forms)
        for _ in range(100):
            x = rng.standard_normal(3)
            expected = np.prod([f.eval(x) for f in forms])
            assert p.eval(x) == pytest.approx(expected, rel=1e-10)

    def test_degree_equals_form_count(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 5, 9):
            forms = [AffineForm(rng.standard_normal(2), 0.1) for _ in range(m)]
            assert product_of_affine_forms(forms).degree == m

    def test_empty_and_mixed_dimension(self):
        with pytest.raises(ValueError):
            product_of_affine_forms([])
        with pytest.raises(ValueError):
            product_of_affine_forms([AffineForm([1, 0], 0.0), AffineForm([1, 0, 0], 0.0)])

    def test_factored_eval_and_gradient_match_expansion(self):
        rng = np.random.default_rng(7)
        forms = [AffineForm(rng.standard_normal(3), rng.uniform(-0.5, 0.5)) for _ in range(5)]
        lazy = MultiPoly.from_affine_product(forms)
        expanded = MultiPoly(3, dict(lazy.terms))
        for _ in range(20):
            x = rng.standard_normal(3)
            assert lazy.eval(x) == pytest.approx(expanded.eval(x), rel=1e-10)
            assert np.allclose(lazy.gradient(x), expanded.gradient(x), rtol=1e-8, atol=1e-10)

    def test_gradient_exact_on_zero_set(self):
        # prefix/suffix products must not blow up where one factor vanishes
        forms = [AffineForm([1, 0], 0.5), AffineForm([0, 1], -0.25)]
        p = MultiPoly.from_affine_product(forms)
        x = np.array([0.5, 0.3])  # first factor vanishes
        g = fd_gradient(p.eval, x)
        assert np.allclose(p.gradient(x), g, atol=1e-8)


class TestAffineForm:
    def test_normalizes(self):
        f = AffineForm([3.0, 4.0], 1.0)
        assert np.linalg.norm(f.normal) == pytest.approx(1.0, abs=1e-12)
        assert f.eval((0.6, 0.8)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            AffineForm([0.0, 0.0], 1.0)

    def test_json_round_trip(self):
        f = AffineForm([1.0, 2.0, 2.0], -0.5)
        g = AffineForm.from_json(f.to_json())
        assert np.allclose(f.normal, g.normal) and f.offset == g.offset


class TestCirclePlane:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            CirclePlane([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            CirclePlane([2.0, 0.0], [0.0, 1.0])

    def test_point_parametrization(self):
        # u and v are renormalised and read-only; the circle is u cos t + v sin t
        c = CirclePlane([1 + 1e-8, 0, 0], [0, 0, 1])
        assert c.dim == 3 and np.linalg.norm(c.u) == 1.0
        with pytest.raises(ValueError):
            c.u[0] = 0.0
        x = c.u * math.cos(math.pi / 6) + c.v * math.sin(math.pi / 6)
        assert np.allclose(x, [math.sqrt(3) / 2, 0.0, 0.5], atol=1e-15)


class TestRestriction:
    def test_coordinate_restricts_to_cosine(self):
        plane = CirclePlane([1, 0], [0, 1])
        t = restrict_to_circle(MultiPoly(2, {(1, 0): 1.0}), plane)
        assert t.a0 == 0.0
        assert t.coeffs.tolist() == [[1.0, 0.0]]

    def test_product_to_sum_identity(self):
        plane = CirclePlane([1, 0], [0, 1])
        t = restrict_to_circle(MultiPoly(2, {(1, 1): 1.0}), plane)
        # x1 x2 on the unit circle is sin(2 theta)/2
        assert t.a0 == pytest.approx(0.0, abs=1e-15)
        assert t.coeffs[-1][0] == pytest.approx(0.0, abs=1e-15)
        assert t.coeffs[-1][1] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_restriction_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        terms = {}
        for _ in range(12):
            e = tuple(int(v) for v in rng.integers(0, 3, size=3))
            if sum(e) <= 4:
                terms[e] = float(rng.standard_normal())
        terms[(0, 0, 1)] = 1.0
        p = MultiPoly(3, terms)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        plane = CirclePlane(u, v)
        t = restrict_to_circle(p, plane)
        assert t.degree <= p.degree
        thetas = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        for theta in thetas:
            x = plane.u * math.cos(theta) + plane.v * math.sin(theta)
            assert abs(t.eval(theta) - p.eval(x)) < 1e-10

    def test_tilted_great_circle(self):
        p = MultiPoly(3, {(2, 0, 0): 1.0, (0, 0, 1): -1.0})
        plane = CirclePlane([0.6, 0, 0.8], [0, 1, 0])
        t = restrict_to_circle(p, plane)
        for theta in np.linspace(0, 2 * math.pi, 64):
            x = plane.u * math.cos(theta) + plane.v * math.sin(theta)
            assert t.eval(theta) == pytest.approx(p.eval(x), abs=1e-12)

    def test_dimension_mismatch(self):
        plane = CirclePlane([1, 0], [0, 1])
        with pytest.raises(ValueError):
            restrict_to_circle(MultiPoly(3, {(1, 0, 0): 1.0}), plane)

    @pytest.mark.parametrize(
        "d, degrees", [(2, (0, 1, 2, 7, 20, 40)), (3, (1, 5, 16)), (4, (2, 9)), (5, (3, 7))]
    )
    def test_prefix_groups_match_the_per_term_loop(self, d, degrees):
        # dense random P, and a sparse half of its terms, on random orthonormal
        # planes: the matrix product sums in another order than the per-term
        # loop, so the series agree to a few roundings of sum |c|
        rng = np.random.default_rng(100 * d)
        for n in degrees:
            exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) <= n]
            dense = MultiPoly(d, dict(zip(exps, rng.standard_normal(len(exps)))))
            sparse = MultiPoly(d, dict(t for t in dense.terms if rng.random() < 0.5) or dense.terms[:1])
            q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
            plane = CirclePlane(q[:, 0], q[:, 1])
            for p in (dense, sparse):
                got, loop = polycore._circle_series(p, plane), circle_series_loop(p, plane)
                assert got.shape == loop.shape
                size = sum(abs(c) for _, c in p.terms)
                assert np.max(np.abs(got - loop)) <= 4.0 * np.finfo(float).eps * size

    def test_sum_of_squares_is_exactly_one(self):
        t = restrict_to_circle(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), CirclePlane([1, 0], [0, 1]))
        assert t.degree == 0 and t.a0 == 1.0

    def test_unit_circle_equation_vanishes_identically(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        terms = [{"e": [2, 0], "c": 1.0}, {"e": [0, 2], "c": 1.0}, {"e": [0, 0], "c": -1.0}]
        inp.write_text(json.dumps({"dim": 2, "terms": terms}))
        assert main(["sphere-max", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 3
        assert "vanishes identically" in capsys.readouterr().err

    def test_factored_product_keeps_its_bytes(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 5):
            forms = [AffineForm(rng.standard_normal(d), 0.3 * rng.standard_normal()) for _ in range(9)]
            lazy = MultiPoly.from_affine_product(forms)
            q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
            plane = CirclePlane(q[:, 0], q[:, 1])
            assert polycore._circle_series(lazy, plane).tobytes() == circle_series_loop(lazy, plane).tobytes()
            assert lazy._terms is None  # restriction never expands a factored product

    def test_factored_restriction_matches_expanded(self):
        rng = np.random.default_rng(21)
        forms = [AffineForm(rng.standard_normal(3), 0.2 * rng.standard_normal()) for _ in range(6)]
        lazy = MultiPoly.from_affine_product(forms)
        expanded = MultiPoly(3, dict(lazy.terms))
        u = np.array([1.0, 0, 0])
        v = np.array([0, 1.0, 0])
        plane = CirclePlane(u, v)
        t1 = restrict_to_circle(lazy, plane)
        t2 = restrict_to_circle(expanded, plane)
        for theta in np.linspace(0, 2 * math.pi, 97):
            x = u * math.cos(theta) + v * math.sin(theta)
            assert t1.eval(theta) == pytest.approx(lazy.eval(x), abs=1e-12)
            assert t2.eval(theta) == pytest.approx(t1.eval(theta), abs=1e-12)
