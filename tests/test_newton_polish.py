"""The exact (f, G, H) objectives and the lockstep Newton polish of the sphere and the ball.

On the sphere the polish is checked against the per-point polish it
replaced (in ``_oracles``), whose Hessian differences the gradient, and the
short ascent that hands over to it against the 160-iteration ascent that ran
before; in the ball the short ascent with the polish is checked against the
200-iteration ascent with no polish that ran before (in ``_oracles``).  Both
on the acceptance families and on the ``search`` shapes of the benchmark,
whose outputs over five cycles must also pass the benchmark's own checks.
"""

import contextlib
import io
import itertools
import json
import os
import sys

import numpy as np
import pytest

from zerogap import ballfinder, chebmult, cli, complexproj, sphereopt
from zerogap.complexproj import ComplexHomogPoly
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import (
    _batch_ascent,
    _log_objective,
    _newton_polish,
    _normalize_rows,
    _sphere_newton,
    _sphere_tangent,
    sphere_starts,
)

import test_acceptance
from _oracles import ball_ascent_pool, polish_on_sphere

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import checks  # noqa: E402
import workloads  # noqa: E402


def factored(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    forms = [AffineForm(rng.standard_normal(d), rng.uniform(-0.9, 0.9)) for _ in range(int(rng.integers(2, 7)))]
    return product_of_affine_forms(forms)


def dense(d, n, seed):
    rng = np.random.default_rng(seed)
    return MultiPoly(d, {e: rng.standard_normal() for e in itertools.product(range(n + 1), repeat=d) if sum(e) <= n})


def linear_product(seed, m):
    rng = np.random.default_rng(seed)
    return ComplexHomogPoly.from_linear_product(rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))


def homogeneous(d, n, seed):
    rng = np.random.default_rng(seed)
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) == n]
    return ComplexHomogPoly(d, {e: complex(*rng.standard_normal(2)) for e in exps})


# (value, grad, dimension) of each objective family the sphere polish serves
OBJECTIVES = {
    **{
        f"factored-{d}-{s}": lambda d=d, s=s: (*_log_objective(((factored(d, s), 1.0),)), d)
        for d in (3, 4, 5, 6)
        for s in (0, 1)
    },
    **{
        f"expanded-{d}-{s}": lambda d=d, s=s: (*_log_objective(((MultiPoly(d, dict(factored(d, s).terms)), 1.0),)), d)
        for d in (3, 4, 5, 6)
        for s in (0, 1)
    },
    **{
        f"dense-{d}-{n}": lambda d=d, n=n: (*_log_objective(((dense(d, n, 10 * d + n), 1.0),)), d)
        for d, n in ((3, 3), (4, 4), (5, 3))
    },
    **{
        f"c2-{s}": lambda s=s: (*_log_objective([(linear_product(s, 3), 1.0)]), 4)
        for s in range(4)
    },
    **{
        f"weighted-{s}": lambda s=s: (
            *_log_objective([(linear_product(s, 1), 0.5), (linear_product(s + 10, 2), 0.5)]),
            4,
        )
        for s in range(4)
    },
    "c3": lambda: (*_log_objective([(homogeneous(3, 3, 5), 1.0)]), 6),
}


class TestObjectiveHessians:
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_hessian_matches_central_differences_of_gradient(self, name):
        value, grad, dim = OBJECTIVES[name]()
        X = sphere_starts(dim, 8, 2)
        G, H = grad(X, hessian=True)
        assert G.tobytes() == grad(X).tobytes()
        assert H.shape == (8, dim, dim)
        assert np.allclose(H, np.swapaxes(H, 1, 2), rtol=0, atol=1e-12 * np.abs(H).max())
        h = 1e-6
        fd = np.stack([(grad(X + h * e) - grad(X - h * e)) / (2 * h) for e in np.eye(dim)], axis=2)
        for Hi, fdi in zip(H, fd):
            assert np.allclose(Hi, fdi, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(Hi).max()))

    @pytest.mark.parametrize("name", ["expanded-4-0", "dense-4-4", "c2-1", "weighted-2", "c3"])
    def test_one_evaluation_of_p_per_gradient(self, name, monkeypatch):
        # grad takes P, its gradient and its Hessian from one power table and
        # calls none of the polynomial methods
        value, grad, dim = OBJECTIVES[name]()
        calls = []
        for cls in (MultiPoly, ComplexHomogPoly):
            for method in ("eval", "gradient", "holomorphic_gradient"):
                if hasattr(cls, method):
                    monkeypatch.setattr(cls, method, lambda *a, m=method: calls.append(m))
        X = sphere_starts(dim, 8, 1)
        grad(X)
        grad(X, hessian=True)
        assert calls == []


def production_rows(value, grad, dim, seed=3):
    """The rows near_max_on_sphere hands to the polish: the best 32 of 64 starts after the short ascent."""
    X, f = _batch_ascent(
        value, grad, sphere_starts(dim, 64, seed), _sphere_tangent, _normalize_rows, sphereopt._ASCENT_ITERS, 0.5, 30
    )
    return X[np.argsort(-f)[:32]]


class TestNewtonPolish:
    @pytest.mark.parametrize("name", sorted(n for n in OBJECTIVES if n != "c3"))
    def test_matches_per_point_oracle(self, name):
        # every row ends where the per-point polish ends it, up to rounding;
        # C^3 is left out: there a row off its maximum feels the phase orbit
        # through an eigenvalue above the null threshold, both polishes
        # converge slowly and stop at different points within 1e-9
        value, grad, dim = OBJECTIVES[name]()
        X = production_rows(value, grad, dim)
        f = value(_newton_polish(value, grad, X, _sphere_newton, _normalize_rows))
        ref = np.array([value(polish_on_sphere(value, grad, x)[None, :])[0] for x in X])
        assert np.all(np.abs(f - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("name", ["factored-4-0", "expanded-5-1", "c2-2", "weighted-1"])
    def test_work_per_iteration(self, name):
        # one grad call per iteration on the rows still moving, and at most
        # ten value calls for its halvings
        value, grad, dim = OBJECTIVES[name]()
        log = []

        def counted_value(X):
            log.append("v")
            return value(X)

        def counted_grad(X, hessian=False):
            assert hessian
            log.append("g")
            return grad(X, hessian=True)

        _newton_polish(counted_value, counted_grad, production_rows(value, grad, dim), _sphere_newton, _normalize_rows)
        assert log[0] == "v"
        steps = "".join(log[1:]).split("g")[1:]
        assert 1 <= len(steps) <= sphereopt._POLISH_ITERS
        assert all(len(s) <= 10 for s in steps)

    def test_stationary_rows_stay(self):
        # exact maximizers of x1 x2 x3 stay put
        value, grad = _log_objective(((MultiPoly(3, {(1, 1, 1): 1.0}), 1.0),))
        X = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]]) / np.sqrt(3.0)
        P = _newton_polish(value, grad, X, _sphere_newton, _normalize_rows)
        assert np.allclose(P, X, rtol=0, atol=1e-15)
        assert np.allclose(value(P), -1.5 * np.log(3.0), rtol=0, atol=1e-15)


def canonical_key(items):
    """The coordinates by which two complex maximizers are the same point:
    the canonical phase, or the moduli when every polynomial is a monomial,
    whose maximizers form a torus (each coordinate's phase is free)."""
    if all(len(p.terms) == 1 for p, _ in items):
        return lambda x: np.abs(sphereopt._from_real(x, items[0][0].dim))
    return lambda x: complexproj._canonical_phase(sphereopt._from_real(x, items[0][0].dim))


def recorded_maximizations(run, monkeypatch):
    """(maximize, key) of every maximization on a sphere that run() makes:
    ``maximize()`` repeats it and returns its pool, ``key`` maps a pool point
    to the coordinates in which equal maximizers are equal."""
    recorded = []
    near_max, maximize_items = sphereopt.near_max_on_sphere, complexproj._maximize_items

    def real(*args):
        recorded.append((lambda: near_max(*args)[1], lambda x: x))
        return near_max(*args)

    def cplx(items, starts, seed):
        recorded.append((lambda: maximize_items(items, starts, seed), canonical_key(items)))
        return maximize_items(items, starts, seed)

    with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        m.setattr(sphereopt, "near_max_on_sphere", real)
        m.setattr(complexproj, "_maximize_items", cplx)
        run()
    return recorded


def assert_handoff_keeps_maximizers(recorded, monkeypatch):
    assert recorded
    for maximize, key in recorded:
        short = [key(p) for p in maximize()]
        with monkeypatch.context() as m:
            m.setattr(sphereopt, "_ASCENT_ITERS", 160)
            long = [key(p) for p in maximize()]
        for A, B in ((short, long), (long, short)):
            assert max(min(np.linalg.norm(a - b) for b in B) for a in A) <= 1e-9


class TestHandOff:
    """The 20-iteration ascent with the Newton polish finds the maximizers
    that the 160-iteration ascent with the Newton polish finds."""

    @pytest.mark.parametrize(
        "criterion",
        [
            "test_criterion_04_sphere_gap_on_products",
            "test_criterion_08_ball_pair_procedure",
            "test_criterion_09_complex_suite",
            "test_criterion_10_sphere_covering_refuter",
        ],
    )
    def test_acceptance_families(self, criterion, monkeypatch):
        recorded = recorded_maximizations(getattr(test_acceptance, criterion), monkeypatch)
        assert_handoff_keeps_maximizers(recorded, monkeypatch)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_shapes(self, seed, monkeypatch, tmp_path):
        run = lambda: run_search_cycle(seed, tmp_path)  # noqa: E731
        assert_handoff_keeps_maximizers(recorded_maximizations(run, monkeypatch), monkeypatch)


def run_search_cycle(seed, tmp_path, cycles=1):
    """``cycles`` cycles of the benchmark's ``search`` workload through ``cli.main``:
    (instance, exit code, stderr, output) of each call."""
    runs = []
    for inst in workloads.make_instances("search", seed, cycles * workloads.cycle_length("search")):
        path, out, err = tmp_path / "in.json", tmp_path / "out.txt", io.StringIO()
        path.write_text(json.dumps(inst.payload), encoding="utf-8")
        out.unlink(missing_ok=True)
        argv = [inst.command, "--input", str(path), "--output", str(out), "--seed", str(seed)]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + list(inst.args))
        runs.append((inst, code, err.getvalue(), out.read_text(encoding="utf-8") if out.exists() else ""))
    return runs


class TestSearchOutputs:
    @pytest.mark.parametrize("seed", [501, 777, 1234, 2**20])
    def test_five_cycles_pass_the_benchmark_checks(self, seed, tmp_path):
        # every output of the seeded multistarts holds up under the benchmark's
        # own checks, except the 2 segment families per cycle that the splitter
        # refuses; every refute-ball output is among those checked
        runs = run_search_cycle(seed, tmp_path, cycles=5)
        refused = {inst.index for inst, code, err, _ in runs if code == 3 and "splitting needs" in err}
        assert len(runs) == 5 * workloads.cycle_length("search") and len(refused) == 5 * 2
        assert all(inst.command == "refute-sphere" for inst, *_ in runs if inst.index in refused)
        wrong = [
            (inst.index, inst.command, checks.check(inst.command, inst.payload, out, code))
            for inst, code, _, out in runs
            if inst.index not in refused
        ]
        assert [w for w in wrong if w[2] is not None] == []

    def test_screened_starts_reach_a_narrow_maximum(self):
        # |P| of these 12 forms in R^6 has its maximum in a basin that about
        # 6% of uniform starts reach: 64 independent starts missed it for 3
        # of these 200 seeds (and on the benchmark's seed 651), where the
        # best 64 of 256 screened points reach it from every seed
        forms = workloads.make_instance("search", 651, 84).payload["forms"]
        poly = product_of_affine_forms([AffineForm(f["a"], f["b"]) for f in forms])
        value, grad = _log_objective(((poly, 1.0),))
        bests = np.array([sphereopt.near_max_on_sphere(value, grad, 6, 64, seed)[0] for seed in range(200)])
        assert np.all(bests >= bests.max() - 1e-9 * abs(bests.max()))


# (value, grad, dimension) of multiplier objectives log|P(x) M(|x|)| in the ball
BALL_OBJECTIVES = {
    **{f"factored-{d}-{s}": lambda d=d, s=s: factored(d, s) for d in (2, 3) for s in (0, 1)},
    **{f"expanded-{d}": lambda d=d: MultiPoly(d, dict(factored(d, 0).terms)) for d in (2, 3)},
    **{f"dense-{d}-{n}": lambda d=d, n=n: dense(d, n, 20 * d + n) for d, n in ((1, 5), (2, 4), (3, 3), (4, 2))},
}


def ball_objective(name):
    poly = BALL_OBJECTIVES[name]()
    return (*ballfinder._multiplier_objective(poly), poly)


class TestMultiplierHessian:
    @pytest.mark.parametrize("name", sorted(BALL_OBJECTIVES))
    def test_hessian_matches_central_differences_of_gradient(self, name):
        value, grad, poly = ball_objective(name)
        dim = poly.dim
        # interior and near-rim starts, and a row 1e-3 from the centre
        X = np.vstack([ballfinder._ball_starts(dim, 8, 2), 1e-3 * sphere_starts(dim, 1, 4)])
        G, H = grad(X, hessian=True)
        assert G.tobytes() == grad(X).tobytes()
        assert np.allclose(H, np.swapaxes(H, 1, 2), rtol=0, atol=1e-12 * np.abs(H).max())
        h = 1e-6
        fd = np.stack([(grad(X + h * e) - grad(X - h * e)) / (2 * h) for e in np.eye(dim)], axis=2)
        for Hi, fdi in zip(H, fd):
            assert np.allclose(Hi, fdi, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(Hi).max()))

    @pytest.mark.parametrize("name", ["factored-2-0", "expanded-3", "dense-3-3"])
    def test_centre(self, name):
        # at x = 0 the multiplier adds log|M|''(0) I to the Hessian of log|P|
        value, grad, poly = ball_objective(name)
        X = np.zeros((1, poly.dim))
        G, H = grad(X, hessian=True)
        GP, HP = sphereopt._log_objective(((poly, 1.0),))[1](X, hessian=True)
        assert G.tobytes() == GP.tobytes()
        curv = chebmult.ball_multiplier_log_curvature(poly.degree, 0.0)
        assert np.array_equal(H, HP + curv * np.eye(poly.dim))


def recorded_multiplier_pools(run, monkeypatch):
    """The (poly, seed, starts) of every multiplier pool that run() takes."""
    recorded = []
    pool = ballfinder._multiplier_pool

    def record(poly, seed, starts):
        recorded.append((poly, seed, starts))
        return pool(poly, seed, starts)

    with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        m.setattr(ballfinder, "_multiplier_pool", record)
        run()
    return recorded


def assert_ball_handoff_keeps_maximizers(recorded):
    # the reference's rows stop where the gain floor stops them, up to 7e-8
    # (measured) from the maximizers the polish converges to; the pools in
    # one variable come from a grid, not from the ascent, and are left out
    recorded = [r for r in recorded if r[0].dim >= 2]
    assert recorded
    for poly, seed, starts in recorded:
        value, grad = ballfinder._multiplier_objective(poly)
        short = ballfinder._multiplier_pool(poly, seed, starts)
        long = ball_ascent_pool(value, grad, ballfinder._ball_starts(poly.dim, starts, seed), max(8, min(24, starts)))
        for A, B in ((short, long), (long, short)):
            assert max(min(np.linalg.norm(a - b) for b in B) for a in A) <= 1e-6
        best, ref = np.max(value(np.array(short))), np.max(value(long))
        assert best >= ref - 1e-14 * max(1.0, abs(ref))


class TestBallHandOff:
    """The 20-iteration ball ascent with the Newton polish finds the
    maximizers that the 200-iteration ascent with no polish found."""

    def test_criterion_07(self, monkeypatch):
        recorded = recorded_multiplier_pools(test_acceptance.test_criterion_07_ball_multiplier_procedure, monkeypatch)
        assert len(recorded) == 58
        assert_ball_handoff_keeps_maximizers(recorded)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_shapes(self, seed, monkeypatch, tmp_path):
        recorded = recorded_multiplier_pools(lambda: run_search_cycle(seed, tmp_path), monkeypatch)
        assert_ball_handoff_keeps_maximizers(recorded)


class TestBallPolish:
    @pytest.mark.parametrize("d", [2, 3])
    def test_boundary_maximum(self, d):
        # |x1 M(|x|)| grows along the x1 axis up to the rim: its maxima are
        # +-e1, at distance 1 from x1 = 0
        poly = MultiPoly(d, {(1,) + (0,) * (d - 1): 1.0})
        pool = ballfinder._multiplier_pool(poly, 0, 64)
        assert len(pool) == 2
        assert all(abs(np.linalg.norm(p) - 1.0) <= 1e-15 and abs(abs(p[0]) - 1.0) <= 1e-15 for p in pool)
        point, dist = ballfinder.multiplier_point(poly, seed=0)
        assert abs(np.linalg.norm(point) - 1.0) <= 1e-15
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_rim_of_an_interval_stops(self):
        # on the ends of [-1, 1] a gradient pointing out has no tangent part:
        # the rows take no step and stop; the inner row takes Newton's step
        X = np.array([[1.0], [-1.0], [0.5]])
        G = np.array([[2.0], [-0.5], [1.0]])
        H = np.array([[[-1.0]], [[3.0]], [[-4.0]]])
        S, length, gnorm = ballfinder._ball_newton(X, G, H)
        assert np.array_equal(S, [[0.0], [0.0], [0.2]]) and np.array_equal(gnorm, [0.0, 0.0, 1.0])
        assert np.array_equal(length, [0.0, 0.0, 0.25])

    @pytest.mark.parametrize("name", ["factored-2-1", "expanded-3", "dense-4-2"])
    def test_work_per_iteration(self, name):
        # one grad call per iteration on the rows still moving, and at most
        # ten value calls for its halvings
        value, grad, poly = ball_objective(name)
        X, f = _batch_ascent(
            value, grad, ballfinder._ball_starts(poly.dim, 64, 3), lambda G, X: G, ballfinder._clip_to_ball,
            sphereopt._ASCENT_ITERS, 0.25, 25,
        )
        log = []

        def counted_value(X):
            log.append("v")
            return value(X)

        def counted_grad(X, hessian=False):
            assert hessian
            log.append("g")
            return grad(X, hessian=True)

        X = X[np.argsort(-f)[:24]]
        P = _newton_polish(counted_value, counted_grad, X, ballfinder._ball_newton, ballfinder._clip_to_ball)
        assert np.all(np.linalg.norm(P, axis=1) <= 1.0)
        assert log[0] == "v"
        steps = "".join(log[1:]).split("g")[1:]
        assert 1 <= len(steps) <= sphereopt._POLISH_ITERS
        assert all(len(s) <= 10 for s in steps)
