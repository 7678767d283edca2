"""The exact (f, G, H) objectives and the lockstep Newton polish on the sphere.

The polish is checked against the per-point polish it replaced (in
``_oracles``), whose Hessian differences the gradient, and the short ascent
that hands over to it against the 160-iteration ascent that ran before.  The
multiplier search, which runs on the sphere S^d that lifts the ball, is
checked against a 200-iteration ascent in the ball itself, clipped to it,
with no polish (in ``_oracles``).  Both on the acceptance families and on
the ``search`` shapes of the benchmark, whose outputs over five cycles must
also pass the benchmark's own checks.  Only rows that step reach the
Newton step, and the engine's pool, screened in blocks of ``starts`` rows,
is bit for bit the pool of one screen call (in ``_oracles``).
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
from zerogap.sphereopt import _batch_ascent, _log_objective, _newton_polish, sphere_starts

import test_acceptance
from _oracles import ball_ascent_pool, polish_on_sphere, qr_newton_step, row_by_row_lifted_starts, whole_batch_near_max

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
    X, f = _batch_ascent(value, grad, sphere_starts(dim, 64, seed))
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
        f = value(_newton_polish(value, grad, X))
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

        _newton_polish(counted_value, counted_grad, production_rows(value, grad, dim))
        assert log[0] == "v"
        steps = "".join(log[1:]).split("g")[1:]
        assert 1 <= len(steps) <= sphereopt._POLISH_ITERS
        assert all(len(s) <= 10 for s in steps)

    def test_stationary_rows_stay(self):
        # exact maximizers of x1 x2 x3 stay put
        value, grad = _log_objective(((MultiPoly(3, {(1, 1, 1): 1.0}), 1.0),))
        X = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]]) / np.sqrt(3.0)
        P = _newton_polish(value, grad, X)
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
    to the coordinates in which equal maximizers are equal.  The pair's
    maximizations are among them wherever the pair once maximized the
    expanded R(x, y) = P(x) P(y) by the multistart, that is for every P but
    an expanded one in one variable, whose R was maximized on the circle
    exactly; the multiplier's are not."""
    recorded, pairs = [], set()
    near_max, maximize_items, pair_objective = (
        sphereopt.near_max_on_sphere,
        complexproj._maximize_items,
        ballfinder._pair_objective,
    )

    def real(*args):
        recorded.append((lambda: near_max(*args)[1], lambda x: x))
        return near_max(*args)

    def pair(poly):
        value, grad = pair_objective(poly)
        if poly.dim > 1 or poly.affine_factors is not None:
            pairs.add(value)
        return value, grad

    def ball(value, *args):
        return (real if value in pairs else near_max)(value, *args)

    def cplx(items, starts, seed):
        recorded.append((lambda: maximize_items(items, starts, seed), canonical_key(items)))
        return maximize_items(items, starts, seed)

    with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        m.setattr(sphereopt, "near_max_on_sphere", real)
        m.setattr(ballfinder, "_pair_objective", pair)
        m.setattr(ballfinder, "near_max_on_sphere", ball)
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
    """The 6-iteration ascent with the Newton polish finds the maximizers
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


# the complex maximizations whose polish kept rows live for all 20 polish
# iterations while the orbit direction i z was in the step: the benchmark's
# complex-verify (search #10) and weighted-verify (#12) shapes, a random
# C^2 cubic and a dense C^3 cubic
HORIZONTAL_CASES = {
    **{
        f"search-{index}-seed-{seed}": lambda index=index, seed=seed: cli_items(
            workloads.make_instance("search", seed, index).payload
        )
        for index in (10, 12)
        for seed in (1, 2, 3)
    },
    "c2-cubic": lambda: [(homogeneous(2, 3, 1), 1.0)],
    "c3-cubic": lambda: [(homogeneous(3, 3, 1), 1.0)],
}


def cli_items(payload):
    """The (P, delta) items of a complex-verify or weighted-verify payload."""
    if "items" in payload:
        return [(ComplexHomogPoly.from_json(item["poly"]), item["delta"]) for item in payload["items"]]
    return [(ComplexHomogPoly.from_json(payload), 1.0)]


class TestHorizontalPolish:
    """In C^d the polish steps on the horizontal space, without the orbit
    direction i z, and converges at Newton's rate off a maximizer."""

    @pytest.mark.parametrize("name", sorted(HORIZONTAL_CASES))
    def test_no_row_live_after_six_iterations(self, name, monkeypatch):
        live = []
        polish = sphereopt._newton_polish

        def counted(value, grad, X):
            def counted_grad(X, hessian=False):
                live.append(len(X))
                return grad(X, hessian)

            return polish(value, counted_grad, X)

        monkeypatch.setattr(sphereopt, "_newton_polish", counted)
        complexproj._maximize_items(HORIZONTAL_CASES[name](), 64, 0)
        assert 1 <= len(live) <= 6


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
        # own checks; no family is refused, so every output is checked
        runs = run_search_cycle(seed, tmp_path, cycles=5)
        assert len(runs) == 5 * workloads.cycle_length("search")
        assert [inst.index for inst, code, err, _ in runs if "splitting needs" in err] == []
        wrong = [
            (inst.index, inst.command, checks.check(inst.command, inst.payload, out, code))
            for inst, code, _, out in runs
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
        near_max = sphereopt.near_max_on_sphere
        bests = np.array([near_max(value, grad, sphere_starts(6, 256, seed), 64)[0] for seed in range(200)])
        assert np.all(bests >= bests.max() - 1e-9 * abs(bests.max()))


# (value, grad, dimension) of multiplier objectives log|P(x) M(|x|)| on the sphere that lifts the ball
BALL_OBJECTIVES = {
    **{f"factored-{d}-{s}": lambda d=d, s=s: factored(d, s) for d in (2, 3) for s in (0, 1)},
    **{f"expanded-{d}": lambda d=d: MultiPoly(d, dict(factored(d, 0).terms)) for d in (2, 3)},
    **{f"dense-{d}-{n}": lambda d=d, n=n: dense(d, n, 20 * d + n) for d, n in ((1, 5), (2, 4), (3, 3), (4, 2))},
}


def ball_objective(name):
    poly = BALL_OBJECTIVES[name]()
    return (*ballfinder._multiplier_objective(poly), poly)


def lift(X):
    """Rows x of the ball as the rows (x, sqrt(1 - |x|^2)) of the upper hemisphere of S^d."""
    return np.hstack([X, np.sqrt(1.0 - np.sum(X * X, axis=1, keepdims=True))])


class TestMultiplierHessian:
    @pytest.mark.parametrize("name", sorted(BALL_OBJECTIVES))
    def test_hessian_matches_central_differences_of_gradient(self, name):
        value, grad, poly = ball_objective(name)
        dim = poly.dim
        # rows over the ball and its rim, and a row 1e-3 from the centre
        X = np.vstack([row_by_row_lifted_starts(dim, 4, 2), lift(1e-3 * sphere_starts(dim, 1, 4))])
        G, H = grad(X, hessian=True)
        assert G.tobytes() == grad(X).tobytes()
        assert H.shape == (9, dim + 1, dim + 1)
        assert np.allclose(H, np.swapaxes(H, 1, 2), rtol=0, atol=1e-12 * np.abs(H).max())
        h = 1e-6
        fd = np.stack([(grad(X + h * e) - grad(X - h * e)) / (2 * h) for e in np.eye(dim + 1)], axis=2)
        for Hi, fdi in zip(H, fd):
            assert np.allclose(Hi, fdi, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(Hi).max()))

    @pytest.mark.parametrize("name", sorted(BALL_OBJECTIVES))
    def test_even_in_the_lift(self, name):
        # F reads y as x = y[:d]: (x, t) and (x, -t) agree in every output,
        # and the t entry, row and column of the derivatives are zero
        value, grad, poly = ball_objective(name)
        Y = row_by_row_lifted_starts(poly.dim, 8, 3)
        flipped = Y * np.append(np.ones(poly.dim), -1.0)
        G, H = grad(Y, hessian=True)
        assert value(Y).tobytes() == value(flipped).tobytes()
        assert G.tobytes() == grad(flipped).tobytes() and H.tobytes() == grad(flipped, hessian=True)[1].tobytes()
        assert not np.any(G[:, -1]) and not np.any(H[:, -1]) and not np.any(H[:, :, -1])

    @pytest.mark.parametrize("name", ["factored-2-0", "expanded-3", "dense-3-3"])
    def test_centre(self, name):
        # at x = 0, the pole of S^d, the multiplier adds log|M|''(0) I to the Hessian of log|P|
        value, grad, poly = ball_objective(name)
        Y = np.append(np.zeros(poly.dim), 1.0)[None, :]
        G, H = grad(Y, hessian=True)
        GP, HP = sphereopt._log_objective(((poly, 1.0),))[1](Y[:, :-1], hessian=True)
        assert G[:, :-1].tobytes() == GP.tobytes()
        curv = chebmult.ball_multiplier_log_curvature(poly.degree, 0.0)
        assert np.array_equal(H[:, :-1, :-1], HP + curv * np.eye(poly.dim))


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
    # (measured) from the maximizers the polish converges to
    assert recorded
    for poly, seed, starts in recorded:
        value, grad = ballfinder._multiplier_objective(poly)
        short = ballfinder._multiplier_pool(poly, seed, starts)
        long = ball_ascent_pool(value, grad, poly.dim, starts, seed, max(8, min(24, starts)))
        for A, B in ((short, long), (long, short)):
            assert max(min(np.linalg.norm(a - b) for b in B) for a in A) <= 1e-6
        best, ref = np.max(value(lift(np.array(short)))), np.max(value(lift(long)))
        assert best >= ref - 1e-14 * max(1.0, abs(ref))


class TestBallHandOff:
    """The multiplier search on the sphere that lifts the ball finds the
    maximizers that the 200-iteration ascent in the ball with no polish finds."""

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
    def test_boundary_maximum(self, d, monkeypatch):
        # |x1 M(|x|)| grows along the x1 axis up to the rim: its maxima are
        # +-e1, at distance 1 from x1 = 0.  The pool's distinct points, the
        # rim rows first, are +-e1 exactly; x1 is odd, so _farthest measures
        # them as one point, e1, in its canonical sign
        poly = MultiPoly(d, {(1,) + (0,) * (d - 1): 1.0})
        distinct = sphereopt._dedupe_points(ballfinder._multiplier_pool(poly, 0, 64))
        assert len(distinct) == 2
        assert all(abs(np.linalg.norm(p) - 1.0) <= 1e-15 and abs(abs(p[0]) - 1.0) <= 1e-15 for p in distinct)
        measured, distance = [], ballfinder.euclidean_zero_distance
        monkeypatch.setattr(ballfinder, "euclidean_zero_distance", lambda P, x, seed: measured.append(x) or distance(P, x, seed))
        cert = ballfinder.multiplier_point(poly, seed=0)
        assert len(measured) == 1 and measured[0] is cert.point
        assert abs(np.linalg.norm(cert.point) - 1.0) <= 1e-15 and cert.point[0] > 0.0
        assert cert.distance == pytest.approx(1.0, abs=1e-12)

    def test_rim_of_an_interval_stops(self):
        # the ends of [-1, 1] lift to (+-1, 0) on S^1, where F's gradient
        # (g, 0) has no tangent part: the rows take no step and stay exactly
        value, grad, poly = ball_objective("dense-1-5")
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.all(np.abs(grad(Y)[:, 0]) > 0.0)
        assert np.array_equal(_newton_polish(value, grad, Y.copy()), Y)

    @pytest.mark.parametrize("d", [2, 3])
    def test_equator_rows_stay_on_the_equator(self, d):
        # F's gradient has no t part, so a row with t = 0 keeps t = 0 through
        # the ascent and the polish: the rim of the ball is searched exactly
        poly = factored(d, 1)
        value, grad = ballfinder._multiplier_objective(poly)
        rim = row_by_row_lifted_starts(d, 16, 5)[16:]
        X, _ = _batch_ascent(value, grad, rim)
        assert not np.any(X[:, d]) and not np.any(_newton_polish(value, grad, X)[:, d])

    @pytest.mark.parametrize("name", ["factored-2-1", "expanded-3", "dense-4-2"])
    def test_work_per_iteration(self, name):
        # one grad call per iteration on the rows still moving, and at most
        # ten value calls for its halvings
        value, grad, poly = ball_objective(name)
        X, f = _batch_ascent(value, grad, row_by_row_lifted_starts(poly.dim, 32, 3))
        log = []

        def counted_value(X):
            log.append("v")
            return value(X)

        def counted_grad(X, hessian=False):
            assert hessian
            log.append("g")
            return grad(X, hessian=True)

        X = X[np.argsort(-f)[:32]]
        P = _newton_polish(counted_value, counted_grad, X)
        assert np.all(np.abs(np.linalg.norm(P, axis=1) - 1.0) <= 1e-15)
        assert log[0] == "v"
        steps = "".join(log[1:]).split("g")[1:]
        assert 1 <= len(steps) <= sphereopt._POLISH_ITERS
        assert all(len(s) <= 10 for s in steps)


def polish_log(value, grad, X, monkeypatch):
    """The tangent gradient norms of the rows in each grad call ("grad") and
    each _newton_step call ("step") of one _newton_polish call, in order."""
    log = []
    step = sphereopt._newton_step

    def logged_grad(X, hessian=False):
        G, H = grad(X, hessian)
        log.append(("grad", np.linalg.norm(sphereopt._sphere_tangent(G, X), axis=1)))
        return G, H

    def logged_step(X, q, W):
        log.append(("step", np.linalg.norm(sphereopt._sphere_tangent(q, X), axis=1)))
        return step(X, q, W)

    with monkeypatch.context() as m:
        m.setattr(sphereopt, "_newton_step", logged_step)
        _newton_polish(value, logged_grad, X)
    return log


class TestPolishSteps:
    """Only the rows whose tangent gradient is at least 1e-13 take a Newton
    step, and the polish ends at the first iteration where no row steps."""

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_only_stepping_rows_take_a_step(self, name, monkeypatch):
        value, grad, dim = OBJECTIVES[name]()
        log = polish_log(value, grad, production_rows(value, grad, dim), monkeypatch)
        assert log[0][0] == "grad" and any(kind == "step" for kind, _ in log)
        for (kind, norms), after in zip(log, log[1:] + [None]):
            if kind == "step":
                assert np.all(norms >= 1e-13)
                continue
            stepping = norms >= 1e-13
            if np.any(stepping):
                assert after[0] == "step" and after[1].tobytes() == norms[stepping].tobytes()
            else:
                assert after is None

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_step_of_a_row_does_not_depend_on_the_batch(self, name):
        # the eigensolve and the products work matrix by matrix and row by
        # row, so handing the step fewer rows moves no bit of the rows it keeps
        value, grad, dim = OBJECTIVES[name]()
        X = production_rows(value, grad, dim)
        G, H = grad(X, hessian=True)
        S, length = sphereopt._newton_step(X, G, H)
        for rows in ([0], [7], [3, 4], list(range(1, 32, 2)), list(range(31))):
            s, n = sphereopt._newton_step(X[rows], G[rows], H[rows])
            assert s.tobytes() == S[rows].tobytes() and n.tobytes() == length[rows].tobytes()


class TestAmbientStep:
    """The polish's step, solved in the ambient space with the direction of x
    left out, is the step in a QR tangent basis that it replaced
    (``_oracles.qr_newton_step``) up to rounding: 1e-12 (1 + |S|) in each
    coordinate."""

    @staticmethod
    def assert_matches_qr_step(X, q, W):
        S, length = sphereopt._newton_step(X, q, W)
        R, ref = qr_newton_step(X, q, W)
        assert np.all(np.abs(S - R) <= 1e-12 * (1.0 + np.abs(R)))
        assert np.all(np.abs(length - ref) <= 1e-10 * (1.0 + ref))
        return S

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_objective_families(self, name):
        value, grad, dim = OBJECTIVES[name]()
        X = sphere_starts(dim, 64, 5)
        self.assert_matches_qr_step(X, *grad(X, hessian=True))

    def test_complex_orbits_with_null_eigenvalues(self):
        # log|z1 z2| on S^3 is constant on the orbits of a 2-torus, and its
        # maxima (|z1| = |z2|) form one: on it two tangent eigenvalues vanish
        # besides the eigenvalue along x, and rows 1e-3 off it step back
        value, grad = _log_objective([(ComplexHomogPoly(2, {(1, 1): 1.0 + 0j}), 1.0)])
        rng = np.random.default_rng(0)
        Z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (16, 2))) / np.sqrt(2.0)
        X = np.hstack([Z.real, Z.imag])
        X[1::2] = sphereopt._normalize_rows(X[1::2] + 1e-3 * rng.standard_normal((8, 4)))
        q, W = grad(X, hessian=True)
        P = np.eye(4) - X[:, :, None] * X[:, None, :]
        w = np.linalg.eigvalsh(P @ (W - np.sum(X * q, axis=1)[:, None, None] * np.eye(4)) @ P)
        assert np.all(np.sum(np.abs(w[::2]) <= 1e-12, axis=1) == 3)
        S = self.assert_matches_qr_step(X, q, W)
        assert np.all(np.abs(S[::2]) <= 1e-12) and np.all(np.linalg.norm(S[1::2], axis=1) > 1e-4)
        assert np.all(np.abs(np.sum(S * X, axis=1)) <= 1e-12 * np.linalg.norm(S, axis=1))

    def test_rows_with_zero_hessian(self):
        # W = 0 leaves -nu on the tangent space: the step is Pq / nu, and zero
        # where q is normal to the sphere (Pq = 0)
        X = sphere_starts(5, 16, 1)
        q = sphere_starts(5, 16, 2)
        q[8:] = np.linspace(-2.0, 2.0, 8)[:, None] * X[8:]
        S = self.assert_matches_qr_step(X, q, np.zeros((16, 5, 5)))
        assert np.all(np.abs(S[8:]) <= 1e-15) and np.all(np.linalg.norm(S[:8], axis=1) > 0.0)


def ball_engine_call(name, starts, monkeypatch):
    """(value, grad, X, starts, result) of the near_max_on_sphere call of the
    multiplier search on BALL_OBJECTIVES[name]."""
    calls = []
    engine = sphereopt.near_max_on_sphere

    def record(value, grad, X, starts):
        calls.append((value, grad, X.copy(), starts, engine(value, grad, X, starts)))
        return calls[-1][-1]

    with monkeypatch.context() as m:
        m.setattr(ballfinder, "near_max_on_sphere", record)
        ballfinder._multiplier_pool(BALL_OBJECTIVES[name](), 3, starts)
    (call,) = calls
    return call


def assert_pools_equal(a, b):
    assert a[0] == b[0] and len(a[1]) == len(b[1])
    assert all(p.tobytes() == q.tobytes() for p, q in zip(a[1], b[1]))


class TestEnginePool:
    """The screen reads the candidates in blocks, and the pool is the one
    that a single screen call gives (``_oracles``)."""

    @pytest.mark.parametrize("starts", [1, 5, 64])
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_sphere_and_complex_pools(self, name, starts):
        value, grad, dim = OBJECTIVES[name]()
        X = sphere_starts(dim, sphereopt._SCREEN * starts, 4)
        pool = sphereopt.near_max_on_sphere(value, grad, X, starts)
        assert_pools_equal(pool, whole_batch_near_max(value, grad, X, starts))

    @pytest.mark.parametrize("starts", [1, 5, 64])
    @pytest.mark.parametrize("name", sorted(BALL_OBJECTIVES))
    def test_lifted_ball_pools(self, name, starts, monkeypatch):
        value, grad, X, starts, pool = ball_engine_call(name, starts, monkeypatch)
        assert_pools_equal(pool, whole_batch_near_max(value, grad, X, starts))

    @pytest.mark.parametrize("starts", [1, 2, 5, 64, 100])
    @pytest.mark.parametrize("name", ["factored-5-1", "expanded-4-0", "weighted-0", "ball-dense-1-5", "ball-expanded-3"])
    def test_screen_reads_blocks_of_starts_rows(self, name, starts, monkeypatch):
        # blocks of starts rows, the last up to 2 starts - 1 rows, whose
        # values are the whole batch's bit for bit
        if name.startswith("ball-"):
            value, grad, X, _, _ = ball_engine_call(name[5:], starts, monkeypatch)
        else:
            value, grad, dim = OBJECTIVES[name]()
            X = sphere_starts(dim, sphereopt._SCREEN * starts, 4)
        screen, reads = [], []
        ascent = sphereopt._batch_ascent

        def read(Y):
            reads.append(value(Y))
            return reads[-1]

        def ascent_after_screen(value, grad, Y):
            screen.extend(reads)
            return ascent(value, grad, Y)

        monkeypatch.setattr(sphereopt, "_batch_ascent", ascent_after_screen)
        sphereopt.near_max_on_sphere(read, grad, X, starts)
        sizes = [len(v) for v in screen]
        assert sum(sizes) == len(X)
        if len(X) < 2 * starts:
            assert sizes == [len(X)]
        else:
            assert sizes[:-1] == [starts] * (len(sizes) - 1) and starts <= sizes[-1] < 2 * starts
        assert np.concatenate(screen).tobytes() == value(X).tobytes()
