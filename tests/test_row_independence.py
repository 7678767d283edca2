"""Each row of an untagged P is evaluated on its own.

A row's value, gradient and Hessian of every objective that reads P through
its terms, and a row's restoration onto Z(P) and its constrained Newton step
in the zero search, have the bits of the whole batch, whichever rows share
its batch: lone rows, blocks of every size from 2 to 39 rows at offsets 0 to
11, and random subsets.  Factored products are left out: their distances
are closed forms, and their objective keeps the BLAS products (see
``sphereopt._log_objective``).
"""

import numpy as np
import pytest

from zerogap import sphereopt
from zerogap.polycore import _term_jet
from zerogap.sphereopt import _from_real, _real, sphere_starts

import test_newton_polish as tnp

ROWS = 64


def subsets():
    """Row index lists: lone rows, blocks of 2-39 rows at offsets 0-11, random subsets."""
    rng = np.random.default_rng(0)
    lone = [[i] for i in (0, 1, 2, 3, 4, 5, 17, ROWS - 1)]
    blocks = [list(range(s % 12, s % 12 + s)) for s in range(2, 40)]
    random = [sorted(rng.choice(ROWS, size=int(rng.integers(2, ROWS)), replace=False)) for _ in range(8)]
    return lone + blocks + random


def assert_rows_alone(compute):
    """compute(rows), a tuple of arrays, has on every subset of rows the whole batch's rows, bit for bit."""
    whole = compute(slice(None))
    mismatches = [r for r in subsets() if any(a.tobytes() != b[r].tobytes() for a, b in zip(compute(r), whole))]
    assert mismatches == []


def ball(name):
    value, grad, poly = tnp.ball_objective(name)
    return value, grad, poly.dim + 1


OBJECTIVES = {
    **{name: make for name, make in tnp.OBJECTIVES.items() if not name.startswith("factored")},
    **{f"ball-{name}": lambda name=name: ball(name) for name in tnp.BALL_OBJECTIVES if not name.startswith("factored")},
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_objective_rows(name):
    value, grad, dim = OBJECTIVES[name]()
    X = sphere_starts(dim, ROWS, 6)

    def compute(r):
        return (value(X[r]), *grad(X[r], hessian=True))

    assert_rows_alone(compute)


def zero_search_polys():
    return {
        "real": sphereopt._unit_scaled(tnp.dense(4, 4, 44)),
        "complex": sphereopt._unit_scaled(tnp.homogeneous(3, 3, 5)),
    }


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_restoration_rows(kind):
    poly = zero_search_polys()[kind]
    Y = _from_real(sphere_starts(2 * poly.dim if kind == "complex" else poly.dim, ROWS, 7), poly.dim)

    def compute(r):
        return sphereopt._restore_to_zero_set(poly, Y[r], sphereopt._RESTORE_STEPS)

    assert_rows_alone(compute)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_constrained_step_rows(kind):
    # the step of a row on Z(P) from P's gradient and Hessian of the same rows
    poly = zero_search_polys()[kind]
    Y = _from_real(sphere_starts(2 * poly.dim if kind == "complex" else poly.dim, ROWS, 8), poly.dim)
    Y = sphereopt._restore_to_zero_set(poly, Y, sphereopt._RESTORE_STEPS)[0]
    X = _real(Y)
    c = sphere_starts(X.shape[1], 1, 9)[0]
    Q = np.diag(np.linspace(0.0, 1.0, X.shape[1]))
    q = c + X @ Q

    def compute(r):
        _, G, H = _term_jet(poly, Y[r], "gh")
        return sphereopt._newton_step(X[r], q[r], Q, G, H)

    assert_rows_alone(compute)
