"""Sharp inputs of the sphere and C^d bounds, through the CLI.

On these inputs the bound is attained and the exact distance to Z(P) from
any point is a closed form, so a reported distance that is short of the
truth shows at once.  For P = T_n(<a, x>), expanded, Z(P) on the sphere is
the union of the levels <a, x> = cos((2j + 1) pi / (2n)), and every maximizer
of |P| is pi/(2n) from it.  For P = (Uz)_1 ... (Uz)_d, expanded, with U
unitary, Z(P) is the union of the hyperplanes (Uz)_k = 0, at Hermitian
angle arcsin |(Uz)_k| from z, and every maximizer is arcsin(1/sqrt(d)) from
it.  The search keeps the distance to a zero it has found, which cannot be
nearer than the nearest zero, so each reported distance is at least the
exact distance from the reported maximizer, up to rounding.  The pool of
near-maximizers is kept small (``--starts 8``): the maximizers of these
inputs fill whole level sets, and each distinct one takes a zero search.
"""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from zerogap.cli import main
from zerogap.complexproj import ComplexHomogPoly

STARTS = "8"


def rotation(d, seed):
    """A seeded orthogonal d x d matrix, from the QR of Gaussian entries."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]


def unitary(d, seed):
    """A seeded unitary d x d matrix, from the QR of complex Gaussian entries."""
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    return np.linalg.qr(g[0] + 1j * g[1])[0]


def cheb_of_form(a, n):
    """The terms of T_n(<a, x>), expanded: sum_k t_k <a, x>^k by the multinomial theorem."""
    terms = {}
    for k, tk in enumerate(chebyshev.cheb2poly([0] * n + [1])):
        if tk == 0:
            continue
        for e in itertools.product(range(k + 1), repeat=len(a)):
            if sum(e) == k:
                c = math.factorial(k) / math.prod(math.factorial(x) for x in e)
                terms[e] = terms.get(e, 0.0) + tk * c * math.prod(ai**x for ai, x in zip(a, e))
    return [{"e": list(e), "c": c} for e, c in sorted(terms.items())]


def run(tmp_path, command, payload):
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps(payload), encoding="utf-8")
    code = main([command, "--input", str(inp), "--output", str(out), "--starts", STARTS])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("d, n", [(d, n) for d in (3, 4, 5, 6) for n in (2, 3, 4, 6, 8) if (d - 3) * n <= 12])
def test_chebyshev_of_a_form(tmp_path, d, n):
    a = rotation(d, 10 * d + n)[:, 0]
    code, rep = run(tmp_path, "sphere-verify", {"dim": d, "terms": cheb_of_form(a, n)})
    assert (code, rep["passed"]) == (0, True)
    p = np.array(rep["maximizer"])
    s = math.acos(float(np.clip(a @ p, -1.0, 1.0)))
    exact = min(abs(s - (2 * j + 1) * math.pi / (2 * n)) for j in range(n))
    assert rep["distance"] >= exact - 1e-12
    assert rep["distance"] >= math.pi / (2 * n) - 1e-9


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_product_of_unitary_coordinates(tmp_path, d):
    U = unitary(d, d)
    # the CLI reads the expanded terms; no factor list reaches it
    code, rep = run(tmp_path, "complex-verify", ComplexHomogPoly.from_linear_product(U).to_json())
    assert (code, rep["passed"]) == (0, [True])
    z = np.array(rep["maximizer"]["re"]) + 1j * np.array(rep["maximizer"]["im"])
    exact = min(math.asin(min(1.0, abs(w))) for w in U @ z)
    assert rep["distances"][0] >= exact - 1e-12
    assert rep["distances"][0] >= math.asin(1.0 / math.sqrt(d)) - 1e-9
