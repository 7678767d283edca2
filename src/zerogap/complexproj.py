"""Homogeneous complex polynomials on the unit sphere of C^d.

The maximizers come from the one log objective of ``sphereopt``, which
carries the sphere of C^d as S^(2d-1) in real coordinates (see
``sphereopt._real``): weighted families maximize sum delta_k^2 log|P_k|,
which realizes the fractional-power product |P_1^(d1^2) ... P_N^(dN^2)|
without ever raising a complex number to a fractional power.

Angular distance between unit vectors is arccos of the magnitude of the
Hermitian inner product: the distance between the unit-scalar orbits, which
is the quantity the bounds below control.  In C^3 and up the distance to a
zero set comes from the lockstep Newton search of ``sphereopt`` on
Re P = Im P = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .polycore import _expand_product, _finite, _merge_terms, _rows, _term_jet
from .sphereopt import (
    _SCREEN,
    _farthest,
    _from_real,
    _log_objective,
    _zero_distance_search,
    near_max_on_sphere,
    sphere_starts,
)
from .trigcircle import _root_clusters

__all__ = [
    "ComplexHomogPoly",
    "WeightedSystem",
    "ComplexGapReport",
    "complex_zero_distance",
    "verify_complex_gap",
    "verify_weighted_gap",
    "hermitian_angle",
]

# nothing calls this name; it is kept only because bench/tracing.py wraps it
minimize = None


def hermitian_angle(u, v):
    """arccos |<u, v>| for unit complex vectors."""
    ip = abs(np.sum(np.asarray(u) * np.conj(np.asarray(v))))
    return math.acos(min(1.0, ip))


class ComplexHomogPoly:
    """Sparse homogeneous polynomial in d complex variables, evaluated with
    ``polycore``'s term kernels.  A binary form keeps its chart zeros once
    asked for (``_zeros_on_projective_line``)."""

    __slots__ = ("dim", "degree", "terms", "linear_factors", "_tables", "_second", "_scaled", "_chart")

    def __init__(self, dim, terms):
        self.terms = _merge_terms(dim, terms, 0j)
        degrees = {sum(e) for e, _ in self.terms}
        if len(degrees) != 1:
            raise ValueError(f"not homogeneous: term degrees {sorted(degrees)}")
        self.dim = int(dim)
        self.degree = degrees.pop()
        self.linear_factors = self._tables = self._second = self._scaled = self._chart = None

    @classmethod
    def from_linear_product(cls, rows):
        """Product of linear forms sum_j c_j z_j, one coefficient row each;
        the rows are kept in ``linear_factors``."""
        C = np.array(rows, dtype=complex)
        if C.ndim != 2 or C.shape[0] == 0:
            raise ValueError("need a nonempty matrix of coefficient rows")
        if np.any(np.all(C == 0, axis=1)):
            raise ValueError("zero linear factor")
        poly = cls(C.shape[1], _expand_product(C.shape[1], [(row, 0.0) for row in C], 1.0 + 0j))
        poly.linear_factors = C
        return poly

    def eval(self, z):
        Z, single = _rows(z, self.dim, complex)
        vals = _term_jet(self, Z, "v")[0]
        return vals[0] if single else vals

    __call__ = eval

    def holomorphic_gradient(self, z):
        """Partial derivatives with respect to each complex variable."""
        Z, single = _rows(z, self.dim, complex)
        G = _term_jet(self, Z, "g")[1]
        return G[0] if single else G

    def to_json(self):
        return {
            "dim": self.dim,
            "deg": self.degree,
            "terms": [{"e": list(e), "re": c.real, "im": c.imag} for e, c in self.terms],
        }

    @classmethod
    def from_json(cls, obj):
        poly = cls(obj["dim"], [(t["e"], complex(t["re"], t.get("im", 0.0))) for t in obj["terms"]])
        if "deg" in obj and obj["deg"] != poly.degree:
            raise ValueError(f"declared degree {obj['deg']} != actual {poly.degree}")
        return poly

    def __repr__(self):
        return f"ComplexHomogPoly(dim={self.dim}, degree={self.degree}, nterms={len(self.terms)})"


@dataclass(frozen=True)
class WeightedSystem:
    """Polynomials with positive weights, sum delta_k^2 deg P_k <= 1."""

    items: tuple

    def __init__(self, items):
        items = tuple((p, _finite(d, "weight delta")) for p, d in items)
        if not items:
            raise ValueError("empty weighted system")
        if any(d <= 0 for _, d in items):
            raise ValueError("weights must be positive")
        dims = {p.dim for p, _ in items}
        if len(dims) != 1:
            raise ValueError("mixed dimensions in weighted system")
        D = sum(d * d * p.degree for p, d in items)
        if D > 1.0 + 1e-12:
            raise ValueError(f"weighted degree sum {D} exceeds 1")
        object.__setattr__(self, "items", items)

    @property
    def dim(self):
        return self.items[0][0].dim


def _canonical_phase(z):
    """z times the unit scalar conj(z_k) / |z_k|, where z_k is its coordinate
    of largest modulus (lowest index on ties): one representative of the
    unit-scalar orbit, the same whichever point of it the ascent reached."""
    k = int(np.argmax(np.abs(z)))
    r = abs(z[k])
    c, s = z[k].real / r, -z[k].imag / r
    # in real arithmetic: a complex product may fuse its multiply-adds, and
    # then the result of two points of one orbit differs by rounding
    out = np.empty_like(z)
    out.real = z.real * c - z.imag * s
    out.imag = z.real * s + z.imag * c
    return out


def _maximize_items(items, starts, seed):
    """Near-maximal pool of the weighted log objective, in the engine's order.

    The objective is constant on the orbits z -> e^(i phi) z, so the polish
    takes its Hessians as P H P, P = I - u u' with u = i z: Newton then steps
    on the horizontal space of CP^(d-1) = S^(2d-1)/U(1) (Absil, Mahony and
    Sepulchre 2008, sec. 3.4) and converges quadratically off a maximizer.
    """
    value, grad = _log_objective(items)
    d = items[0][0].dim

    def horizontal_grad(X, hessian=False):
        if not hessian:
            return grad(X)
        G, H = grad(X, hessian=True)
        U = np.concatenate([-X[:, d:], X[:, :d]], axis=1)  # i z in real coordinates
        P = np.eye(2 * d) - U[:, :, None] * U[:, None, :]
        return G, P @ H @ P

    X = sphere_starts(2 * d, _SCREEN * starts, seed)
    return near_max_on_sphere(value, horizontal_grad, X, starts)[1]


def _zeros_on_projective_line(poly):
    """Unit representatives of the zeros of a binary form (d = 2 only), one per
    root cluster of the chart P(w, 1) = sum coeffs[j] w^j, whatever its size:
    the rows of a read-only array that P keeps."""
    if poly._chart is None:
        n = poly.degree
        coeffs = np.zeros(n + 1, dtype=complex)  # coefficient of z1^j z2^(n-j)
        for (e1, e2), c in poly.terms:
            coeffs[e1] = c
        reps = [np.array([1.0 + 0j, 0.0 + 0j])] if coeffs[n] == 0 else []  # z2 divides P
        reps += [np.array([r, 1.0]) / np.linalg.norm([r, 1.0]) for r in _root_clusters(coeffs[::-1])[0]]
        poly._chart = np.array(reps, dtype=complex).reshape(-1, 2)
        poly._chart.flags.writeable = False
    return poly._chart


def complex_zero_distance(poly: ComplexHomogPoly, p, seed=0):
    """(distance, zero): min over zeros z on the sphere of arccos |<p, z>|, and z.

    Exact for tagged products of linear forms and for d = 2 (the chart's root
    clusters from ``trigcircle._root_clusters``, which P keeps).  Elsewhere
    an upper-bound estimate from the lockstep search of ``sphereopt`` for the
    largest Re <z, p> on Z(P), which equals the largest |<z, p>| as Z(P) is
    invariant under z -> e^(i phi) z.  ``zero`` is None exactly when nothing
    is found and the distance is +inf: for d = 1, where c z^n vanishes only
    at 0, off the unit circle (for d >= 2 only a constant has no zero on the
    sphere).
    """
    if poly.dim == 1:
        return math.inf, None
    p = np.asarray(p, dtype=complex)
    p = p / np.linalg.norm(p)

    if poly.linear_factors is not None:
        F = poly.linear_factors
        dists = [math.asin(min(1.0, abs(np.sum(row * p)) / np.linalg.norm(row))) for row in F]
        k = int(np.argmin(dists))
        best, best_row = dists[k], F[k]
        nr = np.linalg.norm(best_row)
        w = np.conj(best_row) / nr
        resid = p - np.sum(p * best_row) / nr * w
        nr2 = np.linalg.norm(resid)
        if nr2 < 1e-9:
            # p sits on the normal direction; any unit vector in the zero
            # plane is nearest
            basis = np.eye(poly.dim, dtype=complex)
            cand = [b - np.sum(b * best_row) / nr * w for b in basis]
            resid = max(cand, key=np.linalg.norm)
            nr2 = np.linalg.norm(resid)
        return best, resid / nr2

    if poly.dim == 2:
        zeros = ((hermitian_angle(p, z), z) for z in _zeros_on_projective_line(poly))
        return min(zeros, key=lambda t: t[0], default=(math.inf, None))

    z = _zero_distance_search(poly, p, seed)
    if z is None:
        return math.inf, None
    return hermitian_angle(p, z), z


@dataclass(frozen=True)
class ComplexGapReport:
    maximizer: np.ndarray  # complex unit vector
    distances: tuple
    bounds: tuple
    passed: tuple
    euclidean_distances: tuple  # sin of the angular distances
    cp1_radius: float | None

    @property
    def all_passed(self):
        return all(self.passed)


def _verify_items(items, bounds, seed, starts, tol) -> ComplexGapReport:
    """Check distance to each Z(P_k) >= bounds[k] at the maximizer of sum delta_k^2 log|P_k|:
    of the distinct near-maximizers, each in its canonical phase, the one
    whose smallest margin distance - bound is largest (:func:`_farthest`)."""
    pool = [_canonical_phase(_from_real(x, items[0][0].dim)) for x in _maximize_items(items, starts, seed)]

    def margins(z):
        dists = tuple(complex_zero_distance(p, z, seed=seed)[0] for p, _ in items)
        return min(d - b for d, b in zip(dists, bounds)), dists

    (_, dists), z = _farthest(pool, margins)
    return ComplexGapReport(
        maximizer=z,
        distances=dists,
        bounds=bounds,
        passed=tuple(d >= b - tol for d, b in zip(dists, bounds)),
        euclidean_distances=tuple(math.sin(d) if math.isfinite(d) else math.inf for d in dists),
        cp1_radius=None,
    )


def verify_complex_gap(poly: ComplexHomogPoly, seed=0, starts=64, tol=1e-6) -> ComplexGapReport:
    """Check distance >= arcsin(1/sqrt(deg)) at a maximizer of |P|.

    The one-item case of :func:`verify_weighted_gap`, delta = 1/sqrt(deg)
    (log|P| has the maximizers of delta^2 log|P|): each distinct
    near-maximizer, in its canonical phase, is measured once, and the
    farthest from Z(P) is reported.  For d = 2 it also reports
    ``cp1_radius``, the chart radius tan(distance) of the maximizer in the
    affine chart of the projective line centred at its nearest zero; the
    bound reads cp1_radius^2 >= 1/(deg - 1) there.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    rep = _verify_items(((poly, 1.0),), (math.asin(1.0 / math.sqrt(n)),), seed, starts, tol)
    dist = rep.distances[0]
    if poly.dim == 2 and math.isfinite(dist):
        rep = replace(rep, cp1_radius=math.tan(dist))
    return rep


def verify_weighted_gap(system: WeightedSystem, seed=0, starts=64, tol=1e-6) -> ComplexGapReport:
    """Check distance to each Z(P_k) >= arcsin(delta_k) at the weighted maximizer.

    Each distinct near-maximizer, in its canonical phase, is measured once,
    and the one whose smallest margin over the bounds is largest is reported.
    """
    bounds = tuple(math.asin(min(1.0, dk)) for _, dk in system.items)
    return _verify_items(system.items, bounds, seed, starts, tol)
