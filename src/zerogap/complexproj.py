"""Homogeneous complex polynomials on the unit sphere of C^d.

Points of C^d are carried as 2d real coordinates (real parts first, then
imaginary parts), so the sphere S^(2d-1) reuses the projected-ascent engine.
Weighted families maximize sum delta_k^2 log|P_k|, which realizes the
fractional-power product |P_1^(d1^2) ... P_N^(dN^2)| without ever raising a
complex number to a fractional power.

Angular distance between unit vectors is arccos of the magnitude of the
Hermitian inner product: the distance between the unit-scalar orbits, which
is the quantity the bounds below control.  In C^3 and up the distance to a
zero set comes from the lockstep Newton search of ``sphereopt`` on
Re P = Im P = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  unused; bench/tracing.py wraps complexproj.minimize

from .errors import VerificationError
from .polycore import _expand_product, _merge_terms, _rows, _term_gradient, _term_hessian, _term_values
from .sphereopt import LOG_FLOOR, ZERO_STANDIN, _zero_distance_search, near_max_on_sphere, sphere_starts

__all__ = [
    "ComplexHomogPoly",
    "WeightedSystem",
    "ComplexGapReport",
    "maximize_weighted_log",
    "complex_zero_distance",
    "verify_complex_gap",
    "chart_radius_check",
    "verify_weighted_gap",
    "hermitian_angle",
]

def to_complex(x):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    return x[..., :d] + 1j * x[..., d:]


def hermitian_angle(u, v):
    """arccos |<u, v>| for unit complex vectors."""
    ip = abs(np.sum(np.asarray(u) * np.conj(np.asarray(v))))
    return math.acos(min(1.0, ip))


class ComplexHomogPoly:
    """Sparse homogeneous polynomial in d complex variables, evaluated with
    ``polycore``'s term kernels."""

    __slots__ = ("dim", "degree", "terms", "linear_factors", "_tables", "_second")

    def __init__(self, dim, terms):
        self.terms = _merge_terms(dim, terms, 0j)
        degrees = {sum(e) for e, _ in self.terms}
        if len(degrees) != 1:
            raise ValueError(f"not homogeneous: term degrees {sorted(degrees)}")
        self.dim = int(dim)
        self.degree = degrees.pop()
        self.linear_factors = self._tables = self._second = None

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
        vals = _term_values(self, Z)
        return vals[0] if single else vals

    __call__ = eval

    def holomorphic_gradient(self, z):
        """Partial derivatives with respect to each complex variable."""
        Z, single = _rows(z, self.dim, complex)
        G = _term_gradient(self, Z)
        return G[0] if single else G

    def _hessian(self, z):
        """Second partial derivatives with respect to the complex variables."""
        Z, single = _rows(z, self.dim, complex)
        H = _term_hessian(self, Z)
        return H[0] if single else H

    def to_json(self):
        return {
            "dim": self.dim,
            "deg": self.degree,
            "terms": [{"e": list(e), "re": c.real, "im": c.imag} for e, c in self.terms],
        }

    @classmethod
    def from_json(cls, obj):
        poly = cls(obj["dim"], {tuple(t["e"]): complex(t["re"], t.get("im", 0.0)) for t in obj["terms"]})
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
        items = tuple((p, float(d)) for p, d in items)
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


def _weighted_log_objective(items):
    polys = [p for p, _ in items]
    weights = [d * d for _, d in items]

    def value(X):
        Z = to_complex(X)
        total = np.zeros(Z.shape[0])
        dead = np.zeros(Z.shape[0], dtype=bool)
        for poly, w in zip(polys, weights):
            v = np.abs(poly.eval(Z))
            dead |= v == 0.0
            with np.errstate(divide="ignore"):
                total = total + w * np.log(np.where(v == 0.0, 1.0, v))
        return np.where(dead, LOG_FLOOR, total)

    def grad(X):
        Z = to_complex(X)
        G = np.zeros(X.shape)
        d = Z.shape[1]
        for poly, w in zip(polys, weights):
            v = poly.eval(Z)
            v = np.where(v == 0, ZERO_STANDIN, v)
            ratio = poly.holomorphic_gradient(Z) / v[:, None]
            G[:, :d] += w * ratio.real
            G[:, d:] += w * -ratio.imag
        return G

    return value, grad


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
    """Near-maximal pool of the weighted log objective, sorted by coordinates."""
    value, grad = _weighted_log_objective(items)
    keep = near_max_on_sphere(value, grad, 2 * items[0][0].dim, starts, seed)
    return sorted((p for _, p in keep), key=tuple)


def maximize_weighted_log(system: WeightedSystem, starts=64, seed=0):
    """Maximizer of sum delta_k^2 log|P_k| on the unit sphere of C^d.

    Returns the point as 2d real coordinates (unit vector in R^(2d)).
    """
    pool = _maximize_items(system.items, starts, seed)
    return pool[0]


def _zeros_on_projective_line(poly):
    """Unit representatives of the zeros of a binary form (d = 2 only)."""
    n = poly.degree
    coeffs = np.zeros(n + 1, dtype=complex)  # coefficient of z1^j z2^(n-j)
    for (e1, e2), c in poly.terms:
        coeffs[e1] = c
    reps = []
    deg1 = max(j for j in range(n + 1) if coeffs[j] != 0)
    if deg1 < n:
        reps.append(np.array([1.0 + 0j, 0.0 + 0j]))  # z2 divides P
    if deg1 > 0:
        roots = np.roots(coeffs[: deg1 + 1][::-1])  # P(w, 1) = sum coeffs[j] w^j
        for r in roots:
            v = np.array([r, 1.0 + 0j])
            reps.append(v / np.linalg.norm(v))
    return reps


def complex_zero_distance(poly: ComplexHomogPoly, p, seed=0):
    """(distance, zero): min over zeros z on the sphere of arccos |<p, z>|, and z.

    Exact for tagged products of linear forms and for d = 2 (found through
    chart root isolation).  Elsewhere an upper-bound estimate from the
    lockstep search of ``sphereopt`` for the largest Re <z, p> on Z(P), which
    equals the largest |<z, p>| as Z(P) is invariant under z -> e^(i phi) z.
    ``zero`` is None exactly when nothing is found and the distance is +inf
    (for d >= 2 only a constant has no zero on the sphere).
    """
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
        best, best_zero = math.inf, None
        for z in _zeros_on_projective_line(poly):
            dist = hermitian_angle(p, z)
            if dist < best:
                best, best_zero = dist, z
        return best, best_zero

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

    def to_json(self):
        return {
            "maximizer": {
                "re": self.maximizer.real.tolist(),
                "im": self.maximizer.imag.tolist(),
            },
            "distances": list(self.distances),
            "bounds": list(self.bounds),
            "passed": list(self.passed),
            "euclidean_distances": list(self.euclidean_distances),
            "cp1_radius": self.cp1_radius,
        }


def verify_complex_gap(poly: ComplexHomogPoly, seed=0, starts=64, tol=1e-6) -> ComplexGapReport:
    """Check distance >= arcsin(1/sqrt(deg)) at a maximizer of |P|.

    The maximizer is reported, and measured, in its canonical phase.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    pool = [_canonical_phase(to_complex(x)) for x in _maximize_items(((poly, 1.0),), starts, seed)]
    scored = [(complex_zero_distance(poly, z, seed=seed)[0], z) for z in pool]
    dist, z = max(scored, key=lambda t: t[0])
    bound = math.asin(1.0 / math.sqrt(n))
    radius = None
    if poly.dim == 2 and math.isfinite(dist):
        radius = math.tan(dist)
    return ComplexGapReport(
        maximizer=z,
        distances=(dist,),
        bounds=(bound,),
        passed=(dist >= bound - tol,),
        euclidean_distances=(math.sin(dist) if math.isfinite(dist) else math.inf,),
        cp1_radius=radius,
    )


def chart_radius_check(poly: ComplexHomogPoly, zero, seed=0) -> float:
    """Chart radius of the |P|-maximizer in the affine chart centered at a zero.

    The chart places ``zero`` at the origin of the projective line (d = 2);
    the radius of the maximizer (64 starts) is tan of its Hermitian angle
    from the zero.  Raises when the squared radius falls below 1/(deg-1) by
    more than 1e-8, which no true maximizer can do.
    """
    if poly.dim != 2:
        raise ValueError("chart radius is defined on the projective line (dim 2)")
    n = poly.degree
    if n < 2:
        raise ValueError("need degree >= 2; degree 1 satisfies the pi/2 bound directly")
    zero = np.asarray(zero, dtype=complex)
    zero = zero / np.linalg.norm(zero)
    sample = poly.eval(to_complex(sphere_starts(2 * poly.dim, 128, seed + 5)))
    if abs(poly.eval(zero)) > 1e-8 * max(float(np.max(np.abs(sample))), 1e-300):
        raise ValueError("the supplied point is not a zero of the polynomial")
    pool = _maximize_items(((poly, 1.0),), 64, seed)
    p = to_complex(pool[0])
    angle = hermitian_angle(p, zero)
    a = math.tan(angle)
    if a * a < 1.0 / (n - 1) - 1e-8:
        raise VerificationError(
            f"chart radius {a} has a^2 < 1/(n-1) = {1.0 / (n - 1)}; maximizer cannot be this close"
        )
    return a


def verify_weighted_gap(system: WeightedSystem, seed=0, starts=64, tol=1e-6) -> ComplexGapReport:
    """Check distance to each Z(P_k) >= arcsin(delta_k) at the weighted maximizer.

    The maximizer is reported, and measured, in its canonical phase.
    """
    pool = _maximize_items(system.items, starts, seed)
    best = None
    for x in pool:
        z = _canonical_phase(to_complex(x))
        dists = tuple(complex_zero_distance(p, z, seed=seed)[0] for p, _ in system.items)
        worst = min(d - math.asin(min(1.0, dk)) for d, (_, dk) in zip(dists, system.items))
        if best is None or worst > best[0]:
            best = (worst, z, dists)
    _, z, dists = best
    bounds = tuple(math.asin(min(1.0, dk)) for _, dk in system.items)
    passed = tuple(d >= b - tol for d, b in zip(dists, bounds))
    return ComplexGapReport(
        maximizer=z,
        distances=dists,
        bounds=bounds,
        passed=passed,
        euclidean_distances=tuple(math.sin(d) if math.isfinite(d) else math.inf for d in dists),
        cp1_radius=None,
    )
