"""Sparse real multivariate polynomials, affine forms, and restriction to circles.

A polynomial is stored as a sorted tuple of (exponent-vector, coefficient)
pairs, or, for a product of affine forms, as its factor list, whose
expansion is computed only when ``terms`` is read.  The identically-zero
polynomial is rejected at construction: every bound computed downstream
divides by the degree or assumes a nonempty zero structure, so zero input is
an error, not a value.  The private term kernel ``_term_jet`` also serves
``complexproj.ComplexHomogPoly`` (it does not depend on the coefficient
dtype), the log objectives of ``sphereopt`` and ``complexproj`` and the
zero-set search of ``sphereopt``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .trigcircle import TrigPoly

__all__ = [
    "MultiPoly",
    "AffineForm",
    "CirclePlane",
    "product_of_affine_forms",
    "restrict_to_circle",
]

_UNIT_TOL = 1e-12


class MultiPoly:
    """Sparse polynomial in ``dim`` real variables.

    Terms are kept in lexicographic exponent order so that sums are evaluated
    in a reproducible sequence.  Instances are immutable by convention; all
    operations return new objects.
    """

    __slots__ = ("dim", "_terms", "degree", "affine_factors", "_tables", "_second")

    def __init__(self, dim, terms):
        self._terms = _merge_terms(dim, terms, 0.0)
        self.dim = int(dim)
        self.degree = max(sum(e) for e, _ in self._terms)
        self.affine_factors = self._tables = self._second = None

    @classmethod
    def from_affine_product(cls, forms):
        """Product of affine forms, kept factored; ``terms`` expands on first use.

        Evaluation and circle restriction go through the factor list, which
        is exact and avoids expanding, e.g., a 150-factor product in three
        variables; gradients and Hessians expand the terms.
        """
        forms = tuple(forms)
        if not forms:
            raise ValueError("empty form list")
        d = forms[0].dim
        if any(f.dim != d for f in forms):
            raise ValueError("affine forms of mixed dimension")
        obj = cls.__new__(cls)
        obj.dim = d
        obj.degree = len(forms)
        obj.affine_factors = forms
        obj._terms = obj._tables = obj._second = None
        return obj

    @property
    def terms(self):
        """Sorted (exponents, coefficient) pairs; a factored product expands here."""
        if self._terms is None:
            rows = [(f.normal, f.offset) for f in self.affine_factors]
            self._terms = _merge_terms(self.dim, _expand_product(self.dim, rows, 1.0), 0.0)
        return self._terms

    def eval(self, point):
        """Value at ``point``; ``point`` may also be an (N, dim) batch."""
        X, single = _rows(point, self.dim, float)
        if self.affine_factors is not None:
            vals = np.ones(X.shape[0])
            for f in self.affine_factors:
                vals = vals * (X @ f.normal - f.offset)
        else:
            vals = _term_jet(self, X, "v")[0]
        return float(vals[0]) if single else vals

    def gradient(self, point):
        """Gradient at ``point`` from the expanded terms; batches as in :meth:`eval`."""
        X, single = _rows(point, self.dim, float)
        G = _term_jet(self, X, "g")[1]
        return G[0] if single else G

    __call__ = eval

    def __repr__(self):
        if self.affine_factors is not None:
            return f"MultiPoly(dim={self.dim}, degree={self.degree}, factored x{len(self.affine_factors)})"
        return f"MultiPoly(dim={self.dim}, degree={self.degree}, nterms={len(self.terms)})"

    def to_json(self):
        return {"dim": self.dim, "terms": [{"e": list(e), "c": c} for e, c in self.terms]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["dim"], [(t["e"], t["c"]) for t in obj["terms"]])


def _merge_terms(dim, terms, zero):
    """Sorted nonzero (exponents, coefficient) pairs from a dict or a list of
    pairs, coefficients of equal exponents summed in the order given, in the
    type of ``zero`` (0.0 or 0j); rejects a bad dimension or exponent vector,
    a coefficient that is not finite and the identically-zero polynomial."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    merged = {}
    for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
        e = tuple(_whole(x, "e") for x in exps)
        if len(e) != dim:
            raise ValueError(f"exponent vector {e} does not match dim {dim}")
        if any(x < 0 for x in e):
            raise ValueError(f"negative exponent in {e}")
        coeff = type(zero)(coeff)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient of exponents {e} must be finite, got {coeff}")
        merged[e] = merged.get(e, zero) + coeff
    merged = {e: c for e, c in merged.items() if c != 0}
    if not merged:
        raise ValueError("the identically-zero polynomial is not accepted")
    return tuple(sorted(merged.items()))


def _whole(value, name):
    """``value`` as an int; ValueError naming it unless it is a whole number:
    an integer (numpy integers too, booleans not) or a float with no
    fractional part, so 2.0 reads as 2."""
    if type(value) is int:  # the common case, before the slower abstract-class check
        return value
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f'"{name}" must be an integer, got {value!r}')
    return int(value)


def _finite(number, name):
    """``number`` as a float; ValueError naming it unless it is finite."""
    x = float(number)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _finite_vector(vector, name):
    """``vector`` as a float array; ValueError naming it unless every entry is finite."""
    a = np.asarray(vector, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a.tolist()}")
    return a


def _expand_product(dim, rows, one):
    """Unmerged terms of prod_i (<a_i, x> - b_i) for ``rows`` of (a_i, b_i)."""
    terms = {(0,) * dim: one}
    for a, b in rows:
        nxt = {}
        for exps, coeff in terms.items():
            for j in range(dim):
                if a[j] != 0.0:
                    key = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                    nxt[key] = nxt.get(key, 0.0) + coeff * a[j]
            if b != 0.0:
                nxt[exps] = nxt.get(exps, 0.0) - coeff * b
        terms = nxt
    return terms


def _term_tables(poly):
    """(K, I, C, Ef, If, Cf) of ``poly.terms``, built once.  Row t of I holds
    the :func:`_flat` indices of term t's powers (every exponent is below K)
    and C[t] its coefficient; Ef[j], If[j] and Cf[j] are the exponents,
    indices and coefficients of d/dx_j, clipped at 0 where Cf is 0."""
    if poly._tables is None:
        E = np.array([e for e, _ in poly.terms], dtype=np.int64)
        C = np.array([c for _, c in poly.terms])
        K = int(E.max()) + 1
        Ef = np.maximum(E - np.eye(poly.dim, dtype=np.int64)[:, None, :], 0)
        Cf = np.stack([C * E[:, j] for j in range(poly.dim)])
        poly._tables = (K, _flat(E, K), C, Ef, _flat(Ef, K), Cf)
    return poly._tables


def _flat(E, K):
    """Indices i*K + e_i of the powers of exponent vectors E in a :func:`_powers` table."""
    return np.arange(E.shape[-1]) * K + E


def _rows(point, dim, dtype):
    """(rows, whether ``point`` was a single point) after checking the dimension."""
    x = np.asarray(point, dtype=dtype)
    if x.shape[-1] != dim:
        raise ValueError(f"point dimension {x.shape[-1]} != poly dim {dim}")
    return np.atleast_2d(x), x.ndim == 1


def _powers(X, K):
    """pow(x, k) for each coordinate x of each row of X and k < K, flattened per row."""
    n, d = X.shape
    return (X[:, :, None] ** np.arange(K)).reshape(n, d * K)


def _monomials(powers, I):
    """x^e for each row x and each exponent vector e with indices I (any leading shape).

    Equals ``np.prod(X[:, None, :] ** E, axis=-1)`` bit for bit at one pow per
    coordinate and exponent value: the factors are multiplied in np.prod's
    order, and the C-contiguous copy makes a matmul after it round the same.
    """
    factors = np.take(powers, I, axis=1)
    out = factors[..., 0].copy()
    for i in range(1, I.shape[-1]):
        out *= factors[..., i]
    return out


def _term_jet(poly, X, parts):
    """(P, grad P, Hess P) at each row of X from the expanded terms and one
    :func:`_powers` table; each is computed only if its letter ("v", "g",
    "h") is in ``parts``, and is None otherwise."""
    K, I, C, Ef, If, Cf = _term_tables(poly)
    powers = _powers(X, K)
    v = _monomials(powers, I) @ C if "v" in parts else None
    G = H = None
    if "g" in parts:
        G = np.empty((X.shape[0], poly.dim), dtype=C.dtype)
        for j in range(poly.dim):
            G[:, j] = _monomials(powers, If[j]) @ Cf[j]
    if "h" in parts:
        if poly._second is None:
            # (j, k, indices, coefficients) of d^2/dx_j dx_k for j <= k, built once
            unit = np.eye(poly.dim, dtype=np.int64)
            poly._second = [
                (j, k, _flat(np.maximum(Ef[j] - unit[k], 0), K), Cf[j] * Ef[j][:, k])
                for j in range(poly.dim)
                for k in range(j, poly.dim)
            ]
        H = np.empty((X.shape[0], poly.dim, poly.dim), dtype=C.dtype)
        for j, k, Ijk, Cjk in poly._second:
            H[:, j, k] = H[:, k, j] = _monomials(powers, Ijk) @ Cjk
    return v, G, H


@dataclass(frozen=True)
class AffineForm:
    """L(x) = <normal, x> - offset with a unit normal."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset):
        a = _finite_vector(normal, "affine form normal")
        offset = _finite(offset, "affine form offset")
        norm = float(np.linalg.norm(a))
        if norm < _UNIT_TOL:
            raise ValueError("affine form normal must be nonzero")
        object.__setattr__(self, "normal", a / norm)
        object.__setattr__(self, "offset", offset)
        self.normal.setflags(write=False)

    @property
    def dim(self):
        return self.normal.shape[0]

    def eval(self, point):
        return np.asarray(point, dtype=float) @ self.normal - self.offset

    def to_json(self):
        return {"a": self.normal.tolist(), "b": self.offset}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["a"], obj["b"])


@dataclass(frozen=True)
class CirclePlane:
    """Great circle x(theta) = u cos theta + v sin theta of the unit sphere."""

    u: np.ndarray
    v: np.ndarray

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if abs(nu - 1.0) > 1e-6 or abs(nv - 1.0) > 1e-6:
            raise ValueError("u and v must be unit vectors")
        u, v = u / nu, v / nv
        if abs(float(u @ v)) > _UNIT_TOL:
            raise ValueError("u and v must be orthogonal")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        self.u.setflags(write=False)
        self.v.setflags(write=False)

    @property
    def dim(self):
        return self.u.shape[0]


def product_of_affine_forms(forms) -> MultiPoly:
    """Product of affine forms; degree equals the number of forms."""
    return MultiPoly.from_affine_product(forms)


def restrict_to_circle(poly: MultiPoly, plane: CirclePlane) -> TrigPoly:
    """Restriction of ``poly`` to the circle, as a trigonometric polynomial.

    Each coordinate on the circle is a degree-1 Fourier series, kept as its
    centered coefficient array; products are expanded by convolving those
    arrays, which reproduces the exact product-to-sum trigonometric
    identities with no sampling step, so exact cancellations stay exact
    (x^2 + y^2 - 1 on the unit circle gives the zero series).  A factored
    product convolves its factors; expanded terms are grouped by the
    exponents of all but the last variable (see :func:`_circle_series`).
    The series holds (a_k - i b_k) / 2 at power k > 0, so its upper half
    gives the coefficient pairs directly.
    """
    series = _circle_series(poly, plane)
    n = (len(series) - 1) // 2
    upper = series[n + 1 :]
    return TrigPoly(series[n].real, np.column_stack((2.0 * upper.real, -2.0 * upper.imag)), trim=True)


def _circle_series(poly: MultiPoly, plane: CirclePlane):
    """Centered complex Fourier series (powers -n .. n) of poly on the circle.

    Expanded terms: row k of variable i's table is the series of x_i^k, by
    repeated convolution, padded to the table's width.  The terms sharing a
    prefix (the exponents of x_1 .. x_(d-1)) make one row of a complex
    coefficient matrix indexed by the last exponent, and one matrix product
    with the last variable's table sums each row's series in x_d; each row is
    then convolved with the series of its prefix's powers (once per prefix
    in d = 2) and added in.
    """
    if plane.dim != poly.dim:
        raise ValueError(f"plane dimension {plane.dim} != poly dim {poly.dim}")
    base = []
    for i in range(poly.dim):
        cp = (plane.u[i] - 1j * plane.v[i]) / 2.0
        base.append(np.array([np.conj(cp), 0.0, cp], dtype=complex))

    if poly.affine_factors is not None:
        acc = np.array([1.0 + 0j])
        for f in poly.affine_factors:
            fac = np.array([0.0 + 0j, -f.offset, 0.0 + 0j], dtype=complex)
            for i in range(poly.dim):
                if f.normal[i] != 0.0:
                    fac = fac + f.normal[i] * base[i]
            acc = np.convolve(acc, fac)
        return acc
    E = np.array([e for e, _ in poly.terms])
    tables = [_power_table(b, top) for b, top in zip(base, E.max(axis=0))]
    # terms are sorted, so the terms of each prefix are one run of rows
    first = np.append(True, np.any(E[1:, :-1] != E[:-1, :-1], axis=1))
    starts = np.flatnonzero(first)
    coeffs = np.zeros((len(starts), len(tables[-1])), complex)
    coeffs[np.cumsum(first) - 1, E[:, -1]] = [c for _, c in poly.terms]
    deg = poly.degree
    series = np.zeros(2 * deg + 1, dtype=complex)
    for prefix, h, row in zip(E[starts, :-1], np.maximum.reduceat(E[:, -1], starts), coeffs @ tables[-1]):
        mono = _centred(row, h)
        for table, ei in zip(tables, prefix):
            if ei:
                mono = np.convolve(mono, _centred(table[ei], ei))
        k = (len(mono) - 1) // 2
        series[deg - k : deg + k + 1] += mono
    return series


def _power_table(b, top):
    """Rows k = 0 .. top: the centred series of x^k, for b that of x, each
    padded to 2 top + 1 powers."""
    table, row = np.zeros((top + 1, 2 * top + 1), complex), np.ones(1, complex)
    table[0, top] = 1.0
    for k in range(1, top + 1):
        row = np.convolve(row, b)
        table[k, top - k : top + k + 1] = row
    return table


def _centred(row, k):
    """Powers -k .. k of a centred series."""
    mid = len(row) // 2
    return row[mid - k : mid + k + 1]
