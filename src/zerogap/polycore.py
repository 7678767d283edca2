"""Sparse real multivariate polynomials, affine forms, and restriction to circles.

A polynomial is stored as a sorted tuple of (exponent-vector, coefficient)
pairs, or, for a product of affine forms, as its factor list, whose
expansion is computed only when ``terms`` is read.  The identically-zero
polynomial is rejected at construction: every bound computed downstream
divides by the degree or assumes a nonempty zero structure, so zero input is
an error, not a value.  The private term kernels here also serve
``complexproj.ComplexHomogPoly``: none depends on the coefficient dtype.
"""

from __future__ import annotations

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

        Evaluation, gradients and circle restriction go through the factor
        list, which is exact and avoids expanding, e.g., a 150-factor product
        in three variables.
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
            vals = _term_values(self, X)
        return float(vals[0]) if single else vals

    def gradient(self, point):
        """Gradient at ``point``; batches as in :meth:`eval`."""
        X, single = _rows(point, self.dim, float)
        n_pts = X.shape[0]
        if self.affine_factors is not None:
            m = len(self.affine_factors)
            A = np.array([f.normal for f in self.affine_factors])
            b = np.array([f.offset for f in self.affine_factors])
            L = X @ A.T - b
            # prefix/suffix products over factors keep the gradient exact at zeros
            pre = np.ones((n_pts, m + 1))
            suf = np.ones((n_pts, m + 1))
            for i in range(m):
                pre[:, i + 1] = pre[:, i] * L[:, i]
                suf[:, m - 1 - i] = suf[:, m - i] * L[:, m - 1 - i]
            G = (pre[:, :m] * suf[:, 1:]) @ A
        else:
            G = _term_gradient(self, X)
        return G[0] if single else G

    def _hessian(self, point):
        """Exact Hessian at ``point`` from the expanded terms; batches as in :meth:`eval`."""
        X, single = _rows(point, self.dim, float)
        H = _term_hessian(self, X)
        return H[0] if single else H

    __call__ = eval

    def __repr__(self):
        if self.affine_factors is not None:
            return f"MultiPoly(dim={self.dim}, degree={self.degree}, factored x{len(self.affine_factors)})"
        return f"MultiPoly(dim={self.dim}, degree={self.degree}, nterms={len(self.terms)})"

    def to_json(self):
        return {"dim": self.dim, "terms": [{"e": list(e), "c": c} for e, c in self.terms]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["dim"], {tuple(t["e"]): t["c"] for t in obj["terms"]})


def _merge_terms(dim, terms, zero):
    """Sorted nonzero (exponents, coefficient) pairs, coefficients of equal
    exponents summed in the type of ``zero`` (0.0 or 0j); rejects a bad
    dimension or exponent vector and the identically-zero polynomial."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    merged = {}
    for exps, coeff in dict(terms).items():
        e = tuple(int(x) for x in exps)
        if len(e) != dim:
            raise ValueError(f"exponent vector {e} does not match dim {dim}")
        if any(x < 0 for x in e):
            raise ValueError(f"negative exponent in {e}")
        merged[e] = merged.get(e, zero) + type(zero)(coeff)
    merged = {e: c for e, c in merged.items() if c != 0}
    if not merged:
        raise ValueError("the identically-zero polynomial is not accepted")
    return tuple(sorted(merged.items()))


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


def _term_values(poly, X):
    """P at each row of X, from the expanded terms."""
    K, I, C, _, _, _ = _term_tables(poly)
    return _monomials(_powers(X, K), I) @ C


def _term_gradient(poly, X):
    """Partial derivatives of P at each row of X, from the expanded terms."""
    K, _, C, _, If, Cf = _term_tables(poly)
    powers = _powers(X, K)
    G = np.empty((X.shape[0], poly.dim), dtype=C.dtype)
    for j in range(poly.dim):
        G[:, j] = _monomials(powers, If[j]) @ Cf[j]
    return G


def _term_hessian(poly, X):
    """Second partial derivatives of P at each row of X, from the expanded terms."""
    K, _, C, Ef, _, Cf = _term_tables(poly)
    if poly._second is None:
        # (j, k, indices, coefficients) of d^2/dx_j dx_k for j <= k, built once
        unit = np.eye(poly.dim, dtype=np.int64)
        poly._second = [
            (j, k, _flat(np.maximum(Ef[j] - unit[k], 0), K), Cf[j] * Ef[j][:, k])
            for j in range(poly.dim)
            for k in range(j, poly.dim)
        ]
    powers = _powers(X, K)
    H = np.empty((X.shape[0], poly.dim, poly.dim), dtype=C.dtype)
    for j, k, Ijk, Cjk in poly._second:
        H[:, j, k] = H[:, k, j] = _monomials(powers, Ijk) @ Cjk
    return H


@dataclass(frozen=True)
class AffineForm:
    """L(x) = <normal, x> - offset with a unit normal."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset):
        a = np.asarray(normal, dtype=float)
        norm = float(np.linalg.norm(a))
        if norm < _UNIT_TOL:
            raise ValueError("affine form normal must be nonzero")
        object.__setattr__(self, "normal", a / norm)
        object.__setattr__(self, "offset", float(offset))
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
    """Circle x(theta) = center + radius*(u cos theta + v sin theta)."""

    u: np.ndarray
    v: np.ndarray
    radius: float = 1.0
    center: np.ndarray = None

    def __init__(self, u, v, radius=1.0, center=None):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if abs(nu - 1.0) > 1e-6 or abs(nv - 1.0) > 1e-6:
            raise ValueError("u and v must be unit vectors")
        u, v = u / nu, v / nv
        if abs(float(u @ v)) > _UNIT_TOL:
            raise ValueError("u and v must be orthogonal")
        if radius <= 0:
            raise ValueError("radius must be positive")
        if center is None:
            center = np.zeros_like(u)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "center", np.asarray(center, dtype=float))
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        self.center.setflags(write=False)

    @property
    def dim(self):
        return self.u.shape[0]

    def point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return (
            self.center
            + self.radius * np.multiply.outer(np.cos(theta), self.u)
            + self.radius * np.multiply.outer(np.sin(theta), self.v)
        )


def product_of_affine_forms(forms) -> MultiPoly:
    """Product of affine forms; degree equals the number of forms."""
    return MultiPoly.from_affine_product(forms)


def restrict_to_circle(poly: MultiPoly, plane: CirclePlane) -> TrigPoly:
    """Restriction of ``poly`` to the circle, as a trigonometric polynomial.

    Each coordinate on the circle is a degree-1 Fourier series, kept as its
    centered coefficient array; monomials are expanded by convolving those
    arrays, which reproduces the exact product-to-sum trigonometric
    identities with no sampling step.
    """
    if plane.dim != poly.dim:
        raise ValueError(f"plane dimension {plane.dim} != poly dim {poly.dim}")
    base = []
    for i in range(poly.dim):
        cp = plane.radius * (plane.u[i] - 1j * plane.v[i]) / 2.0
        base.append(np.array([np.conj(cp), plane.center[i], cp], dtype=complex))

    if poly.affine_factors is not None:
        acc = np.array([1.0 + 0j])
        for f in poly.affine_factors:
            fac = np.array([0.0 + 0j, -f.offset, 0.0 + 0j], dtype=complex)
            for i in range(poly.dim):
                if f.normal[i] != 0.0:
                    fac = fac + f.normal[i] * base[i]
            acc = np.convolve(acc, fac)
        series = acc
    else:
        max_exp = np.max([e for e, _ in poly.terms], axis=0)
        # powers[i][k] = Fourier series of x_i(theta)**k
        powers = []
        for i in range(poly.dim):
            ps = [np.array([1.0 + 0j])]
            for _ in range(max_exp[i]):
                ps.append(np.convolve(ps[-1], base[i]))
            powers.append(ps)
        deg = poly.degree
        series = np.zeros(2 * deg + 1, dtype=complex)
        for e, c in poly.terms:
            mono = np.array([complex(c)])
            for i, ei in enumerate(e):
                if ei:
                    mono = np.convolve(mono, powers[i][ei])
            k = (len(mono) - 1) // 2
            series[deg - k : deg + k + 1] += mono

    n = (len(series) - 1) // 2
    a0 = float(series[n].real)
    pairs = [(2.0 * series[n + k].real, -2.0 * series[n + k].imag) for k in range(1, n + 1)]
    return TrigPoly(a0, pairs, trim=True)
