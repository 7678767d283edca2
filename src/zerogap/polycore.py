"""Sparse real multivariate polynomials, affine forms, and restriction to circles.

A polynomial is stored as a sorted tuple of (exponent-vector, coefficient)
pairs, or, for a product of affine forms, as its factor list, whose
expansion is computed only when ``terms`` is read.  The identically-zero
polynomial is rejected at construction: every bound computed downstream
divides by the degree or assumes a nonempty zero structure, so zero input is
an error, not a value.
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

    __slots__ = ("dim", "_terms", "degree", "affine_factors", "_arrays", "_derivs")

    def __init__(self, dim, terms):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        merged = {}
        for exps, coeff in dict(terms).items():
            e = tuple(int(x) for x in exps)
            if len(e) != dim:
                raise ValueError(f"exponent vector {e} does not match dim {dim}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = merged.get(e, 0.0) + float(coeff)
            merged[e] = c
        merged = {e: c for e, c in merged.items() if c != 0.0}
        if not merged:
            raise ValueError("the identically-zero polynomial is not accepted")
        self.dim = int(dim)
        self._terms = tuple(sorted(merged.items()))
        self.degree = max(sum(e) for e, _ in self._terms)
        self.affine_factors = None
        self._arrays = None
        self._derivs = None

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
        obj._terms = None
        obj.degree = len(forms)
        obj.affine_factors = forms
        obj._arrays = None
        obj._derivs = None
        return obj

    @property
    def terms(self):
        """Sorted (exponents, coefficient) pairs; a factored product expands here."""
        if self._terms is None:
            terms = {(0,) * self.dim: 1.0}
            for f in self.affine_factors:
                nxt = {}
                for exps, coeff in terms.items():
                    for j in range(self.dim):
                        if f.normal[j] != 0.0:
                            e = list(exps)
                            e[j] += 1
                            key = tuple(e)
                            nxt[key] = nxt.get(key, 0.0) + coeff * f.normal[j]
                    if f.offset != 0.0:
                        nxt[exps] = nxt.get(exps, 0.0) - coeff * f.offset
                terms = nxt
            self._terms = tuple(sorted((e, c) for e, c in terms.items() if c != 0.0))
        return self._terms

    def _term_arrays(self):
        if self._arrays is None:
            E = np.array([e for e, _ in self.terms], dtype=np.int64)
            C = np.array([c for _, c in self.terms], dtype=float)
            self._arrays = (E, C)
        return self._arrays

    def _derivative_tables(self):
        """(exponents, coefficients) of every first and second partial, built once.

        ``first[j]`` belongs to d/dx_j and ``second`` lists (j, k, exponents,
        coefficients) for d^2/dx_j dx_k, j <= k.  An exponent that would go
        negative is clipped to zero; its coefficient is zero.
        """
        if self._derivs is None:
            E, C = self._term_arrays()
            first, second = [], []
            for j in range(self.dim):
                Ej = E.copy()
                expo = Ej[:, j].copy()
                Ej[:, j] = np.maximum(expo - 1, 0)
                first.append((Ej, C * expo))
            for j, (Ej, Cj) in enumerate(first):
                for k in range(j, self.dim):
                    Ejk = Ej.copy()
                    Ejk[:, k] = np.maximum(Ej[:, k] - 1, 0)
                    second.append((j, k, Ejk, Cj * Ej[:, k]))
            self._derivs = (first, second)
        return self._derivs

    def _powers(self, X):
        """pow(x, k) for each coordinate of each row of X and k up to the largest exponent."""
        E, _ = self._term_arrays()
        return X[:, :, None] ** np.arange(E.max() + 1)

    def _batch(self, point):
        """(rows, whether ``point`` was a single point) after checking the dimension."""
        x = np.asarray(point, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != poly dim {self.dim}")
        return np.atleast_2d(x), x.ndim == 1

    def eval(self, point):
        """Value at ``point``; ``point`` may also be an (N, dim) batch."""
        X, single = self._batch(point)
        if self.affine_factors is not None:
            vals = np.ones(X.shape[0])
            for f in self.affine_factors:
                vals = vals * (X @ f.normal - f.offset)
        else:
            E, C = self._term_arrays()
            vals = _monomials(self._powers(X), E) @ C
        return float(vals[0]) if single else vals

    def gradient(self, point):
        """Gradient at ``point``; batches as in :meth:`eval`."""
        X, single = self._batch(point)
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
            first, _ = self._derivative_tables()
            powers = self._powers(X)
            G = np.empty((n_pts, self.dim))
            for j, (Ej, Cj) in enumerate(first):
                G[:, j] = _monomials(powers, Ej) @ Cj
        return G[0] if single else G

    def _hessian(self, point):
        """Exact Hessian at ``point`` from the expanded terms; batches as in :meth:`eval`."""
        X, single = self._batch(point)
        _, second = self._derivative_tables()
        powers = self._powers(X)
        H = np.empty((X.shape[0], self.dim, self.dim))
        for j, k, Ejk, Cjk in second:
            H[:, j, k] = H[:, k, j] = _monomials(powers, Ejk) @ Cjk
        return H[0] if single else H

    def __call__(self, point):
        return self.eval(point)

    def __repr__(self):
        if self.affine_factors is not None:
            return f"MultiPoly(dim={self.dim}, degree={self.degree}, factored x{len(self.affine_factors)})"
        return f"MultiPoly(dim={self.dim}, degree={self.degree}, nterms={len(self.terms)})"

    def to_json(self):
        return {"dim": self.dim, "terms": [{"e": list(e), "c": c} for e, c in self.terms]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["dim"], {tuple(t["e"]): t["c"] for t in obj["terms"]})


def _monomials(powers, E):
    """x^e for each row x and each exponent vector e in E (any leading shape).

    The powers are looked up in a ``MultiPoly._powers`` table, so the result
    equals ``np.prod(X[:, None, :] ** E, axis=-1)`` bit for bit at one pow per
    coordinate and exponent value instead of one per coordinate and term.
    """
    n, d, k = powers.shape
    # np.take keeps the (rows, ..., d) result C-contiguous, as the pow result
    # was, so the products and the matmul after them round the same way
    return np.prod(np.take(powers.reshape(n, d * k), np.arange(d) * k + E, axis=1), axis=-1)


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


def _conv_center(a, b):
    # convolution of centered Fourier coefficient arrays
    return np.convolve(a, b)


def restrict_to_circle(poly: MultiPoly, plane: CirclePlane) -> TrigPoly:
    """Restriction of ``poly`` to the circle, as a trigonometric polynomial.

    Each coordinate on the circle is a degree-1 Fourier series; monomials are
    expanded by convolving those series, which reproduces the exact
    product-to-sum trigonometric identities with no sampling step.
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
            acc = _conv_center(acc, fac)
        series = acc
    else:
        max_exp = [0] * poly.dim
        for e, _ in poly.terms:
            for i, ei in enumerate(e):
                max_exp[i] = max(max_exp[i], ei)
        # powers[i][k] = Fourier series of x_i(theta)**k
        powers = []
        for i in range(poly.dim):
            ps = [np.array([1.0 + 0j])]
            for _ in range(max_exp[i]):
                ps.append(_conv_center(ps[-1], base[i]))
            powers.append(ps)
        deg = poly.degree
        series = np.zeros(2 * deg + 1, dtype=complex)
        for e, c in poly.terms:
            mono = np.array([complex(c)])
            for i, ei in enumerate(e):
                if ei:
                    mono = _conv_center(mono, powers[i][ei])
            k = (len(mono) - 1) // 2
            series[deg - k : deg + k + 1] += mono

    n = (len(series) - 1) // 2
    a0 = float(series[n].real)
    pairs = [(2.0 * series[n + k].real, -2.0 * series[n + k].imag) for k in range(1, n + 1)]
    return TrigPoly(a0, pairs, trim=True)
