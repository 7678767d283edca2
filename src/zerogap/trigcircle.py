"""Trigonometric polynomials on the circle: zeros, extrema, gap certificates.

Zero isolation goes through the substitution z = e^{i theta}, which turns a
degree-n trigonometric polynomial into an algebraic polynomial of degree 2n
whose roots are found as companion-matrix eigenvalues.  Roots near the unit
circle are pulled back to angles and polished by Newton iteration; clusters
of polished angles give multiplicities, confirmed through derivative
magnitudes.  A nonzero trigonometric polynomial of degree n has at most 2n
zeros on the circle counted with multiplicity, which bounds everything the
certificates below count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrigPoly",
    "CircleZero",
    "CircleZeroSet",
    "ZeroGapReport",
    "trig_zeros",
    "trig_max_points",
    "min_max_to_zero_distance",
    "zero_gap_certificate",
    "interlacing_check",
    "circle_distance",
]

TWO_PI = 2.0 * math.pi

# trailing Fourier pairs with both entries below this (relative) size are
# regarded as absent when the degree is tightened
_DEGREE_TRIM = 1e-14
# companion roots farther than this from the unit circle are discarded before
# refinement; multiplicity-m circle zeros perturb eigenvalues by
# O(eps^(1/m)), about 1e-8 for double and 1e-4 for quadruple zeros
_RADIAL_CAPTURE = 1e-4
_CLUSTER_TOL = 1e-6
_RESIDUAL_TOL = 1e-8
_DERIV_TOL = 1e-6
# angles evaluated per block in TrigPoly.eval, which bounds its work array to
# (2n + 1) x _EVAL_BLOCK doubles however many angles are asked for
_EVAL_BLOCK = 256
# sample grid of TrigPoly.sup_norm
_SUP_GRID = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
_SUP_GRID.setflags(write=False)


class TrigPoly:
    """T(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta)."""

    __slots__ = ("a0", "coeffs", "degree", "_sup")

    def __init__(self, a0, coeffs=(), trim=False):
        a0 = float(a0)
        pairs = [(float(a), float(b)) for a, b in coeffs]
        if trim:
            scale = max([abs(a0)] + [max(abs(a), abs(b)) for a, b in pairs])
            while pairs and max(abs(pairs[-1][0]), abs(pairs[-1][1])) <= _DEGREE_TRIM * scale:
                pairs.pop()
        if pairs and max(abs(pairs[-1][0]), abs(pairs[-1][1])) == 0.0:
            raise ValueError("leading coefficient pair is zero; pass trim=True or drop it")
        self.a0 = a0
        self.coeffs = tuple(pairs)
        self.degree = len(pairs)
        self._sup = None

    def eval(self, theta):
        """T at each angle; a float for a scalar angle, else an array.

        The terms a0, a1 cos theta, b1 sin theta, a2 cos 2 theta, ... are
        added one at a time in that order (a running sum down the frequency
        axis), so each value is bit-identical to the plain loop over k.
        """
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        out = np.empty(flat.shape)
        pairs = np.array(self.coeffs).reshape(-1, 2)
        freqs = np.arange(1.0, self.degree + 1.0)
        terms = np.empty((2 * self.degree + 1, min(flat.size, _EVAL_BLOCK)))
        for start in range(0, flat.size, _EVAL_BLOCK):
            block = flat[start : start + _EVAL_BLOCK]
            width = block.size
            angles = np.multiply.outer(freqs, block)
            terms[0, :width] = self.a0
            np.multiply(pairs[:, :1], np.cos(angles), out=terms[1::2, :width])
            np.multiply(pairs[:, 1:], np.sin(angles), out=terms[2::2, :width])
            np.add.accumulate(terms[:, :width], axis=0, out=terms[:, :width])
            out[start : start + width] = terms[-1, :width]
        out = out.reshape(theta.shape)
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def derivative(self) -> "TrigPoly":
        pairs = [(k * b, -k * a) for k, (a, b) in enumerate(self.coeffs, start=1)]
        return TrigPoly(0.0, pairs, trim=False) if pairs else TrigPoly(0.0)

    def shift(self, s) -> "TrigPoly":
        """T(theta + s) as a new TrigPoly."""
        pairs = []
        for k, (a, b) in enumerate(self.coeffs, start=1):
            c, sn = math.cos(k * s), math.sin(k * s)
            pairs.append((a * c + b * sn, -a * sn + b * c))
        return TrigPoly(self.a0, pairs, trim=False)

    def __add__(self, other):
        n = max(self.degree, other.degree)
        pairs = []
        for k in range(1, n + 1):
            a1, b1 = self.coeffs[k - 1] if k <= self.degree else (0.0, 0.0)
            a2, b2 = other.coeffs[k - 1] if k <= other.degree else (0.0, 0.0)
            pairs.append((a1 + a2, b1 + b2))
        return TrigPoly(self.a0 + other.a0, pairs, trim=True)

    def scaled(self, c) -> "TrigPoly":
        return TrigPoly(c * self.a0, [(c * a, c * b) for a, b in self.coeffs], trim=False)

    def sup_norm(self):
        """max |T| over 4096 equally spaced angles, sampled once per polynomial."""
        if self._sup is None:
            self._sup = float(np.max(np.abs(self.eval(_SUP_GRID))))
        return self._sup

    def is_trivially_zero(self):
        return self.a0 == 0.0 and all(a == 0.0 and b == 0.0 for a, b in self.coeffs)

    def to_json(self):
        return {"n": self.degree, "a0": self.a0, "c": [[a, b] for a, b in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        pairs = [tuple(p) for p in obj["c"]]
        if "n" in obj and obj["n"] != len(pairs):
            raise ValueError(f'"n" is {obj["n"]} but "c" holds {len(pairs)} coefficient pairs')
        return cls(obj["a0"], pairs, trim=True)

    def __repr__(self):
        return f"TrigPoly(degree={self.degree})"


@dataclass(frozen=True)
class CircleZero:
    theta: float
    multiplicity: int


@dataclass(frozen=True)
class CircleZeroSet:
    zeros: tuple

    @property
    def total_multiplicity(self):
        return sum(z.multiplicity for z in self.zeros)

    @property
    def angles(self):
        return [z.theta for z in self.zeros]

    def __len__(self):
        return len(self.zeros)

    def __iter__(self):
        return iter(self.zeros)


@dataclass(frozen=True)
class ZeroGapReport:
    """Outcome of the cosine-comparison certificate for one trig polynomial.

    ``q_identically_zero`` marks the extremal case where the shifted input is
    exactly -+M cos(n theta); then zeros and maximizers are equally spaced
    and the gap equals the bound.  ``zeros`` are the zeros of T the gap was
    measured against.
    """

    max_points: tuple
    max_value: float
    zeros: CircleZeroSet
    min_distance: float
    bound: float
    passed: bool
    q_identically_zero: bool
    q_zero_multiplicity: int


def circle_distance(t1, t2):
    """Shorter arc length between two angles."""
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def _check_nonzero(T: TrigPoly):
    if T.is_trivially_zero():
        raise ValueError("identically-zero trigonometric polynomial")


def _companion_angles(T: TrigPoly):
    """Angles of roots of z^n T(theta(z)) lying near the unit circle."""
    n = T.degree
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = T.a0
    for k, (a, b) in enumerate(T.coeffs, start=1):
        c[n + k] = (a - 1j * b) / 2.0
        c[n - k] = (a + 1j * b) / 2.0
    c = c / np.max(np.abs(c))
    roots = np.roots(c[::-1])
    keep = np.abs(np.abs(roots) - 1.0) <= _RADIAL_CAPTURE
    return np.mod(np.angle(roots[keep]), TWO_PI)


def _newton_polish(T, dT, theta, steps=60):
    """Newton's method on T from each angle of a 1-D array, all at once.

    Each angle is advanced as by the scalar iteration: the step f/g is clipped
    to +-0.5, the angle stops when g == 0 or once a step below 1e-15 was taken,
    and the iterate with the smallest |T| seen so far (reduced mod 2pi) is
    returned, or the start if no iterate improved on it.  One sweep makes
    one evaluation of T and one of dT over the angles still moving.
    """
    theta = np.array(theta, dtype=float)
    f = T.eval(theta)
    best, best_val = theta.copy(), np.abs(f)
    live = np.arange(theta.size)
    for _ in range(steps):
        if live.size == 0:
            break
        g = dT.eval(theta[live])
        moving = g != 0.0
        live, f, g = live[moving], f[moving], g[moving]
        if live.size == 0:
            break
        # |f/g| may overflow to inf where g is tiny; the clip below maps it
        # to +-0.5 exactly as the scalar iteration does
        with np.errstate(over="ignore"):
            step = f / g
        step = np.where(np.abs(step) > 0.5, np.copysign(0.5, step), step)
        t = theta[live] - step
        theta[live] = t
        f = T.eval(t)
        v = np.abs(f)
        better = v < best_val[live]
        best[live[better]] = t[better] % TWO_PI
        best_val[live[better]] = v[better]
        moving = ~(np.abs(step) < 1e-15)
        live, f = live[moving], f[moving]
    return best


def _cluster_circular(angles, tol):
    """Group sorted angles into clusters of circular diameter <= tol."""
    if len(angles) == 0:
        return []
    order = np.sort(np.asarray(angles))
    clusters = [[order[0]]]
    for t in order[1:]:
        if t - clusters[-1][-1] <= tol:
            clusters[-1].append(t)
        else:
            clusters.append([t])
    # merge across the 0/2pi seam
    if len(clusters) > 1 and (TWO_PI - clusters[-1][-1]) + clusters[0][0] <= tol:
        first = clusters.pop(0)
        clusters[-1].extend(t + TWO_PI for t in first)
    return clusters


def trig_zeros(T: TrigPoly) -> CircleZeroSet:
    """All zeros of T in [0, 2pi) with multiplicities.

    Each returned angle satisfies |T| < 1e-8 * sup|T|; multiplicity m is
    declared only when the derivatives through order m-1 vanish within
    tolerance at the refined angle.
    """
    _check_nonzero(T)
    if T.degree == 0:
        return CircleZeroSet(())
    sup = T.sup_norm()
    dT = T.derivative()
    raw = _companion_angles(T)
    polished = _newton_polish(T, dT, raw)
    polished = polished[np.abs(T.eval(polished)) <= _RESIDUAL_TOL * sup]

    derivs = [T, dT]
    starts, mults = [], []
    for cluster in _cluster_circular(polished, _CLUSTER_TOL):
        size = len(cluster)
        theta = float(np.mean(cluster)) % TWO_PI
        # multiplicity supported by small derivatives; Bernstein scaling
        # n^j bounds the j-th derivative of a degree-n trig polynomial
        m = 1
        while m < size:
            while len(derivs) <= m:
                derivs.append(derivs[-1].derivative())
            dscale = sup * max(1.0, float(T.degree)) ** m
            if abs(derivs[m].eval(theta)) < _DERIV_TOL * dscale:
                m += 1
            else:
                break
        starts.append(theta)
        mults.append(m)
    # polish each cluster on its first non-vanishing derivative level, where
    # the zero is simple: one sweep for all clusters of the same multiplicity
    starts, mults = np.array(starts), np.array(mults, dtype=int)
    thetas = np.empty(starts.shape)
    for m in np.unique(mults):
        while len(derivs) <= m:
            derivs.append(derivs[-1].derivative())
        level = mults == m
        thetas[level] = _newton_polish(derivs[m - 1], derivs[m], starts[level])
    keep = np.abs(T.eval(thetas)) <= _RESIDUAL_TOL * sup
    zeros = [CircleZero(float(t % TWO_PI), int(m)) for t, m, k in zip(thetas, mults, keep) if k]
    zeros.sort(key=lambda z: z.theta)
    return CircleZeroSet(tuple(zeros))


def trig_max_points(T: TrigPoly):
    """(M, points): maximum of |T| over the circle and all its maximizers."""
    _check_nonzero(T)
    if T.degree == 0:
        return abs(T.a0), [0.0]
    dT = T.derivative()
    crit = list(trig_zeros(dT).angles) if not dT.is_trivially_zero() else [0.0]
    if not crit:
        crit = [0.0]
    vals = np.abs(T.eval(np.array(crit)))
    M = float(np.max(vals))
    pts = sorted(float(t) for t, v in zip(crit, vals) if v >= M * (1.0 - 1e-9))
    return M, pts


def min_max_to_zero_distance(T: TrigPoly) -> float:
    """Minimal circular distance from a maximizer of |T| to a zero of T."""
    _check_nonzero(T)
    zeros = trig_zeros(T)
    if len(zeros) == 0:
        return math.inf
    _, pts = trig_max_points(T)
    return min(circle_distance(t, z.theta) for t in pts for z in zeros)


def zero_gap_certificate(T: TrigPoly, tol=1e-7) -> ZeroGapReport:
    """Certify that maximizers of |T| sit at least pi/(2n) from every zero.

    Shifts a global maximizer to the origin and forms the comparison
    polynomial Q(theta) = T(theta) - T(0) cos(n theta), which has a double
    zero at 0.  Q vanishing identically flags the extremal equally-spaced
    case; otherwise the measured gap is reported against the pi/(2n) bound.
    """
    _check_nonzero(T)
    n = T.degree
    M, pts = trig_max_points(T)
    zeros = trig_zeros(T) if n > 0 else CircleZeroSet(())
    if len(zeros) == 0:
        min_dist = math.inf
    else:
        min_dist = min(circle_distance(t, z.theta) for t in pts for z in zeros)
    bound = math.pi / (2 * n) if n > 0 else math.inf
    passed = min_dist >= bound - tol if min_dist != math.inf else True

    q_zero = False
    q_mult = 0
    if n > 0:
        shifted = T.shift(pts[0])
        cos_n = TrigPoly(0.0, [(0.0, 0.0)] * (n - 1) + [(1.0, 0.0)], trim=False)
        Q = shifted + cos_n.scaled(-shifted.eval(0.0))
        if Q.sup_norm() < 1e-10 * max(T.sup_norm(), 1e-300):
            q_zero = True
        else:
            q_mult = trig_zeros(Q).total_multiplicity
    return ZeroGapReport(
        max_points=tuple(pts),
        max_value=M,
        zeros=zeros,
        min_distance=min_dist,
        bound=bound,
        passed=passed,
        q_identically_zero=q_zero,
        q_zero_multiplicity=q_mult,
    )


def interlacing_check(T: TrigPoly, tol=1e-8, zeros=None, max_points=None):
    """Whether zeros and |T|-maximizers alternate in 4n equal arcs.

    Returns (interlaces, arcs); arcs lists consecutive gaps of the merged
    event sequence around the circle.  ``zeros`` (a CircleZeroSet) and
    ``max_points`` already found for T are used as given; whichever is None
    is computed here.
    """
    _check_nonzero(T)
    n = T.degree
    if n == 0:
        return False, []
    if zeros is None:
        zeros = trig_zeros(T)
    pts = trig_max_points(T)[1] if max_points is None else list(max_points)
    zs = [z.theta for z in zeros]
    events = sorted([(t, "z") for t in zs] + [(t, "m") for t in pts])
    arcs = []
    for i, (t, _) in enumerate(events):
        t_next = events[(i + 1) % len(events)][0] + (TWO_PI if i + 1 == len(events) else 0.0)
        arcs.append(t_next - t)
    if len(zs) != 2 * n or len(pts) != 2 * n:
        return False, arcs
    if any(z.multiplicity != 1 for z in zeros):
        return False, arcs
    alternating = all(events[i][1] != events[(i + 1) % len(events)][1] for i in range(len(events)))
    target = math.pi / (2 * n)
    equal = all(abs(a - target) <= tol for a in arcs)
    return alternating and equal, arcs
