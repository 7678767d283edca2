"""Trigonometric polynomials on the circle: zeros, extrema, gap certificates.

Zero isolation goes through the substitution z = e^{i theta}, which turns a
degree-n trigonometric polynomial into an algebraic polynomial of degree 2n
whose roots are found as companion-matrix eigenvalues.  Roots near the unit
circle are pulled back to angles and polished by Newton iteration; clusters
of polished angles give multiplicities, confirmed through derivative
magnitudes.  A simple zero is the mean of its cluster; only a multiple zero
is polished once more, on its first non-vanishing derivative.  A nonzero
trigonometric polynomial of degree n has at most 2n zeros on the circle
counted with multiplicity, which bounds everything the certificates below
count.  The sup norm that scales their tolerances is the
maximum of |T| on N equally spaced angles, N the larger of 4096 and the
smallest power of two >= 4n, sampled all at once by one inverse real FFT of
the coefficient spectrum.  The companion matrix is built from the same
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrigPoly",
    "CircleZero",
    "ZeroGapReport",
    "trig_zeros",
    "trig_max_points",
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
# TrigPoly.sup_norm samples at least this many equally spaced angles
_SUP_MIN_POINTS = 4096
# Newton sweeps of _newton_polish
_POLISH_STEPS = 60


class TrigPoly:
    """T(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta).

    ``coeffs`` is one read-only (n, 2) float array whose row k - 1 holds
    (a_k, b_k); every operation below works on it as a whole.
    """

    __slots__ = ("a0", "coeffs", "_freqs", "_sup")

    def __init__(self, a0, coeffs=(), trim=False):
        a0 = float(a0)
        try:
            pairs = np.array(coeffs, dtype=float) if len(coeffs) else np.empty((0, 2))
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("trigonometric polynomial coefficients must be a list of (a_k, b_k) pairs")
        if not (math.isfinite(a0) and np.isfinite(pairs).all()):
            raise ValueError("trigonometric polynomial coefficients must be finite (no NaN or Infinity)")
        size = np.max(np.abs(pairs), axis=1)
        if trim:
            kept = np.flatnonzero(size > _DEGREE_TRIM * max(abs(a0), np.max(size, initial=0.0)))
            pairs = pairs[: kept[-1] + 1 if kept.size else 0]
        if len(pairs) and size[len(pairs) - 1] == 0.0:
            raise ValueError("leading coefficient pair is zero; pass trim=True or drop it")
        pairs.flags.writeable = False
        self.a0 = a0
        self.coeffs = pairs
        # the frequencies k, for eval and derivative
        self._freqs = np.arange(1.0, len(pairs) + 1.0)
        self._sup = None

    @property
    def degree(self):
        return len(self.coeffs)

    def eval(self, theta):
        """T at each angle; a float for a scalar angle, else an array.

        The terms a0, a1 cos theta, b1 sin theta, a2 cos 2 theta, ... are
        added one at a time in that order (a running sum down the frequency
        axis), so each value is bit-identical to the plain loop over k.
        """
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        out = np.empty(flat.shape)
        pairs, freqs = self.coeffs, self._freqs
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
        a, b = self.coeffs.T
        return TrigPoly(0.0, np.column_stack((self._freqs * b, -self._freqs * a)))

    def _spectrum(self):
        """[a0, (a_1 - i b_1) / 2, ..., (a_n - i b_n) / 2]: the nonnegative half
        of T's complex Fourier series, which both the sup grid and the
        companion matrix are built from."""
        return np.append(self.a0, (self.coeffs[:, 0] - 1j * self.coeffs[:, 1]) / 2.0)

    def sup_norm(self):
        """max |T| over the angles 2 pi j / N, computed once per polynomial.

        N is the larger of 4096 and the smallest power of two >= 4n, so no
        frequency reaches the Nyquist bin N / 2, and every angle lies within
        pi / (4n) of a grid point, where by the cosine comparison |T| is at
        least cos(pi / 4) sup |T|.  The grid is one inverse real FFT of the
        spectrum with norm="forward", so no coefficient is multiplied by N,
        which would overflow near 1e308.
        """
        if self._sup is None:
            N = max(_SUP_MIN_POINTS, 1 << (4 * self.degree - 1).bit_length())
            self._sup = float(np.max(np.abs(np.fft.irfft(self._spectrum(), N, norm="forward"))))
        return self._sup

    def is_trivially_zero(self):
        return self.a0 == 0.0 and not self.coeffs.any()

    def to_json(self):
        return {"n": self.degree, "a0": self.a0, "c": self.coeffs.tolist()}

    @classmethod
    def from_json(cls, obj):
        T = cls(obj["a0"], obj["c"], trim=True)
        if "n" in obj and obj["n"] != len(obj["c"]):
            raise ValueError(f'"n" is {obj["n"]} but "c" holds {len(obj["c"])} coefficient pairs')
        return T

    def __repr__(self):
        return f"TrigPoly(degree={self.degree})"


@dataclass(frozen=True)
class CircleZero:
    theta: float
    multiplicity: int


@dataclass(frozen=True)
class ZeroGapReport:
    """Outcome of the cosine-comparison certificate for one trig polynomial.

    ``q_identically_zero`` marks the extremal case where T is exactly
    -+M cos(n (theta - p0)); then zeros and maximizers are equally spaced
    and the gap equals the bound.  ``zeros`` are the zeros of T the gap was
    measured against, a tuple of CircleZero, and ``interlacing`` is
    :func:`interlacing_check` on them and ``max_points``.
    """

    degree: int
    max_points: tuple
    max_value: float
    zeros: tuple
    min_distance: float
    bound: float
    passed: bool
    q_identically_zero: bool
    interlacing: bool


def circle_distance(t1, t2):
    """Shorter arc length between two angles."""
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def _check_nonzero(T: TrigPoly):
    if T.is_trivially_zero():
        raise ValueError("identically-zero trigonometric polynomial")


def _unit_scaled(T: TrigPoly):
    """(e, 2^e T) for the e that puts the largest coefficient in [0.5, 1).

    The root finders work on 2^e T, so that subnormal input keeps the digits
    its relative tolerances compare and no derivative of huge input
    overflows.  The scaling is exact (np.ldexp reaches 2^+-1074 with no
    overflowing factor), so on normal-range input every step is the unscaled
    one times 2^e, bit for bit.  T itself comes back when e = 0, with the
    sup norm it has cached.
    """
    e = -math.frexp(float(np.max(np.abs(T.coeffs), initial=abs(T.a0))))[1]
    return (e, T) if e == 0 else (e, TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e)))


def _unscaled_max(M, e):
    """2^-e M: a maximum of |2^e T| taken back to the scale of T."""
    try:
        return math.ldexp(M, -e)
    except OverflowError:
        raise ValueError("max |T| exceeds the largest double") from None


def _companion_angles(T: TrigPoly):
    """Angles of roots of z^n T(theta(z)) lying near the unit circle.

    T is the series in powers z^-n .. z^n whose nonnegative half is the
    spectrum and whose negative half is its conjugate, so z^n T has the
    reversed conjugate spectrum at powers 0 .. n - 1 and the spectrum at
    powers n .. 2n.
    """
    spectrum = T._spectrum()
    c = np.concatenate((np.conj(spectrum[:0:-1]), spectrum))
    c = c / np.max(np.abs(c))
    roots = np.roots(c[::-1])
    keep = np.abs(np.abs(roots) - 1.0) <= _RADIAL_CAPTURE
    return np.mod(np.angle(roots[keep]), TWO_PI)


def _newton_polish(T, dT, theta):
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
    for _ in range(_POLISH_STEPS):
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


def trig_zeros(T: TrigPoly) -> tuple:
    """All zeros of T in [0, 2pi) with multiplicities, a tuple of CircleZero
    sorted by angle.

    Each returned angle satisfies |T| < 1e-8 * sup|T|; multiplicity m is
    declared only when the derivatives through order m-1 vanish within
    tolerance at the refined angle.
    """
    _check_nonzero(T)
    if T.degree == 0:
        return ()
    _, T = _unit_scaled(T)
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
    # a simple zero keeps its cluster mean, already polished on T; a multiple
    # zero is polished again on its first non-vanishing derivative level,
    # where it is simple: one sweep for all clusters of the same multiplicity
    starts, mults = np.array(starts), np.array(mults, dtype=int)
    thetas = starts.copy()
    for m in np.unique(mults[mults > 1]):
        while len(derivs) <= m:
            derivs.append(derivs[-1].derivative())
        level = mults == m
        thetas[level] = _newton_polish(derivs[m - 1], derivs[m], starts[level])
    keep = np.abs(T.eval(thetas)) <= _RESIDUAL_TOL * sup
    zeros = [CircleZero(float(t % TWO_PI), int(m)) for t, m, k in zip(thetas, mults, keep) if k]
    zeros.sort(key=lambda z: z.theta)
    return tuple(zeros)


def trig_max_points(T: TrigPoly):
    """(M, points): maximum of |T| over the circle and all its maximizers."""
    _check_nonzero(T)
    if T.degree == 0:
        return abs(T.a0), [0.0]
    e, T = _unit_scaled(T)
    dT = T.derivative()
    crit = [z.theta for z in trig_zeros(dT)] or [0.0]
    vals = np.abs(T.eval(np.array(crit)))
    M = float(np.max(vals))
    pts = sorted(float(t) for t, v in zip(crit, vals) if v >= M * (1.0 - 1e-9))
    return _unscaled_max(M, e), pts


def zero_gap_certificate(T: TrigPoly, tol=1e-7) -> ZeroGapReport:
    """Certify that maximizers of |T| sit at least pi/(2n) from every zero.

    At a global maximizer p0 the comparison polynomial
    Q(theta) = T(theta + p0) - T(p0) cos(n theta) has a double zero at 0.
    Q vanishes identically, the extremal equally-spaced case, exactly when T
    has no harmonic below n, which is read off T's coefficients: the flag is
    set when those harmonics have sup norm below 1e-10 sup|T|.  The measured
    gap is reported against the pi/(2n) bound.  Everything is
    measured on 2^e T (see _unit_scaled), so that the root finders and the
    flag share one polynomial and its sup norm.
    """
    _check_nonzero(T)
    n = T.degree
    e, T = _unit_scaled(T)
    M, pts = trig_max_points(T)
    zeros = trig_zeros(T)
    min_dist = min((circle_distance(t, z.theta) for t in pts for z in zeros), default=math.inf)
    bound = math.pi / (2 * n) if n > 0 else math.inf
    # no zeros (min_dist = inf) passes, whatever the bound
    passed = min_dist >= bound - tol

    q_zero = n > 0 and TrigPoly(T.a0, T.coeffs[:-1], trim=True).sup_norm() < 1e-10 * T.sup_norm()
    return ZeroGapReport(
        degree=n,
        max_points=tuple(pts),
        max_value=_unscaled_max(M, e),
        zeros=zeros,
        min_distance=min_dist,
        bound=bound,
        passed=passed,
        q_identically_zero=q_zero,
        interlacing=interlacing_check(T, zeros=zeros, max_points=pts)[0],
    )


def interlacing_check(T: TrigPoly, zeros=None, max_points=None):
    """Whether zeros and |T|-maximizers alternate in 4n equal arcs.

    Returns (interlaces, arcs); arcs lists consecutive gaps of the merged
    event sequence around the circle; equal means within 1e-8 of pi/(2n).
    ``zeros`` (as trig_zeros returns them) and ``max_points`` already found
    for T are used as given; whichever is None is computed here.
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
    equal = all(abs(a - target) <= 1e-8 for a in arcs)
    return alternating and equal, arcs
