"""Trigonometric polynomials on the circle: zeros, extrema, gap certificates.

trig_zeros first tries a proof on a grid (_grid_brackets): one inverse real
FFT gives T and T' at the N >= 16n equally spaced angles of T's one grid
(_grid_size), whose T row T keeps (_on_grid; TrigPoly.sup_norm reads it,
and its maximum is at least cos(pi / 16) sup |T|), the cosine comparison
bounds ||T|| by U = (max grid |T| + the FFT's stated rounding bound) /
cos(n pi / N), and Bernstein's inequality ||T^(j)|| <= n^j U bounds T''
and T''' between grid points.
Every cell then holds no zero or exactly one simple zero, or is split and
tried again; if a cell stays undecided, the whole polynomial goes to the
kernel.  Multiple zeros always do, as no cell around one can be decided.
_polish_brackets then finds each zero by Newton iteration inside its
bracket.  trig_max_points proves the brackets of the zeros of T' the same
way but polishes only those where a rigorous bound on |T| can reach the
maximum (_may_hold_max); as each angle is polished on its own, the maximum
and its points are those of polishing every critical point, bit for bit.
T keeps its zeros and maxima, so interlacing_check and every later caller
read them.

Newton iteration (_newton_polish) and the split points take T and T' from
one cos/sin table (_eval_pair), bit for bit TrigPoly.eval of each.  An
angle stops once its step is below T.eval's stated rounding bound over
|T'| (_eval_bound), the level below which a step is noise.

With z = e^{i theta} a degree-n trigonometric polynomial is an algebraic one
of degree 2n, whose roots come from _root_clusters, the package's one root
kernel (``complexproj`` and ``ballfinder`` use it too): discs that each hold
an exact count of roots under a stated Horner rounding bound.  A disc that
meets the unit circle is a zero of T of that multiplicity at the angle of its
centre, a point value, not an enclosure; only simple zeros are polished by
Newton iteration.  T has at most 2n zeros counted with multiplicity.  The
tolerances scale with the sup norm of TrigPoly.sup_norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VerificationError

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
_RESIDUAL_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# angles evaluated per block in TrigPoly.eval, which bounds its work array to
# (2n + 1) x _EVAL_BLOCK doubles however many angles are asked for
_EVAL_BLOCK = 256
# Newton sweeps of _newton_polish
_POLISH_STEPS = 60
# _grid_brackets splits each undecided cell this many ways, at most this many times
_SPLIT_WAYS = 8
_SPLIT_LEVELS = 4
# widens each proved cell: a float grid angle (at most 4 pi) is within 4 pi
# eps of the exact angle it stands for
_SLACK = 10.0 * math.pi * _EPS
# critical values within this relative distance of the maximum tie with it
_MAX_TIE = 1e-9


class TrigPoly:
    """T(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta).

    ``coeffs`` is one read-only (n, 2) float array whose row k - 1 holds
    (a_k, b_k); every operation below works on it as a whole.  T keeps what
    is computed from it once asked for: its grid (_on_grid), its zeros
    (trig_zeros) and its maxima (trig_max_points).
    """

    __slots__ = ("a0", "coeffs", "_freqs", "_grid", "_zeros", "_max")

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
        self._grid = self._zeros = self._max = None

    @property
    def degree(self):
        return len(self.coeffs)

    def eval(self, theta):
        """T at each angle; a float for a scalar angle, else an array.

        The terms a0, a1 cos theta, b1 sin theta, a2 cos 2 theta, ... are
        added one at a time in that order (a running sum down the frequency
        axis), so each value is bit-identical to the plain loop over k.
        """
        out = _table_values((self.a0,), self.coeffs[:, None], self._freqs, theta)[0]
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def derivative(self) -> "TrigPoly":
        a, b = self.coeffs.T
        return TrigPoly(0.0, np.column_stack((self._freqs * b, -self._freqs * a)))

    def _spectrum(self):
        """[a0, (a_1 - i b_1) / 2, ..., (a_n - i b_n) / 2]: the nonnegative half
        of T's complex Fourier series, which both the grid and the
        companion matrix are built from."""
        return np.append(self.a0, (self.coeffs[:, 0] - 1j * self.coeffs[:, 1]) / 2.0)

    def sup_norm(self):
        """max |T| over the N = _grid_size(n) angles 2 pi j / N of the one
        grid T keeps (_on_grid).

        N >= 16n, so no frequency reaches the Nyquist bin N / 2, and every
        angle lies within pi / (16n) of a grid point, where by the cosine
        comparison |T| is at least cos(pi / 16) sup |T|.
        """
        return float(np.max(np.abs(_on_grid(self))))

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


def _grid_size(n):
    """Points of the one grid of a degree-n polynomial, which its sup norm,
    its zero proof and its maximizer bounds all read: the smallest power of
    two >= 16n.  There the curvature margins of _grid_brackets decide nearly
    every cell at once; at 4n they are about U / 3, and nearly every cell
    would be split."""
    return 1 << (16 * n - 1).bit_length()


def _on_grid(T):
    """T at the N = _grid_size(n) angles 2 pi j / N, kept on T: one inverse
    real FFT of its spectrum with norm="forward", so no coefficient is
    multiplied by N, which would overflow near 1e308, unless _grid_brackets
    has left its T row there."""
    if T._grid is None:
        T._grid = np.fft.irfft(T._spectrum(), _grid_size(T.degree), norm="forward")
    return T._grid


def _table_values(a0, pairs, freqs, theta):
    """Values at each angle of ``theta`` of the m polynomials with constant
    terms ``a0`` and coefficient pairs ``pairs``, an (n, m, 2) array over the
    frequencies ``freqs``: an array of shape (m,) + theta.shape.

    One cos/sin table per block of _EVAL_BLOCK angles serves all m.  Each
    polynomial adds a0, a1 cos theta, b1 sin theta, a2 cos 2 theta, ... one
    at a time in that order, so its values do not depend on what shares the
    table.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    m = len(a0)
    out = np.empty((m, flat.size))
    terms = np.empty((2 * len(freqs) + 1, m, min(flat.size, _EVAL_BLOCK)))
    for start in range(0, flat.size, _EVAL_BLOCK):
        block = flat[start : start + _EVAL_BLOCK]
        rows = terms[:, :, : block.size]
        angles = np.multiply.outer(freqs, block)[:, None]
        rows[0] = np.reshape(a0, (m, 1))
        np.multiply(pairs[:, :, :1], np.cos(angles), out=rows[1::2])
        np.multiply(pairs[:, :, 1:], np.sin(angles), out=rows[2::2])
        np.add.accumulate(rows, axis=0, out=rows)
        out[:, start : start + block.size] = rows[-1]
    return out.reshape((m,) + theta.shape)


def _eval_pair(T, dT, theta):
    """(T, dT) at each angle of ``theta`` from one shared trig table, bit for
    bit T.eval and dT.eval; dT (T' or any polynomial of T's degree) rides on
    T's cos and sin."""
    return _table_values((T.a0, dT.a0), np.stack((T.coeffs, dT.coeffs), axis=1), T._freqs, theta)


def _eval_bound(T):
    """eps (2 pi sum k |c_k| + 2 (n + 3) sum |c_k|), c_k the coefficients of T
    (a0 among them): the rounding bound of a T.eval value at |theta| <= 4 pi,
    with sin and cos good to 4 ulp."""
    size = np.abs(T.coeffs).sum(axis=1)
    return _EPS * (TWO_PI * float(T._freqs @ size) + 2 * (T.degree + 3) * (abs(T.a0) + float(size.sum())))


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
    one times 2^e, bit for bit.  T itself comes back when e = 0, with what
    it keeps.
    """
    e = -math.frexp(float(np.max(np.abs(T.coeffs), initial=abs(T.a0))))[1]
    return (e, T) if e == 0 else (e, TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e)))


def _unscaled_max(M, e):
    """2^-e M: a maximum of |2^e T| taken back to the scale of T."""
    try:
        return math.ldexp(M, -e)
    except OverflowError:
        raise ValueError("max |T| exceeds the largest double") from None


def _horner(c, x):
    """(v, err) at x for p(x) = c[0] x^N + ... + c[N]: v = p(x) where |x| <= 1,
    else x^-N p(x) from the reversed coefficients at the rounded 1/x, so no power
    overflows.  err is twice the pass's running error bound (Higham, Accuracy and
    Stability, 5.1): step k rounds by at most u (sqrt 5 |w y_(k-1)| + |y_k|), so
    the pass by at most (1 + sqrt 5) u sum_k |w|^(N-k) |y_k|, u = eps / 2."""
    N, big = len(c) - 1, np.abs(x) > 1.0
    w, pick = np.where(big, 1.0 / np.where(big, x, 1.0), x), big.astype(np.intp)
    table, aw, y, bound = np.stack((c, c[::-1]), axis=1), np.abs(w), np.zeros(x.shape, complex), np.zeros(x.shape)
    for k in range(N + 1):
        y *= w
        y += table[k][pick]
        bound *= aw
        bound += np.abs(y)
    return y, (1.0 + math.sqrt(5.0)) * _EPS * bound


def _pellet_holds(c, centre, r, m):
    """Whether Pellet's test |a_m| r^m > sum_{k != m} |a_k| r^k (a_k the Taylor
    coefficients at centre) proves that the disc of radius r holds m roots.  The
    a_k r^k are one FFT of p / max(1, |centre| + r)^N on the rim.  Their errors sum
    to at most the values' in 2-norm (Parseval): Horner's, the FFT's, the scaling's
    and the nodes' rounding, the last times |p'| <= sum_k k |a_k| r^(k-1)."""
    N = len(c) - 1
    x = centre + r * np.exp(2j * np.pi * np.arange(N + 1) / (N + 1))
    v, err = _horner(c, x)
    rho = max(1.0, abs(centre) + r)
    scale = np.where(np.abs(x) > 1.0, (x / rho) ** N, rho**-N)
    v *= scale
    b = np.abs(np.fft.fft(v)) / (N + 1)
    nodes = 2.0 * math.sqrt(N + 1) * (abs(centre) + r) / r * (np.arange(N + 1) @ b)
    e = np.linalg.norm(err * np.abs(scale)) + _EPS * (3.0 + 2.0 * math.log2(N + 1)) * np.linalg.norm(v)
    return b[m] > b.sum() - b[m] + e + _EPS * nodes


def _components(adj):
    """Labels of the connected components of the graph with the symmetric
    boolean adjacency matrix ``adj``, numbered in the order of their smallest
    members.  Each vertex takes the smallest label among its own and its
    neighbours', then labels follow their labels (pointer jumping), until no
    label changes."""
    k = len(adj)
    label = np.arange(k)
    while True:
        new = np.minimum(label, np.where(adj, label, k).min(axis=1, initial=k))
        while np.any(new[new] != new):
            new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def _longest_tree_edge(d):
    """The longest edge of a minimum spanning forest (Prim's, O(k^2)) of the
    graph whose edges are the off-diagonal lengths d > 0, 0.0 when it has none.
    Exact zeros, the distances between repeated roots, are not edges."""
    k = len(d)
    w = np.where(d > 0.0, d, np.inf)
    np.fill_diagonal(w, np.inf)
    out, best, longest = np.arange(k) > 0, w[0], 0.0
    for _ in range(k - 1):
        reach = np.where(out, best, np.inf)
        j = int(np.argmin(reach))
        if reach[j] < np.inf:
            longest = max(longest, float(reach[j]))
        else:
            j = int(np.argmax(out))  # the next tree of the forest
        out[j] = False
        best = np.minimum(best, w[j])
    return longest


def _pellet_split(c, z, D, radii, reach, union):
    """Disjoint Pellet discs (centre, r, count) for the parts of ``union`` left by
    cutting the longest edge of its minimum spanning tree, each split again
    where it can be, or None.  A part is tested on discs about its mean of radius
    s^(1 - t) g^t, t = 1/2 then 1/4 (nearer the part, where many roots pass), s
    its spread (a lone member's own radius) and g its gap to the rest."""
    d = D[np.ix_(union, union)]
    label = _components(d < _longest_tree_edge(d))
    discs = []
    for part in (union[label == k] for k in np.unique(label)):
        centre = z[part].mean()
        inner = radii[part[0]] if len(part) == 1 else max(np.max(np.abs(z[part] - centre)), _EPS * abs(centre))
        gap = np.min(np.delete(np.abs(z - centre) - reach, part))
        rs = [inner * (gap / inner) ** t for t in (0.5, 0.25)] if 0.0 < inner < gap else []
        r = next((r for r in rs if _pellet_holds(c, centre, r, len(part))), 0.0)
        found = _pellet_split(c, z, D, radii, reach, part) if len(part) > 1 else None
        if found is None and not r:
            return None
        discs += [(centre, r, len(part))] if found is None else found
    cs, rs = np.array([d[0] for d in discs]), np.array([d[1] for d in discs])
    return discs if np.count_nonzero(np.abs(np.subtract.outer(cs, cs)) <= np.add.outer(rs, rs)) == len(discs) else None


def _root_clusters(c):
    """The roots of p(x) = c[0] x^N + ... + c[N] (numpy's order) in clusters,
    arrays (centres, radii, counts): the disc |x - centre| <= radius holds
    exactly count roots, under the rounding bound of _horner.

    The companion-matrix roots z_i are the diagonal of Smith's matrix
    diag(z) - 1 W^T, W_i = p(z_i) / (c[0] prod_{j != i} (z_i - z_j)), whose
    eigenvalues are the roots of p (B. T. Smith, J. ACM 17, 1970), so each
    connected union of k discs |x - z_i| <= N |W_i| holds k roots.  A union of
    several becomes its Pellet discs (Becker, Sagraloff, Sharma and Yap, J.
    Symbolic Comput. 2018), else one cluster at the mean of its members, good
    to O(eps) where those of an m-fold root spread by eps^(1/m).  Trailing
    zeros of c are a root at 0."""
    c = np.trim_zeros(np.asarray(c), "f")
    last = np.flatnonzero(c)[-1]
    at_zero, c, N = len(c) - 1 - last, c[: last + 1], last
    z = np.roots(c).astype(complex)
    D = np.subtract.outer(z.real, z.real)
    np.hypot(D, np.subtract.outer(z.imag, z.imag), out=D)
    np.fill_diagonal(D, 1.0)
    v, err = _horner(c, z)
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.log(np.abs(v) + err) + N * np.log(np.maximum(np.abs(z), 1.0)) - np.log(D).sum(axis=1)
        radii = N * np.exp(log_w - math.log(abs(c[0])))
    touch = D <= radii[:, None] + radii
    np.fill_diagonal(touch, False)
    alone, rest, clusters = ~touch.any(axis=1), np.flatnonzero(touch.any(axis=1)), []
    label = _components(touch[np.ix_(rest, rest)])
    for union in (rest[label == k] for k in np.unique(label)):
        reach, centre = np.where(np.isin(np.arange(N), union), 0.0, radii), z[union].mean()
        fallback = (centre, np.max(np.abs(z[union] - centre) + radii[union]), len(union))
        clusters += _pellet_split(c, z, D, radii, reach, union) or [fallback]
    extra = np.array(clusters + ([(0j, 0.0, at_zero)] if at_zero else []), complex).reshape(-1, 3)
    counts = np.append(np.ones(alone.sum(), int), extra[:, 2].real).astype(int)
    return np.append(z[alone], extra[:, 0]), np.append(radii[alone], extra[:, 1].real), counts


def _checked_zeros(c, x):
    """x, the points taken for zeros of p(x) = c[0] x^N + ... + c[N] (the
    centres of _root_clusters), once each passes |p(x)| <= 1e-8 sum_k |c_k|
    |x|^k, both sides read by _horner so that no power overflows.
    VerificationError otherwise: the centre of a merged cluster need not be a
    zero (the monomial T_44 merges all its roots into one disc centred at 0,
    where T_44 is 1), and a gap measured to it would be wrong."""
    refused = np.count_nonzero(np.abs(_horner(c, x)[0]) > _RESIDUAL_TOL * _horner(np.abs(c), np.abs(x))[0].real)
    if refused:
        raise VerificationError(f"{refused} root cluster centre(s) of P are no zero: |P| > {_RESIDUAL_TOL:g} sum |a_k x^k|")
    return x


def _newton_polish(T, dT, theta):
    """Newton's method on T from each angle of a 1-D array, all at once.

    Each angle is advanced as by the scalar iteration: the step f/g is
    clipped to +-0.5, and the iterate with the smallest |T| seen so far
    (reduced mod 2pi) is returned, or the start if no iterate improved on
    it.  An angle stops when g == 0, or once it has taken a step shorter
    than max(1e-15, beta / |g|), beta = _eval_bound(T): a step that short is
    within the rounding of T.eval over |T'|, so further steps only wander in
    the noise.  The starts and each sweep make one _eval_pair call, T and dT
    from one trig table, over the angles still moving.
    """
    theta = np.array(theta, dtype=float)
    f, g = _eval_pair(T, dT, theta)
    best, best_val = theta.copy(), np.abs(f)
    live, beta = np.arange(theta.size), _eval_bound(T)
    for _ in range(_POLISH_STEPS):
        moving = g != 0.0
        live, f, g = live[moving], f[moving], g[moving]
        if live.size == 0:
            break
        # |f/g| and beta/|g| may overflow to inf where g is tiny; the clip
        # below maps the step to +-0.5 exactly as the scalar iteration does
        with np.errstate(over="ignore"):
            step, tol = f / g, np.maximum(1e-15, beta / np.abs(g))
        step = np.where(np.abs(step) > 0.5, np.copysign(0.5, step), step)
        t = theta[live] - step
        theta[live] = t
        f, g = _eval_pair(T, dT, t)
        v = np.abs(f)
        better = v < best_val[live]
        best[live[better]] = t[better] % TWO_PI
        best_val[live[better]] = v[better]
        moving = ~(np.abs(step) < tol)
        live, f, g = live[moving], f[moving], g[moving]
    return best


def _grid_brackets(T, dT):
    """Brackets proved to hold one zero of T each, a simple one, and between
    them every zero of T; None where the proof fails.  Arrays (lo, hi, f0,
    f1, peak): each bracket's unwrapped end angles, T's grid values there
    (of proved opposite signs) and peak >= max |T| over the bracket.

    T (unit-scaled, degree n) and dT = T' are sampled at N equally spaced
    angles of T's one grid (N = _grid_size(n) >= 16n) by one inverse real
    FFT, whose T row T keeps as its grid (_on_grid).
    The stated rounding bounds: an FFT value is off by at most 5 log2(N) eps
    times the grid's 2-norm, which is sqrt(N) times T's by Parseval (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 24, gives 4 log2(N)
    eps with twiddle factors good to eps; the rest covers the one rounding of
    each spectrum entry); a TrigPoly.eval value at |theta| <= 4 pi by
    eps (2 pi sum k |c_k| + 2 (n + 3) sum |c_k|), c_k its coefficients, with
    sin and cos good to 4 ulp; one of dT, whose coefficients k a_k, k b_k are
    rounded, by that plus eps/2 sum k |c_k|.  U = (max grid |T| + bound) /
    cos(n pi / N) >= ||T|| by the cosine comparison, and Bernstein's
    inequality gives ||T''|| <= n^2 U, ||T'''|| <= n^3 U.  On a cell of
    width w between neighbouring points:

    - T' keeps one sign if its end values have one sign and exceed their
      bounds by n^3 U w^2 / 8 (linear interpolation of T');
    - T keeps one sign if its end values have one proved sign and either T'
      keeps one sign or they exceed their bounds by n^2 U w^2 / 8;
    - T has exactly one zero, a simple one, if its end values have proved
      opposite signs and T' keeps one sign.

    Where a point's sign is not proved, its two cells make one bracket if T'
    keeps one sign on both and their outer ends have proved signs.  Undecided
    cells are split _SPLIT_WAYS ways, with T and dT evaluated at the new
    points from one trig table (_eval_pair), at most _SPLIT_LEVELS times and
    at most N cells at a time.

    T is monotone on each bracket, as T' keeps one sign on its one or two
    cells, so peak is the larger of |value| + stated bound at its two ends.
    """
    n = T.degree
    N = _grid_size(n)
    k = np.arange(n + 1)
    spectrum = T._spectrum()
    grid = np.fft.irfft(np.stack((spectrum, 1j * k * spectrum)), N, norm="forward")
    T._grid, top = grid[0], float(np.max(np.abs(grid[0])))
    size, square = np.abs(T.coeffs).sum(axis=1), np.square(T.coeffs).sum(axis=1)
    s1, s2 = k[1:] @ size, np.square(k[1:]) @ size
    fft = 5.0 * math.log2(N) * _EPS * math.sqrt(N)
    grid_err = fft * np.sqrt([T.a0**2 + square.sum() / 2.0, np.square(k[1:]) @ square / 2.0])
    eval_err = np.array([_eval_bound(T), _EPS * (TWO_PI * s2 + (2 * n + 7) * s1)])
    # U is rounded up by far more than the few roundings of the tests below
    U = (1.0 + 1e-9) * (top + grid_err[0]) / math.cos(n * math.pi / N)
    # rows of points with values V = (T, T') and their bounds E; first one
    # row once around from the largest |T|, in unwrapped angles
    pts = np.argmax(np.abs(grid[0])) + np.arange(N + 1)
    t, V = (pts * (TWO_PI / N))[None], grid[:, None, pts % N]
    E = np.broadcast_to(grid_err[:, None, None], V.shape)
    brackets = []
    for level in range(_SPLIT_LEVELS + 1):
        M = np.abs(V) - E
        w2 = np.square(np.diff(t, axis=1) + _SLACK)
        sign = np.sign(V[0]) * (M[0] > 0.0)
        cross = sign[:, :-1] * sign[:, 1:]
        mono = (V[1, :, :-1] * V[1, :, 1:] > 0.0) & (np.minimum(M[1, :, :-1], M[1, :, 1:]) > n**3 * U / 8.0 * w2)
        flat = np.minimum(M[0, :, :-1], M[0, :, 1:]) > n**2 * U / 8.0 * w2
        one, done = (cross < 0.0) & mono, (cross > 0.0) & (flat | mono)
        r, j = np.nonzero(sign[:, 1:-1] == 0.0)
        j += 1
        if not (mono[r, j - 1] & mono[r, j] & (sign[r, j - 1] != 0.0) & (sign[r, j + 1] != 0.0)).all():
            return None
        done[r, j - 1] = done[r, j] = True
        pair = sign[r, j - 1] != sign[r, j + 1]
        rows, left = np.nonzero(one)
        rows, left, right = np.append(rows, r[pair]), np.append(left, j[pair] - 1), np.append(left + 1, j[pair] + 1)
        peak = np.maximum(*(np.abs(V[0, rows, x]) + E[0, rows, x] for x in (left, right)))
        brackets.append((t[rows, left], t[rows, right], V[0, rows, left], V[0, rows, right], peak))
        r, c = np.nonzero(~(one | done))
        if r.size == 0:
            break
        if level == _SPLIT_LEVELS or r.size > N:
            return None
        lo, hi = t[r, c, None], t[r, c + 1, None]
        t = np.hstack((lo, lo + (hi - lo) * (np.arange(1, _SPLIT_WAYS) / _SPLIT_WAYS), hi))
        inner = _eval_pair(T, dT, t[:, 1:-1])
        V = np.concatenate((V[:, r, c, None], inner, V[:, r, c + 1, None]), axis=2)
        E = np.concatenate((E[:, r, c, None], np.broadcast_to(eval_err[:, None, None], inner.shape), E[:, r, c + 1, None]), axis=2)
    return tuple(np.concatenate(part) for part in zip(*brackets))


def _polish_brackets(T, dT, lo, hi, f0, f1):
    """The zero in each bracket of _grid_brackets, polished by _newton_polish
    from its regula falsi start (inside, as f0 and f1 differ in sign); None
    if a polished angle leaves its bracket.  Each angle moves on its own, so
    polishing a subset of the brackets gives the same bits for each."""
    w = hi - lo
    theta = _newton_polish(T, dT, (lo + f0 / (f0 - f1) * w) % TWO_PI)
    off = np.abs((theta - (lo + hi) / 2.0 + math.pi) % TWO_PI - math.pi)
    return theta if (off <= w / 2.0 + _SLACK).all() else None


def _placed_zeros(T, dT, found):
    """(angles, multiplicities) of the zeros of T (unit-scaled, dT = T'),
    before the residual check: the polished zeros of the brackets ``found``
    (from _grid_brackets), else, where found is None or a polished zero
    leaves its bracket, the kernel's clusters of z^n T on the circle, whose
    coefficients are the conjugate spectrum reversed, then the spectrum;
    there only simple clusters are polished."""
    thetas = None if found is None else _polish_brackets(T, dT, *found[:4])
    if thetas is not None:
        return thetas, np.ones(thetas.size, int)
    spectrum = T._spectrum()
    c = np.concatenate((np.conj(spectrum[:0:-1]), spectrum))
    centres, radii, counts = _root_clusters((c / np.max(np.abs(c)))[::-1])
    on = np.abs(np.abs(centres) - 1.0) <= radii
    thetas, mults = np.mod(np.angle(centres[on]), TWO_PI), counts[on]
    thetas[mults == 1] = _newton_polish(T, dT, thetas[mults == 1])
    return thetas, mults


def _residual_ok(T, thetas):
    """Whether |T| < 1e-8 sup|T| at each angle: the check every reported zero passes."""
    return np.abs(T.eval(thetas)) <= _RESIDUAL_TOL * T.sup_norm()


def trig_zeros(T: TrigPoly) -> tuple:
    """All zeros of T in [0, 2pi) with multiplicities, a tuple of CircleZero
    sorted by angle, |T| < 1e-8 sup|T| at each.  _grid_brackets proves them
    simple and _polish_brackets places them where it can; otherwise they come
    from the kernel (_placed_zeros).  T keeps them.  VerificationError,
    which T does not keep, when a placed zero fails the residual check: a
    zero left out would make every gap to the zeros an overestimate."""
    _check_nonzero(T)
    if T._zeros is None and T.degree == 0:
        T._zeros = ()
    elif T._zeros is None:
        _, S = _unit_scaled(T)
        dS = S.derivative()
        thetas, mults = _placed_zeros(S, dS, _grid_brackets(S, dS))
        refused = np.count_nonzero(~_residual_ok(S, thetas))
        if refused:
            raise VerificationError(f"{refused} zero cluster(s) of T could not be placed to |T| < {_RESIDUAL_TOL:g} sup|T|")
        zeros = (CircleZero(float(t % TWO_PI), int(m)) for t, m in zip(thetas, mults))
        T._zeros = tuple(sorted(zeros, key=lambda z: z.theta))
    return T._zeros


def _may_hold_max(T, e, found):
    """Mask of the brackets ``found`` of T's critical points (_grid_brackets
    on dT = 2^e T') whose polished angle can carry a value of |T| within
    _MAX_TIE of the largest one.

    T' is monotone on each bracket and at most 2^-e peak there, so from
    either end T moves by at most the bracket width times that; pad adds the
    rounding of T at the ends and of T.eval at the polished angle (4 beta,
    beta the larger of _eval_bound(T) and the FFT's stated bound, also covers
    the rounding of T''s coefficients and of these sums) and the slack of
    the bracket ends.  That gives upper >= |T| at the polished angle.
    Where T has one proved sign s at both ends and T' goes from s to -s, |T|
    rises to the critical point and falls after it, so lower = the smaller
    end value - pad is <= |T| there; the largest lower is then <= the maximum,
    and a bracket with upper below (1 - _MAX_TIE) times it holds no maximizer.
    """
    # ends on the grid read T off the grid it keeps, the split points' ends
    # take T.eval; beta bounds the rounding of either
    lo, hi, f0, _, peak = found
    N, t = _grid_size(T.degree), np.stack((lo, hi))
    j = np.rint(t * (N / TWO_PI))
    ends = _on_grid(T)[j.astype(int) % N]
    split = j * (TWO_PI / N) != t
    ends[split] = T.eval(t[split])
    fft = 5.0 * math.log2(N) * _EPS * math.sqrt(N * (T.a0**2 + np.square(T.coeffs).sum() / 2.0))
    slope, beta = np.ldexp(peak, -e), max(_eval_bound(T), fft)
    pad = 4.0 * beta + 2.0 * _SLACK * slope
    s = np.sign(ends[0])
    rises = (ends * s > beta).all(axis=0) & (f0 * s > 0.0)
    size = np.abs(ends)
    lower = np.where(rises, size.min(axis=0) - pad, 0.0)
    upper = size.max(axis=0) + (hi - lo) * slope + pad
    return upper >= (1.0 - _MAX_TIE) * np.max(lower, initial=0.0)


def _critical_points(T):
    """(angles, |T| there): the critical points of T (unit-scaled) that can
    be maximizers of |T|, in [0, 2 pi).

    The brackets of T''s zeros are proved once, on dT = 2^e T' as trig_zeros
    would, and only those that _may_hold_max keeps are placed, by one
    _placed_zeros call: where the proof fails, or a kept angle leaves its
    bracket, every zero of T' is placed as trig_zeros places it.  Angles
    that fail the residual check are dropped.  The kernel can take a merged
    cluster's centre for a zero or place none, so if no placed point
    reaches (1 - _MAX_TIE) times the largest |T| on T's grid (T.sup_norm),
    Newton's method on T' starts instead from the grid's local maxima of |T|
    that reach cos(n pi / N) times that value: by the cosine comparison each
    maximizer of |T| has a grid point that high within pi / N.  A start
    keeps its grid angle where Newton's method lowers |T|, so M never falls
    below the grid's largest |T|.
    """
    e, dT = _unit_scaled(T.derivative())
    ddT = dT.derivative()
    found = _grid_brackets(dT, ddT)
    if found is not None:
        kept = _may_hold_max(T, e, found)
        found = tuple(part[kept] for part in found)
    thetas = _placed_zeros(dT, ddT, found)[0]
    thetas = thetas[_residual_ok(dT, thetas)] % TWO_PI
    vals, top = np.abs(T.eval(thetas)), T.sup_norm()
    if np.max(vals, initial=0.0) >= (1.0 - _MAX_TIE) * top:
        return thetas, vals
    n, N, g = T.degree, _grid_size(T.degree), np.abs(_on_grid(T))
    high = (g > np.roll(g, 1)) & (g >= np.roll(g, -1)) & (g >= math.cos(n * math.pi / N) * top)
    starts = np.flatnonzero(high) * (TWO_PI / N)
    thetas = _newton_polish(dT, ddT, starts)
    vals, grid_vals = np.abs(T.eval(thetas)), np.abs(T.eval(starts))
    return np.where(vals >= grid_vals, thetas, starts), np.maximum(vals, grid_vals)


def trig_max_points(T: TrigPoly):
    """(M, points): maximum of |T| over the circle and all its maximizers,
    the critical points (_critical_points) whose |T| is within _MAX_TIE of M.
    T keeps them; each call returns a new list of points."""
    _check_nonzero(T)
    if T._max is None and T.degree == 0:
        T._max = abs(T.a0), (0.0,)
    elif T._max is None:
        e, S = _unit_scaled(T)
        crit, vals = _critical_points(S)
        M = float(np.max(vals))
        T._max = _unscaled_max(M, e), tuple(sorted(float(t) for t, v in zip(crit, vals) if v >= M * (1.0 - _MAX_TIE)))
    return T._max[0], list(T._max[1])


def zero_gap_certificate(T: TrigPoly, tol=1e-7) -> ZeroGapReport:
    """Certify that maximizers of |T| sit at least pi/(2n) from every zero.

    At a global maximizer p0 the comparison polynomial
    Q(theta) = T(theta + p0) - T(p0) cos(n theta) has a double zero at 0.
    Q vanishes identically, the extremal equally-spaced case, exactly when T
    has no harmonic below n, which is read off T's coefficients: the flag is
    set when those harmonics have sup norm below 1e-10 sup|T|.  The measured
    gap is reported against the pi/(2n) bound.  Everything is
    measured on 2^e T (see _unit_scaled), so that the root finders and the
    flag share one polynomial and its sup norm.  The zeros come first, so
    that the zero proof's transform is the grid T keeps, which the bound on
    its critical values then reads.
    """
    n = T.degree
    e, T = _unit_scaled(T)
    zeros = trig_zeros(T)
    M, pts = trig_max_points(T)
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
        interlacing=interlacing_check(T)[0],
    )


def interlacing_check(T: TrigPoly):
    """Whether zeros and |T|-maximizers alternate in 4n equal arcs.

    Returns (interlaces, arcs); arcs lists consecutive gaps of the merged
    event sequence around the circle; equal means within 1e-8 of pi/(2n).
    The zeros and maximizers are those T keeps (trig_zeros,
    trig_max_points), so they are found once however often they are asked
    for.
    """
    _check_nonzero(T)
    n = T.degree
    if n == 0:
        return False, []
    zeros, pts = trig_zeros(T), trig_max_points(T)[1]
    zs = [z.theta for z in zeros]
    events = sorted([(t, "z") for t in zs] + [(t, "m") for t in pts])
    arcs = [b - a for (a, _), (b, _) in zip(events, events[1:])] + [events[0][0] + TWO_PI - events[-1][0]]
    if len(zs) != 2 * n or len(pts) != 2 * n or any(z.multiplicity != 1 for z in zeros):
        return False, arcs
    alternating = all(events[i][1] != events[(i + 1) % len(events)][1] for i in range(len(events)))
    target = math.pi / (2 * n)
    equal = all(abs(a - target) <= 1e-8 for a in arcs)
    return alternating and equal, arcs
