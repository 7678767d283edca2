"""Refuting claimed coverings by spherical segments and by planks.

A family of spherical segments of total width below pi cannot cover the
sphere; a family of planks of total width below 2 cannot cover the unit
ball.  Each refuter returns a certificate that carries the point and one
positive clearance per input piece, checkable by direct membership
evaluation with no optimizer trust.

Segments: widths are rounded up to a common rational grid, each widened
segment is split into abutting equal-width virtual segments, and the point of
the near-maximal pool of ``maximize_abs_on_sphere`` on the product of the
virtual core equations that is farthest from the *original* segments is
returned.

Planks |<u_i, x> - c_i| <= h_i with sum(h) < 1: Bang's lemma (T. Bang,
"A solution of the plank problem", Proc. AMS 2, 1951) gives signs e with
e_i (<sum_j e_j w_j u_j, u_i> - c_i) >= w_i for all i, for any weights
w_i > 0.  With w_i = lambda h_i and lambda = 1/sum(h), the point
x = sum_j e_j w_j u_j lies in the unit ball.  A sign-flip loop that stops at
the threshold (h_i + w_i)/2 finds it with every clearance at least
(lambda - 1) h_i / 2, after fewer than
(1 + 4 lambda sum h_i |c_i|) / (2 lambda (lambda - 1) min h_i^2) flips.
There is no optimizer, grid or factor cap on this path.  In floating point
the flip rule and the clearances are decided up to a rounding bound of about
(m + d) machine epsilons; a family whose clearance floor is not twice that
bound is refused (ValueError), and the loop raises VerificationError past
twice Bang's flip bound, so it always ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballfinder import multiplier_point  # noqa: F401  (unused; bench/test_bench.py:47 pins it)
from .errors import VerificationError
from .polycore import AffineForm, MultiPoly, _finite, _finite_vector
from .sphereopt import _farthest, maximize_abs_on_sphere, slice_distance, unit_vector

__all__ = [
    "SphericalSegment",
    "Plank",
    "RefutationResult",
    "split_segments",
    "refute_cover_sphere",
    "refute_cover_ball",
]

MAX_SPLIT_FACTORS = 200
# the grid's denominators N are tried below this
_MAX_GRID_N = 200_000
_EQUAL_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class SphericalSegment:
    """Closed delta-neighborhood of a hyperplane slice, intrinsic metric.

    Membership: |arcsin<a, x> - arcsin b| <= delta.  A zone is b = 0.
    """

    normal: np.ndarray
    offset: float
    half_width: float

    def __init__(self, normal, offset, half_width):
        a = unit_vector(_finite_vector(normal, "segment normal"))
        offset = _finite(offset, "segment offset")
        half_width = _finite(half_width, "segment half width")
        if not -1.0 < offset < 1.0:
            raise ValueError(f"offset must lie in (-1, 1), got {offset}")
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "half_width", half_width)
        self.normal.setflags(write=False)

    @property
    def dim(self):
        return self.normal.shape[0]

    @property
    def width(self):
        return 2.0 * self.half_width

    def core_form(self) -> AffineForm:
        return AffineForm(self.normal, self.offset)

    def clearance(self, x) -> float:
        """Distance from x to the core minus the half width (>0 means outside)."""
        return slice_distance(self.core_form(), x) - self.half_width

    def contains(self, x) -> bool:
        """Membership through the arcsin latitude formula."""
        return self.clearance(x) <= 0.0

    def to_json(self):
        return {"a": self.normal.tolist(), "b": self.offset, "delta": self.half_width}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["a"], obj["b"], obj["delta"])


@dataclass(frozen=True)
class Plank:
    """Slab of width w around the hyperplane <a, x> = c."""

    normal: np.ndarray
    center: float
    half_width: float

    def __init__(self, normal, center, half_width):
        a = unit_vector(_finite_vector(normal, "plank normal"))
        half_width = _finite(half_width, "plank half width")
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "center", _finite(center, "plank center"))
        object.__setattr__(self, "half_width", half_width)
        self.normal.setflags(write=False)

    @property
    def dim(self):
        return self.normal.shape[0]

    @property
    def width(self):
        return 2.0 * self.half_width

    def core_form(self) -> AffineForm:
        return AffineForm(self.normal, self.center)

    def clearance(self, x) -> float:
        return abs(float(self.normal @ np.asarray(x, dtype=float)) - self.center) - self.half_width

    def contains(self, x) -> bool:
        return self.clearance(x) <= 0.0

    def to_json(self):
        return {"a": self.normal.tolist(), "c": self.center, "w": self.width}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["a"], obj["c"], obj["w"] / 2.0)


@dataclass(frozen=True)
class RefutationResult:
    point: np.ndarray
    clearances: tuple
    total_width: float
    budget: float
    split_N: int  # the grid's denominator; 0 when no splitting was needed


def _grid(widths, budget, margin, unit, name):
    """(N, half width, shifts) of the grid that the widths are rounded up to.

    N is the smallest denominator that puts every width, rounded up to a
    multiple of unit/N, within total excess ``margin`` (by default 1% of the
    slack below ``budget``); blocks of N are scanned in numpy, and the first
    that passes there is confirmed by the scalar expressions.  A piece of M
    grid steps becomes M abutting virtual pieces of half width unit/(2N),
    shifted from its centre by ``shifts``, (2j + 1 - M) unit/(2N) for j < M.
    """
    if not widths:
        raise ValueError("no pieces to split")
    total = sum(widths)
    if margin is None:
        margin = 0.01 * (budget - total)
    if total + margin >= budget:
        raise ValueError(f"total width {total} plus margin {margin} reaches {name}; nothing to refute")
    start, size = 1, 64
    while start < _MAX_GRID_N:
        # the excess of a doubling block of N at once, its terms added in the order sum adds them
        block = np.arange(start, min(start + size, _MAX_GRID_N))
        excess = np.zeros(len(block))
        for w in widths:
            excess += np.ceil(w * block / unit - 1e-12) * unit / block - w
        for N in block[excess <= margin + 1e-12].tolist():
            counts = [math.ceil(w * N / unit - 1e-12) for w in widths]
            if sum(c * unit / N - w for c, w in zip(counts, widths)) <= margin + 1e-12:
                if sum(counts) * unit / N >= budget:
                    raise ValueError("rounded total width reaches the budget; infeasible margin")
                sub_half = unit / (2 * N)
                return N, sub_half, [[(2 * j + 1 - M) * sub_half for j in range(M)] for M in counts]
        start, size = start + size, 2 * size
    raise ValueError("no usable rational width grid found")


def _refuse_oversized(count, widths, budget, name):
    """ValueError (exit 3) when a refutation needs more than ``MAX_SPLIT_FACTORS``
    factors, raised from the counts before any virtual piece is built."""
    if count > MAX_SPLIT_FACTORS:
        raise ValueError(
            f"splitting needs {count} factors (> {MAX_SPLIT_FACTORS}); widths leave "
            f"slack {budget - sum(widths):.6g} below {name}, too little for a coarser grid"
        )


def split_segments(segments, margin=None):
    """Round widths up to multiples of 1/N and split into abutting pieces.

    Returns (virtual_segments, N) where every virtual segment has half-width
    1/(2N) and the union of the virtual segments contains the union of the
    originals.  Pieces pushed entirely past a pole vanish from the sphere and
    are dropped; pieces straddling a pole are re-centered to keep coverage.
    """
    segments = list(segments)
    widths = [s.width for s in segments]
    N, sub_half, shifts = _grid(widths, math.pi, margin, 1.0, "pi")
    lats = []
    for seg, shift in zip(segments, shifts):
        lat0 = math.asin(seg.offset)
        for t in shift:
            lat = lat0 + t
            if lat - sub_half >= math.pi / 2 or lat + sub_half <= -math.pi / 2:
                continue  # entirely past a pole: empty on the sphere
            lat = min(max(lat, -math.pi / 2 + sub_half), math.pi / 2 - sub_half)
            lats.append((seg.normal, lat))
    _refuse_oversized(len(lats), widths, math.pi, "pi")
    return [SphericalSegment(a, math.sin(lat), sub_half) for a, lat in lats], N


# kept only because bench/test_bench.py:90 calls it by name; refute_cover_ball does not split
def _split_planks(planks, margin=None):
    """Round widths up to multiples of 2/N, so that sub-planks have half width 1/N, and split."""
    widths = [p.width for p in planks]
    N, sub_half, shifts = _grid(widths, 2.0, margin, 2.0, "the diameter 2")
    _refuse_oversized(sum(map(len, shifts)), widths, 2.0, "the diameter 2")
    return [Plank(p.normal, p.center + t, sub_half) for p, shift in zip(planks, shifts) for t in shift], N


def _family(pieces, budget, name):
    """(pieces as a list, total width), after the input checks both refuters share."""
    pieces = list(pieces)
    if not pieces:
        raise ValueError("no pieces given")
    if any(p.dim != pieces[0].dim for p in pieces):
        raise ValueError("pieces of mixed dimension")
    total = sum(p.width for p in pieces)
    if total >= budget:
        raise ValueError(f"total width {total} >= {name}; such a family may cover")
    return pieces, total


def _certificate(point, clear, total, budget, split_N) -> RefutationResult:
    """The refutation by ``point``, whose clearances from the original pieces
    are ``clear``; VerificationError unless every clearance is positive."""
    bad = int(np.argmin(clear))
    if clear[bad] <= 0.0:
        raise VerificationError(f"candidate point failed to clear piece {bad} (clearance {clear[bad]})")
    return RefutationResult(point=point, clearances=tuple(clear), total_width=total, budget=budget, split_N=split_N)


def refute_cover_sphere(segments, seed=0, starts=64) -> RefutationResult:
    """Explicit point of the sphere outside every given spherical segment.

    Requires total width < pi and dimension >= 2.  Unequal widths are split
    onto a common grid (:func:`split_segments`); the candidates are the
    near-maximal pool of the product of the virtual core equations on the
    sphere, and the one farthest from every original segment is returned when
    its smallest clearance is positive.
    """
    segments = list(segments)
    if segments and segments[0].dim < 2:
        raise ValueError("sphere covering needs dimension >= 2")
    segments, total = _family(segments, math.pi, "pi")
    widths = [s.width for s in segments]
    if max(widths) - min(widths) <= _EQUAL_WIDTH_TOL:
        _refuse_oversized(len(segments), widths, math.pi, "pi")
        virtual, N = segments, 0
    else:
        virtual, N = split_segments(segments)
    poly = MultiPoly.from_affine_product([v.core_form() for v in virtual])
    pool = maximize_abs_on_sphere(poly, starts=max(starts, 4 * len(virtual)), seed=seed).near_maximizers

    def clearances(x):
        clear = [s.clearance(x) for s in segments]
        return min(clear), clear

    (_, clear), point = _farthest(pool, clearances)
    return _certificate(point, clear, total, math.pi, N)


def _within_unit_ball(x) -> bool:
    """|x|^2 <= 1 in exact arithmetic: each float is n / 2^k, so the sum of
    squares compares over the common denominator in integers."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    den = max(d for _, d in ratios)
    return sum((n * (den // d)) ** 2 for n, d in ratios) <= den * den


def _bang_point(planks):
    """(x, flips): Bang's point for the planks (see :func:`refute_cover_ball`)
    and the number of sign flips made.

    Each pass forms x = sum_j e_j w_j u_j and g = U x - c afresh, O(md), and
    flips the sign with the lowest e_i g_i - tau_i while that is negative.
    The computed e_i g_i is within R_i = (m + d + 4 + 2|c_i|) eps of the exact
    one (x is a sum of m terms of total size sum(w) = 1, <u_i, x> one of d);
    with a clearance floor tau_i - h_i of at least 2 R_i, every flip raises
    Bang's potential by at least half its exact increment, so the flips stay
    below twice Bang's bound, and the final clearances stay positive.  x is
    shrunk by ulps until |x|^2 <= 1 holds exactly.
    """
    U = np.array([p.normal for p in planks])
    c = np.array([p.center for p in planks])
    h = np.array([p.half_width for p in planks])
    m, d = U.shape
    w = h / h.sum()
    tau = 0.5 * (h + w)
    rounding = (m + d + 4 + 2.0 * np.abs(c)) * np.finfo(float).eps
    bad = int(np.argmin((tau - h) / rounding))
    if tau[bad] - h[bad] < 2.0 * rounding[bad]:
        raise ValueError(
            f"plank {bad}: clearance floor {tau[bad] - h[bad]:.3g} is below twice the rounding bound "
            f"{rounding[bad]:.3g}; total width too close to 2 or plank too thin to certify in floating point"
        )
    # Bang's bound, with lambda (lambda - 1) h_i^2 = (1 - sum(h)) w_i^2
    bound = (1.0 + 4.0 * np.sum(w * np.abs(c))) / (2.0 * (1.0 - h.sum()) * w.min() ** 2)
    limit = 2.0 * bound + m
    e, flips = np.ones(m), 0
    while True:
        x = (e * w) @ U
        slack = e * (U @ x - c) - tau
        i = int(np.argmin(slack))
        if slack[i] >= 0.0:
            break
        if flips >= limit:
            raise VerificationError(f"sign flip did not settle within {limit:.3g} flips, twice Bang's bound")
        e[i] = -e[i]
        flips += 1
    while not _within_unit_ball(x):
        x = np.nextafter(x, 0.0)
    return x, flips


def refute_cover_ball(planks) -> RefutationResult:
    """Explicit point of the closed unit ball outside every given plank.

    Requires total width < 2, that is, half widths h_i summing below 1.  By
    Bang's lemma, for unit normals u_i, centers c_i and any weights w_i > 0,
    some signs e give e_i (<sum_j e_j w_j u_j, u_i> - c_i) >= w_i for every
    i.  The weights are w_i = lambda h_i with lambda = 1/sum(h), so that the
    point x = sum_j e_j w_j u_j has |x| <= sum(w) = 1; the sign-flip loop
    (:func:`_bang_point`) stops at the threshold (h_i + w_i)/2, so that every
    clearance is at least (lambda - 1) h_i / 2 > 0.  Each flip raises
    |x|^2 - 2 sum_j e_j w_j c_j by more than 2 lambda (lambda - 1) h_i^2, so
    there are fewer than
    (1 + 4 lambda sum h_i |c_i|) / (2 lambda (lambda - 1) min h_i^2) flips.
    No optimizer, width grid or factor cap is involved, and ``split_N`` is 0.
    Every family that the theorem covers is refuted, in every dimension,
    unless some clearance floor (lambda - 1) h_i / 2 is within twice the
    rounding bound of :func:`_bang_point`, about (m + d) machine epsilons;
    such a family is refused with ValueError, since double precision cannot
    certify its point.
    """
    planks, total = _family(planks, 2.0, "the diameter 2")
    x, _ = _bang_point(planks)
    return _certificate(x, [p.clearance(x) for p in planks], total, 2.0, 0)
