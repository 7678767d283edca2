"""Refuting claimed coverings by spherical segments and by planks.

A family of spherical segments of total width below pi cannot cover the
sphere; a family of planks of total width below 2 cannot cover the unit
ball.  Both refuters make that concrete with one argument (``_refute``):
widths are rounded up to a common rational grid, each widened piece is split
into abutting equal-width virtual pieces, and the point maximizing the
product of the virtual core equations clears every *original* piece.  Only
the point finder differs: the near-maximal pool of ``maximize_abs_on_sphere``
on the sphere, ``multiplier_point`` in the ball.  The returned certificate
carries the point and one positive clearance per input piece, checkable by
direct membership evaluation with no optimizer trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballfinder import multiplier_point
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


def _split_planks(planks, margin=None):
    """Round widths up to multiples of 2/N, so that sub-planks have half width 1/N, and split."""
    widths = [p.width for p in planks]
    N, sub_half, shifts = _grid(widths, 2.0, margin, 2.0, "the diameter 2")
    _refuse_oversized(sum(map(len, shifts)), widths, 2.0, "the diameter 2")
    return [Plank(p.normal, p.center + t, sub_half) for p, shift in zip(planks, shifts) for t in shift], N


def _refute(pieces, budget, name, split, starts, find) -> RefutationResult:
    """Explicit point outside every piece of a family of total width below ``budget``.

    Unequal widths are split by ``split`` onto a common grid; the pieces (or
    their virtual pieces) give the product of their core equations, and
    ``find(poly, starts)`` returns the candidate points.  The candidate whose
    smallest clearance from the original pieces is largest is returned, when
    that clearance is positive.
    """
    pieces = list(pieces)
    if not pieces:
        raise ValueError("no pieces given")
    if any(p.dim != pieces[0].dim for p in pieces):
        raise ValueError("pieces of mixed dimension")
    total = sum(p.width for p in pieces)
    if total >= budget:
        raise ValueError(f"total width {total} >= {name}; such a family may cover")

    widths = [p.width for p in pieces]
    if max(widths) - min(widths) <= _EQUAL_WIDTH_TOL:
        _refuse_oversized(len(pieces), widths, budget, name)
        virtual, N = pieces, 0
    else:
        virtual, N = split(pieces)
    m = len(virtual)
    poly = MultiPoly.from_affine_product([v.core_form() for v in virtual])

    def clearances(x):
        clear = [p.clearance(x) for p in pieces]
        return min(clear), clear

    (worst, clear), point = _farthest(find(poly, max(starts, 4 * m)), clearances)
    if worst <= 0.0:
        bad = int(np.argmin(clear))
        raise VerificationError(
            f"candidate point failed to clear piece {bad} "
            f"(clearance {clear[bad]}); the optimizer missed the true maximizer"
        )
    return RefutationResult(
        point=point, clearances=tuple(clear), total_width=total, budget=budget, split_N=N
    )


def refute_cover_sphere(segments, seed=0, starts=64) -> RefutationResult:
    """Explicit point of the sphere outside every given spherical segment.

    Requires total width < pi and dimension >= 2.  The candidates are the
    near-maximal pool of the product of the virtual core equations on the
    sphere; the one farthest from every original segment is returned.
    """
    segments = list(segments)
    if segments and segments[0].dim < 2:
        raise ValueError("sphere covering needs dimension >= 2")

    def find(poly, k):
        return maximize_abs_on_sphere(poly, starts=k, seed=seed).near_maximizers

    return _refute(segments, math.pi, "pi", split_segments, starts, find)


def refute_cover_ball(planks, seed=0, starts=64) -> RefutationResult:
    """Explicit point of the closed unit ball outside every given plank.

    Requires total width < 2.  The point comes from the multiplier method
    applied to the product of the virtual plank center equations.
    """

    def find(poly, k):
        return [multiplier_point(poly, seed=seed, starts=k)[0]]

    return _refute(planks, 2.0, "the diameter 2", _split_planks, starts, find)
