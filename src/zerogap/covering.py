"""Refuting claimed coverings by spherical segments and by planks.

A family of spherical segments of total width below pi cannot cover the
sphere; a family of planks of total width below 2 cannot cover the unit
ball.  The refuters make that concrete: widths are rounded up to a common
rational grid, each widened piece is split into abutting equal-width virtual
pieces, and the point maximizing the product of the virtual core equations
(through the sphere or ball finders) clears every *original* piece.  The
returned certificate carries the point and one positive clearance per input
piece, checkable by direct membership evaluation with no optimizer trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballfinder import multiplier_point
from .errors import VerificationError
from .polycore import AffineForm, MultiPoly
from .sphereopt import _farthest, maximize_abs_on_sphere, slice_distance, unit_vector

__all__ = [
    "SphericalSegment",
    "Plank",
    "RefutationResult",
    "segment_contains",
    "split_segments",
    "refute_cover_sphere",
    "refute_cover_ball",
    "is_covered_sample",
]

MAX_SPLIT_FACTORS = 200
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
        a = unit_vector(normal)
        offset = float(offset)
        half_width = float(half_width)
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
        a = unit_vector(normal)
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "half_width", float(half_width))
        self.normal.setflags(write=False)

    @property
    def dim(self):
        return self.normal.shape[0]

    @property
    def width(self):
        return 2.0 * self.half_width

    def clearance(self, x) -> float:
        return abs(float(self.normal @ np.asarray(x, dtype=float)) - self.center) - self.half_width

    def contains(self, x) -> bool:
        return self.clearance(x) <= 0.0

    def to_json(self):
        return {"a": self.normal.tolist(), "c": self.center, "w": self.width}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["a"], obj["c"], obj["w"] / 2.0)


def segment_contains(seg: SphericalSegment, x) -> bool:
    """Membership through the arcsin latitude formula."""
    return seg.clearance(x) <= 0.0


@dataclass(frozen=True)
class RefutationResult:
    point: np.ndarray
    clearances: tuple
    total_width: float
    budget: float
    split_denominator: int  # 0 when no splitting was needed

    def to_json(self):
        return {
            "point": self.point.tolist(),
            "clearances": list(self.clearances),
            "total_width": self.total_width,
            "budget": self.budget,
            "split_N": self.split_denominator,
        }


def _choose_denominator(widths, budget, margin, unit):
    """Smallest N with all widths on the grid (unit/N) within total excess margin."""
    for N in range(1, 200_000):
        counts = [math.ceil(w * N / unit - 1e-12) for w in widths]
        excess = sum(c * unit / N - w for c, w in zip(counts, widths))
        if excess <= margin + 1e-12:
            if sum(counts) * unit / N >= budget:
                raise ValueError("rounded total width reaches the budget; infeasible margin")
            return N, counts
    raise ValueError("no usable rational width grid found")


def split_segments(segments, margin=None):
    """Round widths up to multiples of 1/N and split into abutting pieces.

    Returns (virtual_segments, N) where every virtual segment has half-width
    1/(2N) and the union of the virtual segments contains the union of the
    originals.  Pieces pushed entirely past a pole vanish from the sphere and
    are dropped; pieces straddling a pole are re-centered to keep coverage.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("no segments to split")
    total = sum(s.width for s in segments)
    if margin is None:
        margin = 0.01 * (math.pi - total)
    if total + margin >= math.pi:
        raise ValueError(
            f"total width {total} plus margin {margin} reaches pi; nothing to refute"
        )
    N, counts = _choose_denominator([s.width for s in segments], math.pi, margin, 1.0)
    sub_half = 0.5 / N
    virtual = []
    for seg, M in zip(segments, counts):
        lat0 = math.asin(seg.offset)
        for j in range(M):
            lat = lat0 + (2 * j + 1 - M) * sub_half
            if lat - sub_half >= math.pi / 2 or lat + sub_half <= -math.pi / 2:
                continue  # entirely past a pole: empty on the sphere
            lat = min(max(lat, -math.pi / 2 + sub_half), math.pi / 2 - sub_half)
            virtual.append(SphericalSegment(seg.normal, math.sin(lat), sub_half))
    return virtual, N


def refute_cover_sphere(segments, seed=0, starts=64) -> RefutationResult:
    """Explicit point of the sphere outside every given spherical segment.

    Requires total width < pi and dimension >= 2.  The point comes from
    maximizing the product of the virtual core equations; its clearances are
    verified against the original segments directly.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("no segments given")
    d = segments[0].dim
    if d < 2:
        raise ValueError("sphere covering needs dimension >= 2")
    if any(s.dim != d for s in segments):
        raise ValueError("segments of mixed dimension")
    total = sum(s.width for s in segments)
    if total >= math.pi:
        raise ValueError(f"total width {total} >= pi; such a family may cover")

    widths = [s.width for s in segments]
    if max(widths) - min(widths) <= _EQUAL_WIDTH_TOL:
        virtual, N = segments, 0
    else:
        virtual, N = split_segments(segments)
    m = len(virtual)
    if m > MAX_SPLIT_FACTORS:
        raise ValueError(
            f"splitting needs {m} factors (> {MAX_SPLIT_FACTORS}); widths leave "
            f"slack {math.pi - total:.6g} below pi, too little for a coarser grid"
        )
    poly = MultiPoly.from_affine_product([s.core_form() for s in virtual])
    res = maximize_abs_on_sphere(poly, starts=max(starts, 4 * m), seed=seed)

    def clearances(x):
        clear = [s.clearance(x) for s in segments]
        return min(clear), clear

    (best_clear, best_all), best_point = _farthest(res.all_near_max, clearances)
    if best_clear <= 0.0:
        bad = int(np.argmin(best_all))
        raise VerificationError(
            f"candidate point failed to clear segment {bad} "
            f"(clearance {best_all[bad]}); the optimizer missed the true maximizer"
        )
    return RefutationResult(
        point=best_point,
        clearances=tuple(best_all),
        total_width=total,
        budget=math.pi,
        split_denominator=N,
    )


def _split_planks(planks, margin):
    total = sum(p.width for p in planks)
    if margin is None:
        margin = 0.01 * (2.0 - total)
    if total + margin >= 2.0:
        raise ValueError(
            f"total width {total} plus margin {margin} reaches 2; nothing to refute"
        )
    # plank widths live on the grid 2/N so that sub-planks have half-width 1/N
    N, counts = _choose_denominator([p.width for p in planks], 2.0, margin, 2.0)
    sub_half = 1.0 / N
    virtual = []
    for plank, M in zip(planks, counts):
        for j in range(M):
            center = plank.center + (2 * j + 1 - M) * sub_half
            virtual.append(Plank(plank.normal, center, sub_half))
    return virtual, N


def refute_cover_ball(planks, seed=0, starts=64) -> RefutationResult:
    """Explicit point of the closed unit ball outside every given plank.

    Requires total width < 2.  The point comes from the multiplier method
    applied to the product of the virtual plank center equations.
    """
    planks = list(planks)
    if not planks:
        raise ValueError("no planks given")
    d = planks[0].dim
    if any(p.dim != d for p in planks):
        raise ValueError("planks of mixed dimension")
    total = sum(p.width for p in planks)
    if total >= 2.0:
        raise ValueError(f"total width {total} >= 2; such a family may cover")

    widths = [p.width for p in planks]
    if max(widths) - min(widths) <= _EQUAL_WIDTH_TOL:
        virtual, N = planks, 0
    else:
        virtual, N = _split_planks(planks, None)
    m = len(virtual)
    if m > MAX_SPLIT_FACTORS:
        raise ValueError(
            f"splitting needs {m} factors (> {MAX_SPLIT_FACTORS}); widths leave "
            f"slack {2.0 - total:.6g} below the diameter, too little for a coarser grid"
        )
    forms = [AffineForm(p.normal, p.center) for p in virtual]
    poly = MultiPoly.from_affine_product(forms)
    point, _ = multiplier_point(poly, seed=seed, starts=max(starts, 4 * m))

    clear = [p.clearance(point) for p in planks]
    worst = min(clear)
    if worst <= 0.0:
        bad = int(np.argmin(clear))
        raise VerificationError(
            f"candidate point failed to clear plank {bad} "
            f"(clearance {clear[bad]}); the optimizer missed the true maximizer"
        )
    return RefutationResult(
        point=np.asarray(point, dtype=float),
        clearances=tuple(clear),
        total_width=total,
        budget=2.0,
        split_denominator=N,
    )


def _sphere_samples(d, resolution, seed):
    if d == 2:
        theta = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        # Fibonacci spiral: near-uniform deterministic coverage
        i = np.arange(resolution)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * (i + 0.5) / resolution
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((resolution, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def is_covered_sample(segments, resolution=2000, seed=0):
    """(covered fraction, witness): sampling evidence about a covering claim.

    The witness is any sampled point missed by every segment, or None when
    the sample is fully covered.  Sampling can refute but never prove a
    covering.
    """
    segments = list(segments)
    if not segments:
        d = 2
    else:
        d = segments[0].dim
    pts = _sphere_samples(d, resolution, seed)
    covered = 0
    witness = None
    for x in pts:
        if any(segment_contains(s, x) for s in segments):
            covered += 1
        elif witness is None:
            witness = x
    return covered / len(pts), witness
