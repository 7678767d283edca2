"""Span recorder and the wrappers that feed it, installed from outside zerogap.

A span is one call of a wrapped function: its name, start, end, the span that
was open when it began (its parent), and the benchmark instance it served.
Spans stay in memory in flat arrays and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.

``install`` replaces every module attribute and class attribute that names a
wrapped function (``covering.multiplier_point``, ``TrigPoly.__call__`` and so
on) and returns a handle whose ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer, qualified name) of every wrapped function; the layer is the module
# that defines it and the first part of its metric names.
FUNCTIONS = (
    ("cli", "main"),
    ("trigcircle", "TrigPoly.eval"),
    ("trigcircle", "trig_zeros"),
    ("trigcircle", "trig_max_points"),
    ("trigcircle", "zero_gap_certificate"),
    ("trigcircle", "interlacing_check"),
    ("polycore", "restrict_to_circle"),
    ("polycore", "MultiPoly.eval"),
    ("polycore", "MultiPoly.gradient"),
    ("polycore", "product_of_affine_forms"),
    ("sphereopt", "maximize_abs_on_sphere"),
    ("sphereopt", "angular_distance_to_zero_set"),
    ("sphereopt", "verify_sphere_gap"),
    ("complexproj", "ComplexHomogPoly.eval"),
    ("complexproj", "ComplexHomogPoly.holomorphic_gradient"),
    ("complexproj", "complex_zero_distance"),
    ("complexproj", "verify_complex_gap"),
    ("complexproj", "verify_weighted_gap"),
    ("ballfinder", "multiplier_point"),
    ("ballfinder", "pair_point"),
    ("ballfinder", "euclidean_zero_distance"),
    ("chebmult", "ball_multiplier"),
    ("covering", "refute_cover_sphere"),
    ("covering", "refute_cover_ball"),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in FUNCTIONS) + ("slsqp",)
REFUTERS = ("covering.refute_cover_sphere", "covering.refute_cover_ball")
# modules whose own ``minimize`` import is wrapped as the SLSQP boundary
SLSQP_MODULES = ("sphereopt", "ballfinder", "complexproj")


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_instance = -1
        self.slsqp_nfev = 0
        self.slsqp_success = 0
        self.factors = 0
        self.pieces = 0
        self._pending_pieces = {}

    def open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "instance": np.frombuffer(self.instance, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children.

    The recorder is one LIFO stack, so a span's children never overlap each
    other and never outlast their parent.
    """
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    own = dur.copy()
    kids = np.flatnonzero(parent >= 0)
    np.subtract.at(own, parent[kids], dur[kids])
    return own


def layer_metrics(rec):
    """Per-layer metrics (name -> (value, unit)) from a finished recording."""
    a = rec.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    calls = np.bincount(a["name"], minlength=len(SPAN_NAMES))
    busy = np.bincount(a["name"], weights=own, minlength=len(SPAN_NAMES))
    metrics = {}
    for i, span in enumerate(SPAN_NAMES):
        metrics[f"{span}.calls"] = (int(calls[i]), "count")
        metrics[f"{span}.self_s"] = (float(busy[i]), "s")
    metrics["slsqp.nfev"] = (rec.slsqp_nfev, "count")
    n_slsqp = metrics["slsqp.calls"][0]
    metrics["slsqp.success_ratio"] = (rec.slsqp_success / n_slsqp if n_slsqp else 0.0, "ratio")
    metrics["covering.factors"] = (rec.factors, "count")
    metrics["covering.factor_ratio"] = (rec.factors / rec.pieces if rec.pieces else 0.0, "ratio")
    return metrics


def _span_wrapper(rec, name_id, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)

    return wrapper


def _refuter_wrapper(rec, name_id, fn):
    @functools.wraps(fn)
    def wrapper(pieces, *args, **kwargs):
        pieces = list(pieces)
        sid = rec.open(name_id)
        rec._pending_pieces[sid] = len(pieces)
        try:
            return fn(pieces, *args, **kwargs)
        finally:
            rec._pending_pieces.pop(sid, None)
            rec.close(sid)

    return wrapper


def _slsqp_wrapper(rec, name_id, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name_id)
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        rec.slsqp_nfev += int(getattr(res, "nfev", 0))
        rec.slsqp_success += bool(getattr(res, "success", False))
        return res

    return wrapper


def _factor_count_wrapper(rec, fn):
    """from_affine_product: count the factors a refuter hands over."""

    def wrapper(cls, forms):
        forms = tuple(forms)
        if rec.stack and rec.stack[-1] in rec._pending_pieces:
            rec.factors += len(forms)
            rec.pieces += rec._pending_pieces.pop(rec.stack[-1])
        return fn(cls, forms)

    return classmethod(wrapper)


class Installed:
    """Handle on installed wrappers; ``restore`` undoes every replacement."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _zerogap_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "zerogap" and m is not None]


def install(rec):
    """Wrap every function in FUNCTIONS wherever zerogap names it."""
    import zerogap.cli  # noqa: F401  (loads every module that gets wrapped)

    mods = {m.__name__.split(".")[-1]: m for m in _zerogap_modules()}
    handle = Installed()
    try:
        for name_id, (layer, qualname) in enumerate(FUNCTIONS):
            span = SPAN_NAMES[name_id]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mods[layer], owner_name) if owner_name else mods[layer]
            fn = owner.__dict__[attr]
            make = _refuter_wrapper if span in REFUTERS else _span_wrapper
            wrapped = make(rec, name_id, fn)
            if owner_name:
                # a method and every alias of it on the class, e.g. __call__ = eval
                for alias, value in list(owner.__dict__.items()):
                    if value is fn:
                        handle.replace(owner, alias, wrapped)
            else:
                for mod in mods.values():
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            handle.replace(mod, alias, wrapped)
        slsqp_id = SPAN_NAMES.index("slsqp")
        for layer in SLSQP_MODULES:
            mod = mods[layer]
            handle.replace(mod, "minimize", _slsqp_wrapper(rec, slsqp_id, mod.minimize))
        multipoly = mods["polycore"].MultiPoly
        orig = multipoly.__dict__["from_affine_product"].__func__
        handle.replace(multipoly, "from_affine_product", _factor_count_wrapper(rec, orig))
    except BaseException:
        handle.restore()
        raise
    return handle
