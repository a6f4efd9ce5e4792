"""Spans and counts around the calls into each module of ``cliffex``.

The tracer is installed from the benchmark's side: it replaces functions
and methods of the program's modules with wrappers, and changes no file
of the program.  A layer is a module.  A call opens a frame when it enters
a layer from another one; calls inside the same layer run unwrapped apart
from their counters, so a layer's self time is the time spent in its
frames minus the time of the frames opened beneath them.

Frames of ``field`` and the hot blade helpers of ``core`` are aggregated
only.  Every other frame is also kept as a span, ``(id, parent id,
operation number, layer, name, start, end)``, in memory, and written out
when the run ends.  Small helpers that are not wrapped (the parity and
sign functions of ``core``, ``square_factor``, ``check_mask``) run inside
their caller's frame, so their time is their caller's self time.
"""
from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("field", "core", "linalg", "operators", "structure", "classify",
          "checks", "cli", "quaternions")

# Per-layer metrics: (name, unit, better).  Counts are per pass.
PER_LAYER = [
    ("field.rational_ops", "count", "lower"),
    ("field.fp_ops", "count", "lower"),
    ("field.fp_inversions", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("core.products", "count", "lower"),
    ("core.product_terms", "count", "lower"),
    ("core.pairs", "count", "lower"),
    ("core.blade_products", "count", "lower"),
    ("core.multivectors", "count", "lower"),
    ("core.coeff_slots", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("linalg.dense_calls", "count", "lower"),
    ("linalg.dense_cells", "count", "lower"),
    ("linalg.sparse_calls", "count", "lower"),
    ("linalg.sparse_rows", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("operators.translation_matrices", "count", "lower"),
    ("operators.calls", "count", "lower"),
    ("operators.self_s", "s", "lower"),
    ("structure.parity_tests", "count", "lower"),
    ("structure.killing_counts", "count", "lower"),
    ("structure.ad_matrices", "count", "lower"),
    ("structure.self_s", "s", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.self_s", "s", "lower"),
    ("checks.checks_run", "count", "lower"),
    ("checks.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("quaternions.calls", "count", "lower"),
    ("quaternions.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__")
# Core helpers called in the innermost loops of core itself.
_CORE_UNWRAPPED = {"reorder_parity", "reorder_sign", "anticommute_parity", "grade_of",
                   "involute_sign", "reverse_sign", "conjugate_sign",
                   "square_factor", "check_mask"}


class Tracer:
    """Collects self time per layer, counters and spans while ``on`` is set."""

    def __init__(self, max_spans: int = 300_000):
        self.on = False
        self.stack: list = []  # frames: [layer, child seconds, span id]
        self.self_time = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.counts: Counter = Counter()
        self.spans: list = []
        self.max_spans = max_spans
        self.dropped = 0
        self.request = 0
        self._ids = 0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, key=None, extra=None, record=True):
        """A wrapper that counts, and opens a frame when it enters ``layer``."""
        tracer, stack, self_time, counts = self, self.stack, self.self_time, self.counts
        pc = time.perf_counter
        entry_key = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if key is not None:
                counts[key] += 1
            if extra is not None:
                extra(counts, args)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            sid = tracer._open_id() if record else -1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                d = t1 - t0
                self_time[layer] += d - frame[1]
                counts[entry_key] += 1
                if stack:
                    stack[-1][1] += d
                if record:
                    tracer._record(sid, layer, name, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key=None, extra=None):
        """A wrapper that only counts; its time stays with the caller."""
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.on:
                if key is not None:
                    counts[key] += 1
                if extra is not None:
                    extra(counts, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def parity_counter(self, fn):
        """A lean two-argument counter for the parity test, called O(L^2) times."""
        tracer, counts = self, self.counts

        def wrapper(a, b):
            if tracer.on:
                counts["structure.parity_tests"] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_id(self) -> int:
        self._ids += 1
        return self._ids

    def _record(self, sid, layer, name, t0, t1):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        parent = -1
        for frame in reversed(self.stack):
            if frame[2] >= 0:
                parent = frame[2]
                break
        self.spans.append((sid, parent, self.request, layer, name, t0, t1))

    # -- one timed operation as the root span ------------------------------

    def begin(self, request: int):
        self.request = request
        self.stack.clear()
        self.stack.append(["bench", 0.0, self._open_id()])
        self.on = True
        return time.perf_counter()

    def end(self, name: str, t0: float):
        t1 = time.perf_counter()
        self.on = False
        frame = self.stack.pop()
        self.self_time["bench"] += (t1 - t0) - frame[1]
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[2], -1, self.request, "bench", name, t0, t1))
        else:
            self.dropped += 1
        return t1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the functions and methods of every module of ``cliffex``."""
        import cliffex
        from cliffex import (checks, classify, cli, core, field, linalg, operators,
                             quaternions, structure)

        replaced: dict = {}

        def product_terms(counts, args):
            a, b = args[0], args[1]
            if isinstance(b, core.Multivector):
                counts["core.products"] += 1
                counts["core.product_terms"] += (sum(1 for c in a.coeffs if c)
                                                 * sum(1 for c in b.coeffs if c))

        def made(counts, args):  # _make(cls, form, coeffs)
            counts["core.multivectors"] += 1
            counts["core.coeff_slots"] += len(args[2])

        def init_made(counts, args):
            counts["core.multivectors"] += 1
            counts["core.coeff_slots"] += args[1].dim

        def dense(counts, args):
            counts["linalg.dense_calls"] += 1
            counts["linalg.dense_cells"] += len(args[0]) ** 2

        def sparse(counts, args):
            counts["linalg.sparse_calls"] += 1
            counts["linalg.sparse_rows"] += len(args[0])

        special = {
            ("core", "Multivector.__mul__"): dict(extra=product_terms),
            ("core", "Multivector.pair"): dict(key="core.pairs"),
            ("core", "QuadraticForm.blade_product"): dict(key="core.blade_products", record=False),
            ("linalg", "determinant"): dict(extra=dense),
            ("linalg", "solve_dense"): dict(extra=dense),
            ("linalg", "invert_matrix"): dict(extra=dense),
            ("linalg", "_sparse_rref"): dict(extra=sparse),
            ("operators", "left_matrix"): dict(key="operators.translation_matrices"),
            ("operators", "right_matrix"): dict(key="operators.translation_matrices"),
            ("structure", "killing_count"): dict(key="structure.killing_counts"),
            ("structure", "ad_matrix"): dict(key="structure.ad_matrices"),
            ("cli", "main"): dict(key="cli.commands"),
        }

        def options(layer, qual):
            opts = dict(special.get((layer, qual), {}))
            if layer == "checks" and qual.startswith("check_"):
                opts["key"] = "checks.checks_run"
            if layer == "field":
                opts["record"] = False
            return opts

        modules = {"core": core, "linalg": linalg, "operators": operators,
                   "structure": structure, "classify": classify, "checks": checks,
                   "cli": cli, "quaternions": quaternions, "field": field}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if layer == "core" and name in _CORE_UNWRAPPED:
                        continue
                    w = self.wrap(layer, name, obj, **options(layer, name))
                    setattr(mod, name, w)
                    replaced[obj] = w
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, options)

        # Names imported into other modules point at the originals.
        for mod in list(modules.values()) + [cliffex]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

        # Multivectors built, and the parity tests structure makes.
        mv = core.Multivector
        mv._make = classmethod(self.counter(mv._make.__func__, extra=made))
        mv.__init__ = self.counter(mv.__init__, extra=init_made)
        structure.anticommute_parity = self.parity_counter(core.anticommute_parity)

        # Field arithmetic: Fraction from the standard library, Fp from field.
        for attr in _ARITH:
            orig = getattr(Fraction, attr, None)
            if orig is not None:
                setattr(Fraction, attr, self.wrap("field", f"Fraction.{attr}", orig,
                                                  key="field.rational_ops", record=False))
            orig = vars(field.Fp).get(attr)
            if orig is not None:
                setattr(field.Fp, attr, self.wrap("field", f"Fp.{attr}", orig,
                                                  key="field.fp_ops", record=False))
        inv = vars(field.Fp)["inverse"]
        counted = self.counter(inv, key="field.fp_inversions")
        field.Fp.inverse = self.wrap("field", "Fp.inverse", counted,
                                     key="field.fp_ops", record=False)

    def _wrap_class(self, layer, cls, options):
        if issubclass(cls, (tuple, BaseException)):
            return
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("__") and name not in _ARITH and name != "__eq__":
                continue
            if layer == "core" and name in _CORE_UNWRAPPED:
                continue
            if name == "inverse" and layer == "field":
                continue  # wrapped with the inversion counter
            if layer == "field" and name in _ARITH:
                continue  # wrapped with the Fp arithmetic counter
            if cls.__name__ == "Multivector" and name == "_make":
                continue  # counted only; called in every operation's inner loop
            opts = options(layer, qual)
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, qual, attr.__func__, **opts)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, qual, attr.__func__, **opts)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qual, attr, **opts))

    # -- results ------------------------------------------------------------

    def snapshot(self) -> tuple:
        return Counter(self.counts), dict(self.self_time)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(before: tuple, after: tuple) -> dict:
    """Counts and self seconds between two snapshots, as per-layer metrics."""
    c0, s0 = before
    c1, s1 = after
    out = {}
    for name, unit, _ in PER_LAYER:
        layer, metric = name.split(".", 1)
        if layer == "trace":
            continue
        if metric == "self_s":
            out[name] = s1[layer] - s0[layer]
        else:
            out[name] = c1[name] - c0[name]
    return out
