"""Outside-in span tracer for the intflow library.

The tracer wraps public functions of ``transformer``, ``kernels``,
``scaling``, ``tensor`` and ``modelfile`` from outside the package, so the
library itself carries no tracing code.  A function bound under one name in
several modules (``scale_match_dim`` in ``kernels`` and ``transformer``,
``trunc_div`` in ``kernels`` and ``scaling``, ...) is replaced in every
module that holds it, because each module looks the name up in its own
globals.  Kernel wrappers copy the ``kind``/``scale_arith`` attributes that
``protocol_apply`` reads.

Spans are recorded only inside a :meth:`Tracer.window`.  A window keeps, per
span name, its call count, total (inclusive) time and self time -- total
minus the time its direct child spans cover -- plus counters that probes add
where the work happens.  Module-tag spans (``transformer.Attn`` ...) are also
kept per layer; the layer index follows from call order within a forward,
the same convention as the ``tap`` callback of ``transformer.forward``.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from intflow import kernels, modelfile, scaling, tensor, transformer

_now = time.perf_counter_ns

# Modules searched for every binding of a wrapped function.
_NAMESPACES = ("intflow.tensor", "intflow.scaling", "intflow.kernels",
               "intflow.transformer", "intflow.modelfile", "intflow.analysis",
               "intflow")

KERNELS = ("matmul", "add", "ew_mul", "pow_n", "abs_", "relu", "sum_reduce",
           "int_div", "concat", "transpose")
MODULE_TAGS = {
    "gather_embedding": transformer.EMB,
    "l1_layer_norm": transformer.LN,
    "attn_core": transformer.ATTN,
    "ffn_core": transformer.FFN,
    "residual_add": transformer.RES,
}


class Window:
    """Spans and counters of one traced region (one forward, one set-up)."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.tag_calls: dict[str, int] = defaultdict(int)
        self.module_layer_ns: dict[str, int] = defaultdict(int)
        self.covered_ns = 0
        self.wall_ns = 0

    def layer_of(self, tag: str, call_index: int) -> int:
        """Layer index of the n-th call of a module tag within a forward."""
        if tag == transformer.EMB:
            return 0
        if tag == transformer.PROJ:
            return self.n_layers
        if tag in (transformer.LN, transformer.RES):
            return call_index // 2  # two per layer; the final LN is layer n
        return call_index

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def total_ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e6

    def coverage(self) -> float:
        return self.covered_ns / self.wall_ns if self.wall_ns else 0.0


class Tracer:
    """Installs span wrappers into the intflow modules and records windows."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self.current: Window | None = None
        self._stack: list[list] = []  # frames: [name, start_ns, child_ns]
        self._patches = self._build_patches()
        self._installed = False

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, _now(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> int:
        dur = _now() - frame[1]
        self._stack.pop()
        w = self.current
        if self._stack:
            self._stack[-1][2] += dur
        else:
            w.covered_ns += dur
        name = frame[0]
        w.calls[name] += 1
        w.total_ns[name] += dur
        w.self_ns[name] += dur - frame[2]
        return dur

    def _charge_probe(self, t0: int) -> None:
        """Keep probe time out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += _now() - t0

    @contextmanager
    def window(self):
        """Record spans for the duration of the block; yields the Window."""
        if not self._installed:
            raise RuntimeError("tracer window opened while wrappers are not installed")
        w = Window(self.n_layers)
        self.current = w
        self._stack.clear()
        t0 = _now()
        try:
            yield w
        finally:
            w.wall_ns = _now() - t0
            self.current = None
            self._stack.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str | None, probe=None, tag_of=None):
        """Span `name` around `fn`, inside a module-tag span when `tag_of`
        names one for the call; `name=None` leaves only the tag span."""
        tracer = self

        def traced(*args, **kwargs):
            w = tracer.current
            if w is None:
                return fn(*args, **kwargs)
            tag = tag_of(args, kwargs) if tag_of is not None else None
            outer = inner = None
            if tag is not None:
                layer = w.layer_of(tag, w.tag_calls[tag])
                w.tag_calls[tag] += 1
                outer = tracer._open("transformer." + tag)
            if name is not None:
                inner = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if inner is not None:
                    tracer._close(inner)
                if outer is not None:
                    w.module_layer_ns[f"{tag}.{layer}"] += tracer._close(outer)
            if probe is not None:
                t0 = _now()
                probe(w, args, kwargs, out)
                tracer._charge_probe(t0)
            return out

        functools.update_wrapper(traced, fn)  # carries kind / scale_arith
        return traced

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding."""
        proj_tag = lambda a, k: transformer.PROJ if k.get("module") == transformer.PROJ else None
        # (home module, attribute, span name, probe, tag_of); a module
        # function's span is its tag span, so it gets no inner span name.
        targets = [(transformer, attr, None, None, lambda a, k, tag=tag: tag)
                   for attr, tag in MODULE_TAGS.items()]
        targets.append((transformer, "poly_attention", "transformer.poly_attention", None, None))
        targets += [(kernels, k, "kernels." + k, _matmul_probe if k == "matmul" else None, None)
                    for k in KERNELS]
        targets += [
            (scaling, "protocol_apply", "scaling.protocol_apply", None, proj_tag),
            (scaling, "rescale", "scaling.rescale", None, None),
            (scaling, "scale_match", "scaling.scale_match", _scale_match_probe, None),
            (scaling, "scale_match_dim", "scaling.scale_match_dim", _scale_match_dim_probe, None),
            (scaling, "trunc_div", "scaling.trunc_div", None, None),
            (scaling, "quantize", "scaling.quantize", None, None),
            (scaling, "dequantize", "scaling.dequantize", None, None),
            (scaling, "init_scale", "scaling.init_scale", None, None),
            (modelfile, "save_model", "modelfile.save", None, None),
            (modelfile, "load_model", "modelfile.load", None, None),
        ]

        patches = []
        for home, attr, name, probe, tag_of in targets:
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, probe, tag_of)
            for ns in filter(None, map(sys.modules.get, _NAMESPACES)):
                patches += [(ns, key, original, wrapped)
                            for key, value in vars(ns).items() if value is original]

        # Constructors and the max|x| property live on the classes, which
        # every namespace shares.
        for cls, name in ((tensor.IntTensor, "tensor.IntTensor"),
                          (tensor.ScaleTensor, "tensor.ScaleTensor")):
            init = cls.__dict__["__init__"]
            patches.append((cls, "__init__", init, self._wrap(init, name)))
        prop = tensor.IntTensor.__dict__["max_magnitude"]
        patches.append((tensor.IntTensor, "max_magnitude", prop,
                        property(self._wrap(prop.fget, "tensor.IntTensor.max_magnitude"))))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._installed = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- probes: counters measured where the work happens -----------------------


def _matmul_probe(w: Window, args, kwargs, out) -> None:
    a, b_t = args[0], args[1]
    m, k = a.shape
    n = b_t.shape[0]
    # Computed, not measured: int64 operands and result at 8 bytes each.
    w.counts["kernels.matmul.bytes"] += 8 * (m * k + n * k + m * n)


def _scale_match_probe(w: Window, args, kwargs, out) -> None:
    ts = args[0]
    first = np.broadcast_to(ts[0].scale.values, ts[0].shape)
    if all(np.array_equal(first, np.broadcast_to(t.scale.values, t.shape)) for t in ts[1:]):
        w.counts["scaling.scale_match.noop"] += 1


def _scale_match_dim_probe(w: Window, args, kwargs, out) -> None:
    t = args[0]
    d = (args[1] if len(args) > 1 else kwargs["d"]) % len(t.shape)
    s = t.scale.values
    if s.shape[d] == 1 or np.all(s == np.min(s, axis=d, keepdims=True)):
        w.counts["scaling.scale_match_dim.noop"] += 1
