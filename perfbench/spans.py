"""Per-layer spans and counts, recorded from outside the engine.

`Tracer.install` wraps npscalar's public functions and methods in place.
Each call records a span (layer, start, end, parent index) and, at a few
boundaries, counts. A layer's self time is its spans' durations minus the
part of them that child spans cover. Bookkeeping done after a call returns
is recorded as an unnamed child span of the caller, and each garbage
collection as a "gc" span, so neither is charged to a layer. Nothing under
src/ is modified; `uninstall` restores every name.

A target that no longer exists is listed in `absent` instead of failing,
so the benchmark survives refactors; the caller decides whether a layer
that then records no calls is an error.
"""

from __future__ import annotations

import functools
import gc
import operator
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (layer, module, attribute path). A function is also patched under every
# name an npscalar module bound it to.
TARGETS = (
    ("ring.product_trace", "npscalar.ring", "product_trace"),
    ("ring.modvector", "npscalar.ring", "ModVector.__init__"),
    ("ring.vector_ops", "npscalar.ring", "ModVector.add"),
    ("ring.vector_ops", "npscalar.ring", "ModVector.sub"),
    ("ring.vector_ops", "npscalar.ring", "ModVector.hadamard"),
    ("shares.bundles", "npscalar.shares", "generate_share_bundles"),
    ("shares.rng", "npscalar.shares", "Rng.vector"),
    ("shares.rng", "npscalar.shares", "Rng.element"),
    ("simnet.send", "npscalar.simnet", "Network.send"),
    ("simnet.deliver", "npscalar.simnet", "Network.deliver_next"),
    ("simnet.record_local", "npscalar.simnet", "Network.record_local"),
    ("simnet.view_of", "npscalar.simnet", "Network.view_of"),
    ("simnet.export", "npscalar.simnet", "Transcript.export_jsonl"),
    ("protocol.run", "npscalar.protocol", "run_protocol"),
    ("protocol.start", "npscalar.protocol", "ProtocolEngine.start"),
    ("protocol.spawn", "npscalar.protocol", "ProtocolEngine.spawn_sub_instance"),
    ("protocol.dispatch", "npscalar.protocol", "ProtocolEngine.dispatch"),
    ("protocol.chain", "npscalar.protocol", "chain_init"),
    ("protocol.chain", "npscalar.protocol", "chain_step"),
    ("protocol.chain", "npscalar.protocol", "aggregate_final"),
    ("protocol.chain", "npscalar.protocol", "two_party_response"),
    ("protocol.chain", "npscalar.protocol", "two_party_combine"),
    ("analysis.oracle", "npscalar.analysis", "plaintext_oracle"),
    ("analysis.reconstruct", "npscalar.analysis", "reconstruct_inputs"),
    ("analysis.closure", "npscalar.analysis", "knowledge_closure"),
    ("analysis.forced_guess", "npscalar.analysis", "forced_guess_inputs"),
    ("analysis.scans", "npscalar.analysis", "scan_ttp_rotation"),
    ("analysis.scans", "npscalar.analysis", "scan_mask_safety"),
    ("analysis.scans", "npscalar.analysis", "scan_mask_freshness"),
)

# Per-layer metric name for the number of spans a layer recorded.
CALL_METRICS = {
    "ring.product_trace": "ring.product_trace.calls",
    "ring.modvector": "ring.modvector.new",
    "ring.vector_ops": "ring.vector_ops.calls",
    "shares.bundles": "shares.bundles.calls",
    "simnet.send": "simnet.send.calls",
    "simnet.deliver": "simnet.deliver.calls",
    "simnet.record_local": "simnet.record_local.calls",
    "simnet.view_of": "simnet.view_of.calls",
    "protocol.run": "protocol.run.calls",
    "protocol.start": "protocol.start.calls",
    "protocol.spawn": "protocol.spawn.calls",
    "protocol.dispatch": "protocol.dispatch.calls",
    "protocol.chain": "protocol.chain.calls",
}

MESSAGE_KINDS = (
    "ShareDistribution",
    "MaskedMatrixBroadcast",
    "ChainValue",
    "SubResult",
    "OutputMaskReveal",
    "FinalResult",
)

MAX_DEPTH = 4  # n = 6 instances nest 0..4 deep

# Counts the hooks keep under their metric names.
COUNTED = (
    "ring.product_trace.entries",
    "ring.modvector.entries",
    "shares.rng.elements",
    "simnet.pending.peak",
    *(f"simnet.messages.{kind}" for kind in MESSAGE_KINDS),
    "protocol.instances",
    *(f"protocol.instances.depth{d}" for d in range(MAX_DEPTH + 1)),
)


# Layers in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, current value) or None if any part is gone."""
    owner = sys.modules.get(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._residence: list[int] = []
        self._pending: Counter = Counter()
        self._delivered: Counter = Counter()
        self._sent_at: dict = {}
        self._patches: list = []
        self._gc_start = 0.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "product_trace": (None, self._after_product_trace),
            "ModVector.__init__": (self._before_modvector, self._after_modvector),
            "Rng.vector": (None, self._after_rng_vector),
            "Rng.element": (None, self._after_rng_element),
            "Network.send": (None, self._after_send),
            "Network.deliver_next": (None, self._after_deliver),
            "ProtocolEngine.start": (None, self._after_start),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "npscalar" or name.startswith("npscalar.")]
        for layer, module_name, attr_path in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, name, original = found
            before, after = hooks.get(attr_path, (None, None))
            wrapped = self._span(layer, original, before, after)
            if "." in attr_path:
                self._patch(owner, name, original, wrapped)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapped)
        found = _resolve("npscalar.shares", "Rng.__init__")
        if found is None:
            self.absent.append("npscalar.shares.Rng.__init__")
        else:
            owner, name, original = found
            self._patch(owner, name, original, self._counting_rng_init(original))
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _on_gc(self, phase, info):
        # A collection lands in whichever span allocated last; record it as
        # its own child span so that layer self times exclude it. Collections
        # outside every span are the benchmark's own and are not recorded.
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.spans.append(("gc", self._gc_start, time.perf_counter(), self._stack[-1]))

    def _span(self, layer, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                # Pop first: a collection that the tuple below triggers
                # falls after `end`, so it belongs to the parent.
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if after is not None:
                book = len(spans)
                spans.append(None)
                stack.append(book)
                mark = clock()
                after(args, result)
                stack.pop()
                spans[book] = (None, mark, clock(), parent)
            return result

        return wrapper

    def _counting_rng_init(self, original):
        counts = self.counts

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                counts["getrandbits"] += 1
                return super().getrandbits(k)

        @functools.wraps(original)
        def init(rng, *args, **kwargs):
            original(rng, *args, **kwargs)
            inner = getattr(rng, "_r", None)
            if type(inner) is random.Random:
                counting = CountingRandom()
                counting.setstate(inner.getstate())
                rng._r = counting

        return init

    # -- hooks -----------------------------------------------------------------

    def _after_product_trace(self, args, result):
        self.counts["ring.product_trace.entries"] += sum(len(v) for v in args[0])

    @staticmethod
    def _before_modvector(args):
        # Materialise a lazy iterable so the entries can be compared with
        # their reduced values afterwards; iterating it is the constructor's
        # own work, so it stays inside the span.
        if len(args) > 1 and not isinstance(args[1], (list, tuple)):
            args = (args[0], list(args[1]), *args[2:])
        return args

    def _after_modvector(self, args, result):
        entries = getattr(args[0], "entries", ())
        self.counts["ring.modvector.entries"] += len(entries)
        if len(args) > 1:
            self.counts["prereduced"] += sum(map(operator.eq, args[1], entries))

    def _after_rng_vector(self, args, result):
        self.counts["shares.rng.elements"] += len(result)

    def _after_rng_element(self, args, result):
        self.counts["shares.rng.elements"] += 1

    def _after_send(self, args, msg):
        net = args[0]
        self._pending[net] += 1
        if self._pending[net] > self.counts["simnet.pending.peak"]:
            self.counts["simnet.pending.peak"] = self._pending[net]
        self._sent_at[msg] = self._delivered[net]

    def _after_deliver(self, args, msg):
        if msg is None:
            return
        net = args[0]
        self._residence.append(self._delivered[net] - self._sent_at.pop(msg))
        self._delivered[net] += 1
        self._pending[net] -= 1
        self.counts[f"simnet.messages.{msg.kind.value}"] += 1

    def _after_start(self, args, result):
        depth = args[1].depth
        self.counts["protocol.instances"] += 1
        self.counts[f"protocol.instances.depth{depth}"] += 1

    # -- per-op records --------------------------------------------------------

    def begin_op(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self._residence.clear()
        self._pending.clear()
        self._delivered.clear()
        self._sent_at.clear()

    def end_op(self) -> OpTrace:
        """Per-layer metrics of the op since `begin_op`."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for i, (layer, start, end, parent) in enumerate(spans):
            if layer is None:
                continue
            calls[layer] += 1
            # Rng.vector hands ModVector a lazy generator, so the draws
            # happen inside the constructor: that time is the RNG's.
            if layer == "ring.modvector" and parent >= 0 and spans[parent][0] == "shares.rng":
                layer = "shares.rng"
            self_s[layer] += end - start - covered[i]

        c = self.counts
        counts = {metric: calls[layer] for layer, metric in CALL_METRICS.items()}
        counts.update((key, c[key]) for key in COUNTED)
        counts["ring.modvector.prereduced_ratio"] = _ratio(
            c["prereduced"], c["ring.modvector.entries"])
        counts["shares.rng.getrandbits_per_element"] = _ratio(
            c["getrandbits"], c["shares.rng.elements"])
        counts["simnet.queue_residence.p50"] = (
            statistics.median(self._residence) if self._residence else 0
        )

        times = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        times["gc.pause_s"] = self_s["gc"]
        # When the collector runs depends on heap state, not only on the op.
        times["gc.collections"] = calls["gc"]
        return OpTrace(counts, times, dict(calls))


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


@dataclass
class OpTrace:
    counts: dict  # identical whenever the same op is traced again
    times: dict  # vary from run to run
    layer_calls: dict
