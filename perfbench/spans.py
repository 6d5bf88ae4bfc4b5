"""Span tracing and attribute patching for the benchmark.

The benchmark treats every layer of the program as a black box.  It never
edits the program; instead it replaces names *where the caller looks them
up* (a class attribute such as ``Link.send``, or a module global such as
``repro.protocol.sender.encode_share``) with a wrapper, and restores them
afterwards.  Two kinds of wrapper exist:

* taps (:class:`Patches` alone) that copy out a value the workload needs
  to check correctness or compute a simulated metric -- installed in every
  pass, they do no timing;
* spans (:class:`Tracer`), installed only for the traced pass: each span
  records its layer, start, end and parent, and the point index as its
  trace id.  A layer's self time is the sum, over its spans, of the span's
  duration minus the time its direct child spans cover.

Callbacks the program hands to the engine or to a link (heap events,
writable watchers, receive callbacks) are wrapped at registration time
and attributed to the layer of the module that defined them, so work a
layer does from inside an engine dispatch is charged to that layer and
not to the engine.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Attribute set on every span wrapper, so a callback is never wrapped twice.
MARK = "_perfbench_span"

#: Module prefix -> layer name.  Longest prefix wins; modules outside the
#: program (the benchmark's own workload code) and the load generators are
#: charged to ``workload``.
LAYER_PREFIXES = {
    "repro.netsim.engine": "netsim.engine",
    "repro.netsim.link": "netsim.link",
    "repro.netsim.ports": "netsim.link",
    "repro.netsim.readiness": "netsim.readiness",
    "repro.netsim": "netsim.other",
    "repro.protocol.sender": "protocol.sender",
    "repro.protocol.receiver": "protocol.receiver",
    "repro.protocol.remicss": "protocol.receiver",
    "repro.protocol.wire": "protocol.wire",
    "repro.protocol.auth": "protocol.auth",
    "repro.protocol.resilience": "protocol.resilience",
    "repro.protocol": "protocol.other",
    "repro.sharing": "sharing",
    "repro.gf": "gf",
    "repro.fleet": "fleet",
    "repro.sweep": "sweep",
    "repro.adversary.active": "adversary.active",
    "repro.core.planner": "core.planner",
    "repro.lp": "core.planner",
    "repro.core": "core.other",
}


def layer_of(module: str) -> str:
    """The layer a module belongs to (see :data:`LAYER_PREFIXES`)."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else "workload"


class Patches:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> Any:
        """Set ``owner.name = value`` (restored later)."""
        # A class attribute is saved from the class's own namespace, so an
        # inherited or absent name is deleted again instead of copied in.
        original = owner.__dict__.get(name, self._ABSENT)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        self.set(owner, name, make(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is self._ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class Tracer:
    """Spans and per-layer counters for one traced pass.

    Counters live in :attr:`counts`; objects the wrapped constructors
    saw live in :attr:`objects`.  :meth:`end_point` snapshots both per
    point; self and inclusive times accumulate over the pass.
    Full span records are kept in memory up to ``span_cap`` and written
    out by the caller when the benchmark ends.
    """

    def __init__(
        self,
        extras: Callable[[Dict[str, list]], Dict[str, float]],
        span_cap: int = 50_000,
    ) -> None:
        self.extras = extras
        self.trace_id = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        self.point_counts: List[Dict[str, float]] = []
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.span_cap = span_cap
        self.objects: Dict[str, list] = defaultdict(list)
        self._stack: List[list] = []
        self._next_id = 0
        self._describe_cache: Dict[Any, Tuple[str, str]] = {}

    # -- spans ----------------------------------------------------------------

    def call(self, layer: str, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[0]
            self.incl_s[name] += duration
            if stack:
                stack[-1][0] += duration
            if len(self.spans) < self.span_cap:
                self.spans.append((self.trace_id, span_id, parent, name, start, end))

    def describe(self, callback: Callable) -> Tuple[str, str]:
        """(layer, qualified name) of a callback, cached per code object."""
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(callback)
        hit = self._describe_cache.get(key)
        if hit is None:
            module = getattr(func, "__module__", None) or type(callback).__module__
            qualname = getattr(func, "__qualname__", type(callback).__qualname__)
            hit = (layer_of(module), f"{module}.{qualname}")
            self._describe_cache[key] = hit
        return hit

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` wrapped in a span of the layer that defined it."""
        if getattr(getattr(callback, "__func__", callback), MARK, False):
            return callback
        layer, name = self.describe(callback)
        call = self.call

        def spanned(*args: Any) -> Any:
            return call(layer, name, callback, *args)

        setattr(spanned, MARK, True)
        return spanned

    def spanned(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: str = "",
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """A span wrapper for ``fn``; counts calls under ``count`` and hands
        ``(args, result)`` to ``on_result`` when given."""
        call = self.call
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count:
                counts[count] += 1
            result = call(layer, name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- per-point bookkeeping ------------------------------------------------

    def end_point(self) -> Dict[str, float]:
        """Close the current point: add the counters ``extras`` reads off
        the objects the point created, store the snapshot and reset."""
        snapshot = dict(self.counts)
        for key, value in self.extras(self.objects).items():
            snapshot[key] = snapshot.get(key, 0) + value
        self.point_counts.append(snapshot)
        self.counts.clear()
        self.objects.clear()
        return snapshot

    def totals(self) -> Dict[str, float]:
        """Counters summed over every point of the pass."""
        total: Dict[str, float] = defaultdict(int)
        for snapshot in self.point_counts:
            for key, value in snapshot.items():
                total[key] += value
        return total
