"""The traced pass: where each layer is wrapped and how its metrics derive.

:func:`install` puts span wrappers on the public functions of every layer,
each at the name its caller looks up.  :func:`point_extras` reads the
counters the program already keeps on the objects a point created (link
drops, readiness stalls, evictions, NACKs), and :func:`layer_metrics`
turns the pass's spans and counters into the per-layer metrics listed in
``BENCHMARK.json``.  A layer that did no work reports 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import repro.fleet.runner
import repro.protocol.receiver
import repro.protocol.resilience.failover
import repro.protocol.resilience.manager
import repro.protocol.sender
import repro.sharing.robust
import repro.sharing.shamir
from repro.fleet.mux import FlowMux
from repro.netsim.engine import Engine, Event
from repro.netsim.link import Link
from repro.netsim.ports import ChannelPort
from repro.netsim.readiness import WriteSelector
from repro.protocol.auth import ShareAuthenticator
from repro.protocol.receiver import ReassemblyBuffer
from repro.protocol.resilience import ResilienceManager
from repro.protocol.sender import ShareSender
from repro.sharing.shamir import ShamirScheme
from repro.sweep import SweepRunner

from spans import Patches, Tracer


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced layer's public entry points for one pass."""
    counts = tracer.counts
    call = tracer.call
    spanned = tracer.spanned

    def add(key: str, amount: Callable[[tuple, Any], float]) -> Callable[[tuple, Any], None]:
        def on_result(args: tuple, result: Any) -> None:
            counts[key] += amount(args, result)

        return on_result

    def collect(kind: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def init(self, *args: Any, **kwargs: Any) -> None:
                original(self, *args, **kwargs)
                tracer.objects[kind].append(self)

            return init

        return make

    def register(original: Callable) -> Callable:
        # Callback registration: the callback runs later from inside the
        # link, so it is wrapped in a span of the layer that defined it.
        def registered(self, callback: Callable) -> Any:
            return original(self, tracer.wrap_callback(callback))

        return registered

    # netsim.engine: heap pushes, dispatch loops, cancellations.
    def make_schedule_at(original: Callable) -> Callable:
        wrap_callback = tracer.wrap_callback

        def schedule_at(self, time: float, callback: Callable, *args: Any) -> Event:
            counts["engine.schedules"] += 1
            return call(
                "netsim.engine", "Engine.schedule_at", original, self, time,
                wrap_callback(callback), *args,
            )

        return schedule_at

    def make_run(name: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def run(self, *args: Any) -> None:
                before = self.events_processed
                try:
                    return call("netsim.engine", name, original, self, *args)
                finally:
                    counts["engine.events"] += self.events_processed - before

            return run

        return make

    def make_cancel(original: Callable) -> Callable:
        def cancel(self) -> None:
            counts["engine.cancels"] += 1
            original(self)

        return cancel

    patches.wrap(Engine, "schedule_at", make_schedule_at)
    patches.wrap(Engine, "run_until", make_run("Engine.run_until"))
    patches.wrap(Engine, "run", make_run("Engine.run"))
    patches.wrap(Event, "cancel", make_cancel)

    # netsim.link and its readiness poll; netsim.readiness selection.
    patches.wrap(Link, "__init__", collect("links"))
    patches.wrap(Link, "send", lambda f: spanned("netsim.link", "Link.send", f, "link.sends"))
    patches.wrap(
        Link, "writable",
        lambda f: spanned("netsim.link", "Link.writable", f, "link.writable_polls"),
    )
    patches.wrap(Link, "inject", lambda f: spanned("netsim.link", "Link.inject", f))
    patches.wrap(Link, "watch_writable", register)
    patches.wrap(Link, "watch_transmit", register)
    patches.wrap(ChannelPort, "on_receive", register)
    patches.wrap(
        WriteSelector, "select",
        lambda f: spanned("netsim.readiness", "WriteSelector.select", f, "readiness.selects"),
    )

    # adversary.active: the on-path tap is a plain attribute the link
    # calls, so a class-level property wraps whatever is assigned to it.
    def get_tap(link: Link) -> Any:
        return link.__dict__.get("_perfbench_attack_tap")

    def set_tap(link: Link, tap: Any) -> None:
        if tap is not None:
            tap = spanned("adversary.active", "attack_tap", tap, "adversary.tap_calls")
        link.__dict__["_perfbench_attack_tap"] = tap

    patches.set(Link, "attack_tap", property(get_tap, set_tap))

    # protocol.sender and protocol.receiver.
    patches.wrap(ShareSender, "__init__", collect("senders"))
    patches.wrap(
        ShareSender, "offer",
        lambda f: spanned(
            "protocol.sender", "ShareSender.offer", f, "sender.offers",
            add("sender.accepted", lambda _a, accepted: 1 if accepted else 0),
        ),
    )
    patches.wrap(ReassemblyBuffer, "__init__", collect("receivers"))
    patches.wrap(
        ReassemblyBuffer, "handle_datagram",
        lambda f: spanned(
            "protocol.receiver", "ReassemblyBuffer.handle_datagram", f, "receiver.datagrams"
        ),
    )
    patches.wrap(ResilienceManager, "__init__", collect("managers"))

    # protocol.wire: every codec call site on the data and control paths.
    encoded = add("wire.bytes", lambda _a, packet: len(packet))
    decoded = add("wire.bytes", lambda args, _r: len(args[0]))
    for module, names in (
        (repro.protocol.sender, ("encode_share",)),
        (
            repro.protocol.resilience.manager,
            ("encode_share", "encode_nack", "encode_probe", "encode_probe_ack"),
        ),
    ):
        for name in names:
            patches.wrap(
                module, name,
                lambda f, n=name: spanned("protocol.wire", n, f, "wire.encodes", encoded),
            )
    patches.wrap(
        repro.protocol.receiver, "decode_share",
        lambda f: spanned("protocol.wire", "decode_share", f, "wire.decodes", decoded),
    )
    patches.wrap(
        repro.protocol.resilience.manager, "decode_control",
        lambda f: spanned("protocol.wire", "decode_control", f, "wire.decodes", decoded),
    )

    # protocol.auth: verify() recomputes the tag through tag(), so only
    # tags computed outside a verify count as tags.
    verifying = [0]

    def make_tag(original: Callable) -> Callable:
        def tag(self, *args: Any) -> bytes:
            if not verifying[0]:
                counts["auth.tags"] += 1
            return call("protocol.auth", "ShareAuthenticator.tag", original, self, *args)

        return tag

    def make_verify(original: Callable) -> Callable:
        def verify(self, *args: Any) -> bool:
            counts["auth.verifies"] += 1
            verifying[0] += 1
            try:
                ok = call("protocol.auth", "ShareAuthenticator.verify", original, self, *args)
            finally:
                verifying[0] -= 1
            if not ok:
                counts["auth.verify_fails"] += 1
            return ok

        return verify

    patches.wrap(ShareAuthenticator, "tag", make_tag)
    patches.wrap(ShareAuthenticator, "verify", make_verify)

    # sharing: the scheme's four entry points and the robust decoders the
    # receiver calls.
    def sharing_span(name: str, calls: str, items: str, size: Callable) -> Callable:
        def on_result(args: tuple, result: Any) -> None:
            n, nbytes = size(args, result)
            counts[items] += n
            counts["sharing.bytes"] += nbytes

        return lambda f: spanned("sharing", name, f, calls, on_result)

    patches.wrap(ShamirScheme, "split", sharing_span(
        "ShamirScheme.split", "sharing.split_calls", "sharing.secrets",
        lambda args, _r: (1, len(args[1])),
    ))
    patches.wrap(ShamirScheme, "split_many", sharing_span(
        "ShamirScheme.split_many", "sharing.split_calls", "sharing.secrets",
        lambda args, _r: (len(args[1]), sum(len(secret) for secret in args[1])),
    ))
    patches.wrap(ShamirScheme, "reconstruct", sharing_span(
        "ShamirScheme.reconstruct", "sharing.reconstruct_calls", "sharing.groups",
        lambda _a, secret: (1, len(secret)),
    ))
    patches.wrap(ShamirScheme, "reconstruct_many", sharing_span(
        "ShamirScheme.reconstruct_many", "sharing.reconstruct_calls", "sharing.groups",
        lambda _a, secrets: (len(secrets), sum(len(secret) for secret in secrets)),
    ))
    for name in ("reconstruct_with_erasures", "robust_reconstruct"):
        patches.wrap(repro.protocol.receiver, name, sharing_span(
            name, "sharing.robust_calls", "sharing.robust_groups",
            lambda _a, result: (1, len(result.secret)),
        ))

    # gf: the repro.gf.batch kernels at the sharing layer's call sites.
    gf_bytes = add("gf.bytes", lambda args, _r: args[0].nbytes)
    gf_ys_bytes = add("gf.bytes", lambda args, _r: args[1].nbytes)
    patches.wrap(
        repro.sharing.shamir, "eval_poly_at_points",
        lambda f: spanned("gf", "eval_poly_at_points", f, "gf.kernel_calls", gf_bytes),
    )
    for module in (repro.sharing.shamir, repro.sharing.robust):
        patches.wrap(
            module, "lagrange_interpolate",
            lambda f: spanned("gf", "lagrange_interpolate", f, "gf.kernel_calls", gf_ys_bytes),
        )

    # fleet, sweep, core.planner.
    patches.wrap(
        repro.fleet.runner, "run_cell",
        lambda f: spanned("fleet", "run_cell", f, "fleet.cells"),
    )
    patches.wrap(
        FlowMux, "enqueue",
        lambda f: spanned(
            "fleet", "FlowMux.enqueue", f, "fleet.mux_enqueues",
            add("fleet.mux_drops", lambda _a, queued: 0 if queued else 1),
        ),
    )
    patches.wrap(SweepRunner, "run", lambda f: spanned("sweep", "SweepRunner.run", f))
    patches.wrap(
        repro.protocol.resilience.failover, "plan_max_rate",
        lambda f: spanned("core.planner", "plan_max_rate", f, "planner.solves"),
    )


def point_extras(objects: Dict[str, list]) -> Dict[str, float]:
    """Counters the program keeps on the objects one point created."""
    links = objects.get("links", ())
    senders = objects.get("senders", ())
    receivers = objects.get("receivers", ())
    managers = objects.get("managers", ())
    picks = {}
    for sender in senders:
        for (k, _m), count in sender.schedule_picks.items():
            picks[k] = picks.get(k, 0) + count
    sampled = sum(picks.values())
    mean_k = sum(k * count for k, count in picks.items()) / sampled if sampled else 0.0
    delivered = sum(buffer.stats.symbols_delivered for buffer in receivers)
    return {
        "link.drops": sum(
            link.stats.queue_drops + link.stats.loss_drops
            + link.stats.down_drops + link.stats.down_losses
            for link in links
        ),
        "sender.readiness_stalls": sum(s.stats.readiness_stalls for s in senders),
        "receiver.evictions": sum(b.stats.evicted_symbols for b in receivers),
        "receiver.shares_received": sum(b.stats.shares_received for b in receivers),
        "receiver.useful_shares": mean_k * delivered,
        "resilience.nacks": sum(m.stats.nacks_sent for m in managers),
        "resilience.repairs": sum(m.stats.repair_shares_sent for m in managers),
    }


#: Per-layer metric name -> unit, in report order (mirrors BENCHMARK.json).
LAYER_UNITS = {
    "netsim.engine.events": "count",
    "netsim.engine.schedules": "count",
    "netsim.engine.cancel_ratio": "ratio",
    "netsim.engine.us_per_event": "us",
    "netsim.engine.self_s": "s",
    "netsim.link.sends": "count",
    "netsim.link.drops": "count",
    "netsim.link.writable_polls": "count",
    "netsim.link.polls_per_share": "ratio",
    "netsim.link.self_s": "s",
    "netsim.readiness.selects": "count",
    "netsim.readiness.self_s": "s",
    "protocol.sender.offers": "count",
    "protocol.sender.accept_ratio": "ratio",
    "protocol.sender.readiness_stalls": "count",
    "protocol.sender.self_s": "s",
    "protocol.receiver.datagrams": "count",
    "protocol.receiver.useful_share_ratio": "ratio",
    "protocol.receiver.evictions": "count",
    "protocol.receiver.self_s": "s",
    "protocol.wire.encodes": "count",
    "protocol.wire.decodes": "count",
    "protocol.wire.bytes": "bytes",
    "protocol.wire.self_s": "s",
    "protocol.auth.tags": "count",
    "protocol.auth.verifies": "count",
    "protocol.auth.verify_fail_ratio": "ratio",
    "protocol.auth.self_s": "s",
    "sharing.split_calls": "count",
    "sharing.secrets_per_split": "ratio",
    "sharing.reconstruct_calls": "count",
    "sharing.groups_per_reconstruct": "ratio",
    "sharing.robust_calls": "count",
    "sharing.bytes": "bytes",
    "sharing.self_s": "s",
    "gf.kernel_calls": "count",
    "gf.bytes_per_call": "bytes",
    "gf.self_s": "s",
    "fleet.cells": "count",
    "fleet.cell_s": "s",
    "fleet.mux_enqueues": "count",
    "fleet.mux_drops": "count",
    "fleet.runner_overhead_s": "s",
    "sweep.overhead_s": "s",
    "adversary.active.tap_calls": "count",
    "adversary.active.self_s": "s",
    "protocol.resilience.nacks": "count",
    "protocol.resilience.repairs": "count",
    "protocol.resilience.self_s": "s",
    "core.planner.solves": "count",
    "core.planner.self_s": "s",
    "workload.self_s": "s",
}

#: The per-layer metrics that are exact work counts (the self-check
#: requires them to repeat exactly across traced runs on one seed).
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, point_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``point_s`` is the summed host time of the pass's points, from which
    the fleet runner's overhead (point time outside ``run_cell``) derives.
    """
    c = tracer.totals()
    s = tracer.self_s
    cell_s = tracer.incl_s.get("run_cell", 0.0)
    values = {
        "netsim.engine.events": c["engine.events"],
        "netsim.engine.schedules": c["engine.schedules"],
        "netsim.engine.cancel_ratio": _ratio(c["engine.cancels"], c["engine.schedules"]),
        "netsim.engine.us_per_event": 1e6 * _ratio(s["netsim.engine"], c["engine.events"]),
        "netsim.engine.self_s": s["netsim.engine"],
        "netsim.link.sends": c["link.sends"],
        "netsim.link.drops": c["link.drops"],
        "netsim.link.writable_polls": c["link.writable_polls"],
        "netsim.link.polls_per_share": _ratio(c["link.writable_polls"], c["link.sends"]),
        "netsim.link.self_s": s["netsim.link"],
        "netsim.readiness.selects": c["readiness.selects"],
        "netsim.readiness.self_s": s["netsim.readiness"],
        "protocol.sender.offers": c["sender.offers"],
        "protocol.sender.accept_ratio": _ratio(c["sender.accepted"], c["sender.offers"]),
        "protocol.sender.readiness_stalls": c["sender.readiness_stalls"],
        "protocol.sender.self_s": s["protocol.sender"],
        "protocol.receiver.datagrams": c["receiver.datagrams"],
        "protocol.receiver.useful_share_ratio": _ratio(
            c["receiver.useful_shares"], c["receiver.shares_received"]
        ),
        "protocol.receiver.evictions": c["receiver.evictions"],
        "protocol.receiver.self_s": s["protocol.receiver"],
        "protocol.wire.encodes": c["wire.encodes"],
        "protocol.wire.decodes": c["wire.decodes"],
        "protocol.wire.bytes": c["wire.bytes"],
        "protocol.wire.self_s": s["protocol.wire"],
        "protocol.auth.tags": c["auth.tags"],
        "protocol.auth.verifies": c["auth.verifies"],
        "protocol.auth.verify_fail_ratio": _ratio(c["auth.verify_fails"], c["auth.verifies"]),
        "protocol.auth.self_s": s["protocol.auth"],
        "sharing.split_calls": c["sharing.split_calls"],
        "sharing.secrets_per_split": _ratio(c["sharing.secrets"], c["sharing.split_calls"]),
        "sharing.reconstruct_calls": c["sharing.reconstruct_calls"],
        "sharing.groups_per_reconstruct": _ratio(
            c["sharing.groups"], c["sharing.reconstruct_calls"]
        ),
        "sharing.robust_calls": c["sharing.robust_calls"],
        "sharing.bytes": c["sharing.bytes"],
        "sharing.self_s": s["sharing"],
        "gf.kernel_calls": c["gf.kernel_calls"],
        "gf.bytes_per_call": _ratio(c["gf.bytes"], c["gf.kernel_calls"]),
        "gf.self_s": s["gf"],
        "fleet.cells": c["fleet.cells"],
        "fleet.cell_s": cell_s,
        "fleet.mux_enqueues": c["fleet.mux_enqueues"],
        "fleet.mux_drops": c["fleet.mux_drops"],
        "fleet.runner_overhead_s": point_s - cell_s if c["fleet.cells"] else 0.0,
        "sweep.overhead_s": s["sweep"],
        "adversary.active.tap_calls": c["adversary.tap_calls"],
        "adversary.active.self_s": s["adversary.active"],
        "protocol.resilience.nacks": c["resilience.nacks"],
        "protocol.resilience.repairs": c["resilience.repairs"],
        "protocol.resilience.self_s": s["protocol.resilience"],
        "core.planner.solves": c["planner.solves"],
        "core.planner.self_s": s["core.planner"],
        "workload.self_s": s["workload"],
    }
    return values


__all__ = ["COUNT_METRICS", "LAYER_UNITS", "install", "layer_metrics", "point_extras"]
