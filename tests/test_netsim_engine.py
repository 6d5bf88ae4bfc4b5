"""The discrete-event engine: ordering, cancellation, clock discipline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, order.append, 1)
        engine.schedule(1.0, order.append, 2)
        engine.schedule(1.0, order.append, 3)
        engine.run()
        assert order == [1, 2, 3]

    def test_now_advances_during_run(self):
        engine = Engine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_run_until_stops_and_sets_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run_until(5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run_until(20.0)
        assert fired == ["early", "late"]

    def test_run_leaves_clock_at_last_event(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(3.0, lambda: None).cancel()
        engine.run()
        assert engine.now == 2.0

    def test_run_and_run_until_dispatch_identically(self):
        def dispatched(drive):
            engine = Engine()
            seen = []
            engine.set_dispatch_hook(lambda event, depth: seen.append((event.time, depth)))
            for delay in (3.0, 1.0, 1.0, 2.0):
                engine.schedule(delay, lambda: None)
            engine.schedule(1.5, lambda: None).cancel()
            drive(engine)
            return seen, engine.events_processed

        assert dispatched(Engine.run) == dispatched(lambda e: e.run_until(10.0))

    def test_callbacks_can_schedule_more(self):
        engine = Engine()
        hits = []

        def recur(depth):
            hits.append(engine.now)
            if depth:
                engine.schedule(1.0, recur, depth - 1)

        engine.schedule(0.0, recur, 3)
        engine.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]

    def test_same_time_self_schedule_runs_after_peers(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: (order.append("first"), engine.schedule(0.0, order.append, "chained")))
        engine.schedule(1.0, order.append, "second")
        engine.run()
        assert order == ["first", "second", "chained"]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(ValueError):
            engine.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.run_until(1.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, "x")
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_after_fire_is_safe(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        event.cancel()  # no error

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        ran = engine.schedule(0.5, lambda: None)
        engine.schedule(1.0, lambda: None)
        tied = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending() == 4
        tied.cancel()
        assert engine.pending() == 3
        engine.run_until(0.75)
        ran.cancel()  # already ran: the count does not move
        assert engine.pending() == 2
        engine.run()
        assert engine.pending() == 0

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_processed == 5


#: Delays drawn from a handful of values, so same-time ties are common.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])


class TestOrdering:
    def test_events_are_not_orderable(self):
        # The heap orders (time, seq, event) entries by the unique seq
        # before it could reach the event; events themselves never compare.
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        second = engine.schedule(1.0, lambda: None)
        with pytest.raises(TypeError):
            min(first, second)
        with pytest.raises(TypeError):
            sorted([second, first])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dispatch_order_matches_a_time_seq_oracle(self, data):
        """Schedules, cancels and same-time re-entrant schedules, drawn at
        random, dispatch in sorted((time, seq)) order with cancelled events
        left out."""
        engine = Engine()
        keys = []  # tag -> (time, seq); tags count schedule calls, like seq
        handles = {}  # tag -> Event, while it has neither run nor been cancelled
        cancelled = set()
        dispatched = []

        def schedule(delay):
            tag = len(keys)
            keys.append((engine.now + delay, tag))
            handles[tag] = engine.schedule(delay, fire, tag)

        def fire(tag):
            del handles[tag]
            dispatched.append(tag)
            if len(keys) < 80:
                for delay in data.draw(st.lists(DELAYS, max_size=3)):
                    schedule(delay)
            if handles and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(handles)))
                handles.pop(victim).cancel()
                cancelled.add(victim)

        for delay in data.draw(st.lists(DELAYS, min_size=1, max_size=12)):
            schedule(delay)
        engine.run_until(data.draw(st.sampled_from([0.0, 0.5, 1.0])))
        engine.run()

        expected = sorted(
            (key, tag) for tag, key in enumerate(keys) if tag not in cancelled
        )
        assert dispatched == [tag for _key, tag in expected]
        assert engine.events_processed == len(dispatched)
        assert engine.pending() == 0


def _random_workload_trace(seed, end_time=50.0, chunks=1):
    """Drive a randomised self-scheduling workload; return its event trace.

    Callbacks schedule more work, cancel pending events, and mutate a
    faulty link mid-run, exercising every engine code path the fault layer
    relies on.  The trace is the byte-serialised (time, tag) sequence.
    """
    from repro.netsim.faults import FaultInjector, FaultPlan
    from repro.netsim.link import Link
    from repro.netsim.packet import Datagram

    engine = Engine()
    rng = np.random.default_rng(seed)
    trace = []
    pending = {}  # tag -> not-yet-fired Event
    cancelled_tags = set()

    link = Link(engine, byte_rate=50.0, loss=0.2, delay=0.5,
                rng=np.random.default_rng(seed + 1), queue_limit=4)
    link.set_receiver(lambda dg: trace.append((engine.now, "deliver", dg.meta["tag"])))
    plan = (FaultPlan()
            .link_down(12.0, channel=0, direction="fwd")
            .link_up(15.0, channel=0, direction="fwd")
            .set_loss(20.0, 0.5, channel=0, direction="fwd")
            .set_rate(30.0, scale=0.5, channel=0, direction="fwd"))

    class _OneLink:  # duck-types DuplexChannel for the injector
        forward = link
        reverse = link

    FaultInjector(engine, [_OneLink()], plan).arm()

    def tick(tag):
        pending.pop(tag, None)  # this event has now fired
        trace.append((engine.now, "tick", tag))
        for _ in range(int(rng.integers(0, 3))):
            child = int(rng.integers(1_000, 1_000_000))
            pending[child] = engine.schedule(float(rng.uniform(0, 5)), tick, child)
        if pending and rng.random() < 0.3:
            victim_tag = sorted(pending)[int(rng.integers(0, len(pending)))]
            pending.pop(victim_tag).cancel()
            cancelled_tags.add(victim_tag)
        if rng.random() < 0.5:
            link.send(Datagram(size=25, meta={"tag": tag}))

    for n in range(30):
        engine.schedule(float(rng.uniform(0, end_time / 2)), tick, n)

    # Optionally split the run into arbitrary run_until increments.
    if chunks == 1:
        engine.run_until(end_time)
    else:
        for bound in np.linspace(end_time / chunks, end_time, chunks):
            engine.run_until(float(bound))
    return repr(trace).encode(), trace, cancelled_tags, engine


class TestDeterminismProperties:
    def test_same_seed_runs_are_byte_identical_with_faults(self):
        for seed in (0, 7, 123):
            first, *_ = _random_workload_trace(seed)
            second, *_ = _random_workload_trace(seed)
            assert first == second

    def test_different_seeds_diverge(self):
        first, *_ = _random_workload_trace(1)
        second, *_ = _random_workload_trace(2)
        assert first != second

    def test_run_until_chunking_does_not_change_the_trace(self):
        whole, *_ = _random_workload_trace(42, chunks=1)
        for chunks in (2, 7, 50):
            split, *_ = _random_workload_trace(42, chunks=chunks)
            assert split == whole

    def test_cancelled_events_never_fire(self):
        for seed in (3, 9):
            _, trace, cancelled, _ = _random_workload_trace(seed)
            fired_ticks = {tag for _, kind, tag in trace if kind == "tick"}
            assert not fired_ticks & cancelled

    def test_clock_is_monotonic_throughout(self):
        _, trace, _, engine = _random_workload_trace(5)
        times = [t for t, *_ in trace]
        assert times == sorted(times)
        assert engine.now == 50.0

    def test_same_time_events_fire_in_scheduling_order(self):
        engine = Engine()
        rng = np.random.default_rng(0)
        fired = []
        expected = {}
        serial = 0
        # Many events on a coarse time grid -> plenty of exact ties.
        for _ in range(500):
            t = float(rng.integers(0, 10))
            tag = serial
            serial += 1
            expected.setdefault(t, []).append(tag)
            engine.schedule_at(t, lambda t=t, tag=tag: fired.append((t, tag)))
        engine.run()
        for t, tags in expected.items():
            assert [tag for ft, tag in fired if ft == t] == tags
