"""Timed per-channel event timelines: the shared half of faults and attacks.

The benign fault layer (:mod:`repro.netsim.faults`) and the active
adversary (:mod:`repro.adversary.active`) both describe a run as data: a
list of timed events, each acting on one channel (or every channel) in one
or both duplex directions, armed once on the event engine and logged as it
fires.  This module holds everything the two share:

* :class:`TimedEvent` -- one event, validated once at construction: a
  finite nonnegative time, a known action and direction, a channel index,
  known parameter keys and finite numeric parameter values, then the
  subclass's action-specific checks;
* :class:`Timeline` -- an ordered collection of events with its JSON spec
  form (the grammar is documented once, in docs/FAULTS.md "JSON spec");
* :class:`TimelineInjector` -- arms a timeline on an engine exactly once,
  resolves an event's ``(channel, direction)`` to links, and logs and
  traces every applied event before handing it to the subclass.

A subclass supplies only its action table, action-specific checks, fluent
builders and how an event is applied.  The adversary builds on this
module, so nothing in :mod:`repro.netsim` may import :mod:`repro.adversary`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple
from typing import Type, TypeVar

from repro.netsim.engine import Engine
from repro.netsim.link import DuplexChannel, Link

#: Which direction(s) of a duplex channel an event touches.
DIRECTIONS = ("fwd", "rev", "both")

#: Spec keys every event has; every other key is an action parameter.
_EVENT_KEYS = ("time", "action", "channel", "direction")

TimelineT = TypeVar("TimelineT", bound="Timeline")
InjectorT = TypeVar("InjectorT", bound="TimelineInjector")


def _is_finite(value: Any) -> bool:
    """A real number (not a bool) that is a finite float: no NaN, no infinity,
    no integer too large to convert."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class TimedEvent:
    """One timed action applied to one channel (or all of them).

    Attributes:
        time: absolute simulated time the action fires.
        action: one of the subclass's actions (the keys of
            :attr:`param_keys`).
        channel: model channel index, or ``None`` for every channel.
        direction: "fwd", "rev" or "both" duplex directions.
        params: action parameters; only the keys :attr:`param_keys` allows.

    Raises:
        ValueError: at construction, for any invalid field.
    """

    #: Event family, named in error messages and the ``<kind>_applied`` trace.
    kind: ClassVar[str] = "timeline"
    #: Action -> allowed parameter keys; its keys are the valid actions.
    param_keys: ClassVar[Dict[str, Tuple[str, ...]]] = {}
    #: Parameters whose values are not numbers; the subclass checks them.
    non_numeric_params: ClassVar[FrozenSet[str]] = frozenset()

    time: float
    action: str
    channel: Optional[int] = None
    direction: str = "both"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_finite(self.time) or self.time < 0:
            raise ValueError(
                f"{self.kind} time must be finite and nonnegative, got {self.time!r}"
            )
        if not isinstance(self.action, str) or self.action not in self.param_keys:
            raise ValueError(
                f"unknown {self.kind} action {self.action!r}; "
                f"expected one of {tuple(self.param_keys)}"
            )
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; expected one of {DIRECTIONS}"
            )
        if self.channel is not None and (
            not isinstance(self.channel, numbers.Integral)
            or isinstance(self.channel, bool)
            or self.channel < 0
        ):
            raise ValueError(
                f"channel index must be a nonnegative integer, got {self.channel!r}"
            )
        allowed = self.param_keys[self.action]
        unknown = set(self.params) - set(allowed)
        if unknown:
            raise ValueError(
                f"{self.action} does not take parameters {sorted(unknown)}; "
                f"allowed: {list(allowed)}"
            )
        for key, value in self.params.items():
            if key not in self.non_numeric_params and not _is_finite(value):
                raise ValueError(f"{self.action} {key} must be a finite number, got {value!r}")
        self._check_params()

    def _check_params(self) -> None:
        """Action-specific parameter checks (subclass hook)."""

    def _param(self, key: str) -> Any:
        """The value of the required parameter ``key``."""
        if key not in self.params:
            raise ValueError(f"{self.action} needs a {key!r} parameter")
        return self.params[key]

    def to_spec(self) -> dict:
        """The JSON-friendly dict form (inverse of :meth:`Timeline.from_spec`)."""
        spec: dict = {"time": self.time, "action": self.action}
        if self.channel is not None:
            spec["channel"] = self.channel
        if self.direction != "both":
            spec["direction"] = self.direction
        spec.update(self.params)
        return spec


class Timeline:
    """A seeded-run timeline: an ordered collection of timed events.

    The timeline is pure data; nothing happens until a
    :class:`TimelineInjector` arms it on an engine.
    """

    #: The event class :meth:`from_spec` builds.
    event_type: ClassVar[Type[TimedEvent]] = TimedEvent

    def __init__(self, events: Optional[Sequence[TimedEvent]] = None):
        self.events: List[TimedEvent] = list(events or [])

    # -- construction ----------------------------------------------------------

    def add(self: TimelineT, event: TimedEvent) -> TimelineT:
        """Append one event (kept in insertion order; sorted when armed)."""
        self.events.append(event)
        return self

    # -- spec (de)serialisation -------------------------------------------------

    @classmethod
    def from_spec(cls: Type[TimelineT], spec: Sequence[dict]) -> TimelineT:
        """Build a timeline from a list of dicts (``time``/``action``/``channel``/
        ``direction`` keys; every other key becomes an action parameter).

        Raises:
            ValueError: naming the entry index, for any malformed entry.
        """
        kind = cls.event_type.kind
        if not isinstance(spec, (list, tuple)):
            raise ValueError(f"a {kind} spec must be a list of objects, got {spec!r}")
        events = []
        for index, entry in enumerate(spec):
            if not isinstance(entry, dict):
                raise ValueError(f"{kind} spec entry {index} must be an object, got {entry!r}")
            missing = [key for key in ("time", "action") if key not in entry]
            if missing:
                raise ValueError(f"{kind} spec entry {index} lacks {missing}")
            params = {key: value for key, value in entry.items() if key not in _EVENT_KEYS}
            try:
                event = cls.event_type(
                    entry["time"],
                    entry["action"],
                    entry.get("channel"),
                    entry.get("direction", "both"),
                    params,
                )
            except ValueError as exc:
                raise ValueError(f"{kind} spec entry {index}: {exc}") from exc
            events.append(event)
        return cls(events)

    @classmethod
    def from_json(cls: Type[TimelineT], text: str) -> TimelineT:
        """Parse the JSON form of :meth:`to_spec`."""
        return cls.from_spec(json.loads(text))

    def to_spec(self) -> List[dict]:
        """The JSON-friendly list-of-dicts form."""
        return [event.to_spec() for event in self.events]

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), indent=2)

    # -- introspection ----------------------------------------------------------

    def sorted_events(self) -> List[TimedEvent]:
        """Events in firing order (stable: ties keep insertion order)."""
        return sorted(self.events, key=lambda e: e.time)

    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty timeline)."""
        return max((e.time for e in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TimedEvent]:
        return iter(self.events)


class TimelineInjector:
    """Applies a :class:`Timeline` to a set of duplex channels.

    Args:
        engine: the simulation engine the events are scheduled on.
        channels: the duplex channels, in model channel-index order.
        plan: the timeline to apply.

    Call :meth:`arm` once, before running the engine past the plan's first
    event.  Every applied event is appended to :attr:`log` as an
    ``(applied_at, event)`` pair, giving reports a causal trace from
    injected event to observed effect, and only then applied by the
    subclass's :meth:`_apply`.
    """

    def __init__(self, engine: Engine, channels: Sequence[DuplexChannel], plan: Timeline):
        self.engine = engine
        self.duplex = list(channels)
        self.plan = plan
        self.log: List[Tuple[float, TimedEvent]] = []
        #: Structured tracer attached by :mod:`repro.obs.instrument`; when
        #: set, every applied event also emits a ``<kind>_applied`` trace.
        self.tracer = None
        self._kind = plan.event_type.kind
        self._armed = False
        for event in plan:
            if event.channel is not None and event.channel >= len(self.duplex):
                raise ValueError(
                    f"{self._kind} event targets channel {event.channel} but only "
                    f"{len(self.duplex)} channels exist"
                )

    def arm(self: InjectorT) -> InjectorT:
        """Schedule every plan event on the engine (once)."""
        if self._armed:
            raise RuntimeError(f"{self._kind} plan already armed")
        self._armed = True
        for event in self.plan.sorted_events():
            self.engine.schedule_at(max(event.time, self.engine.now), self._fire, event)
        return self

    def targets(self, channel: Optional[int], direction: str) -> List[Tuple[int, str, Link]]:
        """``(index, "fwd"/"rev", link)`` for every link a ``(channel, direction)``
        pair touches, in (channel, fwd-before-rev) order; ``None`` is every channel."""
        indices = range(len(self.duplex)) if channel is None else (channel,)
        targets: List[Tuple[int, str, Link]] = []
        for index in indices:
            duplex = self.duplex[index]
            if direction in ("fwd", "both"):
                targets.append((index, "fwd", duplex.forward))
            if direction in ("rev", "both"):
                targets.append((index, "rev", duplex.reverse))
        return targets

    def _fire(self, event: TimedEvent) -> None:
        self.log.append((self.engine.now, event))
        if self.tracer is not None:
            self.tracer.event(
                f"{self._kind}_applied",
                action=event.action,
                channel=event.channel,
                direction=event.direction,
            )
        self._apply(event)

    def _apply(self, event: TimedEvent) -> None:
        """Apply one event's mutation (subclass hook)."""
        raise NotImplementedError

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Applied-event counts per action, plus first/last firing times."""
        counts: Dict[str, int] = {}
        for _, event in self.log:
            counts[event.action] = counts.get(event.action, 0) + 1
        return {
            "applied": len(self.log),
            "by_action": counts,
            "first_at": self.log[0][0] if self.log else None,
            "last_at": self.log[-1][0] if self.log else None,
        }
