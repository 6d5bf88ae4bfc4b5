"""The shared timeline base: validation and spec parsing for both plan kinds."""

import math

import pytest

from repro.adversary.active.plan import AttackPlan
from repro.netsim.faults import FaultPlan

#: (plan class, a valid entry, a numeric parameter of that entry's action).
KINDS = [
    pytest.param(FaultPlan, {"time": 1.0, "action": "set_delay", "delay": 0.5}, "delay",
                 id="fault"),
    pytest.param(AttackPlan, {"time": 1.0, "action": "replay_start", "rate": 2.0}, "rate",
                 id="attack"),
]


@pytest.mark.parametrize("plan_cls, entry, numeric", KINDS)
class TestNonFiniteRejected:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_json_time(self, plan_cls, entry, numeric, literal):
        text = f'[{{"time": {literal}, "action": "{entry["action"]}", "{numeric}": 1.0}}]'
        with pytest.raises(ValueError, match="finite"):
            plan_cls.from_json(text)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_json_param(self, plan_cls, entry, numeric, literal):
        text = f'[{{"time": 1.0, "action": "{entry["action"]}", "{numeric}": {literal}}}]'
        with pytest.raises(ValueError, match="finite"):
            plan_cls.from_json(text)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constructor(self, plan_cls, entry, numeric, bad):
        event_type = plan_cls.event_type
        with pytest.raises(ValueError, match="finite"):
            event_type(bad, entry["action"], params={numeric: 1.0})
        with pytest.raises(ValueError, match="finite"):
            event_type(1.0, entry["action"], params={numeric: bad})


@pytest.mark.parametrize("plan_cls, entry, numeric", KINDS)
class TestMalformedSpec:
    def test_valid_entry_parses(self, plan_cls, entry, numeric):
        plan = plan_cls.from_spec([entry])
        assert plan.to_spec() == [entry]

    def test_entry_not_an_object(self, plan_cls, entry, numeric):
        with pytest.raises(ValueError, match="entry 1 must be an object"):
            plan_cls.from_spec([entry, 5])

    @pytest.mark.parametrize("key", ["time", "action"])
    def test_entry_lacks_required_key(self, plan_cls, entry, numeric, key):
        broken = {k: v for k, v in entry.items() if k != key}
        with pytest.raises(ValueError, match=f"entry 1 lacks \\['{key}'\\]"):
            plan_cls.from_spec([entry, broken])

    def test_non_numeric_param(self, plan_cls, entry, numeric):
        with pytest.raises(ValueError, match=f"entry 0: .*{numeric} must be a finite number"):
            plan_cls.from_json(f'[{{"time": 1, "action": "{entry["action"]}", "{numeric}": "2"}}]')

    @pytest.mark.parametrize("time", ["1", True, None])
    def test_non_numeric_time(self, plan_cls, entry, numeric, time):
        with pytest.raises(ValueError, match="entry 0: .*time must be finite"):
            plan_cls.from_spec([{**entry, "time": time}])

    @pytest.mark.parametrize("channel", ["0", 1.5, True, -1])
    def test_channel_must_be_index(self, plan_cls, entry, numeric, channel):
        with pytest.raises(ValueError, match="entry 0: channel index"):
            plan_cls.from_spec([{**entry, "channel": channel}])

    @pytest.mark.parametrize("action", [["jam"], 3])
    def test_action_must_be_a_name(self, plan_cls, entry, numeric, action):
        with pytest.raises(ValueError, match="entry 0: unknown"):
            plan_cls.from_spec([{**entry, "action": action}])

    @pytest.mark.parametrize("text", ['{"time": 1}', "5", '"plan"'])
    def test_spec_must_be_a_list(self, plan_cls, entry, numeric, text):
        with pytest.raises(ValueError, match="must be a list"):
            plan_cls.from_json(text)

