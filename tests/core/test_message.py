"""Tests for the message value object."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.message import BROADCAST, Message, deep_copy_payload, payload_matches


def test_type_from_payload():
    assert Message(0, 1, {"type": "VOTE"}).type == "VOTE"


def test_type_defaults_to_question_mark():
    assert Message(0, 1, {}).type == "?"


def test_unique_ids():
    a = Message(0, 1, {})
    b = Message(0, 1, {})
    assert a.msg_id != b.msg_id


def test_deliver_at_requires_delay():
    message = Message(0, 1, {}, sent_at=10.0)
    with pytest.raises(ValueError):
        _ = message.deliver_at
    message.delay = 5.0
    assert message.deliver_at == 15.0


class TestCopyFor:
    def test_copy_changes_dest_and_id(self):
        original = Message(3, BROADCAST, {"type": "X"}, sent_at=2.0)
        copy = original.copy_for(7)
        assert copy.dest == 7
        assert copy.source == 3
        assert copy.sent_at == 2.0
        assert copy.msg_id != original.msg_id

    def test_copy_payload_is_independent(self):
        original = Message(0, BROADCAST, {"type": "X", "nested": {"a": 1}})
        copy = original.copy_for(1)
        copy.payload["nested"]["a"] = 99
        assert original.payload["nested"]["a"] == 1

    def test_copy_preserves_forged_flag(self):
        original = Message(0, BROADCAST, {}, forged=True)
        assert original.copy_for(1).forged is True


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.binary(max_size=4),
    st.floats(allow_nan=False),
)
_payload_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=5),
    ),
    max_leaves=30,
)


def _mutable_ids(value) -> set[int]:
    """Ids of every dict and list reachable from ``value``."""
    found = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            found.add(id(item))
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


class TestDeepCopyPayload:
    @settings(max_examples=200, deadline=None)
    @given(value=_payload_values)
    def test_copy_is_equal_and_shares_no_mutable_container(self, value):
        copied = deep_copy_payload(value)
        assert copied == value
        assert type(copied) is type(value)
        assert not _mutable_ids(copied) & _mutable_ids(value)

    def test_all_atomic_tuple_is_returned_as_is(self):
        value = (1, "a", None)
        assert deep_copy_payload(value) is value

    def test_tuple_holding_a_list_is_copied(self):
        value = (1, [2, 3])
        copied = deep_copy_payload(value)
        assert copied == value and copied[1] is not value[1]

    def test_unknown_objects_fall_back_to_deepcopy(self):
        value = {"s": {1, 2}, "nested": [{3}]}
        copied = deep_copy_payload(value)
        assert copied == value
        assert copied["s"] is not value["s"]
        assert copied["nested"][0] is not value["nested"][0]


def test_describe_is_informative():
    text = Message(2, 5, {"type": "COMMIT"}, sent_at=1.0).describe()
    assert "COMMIT" in text and "2->5" in text


class TestPayloadMatches:
    def test_match(self):
        assert payload_matches({"type": "VOTE", "view": 3}, type="VOTE", view=3)

    def test_mismatch_value(self):
        assert not payload_matches({"type": "VOTE", "view": 3}, view=4)

    def test_missing_key(self):
        assert not payload_matches({"type": "VOTE"}, view=1)

    def test_empty_expected_matches_everything(self):
        assert payload_matches({"anything": 1})
