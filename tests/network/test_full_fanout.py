"""The benign full fan-out: one delay batch, one private copy per recipient.

``NetworkModule`` prices an honest ``full``-mode broadcast in one pass when
nothing can observe an individual copy.  These tests pin the two things that
pass must preserve: the run itself (fingerprint, events, messages equal to
the per-recipient instrumented tier) and payload isolation between
recipients.
"""

from __future__ import annotations

import pytest

from repro import Controller, SimulationConfig, result_fingerprint, run_simulation
from repro.analysis import decisions_for, network_for
from repro.attacks.null import NullAttacker
from repro.core.message import BROADCAST, Message
from repro.protocols import available_protocols, get_protocol

from tests.attacks.support import pending_deliveries


class _InstrumentedNull(NullAttacker):
    """Behaves like ``NullAttacker`` but is not it, so every send takes the
    per-recipient instrumented tier (attacker hand-off and snapshot)."""


def _config(protocol: str, n: int = 7, block_txns: int = 0) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol,
        n=n,
        lam=500.0,
        network=network_for(protocol, 50.0, 10.0, 500.0),
        num_decisions=decisions_for(protocol),
        protocol_params={"block_txns": block_txns} if block_txns else {},
        seed=3,
        max_time=1_800_000.0,
    )


def _run(config: SimulationConfig, instrumented: bool):
    controller = Controller(config)
    if instrumented:
        attacker = _InstrumentedNull()
        attacker.bind(controller.attacker_ctx)
        controller.network.attacker = attacker
    return controller.run()


@pytest.mark.parametrize(
    "protocol, block_txns",
    [(name, 0) for name in available_protocols()] + [("pbft", 8), ("hotstuff-ns", 8)],
)
def test_fast_and_instrumented_tiers_give_the_same_run(protocol, block_txns):
    config = _config(protocol, block_txns=block_txns)
    fast = _run(config, instrumented=False)
    slow = _run(config, instrumented=True)
    assert fast.terminated
    assert result_fingerprint(fast) == result_fingerprint(slow)
    assert fast.events_processed == slow.events_processed
    assert fast.messages == slow.messages


def test_fast_tier_matches_the_instrumented_tier_message_for_message():
    """Same ids, delays, destinations and queue order for one broadcast."""
    queued = []
    for instrumented in (False, True):
        controller = Controller(_config("pbft", n=9))
        if instrumented:
            attacker = _InstrumentedNull()
            attacker.bind(controller.attacker_ctx)
            controller.network.attacker = attacker
        controller.clock.advance_to(3.0)
        controller.network.submit(
            Message(source=4, dest=BROADCAST, payload={"type": "B", "block": {"txns": [1, 2]}})
        )
        queued.append([
            (m.msg_id, m.dest, m.delay, m.deliver_at, m.payload)
            for m in pending_deliveries(controller)
        ])
        assert controller.metrics.counts.sent == 8
    assert queued[0] == queued[1]
    assert [dest for _, dest, _, _, _ in queued[0]].count(4) == 1


def test_recipients_get_private_payload_copies(monkeypatch):
    """A replica that mutates the block of a delivered pre-prepare cannot
    change what any other recipient of the same broadcast sees."""
    pbft = get_protocol("pbft")
    original = pbft.on_message
    seen: list[tuple[str, list[str]]] = []

    def mutating_on_message(self, message):
        payload = message.payload
        if payload["type"] != "PRE-PREPARE":
            return original(self, message)
        txns = payload["value"]["txns"]
        seen.append((payload["value"]["tag"], list(txns)))
        original(self, message)
        txns.append("mutated")
        txns[0] = "overwritten"

    monkeypatch.setattr(pbft, "on_message", mutating_on_message)
    result = run_simulation(_config("pbft", block_txns=8))
    assert result.terminated
    assert seen
    for tag, txns in seen:
        slot = tag.split("slot=")[1].split(",")[0]
        assert txns == [f"tx{slot}.{i}" for i in range(8)]
