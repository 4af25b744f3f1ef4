"""Tests for the network module: broadcast expansion, loopback, metrics."""

from __future__ import annotations

from repro import Message
from repro.attacks.base import Capability
from repro.core.message import BROADCAST

from tests.attacks.support import ScriptedAttacker, controller_with, pending_deliveries, submit


class TestBroadcast:
    def test_broadcast_expands_to_all_nodes(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=5)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        deliveries = pending_deliveries(controller)
        assert sorted(m.dest for m in deliveries) == [0, 1, 2, 3, 4]

    def test_broadcast_counts_exclude_loopback(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=5)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        assert controller.metrics.counts.sent == 4

    def test_broadcast_copies_are_independent(self):
        tampered = []

        def tamper(self, message):
            if self.ctx.controls_message(message) and message.dest == 1:
                message.payload["evil"] = True
                tampered.append(message.dest)
            return [message]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, tamper
        )
        controller = controller_with(attacker, n=4)
        controller.attacker_ctx.corrupt(2)
        controller.clock.advance_to(1.0)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        deliveries = {m.dest: m for m in pending_deliveries(controller)}
        assert deliveries[1].payload.get("evil") is True
        assert "evil" not in deliveries[3].payload  # other copies untouched


class TestLoopback:
    def test_loopback_delivered_instantly(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        controller.clock.advance_to(10.0)
        submit(controller, source=3, dest=3)
        deliveries = pending_deliveries(controller)
        assert len(deliveries) == 1
        assert deliveries[0].deliver_at == 10.0

    def test_loopback_invisible_to_attacker(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker, n=4)
        submit(controller, source=3, dest=3)
        assert attacker.seen == []

    def test_loopback_not_counted_as_traffic(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        submit(controller, source=3, dest=3)
        assert controller.metrics.counts.sent == 0


class TestDelayAssignment:
    def test_delay_sampled_from_configured_distribution(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=4, mean=100.0, std=0.0
        )
        message = submit(controller)
        assert message.delay == 100.0

    def test_delays_vary_with_distribution(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=4, mean=100.0, std=30.0
        )
        delays = {submit(controller).delay for _ in range(10)}
        assert len(delays) > 1

    def test_forged_message_takes_the_delay_override(self):
        def inject(self, message):
            forged = self.ctx.forge(source=3, dest=1, payload={"type": "FAKE"})
            # forge() ids come from a process-wide counter; keep this one
            # clear of the run's own ids so the message reads as inserted.
            forged.msg_id = -1
            return [message, forged]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, inject
        )
        controller = controller_with(attacker, n=4)
        controller.attacker_ctx.corrupt(3)
        controller.network.set_delay_override(lambda message: 77.0)
        submit(controller, source=0, dest=2)
        delays = {m.forged: m.delay for m in pending_deliveries(controller)}
        assert delays == {False: 77.0, True: 77.0}

    def test_trace_records_send(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        controller.trace.enabled = True
        submit(controller, source=0, dest=2, type="PING")
        sends = controller.trace.events(kind="send")
        assert len(sends) == 1
        assert sends[0].fields["msg_type"] == "PING"
        assert sends[0].fields["dest"] == 2


class TestAttackerPassthrough:
    def test_none_return_means_unchanged(self):
        attacker = ScriptedAttacker(Capability.OBSERVE, lambda self, m: None)
        controller = controller_with(attacker, n=4)
        message = submit(controller)
        deliveries = pending_deliveries(controller)
        assert deliveries[0].msg_id == message.msg_id

    def test_every_wire_message_passes_attacker(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker, n=4)
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        assert len(attacker.seen) == 3  # n-1 wire copies; loopback excluded
