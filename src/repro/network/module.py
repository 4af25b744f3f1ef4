"""The network module: delay assignment, attacker hand-off, delivery.

Mirrors the paper's §III-A4 flow precisely: a sender hands the network a
message with ``source``/``dest`` set; the network assigns the ``delay``
variable from the configured distribution; the message then passes through
the attacker module, which may tamper with it subject to its capabilities;
surviving messages are registered as message events and dispatched at
``sent_at + delay``.

The capability rules declared in :mod:`repro.attacks.base` are *enforced*
here, by diffing what the attacker returns against a snapshot of what it was
given.  An attack implementation that oversteps its declared threat model
fails the run with :class:`~repro.core.errors.CapabilityError` instead of
silently producing results under a stronger adversary than advertised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..attacks.base import Attacker, AttackerContext, Capability, REDACTED_PAYLOAD
from ..attacks.null import NullAttacker
from ..core.config import NetworkConfig
from ..core.errors import CapabilityError
from ..core.events import MessageEvent
from ..core.message import (
    BROADCAST,
    Message,
    deep_copy_payload,
    estimate_message_bytes,
)
from .delays import DelayModel
from .dissemination import (
    DisseminationPlan,
    TreeShape,
    gossip_labels,
    resolve_fanout,
    restricted_plan,
)
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller
    from ..faults.engine import FaultInjector


class NetworkModule:
    """Simulates the peer-to-peer network between nodes.

    Args:
        controller: owning controller (for scheduling and metrics).
        config: network parameters (distribution, bounds, GST).
        rng: dedicated numpy generator for delay sampling.
        attacker: the attack scenario; a pass-through ``NullAttacker`` in
            benign runs.
        faults: the run's environmental fault injector, or ``None`` for a
            fault-free environment.  Applied *after* the attacker, so the
            adversary never observes or controls environment effects.
    """

    def __init__(
        self,
        controller: "Controller",
        config: NetworkConfig,
        rng: np.random.Generator,
        attacker: Attacker,
        attacker_ctx: AttackerContext,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self._controller = controller
        self.config = config
        self.delay_model = DelayModel(config, rng)
        self.topology = Topology(controller.n)
        self.attacker = attacker
        self._attacker_ctx = attacker_ctx
        self.faults = faults
        self._delay_override: Callable[[Message], float | None] | None = None
        # Hot-path bindings: one queue push per message, and the observer
        # tap's send hooks (an empty tuple when nothing observes sends).
        self._counts = controller.metrics.counts
        self._push_event = controller.queue.push
        self._on_send = controller._tap.send
        # Dissemination overlay state (tree/gossip modes only).  The hop
        # delays come from their own ``network.dissemination`` substream
        # (substreams are derived by name, so creating it up front draws
        # nothing); ``mode="full"`` runs never issue it.  The shape cache
        # and the gossip substream are created on first use.
        self._mode = config.dissemination
        self.dissemination_model: DelayModel | None = (
            None
            if self._mode == "full"
            else DelayModel(config, controller.random_source.numpy("network.dissemination"))
        )
        self._shape_obj: TreeShape | None = None
        self._gossip_rng: np.random.Generator | None = None
        self._linkdown_specs = (
            [s for s in faults.schedule.specs if s.kind == "link-down"]
            if faults is not None
            else []
        )

    def set_delay_override(self, hook: Callable[[Message], float | None] | None) -> None:
        """Install (or clear) a delay-override hook.

        When set, the hook is consulted before the delay model for every
        message that still needs a delay — attacker-forged ones included;
        returning a value in ms uses it verbatim, returning ``None`` falls
        through to the configured distribution.  This is the supported way
        to pin transit delays from outside — the replay validator uses it to
        impose recorded delays — replacing ad-hoc monkey-patching of
        internals.
        """
        self._delay_override = hook

    # -- public entry point -------------------------------------------------

    def submit(self, message: Message) -> None:
        """Accept a message from a node (or a forged one from the attacker).

        Broadcasts are expanded to one unicast per node; the sender's own
        copy is delivered loopback (zero network delay, invisible to the
        attacker, excluded from message usage, as it never crosses the
        wire).
        """
        controller = self._controller
        now = controller.clock.now
        message.sent_at = now
        # Causal lineage: stamp the message with the id of the event being
        # handled right now (one attribute store per logical message; the
        # per-recipient copies of a broadcast inherit it via ``copy_for``).
        message.cause = controller._current_cause
        if message.dest == BROADCAST:
            # Every unicast copy carries a deep-equal payload, so the wire
            # size (canonical JSON length) is computed once and reused for
            # all n copies instead of re-serializing each one.
            wire_bytes = estimate_message_bytes(message)
            forged = message.forged
            if self._mode != "full" and not forged and controller.n > 1:
                # Honest broadcasts ride the configured dissemination
                # overlay.  Attacker-forged broadcasts always use the full
                # fan-out: the adversary injects packets directly at each
                # victim and is not bound by the honest relay discipline.
                self._submit_disseminated(message, wire_bytes)
                return
            if not forged and self._benign():
                self._fan_out(message, wire_bytes)
                return
            submit_single = self._submit_single
            for dest in range(controller.n):
                single = message.copy_for(dest)
                single.forged = forged
                submit_single(single, wire_bytes)
        else:
            self._submit_single(message)

    def _benign(self) -> bool:
        """True when nothing can observe or alter an individual honest send.

        That is: no environmental fault schedule, tracing off, no delay
        override, a pass-through ``NullAttacker`` (exact class, since
        subclasses may override ``attack``) and zero corrupted nodes.  The
        fast tiers then skip the attacker proxy/snapshot machinery, the
        fault engine and the capability diffing — none of which can have any
        effect here, and none of which consume RNG — so delay draws, event
        order and every metric stay byte-identical.  Evaluated per send,
        because tests swap the attacker and toggle tracing mid-run.
        Observers are not part of it: both tiers publish sends through the
        same observer tap, and the profiler wraps the delay models and the
        attacker in place, so no observer can choose a tier.
        """
        return (
            self.faults is None
            and not self._controller.trace.enabled
            and self._delay_override is None
            and type(self.attacker) is NullAttacker
            and not self._attacker_ctx._corrupted_since
        )

    def _fan_out(self, message: Message, wire_bytes: int) -> None:
        """Benign full fan-out: one delay batch, one private copy per recipient.

        Equivalent to submitting ``copy_for(dest)`` for every ``dest`` through
        the unicast fast path — the same message ids, the same queue handles
        (ascending ``dest`` order, one :meth:`EventQueue.push` each) and the
        same RNG use, since one batched draw of ``n - 1`` delays is
        stream-identical to ``n - 1`` scalar draws — minus the per-recipient
        predicate checks, scalar draws and counter updates.  The loopback
        copy takes no draw and delay 0 and, never crossing the wire, is not
        counted as sent.
        """
        controller = self._controller
        now = message.sent_at
        source = message.source
        n = controller.n
        delays = iter(self.delay_model.sample_delays(now, n - 1).tolist())
        counts = self._counts
        counts.sent += n - 1
        counts.bytes_sent += (n - 1) * wire_bytes
        for on_send in self._on_send:
            for _ in range(n - 1):
                on_send(source, wire_bytes)
        next_id = controller.next_message_id
        push = self._push_event
        copy_for = message.copy_for
        for dest in range(n):
            single = copy_for(dest)
            single.msg_id = next_id()
            single.delay = delay = 0.0 if dest == source else next(delays)
            push(MessageEvent(time=now + delay, message=single))

    # -- dissemination (tree / gossip broadcasts) ----------------------------

    def _submit_disseminated(self, message: Message, wire_bytes: int) -> None:
        """Expand a broadcast along the configured overlay (plan-ahead).

        The sender's loopback copy is delivered first (exactly as in the
        full fan-out); the remaining hops follow the dissemination plan
        with one vectorized delay batch from the ``network.dissemination``
        substream.  Every hop is charged at *origination*: its ``sent_at``
        is the broadcast time and its ``delay`` the cumulative path offset,
        so attacker/fault/partition windows and observability latency
        behave exactly like the full fan-out's unicasts (cut-through
        semantics — see :mod:`repro.network.dissemination`).
        """
        controller = self._controller
        now = message.sent_at
        source = message.source

        self_copy = message.copy_for(source, share_payload=True)
        self._submit_single(self_copy, wire_bytes)

        plan = self._broadcast_plan(source, now)
        h = plan.size
        if h == 0:
            return
        offsets = plan.arrivals(self.dissemination_model.sample_delays(now, h))

        if self._benign():
            # Fast tier (same predicate as the unicast fast path): nothing
            # can observe or mutate individual copies, so ONE shared message
            # and ONE shared delivery event serve every recipient — the
            # queue entry carries each hop's firing time and destination —
            # and counts are bulk-incremented.  Event push order (BFS hop
            # order) and RNG consumption match the instrumented tier
            # exactly; only per-copy allocation is elided.
            message.msg_id = controller.next_message_id()
            counts = self._counts
            counts.sent += h
            counts.bytes_sent += h * wire_bytes
            for on_send in self._on_send:
                for relay in plan.relays.tolist():
                    on_send(relay, wire_bytes)
            controller.queue.push_deliveries(
                MessageEvent(time=now, message=message),
                (now + offsets).tolist(),
                plan.dests.tolist(),
            )
            return

        # Instrumented tier: one real copy per hop through the standard
        # single-message path (attacker proxying, fault engine, tracing).
        # Payloads are shared copy-on-write; ``_run_attacker`` unshares
        # before any non-null attacker can mutate.  The preassigned delay
        # suppresses the per-copy draw, so RNG use matches the fast tier.
        dests = plan.dests.tolist()
        relays = plan.relays.tolist()
        offset_list = offsets.tolist()
        submit_single = self._submit_single
        for i in range(h):
            hop = message.copy_for(dests[i], share_payload=True)
            hop.relay_from = relays[i]
            hop.delay = offset_list[i]
            submit_single(hop, wire_bytes)

    def _broadcast_plan(self, source: int, now: float) -> DisseminationPlan:
        """The overlay for one broadcast rooted at ``source`` at time ``now``.

        On the pristine complete graph with no active ``link-down`` window
        this is the cached k-ary shape (tree) or a fresh heap attachment of
        one drawn permutation (gossip).  Otherwise it falls back to a
        breadth-first spanning of the reachable component over currently
        usable links — gossip's permutation becomes the visit priority, so
        both branches consume identical RNG.
        """
        n = self._controller.n
        topology = self.topology
        restricted = not topology.is_complete()
        if not restricted:
            for spec in self._linkdown_specs:
                if spec.in_window(now):
                    restricted = True
                    break
        if self._mode == "gossip":
            labels = gossip_labels(self._gossip_generator(), n, source)
            if restricted:
                return restricted_plan(source, n, self._usable_at(now), labels)
            return self._shape().plan_from_labels(labels)
        if restricted:
            return restricted_plan(source, n, self._usable_at(now))
        return self._shape().plan(source)

    def _usable_at(self, now: float) -> Callable[[int, int], bool]:
        """Directed-link usability predicate at origination time ``now``."""
        topology = self.topology
        active = [s for s in self._linkdown_specs if s.in_window(now)]

        def usable(a: int, b: int) -> bool:
            if not topology.connected(a, b):
                return False
            for spec in active:
                if spec.matches_link(a, b):
                    return False
            return True

        return usable

    def overlay_relays(self, source: int) -> tuple[int, ...]:
        """Sorted relay (internal) nodes of a ``tree`` broadcast from ``source``.

        Structural overlay introspection for overlay-aware attacks: the
        non-root nodes that forward a tree broadcast rooted at ``source``.
        The tree shape is deterministic and RNG-free, so calling this never
        perturbs delay draws or fingerprints.  ``full`` dissemination has no
        relays and ``gossip`` draws a fresh overlay per broadcast (no static
        choke point), so both return an empty tuple.
        """
        if self._mode != "tree" or self._controller.n <= 1:
            return ()
        plan = self._shape().plan(source)
        return tuple(sorted(set(plan.relays.tolist()) - {source}))

    def _shape(self) -> TreeShape:
        shape = self._shape_obj
        if shape is None:
            n = self._controller.n
            shape = self._shape_obj = TreeShape(
                n, resolve_fanout(self.config.fanout, n)
            )
        return shape

    def _gossip_generator(self) -> np.random.Generator:
        rng = self._gossip_rng
        if rng is None:
            rng = self._gossip_rng = self._controller.random_source.numpy(
                "network.gossip"
            )
        return rng

    # -- internals ----------------------------------------------------------

    def _submit_single(self, message: Message, wire_bytes: int | None = None) -> None:
        controller = self._controller
        # Re-key the message with a per-run id: global construction counters
        # would leak across runs and break trace-level determinism.
        message.msg_id = controller.next_message_id()
        if message.dest == message.source and not message.forged:
            message.delay = 0.0
            controller.schedule_delivery(message)
            return

        if wire_bytes is None:
            wire_bytes = estimate_message_bytes(message)

        if not message.forged and self._benign():
            # Fast path: benign attacker, no faults, no tracing.  With no
            # corrupted nodes ``controls_message`` is always False: the send
            # is honest, the delay draw is the only RNG consumption, and the
            # delivery event is pushed directly.
            counts = self._counts
            counts.sent += 1
            counts.bytes_sent += wire_bytes
            for on_send in self._on_send:
                on_send(message.source, wire_bytes)
            delay = message.delay
            if delay is None:
                delay = message.delay = self.delay_model.sample_delay(message.sent_at)
            self._push_event(
                MessageEvent(time=message.sent_at + delay, message=message)
            )
            return

        trace = controller.trace
        byzantine = message.forged or self._attacker_ctx.controls_message(message)
        controller.metrics.on_sent(byzantine=byzantine)
        controller.metrics.on_bytes(wire_bytes)
        # Wire accounting is charged to the physical transmitter: the relay
        # for dissemination hops, the protocol-level source otherwise.
        relay = message.relay_from
        for on_send in self._on_send:
            on_send(message.source if relay is None else relay, wire_bytes)
        if trace.enabled:
            fields = {
                "dest": message.dest, "msg_type": message.type,
                "msg_id": message.msg_id, "size": wire_bytes,
            }
            if byzantine:
                # Tagged so trace consumers (``repro inspect``) can reproduce
                # the honest/byzantine split of MessageCounts from the trace.
                # Attacker-*inserted* messages additionally carry
                # origin="attacker": a forged send has no honest counterpart,
                # so lineage and message-usage reconciliation must be able to
                # tell insertion from corruption of an honest sender.
                fields["byzantine"] = True
                if message.forged:
                    fields["origin"] = "attacker"
            payload = message.payload
            fields.update(
                cause=message.cause,
                slot=payload.get("slot", payload.get("height")),
                view=payload.get("view", payload.get("round")),
            )
            # Dissemination hops additionally record the relaying node; the
            # field is omitted entirely in full mode so existing trace
            # consumers and golden traces see unchanged records.
            if relay is not None:
                fields["relay"] = relay
            trace.record(controller.clock.now, "send", message.source, **fields)
        self._assign_delay(message)
        for survivor in self._run_attacker(message):
            if self.faults is None:
                controller.schedule_delivery(survivor)
            else:
                # Environmental faults act after the adversary: the attacker
                # has no visibility into (or control over) what the benign
                # environment then loses, duplicates, corrupts, or re-times.
                for delivered in self.faults.apply(survivor):
                    controller.schedule_delivery(delivered)

    def _assign_delay(self, message: Message) -> None:
        """Give a message still lacking a delay one: override, then model."""
        if message.delay is None and self._delay_override is not None:
            message.delay = self._delay_override(message)
        if message.delay is None:
            message.delay = self.delay_model.sample_delay(message.sent_at)

    def _run_attacker(self, message: Message) -> Iterable[Message]:
        """Pass one message through the attacker and enforce capabilities."""
        ctx = self._attacker_ctx
        if message.payload_shared and type(self.attacker) is not NullAttacker:
            # Copy-on-write boundary: dissemination hops share one payload
            # object.  A real attacker may legitimately mutate a controlled
            # message in place, which must never leak into sibling copies —
            # unshare first.  The exact-class NullAttacker check keeps
            # trace-only runs sharing (its ``attack`` cannot mutate).
            message.own_payload()
        observable = (
            Capability.OBSERVE in ctx.capabilities or ctx.controls_message(message)
        )
        if observable:
            proxy = message
        else:
            proxy = Message(
                source=message.source,
                dest=message.dest,
                payload=dict(REDACTED_PAYLOAD),
                sent_at=message.sent_at,
                delay=message.delay,
                msg_id=message.msg_id,
            )
        snapshot_payload = deep_copy_payload(message.payload)
        snapshot_delay = message.delay

        returned = self.attacker.attack(proxy)
        if returned is None:
            returned = [proxy]
        returned = list(returned)

        survivors: list[Message] = []
        kept = False
        for item in returned:
            if item.msg_id == message.msg_id:
                kept = True
                survivors.append(
                    self._apply_kept(message, proxy, item, snapshot_payload, snapshot_delay)
                )
            elif item.forged:
                self._assign_delay(item)
                survivors.append(item)
                self._controller.metrics.on_sent(byzantine=True)
                for on_send in self._on_send:
                    on_send(item.source, 0)
                if self._controller.trace.enabled:
                    if item.cause is None:
                        item.cause = self._controller._current_cause
                    self._controller.trace.record(
                        self._controller.clock.now, "send", item.source,
                        dest=item.dest, msg_type=item.type, msg_id=item.msg_id,
                        forged=True, origin="attacker", cause=item.cause,
                        slot=item.payload.get("slot", item.payload.get("height")),
                        view=item.payload.get("view", item.payload.get("round")),
                    )
            else:
                raise CapabilityError(
                    "attacker returned a message it neither received nor forged: "
                    f"{item.describe()}"
                )
        if not kept:
            self._require_drop_rights(message)
            self._controller.metrics.on_dropped()
            self._controller.trace.record(
                self._controller.clock.now, "drop", message.source,
                dest=message.dest, msg_type=message.type, msg_id=message.msg_id,
            )
        return survivors

    def _apply_kept(
        self,
        message: Message,
        proxy: Message,
        item: Message,
        snapshot_payload: dict,
        snapshot_delay: float | None,
    ) -> Message:
        """Validate and apply the attacker's changes to a kept message."""
        ctx = self._attacker_ctx
        if item.payload != snapshot_payload and proxy is message:
            if not ctx.controls_message(message):
                raise CapabilityError(
                    f"attacker modified payload of honest message {message.describe()}; "
                    "modification requires control of the source "
                    "(corruption strictly before the send)"
                )
        if proxy is not message:
            # Redacted view: only the delay may carry information back.
            if item.payload != REDACTED_PAYLOAD:
                raise CapabilityError(
                    "attacker without OBSERVE modified a redacted payload"
                )
            message.delay = item.delay
        if message.delay != snapshot_delay:
            if (
                Capability.NETWORK not in ctx.capabilities
                and not ctx.controls_message(message)
            ):
                raise CapabilityError(
                    f"attacker re-timed message {message.describe()} without the "
                    "NETWORK capability"
                )
            if message.delay is None or message.delay < 0:
                raise CapabilityError("attacker assigned an invalid delay")
        return message

    def _require_drop_rights(self, message: Message) -> None:
        ctx = self._attacker_ctx
        if Capability.NETWORK in ctx.capabilities:
            return
        if ctx.controls_message(message):
            return
        raise CapabilityError(
            f"attacker dropped honest message {message.describe()} without the "
            "NETWORK capability"
        )
