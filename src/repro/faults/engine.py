"""The fault injector: applies link-level fault processes to messages.

The :class:`FaultInjector` sits between the attacker module and delivery
scheduling inside :class:`~repro.network.module.NetworkModule`: every
message that survives the attacker passes through the active fault schedule
before its delivery event is registered.  Node crash/recovery faults are
*not* handled here — the controller schedules those as timed lifecycle
events (see :mod:`repro.core.controller`).

Determinism: each fault process draws from its own substream named
``faults.<index>`` (index = the spec's position in the schedule), and
duplicate copies sample their independent delay from a dedicated
``faults.delay`` stream.  Fault draws therefore never perturb the network
delay stream, and reordering unrelated specs does not change the draws an
unchanged spec sees.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..core.config import LINK_FAULT_KINDS, FaultScheduleConfig, NetworkConfig
from ..core import message as core_message
from ..core.message import Message
from ..core.rng import RandomSource
from ..network.delays import DelayModel
from ..observability.logging import SimLogger, get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import MetricsCollector
    from ..core.tracing import Trace


class FaultInjector:
    """Applies the link-level fault processes of a schedule to messages.

    Args:
        schedule: the run's declarative fault schedule.
        random_source: the run's root random source; the injector derives
            its own substreams and never touches existing ones.
        network_config: network parameters, used to sample independent
            delays for duplicated messages.
        metrics: the run's collector; fault events increment
            ``metrics.faults`` (a :class:`~repro.core.metrics.FaultCounts`),
            never the attacker-facing ``MessageCounts``.
        trace: the run's trace; fault events are recorded with ``env-*``
            kinds so traces keep the attacker-vs-environment boundary.
        next_message_id: the controller's per-run message id allocator,
            used to key duplicated copies.
    """

    def __init__(
        self,
        schedule: FaultScheduleConfig,
        random_source: RandomSource,
        network_config: NetworkConfig,
        metrics: "MetricsCollector",
        trace: "Trace",
        next_message_id: Callable[[], int],
    ) -> None:
        self.schedule = schedule
        self._metrics = metrics
        self._trace = trace
        self._next_message_id = next_message_id
        self._link_specs = [
            (index, spec)
            for index, spec in enumerate(schedule.specs)
            if spec.kind in LINK_FAULT_KINDS
        ]
        self._rngs: dict[int, random.Random] = {
            index: random_source.python(f"faults.{index}")
            for index, _spec in self._link_specs
        }
        # Hot-path bindings: one (spec, bound rng.random) pair per process so
        # ``apply`` touches no dict lookups per message.  The substreams and
        # their draw order are exactly the ones in ``_rngs``.
        self._active = [
            (spec, self._rngs[index].random) for index, spec in self._link_specs
        ]
        self._fault_counts = metrics.faults
        self._dup_delays = DelayModel(
            network_config, random_source.numpy("faults.delay")
        )
        self.log = SimLogger(get_logger("faults"))

    def active(self) -> bool:
        """True when any link-level fault process is configured."""
        return bool(self._link_specs)

    def apply(self, message: Message) -> list[Message]:
        """Run ``message`` through the fault schedule.

        Returns the messages to actually schedule for delivery: the original
        (possibly re-timed or flagged corrupted), any duplicate copies, or
        nothing at all when a loss/link-down process dropped it.  Specs are
        applied in schedule order; a drop ends processing for the original,
        but duplicates already created stay in flight (they are independent
        packets).  Duplicate copies are not re-processed.
        """
        faults = self._fault_counts
        duplicates: list[Message] = []
        alive = True
        sent_at = message.sent_at
        # Link faults are physical: a dissemination hop travels the
        # relay->dest link, not origin->dest, so spec matching uses the
        # transmitting node when one is recorded.
        src = message.relay_from
        if src is None:
            src = message.source
        for spec, draw in self._active:
            if not spec.in_window(sent_at):
                continue
            if not spec.matches_link(src, message.dest):
                continue
            if spec.kind == "link-down":
                faults.link_down += 1
                self._record("env-drop", message, fault="link-down")
                alive = False
                break
            if draw() >= spec.rate:
                continue
            if spec.kind == "loss":
                faults.lost += 1
                self._record("env-drop", message, fault="loss")
                alive = False
                break
            if spec.kind == "duplicate":
                duplicates.append(self._duplicate(message))
            elif spec.kind == "corrupt":
                if not message.corrupted:
                    faults.corrupted += 1
                    self._record("env-corrupt", message)
                message.corrupted = True
            elif spec.kind == "delay":
                assert message.delay is not None
                message.delay = message.delay * spec.factor
                faults.delayed += 1
                self._record("env-delay", message, factor=spec.factor)
        return duplicates + [message] if alive else duplicates

    # -- internals ----------------------------------------------------------

    def _duplicate(self, message: Message) -> Message:
        """An independent in-flight copy with its own delay and id."""
        # The copy is looked up on its module, so a wrapper installed there
        # (the perfbench span tracer) counts it as one structural copy.
        dup = Message(
            source=message.source,
            dest=message.dest,
            payload=core_message.deep_copy_payload(message.payload),
            sent_at=message.sent_at,
            delay=self._dup_delays.sample_delay(message.sent_at),
            msg_id=self._next_message_id(),
            forged=message.forged,
            corrupted=message.corrupted,
        )
        dup.relay_from = message.relay_from
        dup.cause = message.cause
        self._metrics.faults.duplicated += 1
        self._record("env-dup", dup, original=message.msg_id)
        return dup

    def _record(self, kind: str, message: Message, **fields: object) -> None:
        self._trace.record(
            message.sent_at, kind, message.source,
            dest=message.dest, msg_type=message.type, msg_id=message.msg_id,
            **fields,
        )
        self.log.debug(
            kind, sim_time=message.sent_at,
            source=message.source, dest=message.dest,
            msg_type=message.type, msg_id=message.msg_id, **fields,
        )
