"""Protocol messages exchanged between nodes.

A :class:`Message` is the unit the network module transports and the unit the
attacker module can observe, drop, delay, modify, or forge.  The payload is a
plain ``dict`` so protocols stay serialization-agnostic; by convention every
payload carries a ``"type"`` key naming the protocol message kind (e.g.
``"PRE-PREPARE"``, ``"VOTE"``).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

#: Sentinel destination meaning "every node, including the sender".
BROADCAST: int = -1

_message_ids = itertools.count()


def _next_message_id() -> int:
    return next(_message_ids)


#: Immutable leaf types a payload deep copy may share between copies.
#: ``copy.deepcopy`` returns these unchanged too (atomic types), so sharing
#: them is observationally identical — and skips the deepcopy machinery.
_ATOMIC_TYPES = frozenset(
    {int, float, str, bool, bytes, complex, type(None)}
)


def deep_copy_payload(value: Any) -> Any:
    """Structurally copy a payload value.

    Semantically equivalent to ``copy.deepcopy`` for the JSON-ish values
    protocol payloads are made of (nested dicts / lists / tuples over
    scalars), but an order of magnitude faster because it dispatches on the
    exact container type instead of walking deepcopy's general machinery.
    Containers are copied at C level (``dict.copy`` / ``list.copy``) and
    only their non-atomic members are recursed into; an all-atomic tuple is
    immutable all the way down and is returned as-is, as deepcopy does.
    Every mutable container in the result is new; atomic leaves are shared.
    Unrecognised objects (custom classes, sets of mutables...) fall back to
    ``copy.deepcopy``, so arbitrary payload values remain supported.
    """
    cls = type(value)
    if cls in _ATOMIC_TYPES:
        return value
    if cls is dict:
        copied = value.copy()
        for key, item in value.items():
            if type(item) not in _ATOMIC_TYPES:
                copied[key] = deep_copy_payload(item)
        return copied
    if cls is list:
        if _ATOMIC_TYPES.issuperset(map(type, value)):
            return value.copy()
        return [deep_copy_payload(item) for item in value]
    if cls is tuple:
        if _ATOMIC_TYPES.issuperset(map(type, value)):
            return value
        return tuple(deep_copy_payload(item) for item in value)
    return copy.deepcopy(value)


@dataclass(slots=True)
class Message:
    """A single protocol message in flight.

    Attributes:
        source: id of the sending node.  For attacker-forged messages this is
            the id being *impersonated*; the crypto layer restricts forgery
            to corrupted signers.
        dest: id of the receiving node (broadcasts are expanded into unicast
            messages by the network module before delay assignment, mirroring
            the paper's per-message ``delay`` variable).
        payload: protocol-defined content; ``payload["type"]`` names the kind.
        sent_at: simulation time (ms) at which the message entered the
            network module.
        delay: transit delay (ms) assigned by the network module and possibly
            altered by the attacker.  ``None`` until assigned.
        msg_id: unique id, used for tracing and deterministic tie-breaking.
        forged: True when the attacker inserted this message rather than an
            honest node sending it.
        corrupted: True when an environmental ``corrupt`` fault tampered the
            payload in flight.  Receivers reject corrupted messages at
            delivery (the signature/checksum verification stand-in); they
            are never dispatched to protocol logic.
        cause: causal-lineage id of the event being handled when this
            message was submitted (``"m<msg_id>"`` for a message delivery,
            ``"t<timer_id>"`` for a timer, ``"s<node>"`` for ``on_start``,
            ``"a"`` for attacker setup).  Pure observability metadata: it is
            assigned by the network module outside the RNG path, recorded
            into trace events, and never read by protocol or engine logic.
        relay_from: the node that physically transmitted this copy when a
            ``tree``/``gossip`` dissemination overlay relayed the broadcast
            (``None`` for direct sends).  :attr:`source` always stays the
            protocol-level originator — signatures, vote counting, and the
            attacker's corruption accounting key on the origin — while link
            scoped environmental faults match on the physical hop.
        payload_shared: True while :attr:`payload` is aliased between the
            copies of one broadcast (copy-on-write).  Receivers treat
            payloads as read-only by contract; any writer (the attacker
            proxy path) must call :meth:`own_payload` first.
    """

    source: int
    dest: int
    payload: dict[str, Any]
    sent_at: float = 0.0
    delay: float | None = None
    msg_id: int = field(default_factory=_next_message_id)
    forged: bool = False
    corrupted: bool = False
    cause: str | None = None
    relay_from: int | None = None
    payload_shared: bool = False

    @property
    def type(self) -> str:
        """The protocol message kind, taken from ``payload["type"]``."""
        return str(self.payload.get("type", "?"))

    @property
    def deliver_at(self) -> float:
        """Scheduled delivery time; requires :attr:`delay` to be assigned."""
        if self.delay is None:
            raise ValueError("message has no delay assigned yet")
        return self.sent_at + self.delay

    def copy_for(self, dest: int, *, share_payload: bool = False) -> "Message":
        """Return an independent copy addressed to ``dest``.

        Used by the network module to expand a broadcast into unicasts; each
        copy gets its own id and — by default — an independent (deep-copied)
        payload so the attacker may tamper with one recipient's copy without
        affecting the others.

        With ``share_payload=True`` the copy aliases this message's payload
        and is flagged :attr:`payload_shared` (copy-on-write): the
        dissemination overlays use this to avoid materializing n structural
        payload copies per broadcast.  Any path that may mutate the payload
        (the attacker hand-off) un-shares via :meth:`own_payload` first.
        """
        if share_payload:
            payload = self.payload
            self.payload_shared = True
        else:
            payload = deep_copy_payload(self.payload)
        return Message(
            source=self.source,
            dest=dest,
            payload=payload,
            sent_at=self.sent_at,
            forged=self.forged,
            cause=self.cause,
            payload_shared=share_payload,
        )

    def own_payload(self) -> None:
        """Replace a shared payload with a private structural copy.

        No-op for already-private payloads.  Call before any in-place
        payload mutation of a broadcast copy (copy-on-write discipline).
        """
        if self.payload_shared:
            self.payload = deep_copy_payload(self.payload)
            self.payload_shared = False

    def describe(self) -> str:
        """Short human-readable summary used in traces and logs."""
        return f"{self.type} {self.source}->{self.dest} @{self.sent_at:.1f}"


#: Fixed per-message envelope overhead (headers, routing, signature tag).
MESSAGE_OVERHEAD_BYTES: int = 96

#: Lazily bound reference to :func:`repro.crypto.signatures.canonical`
#: (import deferred to break the crypto <-> core import cycle, then cached
#: so the hot path never repeats the module lookup).
_canonical: Callable[[Any], str] | None = None


def estimate_message_bytes(message: "Message") -> int:
    """Estimated wire size of ``message`` in bytes.

    The paper measures communication cost in message *counts* but notes the
    total bytes "can be reconstructed via estimating the size of each
    message and calculating the sum" (§II-C).  The estimate here is the
    canonical JSON length of the payload plus a fixed envelope overhead —
    deterministic, so byte totals are reproducible.
    """
    global _canonical
    canonical = _canonical
    if canonical is None:
        from ..crypto.signatures import canonical as _imported

        canonical = _canonical = _imported
    return MESSAGE_OVERHEAD_BYTES + len(canonical(message.payload))


def payload_matches(payload: Mapping[str, Any], **expected: Any) -> bool:
    """True when every key in ``expected`` is present and equal in ``payload``.

    A small helper protocols use to filter message logs, e.g.
    ``payload_matches(m.payload, type="VOTE", view=3)``.
    """
    return all(payload.get(key) == value for key, value in expected.items())
