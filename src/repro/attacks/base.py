"""The abstracted global attacker framework.

This is the paper's central design departure from prior simulators
(§I, §III-A5): instead of instantiating individual Byzantine nodes, a single
*global attacker* sits between the network module and delivery.  Every
message passes through it, so rushing behaviour (acting after seeing honest
messages) comes for free, and adaptive corruption is a first-class operation
rather than a pre-simulation configuration.

The threat model is enforced centrally and explicitly through
*capabilities*:

``OBSERVE``
    read the contents of honest messages in flight (rushing attackers);
    without it the attacker sees only redacted envelopes (source,
    destination, timing).
``NETWORK``
    manipulate the network itself: delay or drop arbitrary messages
    (partition attacks, targeted delay injection).
``BYZANTINE``
    corrupt up to ``f`` nodes and fully control them afterwards: drop or
    rewrite their outgoing messages and forge new ones in their name.
``ADAPTIVE``
    corrupt nodes *during* execution.  Without it corruption is only legal
    at simulation time zero (a static attacker).

Two rules are load-bearing for the paper's Fig. 8 result and are enforced
here rather than in any protocol:

1. **Corruption budget** — at most ``f`` nodes may ever be corrupted.
2. **No after-the-fact retraction** — corrupting a node at time *t* gives
   control only over messages *sent strictly after t*.  Messages already in
   flight are delivered untouched.  This is exactly what separates ADD+v2
   (credential revealed one step before the proposal: the adaptive attacker
   wins the race) from ADD+v3 (credential and proposal bound in the same
   send: too late to retract).
"""

from __future__ import annotations

import copy
import enum
import random
from typing import TYPE_CHECKING, Any, Iterable

from ..core.errors import CapabilityError, CorruptionBudgetError
from ..core.events import ATTACKER_OWNER, TimeEvent
from ..core.message import Message
from ..core.node import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.config import SimulationConfig
    from ..core.controller import Controller
    from ..network.topology import Topology
    from ..observability.signals import LiveSignals


class Capability(enum.Flag):
    """Attacker capabilities; combine with ``|``."""

    NONE = 0
    OBSERVE = enum.auto()
    NETWORK = enum.auto()
    BYZANTINE = enum.auto()
    ADAPTIVE = enum.auto()


#: Payload substituted when a non-observing attacker inspects honest traffic.
REDACTED_PAYLOAD: dict[str, Any] = {"type": "<redacted>"}


class AttackerContext:
    """The attacker's handle on the simulation, provided by the controller.

    All attacker-side effects (corruption, forgery, timers) go through this
    object so the capability and budget rules live in exactly one place.
    """

    def __init__(self, controller: "Controller", capabilities: Capability) -> None:
        self._controller = controller
        self.capabilities = capabilities
        self._corrupted_since: dict[int, float] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self._controller.clock.now

    @property
    def n(self) -> int:
        return self._controller.n

    @property
    def f(self) -> int:
        return self._controller.f

    @property
    def lam(self) -> float:
        return self._controller.config.lam

    @property
    def config(self) -> "SimulationConfig":
        return self._controller.config

    @property
    def topology(self) -> "Topology":
        return self._controller.network.topology

    def rng(self, name: str = "attacker") -> random.Random:
        """Deterministic random stream for attacker decisions."""
        return self._controller.shared_rng(f"attack.{name}")

    @property
    def signals(self) -> "LiveSignals":
        """Live run-progress signals (see :mod:`repro.observability.signals`).

        Available only to attackers that declare ``wants_signals = True``
        (the controller then maintains the counters) **and** hold the
        ``OBSERVE`` capability: the run's own progress telemetry — who is
        straggling, who keeps closing quorums — is rushing-adversary
        knowledge, reserved for observing attackers.

        Raises:
            CapabilityError: without ``OBSERVE``, or when the attacker did
                not declare ``wants_signals`` (nothing was collected).
        """
        if Capability.OBSERVE not in self.capabilities:
            raise CapabilityError(
                "reading live run signals requires the OBSERVE capability"
            )
        signals = self._controller.signals
        if signals is None:
            raise CapabilityError(
                "live signals were not collected for this run; the attacker "
                "class must declare wants_signals = True"
            )
        return signals

    def overlay_relays(self, root: int) -> tuple[int, ...]:
        """The relay nodes a ``tree`` broadcast from ``root`` routes through.

        Structural knowledge of the dissemination overlay — the set of
        internal (non-root) nodes of the spanning tree every broadcast from
        ``root`` rides.  Delaying exactly these nodes chokes the overlay
        without touching the root itself.  Requires the ``NETWORK``
        capability (it is network-topology knowledge, not message content).

        Returns an empty tuple for ``full`` dissemination (no relays) and
        for ``gossip`` (the relay set is drawn per broadcast — there is no
        static choke point to target).

        Raises:
            CapabilityError: without ``NETWORK``.
        """
        if Capability.NETWORK not in self.capabilities:
            raise CapabilityError(
                "overlay introspection requires the NETWORK capability"
            )
        return self._controller.network.overlay_relays(root)

    # -- corruption ---------------------------------------------------------

    @property
    def corrupted(self) -> frozenset[int]:
        """Nodes corrupted so far (at any time)."""
        return frozenset(self._corrupted_since)

    @property
    def budget_remaining(self) -> int:
        return self.f - len(self._corrupted_since)

    def controls_message(self, message: Message) -> bool:
        """True when the attacker legitimately controls ``message``:
        forged by it, or sent by a node corrupted strictly before the send.
        """
        if message.forged:
            return True
        since = self._corrupted_since.get(message.source)
        return since is not None and since < message.sent_at

    def corrupt(self, node: int) -> None:
        """Corrupt ``node`` from the current instant onward.

        Raises:
            CapabilityError: without ``BYZANTINE``; or when corrupting after
                time zero without ``ADAPTIVE``.
            CorruptionBudgetError: when more than ``f`` nodes would be
                corrupted.
        """
        if Capability.BYZANTINE not in self.capabilities:
            raise CapabilityError("corrupting nodes requires the BYZANTINE capability")
        if node in self._corrupted_since:
            return
        if self.now > 0 and Capability.ADAPTIVE not in self.capabilities:
            raise CapabilityError(
                f"static attacker tried to corrupt node {node} at t={self.now:.1f}; "
                "corruption after start requires the ADAPTIVE capability"
            )
        if len(self._corrupted_since) >= self.f:
            raise CorruptionBudgetError(
                f"corruption budget exhausted (f={self.f}); cannot corrupt node {node}"
            )
        if not 0 <= node < self.n:
            raise CapabilityError(f"no such node: {node}")
        self._corrupted_since[node] = self.now
        self._controller.on_node_corrupted(node)

    def crash(self, node: int) -> None:
        """Fail-stop ``node``: corrupt it and never speak for it.

        Provided for readability in fail-stop attacks; identical to
        :meth:`corrupt` at the framework level (the paper models fail-stop
        as the weakest Byzantine behaviour, §III-C).
        """
        self.corrupt(node)

    # -- forgery ---------------------------------------------------------

    def forge(self, source: int, dest: int, payload: dict[str, Any],
              delay: float | None = None) -> Message:
        """Create a message in a corrupted node's name.

        The message is *not* sent automatically; return it from
        ``Attacker.attack`` or pass it to :meth:`inject`.

        Raises:
            CapabilityError: if ``source`` is not currently corrupted (the
                crypto layer's unforgeability stand-in) or the attacker lacks
                ``BYZANTINE``.
        """
        if Capability.BYZANTINE not in self.capabilities:
            raise CapabilityError("forging messages requires the BYZANTINE capability")
        if source not in self._corrupted_since:
            raise CapabilityError(
                f"cannot forge a message from honest node {source}: "
                "signatures of honest nodes are unforgeable"
            )
        return Message(
            source=source,
            dest=dest,
            payload=copy.deepcopy(payload),
            sent_at=self.now,
            delay=delay,
            forged=True,
        )

    def inject(self, message: Message) -> None:
        """Send a forged message outside of an ``attack`` callback
        (e.g. from an attacker timer)."""
        if not message.forged:
            raise CapabilityError("inject() only accepts messages created by forge()")
        self._controller.network.submit(message)

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, name: str, **data: Any) -> TimerHandle:
        """Register an attacker time event ``delay`` ms from now."""
        return self._controller.register_timer(ATTACKER_OWNER, delay, name, data)

    def cancel_timer(self, handle: TimerHandle) -> None:
        self._controller.cancel_timer(handle)


class Attacker:
    """Base class for attack scenarios.

    Subclasses declare :attr:`capabilities` and override :meth:`attack`
    (per-message interception) and optionally :meth:`setup` (static
    corruption, scheduling timers) and :meth:`on_timer`.

    The paper's customization interface is exactly these two callbacks
    (§III-A5: ``attack`` and ``onTimeEvent``).
    """

    #: Override in subclasses.
    capabilities: Capability = Capability.NONE
    #: Registry name; set by the registry decorator.
    name: str = "abstract"
    #: Declare True to make the controller maintain
    #: :class:`~repro.observability.signals.LiveSignals` for this run
    #: (read them via ``ctx.signals``, which additionally requires
    #: ``OBSERVE``).  Off by default: benign runs collect nothing.
    wants_signals: bool = False

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        self.params = dict(params or {})
        self.ctx: AttackerContext = None  # type: ignore[assignment]

    @classmethod
    def corruption_demand(cls, params: dict[str, Any], f: int) -> int:
        """Upper bound on nodes this attacker will corrupt under ``params``.

        Used by the scenario validator to reject budget overruns at config
        time (the sum of demands across a composed scenario must stay
        within ``f``) instead of mid-run.  Pure-network attackers keep the
        default of ``0``; corrupting attackers override it to mirror how
        they read their parameters.
        """
        return 0

    def bind(self, ctx: AttackerContext) -> None:
        """Called by the controller before the run starts."""
        self.ctx = ctx

    def setup(self) -> None:
        """Called once at time zero, after binding, before any event."""

    def attack(self, message: Message) -> Iterable[Message] | None:
        """Intercept one in-flight message.

        Args:
            message: the message, with its network delay already assigned.
                If the attacker lacks ``OBSERVE`` and does not control the
                message, the payload is redacted.

        Returns:
            ``None`` to pass the message through unchanged (the common
            case), or an iterable of messages to deliver instead: include
            ``message`` (possibly with modified ``delay``/``payload``) to
            keep it, omit it to drop it, and add forged messages to inject.
            Every modification is checked against the capability rules by
            the network module.
        """
        return None

    def on_timer(self, timer: TimeEvent) -> None:
        """Called when an attacker timer fires."""

    def describe(self) -> str:
        return f"{type(self).__name__}({self.params})"
