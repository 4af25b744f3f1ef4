"""The observer tap: the engine's one channel to its run observers.

The controller and the network module never name an observer.  They
publish a fixed set of events through an :class:`ObserverTap`, which binds
once per run the tuple of methods of the observers implementing each event;
every call site is one loop over its tuple, empty when nothing listens.
The events and their hook signatures:

* ``on_send(node, wire_bytes)`` — one wire transmission charged to ``node``;
* ``on_deliver(dest, source, now, kind, latency)`` — a ``kind`` message
  reaches ``dest`` after ``latency`` ms in transit;
* ``on_decide(node, now)``, ``on_view(node, view, now)`` and
  ``on_phase(node, phase, view, height, now)``;
* ``advance(now) -> float`` — close every window boundary at or before
  ``now`` and return the next one.  The dispatch loop keeps the earliest
  boundary over the windowed observers and calls ``advance`` only when an
  event reaches it;
* ``finish(now)`` — the run ended.

Hooks are OBSERVE-only: no RNG draws and no scheduled events, so the
determinism fingerprint never depends on who listens.  The
:class:`~repro.observability.profiler.Profiler` hears no events: it wraps
the engine's timed callables once, at bind time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller
    from .health import HealthMonitor
    from .metrics import MetricsRegistry
    from .profiler import Profiler
    from .signals import LiveSignals


class ObserverTap:
    """Per-event tuples of bound observer hooks, fixed at construction."""

    def __init__(
        self,
        *,
        signals: "LiveSignals | None" = None,
        health: "HealthMonitor | None" = None,
        metrics: "MetricsRegistry | None" = None,
        profiler: "Profiler | None" = None,
    ) -> None:
        self._signals = signals
        self._health = health
        self._metrics = metrics
        self._profiler = profiler
        # Health before metrics: a window close may emit anomalies, and the
        # registry's ``health_anomalies`` gauge samples the same boundary.
        observers = [o for o in (signals, health, metrics) if o is not None]

        def hooks(name: str) -> tuple:
            return tuple(getattr(o, name) for o in observers if hasattr(o, name))

        self.send = hooks("on_send")
        self.deliver = hooks("on_deliver")
        self.decide = hooks("on_decide")
        self.phase = hooks("on_phase")
        self.view = hooks("on_view")
        self.advance = hooks("advance")
        self.finish = hooks("finish")

    def bind(self, controller: "Controller") -> None:
        """Attach the observers to a fully built engine.

        The registry binds before the monitor, which registers its gauges
        on it; the profiler binds last, once every node it wraps exists.
        """
        if self._metrics is not None:
            self._metrics.bind_engine(controller)
        if self._health is not None:
            self._health.bind_engine(controller, self._metrics)
        if self._profiler is not None:
            self._profiler.bind_engine(controller)

    def results(self, wall_seconds: float, events: int, now: float) -> dict[str, Any]:
        """The observers' :class:`~repro.core.results.SimulationResult`
        fields (all outside the determinism fingerprint)."""
        fields: dict[str, Any] = {}
        if self._profiler is not None:
            fields["profile"] = self._profiler.build(
                wall_seconds=wall_seconds, events=events, sim_time_ms=now
            )
        if self._metrics is not None:
            fields["run_metrics"] = self._metrics.build(sim_time_ms=now)
        if self._signals is not None:
            fields["signals_summary"] = self._signals.summary_dict()
        if self._health is not None:
            fields["health"] = self._health.report()
        return fields
