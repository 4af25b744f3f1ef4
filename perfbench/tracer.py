"""An external span tracer for the benchmark's per-layer cost ledger.

The tracer never touches the simulator's source.  It replaces the public
functions of each layer, at class or module level, with wrappers that
record one span per call, and puts the originals back afterwards.  The
simulator runs exactly the code path it runs untraced: unlike
``run_simulation(profile=True)``, nothing here tells the engine it is being
watched, so the benign fast paths stay on.

Spans live in flat in-memory arrays (name, parent, start, end) while the run
executes; they are folded into the ledger, and written out, once it
returns.  A span's *self* time is its duration minus the durations of its
direct children, so the self times of a call tree add up to its root span
exactly.

Install the wrappers before the ``Controller`` is built: the network binds
``EventQueue.push`` and ``DelayModel.sample_delay`` at construction, and the
run loop binds ``pop_entry``/``peek_time`` when it starts.
"""

from __future__ import annotations

import os
import sys
import time
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

#: The simulator layers the ledger reports, in report order.
LAYERS = (
    "core.controller",
    "core.events",
    "core.message",
    "network.module",
    "network.delays",
    "protocols",
    "attacks",
    "faults",
    "workload",
    "observability",
    "core.metrics",
    "core.results",
)

#: Layer of the root span that encloses one traced ``run_simulation`` call;
#: its self time is whatever the call does outside every wrapped function.
ROOT_LAYER = "run"


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr`` (owner is a class or module).

    Attributes:
        layer: the ledger layer the calls are charged to.
        owner: the class or module holding the attribute.
        attr: the attribute name.
        after: optional ``after(args)`` hook, run once the call's span has
            closed (for counters such as the queue's peak depth).
        recursive: the function recurses through its own module global
            (``deep_copy_payload``).  While an outermost call runs, that
            global points back at the original, so the inner calls belong
            to the outer span and cost no wrapper.
    """

    layer: str
    owner: Any
    attr: str
    after: Callable[[tuple], None] | None = None
    recursive: bool = False

    @property
    def label(self) -> str:
        if isinstance(self.owner, types.ModuleType):
            return f"{self.owner.__name__}.{self.attr}"
        return f"{self.owner.__qualname__}.{self.attr}"


def _raw_attribute(owner: Any, attr: str) -> Callable:
    """The plain function behind ``owner.attr`` (looked up along the MRO)."""
    namespaces = owner.__mro__ if isinstance(owner, type) else (owner,)
    for namespace in namespaces:
        raw = vars(namespace).get(attr)
        if raw is not None:
            if not isinstance(raw, types.FunctionType):
                raise TypeError(f"cannot trace {owner!r}.{attr}: not a plain function")
            return raw
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


class Tracer:
    """Records one span per call of every wrapped function.

    Args:
        clock: the time source (seconds); tests pass a synthetic one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.labels: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._codes: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: (owner, attr, had_own_attribute, previous value) per installed wrapper.
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def _code(self, label: str, layer: str) -> int:
        code = self._codes.get(label)
        if code is None:
            code = self._codes[label] = len(self.labels)
            self.labels.append(label)
            self.layer_of[label] = layer
        return code

    def wrap(
        self,
        fn: Callable,
        label: str,
        layer: str,
        after: Callable[[tuple], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records a span named ``label``."""
        code = self._code(label, layer)
        name, parent, start, end = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(name)
            name.append(code)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = began
                stack.pop()
                if after is not None:
                    after(args)

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            owner, attr = target.owner, target.attr
            raw = _raw_attribute(owner, attr)
            wrapper = self.wrap(raw, target.label, target.layer, target.after)
            if target.recursive:
                wrapper = _outermost_only(wrapper, raw)
            had = attr in vars(owner)
            self._saved.append((owner, attr, had, vars(owner).get(attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced, by identity."""
        while self._saved:
            owner, attr, had, previous = self._saved.pop()
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Tracer"]:
        try:
            self.install(targets)
            yield self
        finally:
            self.uninstall()

    # -- the ledger ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``label -> (calls, self seconds, inclusive seconds)`` over all spans."""
        count = len(self._name)
        names = np.frombuffer(self._name, dtype=np.int32, count=count)
        parents = np.frombuffer(self._parent, dtype=np.int64, count=count)
        duration = np.frombuffer(self._end, count=count) - np.frombuffer(
            self._start, count=count
        )
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=count
        )
        own = duration - children
        width = len(self.labels)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        inclusive = np.bincount(names, weights=duration, minlength=width)
        return {
            label: (int(calls[code]), float(self_s[code]), float(inclusive[code]))
            for code, label in enumerate(self.labels)
        }


    def write(self, path: "str | os.PathLike[str]") -> None:
        """Save every span (name, parent, start, end) as a compressed ``.npz``.

        ``labels[name[i]]`` is span ``i``'s function, ``layers`` its layer;
        ``parent[i]`` is the enclosing span's index, ``-1`` for a root.
        """
        count = len(self._name)
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            layers=np.array([self.layer_of[label] for label in self.labels]),
            name=np.frombuffer(self._name, dtype=np.int32, count=count),
            parent=np.frombuffer(self._parent, dtype=np.int64, count=count),
            start=np.frombuffer(self._start, count=count),
            end=np.frombuffer(self._end, count=count),
        )


def _outermost_only(wrapper: Callable, raw: Callable) -> Callable:
    """Trace only the outermost call of a self-recursive module function."""
    home = sys.modules[raw.__module__]
    attr = raw.__name__

    def outermost(*args, **kwargs):
        current = vars(home)[attr]
        setattr(home, attr, raw)
        try:
            return wrapper(*args, **kwargs)
        finally:
            setattr(home, attr, current)

    outermost.__wrapped__ = raw
    return outermost


# ---------------------------------------------------------------------------
# the simulator's layers
# ---------------------------------------------------------------------------


class Probes:
    """Counters the queue wrappers feed outside the timed spans."""

    def __init__(self) -> None:
        self.peak_depth = 0
        self.queue_scanned = 0

    def depth(self, args: tuple) -> None:
        depth = len(args[0])
        if depth > self.peak_depth:
            self.peak_depth = depth

    def scan(self, args: tuple) -> None:
        self.queue_scanned += len(args[0])


def layer_targets(protocol_cls: type, attacker_cls: type, probes: Probes) -> list[Target]:
    """Every public function the ledger spans, for one run's classes."""
    from repro.core import message as message_module
    from repro.core.controller import Controller
    from repro.core.events import EventQueue
    from repro.core.message import Message
    from repro.core.metrics import MetricsCollector
    from repro.faults.engine import FaultInjector
    from repro.network import module as network_module
    from repro.network.delays import DelayModel
    from repro.network.module import NetworkModule
    from repro.observability.health import HealthMonitor
    from repro.observability.metrics import MetricsRegistry
    from repro.workload.manager import WorkloadManager

    targets = [
        Target("core.controller", Controller, "__init__"),
        Target("core.controller", Controller, "run"),
        Target("core.events", EventQueue, "push", after=probes.depth),
        Target("core.events", EventQueue, "push_deliveries", after=probes.depth),
        Target("core.events", EventQueue, "pop_entry"),
        Target("core.events", EventQueue, "peek_time"),
        Target("core.events", EventQueue, "cancel"),
        Target("core.events", EventQueue, "cancel_if"),
        Target("core.events", EventQueue, "live_count", after=probes.scan),
        Target("core.message", Message, "copy_for"),
        Target("core.message", Message, "own_payload"),
        Target("core.message", message_module, "estimate_message_bytes"),
        Target("core.message", network_module, "estimate_message_bytes"),
        Target("core.message", message_module, "deep_copy_payload", recursive=True),
        Target("core.message", network_module, "deep_copy_payload", recursive=True),
        Target("network.module", NetworkModule, "submit"),
        Target("network.delays", DelayModel, "sample_delay"),
        Target("network.delays", DelayModel, "sample_delays"),
        Target("protocols", protocol_cls, "on_start"),
        Target("protocols", protocol_cls, "on_message"),
        Target("protocols", protocol_cls, "on_timer"),
        Target("attacks", attacker_cls, "attack"),
        Target("attacks", attacker_cls, "on_timer"),
        Target("faults", FaultInjector, "apply"),
        Target("workload", WorkloadManager, "__init__"),
        Target("workload", WorkloadManager, "submit"),
        Target("workload", WorkloadManager, "cut_batch"),
        Target("workload", WorkloadManager, "on_decided"),
        Target("core.metrics", MetricsCollector, "on_decision"),
        Target("core.metrics", MetricsCollector, "terminated"),
        Target("core.metrics", MetricsCollector, "finish"),
        Target("core.results", WorkloadManager, "build"),
        Target("core.results", HealthMonitor, "report"),
        Target("core.results", MetricsRegistry, "build"),
    ]
    for observer in (HealthMonitor, MetricsRegistry):
        for hook in ("advance", "on_send", "on_deliver", "on_decide", "on_view"):
            if hasattr(observer, hook):
                targets.append(Target("observability", observer, hook))
    return targets
