"""Hot-path profiler: where wall-clock time goes inside a run.

The paper's central claims are about simulator *efficiency* (§V: events per
second, scalability with node count).  To optimize the engine we first have
to measure it, so :meth:`Profiler.bind_engine` wraps the engine's seven
timed callables once, when the run is built: the queue's ``pop_entry``,
every node's ``on_message``/``on_timer``, the attacker's
``attack``/``on_timer``, the fault engine's ``apply`` and both delay
models' ``sample_delay``/``sample_delays``.  The wrappers are instance
attributes, so the engine calls exactly what it calls unprofiled — it holds
no profiling branch and profiling cannot choose a code path — and an
unprofiled run pays nothing at all.

The aggregate is a :class:`RunProfile` attached to
``SimulationResult.profile`` — *outside* the determinism fingerprint, like
``wall_clock_seconds``, because host timing varies between otherwise
identical runs.  Profiles merge (:meth:`RunProfile.merge`), which is how
:class:`~repro.parallel.ParallelRunner` reports fleet-wide throughput for a
whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller

#: Profiler section names :meth:`Profiler.bind_engine` times, in dispatch
#: order.  (Open set: callers may add their own names via :meth:`Profiler.add`.)
ENGINE_SECTIONS = (
    "queue.pop",
    "network.delay",
    "attacker.attack",
    "attacker.timer",
    "faults.apply",
    "protocol.on_message",
    "protocol.on_timer",
)


@dataclass(frozen=True)
class SectionStats:
    """Accumulated timing of one instrumented section.

    Attributes:
        calls: how many times the section executed.
        seconds: total wall-clock time spent inside it.
    """

    calls: int
    seconds: float

    @property
    def us_per_call(self) -> float:
        """Mean microseconds per call."""
        return (self.seconds / self.calls) * 1e6 if self.calls else 0.0


@dataclass(frozen=True)
class RunProfile:
    """Aggregated hot-path profile of one run (or a merged fleet of runs).

    Excluded from :func:`~repro.core.results.result_fingerprint` — host
    timing is not part of a run's deterministic identity.

    Attributes:
        wall_seconds: total wall-clock time of the run(s); for merged
            profiles this is summed *worker* time (CPU-seconds), not batch
            elapsed time.
        events: events the controller dispatched.
        sim_time_ms: simulated time covered.
        runs: how many runs this profile aggregates (1 for a single run).
        sections: per-section timing, keyed by section name.
    """

    wall_seconds: float
    events: int
    sim_time_ms: float
    runs: int = 1
    sections: dict[str, SectionStats] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Dispatch throughput — the paper's Fig. 2 efficiency metric."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def accounted_seconds(self) -> float:
        """Wall time attributed to instrumented sections."""
        return sum(s.seconds for s in self.sections.values())

    @classmethod
    def merge(cls, profiles: Iterable["RunProfile"]) -> "RunProfile":
        """Sum profiles (e.g. every run of a sweep) into a fleet profile."""
        wall = 0.0
        events = 0
        sim_ms = 0.0
        runs = 0
        sections: dict[str, list[float]] = {}
        for profile in profiles:
            wall += profile.wall_seconds
            events += profile.events
            sim_ms += profile.sim_time_ms
            runs += profile.runs
            for name, stats in profile.sections.items():
                cell = sections.setdefault(name, [0, 0.0])
                cell[0] += stats.calls
                cell[1] += stats.seconds
        return cls(
            wall_seconds=wall,
            events=events,
            sim_time_ms=sim_ms,
            runs=runs,
            sections={
                name: SectionStats(calls=int(calls), seconds=seconds)
                for name, (calls, seconds) in sections.items()
            },
        )

    # -- serialization (for ``--profile-out`` / ``repro inspect``) ----------

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "sim_time_ms": self.sim_time_ms,
            "runs": self.runs,
            "events_per_second": self.events_per_second,
            "sections": {
                name: {"calls": s.calls, "seconds": s.seconds}
                for name, s in self.sections.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunProfile":
        return cls(
            wall_seconds=float(data["wall_seconds"]),
            events=int(data["events"]),
            sim_time_ms=float(data.get("sim_time_ms", 0.0)),
            runs=int(data.get("runs", 1)),
            sections={
                name: SectionStats(
                    calls=int(s["calls"]), seconds=float(s["seconds"])
                )
                for name, s in dict(data.get("sections", {})).items()
            },
        )

    # -- rendering -----------------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"profile: {self.runs} run{'s' if self.runs != 1 else ''}, "
            f"{self.events} events in {self.wall_seconds:.3f}s wall "
            f"({self.events_per_second:,.0f} events/s, "
            f"{self.sim_time_ms:.0f}ms simulated)"
        )

    def format_table(self, top: int | None = None) -> str:
        """Fixed-width per-section table, hottest first.

        Args:
            top: show only the ``top`` hottest sections (``None`` = all);
                a tail line reports what was cut.
        """
        from ..analysis.report import render_table

        ranked = sorted(
            self.sections.items(), key=lambda item: item[1].seconds, reverse=True
        )
        shown = ranked if top is None else ranked[:top]
        wall = self.wall_seconds or 1.0
        rows = [
            (
                name,
                stats.calls,
                f"{stats.seconds:.4f}",
                f"{100.0 * stats.seconds / wall:.1f}%",
                f"{stats.us_per_call:.1f}",
            )
            for name, stats in shown
        ]
        other = self.wall_seconds - self.accounted_seconds
        rows.append(
            ("(unaccounted)", "", f"{max(other, 0.0):.4f}",
             f"{100.0 * max(other, 0.0) / wall:.1f}%", "")
        )
        note = self.summary()
        if top is not None and len(ranked) > top:
            note += f"; +{len(ranked) - top} more sections not shown"
        return render_table(
            "hot-path profile (per-section wall time)",
            ["section", "calls", "seconds", "% wall", "us/call"],
            rows,
            note=note,
        )


class Profiler:
    """Mutable per-run accumulator behind the engine's timed callables.

    The controller calls :meth:`bind_engine` once, after building the run;
    any other hot section can be timed by hand::

        t0 = perf_counter()
        do_work()
        profiler.add("my.section", t0)
    """

    __slots__ = ("_sections",)

    def __init__(self) -> None:
        self._sections: dict[str, list[float]] = {}

    def add(self, name: str, started: float) -> None:
        """Charge ``perf_counter() - started`` seconds to section ``name``."""
        elapsed = perf_counter() - started
        cell = self._sections.get(name)
        if cell is None:
            self._sections[name] = [1, elapsed]
        else:
            cell[0] += 1
            cell[1] += elapsed

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to charge each call's wall time to section ``name``."""
        add = self.add

        def timed_call(*args: Any) -> Any:
            t0 = perf_counter()
            result = fn(*args)
            add(name, t0)
            return result

        return timed_call

    def bind_engine(self, controller: "Controller") -> None:
        """Wrap the engine's timed callables in place (see module docstring)."""
        network = controller.network
        targets: list[tuple[Any, str, str]] = [
            (controller.queue, "pop_entry", "queue.pop"),
            (controller.attacker, "attack", "attacker.attack"),
            (controller.attacker, "on_timer", "attacker.timer"),
            (controller.fault_injector, "apply", "faults.apply"),
        ]
        for model in (network.delay_model, network.dissemination_model):
            targets.append((model, "sample_delay", "network.delay"))
            targets.append((model, "sample_delays", "network.delay"))
        for node in controller.nodes:
            targets.append((node, "on_message", "protocol.on_message"))
            targets.append((node, "on_timer", "protocol.on_timer"))
        for owner, attr, section in targets:
            if owner is not None:
                setattr(owner, attr, self._timed(section, getattr(owner, attr)))

    def build(self, wall_seconds: float, events: int, sim_time_ms: float) -> RunProfile:
        """Freeze the accumulated sections into a :class:`RunProfile`."""
        return RunProfile(
            wall_seconds=wall_seconds,
            events=events,
            sim_time_ms=sim_time_ms,
            runs=1,
            sections={
                name: SectionStats(calls=int(calls), seconds=seconds)
                for name, (calls, seconds) in self._sections.items()
            },
        )
