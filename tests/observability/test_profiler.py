"""Tests for the hot-path profiler and RunProfile aggregation."""

from __future__ import annotations

import pickle
from collections import Counter
from time import perf_counter

import pytest

from repro.core.config import NetworkConfig, SimulationConfig
from repro.core.events import EventQueue
from repro.core.message import Message
from repro.core.results import result_fingerprint
from repro.core.runner import run_simulation
from repro.network.delays import DelayModel
from repro.observability.profiler import (
    ENGINE_SECTIONS,
    Profiler,
    RunProfile,
    SectionStats,
)


class TestProfilerAccumulator:
    def test_add_accumulates_calls_and_time(self):
        prof = Profiler()
        for _ in range(3):
            prof.add("queue.pop", perf_counter())
        profile = prof.build(wall_seconds=1.0, events=10, sim_time_ms=500.0)
        stats = profile.sections["queue.pop"]
        assert stats.calls == 3
        assert stats.seconds >= 0.0

    def test_build_carries_run_identity(self):
        profile = Profiler().build(wall_seconds=2.0, events=100, sim_time_ms=50.0)
        assert profile.runs == 1
        assert profile.events == 100
        assert profile.events_per_second == 50.0


class TestSectionStats:
    def test_us_per_call(self):
        assert SectionStats(calls=2, seconds=1e-3).us_per_call == 500.0
        assert SectionStats(calls=0, seconds=0.0).us_per_call == 0.0


class TestRunProfile:
    def _profile(self, wall=1.0, events=100, calls=10, seconds=0.5):
        return RunProfile(
            wall_seconds=wall,
            events=events,
            sim_time_ms=1000.0,
            sections={"queue.pop": SectionStats(calls=calls, seconds=seconds)},
        )

    def test_merge_sums_everything(self):
        merged = RunProfile.merge([self._profile(), self._profile(wall=3.0)])
        assert merged.runs == 2
        assert merged.wall_seconds == 4.0
        assert merged.events == 200
        assert merged.sections["queue.pop"].calls == 20
        assert merged.sections["queue.pop"].seconds == 1.0

    def test_merge_unions_section_names(self):
        a = RunProfile(wall_seconds=1.0, events=1, sim_time_ms=1.0,
                       sections={"a": SectionStats(1, 0.1)})
        b = RunProfile(wall_seconds=1.0, events=1, sim_time_ms=1.0,
                       sections={"b": SectionStats(2, 0.2)})
        merged = RunProfile.merge([a, b])
        assert set(merged.sections) == {"a", "b"}

    def test_dict_round_trip(self):
        profile = self._profile()
        restored = RunProfile.from_dict(profile.to_dict())
        assert restored == profile

    def test_accounted_and_unaccounted(self):
        profile = self._profile(wall=1.0, seconds=0.4)
        assert profile.accounted_seconds == 0.4

    def test_format_table_lists_sections(self):
        text = self._profile().format_table()
        assert "queue.pop" in text
        assert "(unaccounted)" in text
        assert "events/s" in text

    def test_format_table_top_reports_cut(self):
        profile = RunProfile(
            wall_seconds=1.0, events=1, sim_time_ms=1.0,
            sections={f"s{i}": SectionStats(1, 0.01 * i) for i in range(5)},
        )
        text = profile.format_table(top=2)
        assert "+3 more sections not shown" in text

    def test_summary_mentions_throughput(self):
        assert "events/s" in self._profile().summary()


class TestProfiledRuns:
    def test_run_simulation_attaches_profile(self):
        config = SimulationConfig(protocol="pbft", n=4, seed=5)
        result = run_simulation(config, profile=True)
        assert result.profile is not None
        assert result.profile.events == result.events_processed
        assert result.profile.sim_time_ms == result.latency
        # The engine's instrumented sections appear (dispatch always pops).
        assert "queue.pop" in result.profile.sections
        assert result.profile.sections["queue.pop"].calls == result.events_processed
        for name in result.profile.sections:
            assert name in ENGINE_SECTIONS

    def test_unprofiled_run_has_no_profile(self):
        result = run_simulation(SimulationConfig(protocol="pbft", n=4, seed=5))
        assert result.profile is None

    def test_profile_survives_pickle(self):
        result = run_simulation(
            SimulationConfig(protocol="pbft", n=4, seed=5), profile=True
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.profile == result.profile

    def test_faulted_run_times_fault_engine(self):
        from repro.faults import parse_faults_spec

        config = SimulationConfig(
            protocol="pbft", n=4, seed=5, faults=parse_faults_spec("loss=0.05"),
            stall_timeout=60_000.0,
        )
        result = run_simulation(config, profile=True)
        assert result.profile is not None
        assert "faults.apply" in result.profile.sections


def _pbft16(mode: str = "full", **fields) -> SimulationConfig:
    return SimulationConfig(
        protocol="pbft", n=16, seed=5,
        network=NetworkConfig(mean=50.0, std=10.0, dissemination=mode), **fields,
    )


def _faulted_workload() -> SimulationConfig:
    """The instrumented tier: link faults plus an open-loop workload."""
    from repro.faults import parse_faults_spec
    from repro import WorkloadConfig

    return _pbft16(
        faults=parse_faults_spec("delay=0.2x5; duplicate=0.1"),
        workload=WorkloadConfig(
            arrival="poisson", rate=200.0, clients=8, duration=1000.0,
            batch=16, batch_timeout=100.0,
        ),
        stall_timeout=60_000.0,
    )


#: Engine calls whose counts must not depend on who observes the run.
COUNTED_CALLS = (
    (DelayModel, "sample_delay"),
    (DelayModel, "sample_delays"),
    (Message, "copy_for"),
    (EventQueue, "push"),
    (EventQueue, "push_deliveries"),
)

OBSERVER_SETS = {
    "profile": {"profile": True},
    "metrics": {"metrics": True},
    "health": {"health": True},
    "all": {"profile": True, "metrics": True, "health": True},
}

RUNS = {
    "full": _pbft16,
    "tree": lambda: _pbft16("tree"),
    "faults-workload": _faulted_workload,
}


def _count_calls(monkeypatch) -> Counter:
    calls: Counter[str] = Counter()
    for owner, name in COUNTED_CALLS:
        raw = getattr(owner, name)

        def counted(*args, _raw=raw, _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestNoObserverEffect:
    """No observer switches a code path: the profiler times the benign fast
    tiers rather than turning them off, and the event observers only listen."""

    @pytest.mark.parametrize("mode", ["full", "tree"])
    def test_profiling_runs_the_same_code_path(self, mode, monkeypatch):
        calls = _count_calls(monkeypatch)
        config = _pbft16(mode)
        plain = run_simulation(config)
        plain_calls = dict(calls)
        calls.clear()
        profiled = run_simulation(config, profile=True)
        assert result_fingerprint(profiled) == result_fingerprint(plain)
        assert dict(calls) == plain_calls
        assert plain_calls["sample_delays"] > 0
        # Delay draws are timed on the fast tiers; nothing reaches the
        # attacker hand-off in a benign run.
        sections = profiled.profile.sections
        assert sections["network.delay"].calls == (
            plain_calls["sample_delays"] + plain_calls.get("sample_delay", 0)
        )
        assert "attacker.attack" not in sections

    @pytest.mark.parametrize("observers", sorted(OBSERVER_SETS))
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_observers_run_the_same_code_path(self, run, observers, monkeypatch):
        calls = _count_calls(monkeypatch)
        config = RUNS[run]()
        plain = run_simulation(config)
        plain_calls = dict(calls)
        calls.clear()
        observed = run_simulation(config, **OBSERVER_SETS[observers])
        assert result_fingerprint(observed) == result_fingerprint(plain)
        assert observed.events_processed == plain.events_processed
        assert dict(calls) == plain_calls
        assert plain_calls["push"] > 0


class TestParallelProfileMerge:
    def test_fleet_profile_merges_worker_profiles(self):
        from repro.parallel import ParallelRunner

        config = SimulationConfig(protocol="pbft", n=4, seed=0)
        runner = ParallelRunner(jobs=2, profile=True)
        entries = runner.run_repeat(config, repetitions=4)
        assert all(entry.profile is not None for entry in entries)
        fleet = runner.fleet_profile
        assert fleet is not None
        assert fleet.runs == 4
        assert fleet.events == sum(e.events_processed for e in entries)

    def test_repeat_simulation_profile_flag_serial(self):
        from repro.core.runner import repeat_simulation

        config = SimulationConfig(protocol="pbft", n=4, seed=0)
        entries = repeat_simulation(config, 2, profile=True)
        assert all(entry.profile is not None for entry in entries)

    def test_unprofiled_parallel_leaves_fleet_profile_unset(self):
        from repro.parallel import ParallelRunner

        runner = ParallelRunner(jobs=2)
        runner.run_repeat(SimulationConfig(protocol="pbft", n=4, seed=0), 2)
        assert runner.fleet_profile is None
