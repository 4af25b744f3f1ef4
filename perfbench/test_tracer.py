"""Self-tests of the benchmark's span tracer and host-speed scaling.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from tracer import LAYERS, Probes, Target, Tracer, layer_targets
from workloads import ROOT, load_simulator

load_simulator()

from repro import NetworkConfig, SimulationConfig, result_fingerprint, run_simulation  # noqa: E402
from repro.attacks.null import NullAttacker  # noqa: E402
from repro.core import message as message_module  # noqa: E402
from repro.protocols.registry import get_protocol  # noqa: E402

MISSING = object()


class Clock:
    """A synthetic clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class CallTree:
    """root -> (mid -> (leaf, leaf), leaf), each doing a fixed amount of 'work'."""

    clock: Clock

    def root(self):
        self.clock.now += 7
        self.mid()
        self.leaf()

    def mid(self):
        self.clock.now += 5
        self.leaf()
        self.leaf()

    def leaf(self):
        self.clock.now += 2

    def broken(self):
        self.clock.now += 1
        raise ValueError("boom")


def test_children_are_subtracted_and_self_times_sum_to_the_root():
    clock = Clock()
    CallTree.clock = clock
    tracer = Tracer(clock=clock)
    targets = [Target(layer, CallTree, name)
               for layer, name in (("a", "root"), ("b", "mid"), ("c", "leaf"))]
    with tracer.installed(targets):
        CallTree().root()
    totals = tracer.totals()
    assert totals["CallTree.leaf"] == (3, 6.0, 6.0)
    assert totals["CallTree.mid"] == (1, 5.0, 9.0)
    assert totals["CallTree.root"] == (1, 7.0, 18.0)
    assert sum(own for _, own, _ in totals.values()) == totals["CallTree.root"][2]


def test_a_raising_call_still_closes_its_span():
    clock = Clock()
    CallTree.clock = clock
    tracer = Tracer(clock=clock)
    with tracer.installed([Target("a", CallTree, "root"), Target("b", CallTree, "broken")]):
        with pytest.raises(ValueError):
            CallTree().broken()
        CallTree().root()
    totals = tracer.totals()
    assert totals["CallTree.broken"] == (1, 1.0, 1.0)
    # had the failed span stayed open, root would be charged as its child
    assert totals["CallTree.root"] == (1, 18.0, 18.0)


def _snapshot(targets: list[Target]) -> dict:
    return {(t.owner, t.attr): vars(t.owner).get(t.attr, MISSING) for t in targets}


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns", "algorand"])
def test_uninstall_restores_every_wrapped_attribute_by_identity(protocol):
    targets = layer_targets(get_protocol(protocol), NullAttacker, Probes())
    assert {t.layer for t in targets} == set(LAYERS)
    before = _snapshot(targets)
    tracer = Tracer()
    with tracer.installed(targets):
        during = _snapshot(targets)
        assert all(during[key] is not before[key] for key in before)
    after = _snapshot(targets)
    assert all(after[key] is before[key] for key in before)


def test_recursive_deep_copy_is_one_span_per_outermost_call():
    raw = message_module.deep_copy_payload
    tracer = Tracer()
    target = Target("core.message", message_module, "deep_copy_payload", recursive=True)
    payload = {"block": list(range(50)), "nested": {"a": [1, (2, 3)]}}
    with tracer.installed([target]):
        assert message_module.deep_copy_payload(payload) == payload
        assert message_module.deep_copy_payload is not raw
    assert message_module.deep_copy_payload is raw
    assert tracer.totals()["repro.core.message.deep_copy_payload"][0] == 1


def _traced(config: SimulationConfig):
    probes = Probes()
    tracer = Tracer()
    with tracer.installed(layer_targets(get_protocol(config.protocol), NullAttacker, probes)):
        result = run_simulation(config)
    return result, tracer.totals()


@pytest.mark.parametrize("mode", ["full", "tree"])
def test_a_traced_run_takes_the_untraced_path(mode):
    config = SimulationConfig(
        protocol="pbft", n=16, network=NetworkConfig(mean=50.0, std=10.0, dissemination=mode)
    )
    plain = run_simulation(config)
    traced, totals = _traced(config)
    assert result_fingerprint(traced) == result_fingerprint(plain)
    deep_copies = (totals["repro.core.message.deep_copy_payload"][0]
                   + totals["repro.network.module.deep_copy_payload"][0])
    if mode == "full":
        # one structural copy per broadcast recipient, nothing nested counted
        assert deep_copies == totals["Message.copy_for"][0] > 0
        assert totals["EventQueue.push_deliveries"][0] == 0
    else:
        assert deep_copies == 0
        assert totals["EventQueue.push_deliveries"][0] > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    from run import END_TO_END_UNITS, paper_protocols, per_layer_units
    from workloads import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalog = workloads()
    assert [w["name"] for w in spec["workloads"]] == list(catalog)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == per_layer_units(paper_protocols(catalog)))


def test_host_speed_scales_each_sample_by_the_kernel_runs_around_it(monkeypatch):
    import reference

    kernel_times = iter([0.2, 0.3, 0.5])
    monkeypatch.setattr(reference, "kernel_seconds", lambda: next(kernel_times))
    speed = reference.HostSpeed()
    # bracketed by 0.2 and 0.3: the host ran at 0.25 s per kernel, the nominal speed
    assert speed.scale([1.0, 2.0]) == pytest.approx([1.0, 2.0])
    # bracketed by 0.3 and 0.5: the host ran 1.6x slower than nominal
    assert speed.scale([1.6]) == pytest.approx([1.0])
    assert speed.kernels == [0.2, 0.3, 0.5]


def test_the_reference_kernel_does_a_fixed_amount_of_work():
    import reference

    assert reference.kernel() == reference.kernel() == reference._EVENTS
