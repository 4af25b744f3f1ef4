"""Host-cost benchmark of the repro simulator.

Runs the workloads of ``workloads.json``, one at a time, and reports what a
simulation run costs the host:

* end to end (``--trace 0``): wall time per pass, simulated events per host
  second, ``Controller`` construction time, and peak resident memory of
  one pass (from its own untimed pass, never from the timed ones).  The
  host seconds behind the three times are scaled by a fixed reference
  kernel run between the timed samples (see ``reference.py``), so they
  read as on a host of constant speed; the unscaled medians are printed;
* per layer (``--trace 1``): an external span tracer wraps each layer's
  public functions (see ``tracer.py``) and reports calls per simulated
  event, self time and share of the run's wall time.

Every run's simulated output is checked: at a workload's default seed its
``result_fingerprint``, event count and message count must equal
``golden.json``; at any other seed every repetition must reproduce the
first.  A failed run (raised, stalled, did not terminate, or left a client
request undecided) is counted, not fatal.

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, both phases
    python3 perfbench/run.py --workload tree-overlay --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --record-golden      # after an intended output change

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from reference import NOMINAL_S, HostSpeed
from tracer import LAYERS, ROOT_LAYER, Probes, Tracer, layer_targets
from workloads import HERE, Step, Workload, load_simulator, workloads

GOLDEN_PATH = HERE / "golden.json"
#: Where the traced runs leave their spans (one ``.npz`` per run).
SPANS_DIR = HERE / "spans"

#: Timed passes per workload even when ``--seconds`` runs out first.
MIN_PASSES = 3
#: Warm ``Controller`` constructions per workload: at least this many, and
#: more for ``SETUP_SECONDS`` of host time; ``setup_s`` is their median.
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
#: Constructions between two runs of the reference kernel.
SETUP_BLOCK_SECONDS = 0.5

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_mib": "MiB",
}


def per_layer_units(protocols: list[str]) -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_event"] = "calls/event"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "share"
    units["core.events.peak_depth"] = "entries"
    units["core.message.deep_copies_per_send"] = "copies/send"
    units["network.delays.draw_calls_per_send"] = "calls/send"
    units["observability.queue_scan_per_event"] = "entries/event"
    units["workload.setup_s"] = "s"
    for name in protocols:
        units[f"protocols.{name}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def paper_protocols(catalog: dict[str, Workload]) -> list[str]:
    return [run["protocol"] for run in catalog["paper-protocols"].entry["runs"]]


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one ``run_simulation`` call produced."""

    label: str
    wall: float
    fingerprint: str | None = None
    events: int = 0
    messages: int = 0
    failure: str | None = None

    def reference(self) -> dict[str, Any]:
        return {"fingerprint": self.fingerprint, "events": self.events,
                "messages": self.messages}


def simulate(step: Step, options: dict[str, Any], runner: Callable | None = None):
    """Run one step; returns ``(result or None, error or None, wall seconds)``."""
    from repro import run_simulation

    runner = runner or run_simulation
    started = time.perf_counter()
    try:
        result = runner(step.config, **options)
    except Exception as exc:  # a failed run is counted, not fatal
        wall = time.perf_counter() - started
        traceback.print_exc()
        return None, exc, wall
    return result, None, time.perf_counter() - started


def outcome_of(step: Step, result: Any, error: Exception | None, wall: float) -> Outcome:
    from repro import result_fingerprint

    if result is None:
        return Outcome(step.label, wall, failure=f"raised {type(error).__name__}: {error}")
    failure = None
    if result.stall is not None:
        failure = f"stalled: {result.stall.reason}"
    elif not result.terminated:
        failure = "did not terminate"
    elif result.workload is not None and result.workload.decided < result.workload.submitted:
        failure = (f"left {result.workload.submitted - result.workload.decided} "
                   "requests undecided")
    return Outcome(step.label, wall, result_fingerprint(result),
                   result.events_processed, result.messages, failure)


def run_pass(steps: list[Step], options: dict[str, Any]) -> list[Outcome]:
    outcomes = []
    for step in steps:
        gc.collect()
        outcomes.append(outcome_of(step, *simulate(step, options)))
    return outcomes


@dataclass
class Tally:
    """Runs attempted and failed, plus every output mismatch seen."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, outcomes: list[Outcome]) -> bool:
        """Count a pass; True when every run in it succeeded."""
        self.attempted += len(outcomes)
        ok = True
        for outcome in outcomes:
            if outcome.failure is not None:
                self.failed += 1
                ok = False
                print(f"[{self.workload}] run {outcome.label} failed: {outcome.failure}",
                      file=sys.stderr)
        return ok

    def check(self, outcomes: list[Outcome], reference: dict[str, dict], what: str) -> None:
        for outcome in outcomes:
            expected = reference.get(outcome.label)
            if outcome.failure is not None or expected is None:
                continue
            got = outcome.reference()
            for key in ("fingerprint", "events", "messages"):
                if got[key] != expected[key]:
                    self.problem(f"{outcome.label}: {key} {got[key]} != {what} {expected[key]}")

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"[{self.workload}] MISMATCH {text}", file=sys.stderr)


def reference_for(workload: Workload, seed: int, first: list[Outcome], golden: dict,
                  tally: Tally) -> tuple[dict[str, dict], str]:
    """The values every run must reproduce, and what they are called."""
    if seed == workload.default_seed:
        if workload.name not in golden:
            tally.problem(f"no golden values for {workload.name}; run --record-golden")
        return golden.get(workload.name, {}), "golden"
    return ({o.label: o.reference() for o in first if o.failure is None},
            "first repetition")


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(workload: Workload, seed: int, seconds: float, golden: dict,
               tally: Tally) -> dict[str, list[float]]:
    """Samples of every end-to-end metric for one workload."""
    from repro import Controller

    steps = workload.steps(seed)
    options = workload.options

    # Peak memory: how far the first, untimed pass raises the process's
    # resident high-water mark.  The pass also warms the process up
    # (imports, caches) before anything is timed.
    gc.collect()
    baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    first = run_pass(steps, options)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline
    tally.count(first)
    reference, what = reference_for(workload, seed, first, golden, tally)
    tally.check(first, reference, what)

    # Every timed sample is scaled by the reference kernel run around it
    # (see reference.py), so drift in the shared host's speed cancels out.
    speed = HostSpeed()
    setup: list[float] = []
    raw_setup: list[float] = []
    setup_deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup) < SETUP_REPEATS or time.perf_counter() < setup_deadline:
        block: list[float] = []
        block_deadline = time.perf_counter() + SETUP_BLOCK_SECONDS
        while not block or time.perf_counter() < block_deadline:
            elapsed = 0.0
            for step in steps:
                kwargs = workload.controller_options()
                gc.collect()
                started = time.perf_counter()
                Controller(step.config, **kwargs)
                elapsed += time.perf_counter() - started
            block.append(elapsed)
        raw_setup += block
        setup += speed.scale(block)

    walls, rates, raw_walls = [], [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        outcomes = run_pass(steps, options)
        raw_wall = sum(o.wall for o in outcomes)
        wall = speed.scale([raw_wall])[0]
        if tally.count(outcomes):
            raw_walls.append(raw_wall)
            walls.append(wall)
            rates.append(sum(o.events for o in outcomes) / wall)
        tally.check(outcomes, reference, what)
    return {
        "wall_s": walls,
        "events_per_s": rates,
        "setup_s": setup,
        "peak_mib": [peak_kib / 1024],
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setup,
        "kernel_s": speed.kernels,
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class PassTrace:
    """The ledger of one traced pass, summed over its steps."""

    outcomes: list[Outcome]
    calls: Counter  # label -> calls
    layer_calls: Counter
    layer_self: dict[str, float]
    protocol_self: dict[str, float]
    workload_setup: float
    peak_depth: int
    queue_scanned: int

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    def exact(self) -> tuple:
        """Everything that must repeat exactly across traced passes."""
        return dict(self.calls), self.peak_depth, self.queue_scanned


def traced_pass(steps: list[Step], options: dict[str, Any],
                spans_dir: pathlib.Path | None = None) -> PassTrace:
    """Run one pass under the tracer; ``spans_dir`` receives each step's spans."""
    from repro import run_simulation
    from repro.attacks.registry import get_attack
    from repro.protocols.registry import get_protocol

    outcomes: list[Outcome] = []
    calls: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_self: dict[str, float] = dict.fromkeys((*LAYERS, ROOT_LAYER), 0.0)
    protocol_self: dict[str, float] = {}
    workload_setup = 0.0
    peak_depth = queue_scanned = 0
    for step in steps:
        gc.collect()
        probes = Probes()
        tracer = Tracer()
        runner = tracer.wrap(run_simulation, "run_simulation", ROOT_LAYER)
        targets = layer_targets(
            get_protocol(step.config.protocol), get_attack(step.config.attack.name), probes
        )
        with tracer.installed(targets):
            ran = simulate(step, options, runner)
        outcomes.append(outcome_of(step, *ran))
        del ran
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{step.label}.npz")
        for label, (count, own, inclusive) in tracer.totals().items():
            layer = tracer.layer_of[label]
            calls[label] += count
            layer_calls[layer] += count
            layer_self[layer] += own
            if layer == "protocols":
                protocol_self[step.label] = protocol_self.get(step.label, 0.0) + own
            if label == "WorkloadManager.__init__":
                workload_setup += inclusive
        peak_depth = max(peak_depth, probes.peak_depth)
        queue_scanned += probes.queue_scanned
    layer_calls.pop(ROOT_LAYER, None)
    return PassTrace(outcomes, calls, layer_calls, layer_self, protocol_self,
                     workload_setup, peak_depth, queue_scanned)


def per_layer(workload: Workload, seed: int, golden: dict, tally: Tally,
              protocols: list[str]) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one workload, plus the details the table prints."""
    steps = workload.steps(seed)
    options = workload.options

    # Untraced passes: the first warms up and fixes the reference output,
    # the second times the untraced pass between the two traced ones.
    untraced = run_pass(steps, options)
    tally.count(untraced)
    reference, what = reference_for(workload, seed, untraced, golden, tally)
    tally.check(untraced, reference, what)
    plain = {o.label: o.reference() for o in untraced if o.failure is None}

    first = traced_pass(steps, options)
    timing = run_pass(steps, options)
    second = traced_pass(steps, options, SPANS_DIR / workload.name)
    for outcomes in (first.outcomes, timing, second.outcomes):
        tally.count(outcomes)
        tally.check(outcomes, reference, what)
    for trace in (first, second):
        tally.check(trace.outcomes, plain, "untraced")
    if first.exact() != second.exact():
        tally.problem("per-layer call counts differ between the two traced runs")

    events = sum(o.events for o in first.outcomes) or 1
    sent = sum(o.messages for o in first.outcomes) or 1
    wall = (first.wall + second.wall) / 2
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        own = (first.layer_self[layer] + second.layer_self[layer]) / 2
        metrics[f"{layer}.calls_per_event"] = first.layer_calls[layer] / events
        metrics[f"{layer}.self_s"] = own
        metrics[f"{layer}.self_share"] = own / wall
    deep_copies = sum(count for label, count in first.calls.items()
                      if label.endswith(".deep_copy_payload"))
    draws = first.calls["DelayModel.sample_delay"] + first.calls["DelayModel.sample_delays"]
    metrics["core.events.peak_depth"] = first.peak_depth
    metrics["core.message.deep_copies_per_send"] = deep_copies / sent
    metrics["network.delays.draw_calls_per_send"] = draws / sent
    metrics["observability.queue_scan_per_event"] = first.queue_scanned / events
    metrics["workload.setup_s"] = (first.workload_setup + second.workload_setup) / 2
    for name in protocols:
        metrics[f"protocols.{name}.self_s"] = (
            first.protocol_self.get(name, 0.0) + second.protocol_self.get(name, 0.0)
        ) / 2
    untraced_wall = sum(o.wall for o in timing)
    metrics["trace.overhead_s"] = wall - untraced_wall

    for key, (low, high) in workload.entry.get("expect", {}).items():
        value = (first.calls[key.removeprefix("calls:")] if key.startswith("calls:")
                 else metrics[key])
        if (low is not None and value < low) or (high is not None and value > high):
            tally.problem(f"{key} = {value} outside [{low}, {high}]")
    for layer in workload.entry.get("exercises", []):
        if first.layer_calls[layer] == 0:
            tally.problem(f"layer {layer} is listed as exercised but was never called")
    for layer in workload.entry.get("bypasses", []):
        if first.layer_calls[layer] != 0:
            tally.problem(f"layer {layer} is listed as bypassed but was called")

    details = {
        "wall": wall,
        "untraced_wall": untraced_wall,
        "outside": (first.layer_self[ROOT_LAYER] + second.layer_self[ROOT_LAYER]) / 2,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_end_to_end(samples: dict[str, list[float]], tally: Tally) -> None:
    print(f"  {'metric':<14}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric, unit in END_TO_END_UNITS.items():
        values = samples[metric]
        if not values:
            print(f"  {metric:<14}{unit:<7}{'-':>14}{'-':>14}{'-':>14}{0:>4}")
            continue
        median, q1, q3 = quartiles(values)
        print(f"  {metric:<14}{unit:<7}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}")
    raw_wall, raw_setup, kernel = (statistics.median(samples[key]) if samples[key] else 0.0
                                   for key in ("raw_wall_s", "raw_setup_s", "kernel_s"))
    print(f"  times above are scaled to a reference kernel time of {NOMINAL_S} s; "
          f"the kernel took a median {kernel:.4f} s here, "
          f"unscaled wall_s {raw_wall:.6g}, setup_s {raw_setup:.6g}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_ratio':<14}{'ratio':<7}{ratio:>14.6g}"
          f"   ({tally.failed} of {tally.attempted} runs failed)")


def print_per_layer(metrics: dict[str, float], details: dict[str, Any],
                    protocols: list[str]) -> None:
    print(f"  {'layer':<17}{'calls/event':>13}{'self_s':>12}{'share':>9}")
    for layer in LAYERS:
        print(f"  {layer:<17}{metrics[layer + '.calls_per_event']:>13.4f}"
              f"{metrics[layer + '.self_s']:>12.4f}{metrics[layer + '.self_share']:>9.1%}")
    outside = details["outside"]
    print(f"  {'(outside layers)':<17}{'':>13}{outside:>12.4f}{outside / details['wall']:>9.1%}")
    print(f"  traced wall {details['wall']:.4f} s, untraced {details['untraced_wall']:.4f} s, "
          f"tracing overhead {metrics['trace.overhead_s']:+.4f} s")
    for key in ("core.events.peak_depth", "core.message.deep_copies_per_send",
                "network.delays.draw_calls_per_send", "observability.queue_scan_per_event",
                "workload.setup_s"):
        print(f"  {key} = {metrics[key]:.6g}")
    active = [name for name in protocols if metrics[f"protocols.{name}.self_s"]]
    if active:
        print("  " + ", ".join(
            f"protocols.{name}.self_s = {metrics[f'protocols.{name}.self_s']:.4f}"
            for name in active))


def record_golden(catalog: dict[str, Workload]) -> None:
    golden: dict[str, dict] = {}
    for name, workload in catalog.items():
        outcomes = run_pass(workload.steps(workload.default_seed), workload.options)
        failures = [o for o in outcomes if o.failure is not None]
        if failures:
            raise SystemExit(f"error: {name}: {failures[0].label} failed: {failures[0].failure}")
        golden[name] = {o.label: o.reference() for o in outcomes}
        print(f"{name}: " + ", ".join(f"{o.label} {o.events} events" for o in outcomes))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default) to run every one serially")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's committed seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the end-to-end timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; "
                             "default: both")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json at every workload's default seed")
    args = parser.parse_args(argv)

    load_simulator()
    catalog = workloads()
    if args.record_golden:
        record_golden(catalog)
        return 0
    if args.workload == "all":
        return run_each(list(catalog), args)
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(catalog)}")
    workload = catalog[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    protocols = paper_protocols(catalog)
    tally = Tally(workload.name)
    reported: dict[str, dict[str, Any]] = {}
    if args.trace in (None, 0):
        print(f"== {workload.name}  seed {seed}  end to end", flush=True)
        samples = end_to_end(workload, seed, args.seconds, golden, tally)
        print_end_to_end(samples, tally)
        for metric, unit in END_TO_END_UNITS.items():
            values = samples[metric]
            value = statistics.median(values) if values else None
            reported[metric] = {"value": value, "unit": unit}
    if args.trace in (None, 1):
        print(f"== {workload.name}  seed {seed}  per layer (traced)", flush=True)
        metrics, details = per_layer(workload, seed, golden, tally, protocols)
        print_per_layer(metrics, details, protocols)
        for metric, unit in per_layer_units(protocols).items():
            reported[metric] = {"value": metrics[metric], "unit": unit}
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


def run_each(names: list[str], args: argparse.Namespace) -> int:
    """Run every workload, one after the other, each in a fresh process.

    Peak memory is a process high-water mark, so a workload measured after
    a larger one would read as zero; one process per workload keeps every
    measurement clean.  The processes never overlap.
    """
    correct = True
    attempted = failed = 0
    reported: dict[str, dict[str, Any]] = {}
    status = 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        if child.returncode != 0 or not lines[-1].startswith("{"):
            print(child.stdout, end="")
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            correct = False
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            reported[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return status


if __name__ == "__main__":
    sys.exit(main())
