"""Scale bench — dissemination overlays at n up to 1000 (PR-6 tentpole).

Where ``bench_core_hotpath.py`` watches the kernel's per-event cost on the
paper's mid-scale configs, this bench watches the *scaling wall*: a
three-phase PBFT decision at n = 1000 materializes ~1.7M delivery events,
and under the seed's full broadcast fan-out every one of them is a
separately allocated message copy.  The dissemination overlays (``tree`` /
``gossip``) relay broadcasts instead: payloads are shared copy-on-write,
per-broadcast delays are drawn as one vectorized batch, and the fast tier
schedules one shared delivery event per broadcast — so the same protocol
run costs a fraction of the wall-clock and the allocator traffic.

Workload: one decision, lambda = 1000, N(50, 10) link delays, seed 2022,
and **block proposals** (``block_txns = 256``): each proposal value carries
a 256-transaction list, the realistic payload weight where full fan-out
pays a structural copy per recipient and the overlays pay nothing.

Matrix: {pbft, hotstuff-ns} x n in {64, 256, 1000} x {full, tree, gossip},
events/sec from warm wall-clock repetitions (fewer at n = 1000 — the full
cell runs minutes); peak traced memory (tracemalloc) for the pbft n = 1000
cells in a separate pass, since tracing multiplies wall time several-fold.

``BENCH_scale.json`` is the committed reference.  The tests assert:

1. **Determinism** — ``events_processed`` per cell matches the committed
   count exactly (RNG consumption and event ordering are seed-stable).
2. **The headline claim stands** — the committed n=1000 pbft numbers show
   ``tree`` >= 3x the events/sec of ``full``, at lower peak memory.
3. **No regression** (CI smoke, n=256 only) — the live n=256 cells stay
   under ``REPRO_BENCH_MAX_REGRESSION`` (default 2.0) times the committed
   medians, and ``tree`` still beats ``full`` live.

Regenerate after an intentional kernel/overlay change (takes ~15 minutes,
dominated by the n=1000 full-fan-out cells)::

    PYTHONPATH=src python benchmarks/bench_scale.py --update
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import tracemalloc

from repro import NetworkConfig, SimulationConfig, run_simulation
from repro.analysis import render_table

from _common import run_once, save_artifact

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_scale.json"

PROTOCOLS = ("pbft", "hotstuff-ns")
SIZES = (64, 256, 1000)
MODES = ("full", "tree", "gossip")
BLOCK_TXNS = 256

MAX_REGRESSION = float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "2.0"))

#: Headline acceptance bar: committed n=1000 pbft tree vs full events/sec.
MIN_HEADLINE_SPEEDUP = 3.0


def _config(protocol: str, n: int, mode: str) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol,
        n=n,
        lam=1000.0,
        network=NetworkConfig(mean=50.0, std=10.0, dissemination=mode),
        num_decisions=1,
        seed=2022,
        protocol_params={"block_txns": BLOCK_TXNS},
    )


def _reps_for(n: int) -> int:
    return {64: 5, 256: 3}.get(n, 1)


def measure_cell(protocol: str, n: int, mode: str, reps: int | None = None) -> dict:
    """Median wall-clock and events/sec of ``reps`` runs of one cell.

    Lineage stamping is off (documented digest-neutral observability); the
    bench measures the kernel, not the telemetry layer.
    """
    if reps is None:
        reps = _reps_for(n)
    config = _config(protocol, n, mode)
    times = []
    events = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_simulation(config)
        times.append(time.perf_counter() - t0)
        if events is None:
            events = result.events_processed
        else:
            assert events == result.events_processed, (
                f"{protocol}/n={n}/{mode}: event count varied between repetitions"
            )
    times.sort()
    median = times[len(times) // 2]
    return {
        "events": events,
        "median_s": round(median, 3),
        "events_per_sec": round(events / median, 1),
    }


def measure_peak(protocol: str, n: int, mode: str) -> dict:
    """Peak traced allocation of one run (separate pass: tracemalloc
    multiplies wall time several-fold, so timing cells never trace)."""
    config = _config(protocol, n, mode)
    tracemalloc.start()
    result = run_simulation(config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"events": result.events_processed, "peak_mib": round(peak / 2**20, 1)}


def load_baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def _cell_key(protocol: str, n: int, mode: str) -> str:
    return f"{protocol}/n{n}/{mode}"


# ---------------------------------------------------------------------------
# committed-reference assertions
# ---------------------------------------------------------------------------


def test_committed_headline_speedup():
    """The committed artifact must show the tentpole claim: at n=1000 the
    tree overlay sustains >= 3x the events/sec of the full fan-out on pbft,
    at lower peak memory.  Pure artifact check — no simulation runs."""
    baseline = load_baseline()
    cells = baseline["cells"]
    full = cells[_cell_key("pbft", 1000, "full")]
    tree = cells[_cell_key("pbft", 1000, "tree")]
    speedup = tree["events_per_sec"] / full["events_per_sec"]
    assert speedup >= MIN_HEADLINE_SPEEDUP, (
        f"committed n=1000 pbft tree/full events/sec ratio is only "
        f"{speedup:.2f}x (claimed >= {MIN_HEADLINE_SPEEDUP}x); re-measure "
        "with --update and revisit the overlay fast path"
    )
    peaks = baseline["peak_memory"]
    assert (
        peaks[_cell_key("pbft", 1000, "tree")]["peak_mib"]
        < peaks[_cell_key("pbft", 1000, "full")]["peak_mib"]
    ), "tree overlay must not cost more peak memory than full fan-out"


def test_committed_matrix_is_complete():
    baseline = load_baseline()
    for protocol in PROTOCOLS:
        for n in SIZES:
            for mode in MODES:
                cell = baseline["cells"][_cell_key(protocol, n, mode)]
                assert cell["events"] > 0 and cell["events_per_sec"] > 0


def test_scale_smoke_regression(benchmark):
    """CI perf-smoke gate: the n=256 pbft cells, live vs committed.

    Guards determinism (exact event counts), the overlay advantage (tree
    beats full live), and wall-clock regression (within
    ``REPRO_BENCH_MAX_REGRESSION`` of the committed medians)."""
    baseline = load_baseline()

    def run() -> dict:
        return {
            mode: measure_cell("pbft", 256, mode, reps=1)
            for mode in ("full", "tree")
        }

    live = run_once(benchmark, run)
    rows = []
    for mode, cell in live.items():
        ref = baseline["cells"][_cell_key("pbft", 256, mode)]
        assert cell["events"] == ref["events"], (
            f"pbft/n256/{mode}: events_processed {cell['events']} != committed "
            f"{ref['events']}; RNG consumption or event ordering drifted — a "
            "determinism break, not noise"
        )
        limit = MAX_REGRESSION * ref["median_s"]
        assert cell["median_s"] <= limit, (
            f"pbft/n256/{mode}: live {cell['median_s']:.2f}s exceeds "
            f"{MAX_REGRESSION:.1f}x committed {ref['median_s']:.2f}s"
        )
        rows.append(
            (mode, str(cell["events"]), f"{ref['median_s']:.2f}",
             f"{cell['median_s']:.2f}", f"{cell['events_per_sec']:.0f}")
        )
    assert live["tree"]["events_per_sec"] > live["full"]["events_per_sec"], (
        "tree overlay no longer beats full fan-out at n=256"
    )
    save_artifact(
        "scale_smoke",
        render_table(
            "Scale perf smoke: pbft n=256, block_txns=256, full vs tree",
            ["mode", "events", "ref (s)", "live (s)", "live ev/s"],
            rows,
            note=f"gate: live <= {MAX_REGRESSION:.1f}x committed median; "
            "events must match exactly.",
        ),
    )


# ---------------------------------------------------------------------------
# regeneration
# ---------------------------------------------------------------------------


def _update() -> None:
    cells: dict[str, dict] = {}
    for protocol in PROTOCOLS:
        for n in SIZES:
            for mode in MODES:
                key = _cell_key(protocol, n, mode)
                cells[key] = measure_cell(protocol, n, mode)
                print(f"{key}: {cells[key]}", flush=True)
    peaks: dict[str, dict] = {}
    for mode in MODES:
        key = _cell_key("pbft", 1000, mode)
        peaks[key] = measure_peak("pbft", 1000, mode)
        print(f"peak {key}: {peaks[key]}", flush=True)
    headline = (
        cells[_cell_key("pbft", 1000, "tree")]["events_per_sec"]
        / cells[_cell_key("pbft", 1000, "full")]["events_per_sec"]
    )
    payload = {
        "description": (
            "Committed scale reference for bench_scale.py: one decision at "
            "lambda=1000, N(50,10), seed 2022, block_txns=256; events/sec "
            "from warm wall-clock medians (single rep at n=1000), peak "
            "memory from a separate tracemalloc pass. events is a "
            "determinism guard: it must never drift."
        ),
        "workload": {
            "lam": 1000.0, "mean": 50.0, "std": 10.0, "seed": 2022,
            "num_decisions": 1, "block_txns": BLOCK_TXNS,
        },
        "headline_speedup_n1000_pbft": round(headline, 2),
        "cells": cells,
        "peak_memory": peaks,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH} (headline {headline:.2f}x)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        baseline = load_baseline()
        for mode in ("full", "tree"):
            live = measure_cell("pbft", 256, mode, reps=1)
            ref = baseline["cells"][_cell_key("pbft", 256, mode)]
            assert live["events"] == ref["events"]
            print(f"pbft/n256/{mode}: {live} (committed: {ref})")
        print("ok")
