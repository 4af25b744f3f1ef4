"""The benchmark's workloads, built from the committed spec ``workloads.json``.

A workload is an ordered list of simulation configs plus the
``run_simulation`` keyword arguments they run with.  One *pass* runs every
config once, in order; for single-config workloads a pass is one run.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = HERE / "workloads.json"


def load_simulator() -> None:
    """Import ``repro`` from the ``src`` tree next to this directory.

    Raises:
        SystemExit: the source tree is missing or ``repro`` resolves to a
            copy outside it (the benchmark must measure this checkout).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


@dataclass(frozen=True)
class Step:
    """One ``run_simulation`` call of a pass."""

    label: str
    config: Any


@dataclass(frozen=True)
class Workload:
    name: str
    entry: dict[str, Any]

    @property
    def default_seed(self) -> int:
        return int(self.entry["seed"])

    @property
    def options(self) -> dict[str, Any]:
        """Keyword arguments of every ``run_simulation`` call."""
        return dict(self.entry.get("options", {}))

    def steps(self, seed: int) -> list[Step]:
        return [Step(run["protocol"], _build_config(run, seed)) for run in self.entry["runs"]]

    def controller_options(self) -> dict[str, Any]:
        """``Controller`` keyword arguments equal to what ``run_simulation``
        builds from :attr:`options` (fresh observers on every call)."""
        from repro.observability.health import DEFAULT_WINDOW_MS, HealthMonitor
        from repro.observability.metrics import DEFAULT_INTERVAL_MS, MetricsRegistry

        options = self.options
        kwargs: dict[str, Any] = {}
        if options.get("health"):
            kwargs["health"] = HealthMonitor(window_ms=DEFAULT_WINDOW_MS)
        if options.get("metrics"):
            kwargs["metrics"] = MetricsRegistry(interval=DEFAULT_INTERVAL_MS)
        return kwargs


def _build_config(run: dict[str, Any], seed: int) -> Any:
    from repro import NetworkConfig, SimulationConfig, WorkloadConfig, parse_faults_spec
    from repro.analysis.experiments import ExperimentCell

    fields = dict(run)
    if fields.pop("cell", False):
        return ExperimentCell(**fields, seed=seed).config()
    fields["network"] = NetworkConfig(**fields.get("network", {}))
    if "workload" in fields:
        fields["workload"] = WorkloadConfig(**fields["workload"])
    if "faults" in fields:
        fields["faults"] = parse_faults_spec(fields["faults"])
    return SimulationConfig(**fields, seed=seed)


def workloads() -> dict[str, Workload]:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {name: Workload(name, entry) for name, entry in spec["workloads"].items()}
