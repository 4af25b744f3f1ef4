"""The sqlite-backed experiment repository.

Every run of the simulator is a deterministic function of its configuration,
which makes stored results *reproducible claims*: a row that records the
configuration JSON, the seed, and the ``result_fingerprint`` is enough to
re-run the experiment anywhere and byte-compare the outcome.  The
:class:`ExperimentStore` persists exactly that — plus the decision/latency
metrics, fault/stall diagnostics, profile and signals summaries, and
pointers to on-disk JSONL traces and mining artifacts — so results survive
the process that produced them and can be listed, diffed, and browsed later
(``repro experiments``, ``repro serve``).

Design rules:

* **Opt-in and fingerprint-neutral.**  Recording happens strictly *after* a
  run completes, from the result object; the engine never sees the store.
  Attaching a store changes no RNG draw and no result field — the golden
  digests are byte-identical with and without it (a dedicated test runs the
  golden configurations through a recorder and compares).
* **Stdlib only.**  ``sqlite3`` ships with CPython; there is no ORM, no
  migration framework — one schema version, checked on open, rejected on
  mismatch (:class:`StoreSchemaError`) rather than silently migrated.
* **Concurrent-writer safe.**  The store serializes its own writes behind a
  lock and opens sqlite in WAL mode with a busy timeout, so several
  runners/threads (e.g. two ``ParallelRunner`` fleets) can record into one
  file; progress counters are updated in the same transaction as the run
  row, so a dashboard poll never observes a half-recorded run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.config import SimulationConfig
from ..core.errors import SimulationError
from ..core.results import (
    RunFailure,
    SimulationResult,
    result_fingerprint,
)

#: Current on-disk schema version.  Bump on any incompatible change; the
#: store refuses files written by other versions instead of guessing.
#: v2: throughput columns (committed_tx_s, requests_submitted,
#: requests_decided, saturated, workload_json) for workload runs.
#: v3: run-health columns (health_json, anomaly_count, min_fairness) for
#: runs recorded with the streaming HealthMonitor enabled.
SCHEMA_VERSION = 3

#: Experiment lifecycle states.
EXPERIMENT_STATUSES = ("running", "complete", "failed")


class StoreError(SimulationError):
    """The experiment store was misused or the file is not a store."""


class StoreSchemaError(StoreError):
    """The store file was written by an incompatible schema version."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    name         TEXT NOT NULL,
    kind         TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'running',
    created_at   REAL NOT NULL,
    finished_at  REAL,
    config_json  TEXT NOT NULL,
    params_json  TEXT NOT NULL DEFAULT '{}',
    total_runs   INTEGER NOT NULL DEFAULT 0,
    done_runs    INTEGER NOT NULL DEFAULT 0,
    failed_runs  INTEGER NOT NULL DEFAULT 0,
    stalled_runs INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS runs (
    id                   INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id        INTEGER NOT NULL REFERENCES experiments(id),
    run_index            INTEGER NOT NULL,
    label                TEXT NOT NULL DEFAULT '',
    status               TEXT NOT NULL,
    seed                 INTEGER NOT NULL,
    protocol             TEXT NOT NULL,
    config_json          TEXT NOT NULL,
    fingerprint          TEXT,
    terminated           INTEGER,
    stalled              INTEGER NOT NULL DEFAULT 0,
    latency              REAL,
    latency_per_decision REAL,
    messages             INTEGER,
    messages_per_decision REAL,
    events_processed     INTEGER,
    max_view             INTEGER,
    wall_clock_seconds   REAL,
    fault_counts_json    TEXT,
    stall_json           TEXT,
    profile_json         TEXT,
    metrics_json         TEXT,
    signals_json         TEXT,
    failure_json         TEXT,
    trace_path           TEXT,
    committed_tx_s       REAL,
    requests_submitted   INTEGER,
    requests_decided     INTEGER,
    saturated            INTEGER,
    workload_json        TEXT,
    health_json          TEXT,
    anomaly_count        INTEGER,
    min_fairness         REAL,
    UNIQUE (experiment_id, run_index)
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs(experiment_id);
CREATE TABLE IF NOT EXISTS artifacts (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    kind          TEXT NOT NULL,
    name          TEXT NOT NULL DEFAULT '',
    path          TEXT,
    payload_json  TEXT
);
CREATE INDEX IF NOT EXISTS idx_artifacts_experiment ON artifacts(experiment_id);
"""


def _json(value: Any) -> str | None:
    """Compact sorted JSON, or ``None`` for ``None`` (SQL NULL)."""
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, default=repr)


def _loads(text: str | None) -> Any:
    return None if text is None else json.loads(text)


@dataclass(frozen=True)
class ExperimentRow:
    """One stored experiment (a batch of runs recorded together)."""

    id: int
    name: str
    kind: str
    status: str
    created_at: float
    finished_at: float | None
    config: dict[str, Any]
    params: dict[str, Any]
    total_runs: int
    done_runs: int
    failed_runs: int
    stalled_runs: int

    @property
    def running(self) -> bool:
        return self.status == "running"

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["progress"] = (
            self.done_runs / self.total_runs if self.total_runs else 0.0
        )
        return data


@dataclass(frozen=True)
class RunRow:
    """One stored run: metrics, diagnostics, and reproduction coordinates."""

    id: int
    experiment_id: int
    run_index: int
    label: str
    status: str
    seed: int
    protocol: str
    config: dict[str, Any]
    fingerprint: str | None
    terminated: bool | None
    stalled: bool
    latency: float | None
    latency_per_decision: float | None
    messages: int | None
    messages_per_decision: float | None
    events_processed: int | None
    max_view: int | None
    wall_clock_seconds: float | None
    fault_counts: dict[str, Any] | None = None
    stall: dict[str, Any] | None = None
    profile: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    signals: dict[str, Any] | None = None
    failure: dict[str, Any] | None = None
    trace_path: str | None = None
    committed_tx_s: float | None = None
    requests_submitted: int | None = None
    requests_decided: int | None = None
    saturated: bool | None = None
    workload: dict[str, Any] | None = None
    health: dict[str, Any] | None = None
    anomaly_count: int | None = None
    min_fairness: float | None = None

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ArtifactRow:
    """One stored artifact pointer/payload (mining winners, lineage...)."""

    id: int
    experiment_id: int
    kind: str
    name: str
    path: str | None
    payload: Any

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class RunDiff:
    """One run-index slot compared between two experiments."""

    run_index: int
    a: str | None  # fingerprint in experiment A (None: missing/failed)
    b: str | None
    a_latency: float | None = None
    b_latency: float | None = None

    @property
    def match(self) -> bool:
        return self.a is not None and self.a == self.b

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["match"] = self.match
        return data


@dataclass
class ExperimentDiff:
    """Fingerprint-level comparison of two stored experiments."""

    a: ExperimentRow
    b: ExperimentRow
    rows: list[RunDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return bool(self.rows) and all(row.match for row in self.rows)

    @property
    def mismatches(self) -> list[RunDiff]:
        return [row for row in self.rows if not row.match]

    def summary(self) -> str:
        verdict = "IDENTICAL" if self.identical else (
            f"{len(self.mismatches)}/{len(self.rows)} slots differ"
        )
        return (
            f"experiment {self.a.id} ({self.a.name}) vs "
            f"{self.b.id} ({self.b.name}): {verdict}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "identical": self.identical,
            "rows": [row.to_dict() for row in self.rows],
        }


def _stall_dict(stall: Any) -> dict[str, Any]:
    """JSON-friendly stall report (integer node keys become strings)."""
    data = asdict(stall)
    data["node_last_activity"] = {
        str(node): when for node, when in data["node_last_activity"].items()
    }
    return data


class ExperimentStore:
    """Persistent sqlite-backed repository of experiments and runs.

    Usable as a context manager; all writes are serialized behind an
    internal lock so one store object can be shared by several recording
    threads.  Every public method opens one short transaction.

    Args:
        path: sqlite file path (created on first use).  ``":memory:"`` is
            accepted for tests but obviously does not persist.
        create: with ``False``, a path that does not exist yet raises
            :class:`StoreError` instead of materializing an empty store —
            the right mode for read-only consumers (``repro experiments``,
            ``repro serve``, ``inspect store:<id>``), where a fresh file
            would silently mask a typo'd path.
    """

    def __init__(self, path: str, *, create: bool = True) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        if (
            not create
            and self.path != ":memory:"
            and not os.path.exists(self.path)
        ):
            raise StoreError(
                f"experiment store {self.path!r} does not exist "
                "(record one first: repro run/sweep/mine --store PATH)"
            )
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open experiment store {self.path!r}: {error}"
            ) from error
        self._conn.row_factory = sqlite3.Row
        try:
            self._init_schema()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StoreError(f"{self.path!r} is not an experiment store: {error}")

    def _init_schema(self) -> None:
        with self._lock, self._conn as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            tables = {
                row[0] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            if tables and "store_meta" not in tables:
                # A populated sqlite file that is not one of ours: refuse
                # rather than grow experiment tables inside someone else's
                # database.
                raise StoreSchemaError(
                    f"{self.path!r} is an existing sqlite database but not "
                    "an experiment store (no store_meta table)"
                )
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.path!r} has schema version {row['value']}, "
                    f"this version of repro reads {SCHEMA_VERSION}; re-record "
                    "the experiments (the store is a cache of reproducible "
                    "runs, never the only copy)"
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def create_experiment(
        self,
        name: str,
        kind: str,
        config: SimulationConfig | dict[str, Any],
        total_runs: int,
        params: dict[str, Any] | None = None,
    ) -> int:
        """Insert a new ``running`` experiment; returns its id."""
        if isinstance(config, SimulationConfig):
            config = config.to_dict()
        with self._lock, self._conn as conn:
            cursor = conn.execute(
                "INSERT INTO experiments (name, kind, status, created_at, "
                "config_json, params_json, total_runs) VALUES (?,?,?,?,?,?,?)",
                (
                    name, kind, "running", time.time(),
                    _json(config), _json(params or {}), int(total_runs),
                ),
            )
            return int(cursor.lastrowid)

    def record_run(
        self,
        experiment_id: int,
        run_index: int,
        entry: SimulationResult | RunFailure,
        *,
        label: str = "",
        trace_path: str | None = None,
    ) -> int:
        """Insert one completed run (or failure) and bump progress counters.

        The row and the experiment's ``done/failed/stalled`` counters are
        written in one transaction, so concurrent readers (the dashboard's
        polling endpoints) always see consistent progress.
        """
        if isinstance(entry, RunFailure):
            row = self._failure_row(entry)
        else:
            row = self._result_row(entry)
        row.update(
            experiment_id=int(experiment_id),
            run_index=int(run_index),
            label=label,
            trace_path=trace_path,
        )
        columns = sorted(row)
        placeholders = ", ".join("?" for _ in columns)
        failed = 1 if row["status"] == "failed" else 0
        stalled = 1 if row["stalled"] else 0
        with self._lock, self._conn as conn:
            try:
                cursor = conn.execute(
                    f"INSERT INTO runs ({', '.join(columns)}) "
                    f"VALUES ({placeholders})",
                    [row[c] for c in columns],
                )
            except sqlite3.IntegrityError as error:
                raise StoreError(
                    f"run index {run_index} already recorded for "
                    f"experiment {experiment_id}: {error}"
                ) from error
            conn.execute(
                "UPDATE experiments SET done_runs = done_runs + 1, "
                "failed_runs = failed_runs + ?, "
                "stalled_runs = stalled_runs + ? WHERE id = ?",
                (failed, stalled, int(experiment_id)),
            )
            return int(cursor.lastrowid)

    def _result_row(self, result: SimulationResult) -> dict[str, Any]:
        signals = getattr(result, "signals_summary", None)
        return {
            "status": "ok",
            "seed": result.config.seed,
            "protocol": result.config.protocol,
            "config_json": _json(result.config.to_dict()),
            "fingerprint": result_fingerprint(result),
            "terminated": int(result.terminated),
            "stalled": int(result.stalled),
            "latency": result.latency,
            "latency_per_decision": result.latency_per_decision,
            "messages": result.messages,
            "messages_per_decision": result.messages_per_decision,
            "events_processed": result.events_processed,
            "max_view": result.max_view,
            "wall_clock_seconds": result.wall_clock_seconds,
            "fault_counts_json": (
                _json(asdict(result.fault_counts))
                if result.fault_counts.any() else None
            ),
            "stall_json": (
                _json(_stall_dict(result.stall)) if result.stall else None
            ),
            "profile_json": (
                _json(result.profile.to_dict()) if result.profile else None
            ),
            "metrics_json": (
                _json(result.run_metrics.to_dict())
                if result.run_metrics else None
            ),
            "signals_json": _json(signals) if signals else None,
            "failure_json": None,
            "committed_tx_s": (
                result.workload.committed_tx_s if result.workload else None
            ),
            "requests_submitted": (
                result.workload.submitted if result.workload else None
            ),
            "requests_decided": (
                result.workload.decided if result.workload else None
            ),
            "saturated": (
                int(result.workload.saturated) if result.workload else None
            ),
            "workload_json": (
                _json(result.workload.to_dict()) if result.workload else None
            ),
            "health_json": (
                _json(result.health.to_dict()) if result.health else None
            ),
            "anomaly_count": (
                result.health.anomaly_count if result.health else None
            ),
            "min_fairness": (
                result.health.min_fairness if result.health else None
            ),
        }

    def _failure_row(self, failure: RunFailure) -> dict[str, Any]:
        return {
            "status": "failed",
            "seed": failure.config.seed,
            "protocol": failure.config.protocol,
            "config_json": _json(failure.config.to_dict()),
            "fingerprint": None,
            "terminated": None,
            "stalled": 0,
            "latency": None,
            "latency_per_decision": None,
            "messages": None,
            "messages_per_decision": None,
            "events_processed": None,
            "max_view": None,
            "wall_clock_seconds": None,
            "fault_counts_json": None,
            "stall_json": None,
            "profile_json": None,
            "metrics_json": None,
            "signals_json": None,
            "failure_json": _json({
                "kind": failure.kind,
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
                "traceback": failure.traceback,
            }),
            "committed_tx_s": None,
            "requests_submitted": None,
            "requests_decided": None,
            "saturated": None,
            "workload_json": None,
            "health_json": None,
            "anomaly_count": None,
            "min_fairness": None,
        }

    def finish_experiment(
        self, experiment_id: int, status: str | None = None
    ) -> None:
        """Mark an experiment terminal (default: failed iff any run failed)."""
        with self._lock, self._conn as conn:
            if status is None:
                row = conn.execute(
                    "SELECT failed_runs FROM experiments WHERE id = ?",
                    (int(experiment_id),),
                ).fetchone()
                if row is None:
                    raise StoreError(f"no experiment with id {experiment_id}")
                status = "failed" if row["failed_runs"] else "complete"
            if status not in EXPERIMENT_STATUSES:
                raise StoreError(
                    f"unknown experiment status {status!r}; "
                    f"expected one of {EXPERIMENT_STATUSES}"
                )
            conn.execute(
                "UPDATE experiments SET status = ?, finished_at = ? "
                "WHERE id = ?",
                (status, time.time(), int(experiment_id)),
            )

    def set_progress(
        self,
        experiment_id: int,
        done_runs: int,
        total_runs: int | None = None,
    ) -> None:
        """Overwrite an experiment's progress counters directly.

        For batches whose individual runs are not recorded as run rows —
        the mining harness evaluates whole generations internally — but
        whose progress should still be live on the dashboard.
        """
        with self._lock, self._conn as conn:
            if total_runs is None:
                conn.execute(
                    "UPDATE experiments SET done_runs = ? WHERE id = ?",
                    (int(done_runs), int(experiment_id)),
                )
            else:
                conn.execute(
                    "UPDATE experiments SET done_runs = ?, total_runs = ? "
                    "WHERE id = ?",
                    (int(done_runs), int(total_runs), int(experiment_id)),
                )

    def record_artifact(
        self,
        experiment_id: int,
        kind: str,
        *,
        name: str = "",
        path: str | None = None,
        payload: Any = None,
    ) -> int:
        """Attach a named artifact (e.g. a mining winner) to an experiment."""
        with self._lock, self._conn as conn:
            cursor = conn.execute(
                "INSERT INTO artifacts (experiment_id, kind, name, path, "
                "payload_json) VALUES (?,?,?,?,?)",
                (int(experiment_id), kind, name, path, _json(payload)),
            )
            return int(cursor.lastrowid)

    # -- queries -----------------------------------------------------------

    def experiments(self) -> list[ExperimentRow]:
        """Every stored experiment, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM experiments ORDER BY id DESC"
            ).fetchall()
        return [self._experiment_row(row) for row in rows]

    def experiment(self, experiment_id: int) -> ExperimentRow:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM experiments WHERE id = ?", (int(experiment_id),)
            ).fetchone()
        if row is None:
            raise StoreError(f"no experiment with id {experiment_id}")
        return self._experiment_row(row)

    def runs(self, experiment_id: int) -> list[RunRow]:
        """Every recorded run of one experiment, in run-index order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM runs WHERE experiment_id = ? ORDER BY run_index",
                (int(experiment_id),),
            ).fetchall()
        return [self._run_row(row) for row in rows]

    def run(self, run_id: int) -> RunRow:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE id = ?", (int(run_id),)
            ).fetchone()
        if row is None:
            raise StoreError(f"no run with id {run_id}")
        return self._run_row(row)

    def trace_path(self, run_id: int) -> str:
        """The on-disk trace pointer of one run (raises when absent)."""
        path = self.run(run_id).trace_path
        if not path:
            raise StoreError(
                f"run {run_id} recorded no trace pointer; re-run with "
                "--trace-out to capture one"
            )
        return path

    def artifacts(self, experiment_id: int) -> list[ArtifactRow]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM artifacts WHERE experiment_id = ? ORDER BY id",
                (int(experiment_id),),
            ).fetchall()
        return [
            ArtifactRow(
                id=row["id"], experiment_id=row["experiment_id"],
                kind=row["kind"], name=row["name"], path=row["path"],
                payload=_loads(row["payload_json"]),
            )
            for row in rows
        ]

    def diff(self, experiment_a: int, experiment_b: int) -> ExperimentDiff:
        """Fingerprint-compare two experiments slot by slot (run_index)."""
        a = self.experiment(experiment_a)
        b = self.experiment(experiment_b)
        runs_a = {run.run_index: run for run in self.runs(experiment_a)}
        runs_b = {run.run_index: run for run in self.runs(experiment_b)}
        rows = []
        for index in sorted(set(runs_a) | set(runs_b)):
            run_a, run_b = runs_a.get(index), runs_b.get(index)
            rows.append(RunDiff(
                run_index=index,
                a=run_a.fingerprint if run_a else None,
                b=run_b.fingerprint if run_b else None,
                a_latency=run_a.latency_per_decision if run_a else None,
                b_latency=run_b.latency_per_decision if run_b else None,
            ))
        return ExperimentDiff(a=a, b=b, rows=rows)

    def _experiment_row(self, row: sqlite3.Row) -> ExperimentRow:
        return ExperimentRow(
            id=row["id"], name=row["name"], kind=row["kind"],
            status=row["status"], created_at=row["created_at"],
            finished_at=row["finished_at"],
            config=_loads(row["config_json"]) or {},
            params=_loads(row["params_json"]) or {},
            total_runs=row["total_runs"], done_runs=row["done_runs"],
            failed_runs=row["failed_runs"], stalled_runs=row["stalled_runs"],
        )

    def _run_row(self, row: sqlite3.Row) -> RunRow:
        return RunRow(
            id=row["id"], experiment_id=row["experiment_id"],
            run_index=row["run_index"], label=row["label"],
            status=row["status"], seed=row["seed"], protocol=row["protocol"],
            config=_loads(row["config_json"]) or {},
            fingerprint=row["fingerprint"],
            terminated=(
                None if row["terminated"] is None else bool(row["terminated"])
            ),
            stalled=bool(row["stalled"]),
            latency=row["latency"],
            latency_per_decision=row["latency_per_decision"],
            messages=row["messages"],
            messages_per_decision=row["messages_per_decision"],
            events_processed=row["events_processed"],
            max_view=row["max_view"],
            wall_clock_seconds=row["wall_clock_seconds"],
            fault_counts=_loads(row["fault_counts_json"]),
            stall=_loads(row["stall_json"]),
            profile=_loads(row["profile_json"]),
            metrics=_loads(row["metrics_json"]),
            signals=_loads(row["signals_json"]),
            failure=_loads(row["failure_json"]),
            trace_path=row["trace_path"],
            committed_tx_s=row["committed_tx_s"],
            requests_submitted=row["requests_submitted"],
            requests_decided=row["requests_decided"],
            saturated=(
                None if row["saturated"] is None else bool(row["saturated"])
            ),
            workload=_loads(row["workload_json"]),
            health=_loads(row["health_json"]),
            anomaly_count=row["anomaly_count"],
            min_fairness=row["min_fairness"],
        )
