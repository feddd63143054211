"""Job execution for the simulation service: the :class:`JobManager`.

The manager owns a bounded FIFO queue of submitted experiment specs and a
fixed pool of worker threads (default ``min(4, cpu_count)``) that execute
them through the ordinary ``spec.run()`` facade — one run per worker at a
time, each persisting into its own :class:`~repro.experiments.store.ResultStore`
directory under the service root.  Nothing about execution is
service-specific: a served run's stored results are bit-for-bit identical
to an in-process ``spec.run()`` of the same spec, because the only
observers the service injects (telemetry and cancellation) are observers —
and observed runs are bit-identical to unobserved ones by the protocol's
contract.

Run ids are **deterministic**: ``<config-hash-prefix>-<submission counter>``
— the spec's existing SHA-256 config hash (so the id names *what* runs) and
a monotonic counter (so resubmitting the same spec gets a distinct id and
store).  A manager started on an existing root continues the counter after
the highest run directory already there, so ids stay unique across
restarts.  No wall clock, no uuid: the service layer obeys
the same reprolint D1/D2 determinism rules as the core.

Run lifecycle::

    queued --> running --> converged     (terminal: completed and converged)
         \\          \\--> failed        (terminal: raised, or missed horizon)
          \\          \\-> cancelled     (terminal: DELETE /runs/{id})
           \\--> cancelled               (dequeued before starting)

Cancellation is cooperative and observer-shaped: ``cancel()`` sets the
job's token, and the injected :class:`CancellationObserver` (an
:class:`~repro.experiments.observers.EarlyStopObserver`) stops the run at
the next step / finished sweep cell.  A cancelled single run records
nothing (early-stopped results are never canonical); a cancelled sweep
keeps every completed cell, so the store resumes cleanly.
"""

from __future__ import annotations

import os
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from ..experiments.observers import EarlyStopObserver
from ..experiments.spec import ExperimentSpec
from ..experiments.store import ResultStore, config_hash
from ..sim.results import RunResult, SweepCell, SweepResult
from .events import EventLog, ServiceEventObserver

__all__ = [
    "RUN_STATUSES",
    "STATUS_FORMAT",
    "CancellationObserver",
    "JobManager",
    "JobRecord",
    "QueueFullError",
    "UnknownRunError",
]

#: Schema tag of the status documents :meth:`JobManager.status` produces.
STATUS_FORMAT = "repro-service-run/1"

#: Every state a run can report, in lifecycle order.
RUN_STATUSES = ("queued", "running", "converged", "failed", "cancelled")

_TERMINAL = frozenset({"converged", "failed", "cancelled"})


class QueueFullError(ExperimentError):
    """The bounded submission queue is full (HTTP 429 at the transport)."""


class UnknownRunError(ExperimentError):
    """No run with the requested id exists (HTTP 404 at the transport)."""


class CancellationObserver(EarlyStopObserver):
    """Early-stop observer firing when a job's cancel token is set.

    Steps stop via the base class's predicate; sweeps additionally stop at
    the next completed cell (the base class only counts ``max_cells``).
    Completed cells are still recorded by the store's essential cell
    recorder, so cancellation always leaves a resumable store.
    """

    def __init__(self, token: threading.Event) -> None:
        super().__init__(predicate=lambda _sim: token.is_set())
        self.token = token

    def on_cell_done(self, cell: "SweepCell", index: int, total: int) -> bool:
        return self.token.is_set()


@dataclass
class JobRecord:
    """One submitted run: its spec, identity, live state and event log."""

    run_id: str
    spec: ExperimentSpec
    store_root: Path
    submitted: int  # 0-based submission counter value
    status: str = "queued"
    error: Optional[str] = None
    events: EventLog = field(init=False)
    cancel_token: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)
    #: Live counters maintained by the run's ServiceEventObserver.
    progress: Dict[str, Any] = field(default_factory=dict)
    #: Small result summary, set on completion (full record: /results).
    summary: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.events = EventLog(self.run_id)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL


def _default_workers() -> int:
    return min(4, os.cpu_count() or 1)


#: A run's store directory name: config-hash prefix and submission counter.
_RUN_DIR = re.compile(r"[0-9a-f]{12}-([0-9]{4,})")


def _next_counter(root: Path) -> int:
    """The first submission counter no run directory under ``root`` uses.

    A manager restarted on an existing root continues after the runs an
    earlier manager stored there, so no new run reuses an id or a store
    directory.  Names that are not run directories are ignored.
    """
    next_counter = 0
    for entry in sorted(root.iterdir()):
        match = _RUN_DIR.fullmatch(entry.name)
        if match is not None and entry.is_dir():
            next_counter = max(next_counter, int(match.group(1)) + 1)
    return next_counter


class JobManager:
    """Bounded-queue, worker-pool executor of experiment specs.

    Parameters
    ----------
    root:
        Service root directory; every run persists into ``root/<run_id>``.
    workers:
        Worker threads (concurrent runs).  Default ``min(4, cpu_count)``.
    queue_limit:
        Maximum *queued* (not yet running) submissions; the next submit
        raises :class:`QueueFullError` (HTTP 429).
    """

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        *,
        workers: Optional[int] = None,
        queue_limit: int = 16,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExperimentError("workers must be at least 1")
        if queue_limit < 1:
            raise ExperimentError("queue_limit must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue_limit = queue_limit
        self.workers = workers if workers is not None else _default_workers()
        self._lock = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._queue: Deque[JobRecord] = deque()
        self._counter = _next_counter(self.root)
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -------------------------------------------------------------- identity
    def _next_run_id(self, spec: ExperimentSpec) -> str:
        """Deterministic id: config-hash prefix + submission counter.

        The hash prefix names *what* runs (two submissions of the same spec
        share it); the counter makes every submission's id — and therefore
        its store directory — distinct.  12 hex digits of SHA-256 cannot
        collide across the specs one service instance will ever see, and
        the counter disambiguates even if they did.
        """
        digest = config_hash(spec).split(":", 1)[1]
        run_id = f"{digest[:12]}-{self._counter:04d}"
        self._counter += 1
        return run_id

    # ------------------------------------------------------------ submission
    def submit(self, spec: ExperimentSpec) -> JobRecord:
        """Queue one spec; returns its :class:`JobRecord` (status queued)."""
        with self._lock:
            if self._shutdown:
                raise ExperimentError("job manager is shut down")
            if len(self._queue) >= self.queue_limit:
                raise QueueFullError(
                    f"submission queue is full ({self.queue_limit} queued "
                    "run(s)); retry after a run finishes"
                )
            run_id = self._next_run_id(spec)
            record = JobRecord(
                run_id=run_id,
                spec=spec,
                store_root=self.root / run_id,
                submitted=self._counter - 1,
            )
            self._jobs[run_id] = record
            self._order.append(run_id)
            self._queue.append(record)
            self._lock.notify()
        return record

    def submit_document(self, document: Dict[str, Any]) -> JobRecord:
        """Validate and queue a raw spec document (the POST /runs body).

        Validation is the spec ``save``/``load`` round-trip machinery:
        :meth:`ExperimentSpec.from_dict` rejects unknown formats and missing
        sections with an :class:`~repro.errors.ExperimentError`.
        """
        return self.submit(ExperimentSpec.from_dict(document))

    # --------------------------------------------------------------- lookup
    def get(self, run_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(run_id)
        if record is None:
            raise UnknownRunError(f"no run {run_id!r}")
        return record

    def run_ids(self) -> List[str]:
        """All known run ids, in submission order."""
        with self._lock:
            return list(self._order)

    def _queue_position(self, record: JobRecord) -> Optional[int]:
        with self._lock:
            for position, queued in enumerate(self._queue):
                if queued is record:
                    return position
        return None

    # --------------------------------------------------------------- status
    def status(self, run_id: str) -> Dict[str, Any]:
        """The run's status document (schema ``repro-service-run/1``)."""
        record = self.get(run_id)
        progress = dict(record.progress)
        sweep: Optional[Dict[str, Any]] = None
        if record.spec.is_sweep:
            sweep = {
                "cells_done": progress.get("cells_done", 0),
                "cells_total": progress.get("cells_total"),
                "health": progress.get("health"),
            }
        return {
            "format": STATUS_FORMAT,
            "run_id": record.run_id,
            "status": record.status,
            "spec_name": record.spec.name,
            "config_hash": config_hash(record.spec),
            "submitted": record.submitted,
            "store": str(record.store_root),
            "queue_position": (
                self._queue_position(record) if record.status == "queued" else None
            ),
            "steps": progress.get("steps", 0),
            "simulated_s": progress.get("simulated_s", 0.0),
            "count": progress.get("count"),
            "converged_time_s": progress.get("converged_time_s"),
            "events": len(record.events),
            "error": record.error,
            "sweep": sweep,
            "summary": record.summary,
        }

    def results(self, run_id: str) -> Dict[str, Any]:
        """The stored result record of a finished run.

        Raises :class:`~repro.errors.ExperimentError` when the store holds
        no complete result yet (still running, cancelled single run, or a
        cancelled sweep that was never resumed) — HTTP 409 at the
        transport.
        """
        record = self.get(run_id)
        store = ResultStore(record.store_root)
        if not store.exists():
            raise ExperimentError(
                f"run {run_id} has no stored results yet (status: {record.status})"
            )
        result = store.load_result()
        if isinstance(result, RunResult):
            payload: Dict[str, Any] = {"kind": "single", "result": result.as_dict()}
        else:
            payload = {"kind": "sweep", "result": _sweep_as_dict(result)}
        payload.update(
            {
                "format": "repro-service-result/1",
                "run_id": run_id,
                "status": record.status,
            }
        )
        return payload

    # --------------------------------------------------------- cancellation
    def cancel(self, run_id: str) -> Dict[str, Any]:
        """Cancel a run; idempotent.  Returns the post-cancel status.

        Queued runs are dequeued and finalized immediately; running runs
        get their token set and stop at the next step / finished cell
        (within one engine step — well inside any human deadline).
        Terminal runs are left untouched.
        """
        record = self.get(run_id)
        with self._lock:
            if record.status == "queued":
                try:
                    self._queue.remove(record)
                except ValueError:
                    pass  # a worker claimed it concurrently; fall through
                else:
                    self._finalize_locked(record, "cancelled", None)
                    return self.status(run_id)
        record.cancel_token.set()
        return self.status(run_id)

    # ------------------------------------------------------------ lifecycle
    def wait(self, run_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the run is terminal; True unless the wait timed out."""
        record = self.get(run_id)
        return record.done.wait(timeout)

    def shutdown(self, *, cancel_running: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work, cancel what remains, and join the workers."""
        with self._lock:
            self._shutdown = True
            pending = list(self._queue)
            self._queue.clear()
            for record in pending:
                self._finalize_locked(record, "cancelled", None)
            self._lock.notify_all()
        if cancel_running:
            with self._lock:
                records = list(self._jobs.values())
            for record in records:
                if not record.terminal:
                    record.cancel_token.set()
        for thread in self._threads:
            thread.join(timeout)

    # ------------------------------------------------------------ execution
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._lock.wait()
                if not self._queue:
                    return  # shut down with an empty queue
                record = self._queue.popleft()
                record.status = "running"
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        observers = [
            ServiceEventObserver(record.events, progress=record.progress),
            CancellationObserver(record.cancel_token),
        ]
        store = ResultStore(record.store_root)
        try:
            result = record.spec.run(store=store, observers=observers)
        except Exception as exc:  # a failed run must not kill its worker
            self._finalize(record, "failed", f"{type(exc).__name__}: {exc}")
            return
        if record.cancel_token.is_set():
            self._finalize(record, "cancelled", None, result=result)
            return
        if isinstance(result, RunResult):
            if result.converged:
                self._finalize(record, "converged", None, result=result)
            else:
                self._finalize(
                    record,
                    "failed",
                    "did not converge within the configured horizon",
                    result=result,
                )
            return
        health_ok = result.health is None or result.health.ok
        if not health_ok:
            failed = len(result.health.failed_cells) if result.health else 0
            self._finalize(
                record, "failed", f"{failed} sweep cell(s) exhausted retries",
                result=result,
            )
        elif not result.all_converged:
            self._finalize(
                record, "failed", "one or more sweep runs missed the horizon",
                result=result,
            )
        else:
            self._finalize(record, "converged", None, result=result)

    def _finalize(
        self,
        record: JobRecord,
        status: str,
        error: Optional[str],
        *,
        result: Union[RunResult, SweepResult, None] = None,
    ) -> None:
        with self._lock:
            self._finalize_locked(record, status, error, result=result)

    def _finalize_locked(
        self,
        record: JobRecord,
        status: str,
        error: Optional[str],
        *,
        result: Union[RunResult, SweepResult, None] = None,
    ) -> None:
        record.status = status
        record.error = error
        if isinstance(result, RunResult):
            record.summary = {
                "kind": "single",
                "ground_truth": result.ground_truth,
                "protocol_count": result.protocol_count,
                "is_exact": result.is_exact,
                "converged": result.converged,
                "simulated_s": result.simulated_s,
            }
        elif isinstance(result, SweepResult):
            record.summary = {
                "kind": "sweep",
                "cells": len(result.cells),
                "all_exact": result.all_exact,
                "all_converged": result.all_converged,
            }
        record.events.close()
        record.done.set()


def _sweep_as_dict(sweep: SweepResult) -> Dict[str, Any]:
    """JSON-ready sweep record (cells with their per-replication runs)."""
    out: Dict[str, Any] = {
        "name": sweep.name,
        "cells": [
            {
                "volume": cell.volume_fraction,
                "seeds": cell.num_seeds,
                "runs": [run.as_dict() for run in cell.runs],
            }
            for cell in sweep.cells
        ],
    }
    if sweep.health is not None:
        out["health"] = sweep.health.as_dict()
    return out
