"""Benchmark-owned launcher for the simulation service.

Usage (started by ``service_small.py``, one server per process)::

    python3 perfbench/server.py --root DIR [--trace-out FILE]

Starts ``repro.service.make_server(DIR, workers=2)`` on a free port, prints
``READY <port>`` and serves until a ``stop`` line (or end of input) arrives
on standard input.  It then shuts the server down and prints one JSON
report: peak RSS, the host time between consecutive ``on_step`` calls of
every run (measured, and scaled to the reference host speed by
calibrations timed in the run's worker thread, see ``hostspeed.py``),
events still resident in the job table, and — with
``--trace-out`` — the per-layer figures of the spans it recorded around the
service, experiment and simulation layers (written to FILE as well).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.experiments.store import ResultStore  # noqa: E402
from repro.service import EventLog, JobManager, ServiceAPI, ServiceEventObserver, make_server  # noqa: E402

from hostspeed import calibrate, scale_gaps  # noqa: E402
from sims import add_counts, sim_counters  # noqa: E402
from tracing import Recorder, instrument_simulation  # noqa: E402

#: Steps of one run between two host-speed calibrations (about 25 ms).
CALIBRATE_EVERY = 200


class RunClock:
    """The step gaps of one run and the calibrations taken between them.

    Calibrations are timed in the worker's thread CPU time, so a wait for
    the interpreter lock held by the other worker does not enter them; the
    calibration's own time is left out of the gaps.
    """

    def __init__(self) -> None:
        self.gaps: List[float] = []
        self.marks = [(0, calibrate(time.thread_time))]
        self.resumed = time.perf_counter()

    def on_step(self) -> None:
        self.gaps.append(time.perf_counter() - self.resumed)
        if len(self.gaps) % CALIBRATE_EVERY == 0:
            self.marks.append((len(self.gaps), calibrate(time.thread_time)))
        self.resumed = time.perf_counter()


def _time_steps(clocks: List[RunClock]) -> None:
    """Stamp every ``on_step`` call with the clock of its run."""
    original = ServiceEventObserver.on_step

    def on_step(self: ServiceEventObserver, sim: Any, step_index: int) -> None:
        original(self, sim, step_index)
        clock = getattr(self, "_bench_clock", None)
        if clock is None:
            clock = self._bench_clock = RunClock()  # type: ignore[attr-defined]
            clocks.append(clock)
        else:
            clock.on_step()

    ServiceEventObserver.on_step = on_step  # type: ignore[method-assign]


def step_report(clocks: List[RunClock]) -> Dict[str, Any]:
    """Percentiles of every run's measured and scaled gaps, and their sums."""
    raw: List[float] = []
    scaled: List[float] = []
    for clock in clocks:
        raw.extend(clock.gaps)
        scaled.extend(scale_gaps(clock.gaps, clock.marks))
    if not raw:
        return {"step_gaps": 0}
    return {
        "step_gaps": len(raw),
        "step_ms_p50": float(np.percentile(raw, 50)) * 1e3,
        "step_ms_p90": float(np.percentile(raw, 90)) * 1e3,
        "scaled_step_ms_p50": float(np.percentile(scaled, 50)) * 1e3,
        "scaled_step_ms_p90": float(np.percentile(scaled, 90)) * 1e3,
        # The loop's steps per second are scaled by the ratio of these sums
        # after the calibrations' time is taken out of the loop.
        "gaps_s": sum(raw),
        "scaled_gaps_s": sum(scaled),
        "calibration_s": sum(s for clock in clocks for _, s in clock.marks),
    }


def _trace(rec: Recorder, queue_wait_s: List[float], counts: Dict[str, float]) -> None:
    """Wrap the service's public layer calls (class level: one server process)."""
    submitted: Dict[int, float] = {}
    submit = JobManager.submit

    def submit_and_stamp(self: JobManager, spec: ExperimentSpec) -> Any:
        # Stamped before the call: a free worker may start the run before
        # submit returns.
        submitted[id(spec)] = time.perf_counter()
        return submit(self, spec)

    JobManager.submit = submit_and_stamp  # type: ignore[method-assign]
    rec.patch(ServiceAPI, "submit", "service.submit")
    rec.patch(ExperimentSpec, "run", "experiments.spec_run")
    spec_run = ExperimentSpec.run

    def run_and_wait(self: ExperimentSpec, *args: Any, **kwargs: Any) -> Any:
        stamped = submitted.pop(id(self), None)
        if stamped is not None:
            queue_wait_s.append(time.perf_counter() - stamped)
        rec.set_op(id(self))
        return spec_run(self, *args, **kwargs)

    ExperimentSpec.run = run_and_wait  # type: ignore[method-assign]
    rec.patch(ResultStore, "record_run", "experiments.store.record", "tally")
    rec.patch(EventLog, "append", "service.event_append", "tally")
    rec.patch(ServiceEventObserver, "on_step", "service.on_step", "tally")
    start_hook = ServiceEventObserver.on_run_start

    def on_run_start(self: ServiceEventObserver, sim: Any) -> None:
        instrument_simulation(rec, sim)
        rec.phase = "step"
        start_hook(self, sim)

    ServiceEventObserver.on_run_start = on_run_start  # type: ignore[method-assign]
    end_hook = ServiceEventObserver.on_run_end
    lock = threading.Lock()

    def on_run_end(self: ServiceEventObserver, sim: Any, result: Any) -> None:
        with lock:
            add_counts(counts, sim_counters(sim))
        end_hook(self, sim, result)

    ServiceEventObserver.on_run_end = on_run_end  # type: ignore[method-assign]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    clocks: List[RunClock] = []
    queue_wait_s: List[float] = []
    counts: Dict[str, float] = {}
    rec = Recorder() if args.trace_out else None
    if rec is not None:
        _trace(rec, queue_wait_s, counts)
    _time_steps(clocks)

    server = make_server(args.root, workers=2)
    thread = threading.Thread(target=server.serve_forever, name="bench-server")
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    manager = server.manager
    resident = sum(len(manager.get(run_id).events.snapshot()) for run_id in manager.run_ids())
    server.shutdown()
    thread.join(timeout=30)
    server.server_close()
    manager.shutdown()

    report: Dict[str, Any] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "resident_events": resident,
        **step_report(clocks),
    }
    if rec is not None:
        report["trace"] = {
            "spans": rec.span_totals(),
            "tallies": [[n, p, c, s] for (n, p), (c, s) in rec.tallies().items()],
            "queue_wait_s": queue_wait_s,
            "counts": counts,
        }
        rec.dump(args.trace_out, {"process": "server"})
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
