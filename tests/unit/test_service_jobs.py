"""JobManager and event-log unit tests for the simulation service.

Covers the service's executable contracts: deterministic run ids, queue
overflow (429 at the transport), cancellation leaving a resumable store,
concurrent same-spec submissions staying bit-identical, exact NDJSON
replay of the observer sequence, and the essential-observer bargain (a
raising client sink is dropped without killing the run).
"""

import json
import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentSpec, NetworkSpec, ResultStore
from repro.experiments.store import config_hash
from repro.mobility.demand import DemandConfig
from repro.service import (
    EVENT_FORMAT,
    CancellationObserver,
    EventLog,
    JobManager,
    QueueFullError,
    ServiceEventObserver,
    UnknownRunError,
)
from repro.sim.config import ScenarioConfig
from repro.sim.runner import SweepSpec


def _spec(name="svc-test", seed=3, volume=0.6, settle_extra_s=0.0):
    return ExperimentSpec(
        network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
        config=ScenarioConfig(
            name=name,
            rng_seed=seed,
            demand=DemandConfig(volume_fraction=volume),
            settle_extra_s=settle_extra_s,
        ),
    )


def _sweep_spec(name="svc-sweep"):
    return _spec(name=name).with_sweep(
        SweepSpec(volumes=(0.4, 0.6), seed_counts=(1,), replications=1)
    )


#: A single run that converges quickly but then keeps settling for (a
#: simulated) hour — effectively runs until cancelled, step by step.
def _long_spec(name="svc-long"):
    return _spec(name=name, settle_extra_s=3600.0)


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(tmp_path / "service", workers=2, queue_limit=4)
    yield mgr
    mgr.shutdown()


# ------------------------------------------------------------ event log
class TestEventLog:
    def test_append_sequences_and_replays(self):
        log = EventLog("r-0001")
        log.append("run_start", {"a": 1})
        log.append("step", {"b": 2})
        log.close()
        events = list(log.iter_events())  # closed log: iteration terminates
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["event"] for e in events] == ["run_start", "step"]
        assert all(e["format"] == EVENT_FORMAT for e in events)
        assert all(e["run_id"] == "r-0001" for e in events)

    def test_wait_beyond_times_out_and_wakes(self):
        log = EventLog("r")
        assert not log.wait_beyond(0, timeout=0.01)
        log.append("step", {})
        assert log.wait_beyond(0, timeout=0.01)
        assert not log.wait_beyond(1, timeout=0.01)
        log.close()
        assert log.wait_beyond(1, timeout=0.01)  # closed always wakes

    def test_raising_sink_is_dropped_run_continues(self):
        # Satellite 2: a raising *client* sink must not kill the run — it
        # is dropped with a warning and subsequent events still append.
        log = EventLog("r")
        seen = []

        def bad_sink(event):
            raise RuntimeError("client bug")

        log.add_sink(bad_sink)
        log.add_sink(seen.append)
        with pytest.warns(UserWarning, match="dropping this sink"):
            log.append("step", {"i": 0})
        log.append("step", {"i": 1})  # bad sink gone: no warning, no raise
        assert [e["data"]["i"] for e in seen] == [0, 1]
        assert len(log) == 2

    def test_observer_is_marked_essential(self):
        # The generic disable-on-raise guard must never mute telemetry.
        assert ServiceEventObserver._repro_observer_essential is True

    def test_slow_reader_never_blocks_writer(self):
        # Readers pull; a reader that never consumes costs the writer
        # nothing (appends stay non-blocking).
        log = EventLog("r")
        for i in range(1000):
            log.append("step", {"i": i})
        assert len(log) == 1000  # no reader ever attached
        assert log.events_from(990)[0]["data"]["i"] == 990


# ------------------------------------------------------------ lifecycle
class TestJobLifecycle:
    def test_run_to_convergence_and_status(self, manager):
        record = manager.submit(_spec())
        assert manager.wait(record.run_id, timeout=60)
        status = manager.status(record.run_id)
        assert status["format"] == "repro-service-run/1"
        assert status["status"] == "converged"
        assert status["steps"] > 0 and status["count"] is not None
        assert status["converged_time_s"] is not None
        assert status["queue_position"] is None
        assert status["summary"]["is_exact"] is True
        results = manager.results(record.run_id)
        assert results["format"] == "repro-service-result/1"
        assert results["kind"] == "single"
        assert results["result"]["converged"] is True

    def test_deterministic_run_ids(self, tmp_path):
        spec = _spec()
        digest = config_hash(spec).split(":", 1)[1]
        mgr = JobManager(tmp_path / "a", workers=1, queue_limit=8)
        try:
            ids = [mgr.submit(spec).run_id for _ in range(3)]
        finally:
            mgr.shutdown()
        assert ids == [f"{digest[:12]}-{i:04d}" for i in range(3)]
        # a fresh manager over a fresh root restarts the counter: same ids
        mgr2 = JobManager(tmp_path / "b", workers=1, queue_limit=8)
        try:
            assert mgr2.submit(spec).run_id == ids[0]
        finally:
            mgr2.shutdown()

    def test_restarted_manager_gets_fresh_id_and_store(self, tmp_path):
        root = tmp_path / "svc"
        (root / "notes").mkdir(parents=True)  # not a run directory: ignored
        spec = _spec()
        first = JobManager(root, workers=1, queue_limit=2)
        try:
            before = first.submit(spec)
            assert first.wait(before.run_id, timeout=60)
        finally:
            first.shutdown()
        stored = sorted(p.name for p in before.store_root.rglob("*"))
        restarted = JobManager(root, workers=1, queue_limit=2)
        try:
            after = restarted.submit(spec)
            assert restarted.wait(after.run_id, timeout=60)
        finally:
            restarted.shutdown()
        assert before.run_id.endswith("-0000")
        assert after.run_id == before.run_id[:-4] + "0001"
        assert after.store_root != before.store_root
        assert sorted(p.name for p in before.store_root.rglob("*")) == stored

    def test_unknown_run_raises(self, manager):
        with pytest.raises(UnknownRunError):
            manager.status("nope-0000")
        with pytest.raises(UnknownRunError):
            manager.cancel("nope-0000")

    def test_results_before_completion_is_conflict(self, manager):
        record = manager.submit(_long_spec())
        try:
            with pytest.raises(ExperimentError, match="no stored results|no run record"):
                manager.results(record.run_id)
        finally:
            manager.cancel(record.run_id)
            assert manager.wait(record.run_id, timeout=30)

    def test_event_stream_replays_observer_sequence_exactly(self, manager):
        # The NDJSON stream IS the observer sequence: one run_start, one
        # step per observed engine step (the final settled step breaks the
        # loop before its on_step), one converged, one run_end — in order,
        # contiguously sequenced.
        record = manager.submit(_spec())
        assert manager.wait(record.run_id, timeout=60)
        events = list(record.events.iter_events())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("converged") == 1
        steps = [e for e in events if e["event"] == "step"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        result = manager.results(record.run_id)["result"]
        assert len(steps) == result["engine_stats"]["steps"] - 1
        assert steps[-1]["data"]["count"] == result["protocol_count"]
        # and a late reader replays the identical sequence
        assert list(record.events.iter_events()) == events

    def test_queue_overflow_raises_queue_full(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", workers=1, queue_limit=2)
        try:
            blocker = mgr.submit(_long_spec())  # occupies the one worker
            assert blocker.events.wait_beyond(0, timeout=30)  # worker claimed it
            held = [mgr.submit(_spec(seed=s)) for s in (11, 12)]  # fills queue
            with pytest.raises(QueueFullError, match="queue is full"):
                mgr.submit(_spec(seed=13))
            # cancelling a queued run frees a slot immediately
            assert mgr.cancel(held[0].run_id)["status"] == "cancelled"
            mgr.submit(_spec(seed=13))
        finally:
            mgr.cancel(blocker.run_id)
            mgr.shutdown()

    def test_cancel_running_single_leaves_resumable_store(self, manager):
        record = manager.submit(_long_spec())
        # wait until it is actually stepping, then cancel
        assert record.events.wait_beyond(5, timeout=30)
        manager.cancel(record.run_id)
        assert manager.wait(record.run_id, timeout=30)
        status = manager.status(record.run_id)
        assert status["status"] == "cancelled"
        # early-stopped single runs record nothing: the store is resumable
        # (a re-run starts clean) and results are a 409-shaped conflict
        store = ResultStore(record.store_root)
        assert store.records() == {}
        assert store.integrity_report().ok
        with pytest.raises(ExperimentError, match="no stored results|no run record"):
            manager.results(record.run_id)

    def test_cancel_mid_sweep_keeps_completed_cells(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", workers=1, queue_limit=4)
        try:
            spec = _sweep_spec()
            record = mgr.submit(spec)
            # cancel from an event sink the moment the first cell finishes:
            # deterministic mid-sweep cancellation with no timing games
            def cancel_after_first_cell(event):
                if event["event"] == "cell_done":
                    mgr.cancel(record.run_id)

            record.events.add_sink(cancel_after_first_cell)
            assert mgr.wait(record.run_id, timeout=120)
            assert mgr.status(record.run_id)["status"] == "cancelled"
            store = ResultStore(record.store_root)
            assert len(store.records()) == 1  # exactly the completed cell
            assert store.integrity_report().ok
            # resuming the same spec over the same store completes the sweep
            result = spec.run(store=ResultStore(record.store_root), resume=True)
            assert len(result.cells) == 2 and result.all_converged
        finally:
            mgr.shutdown()

    def test_concurrent_same_spec_distinct_ids_identical_results(self, manager):
        spec = _spec()
        records = [manager.submit(spec) for _ in range(3)]
        assert len({r.run_id for r in records}) == 3
        for record in records:
            assert manager.wait(record.run_id, timeout=60)
        baseline = spec.run().as_dict()
        for record in records:
            payload = manager.results(record.run_id)
            assert payload["kind"] == "single"
            assert payload["result"] == baseline  # bit-for-bit

    def test_submit_document_validates(self, manager):
        with pytest.raises(ExperimentError):
            manager.submit_document({"format": "bogus/9"})
        record = manager.submit_document(_spec().to_dict())
        assert manager.wait(record.run_id, timeout=60)
        assert manager.status(record.run_id)["status"] == "converged"

    def test_failed_run_reports_error(self, tmp_path, manager):
        # A spec that cannot even build its network fails the run, not the
        # worker: the manager reports failed with the exception message.
        document = _spec().to_dict()
        document["network"]["builder"] = "grid"
        document["network"]["args"] = [0, 0]  # invalid size
        record = manager.submit_document(document)
        assert manager.wait(record.run_id, timeout=30)
        status = manager.status(record.run_id)
        assert status["status"] == "failed" and status["error"]
        # the worker survived: the next run still executes
        after = manager.submit(_spec())
        assert manager.wait(after.run_id, timeout=60)
        assert manager.status(after.run_id)["status"] == "converged"

    def test_shutdown_cancels_queued_and_running(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", workers=1, queue_limit=4)
        running = mgr.submit(_long_spec())
        queued = mgr.submit(_spec(seed=9))
        mgr.shutdown()
        assert mgr.status(running.run_id)["status"] == "cancelled"
        assert mgr.status(queued.run_id)["status"] == "cancelled"
        with pytest.raises(ExperimentError, match="shut down"):
            mgr.submit(_spec())

    def test_validation(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            JobManager(tmp_path / "a", workers=0)
        with pytest.raises(ExperimentError, match="queue_limit"):
            JobManager(tmp_path / "b", queue_limit=0)


# ------------------------------------------------- cancellation observer
class TestCancellationObserver:
    def test_stops_on_token(self):
        token = threading.Event()
        obs = CancellationObserver(token)
        assert obs.on_step(None, 0) is False
        token.set()
        assert obs.on_step(None, 1) is True
        assert obs.on_cell_done(None, 0, 2) is True

    def test_status_document_is_json_ready(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", workers=1, queue_limit=2)
        try:
            record = mgr.submit(_sweep_spec())
            assert mgr.wait(record.run_id, timeout=120)
            status = mgr.status(record.run_id)
            parsed = json.loads(json.dumps(status, sort_keys=True))
            assert parsed["sweep"]["cells_done"] == 2
            assert parsed["sweep"]["cells_total"] == 2
            assert parsed["summary"]["kind"] == "sweep"
        finally:
            mgr.shutdown()
