"""The ``service-small`` workload: a closed loop of two clients.

A benchmark-owned server (``server.py``, ``make_server(workers=2)``) runs in
a subprocess over a fresh service root.  Two client threads in this process
each POST a spec, tail its NDJSON event stream to the end, then GET its
results, and only then submit the next one.  Submissions alternate the
registry's ``one-way-ring`` and ``lossy-grid`` scenarios, each with an
``rng_seed`` derived from the workload seed and the submission index, and
all of them go to one server lifetime.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from sims import Outcome, derive_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS = 2
SCENARIOS = ("one-way-ring", "lossy-grid")
#: Submissions per run second (about 1.4 complete per second on a 2-CPU host).
SUBMISSIONS_PER_SECOND = 1.5
#: Server starts timed for ``setup_s``; the last one serves the loop.
SERVER_STARTS = 5


class Server:
    """One launcher subprocess: start, wait until it accepts, stop."""

    def __init__(self, root: str, trace_out: Optional[str] = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "server.py"), "--root", root]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
            status, _ = request(self.port, "GET", "/runs")
            if status != 200:
                raise RuntimeError(f"GET /runs answered {status}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> Dict[str, Any]:
        """Shut the server down; returns its closing report."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


def submission_document(seed: int, index: int) -> Dict[str, Any]:
    """The spec document of submission ``index`` (a pure function of both)."""
    from repro.scenarios.registry import get_scenario

    scenario = get_scenario(SCENARIOS[index % len(SCENARIOS)])
    spec = scenario.to_spec().with_config(
        scenario.config.with_rng_seed(derive_seeds(seed * 1000 + index, 1)[0])
    )
    return spec.to_dict()


def submit_one(port: int, document: Dict[str, Any]) -> Dict[str, Any]:
    """POST, tail the stream to its end, GET results; timings and checks."""
    start = time.perf_counter()
    status, body = request(port, "POST", "/runs", json.dumps(document).encode("utf-8"))
    if status // 100 != 2:
        raise RuntimeError(f"POST /runs answered {status}: {body}")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    first_step = None
    step_events = 0
    try:
        conn.request("GET", body["events_url"])
        resp = conn.getresponse()
        if resp.status // 100 != 2:
            raise RuntimeError(f"GET events answered {resp.status}")
        for raw in resp:
            if not raw.strip():
                continue
            event = json.loads(raw)
            if event["event"] == "step":
                step_events += 1
                if first_step is None:
                    first_step = time.perf_counter()
    finally:
        conn.close()
    status, results = request(port, "GET", body["results_url"])
    end = time.perf_counter()
    if status // 100 != 2:
        raise RuntimeError(f"GET results answered {status}: {results}")
    result = results["result"]
    steps = result["engine_stats"]["steps"]
    problems = []
    if not (result["converged"] and result["protocol_count"] == result["ground_truth"]):
        problems.append(
            f"converged={result['converged']} count={result['protocol_count']} "
            f"truth={result['ground_truth']}"
        )
    # Simulation.run skips on_step for the step that completes convergence;
    # a run that reaches its horizon first streams an event for every step.
    finished = result["converged"] and result["collection_converged"]
    if step_events != steps - (1 if finished else 0):
        problems.append(f"{step_events} step events for {steps} steps (finished={finished})")
    return {
        "result": result,
        "first_event_s": None if first_step is None else first_step - start,
        "time_to_count_s": end - start,
        "step_events": step_events,
        "problems": problems,
    }


def closed_loop(port: int, seed: int, total: int, out: Outcome) -> None:
    """Run ``total`` submissions through ``CLIENTS`` closed-loop clients."""
    lock = threading.Lock()
    next_index = [0]
    done: Dict[int, Dict[str, Any]] = {}

    def client() -> None:
        while True:
            with lock:
                index = next_index[0]
                if index >= total:
                    return
                next_index[0] += 1
            document = submission_document(seed, index)
            try:
                done[index] = submit_one(port, document)
            except Exception as exc:  # a failed submission is counted, not fatal
                done[index] = {"problems": [f"{type(exc).__name__}: {exc}"], "result": None}

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.wall_s = time.perf_counter() - began
    out.attempted = total
    step_events = 0
    for index in range(total):
        row = done[index]
        out.outputs.append(row["result"])
        if index < 2:
            out.digest_outputs.append(row["result"])
        if row["problems"]:
            out.failed += 1
            out.errors.extend(f"submission {index}: {p}" for p in row["problems"])
            continue
        step_events += row["step_events"]
        out.time_to_count_s.append(row["time_to_count_s"])
        out.first_event_s.append(row["first_event_s"])
    out.extra["step_events"] = step_events


def store_check(root: str) -> List[str]:
    """Integrity problems of every run store under the service root."""
    from repro.experiments.store import ResultStore

    problems = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isdir(path):
            report = ResultStore(path).integrity_report()
            if not report.ok:
                problems.append(f"store {name}: {report.describe()}")
    return problems


def run_service_small(
    seed: int, seconds: float, work_dir: str, trace_out: Optional[str] = None
) -> Outcome:
    """One pass of the workload; ``trace_out`` starts a traced server."""
    total = max(4, 2 * round(seconds * SUBMISSIONS_PER_SECOND / 2))
    out = Outcome()
    roots = []
    try:
        starts = 1 if trace_out else SERVER_STARTS
        for attempt in range(starts):
            root = tempfile.mkdtemp(prefix="service-", dir=work_dir)
            roots.append(root)
            server = Server(root, trace_out if attempt == starts - 1 else None)
            out.setup_s.append(server.setup_s)
            if attempt < starts - 1:
                server.stop()
        try:
            closed_loop(server.port, seed, total, out)
        finally:
            report = server.stop()
        problems = store_check(roots[-1])
        if problems:
            out.failed += 1
            out.errors.extend(problems)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    out.peak_rss_mb = report["peak_rss_mb"]
    out.extra["server"] = report
    out.counts = report.get("trace", {}).get("counts", {})
    return out
