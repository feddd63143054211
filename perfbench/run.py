"""The repository's benchmark: one workload per call, metrics on stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload midtown-open --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the same inputs twice, untraced and then traced, checks that both
produce the same outputs, and prints the per-layer metrics with the tracing
overhead; the spans go to ``perfbench/out/``.  Every line but the last is
for people; the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any correctness check
failed and 2 when the program cannot be found.

Workloads (the reasons are also in ``BENCHMARK.json``):

``midtown-open``
    The paper's midtown network with open border gates (Alg. 5), patrol
    and collection, run to an exact count for several scenario seeds back
    to back.  Exercises border arrivals and ``spawn``, irregular protocol
    flushes, wireless draws and the convergence monitor, and mobility's
    fixed cost per step at a small fleet.
``city-25k``
    ``synthetic_city(2, 18, seed=0)`` (4,944 edges) with 25,000 vehicles at
    the default demand mix, closed, for a fixed number of steps.  Exercises
    ``mobility.step_batch`` at scale (intersections, gather rebuilds) and
    routing in set-up; bypasses the border and the irregular-event paths.
``service-small``
    Two closed-loop clients against a ``make_server(workers=2)`` subprocess,
    alternating ``one-way-ring`` and ``lossy-grid`` submissions.  Exercises
    spec parsing, the job queue and workers, one service event per step,
    the NDJSON stream and the store writes; the engine work is small.

End-to-end metrics, reported for every workload:

``setup_s``            median set-up: network, ``Simulation(...)`` and
                       ``populate()``; for service-small, server start until
                       it answers ``GET /runs``.
``steps_per_s``        engine steps per host second over the stepped part;
                       service-small: streamed step events per second of
                       the closed loop.
``step_ms_p50/_p90``   host time between consecutive ``on_step`` calls
                       (service-small: inside the server, every run).
``peak_rss_mb``        peak RSS of the process that runs the engine
                       (service-small: the server).

The step timings are scaled to a reference host speed by a calibration
timed next to them (``hostspeed.py``); the measured values are printed
beside them.  For service-small the calibration runs in the server's worker
threads between steps and is timed in thread CPU time, so the other
worker's hold on the interpreter lock does not enter it; the closed loop's
time, less the calibrations, is scaled by the ratio of the scaled to the
measured step gaps.  A calibration timed in the client, between rounds of
submissions, did not track the server and left the spread as wide.

Printed on the lines above the JSON, not gated: ``first_event_ms_p50``
(from the start of an operation — set-up start, or the POST — to its first
step event), ``time_to_count_s_p50`` (to the operation's final count and,
for service-small, its fetched results), ``runs_per_s`` and ``error_rate``.
An operation is one seeded run, one city run or one submission.  These
depend on the seed mix (convergence takes 3.4k to 10k+ steps) or, for
city-25k, repeat ``setup_s``, so they are too unsteady to gate.  A p90 of a
per-operation figure is printed only when at least ten samples lie beyond
it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("midtown-open", "city-25k", "service-small")
#: The seed whose deterministic outputs are pinned in ``digests.json``.
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def digest(outputs: List[Any]) -> str:
    text = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    import numpy as np
    from repro.mobility import kernels
    from repro.sim.config import MobilityConfig

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
        git = described.stdout.strip() if described.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        git = "git unavailable"
    return {
        "git_describe": git,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backends": kernels.available_backends(),
        # Every workload runs its scenario's default MobilityConfig.
        "compiled": MobilityConfig().compiled,
        "workload": workload,
        "seed": seed,
    }


def end_to_end(workload: str, out: Any, scaled: bool = True) -> Tuple[Dict[str, float], int]:
    """The gated metrics and the number of step samples behind them.

    The step timings are scaled to the reference host speed unless
    ``scaled`` is false (see hostspeed.py).
    """
    if workload == "service-small":
        server = out.extra["server"]
        loop_s = out.wall_s
        if scaled:
            # Both workers wait while one holds the lock for a calibration.
            loop_s -= server["calibration_s"]
            loop_s *= server["scaled_gaps_s"] / server["gaps_s"]
        steps_per_s = out.extra["step_events"] / loop_s
        prefix = "scaled_" if scaled else ""
        p50, p90 = server[prefix + "step_ms_p50"], server[prefix + "step_ms_p90"]
        samples = server["step_gaps"]
    else:
        gaps = out.scaled_gaps_s if scaled else out.step_gaps_s
        steps_per_s = len(gaps) / sum(gaps)
        p50 = percentile(gaps, 50) * 1e3
        p90 = percentile(gaps, 90) * 1e3
        samples = len(gaps)
    return {
        "setup_s": statistics.median(out.setup_s),
        "steps_per_s": steps_per_s,
        "step_ms_p50": p50,
        "step_ms_p90": p90,
        "peak_rss_mb": out.peak_rss_mb,
    }, samples


def layer_metrics(
    spans: Dict[str, Dict[str, float]],
    tallies: Dict[Any, Any],
    counts: Dict[str, float],
    extra: Dict[str, Any],
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics from span totals, tallies and counters.

    ``*.us_per_step`` divides a layer's time by the traced engine steps,
    ``*.share`` by the time inside ``sim.step``; ``sim.step.self_us`` is
    ``sim.step`` minus its child spans (the walk over the batch items plus
    ``note_traffic``).  ``mobility.spawn.us``, ``experiments.store.record_us``,
    ``service.event_append_us``, ``service.on_step_us`` and
    ``service.submit_ms`` are means per call; ``roadnet.build_s``,
    ``demand.initial_fleet.s``, ``mobility.spawn_initial.s`` and
    ``roadnet.shortest_path.setup_*`` are per set-up, and
    ``roadnet.shortest_path.step_*`` totals over the stepped part.
    ``service.queue_wait_ms`` is the median time from a job's enqueue to its
    ``ExperimentSpec.run`` starting.  ``wireless.success_ratio`` is channel
    attempts that succeeded (forced ACK successes excluded) over attempts.
    Counts are totals over every operation of the traced pass and repeat
    exactly for a given seed and ``--seconds``; a layer the workload
    bypasses reads 0.
    """

    def span(name: str, key: str = "seconds") -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def mean(name: str) -> float:
        return span(name) / calls(name) if calls(name) else 0.0

    def tally(name: str, phase: Optional[str] = None) -> tuple:
        c = s = 0
        for (key, ph), (n, t) in tallies.items():
            if key == name and (phase is None or ph == phase):
                c += n
                s += t
        return c, s

    steps = calls("sim.step")
    step_s = span("sim.step")

    def per_step(seconds: float) -> float:
        return seconds / steps * 1e6 if steps else 0.0

    def share(seconds: float) -> float:
        return seconds / step_s if step_s else 0.0

    setups = calls("sim.populate")
    sp_setup = tally("roadnet.shortest_path", "setup")
    sp_step = tally("roadnet.shortest_path", "step")
    appends = tally("service.event_append")
    on_step = tally("service.on_step")
    record = tally("experiments.store.record")
    runs = calls("experiments.spec_run")
    waits = extra.get("queue_wait_s", [])
    attempts = counts.get("wireless.attempts", 0)
    observations = counts.get("surveillance.observations", 0)
    values: Dict[str, tuple] = {
        "trace.steps_per_s_ratio": (extra.get("overhead", 0.0), "ratio"),
        "sim.step.us_per_step": (per_step(step_s), "us"),
        "sim.step.self_us": (per_step(span("sim.step", "self_seconds")), "us"),
        "mobility.step_batch.us_per_step": (per_step(span("mobility.step_batch")), "us"),
        "mobility.step_batch.share": (share(span("mobility.step_batch")), "ratio"),
        "convergence.note_traffic.calls": (tally("convergence.note_traffic")[0], "count"),
        "convergence.note_traffic.us_per_step": (per_step(tally("convergence.note_traffic")[1]), "us"),
        "protocol.process_batch.us_per_step": (per_step(span("protocol.process_batch")), "us"),
        "protocol.process_batch.share": (share(span("protocol.process_batch")), "ratio"),
        "protocol.all_stable.us_per_step": (per_step(span("protocol.all_stable")), "us"),
        "convergence.observe.us_per_step": (per_step(span("convergence.observe")), "us"),
        "demand.border_arrivals.us_per_step": (per_step(span("demand.border_arrivals")), "us"),
        "mobility.spawn.calls": (calls("mobility.spawn"), "count"),
        "mobility.spawn.us": (mean("mobility.spawn") * 1e6, "us"),
        "roadnet.build_s": (mean("roadnet.build"), "s"),
        "demand.initial_fleet.s": (mean("demand.initial_fleet"), "s"),
        "mobility.spawn_initial.s": (mean("mobility.spawn_initial"), "s"),
        "roadnet.shortest_path.setup_calls": (sp_setup[0] / setups if setups else 0, "count"),
        "roadnet.shortest_path.setup_s": (sp_setup[1] / setups if setups else 0.0, "s"),
        "roadnet.shortest_path.step_calls": (sp_step[0], "count"),
        "roadnet.shortest_path.step_s": (sp_step[1], "s"),
        "wireless.exchange.calls": (tally("wireless.exchange")[0], "count"),
        "wireless.single_attempt.calls": (tally("wireless.single_attempt")[0], "count"),
        "wireless.batched_draws.us_per_step": (per_step(tally("wireless.batched_draws")[1]), "us"),
        "service.submit_ms": (mean("service.submit") * 1e3, "ms"),
        "service.queue_wait_ms": ((statistics.median(waits) * 1e3) if waits else 0.0, "ms"),
        "experiments.spec_run.s": (mean("experiments.spec_run"), "s"),
        "experiments.store.record_us": (record[1] / record[0] * 1e6 if record[0] else 0.0, "us"),
        "service.event_append_us": (appends[1] / appends[0] * 1e6 if appends[0] else 0.0, "us"),
        "service.on_step_us": (on_step[1] / on_step[0] * 1e6 if on_step[0] else 0.0, "us"),
        "service.events_per_run": (appends[0] / runs if runs else 0.0, "count"),
        "service.resident_events": (extra.get("resident_events", 0), "count"),
        "wireless.attempts": (attempts, "count"),
        "wireless.success_ratio": (counts.get("_wireless.useful", 0) / attempts if attempts else 0.0, "ratio"),
        "surveillance.observations": (observations, "count"),
        "surveillance.match_ratio": (
            counts.get("_surveillance.matches", 0) / observations if observations else 0.0, "ratio"
        ),
    }
    for name in (
        "mobility.crossings", "mobility.overtakes", "mobility.entries", "mobility.exits",
        "protocol.crossings_processed", "protocol.labels_installed",
        "protocol.patrol_syncs", "protocol.interaction_entries",
    ):
        values[name] = (counts.get(name, 0), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_pass(workload: str, seed: int, seconds: float, traced: bool, tag: str) -> Any:
    """One pass of the workload; returns its Outcome (and the recorder)."""
    from sims import run_city_25k, run_midtown_open
    from tracing import Recorder

    if workload == "service-small":
        from service_small import run_service_small

        trace_out = os.path.join(OUT_DIR, f"spans-{tag}.jsonl") if traced else None
        return run_service_small(seed, seconds, OUT_DIR, trace_out), None
    rec = Recorder() if traced else None
    runner = run_midtown_open if workload == "midtown-open" else run_city_25k
    return runner(seed, seconds, rec), rec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    # Keep every file the program writes (the compiled kernel's build
    # directory included) inside the checkout.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp

    prov = provenance(args.workload, args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    tag = f"{args.workload}-{args.seed}"

    out, _ = run_pass(args.workload, args.seed, args.seconds, False, tag)
    errors = list(out.errors)
    attempted, failed = out.attempted, out.failed
    got = digest(out.digest_outputs)
    print(f"digest {got} (first {len(out.digest_outputs)} operation(s))")
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            want = json.load(fh)["digests"].get(args.workload)
        if got != want:
            errors.append(f"digest {got} != recorded {want} at seed {DEFAULT_SEED}")

    print(f"operations attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f} wall_s={out.wall_s:.3f}")
    metrics, steps = end_to_end(args.workload, out)
    measured, _ = end_to_end(args.workload, out, scaled=False)
    counts = {"setup_s": len(out.setup_s), "step_ms_p50": steps, "step_ms_p90": steps}
    for name, value in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        unscaled = f"; measured {measured[name]:.6g}" if measured[name] != value else ""
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}{n}{unscaled}")
    for label, values, scale, unit in (
        ("first_event_ms", out.first_event_s, 1e3, "ms"),
        ("time_to_count_s", out.time_to_count_s, 1.0, "s"),
    ):
        print(f"  {label}_p50 = {statistics.median(values) * scale:.6g} {unit} (n={len(values)})")
        if len(values) >= 100:
            print(f"  {label}_p90 = {percentile(values, 90) * scale:.6g} {unit} (n={len(values)})")
        else:
            print(f"  {label}_p90 = n/a (n={len(values)}; needs 100 for ten beyond it)")
    print(f"  runs_per_s = {(attempted - failed) / out.wall_s:.6g} 1/s (n={attempted})")

    result_metrics: Dict[str, Dict[str, Any]] = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()
    }
    if args.trace:
        traced, rec = run_pass(args.workload, args.seed, args.seconds, True, tag)
        attempted += traced.attempted
        failed += traced.failed
        errors.extend(f"traced: {e}" for e in traced.errors)
        if digest(traced.outputs) != digest(out.outputs):
            errors.append("traced run's outputs differ from the untraced run's")
        overhead = end_to_end(args.workload, traced)[0]["steps_per_s"] / metrics["steps_per_s"]
        if rec is not None:
            spans, tallies = rec.span_totals(), rec.tallies()
            extra: Dict[str, Any] = {}
            rec.dump(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), prov)
        else:
            trace = traced.extra["server"]["trace"]
            spans = trace["spans"]
            tallies = {(n, p): (c, s) for n, p, c, s in trace["tallies"]}
            extra = {"queue_wait_s": trace["queue_wait_s"],
                     "resident_events": traced.extra["server"]["resident_events"]}
        extra["overhead"] = overhead
        result_metrics = layer_metrics(spans, tallies, traced.counts, extra)
        print("per-layer (traced run):")
        for name, m in result_metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")

    for e in errors:
        print(f"FAILED: {e}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if failed or correct else 1,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
