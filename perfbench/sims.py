"""The in-process workloads: ``midtown-open`` and ``city-25k``.

Both build their inputs from the workload seed alone and do a fixed amount
of work for a given ``--seconds`` (so both commits of a comparison run the
same inputs), timing each engine step through the public ``on_step``
observer hook of :meth:`repro.sim.simulator.Simulation.run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from hostspeed import calibrate, scale_gaps
from tracing import Recorder, instrument_routing, instrument_simulation

#: midtown-open: step metrics cover the first this-many steps of every run.
#: Vehicles accumulate through the border gates, so later steps cost more,
#: and runs converge after 3.4k to 10k+ steps depending on the seed; a common
#: window keeps the per-step figures from following the seed mix.
MIDTOWN_STEP_WINDOW = 3000
#: midtown-open: set-ups measured per run (the seeded runs' own included).
MIDTOWN_SETUPS = 7
#: midtown-open: steps between two host-speed calibrations (about 30 ms).
MIDTOWN_CALIBRATE_EVERY = 100
#: city-25k: engine steps per run second, and the first steps left out of
#: the step metrics while the queues at the intersections fill.
CITY_STEPS_PER_SECOND = 16
CITY_WARMUP_STEPS = 20
#: city-25k: steps between two host-speed calibrations (about 200 ms).
CITY_CALIBRATE_EVERY = 5
#: city-25k: the step after which the deterministic snapshot is taken.
CITY_DIGEST_STEP = 100


@dataclass
class Outcome:
    """What one pass of a workload measured and produced."""

    setup_s: List[float] = field(default_factory=list)
    #: Host time between consecutive on_step calls, as measured and scaled
    #: to the reference host speed (see hostspeed.py).
    step_gaps_s: List[float] = field(default_factory=list)
    scaled_gaps_s: List[float] = field(default_factory=list)
    first_event_s: List[float] = field(default_factory=list)
    time_to_count_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Deterministic outputs, one per operation, in operation order.
    outputs: List[Any] = field(default_factory=list)
    #: Deterministic outputs of the fixed prefix the recorded digest covers.
    digest_outputs: List[Any] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)


class StepClock:
    """Observer stamping the host clock at every ``on_step`` call.

    Every ``calibrate_every`` steps it also times a host-speed calibration;
    the observer's own time is left out of the step gaps.
    """

    def __init__(
        self,
        calibrate_every: int,
        stop_after: Optional[int] = None,
        snapshot_at: Optional[int] = None,
    ) -> None:
        self.times: List[float] = []
        self.resumed: List[float] = []
        self.marks = [(0, calibrate())]
        self.calibrate_every = calibrate_every
        self.stop_after = stop_after
        self.snapshot_at = snapshot_at
        self.snapshot: Optional[Dict[str, Any]] = None

    def on_step(self, sim: Any, step_index: int) -> bool:
        self.times.append(time.perf_counter())
        if self.snapshot_at is not None and step_index + 1 == self.snapshot_at:
            self.snapshot = sim_counters(sim)
        if (step_index + 1) % self.calibrate_every == 0:
            self.marks.append((len(self.times) - 1, calibrate()))
        self.resumed.append(time.perf_counter())
        return self.stop_after is not None and step_index + 1 >= self.stop_after

    def run_seconds(self, began: float, ended: float) -> float:
        """Host time from ``began`` to ``ended`` without the calibrations."""
        return ended - began - sum(seconds for _, seconds in self.marks[1:])

    def gaps(self, first: int, last: int) -> Tuple[List[float], List[float]]:
        """Measured and scaled gaps between on_step calls ``first``..``last``."""
        raw = [self.times[k + 1] - self.resumed[k] for k in range(len(self.times) - 1)]
        scaled = scale_gaps(raw, self.marks)
        return raw[first:last], scaled[first:last]


def sim_counters(sim: Any) -> Dict[str, Any]:
    """The deterministic counters of every layer of one simulation."""
    cams = sim.protocol.cameras.values()
    return {
        "engine": sim.engine.stats.as_dict(),
        "protocol": sim.protocol.stats.as_dict(),
        "exchange": sim.exchange.stats.as_dict(),
        "recognition": {
            "observations": sum(c.recognizer.stats.observations for c in cams),
            "matches": sum(c.recognizer.stats.matches for c in cams),
        },
        "global_count": sim.protocol.global_count(),
        "active": sim.engine.active_count(include_patrol=False),
    }


def add_counts(total: Dict[str, float], counters: Dict[str, Any]) -> None:
    """Accumulate one simulation's counters into the per-layer count names."""
    eng, proto, exch, rec = (
        counters["engine"], counters["protocol"], counters["exchange"], counters["recognition"]
    )
    pairs = {
        "mobility.crossings": eng["crossings"],
        "mobility.overtakes": eng["overtakes"],
        "mobility.entries": eng["entries"],
        "mobility.exits": eng["exits"],
        "protocol.crossings_processed": proto["crossings_processed"],
        "protocol.labels_installed": proto["labels_installed"],
        "protocol.patrol_syncs": proto["patrol_syncs"],
        "protocol.interaction_entries": proto["interaction_entries"],
        "wireless.attempts": exch["total_attempts"],
        "_wireless.exchanges": exch["exchanges"],
        "_wireless.useful": exch["successes"] - exch["forced_successes"],
        "surveillance.observations": rec["observations"],
        "_surveillance.matches": rec["matches"],
    }
    for key, value in pairs.items():
        total[key] = total.get(key, 0) + value


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seeds(seed: int, count: int) -> List[int]:
    """``count`` scenario seeds drawn from the workload seed."""
    state = np.random.SeedSequence([seed, 2014]).generate_state(count)
    return [int(x) % (2**31) for x in state]


def _set_up(rec: Optional[Recorder], build: Any, make_config: Any) -> Tuple[Any, float]:
    """Build the network, the Simulation and its fleet; returns it and the seconds taken."""
    from repro.sim.simulator import Simulation

    start = time.perf_counter()
    if rec is None:
        sim = Simulation(build(), make_config())
        sim.populate()
    else:
        rec.phase = "setup"
        net = rec.span("roadnet.build", build)()
        sim = rec.span("sim.init", Simulation)(net, make_config())
        instrument_simulation(rec, sim)
        rec.span("sim.populate", sim.populate)()
    return sim, time.perf_counter() - start


def run_midtown_open(seed: int, seconds: float, rec: Optional[Recorder] = None) -> Outcome:
    """Seeded runs of the registry's midtown-open scenario, each to its count."""
    from repro.scenarios.registry import get_scenario

    scenario = get_scenario("midtown-open")
    runs = max(2, round(seconds / 3.0))
    seeds = derive_seeds(seed, runs)
    out = Outcome()
    if rec is not None:
        instrument_routing(rec)
    began = time.perf_counter()
    try:
        for index, rng_seed in enumerate(seeds):
            out.attempted += 1
            if rec is not None:
                rec.set_op(index)
            sim, setup = _set_up(
                rec, scenario.build_network, lambda: scenario.config.with_rng_seed(rng_seed)
            )
            out.setup_s.append(setup)
            clock = StepClock(MIDTOWN_CALIBRATE_EVERY)
            if rec is not None:
                rec.phase = "step"
            began_run = time.perf_counter()
            result = sim.run(observers=[clock])
            out.time_to_count_s.append(setup + clock.run_seconds(began_run, time.perf_counter()))
            out.first_event_s.append(setup + clock.times[0] - began_run)
            raw, scaled = clock.gaps(0, MIDTOWN_STEP_WINDOW - 1)
            out.step_gaps_s.extend(raw)
            out.scaled_gaps_s.extend(scaled)
            counters = sim_counters(sim)
            add_counts(out.counts, counters)
            record = result.as_dict()
            out.outputs.append(record)
            if index < 2:
                out.digest_outputs.append(record)
            if not (result.converged and result.is_exact):
                out.failed += 1
                out.errors.append(
                    f"seed {rng_seed}: converged={result.converged} "
                    f"count={result.protocol_count} truth={result.ground_truth}"
                )
        out.wall_s = time.perf_counter() - began
        out.peak_rss_mb = rss_mb()
        for rng_seed in (seeds * MIDTOWN_SETUPS)[: max(0, MIDTOWN_SETUPS - len(seeds))]:
            config = scenario.config.with_rng_seed(rng_seed)
            out.setup_s.append(_set_up(rec, scenario.build_network, lambda: config)[1])
    finally:
        if rec is not None:
            rec.restore()
    return out


def run_city_25k(seed: int, seconds: float, rec: Optional[Recorder] = None) -> Outcome:
    """A fixed number of steps of a closed 25k-vehicle synthetic city."""
    from repro.mobility.demand import DemandConfig
    from repro.roadnet.synth import synthetic_city
    from repro.sim.config import ScenarioConfig

    steps = max(CITY_DIGEST_STEP + CITY_WARMUP_STEPS, round(seconds * CITY_STEPS_PER_SECOND))
    holder: Dict[str, Any] = {}

    def build():
        holder["net"] = synthetic_city(2, 18, seed=0)
        return holder["net"]

    def make_config():
        return ScenarioConfig(
            name="city-25k",
            rng_seed=derive_seeds(seed, 1)[0],
            demand=DemandConfig.for_fleet_size(holder["net"], 25_000),
        )

    out = Outcome()
    out.attempted = 1
    if rec is not None:
        instrument_routing(rec)
        rec.set_op(0)
    began = time.perf_counter()
    try:
        sim, setup = _set_up(rec, build, make_config)
        out.setup_s.append(setup)
        clock = StepClock(CITY_CALIBRATE_EVERY, stop_after=steps, snapshot_at=CITY_DIGEST_STEP)
        if rec is not None:
            rec.phase = "step"
        began_run = time.perf_counter()
        sim.run(observers=[clock])
        out.time_to_count_s.append(setup + clock.run_seconds(began_run, time.perf_counter()))
        out.first_event_s.append(setup + clock.times[0] - began_run)
        raw, scaled = clock.gaps(CITY_WARMUP_STEPS, steps - 1)
        out.step_gaps_s.extend(raw)
        out.scaled_gaps_s.extend(scaled)
    finally:
        if rec is not None:
            rec.restore()
    out.wall_s = time.perf_counter() - began
    out.peak_rss_mb = rss_mb()
    counters = sim_counters(sim)
    add_counts(out.counts, counters)
    counters["initial_fleet"] = sim.initial_fleet_size
    out.outputs.append(counters)
    out.digest_outputs.append(clock.snapshot)
    problems = []
    if len(clock.times) != steps:
        problems.append(f"ran {len(clock.times)} of {steps} steps")
    if counters["active"] != sim.initial_fleet_size:
        problems.append(f"active {counters['active']} != fleet {sim.initial_fleet_size}")
    if counters["protocol"]["crossings_processed"] != counters["engine"]["crossings"]:
        problems.append(
            f"protocol processed {counters['protocol']['crossings_processed']} of "
            f"{counters['engine']['crossings']} crossings"
        )
    if problems:
        out.failed = 1
        out.errors.extend(problems)
    return out
