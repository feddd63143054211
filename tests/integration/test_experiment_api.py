"""Experiment API end-to-end: spec file -> run -> store -> replay/resume.

The acceptance bar for the declarative API:

* a spec written to a file, loaded back and run must reproduce the original
  ``RunResult`` **bit for bit** (counts, timings, RNG-derived statistics) —
  under every engine x pipeline combination,
* a sweep interrupted mid-grid and resumed from its store must complete with
  cell-for-cell identical results to an uninterrupted run,
* every scenario-registry entry must round-trip through its spec file and
  run identically through the facade and through the legacy entry points.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import (
    EarlyStopObserver,
    ExperimentSpec,
    NetworkSpec,
    ResultStore,
    replay,
)
from repro.errors import ExperimentError
from repro.mobility.demand import DemandConfig
from repro.scenarios import get_scenario
from repro.sim.config import MobilityConfig, ScenarioConfig
from repro.sim.runner import SweepSpec, run_single
from repro.sim.simulator import Simulation

ENGINE_MATRIX = (
    ("vec-engine-batched", True, True),
    ("vec-engine-scalar", True, False),
    ("ref-engine-batched", False, True),
    ("ref-engine-scalar", False, False),
)


def _small_spec(*, vectorized=True, batched=True, sweep=None, open_system=False):
    kwargs = {"lanes": 2}
    if open_system:
        kwargs["gates_on_border"] = True
    return ExperimentSpec(
        network=NetworkSpec("grid", args=(4, 4), kwargs=kwargs),
        config=ScenarioConfig(
            name="api-int",
            rng_seed=41,
            num_seeds=2,
            open_system=open_system,
            demand=DemandConfig(volume_fraction=0.6),
            mobility=MobilityConfig(vectorized=vectorized),
            batched=batched,
            settle_extra_s=60.0 if open_system else 0.0,
            max_duration_s=3600.0,
        ),
        sweep=sweep,
    )


class TestReplayBitForBit:
    @pytest.mark.parametrize(
        "label,vectorized,batched", ENGINE_MATRIX, ids=[m[0] for m in ENGINE_MATRIX]
    )
    def test_spec_file_run_replay_identical(self, tmp_path, label, vectorized, batched):
        """Save spec -> run into a store -> replay: every field of the fresh
        RunResult (including RNG-derived stats dicts) equals the stored one,
        for all four engine x pipeline combinations."""
        spec = _small_spec(vectorized=vectorized, batched=batched)
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = ExperimentSpec.load(path)
        assert loaded == spec

        store = tmp_path / "store"
        result = loaded.run(store=store)
        assert result.is_exact and result.converged

        report = replay(store)
        assert report.matches, report.describe()
        # The replayed result is the full dataclass equality, not a summary.
        assert report.fresh == report.stored == result

    def test_open_system_replay(self, tmp_path):
        spec = _small_spec(open_system=True)
        store = tmp_path / "store"
        spec.run(store=store)
        report = replay(store)
        assert report.matches, report.describe()

    def test_facade_equals_legacy_entry_points(self):
        """spec.run() is the same experiment as run_single / Simulation.run."""
        spec = _small_spec()
        via_facade = spec.run()
        via_runner = run_single(spec.network, spec.config)
        via_sim = Simulation(spec.network.build(), spec.config).run()
        assert via_facade == via_runner == via_sim

    def test_registry_scenario_spec_runs_identically(self, tmp_path):
        """A registry entry exported to a spec file and run through the
        facade equals the legacy ScenarioDef.simulation() run."""
        defn = get_scenario("lossy-grid")
        path = tmp_path / "lossy.json"
        defn.to_spec().save(path)
        fresh = ExperimentSpec.load(path).run()
        legacy = defn.simulation().run()
        assert fresh == legacy


class TestSweepResume:
    def _sweep_spec(self):
        return _small_spec(
            sweep=SweepSpec(volumes=(0.4, 0.8), seed_counts=(1, 2), replications=2)
        )

    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        """Acceptance: a sweep interrupted mid-grid completes, on resume,
        with cell-for-cell identical results to an uninterrupted run."""
        spec = self._sweep_spec()
        uninterrupted = spec.run()
        assert len(uninterrupted.cells) == 4

        store = tmp_path / "store"
        partial = spec.run(store=store, observers=[EarlyStopObserver(max_cells=2)])
        assert len(partial.cells) == 2
        # The store holds exactly the completed cells.
        assert ResultStore(store).load_cell(0.4, 1, 2) is not None
        assert ResultStore(store).load_cell(0.8, 2, 2) is None

        resumed = spec.run(store=store, resume=True)
        assert resumed.cells == uninterrupted.cells
        assert resumed.name == uninterrupted.name

        # And the completed store replays bit for bit.
        report = replay(store)
        assert report.matches, report.describe()

    def test_resume_of_complete_store_runs_nothing(self, tmp_path):
        spec = self._sweep_spec()
        store = tmp_path / "store"
        first = spec.run(store=store)

        ran = []

        class StepSpy:
            def on_step(self, sim, step_index):
                ran.append(step_index)

        again = spec.run(store=store, resume=True, observers=[StepSpy()])
        assert again.cells == first.cells
        assert ran == []  # every cell came from the store

    def test_parallel_resume_matches_serial(self, tmp_path):
        spec = self._sweep_spec()
        serial = spec.run()
        store = tmp_path / "store"
        spec.run(store=store, observers=[EarlyStopObserver(max_cells=1)])
        resumed = spec.run(store=store, resume=True, parallel=True, max_workers=2)
        assert resumed.cells == serial.cells

    def test_single_run_resume_returns_stored_result(self, tmp_path):
        spec = _small_spec()
        store = tmp_path / "store"
        first = spec.run(store=store)

        ran = []

        class StepSpy:
            def on_step(self, sim, step_index):
                ran.append(step_index)

        again = spec.run(store=store, resume=True, observers=[StepSpy()])
        assert again == first
        assert ran == []


class TestRetiredCompiledFlag:
    """``MobilityConfig.compiled`` used to be a setting, so specs and store
    manifests written before it became a derived property still carry
    ``"mobility": {"compiled": ...}``."""

    @staticmethod
    def _make_old_store(tmp_path, spec):
        store = tmp_path / "store"
        result = spec.run(store=store)
        manifest_path = ResultStore(store).manifest_path
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["config"]["mobility"]["compiled"] = True
        canonical = json.dumps(manifest["spec"], sort_keys=True, separators=(",", ":"))
        manifest["config_hash"] = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        return store, manifest, result

    def test_old_spec_and_store_load_and_replay_bit_for_bit(self, tmp_path):
        spec = _small_spec()
        store, manifest, result = self._make_old_store(tmp_path, spec)
        old_spec = tmp_path / "old-spec.json"
        old_spec.write_text(json.dumps(manifest["spec"]))
        assert ExperimentSpec.load(old_spec) == spec
        assert ResultStore(store).spec() == spec

        report = replay(store)
        assert report.matches, report.describe()
        assert report.fresh == report.stored == result

    def test_resume_refuses_an_old_store(self, tmp_path):
        """The retired key was part of the old config hash, so the hash of
        the same experiment changed: resume asks for a fresh directory."""
        spec = _small_spec()
        store, _, _ = self._make_old_store(tmp_path, spec)
        with pytest.raises(ExperimentError, match="use a fresh directory"):
            ResultStore(store).spec().run(store=store, resume=True)
