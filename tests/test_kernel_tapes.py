"""Noise-tape megabatch kernel: bitwise equivalence and observability.

The kernel pre-draws every scenario's disturbance and sensor noise into
tapes and then runs the decision/physics/observe phases over one lane
array.  These tests pin the contract down:

- the tape kernel is **bitwise identical** to the frozen pre-refactor
  implementation (:mod:`repro.sim.batch_reference`) across every
  equipage × coordination × substeps combination, and each scenario's
  slice equals its one-scenario :meth:`run` call;
- chunking cannot change a single bit;
- :class:`~repro.sim.batch.KernelProfile` phase timings flow through
  ``Campaign.run(profile=True)`` into result-set (and store) metadata.
"""

import numpy as np
import pytest

from repro.encounters import (
    StatisticalEncounterModel,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.experiments import Campaign, make_backend
from repro.experiments.campaign import _execute_chunk
from repro.sim.batch import KERNEL_PHASES, BatchEncounterSimulator, KernelProfile
from repro.sim.batch_reference import reference_run_many
from repro.sim.encounter import EncounterSimConfig
from repro.store import ResultStore, results_digest

RESULT_FIELDS = (
    "min_separation",
    "min_horizontal",
    "nmac",
    "own_alerted",
    "intruder_alerted",
)


def assert_results_equal(a, b):
    for field in RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@pytest.fixture(scope="module")
def mixed_durations():
    """Mixed-duration scenarios so the sorted active-lane prefix, the
    tape slicing, and the early-stop mask are all exercised."""
    model = StatisticalEncounterModel()
    sampled = model.sample(4, seed=np.random.default_rng(11))
    return sampled + [
        head_on_encounter(time_to_cpa=8.0),
        tail_approach_encounter(time_to_cpa=55.0),
    ]


# ----------------------------------------------------------------------
# Bitwise equivalence vs the frozen pre-refactor kernel
# ----------------------------------------------------------------------
class TestTapeKernelBitwise:
    @pytest.mark.parametrize("equipage", ["both", "own-only", "none"])
    @pytest.mark.parametrize("coordination", [True, False])
    @pytest.mark.parametrize("substeps", [1, 4])
    def test_matches_pre_refactor_reference(
        self, test_table, mixed_durations, equipage, coordination, substeps
    ):
        """Tape kernel == frozen inline-draw kernel, bit for bit."""
        sim = BatchEncounterSimulator(
            test_table if equipage != "none" else None,
            EncounterSimConfig(physics_substeps=substeps),
            equipage=equipage,
            coordination=coordination,
        )
        seeds = [1000 + i for i in range(len(mixed_durations))]
        new = sim.run_many(mixed_durations, 7, seeds)
        ref = reference_run_many(sim, mixed_durations, 7, seeds)
        for a, b in zip(new, ref):
            assert_results_equal(a, b)

    @pytest.mark.parametrize("equipage", ["both", "own-only"])
    def test_matches_per_scenario_run(
        self, test_table, mixed_durations, equipage
    ):
        """Every scenario's tape slice == its solo run() output."""
        sim = BatchEncounterSimulator(test_table, equipage=equipage)
        seeds = [77 + i for i in range(len(mixed_durations))]
        batch = sim.run_many(mixed_durations, 9, seeds)
        for params, seed, result in zip(mixed_durations, seeds, batch):
            assert_results_equal(result, sim.run(params, 9, seed))

    def test_chunk_invariance(self, test_table, mixed_durations):
        """Which scenarios share a batch cannot change any bit."""
        sim = BatchEncounterSimulator(test_table)
        seeds = [2000 + i for i in range(len(mixed_durations))]
        whole = sim.run_many(mixed_durations, 5, seeds)
        parts = sim.run_many(
            mixed_durations[:3], 5, seeds[:3]
        ) + sim.run_many(mixed_durations[3:], 5, seeds[3:])
        for a, b in zip(whole, parts):
            assert_results_equal(a, b)


# ----------------------------------------------------------------------
# Empty-tail short-circuit (fully-stored resume)
# ----------------------------------------------------------------------
class TestEmptyTail:
    def test_backend_short_circuits_empty_chunk(self, test_table):
        backend = make_backend("vectorized-batch", table=test_table)
        assert backend.simulate_many([], 5, []) == []

    def test_execute_chunk_short_circuits(self, test_table):
        backend = make_backend("vectorized-batch", table=test_table)
        assert _execute_chunk(backend, 5, []) == []

    def test_kernel_still_rejects_empty_batch(self, test_table):
        """The kernel-level raise stays: only the seam short-circuits."""
        sim = BatchEncounterSimulator(test_table)
        with pytest.raises(ValueError, match="at least one scenario"):
            sim.run_many([], 5, [])

    def test_fully_stored_resume_simulates_nothing(
        self, test_table, mixed_durations
    ):
        """A resume whose store already holds everything must not reach
        the kernel with an empty scenario tail."""
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=6,
        )
        with ResultStore(":memory:") as store:
            first = campaign.run(seed=3, store=store)
            again = campaign.run(seed=3, store=store)
        assert first.metadata["simulated"] == len(mixed_durations)
        assert again.metadata["simulated"] == 0
        assert again.metadata["loaded"] == len(mixed_durations)
        assert results_digest(first) == results_digest(again)


# ----------------------------------------------------------------------
# Kernel profiling observability
# ----------------------------------------------------------------------
class TestKernelProfile:
    def test_profile_accumulates_phases(self, test_table, mixed_durations):
        sim = BatchEncounterSimulator(test_table)
        profile = KernelProfile()
        seeds = list(range(len(mixed_durations)))
        sim.run_many(mixed_durations, 5, seeds, profile=profile)
        assert profile.calls == 1
        assert profile.scenarios == len(mixed_durations)
        assert profile.lanes == len(mixed_durations) * 5
        assert profile.total > 0.0
        sim.run_many(mixed_durations, 5, seeds, profile=profile)
        assert profile.calls == 2

    def test_to_dict_and_describe(self):
        profile = KernelProfile()
        payload = profile.to_dict()
        assert set(KERNEL_PHASES) <= set(payload)
        text = KernelProfile().describe()
        for phase in KERNEL_PHASES:
            assert phase in text

    def test_campaign_run_stamps_profile_metadata(
        self, test_table, mixed_durations
    ):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=5,
        )
        rs = campaign.run(seed=1, profile=True)
        payload = rs.metadata["kernel_profile"]
        assert set(KERNEL_PHASES) <= set(payload)
        assert payload["scenarios"] == len(mixed_durations)
        assert payload["total"] > 0.0

    def test_profile_does_not_change_bits(self, test_table, mixed_durations):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=5,
        )
        assert results_digest(
            campaign.run(seed=4, profile=True)
        ) == results_digest(campaign.run(seed=4))

    def test_multiworker_profile_is_honestly_unsupported(
        self, test_table, mixed_durations
    ):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=3,
        )
        rs = campaign.run(seed=1, workers=2, chunk_size=3, profile=True)
        assert "unsupported" in rs.metadata["kernel_profile"]

    def test_non_megabatch_backend_is_honestly_unsupported(
        self, test_table, mixed_durations
    ):
        campaign = Campaign(
            mixed_durations[:2], backend="agent",
            table=test_table, runs_per_scenario=3,
        )
        rs = campaign.run(seed=1, profile=True)
        assert "unsupported" in rs.metadata["kernel_profile"]

    def test_profile_persists_through_store_ingest(
        self, test_table, mixed_durations
    ):
        """The bench recording path (record_campaign → ingest) keeps
        the phase breakdown in the stored campaign's metadata."""
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=4,
        )
        rs = campaign.run(seed=8, profile=True)
        with ResultStore(":memory:") as store:
            campaign_id = store.ingest(rs, label="profiled")
            info = [
                c for c in store.campaigns()
                if c.campaign_id == campaign_id
            ][0]
        stored = info.metadata["kernel_profile"]
        assert set(KERNEL_PHASES) <= set(stored)

    def test_single_cpu_caveat_tracks_cpu_count(
        self, test_table, mixed_durations, monkeypatch
    ):
        import repro.experiments.campaign as campaign_mod

        campaign = Campaign(
            mixed_durations[:2], backend="vectorized-batch",
            table=test_table, runs_per_scenario=3,
        )
        monkeypatch.setattr(campaign_mod.os, "cpu_count", lambda: 1)
        assert campaign.run(seed=1).metadata["single_cpu_caveat"] is True
        monkeypatch.setattr(campaign_mod.os, "cpu_count", lambda: 8)
        assert "single_cpu_caveat" not in campaign.run(seed=1).metadata
