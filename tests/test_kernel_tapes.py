"""Megabatch kernel noise: bitwise equivalence, budget and observability.

The kernel draws every scenario's disturbance and sensor noise a few
decisions ahead, into a window it refills in place, and runs the
decision/physics/observe phases over one lane array.  These tests pin
the contract down:

- the kernel is **bitwise identical** to the frozen pre-refactor
  implementation (``batch_reference.py`` beside this file) across
  every equipage × coordination × substeps combination and at the
  window's edges, and each scenario's slice equals its one-scenario
  :meth:`run` call;
- its outputs over that grid, whole and chunked, hash to the digests
  committed in ``kernel_golden.json``, which also catches a change
  (a numpy upgrade) that moves the kernel and the oracle together;
- chunking cannot change a single bit;
- a call draws exactly the noise :func:`tape_bytes` counts, nothing
  past :data:`MAX_TAPE_BYTES`, and holds memory that scales with its
  lanes, not with its duration;
- with tracing armed, every kernel call's phase timers land as four
  synthetic ``kernel.*`` spans under the open chunk span — serially and
  in a worker pool — without changing a bit.
"""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.acasx.advisories import COC, NUM_ADVISORIES
from repro.encounters import (
    StatisticalEncounterModel,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.encounters.generator import ScenarioGenerator
from repro.experiments import Campaign, make_backend
from repro.experiments.campaign import _execute_chunk
from repro.sim.batch import (
    _WINDOW,
    MAX_TAPE_BYTES,
    BatchEncounterSimulator,
    tape_bytes,
)
from repro.sim.disturbance import DisturbanceModel
from repro.sim.encounter import EncounterSimConfig
from repro.store import ResultStore, results_digest

from batch_reference import _SENSES, _decide_side, reference_run_many

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


def mixed_scenarios():
    """Mixed-duration scenarios so the sorted active-lane prefix, the
    per-scenario window refills, and the early-stop mask are all
    exercised."""
    model = StatisticalEncounterModel()
    sampled = model.sample(4, seed=np.random.default_rng(11))
    return sampled + [
        head_on_encounter(time_to_cpa=8.0),
        tail_approach_encounter(time_to_cpa=55.0),
    ]


@pytest.fixture(scope="module")
def mixed_durations():
    return mixed_scenarios()


#: Committed digests of the kernel's outputs (:func:`kernel_digests`).
KERNEL_GOLDEN = Path(__file__).with_name("kernel_golden.json")


#: The one disturbance setting under which the kernel draws and applies
#: horizontal-acceleration noise (the default config draws none).
HORIZONTAL = DisturbanceModel(horizontal_accel_std=0.1)


def horizontal_simulator(table, equipage, substeps):
    """A simulator with horizontal disturbance on (coordination on)."""
    return BatchEncounterSimulator(
        table if equipage != "none" else None,
        EncounterSimConfig(physics_substeps=substeps, disturbance=HORIZONTAL),
        equipage=equipage,
    )


def kernel_cells(table):
    """``(name, simulator)`` for every cell the digests cover: equipage
    x coordination x substeps at the default config, then equipage x
    substeps with horizontal disturbance on."""
    for equipage, coordination, substeps in itertools.product(
        ("both", "own-only", "none"), (True, False), (1, 4)
    ):
        yield (
            f"{equipage}/coordination={coordination}/substeps={substeps}",
            BatchEncounterSimulator(
                table if equipage != "none" else None,
                EncounterSimConfig(physics_substeps=substeps),
                equipage=equipage,
                coordination=coordination,
            ),
        )
    for equipage, substeps in itertools.product(
        ("both", "own-only", "none"), (1, 4)
    ):
        yield (
            f"{equipage}/horizontal_accel_std=0.1/substeps={substeps}",
            horizontal_simulator(table, equipage, substeps),
        )


def kernel_digests(table, scenarios):
    """sha256 of ``run_many``'s outputs over :func:`kernel_cells`.

    One digest per cell, for the scenarios in one call ("whole") and in
    two ("split", 3 + the rest).
    """
    seeds = [1000 + i for i in range(len(scenarios))]
    chunkings = {
        "whole": [slice(None)],
        "split": [slice(None, 3), slice(3, None)],
    }
    digests = {}
    for cell, sim in kernel_cells(table):
        for chunking, parts in chunkings.items():
            sha = hashlib.sha256()
            for part in parts:
                for result in sim.run_many(scenarios[part], 7, seeds[part]):
                    for field in RESULT_FIELDS:
                        sha.update(np.ascontiguousarray(
                            getattr(result, field)
                        ).tobytes())
            digests[f"{cell}/{chunking}"] = sha.hexdigest()
    return digests


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
        """Kernel == frozen inline-draw kernel, bit for bit."""
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

    @pytest.mark.parametrize("equipage", ["both", "own-only", "none"])
    @pytest.mark.parametrize("substeps", [1, 4])
    def test_horizontal_disturbance_matches_reference(
        self, test_table, mixed_durations, equipage, substeps
    ):
        """The horizontal-acceleration noise, drawn and applied, matches
        the frozen kernel's inline draws bit for bit."""
        sim = horizontal_simulator(test_table, equipage, substeps)
        seeds = [1000 + i for i in range(len(mixed_durations))]
        new = sim.run_many(mixed_durations, 7, seeds)
        ref = reference_run_many(sim, mixed_durations, 7, seeds)
        for a, b in zip(new, ref):
            assert_results_equal(a, b)

    @pytest.mark.parametrize("equipage", ["both", "own-only"])
    @pytest.mark.parametrize("horizontal", [False, True])
    def test_window_edges_match_reference(
        self, test_table, equipage, horizontal
    ):
        """Scenarios ending just before, at and after a window refill,
        and two refills in, share one call and match the oracle."""
        config = EncounterSimConfig(
            extra_duration=0.0,
            disturbance=HORIZONTAL if horizontal else DisturbanceModel(),
        )
        sim = BatchEncounterSimulator(test_table, config, equipage=equipage)
        # With no extra duration, a time_to_cpa of d seconds is d decisions.
        lengths = [_WINDOW + 1, _WINDOW - 1, 2 * _WINDOW + 1, _WINDOW]
        scenarios = [
            (head_on_encounter if i % 2 else tail_approach_encounter)(
                time_to_cpa=float(d)
            )
            for i, d in enumerate(lengths)
        ]
        seeds = [500 + i for i in range(len(scenarios))]
        new = sim.run_many(scenarios, 6, seeds)
        ref = reference_run_many(sim, scenarios, 6, seeds)
        for a, b in zip(new, ref):
            assert_results_equal(a, b)

    @pytest.mark.parametrize("equipage", ["both", "own-only"])
    def test_matches_per_scenario_run(
        self, test_table, mixed_durations, equipage
    ):
        """Every scenario's slice == its solo run() output."""
        sim = BatchEncounterSimulator(test_table, equipage=equipage)
        seeds = [77 + i for i in range(len(mixed_durations))]
        batch = sim.run_many(mixed_durations, 9, seeds)
        for params, seed, result in zip(mixed_durations, seeds, batch):
            assert_results_equal(result, sim.run(params, 9, seed))

    def test_matches_committed_digests(self, test_table, mixed_durations):
        """The kernel's outputs hash to the committed golden digests.

        The oracle comparison above cannot see a change that moves the
        kernel and the oracle together (a numpy upgrade); this can.
        """
        golden = json.loads(KERNEL_GOLDEN.read_text())
        assert kernel_digests(test_table, mixed_durations) == (
            golden["digests"]
        ), (
            f"kernel outputs moved (digests recorded under numpy "
            f"{golden['numpy']}, running {np.__version__})"
        )

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


class TestDecidedLookups:
    """Rows the decided index answers keep the advisory interpolating
    every row would pick, coordination locks included."""

    @pytest.mark.parametrize("coordination", [True, False])
    def test_pair_decision_matches_the_frozen_sides(
        self, test_table, coordination
    ):
        """Lane states built so each side senses a chosen state: mostly
        COC rows in cells the index settles to a climb or descent, under
        every kind of lock, plus rows anywhere.  Each side's sensed
        state is set through the sense noise, so the two sides' cells
        are drawn independently."""
        table = test_table
        config = table.config
        index = table._decided_index()
        stage, base = np.nonzero((index[:-1] > 0) & (index[:-1] == index[1:]))
        rng = np.random.default_rng(0)
        lanes = 800

        def sensed_states():
            """tau and (h, own rate, intruder rate) per lane."""
            settled = rng.integers(0, len(stage), lanes)
            cells = np.stack(table.grid.multi_index(base[settled]))
            coords = np.stack([
                ax.points[cell] + rng.uniform(0, ax.step, lanes)
                for ax, cell in zip(table.grid.axes, cells)
            ])
            tau = (stage[settled] + rng.uniform(0, 1, lanes)) * config.dt
            anywhere = rng.random(lanes) < 0.3
            coords[:, anywhere] = np.stack([
                rng.uniform(-1.2 * ax.high, 1.2 * ax.high, lanes)
                for ax in table.grid.axes
            ])[:, anywhere]
            tau[anywhere] = rng.uniform(0, config.horizon * config.dt,
                                        lanes)[anywhere]
            return tau, coords

        (tau_own, own), (tau_intr, intr) = sensed_states(), sensed_states()
        own_pos, intr_pos = np.zeros((3, lanes)), np.zeros((3, lanes))
        own_vel, intr_vel = np.zeros((3, lanes)), np.zeros((3, lanes))
        own_vel[2], intr_vel[2] = own[1], intr[1]
        noise = np.zeros((4, 3, lanes))
        # Closing head-on at 30 m/s from 30 * tau metres, as each sees it.
        noise[0, 0], noise[1, 0] = 30.0 * tau_own, -30.0
        noise[2, 0], noise[3, 0] = 30.0 * tau_intr, -30.0
        noise[0, 2], noise[1, 2] = own[0], own[2] - intr_vel[2]
        noise[2, 2], noise[3, 2] = intr[0], intr[2] - own_vel[2]
        own_sra = np.where(rng.random(lanes) < 0.8, COC.index,
                           rng.integers(0, NUM_ADVISORIES, lanes))
        intr_sra = rng.integers(0, NUM_ADVISORIES, lanes)

        sim = BatchEncounterSimulator(table, coordination=coordination)
        new_own, new_intr = sim._decide_pair(
            own_pos, own_vel, intr_pos, intr_vel, noise, own_sra, intr_sra
        )
        ref_own = _decide_side(
            table, own_pos.T, own_vel.T, (intr_pos + noise[0]).T,
            (intr_vel + noise[1]).T, own_sra,
            _SENSES[intr_sra] if coordination else None,
        )
        ref_intr = _decide_side(
            table, intr_pos.T, intr_vel.T, (own_pos + noise[2]).T,
            (own_vel + noise[3]).T, intr_sra,
            _SENSES[ref_own] if coordination else None,
        )
        np.testing.assert_array_equal(new_own, ref_own)
        np.testing.assert_array_equal(new_intr, ref_intr)
        # The draw reaches the rows a lock decides: on each side, some
        # row probed to an active advisory ends on another one.
        overridden = [
            ((probed > 0) & (ref != probed)).any()
            for probed, ref in (
                (table.decided_advisories(tau_own, own_sra, own.T), ref_own),
                (table.decided_advisories(tau_intr, intr_sra, intr.T),
                 ref_intr),
            )
        ]
        assert overridden == [coordination, coordination]


# ----------------------------------------------------------------------
# Noise drawn, its budget, and the memory it holds
# ----------------------------------------------------------------------
class CountingGenerator(np.random.Generator):
    """A generator that tallies the standard normals it fills."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.normals = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.normals += out.size if out is not None else int(np.prod(size))
        return super().standard_normal(size, dtype, out)


def drawn_bytes(sim, scenarios, num_runs):
    """Bytes of normals ``sim.run_many`` draws from its generators."""
    rngs = [CountingGenerator(i) for i in range(len(scenarios))]
    sim.run_many(scenarios, num_runs, rngs)
    return 8 * sum(rng.normals for rng in rngs)


def traced_peak(call):
    """The peak bytes tracemalloc saw ``call()`` hold."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTapeBudget:
    def test_tape_bytes_is_what_the_kernel_draws(
        self, test_table, mixed_durations
    ):
        # A 30 s and a 55 s encounter draw 50 and 75 decisions of noise
        # (22 doubles per lane each), not 75 each.
        sim = BatchEncounterSimulator(test_table)
        pair = [
            head_on_encounter(time_to_cpa=30.0),
            tail_approach_encounter(time_to_cpa=55.0),
        ]
        assert tape_bytes(sim.config, "both", pair, 4) == 88_000
        assert drawn_bytes(sim, pair, 4) == 88_000
        for equipage, disturbance in itertools.product(
            ("both", "none"), (DisturbanceModel(), HORIZONTAL)
        ):
            config = EncounterSimConfig(disturbance=disturbance)
            sim = BatchEncounterSimulator(
                test_table if equipage != "none" else None,
                config, equipage=equipage,
            )
            assert drawn_bytes(sim, mixed_durations, 4) == tape_bytes(
                config, equipage, mixed_durations, 4
            )

    def test_oversized_tape_is_refused_before_drawing(self, test_table):
        sim = BatchEncounterSimulator(test_table)
        params = head_on_encounter(time_to_cpa=1e6)
        rng = CountingGenerator(0)
        with pytest.raises(ValueError, match="MAX_TAPE_BYTES"):
            sim.run_many([params], 100, [rng])
        assert rng.normals == 0
        assert tape_bytes(sim.config, "both", [params], 100) > MAX_TAPE_BYTES
        # The library's own largest chunk sits at least 10x below it.
        chunk = [head_on_encounter(time_to_cpa=40.0)] * 82
        both_noises = EncounterSimConfig(
            disturbance=DisturbanceModel(horizontal_accel_std=0.1)
        )
        assert 10 * tape_bytes(both_noises, "both", chunk, 100) < (
            MAX_TAPE_BYTES
        )


class TestKernelMemory:
    """The noise window holds a few decisions, so a call's memory
    scales with its lanes, not with how long its encounters last."""

    def test_peak_does_not_grow_with_duration(self, test_table):
        sim = BatchEncounterSimulator(test_table)
        sim.run_many([head_on_encounter()], 2, [0])  # lazy table state

        def peak(time_to_cpa):
            params = head_on_encounter(time_to_cpa=time_to_cpa)
            return traced_peak(lambda: sim.run_many([params], 200, [1]))

        # 420 decisions against 60.
        assert peak(400.0) < 1.25 * peak(40.0)

    def test_paper_chunk_peak(self, paper_table):
        """One 25 x 100 GA chunk on the paper table."""
        sim = BatchEncounterSimulator(paper_table)
        sim.run_many([head_on_encounter()], 2, [0])  # lazy table state
        chunk = ScenarioGenerator().random_encounters(
            25, seed=np.random.default_rng(0)
        )
        seeds = np.random.SeedSequence(5).spawn(len(chunk))
        assert traced_peak(lambda: sim.run_many(chunk, 100, seeds)) < 12e6


# ----------------------------------------------------------------------
# Empty-tail short-circuit (fully-stored resume)
# ----------------------------------------------------------------------
class TestEmptyTail:
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
# Kernel phase spans
# ----------------------------------------------------------------------
KERNEL_SPANS = (
    "kernel.tape_draw", "kernel.decision", "kernel.physics", "kernel.observe",
)


def traced_run(db, campaign, **kwargs):
    """``campaign.run`` under a fresh trace; returns (results, spans)."""
    with telemetry.collect(str(db)) as collector:
        results = campaign.run(**kwargs)
    return results, telemetry.load_spans(str(db), trace_id=collector.trace_id)


def children(spans, parent):
    return [s for s in spans if s["parent_id"] == parent["span_id"]]


class TestKernelProfile:
    """The kernel's phase timers, read back as ``kernel.*`` spans."""

    def test_profile_accumulates_phases(
        self, test_table, mixed_durations, tmp_path
    ):
        sim = BatchEncounterSimulator(test_table)
        seeds = list(range(len(mixed_durations)))
        db = str(tmp_path / "trace.sqlite")
        with telemetry.collect(db) as collector:
            with telemetry.span("outer"):
                sim.run_many(mixed_durations, 5, seeds)
                sim.run_many(mixed_durations, 5, seeds)
            sim.run_many(mixed_durations, 5, seeds)  # no open span
        spans = telemetry.load_spans(db, trace_id=collector.trace_id)
        outer = next(s for s in spans if s["name"] == "outer")
        kernel = children(spans, outer)
        assert len(spans) == 1 + len(kernel)
        assert sorted(s["name"] for s in kernel) == sorted(KERNEL_SPANS * 2)
        for span in kernel:
            assert span["attributes"]["synthetic"] is True
            assert span["duration"] >= 0.0
            assert span["started_at"] >= outer["started_at"]
        assert sum(s["duration"] for s in kernel) > 0.0
        # Disarmed, the kernel records nothing and needs no collector.
        sim.run_many(mixed_durations, 5, seeds)

    def test_to_dict_and_describe(self, test_table, mixed_durations, tmp_path):
        campaign = Campaign(
            mixed_durations, table=test_table, runs_per_scenario=3,
        )
        _, spans = traced_run(
            tmp_path / "trace.sqlite", campaign, seed=2, chunk_size=2
        )
        totals = telemetry.span_totals(spans)
        for name in KERNEL_SPANS:
            assert totals[name]["count"] == 3
            assert totals[name]["seconds"] == pytest.approx(sum(
                s["duration"] for s in spans if s["name"] == name
            ))
        assert telemetry.trace_payload(spans)["totals"] == totals
        text = telemetry.render_trace(spans)
        footer = text[text.index("totals per span name:"):]
        for name in KERNEL_SPANS + ("campaign.chunk", "campaign.run"):
            assert name in footer

    def test_campaign_run_stamps_profile_metadata(
        self, test_table, mixed_durations, tmp_path
    ):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=5,
        )
        rs, spans = traced_run(
            tmp_path / "trace.sqlite", campaign, seed=1, chunk_size=4
        )
        chunks = [s for s in spans if s["name"] == "campaign.chunk"]
        assert len(chunks) == 2
        for chunk in chunks:
            kernel = children(spans, chunk)
            assert sorted(s["name"] for s in kernel) == sorted(KERNEL_SPANS)
            assert all(s["attributes"]["synthetic"] for s in kernel)
        # The phase split moved to the trace: the knob is gone.
        with pytest.raises(TypeError):
            campaign.run(seed=1, profile=True)

    def test_profile_does_not_change_bits(
        self, test_table, mixed_durations, tmp_path
    ):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=5,
        )
        traced, _ = traced_run(tmp_path / "trace.sqlite", campaign, seed=4)
        assert results_digest(traced) == results_digest(campaign.run(seed=4))

    def test_pool_kernel_spans_join_the_campaign_trace(
        self, test_table, mixed_durations, tmp_path
    ):
        campaign = Campaign(
            mixed_durations, backend="vectorized-batch",
            table=test_table, runs_per_scenario=3,
        )
        rs, spans = traced_run(
            tmp_path / "trace.sqlite", campaign,
            seed=1, workers=2, chunk_size=3,
        )
        assert results_digest(rs) == results_digest(campaign.run(seed=1))
        by_id = {s["span_id"]: s for s in spans}
        (root,) = [s for s in spans if s["parent_id"] is None]
        assert root["name"] == "campaign.run"
        chunks = [s for s in spans if s["name"] == "campaign.chunk"]
        assert len(chunks) == 2
        for chunk in chunks:
            assert chunk["process"].startswith("pool:")
            assert by_id[chunk["parent_id"]] is root
            kernel = children(spans, chunk)
            assert sorted(s["name"] for s in kernel) == sorted(KERNEL_SPANS)
            assert {s["process"] for s in kernel} == {chunk["process"]}

    def test_non_megabatch_backend_is_honestly_unsupported(
        self, test_table, mixed_durations, tmp_path
    ):
        campaign = Campaign(
            mixed_durations[:2], backend="agent",
            table=test_table, runs_per_scenario=3,
        )
        _, spans = traced_run(tmp_path / "trace.sqlite", campaign, seed=1)
        names = [s["name"] for s in spans]
        assert names.count("campaign.chunk") == 2
        assert not [n for n in names if n.startswith("kernel.")]
