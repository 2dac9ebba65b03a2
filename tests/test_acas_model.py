"""Tests for the ACAS XU-like offline model: config, dynamics, solver.

The behavioural assertions encode what a generated collision avoidance
logic must do: escalate as τ shrinks, pick the sense that increases
separation, respect the NMAC terminal cost, and cost alerts so level
flight is preferred when safe.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.acasx.advisories import (
    ADVISORIES,
    CLIMB,
    COC,
    DESCEND,
    NUM_ADVISORIES,
    STRONG_CLIMB,
)
from repro.acasx.config import AcasConfig
from repro.acasx.config import paper_config as paper_preset
from repro.acasx.config import preset_config
from repro.acasx.config import test_config as fast_preset
from repro.acasx.dynamics import (
    intruder_rate_samples,
    own_rate_samples,
    ramp_rates,
    relative_altitude_change,
)
from repro.acasx.solver import (
    build_action_transition,
    build_logic_table,
    stage_reward_matrix,
    terminal_values,
)

TABLE_GOLDEN = Path(__file__).with_name("table_golden.json")


def traced_peak(build):
    """``build()``'s result and the peak bytes tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestConfig:
    def test_presets_valid(self):
        assert fast_preset().horizon == 25
        assert paper_preset().horizon == 40

    def test_preset_overrides(self):
        assert fast_preset(horizon=10).horizon == 10

    def test_noise_must_normalize(self):
        with pytest.raises(ValueError):
            AcasConfig(own_noise=((0.0, 0.5), (1.0, 0.2)))

    def test_rate_grid_must_cover_strong_advisory(self):
        with pytest.raises(ValueError):
            AcasConfig(rate_max=10.0)

    def test_grid_points(self):
        config = AcasConfig(num_h=5, h_max=100.0)
        np.testing.assert_allclose(
            config.h_points, [-100, -50, 0, 50, 100]
        )

    def test_cube_size(self):
        config = AcasConfig(num_h=5, num_rate=3)
        assert config.cube_size == 45

    def test_nmac_cost_matches_paper(self):
        assert AcasConfig().nmac_cost == 10_000.0


class TestDynamics:
    def test_ramp_toward_target(self):
        rates = np.array([0.0, 5.0, 13.0])
        ramped = ramp_rates(rates, CLIMB, dt=1.0)
        accel = CLIMB.acceleration
        assert ramped[0] == pytest.approx(accel)  # limited by accel
        assert ramped[1] == pytest.approx(min(5.0 + accel, CLIMB.target_rate))
        assert ramped[2] == pytest.approx(13.0 - accel)  # decelerates to target

    def test_coc_leaves_rates_unchanged(self):
        rates = np.array([-3.0, 0.0, 7.0])
        np.testing.assert_array_equal(ramp_rates(rates, COC, 1.0), rates)

    def test_own_samples_probabilities(self):
        config = fast_preset()
        samples = own_rate_samples(config, CLIMB)
        assert sum(p for _, p in samples) == pytest.approx(1.0)

    def test_intruder_samples_are_white_noise(self):
        config = fast_preset()
        samples = intruder_rate_samples(config)
        # Zero-mean: expected rate change is 0.
        mean_change = sum(
            p * (rates[0] - config.rate_points[0]) for rates, p in samples
        )
        assert mean_change == pytest.approx(0.0, abs=1e-12)

    def test_relative_altitude_trapezoid(self):
        # Own climbs 0->2, intruder steady at 0: h loses the trapezoid
        # of the own-ship's climb: (0+2)/2 * 1 = 1.
        h = relative_altitude_change(
            np.array([0.0]), np.array([0.0]), np.array([2.0]),
            np.array([0.0]), np.array([0.0]), dt=1.0,
        )
        assert h[0] == pytest.approx(-1.0)


class TestRewards:
    def test_coc_rewarded(self):
        rewards = stage_reward_matrix(fast_preset())
        assert rewards[COC.index, COC.index] > 0

    def test_alert_costs_scale_with_strength(self):
        rewards = stage_reward_matrix(fast_preset())
        maintain_climb = rewards[CLIMB.index, CLIMB.index]
        maintain_strong = rewards[STRONG_CLIMB.index, STRONG_CLIMB.index]
        assert maintain_strong < maintain_climb < 0

    def test_reversal_more_expensive_than_maintaining(self):
        config = fast_preset()
        rewards = stage_reward_matrix(config)
        reversal = rewards[CLIMB.index, DESCEND.index]
        maintain = rewards[CLIMB.index, CLIMB.index]
        assert reversal <= maintain - config.reversal_cost

    def test_new_alert_charged(self):
        config = fast_preset()
        rewards = stage_reward_matrix(config)
        new_alert = rewards[COC.index, CLIMB.index]
        maintain = rewards[CLIMB.index, CLIMB.index]
        assert new_alert == pytest.approx(maintain - config.new_alert_cost)


class TestTerminalValues:
    def test_nmac_band_penalized(self):
        config = fast_preset()
        values = terminal_values(config).reshape(
            config.num_h, config.num_rate, config.num_rate
        )
        h = config.h_points
        inside = np.abs(h) < config.nmac_vertical
        assert np.all(values[inside] == -config.nmac_cost)
        assert np.all(values[~inside] == 0.0)


class TestTransitionMatrices:
    @pytest.mark.parametrize("advisory", ADVISORIES, ids=lambda a: a.name)
    def test_rows_are_distributions(self, advisory):
        config = AcasConfig(num_h=9, num_rate=5, horizon=5)
        matrix = build_action_transition(config, advisory)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)

    def test_climb_shifts_relative_altitude_down(self):
        # Starting co-altitude and level, a CLIMB advisory moves
        # probability mass toward negative h (intruder below).
        config = AcasConfig(num_h=21, num_rate=5, horizon=5)
        matrix = build_action_transition(config, CLIMB)
        from repro.acasx.logic_table import make_cube_grid

        grid = make_cube_grid(config)
        mid_rate = config.num_rate // 2
        mid_h = config.num_h // 2
        state = grid.flat_index(
            [np.array([mid_h]), np.array([mid_rate]), np.array([mid_rate])]
        )[0]
        row = np.asarray(matrix[state].todense()).ravel()
        h_values = grid.points()[:, 0]
        expected_h = float(row @ h_values)
        assert expected_h < 0.0

    @pytest.mark.parametrize("preset", ["test", "paper"])
    def test_matrices_match_committed_digests(self, preset):
        # Pins every bit of the five matrices, index dtypes included.
        # The unstable per-row sort in sum_duplicates sees each row's
        # entries in the order the builder writes them, so these
        # digests also pin that order.
        config = preset_config(preset)
        digest = hashlib.sha256()
        for advisory in ADVISORIES:
            matrix = build_action_transition(config, advisory)
            assert matrix.has_canonical_format
            for array in (matrix.indptr, matrix.indices, matrix.data):
                digest.update(array.dtype.name.encode())
                digest.update(array.tobytes())
        golden = json.loads(TABLE_GOLDEN.read_text())["transitions"]
        assert digest.hexdigest() == golden[preset]

    def test_build_holds_its_entries_about_once(self):
        # Every row has one entry per (own sample, intruder sample,
        # corner) before duplicates are summed; written straight into
        # int32 columns and float64 data, they take 12 bytes each.
        config = fast_preset()
        width = len(config.own_noise) * len(config.intruder_noise) * 8
        entry_bytes = config.cube_size * width * 12
        _, peak = traced_peak(
            lambda: build_action_transition(config, CLIMB)
        )
        assert peak < 2 * entry_bytes


class TestSolvedTable:
    def test_q_shape(self, tiny_table, tiny_config):
        assert tiny_table.q.shape == (
            tiny_config.horizon + 1,
            NUM_ADVISORIES,
            NUM_ADVISORIES,
            tiny_config.cube_size,
        )

    def test_stage0_is_terminal_values(self, tiny_table, tiny_config):
        expected = terminal_values(tiny_config)
        for s in range(NUM_ADVISORIES):
            for a in range(NUM_ADVISORIES):
                np.testing.assert_allclose(
                    tiny_table.q[0, s, a], expected, atol=1e-4
                )

    def test_values_bounded_by_costs(self, tiny_table, tiny_config):
        # No Q-value can be worse than collision plus max accumulated
        # action costs, nor better than the summed COC reward.
        worst = -(
            tiny_config.nmac_cost
            + tiny_config.horizon
            * (
                tiny_config.alert_cost
                + tiny_config.strong_alert_extra
                + tiny_config.reversal_cost
                + tiny_config.new_alert_cost
                + tiny_config.strengthen_cost
            )
        )
        best = tiny_config.horizon * tiny_config.coc_reward
        assert tiny_table.q.min() >= worst
        assert tiny_table.q.max() <= best + 1e-3

    def test_escalation_with_tau(self, test_table):
        # From co-altitude level flight: far out COC, mid-range alert.
        far = test_table.best_advisory(25.0, COC, 0.0, 0.0, 0.0)
        mid = test_table.best_advisory(15.0, COC, 0.0, 0.0, 0.0)
        assert far is COC
        assert mid.is_active

    def test_sense_follows_geometry(self, test_table):
        # Intruder well above: the logic must not climb into it.
        advisory = test_table.best_advisory(12.0, COC, 150.0, 0.0, 0.0)
        if advisory.is_active:
            assert advisory.sense.value < 0
        # Intruder well below: must not descend into it.
        advisory = test_table.best_advisory(12.0, COC, -150.0, 0.0, 0.0)
        if advisory.is_active:
            assert advisory.sense.value > 0

    def test_safe_separation_keeps_coc(self, test_table):
        advisory = test_table.best_advisory(20.0, COC, 290.0, 0.0, 0.0)
        assert advisory is COC

    def test_values_degrade_as_tau_shrinks_at_coaltitude(self, test_table):
        values = [
            test_table.q_values_at(tau, COC, 0.0, 0.0, 0.0).max()
            for tau in (20.0, 10.0, 5.0, 2.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_metadata_recorded(self, tiny_table):
        assert tiny_table.metadata["solver"] == "backward_induction"
        assert tiny_table.metadata["cube_size"] == tiny_table.config.cube_size

    def test_solve_peak_stays_under_twice_q(self):
        # Q, written once, plus the five summed transition matrices and
        # one transition build's unsummed entries at a time.
        table, peak = traced_peak(lambda: build_logic_table(fast_preset()))
        assert peak < 2 * table.q.nbytes
