"""Tests for repro.acasx.logic_table: interpolation, lookup, persistence."""

import numpy as np
import pytest

from repro.acasx.advisories import ADVISORIES, CLIMB, COC, NUM_ADVISORIES, AdvisorySense
from repro.acasx.config import AcasConfig
from repro.acasx.logic_table import LogicTable, make_cube_grid


class TestConstruction:
    def test_shape_validated(self, tiny_config):
        with pytest.raises(ValueError):
            LogicTable(tiny_config, np.zeros((2, 2, 2, 2)))

    def test_repr(self, tiny_table):
        assert "LogicTable" in repr(tiny_table)


class TestLookup:
    def test_q_values_shape(self, tiny_table):
        q = tiny_table.q_values_at(10.0, COC, 0.0, 0.0, 0.0)
        assert q.shape == (NUM_ADVISORIES,)

    def test_exact_grid_point_matches_storage(self, tiny_table):
        config = tiny_table.config
        h = config.h_points[3]
        r0 = config.rate_points[1]
        r1 = config.rate_points[2]
        tau = 7.0  # integer stage, no tau interpolation
        q = tiny_table.q_values_at(tau, CLIMB, h, r0, r1)
        flat = (
            3 * config.num_rate * config.num_rate
            + 1 * config.num_rate
            + 2
        )
        expected = tiny_table.q[7, CLIMB.index, :, flat]
        np.testing.assert_allclose(q, expected, rtol=1e-6)

    def test_tau_interpolation_between_stages(self, tiny_table):
        q_lo = tiny_table.q_values_at(7.0, COC, 0.0, 0.0, 0.0)
        q_hi = tiny_table.q_values_at(8.0, COC, 0.0, 0.0, 0.0)
        q_mid = tiny_table.q_values_at(7.5, COC, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(q_mid, (q_lo + q_hi) / 2, rtol=1e-5)

    def test_tau_clamped_to_horizon(self, tiny_table):
        horizon = tiny_table.config.horizon
        q_at = tiny_table.q_values_at(float(horizon), COC, 0.0, 0.0, 0.0)
        q_beyond = tiny_table.q_values_at(1e9, COC, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(q_at, q_beyond)

    def test_coords_clipped_to_grid(self, tiny_table):
        q_edge = tiny_table.q_values_at(5.0, COC, tiny_table.config.h_max, 0.0, 0.0)
        q_beyond = tiny_table.q_values_at(5.0, COC, 1e6, 0.0, 0.0)
        np.testing.assert_allclose(q_edge, q_beyond)

    def test_batch_matches_scalar(self, tiny_table):
        rng = np.random.default_rng(0)
        n = 32
        taus = rng.uniform(0, tiny_table.config.horizon, n)
        sras = rng.integers(0, NUM_ADVISORIES, n)
        coords = np.stack(
            [
                rng.uniform(-300, 300, n),
                rng.uniform(-13, 13, n),
                rng.uniform(-13, 13, n),
            ],
            axis=1,
        )
        batch = tiny_table.q_values_batch(taus, sras, coords)
        for i in range(n):
            scalar = tiny_table.q_values_at(
                taus[i], ADVISORIES[sras[i]], *coords[i]
            )
            np.testing.assert_allclose(batch[i], scalar, rtol=1e-5, atol=1e-4)


class TestBestAdvisory:
    def test_forbidden_sense_masked(self, test_table):
        unmasked = test_table.best_advisory(12.0, COC, 0.0, 0.0, 0.0)
        assert unmasked.is_active
        masked = test_table.best_advisory(
            12.0, COC, 0.0, 0.0, 0.0, forbidden_senses=[unmasked.sense]
        )
        assert masked.sense is not unmasked.sense

    def test_coc_always_allowed(self, test_table):
        advisory = test_table.best_advisory(
            12.0,
            COC,
            0.0,
            0.0,
            0.0,
            forbidden_senses=[AdvisorySense.UP, AdvisorySense.DOWN],
        )
        assert advisory is COC

    def test_policy_slice_shape(self, tiny_table):
        config = tiny_table.config
        slice_ = tiny_table.policy_slice(10.0, COC)
        assert slice_.shape == (config.num_h, config.num_rate)
        assert slice_.min() >= 0
        assert slice_.max() < NUM_ADVISORIES


def _q_values_batch_reference(table, tau, current_indices, coords):
    """The pre-refactor q_values_batch: a per-advisory loop of
    fancy-indexed sums.  Kept verbatim as the bitwise regression oracle
    for the single-gather implementation."""
    tau = np.asarray(tau, dtype=float)
    current_indices = np.asarray(current_indices, dtype=np.int64)
    n = tau.shape[0]
    k_float = np.clip(tau / table.config.dt, 0.0, table.config.horizon)
    k_lo = np.floor(k_float).astype(np.int64)
    k_hi = np.minimum(k_lo + 1, table.config.horizon)
    w_hi = k_float - k_lo

    indices, weights = table.grid.interp_table(coords)
    cube = table.config.cube_size
    flat_q = table.q.reshape(-1)
    out = np.empty((n, NUM_ADVISORIES))
    for a in range(NUM_ADVISORIES):
        base_lo = ((k_lo * NUM_ADVISORIES + current_indices)
                   * NUM_ADVISORIES + a) * cube
        base_hi = ((k_hi * NUM_ADVISORIES + current_indices)
                   * NUM_ADVISORIES + a) * cube
        q_lo = np.sum(flat_q[base_lo[:, None] + indices] * weights, axis=1)
        q_hi = np.sum(flat_q[base_hi[:, None] + indices] * weights, axis=1)
        out[:, a] = (1.0 - w_hi) * q_lo + w_hi * q_hi
    return out


class TestBatchLookupRegression:
    @pytest.mark.parametrize("n", [1, 7, 300, 1000])
    def test_bitwise_identical_to_reference(self, test_table, n):
        # The refactor (per-advisory loop -> one gather over an
        # (n, 2, NUM_ADVISORIES, corners) index block) must not change
        # a single output bit, at any batch width (crossing the
        # internal row-block boundary included).
        rng = np.random.default_rng(n)
        config = test_table.config
        tau = rng.uniform(-5.0, config.horizon * config.dt + 5.0, n)
        current = rng.integers(0, NUM_ADVISORIES, n)
        coords = np.stack(
            [
                rng.uniform(-1.5 * config.h_max, 1.5 * config.h_max, n),
                rng.uniform(-config.rate_max, config.rate_max, n),
                rng.uniform(-config.rate_max, config.rate_max, n),
            ],
            axis=1,
        )
        got = test_table.q_values_batch(tau, current, coords)
        expected = _q_values_batch_reference(test_table, tau, current, coords)
        np.testing.assert_array_equal(got, expected)


class TestPersistence:
    def test_bytes_round_trip(self, tiny_table):
        data = tiny_table.to_bytes()
        assert isinstance(data, bytes)
        loaded = LogicTable.from_bytes(data)
        np.testing.assert_array_equal(loaded.q, tiny_table.q)
        assert loaded.config == tiny_table.config
        assert loaded.metadata == tiny_table.metadata

    def test_bytes_are_a_header_then_raw_q(self, tiny_table):
        header, body = tiny_table.byte_parts()
        assert header + bytes(body) == tiny_table.to_bytes()
        assert len(header) % 64 == 0  # Q starts aligned
        assert bytes(body) == np.ascontiguousarray(tiny_table.q).tobytes()
        assert np.shares_memory(np.frombuffer(body, np.uint8), tiny_table.q)

    def test_from_bytes_views_q_without_copying(self, tiny_table):
        data = tiny_table.to_bytes()
        loaded = LogicTable.from_bytes(data)
        assert np.shares_memory(loaded.q, np.frombuffer(data, np.uint8))
        assert loaded.q.flags.aligned and not loaded.q.flags.writeable
        np.testing.assert_array_equal(
            loaded.q_values_batch(np.array([3.0]), np.array([0]),
                                  np.array([[10.0, 1.0, -1.0]])),
            tiny_table.q_values_batch(np.array([3.0]), np.array([0]),
                                      np.array([[10.0, 1.0, -1.0]])),
        )

    def test_truncated_bytes_are_refused(self, tiny_table):
        data = tiny_table.to_bytes()
        with pytest.raises(ValueError):
            LogicTable.from_bytes(data[:-4])
        with pytest.raises(ValueError, match="bytes of Q"):
            LogicTable.from_bytes(data + b"\0" * 4)

    def test_save_load_round_trip(self, tiny_table, tmp_path):
        path = tmp_path / "table.npz"
        tiny_table.save(path)
        loaded = LogicTable.load(path)
        np.testing.assert_array_equal(loaded.q, tiny_table.q)
        assert loaded.config == tiny_table.config
        assert loaded.metadata == tiny_table.metadata

    def test_loaded_table_lookups_match(self, tiny_table, tmp_path):
        path = tmp_path / "table.npz"
        tiny_table.save(path)
        loaded = LogicTable.load(path)
        q1 = tiny_table.q_values_at(9.3, CLIMB, 12.0, -1.0, 2.0)
        q2 = loaded.q_values_at(9.3, CLIMB, 12.0, -1.0, 2.0)
        np.testing.assert_allclose(q1, q2)


class TestCubeGrid:
    def test_axes_match_config(self, tiny_config):
        grid = make_cube_grid(tiny_config)
        assert grid.axis("h").num == tiny_config.num_h
        assert grid.axis("dh0").num == tiny_config.num_rate
        assert grid.axis("dh1").num == tiny_config.num_rate
        assert grid.size == tiny_config.cube_size
