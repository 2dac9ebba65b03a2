"""Tests for repro.acasx.logic_table: interpolation, lookup, persistence."""

import json
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from repro.acasx.advisories import ADVISORIES, CLIMB, COC, NUM_ADVISORIES, AdvisorySense
from repro.acasx.config import AcasConfig
from repro.acasx.logic_table import LogicTable, make_cube_grid
from repro.encounters import head_on_encounter
from repro.sim import BatchEncounterSimulator


class TestConstruction:
    def test_shape_validated(self, tiny_config):
        with pytest.raises(ValueError):
            LogicTable(tiny_config, np.zeros((2, 2, 2, 2)))

    def test_repr(self, tiny_table):
        assert "LogicTable" in repr(tiny_table)

    def test_q_is_read_only(self, tiny_table):
        assert not tiny_table.q.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tiny_table.q[0, 0, 0, 0] = 1.0

    def test_canonical_q_is_copied_and_read_only(self, tiny_table):
        canonical = tiny_table.q.copy()
        table = LogicTable(tiny_table.config, canonical)
        assert not np.shares_memory(table.q, canonical)
        assert canonical.flags.writeable and not table.q.flags.writeable
        np.testing.assert_array_equal(table.q, tiny_table.q)

    def test_corner_major_view_is_taken_without_copying(self, tiny_table):
        # What the solver hands over: a canonical view of a C-contiguous
        # [k, sRA, cube, a] array.
        rows = np.ascontiguousarray(tiny_table.q.transpose(0, 1, 3, 2))
        table = LogicTable(tiny_table.config, rows.transpose(0, 1, 3, 2))
        assert np.shares_memory(table.q, rows)
        np.testing.assert_array_equal(table.q, tiny_table.q)

    def test_pickle_carries_one_read_only_copy_of_q(self, tiny_table):
        data = pickle.dumps(tiny_table)
        assert len(data) < 1.5 * tiny_table.q.nbytes
        loaded = pickle.loads(data)
        assert not loaded.q.flags.writeable
        np.testing.assert_array_equal(loaded.q, tiny_table.q)


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


STATE_ARGUMENTS = ("tau", "h", "own_rate", "intruder_rate")


def lookup_state(nan_at=None):
    """tau, h, own_rate, intruder_rate of one state, NaN in *nan_at*."""
    state = [10.0, 20.0, 1.0, -1.0]
    if nan_at is not None:
        state[STATE_ARGUMENTS.index(nan_at)] = float("nan")
    return state


class TestNanState:
    """A NaN state has no verdict: every lookup refuses it with one
    ValueError naming the argument, while infinities still clamp."""

    @pytest.mark.parametrize("name", STATE_ARGUMENTS)
    def test_q_values_at_names_the_argument(self, tiny_table, name):
        tau, h, own_rate, intruder_rate = lookup_state(name)
        with pytest.raises(ValueError, match=f"^{name} is NaN$"):
            tiny_table.q_values_at(tau, COC, h, own_rate, intruder_rate)

    @pytest.mark.parametrize("name", STATE_ARGUMENTS)
    def test_best_advisory_names_the_argument(self, tiny_table, name):
        tau, h, own_rate, intruder_rate = lookup_state(name)
        with pytest.raises(ValueError, match=f"^{name} is NaN$"):
            tiny_table.best_advisory(tau, COC, h, own_rate, intruder_rate)

    def test_policy_slice_names_the_argument(self, tiny_table):
        with pytest.raises(ValueError, match="^tau is NaN$"):
            tiny_table.policy_slice(float("nan"), COC)
        with pytest.raises(ValueError, match="^intruder_rate is NaN$"):
            tiny_table.policy_slice(10.0, COC, intruder_rate=float("nan"))

    @pytest.mark.parametrize("lanes_last", [False, True])
    @pytest.mark.parametrize("name", STATE_ARGUMENTS)
    def test_q_values_batch_names_the_argument_and_row(
        self, tiny_table, name, lanes_last
    ):
        states = np.array([lookup_state()] * 4)
        states[2] = lookup_state(name)
        coords = states[:, 1:]
        if lanes_last:  # the kernel's (3, n) array, passed as its .T
            coords = np.ascontiguousarray(coords.T).T
        with pytest.raises(ValueError, match=f"^{name} is NaN in row 2$"):
            tiny_table.q_values_batch(states[:, 0], np.zeros(4), coords)

    @pytest.mark.parametrize("name", STATE_ARGUMENTS)
    def test_decided_advisories_names_the_argument_and_row(
        self, tiny_table, name
    ):
        states = np.array([lookup_state()] * 4)
        states[2] = lookup_state(name)
        with pytest.raises(ValueError, match=f"^{name} is NaN in row 2$"):
            tiny_table.decided_advisories(
                states[:, 0], np.zeros(4), states[:, 1:]
            )

    def test_infinities_clamp_onto_the_table(self, tiny_table):
        config = tiny_table.config
        inf = float("inf")
        edge = (config.horizon * config.dt, -config.h_max,
                config.rate_max, -config.rate_max)
        q_edge = tiny_table.q_values_at(edge[0], COC, *edge[1:])
        q_inf = tiny_table.q_values_at(inf, COC, -inf, inf, -inf)
        np.testing.assert_allclose(q_inf, q_edge)
        batch = tiny_table.q_values_batch(
            np.array([inf, edge[0]]), np.zeros(2),
            np.array([[-inf, inf, -inf], edge[1:]]),
        )
        np.testing.assert_allclose(batch, [q_edge, q_edge])


def _stage_sums_reference(table, tau, current_indices, coords):
    """The pre-refactor q_values_batch up to its stage blend: a
    per-advisory loop of fancy-indexed sums over the canonical
    ``[k, sRA, a, cube]`` Q.  Returns ``(w_hi, q_lo, q_hi)``; kept as
    the bitwise regression oracle of the corner-major lookup."""
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
    q_lo = np.empty((n, NUM_ADVISORIES))
    q_hi = np.empty((n, NUM_ADVISORIES))
    for a in range(NUM_ADVISORIES):
        base_lo = ((k_lo * NUM_ADVISORIES + current_indices)
                   * NUM_ADVISORIES + a) * cube
        base_hi = ((k_hi * NUM_ADVISORIES + current_indices)
                   * NUM_ADVISORIES + a) * cube
        q_lo[:, a] = np.sum(flat_q[base_lo[:, None] + indices] * weights, axis=1)
        q_hi[:, a] = np.sum(flat_q[base_hi[:, None] + indices] * weights, axis=1)
    return w_hi, q_lo, q_hi


def _q_values_batch_reference(table, tau, current_indices, coords):
    w_hi, q_lo, q_hi = _stage_sums_reference(table, tau, current_indices, coords)
    return (1.0 - w_hi)[:, None] * q_lo + w_hi[:, None] * q_hi


def _lookup_rows(config, n, seed, on_stage=False):
    """*n* random lookup rows; *on_stage* puts every τ on a stage or at
    or past the horizon, so the τ interpolation weight is 0."""
    rng = np.random.default_rng(seed)
    if on_stage:
        tau = rng.integers(0, config.horizon + 4, n) * config.dt
    else:
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
    return tau, current, coords


def _assert_same_bytes(got, expected):
    # Raw bytes: assert_array_equal alone treats -0.0 and +0.0 as equal.
    assert got.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestBatchLookupRegression:
    @pytest.mark.parametrize("n", [1, 7, 300, 1000, 1023, 1024, 1025, 5000])
    def test_bitwise_identical_to_reference(self, test_table, n):
        # The corner-major gather must not change a single output bit,
        # at any batch width (crossing the internal row blocks included).
        rows = _lookup_rows(test_table.config, n, seed=n)
        got = test_table.q_values_batch(*rows)
        _assert_same_bytes(got, _q_values_batch_reference(test_table, *rows))

    @pytest.mark.parametrize("n", [7, 1500])
    def test_rows_on_a_stage_equal_the_lower_stage(self, test_table, n):
        # τ on a stage or past the horizon: the upper stage enters with
        # weight 0, so each row reads its lower stage's sum bit for bit.
        rows = _lookup_rows(test_table.config, n, seed=n, on_stage=True)
        w_hi, q_lo, _ = _stage_sums_reference(test_table, *rows)
        assert (w_hi == 0.0).all()
        got = test_table.q_values_batch(*rows)
        _assert_same_bytes(got, q_lo)
        _assert_same_bytes(got, _q_values_batch_reference(test_table, *rows))

    def test_paper_table_mixed_rows(self, paper_table):
        config = paper_table.config
        inside = _lookup_rows(config, 2000, seed=1)
        on_stage = _lookup_rows(config, 500, seed=2, on_stage=True)
        rows = [np.concatenate(parts) for parts in zip(inside, on_stage)]
        got = paper_table.q_values_batch(*rows)
        _assert_same_bytes(got, _q_values_batch_reference(paper_table, *rows))


def _pre_corner_major_bytes(table):
    """to_bytes() as written before Q was stored corner-major: no
    ``layout`` key, a canonical [k, sRA, a, cube] body."""
    q = np.ascontiguousarray(table.q)
    header = json.dumps({
        "config": table._config_dict(),
        "metadata": table.metadata,
        "dtype": q.dtype.str,
        "shape": list(q.shape),
    }).encode()
    header += b" " * (-(8 + len(header)) % 64)
    return struct.pack("<Q", len(header)) + header + q.tobytes()


def _pre_corner_major_from_bytes(data):
    """from_bytes() as written before Q was stored corner-major."""
    (size,) = struct.unpack_from("<Q", data)
    start = 8 + size
    header = json.loads(bytes(memoryview(data)[8:start]))
    shape = tuple(header["shape"])
    q = np.frombuffer(
        data, dtype=np.dtype(header["dtype"]),
        count=int(np.prod(shape)), offset=start,
    ).reshape(shape)
    return LogicTable(
        config=LogicTable._config_from_dict(header["config"]),
        q_values=q,
        metadata=header["metadata"],
    )


class TestOlderTables:
    """Tables written before the corner-major layout still load, with
    the same digest and the same lookups bit for bit."""

    def assert_same_table(self, loaded, table):
        from repro.store import table_digest

        assert table_digest(loaded) == table_digest(table)
        assert not loaded.q.flags.writeable
        rows = _lookup_rows(table.config, 300, seed=3)
        _assert_same_bytes(loaded.q_values_batch(*rows),
                          table.q_values_batch(*rows))

    def test_canonical_byte_row_loads(self, test_table):
        loaded = LogicTable.from_bytes(_pre_corner_major_bytes(test_table))
        self.assert_same_table(loaded, test_table)

    def test_canonical_npz_cache_file_loads(self, test_table, tmp_path):
        path = tmp_path / "table.npz"
        np.savez_compressed(
            path,
            q=np.ascontiguousarray(test_table.q),
            config=np.array(json.dumps(test_table._config_dict())),
            metadata=np.array(json.dumps(test_table.metadata)),
        )
        self.assert_same_table(LogicTable.load(path), test_table)

    def test_cache_file_keeps_canonical_q(self, tiny_table, tmp_path):
        path = tmp_path / "table.npz"
        tiny_table.save(path)
        with np.load(path) as data:
            assert data["q"].shape == tiny_table.q.shape
            np.testing.assert_array_equal(data["q"], tiny_table.q)

    def test_older_reader_refuses_a_corner_major_row(self, tiny_table):
        # The header records the shape of the body it carries, so a
        # reader that predates the layout fails its shape check instead
        # of reading corner-major bytes as canonical ones.
        with pytest.raises(ValueError, match="q_values has shape"):
            _pre_corner_major_from_bytes(tiny_table.to_bytes())

    def test_unknown_layout_is_refused(self, tiny_table):
        header, body = tiny_table.byte_parts()
        forged = header.replace(b'"layout": "k,', b'"layout": "K,')
        with pytest.raises(ValueError, match="unknown logic table Q layout"):
            LogicTable.from_bytes(forged + bytes(body))


class TestPersistence:
    def test_loading_a_saved_table_holds_one_copy_of_q(
        self, test_table, tmp_path
    ):
        # The npz member is read block by block into the corner-major
        # array, never materialized in canonical order beside it.
        path = tmp_path / "table.npz"
        test_table.save(path)
        tracemalloc.start()
        try:
            loaded = LogicTable.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * loaded.q.nbytes
        np.testing.assert_array_equal(loaded.q, test_table.q)

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
        # The body is Q corner-major, [k, sRA, cube, a], as stored.
        rows = tiny_table.q.transpose(0, 1, 3, 2)
        fields = json.loads(header[8:])
        assert fields["shape"] == list(rows.shape)
        assert fields["layout"] == "k,current,cube,action"
        assert bytes(body) == np.ascontiguousarray(rows).tobytes()
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


class TestDecidedIndex:
    """The decided index is derived from Q: built once per table, on
    first use, and never pickled.  (Its answers are checked against
    interpolation in ``test_properties.py``.)"""

    def test_a_lead_inside_the_margin_stays_open(self, tiny_table):
        # One stage where CLIMB leads every other COC-row action by
        # 1e-12, far inside 2**-40 of the slab's largest |Q| (about
        # 1e4 * 9.1e-13), then the same stage with a clear lead.
        q = tiny_table.q.copy()
        q[5, COC.index] = 0.0
        q[5, COC.index, CLIMB.index] = 1e-12
        assert (LogicTable(tiny_table.config, q)._decided_index()[5]
                == -1).all()
        q[5, COC.index, CLIMB.index] = 1.0
        index = LogicTable(tiny_table.config, q)._decided_index()[5]
        cells = tiny_table.grid.cells(tiny_table.grid.points())
        assert (index[np.unique(cells)] == CLIMB.index).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_q_answers_nothing(self, tiny_table, value):
        q = tiny_table.q.copy()
        assert (LogicTable(tiny_table.config, q)._decided_index() >= 0).any()
        q[3, COC.index, 2, 0] = value
        assert (LogicTable(tiny_table.config, q)._decided_index() == -1).all()

    @staticmethod
    def fresh(table):
        # An unpickled copy has not built its index yet.
        return pickle.loads(pickle.dumps(table))

    @staticmethod
    def decide(table):
        result = BatchEncounterSimulator(table).run(
            head_on_encounter(), 50, seed=1
        )
        return [
            getattr(result, name).tobytes() for name in (
                "min_separation", "min_horizontal", "nmac",
                "own_alerted", "intruder_alerted",
            )
        ]

    def test_pickles_leave_the_index_out(self, test_table):
        table = self.fresh(test_table)
        before = len(pickle.dumps(table))
        runs = self.decide(table)
        assert table._decided is not None
        data = pickle.dumps(table)
        assert len(data) == before
        clone = pickle.loads(data)
        assert clone._decided is None
        assert self.decide(clone) == runs
        assert clone._decided.tobytes() == table._decided.tobytes()

    def test_a_second_decision_reuses_the_index(self, test_table):
        table = self.fresh(test_table)
        self.decide(table)
        index = table._decided
        self.decide(table)
        assert table._decided is index

    def test_the_index_is_read_only(self, tiny_table):
        index = LogicTable(tiny_table.config, tiny_table.q)._decided_index()
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = CLIMB.index

    def test_build_holds_a_few_stage_blocks(self, test_table):
        # The bound is the int8 index plus four stage blocks (one
        # stage's COC-row Q as float64), under a tenth of Q on this
        # preset: room for a stage's temporaries, never for a slab.
        table = self.fresh(test_table)
        config = table.config
        index_bytes = (config.horizon + 1) * config.cube_size
        stage_block = config.cube_size * NUM_ADVISORIES * 8
        tracemalloc.start()
        try:
            table._decided_index()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < index_bytes + 4 * stage_block


class TestCubeGrid:
    def test_axes_match_config(self, tiny_config):
        grid = make_cube_grid(tiny_config)
        assert grid.axis("h").num == tiny_config.num_h
        assert grid.axis("dh0").num == tiny_config.num_rate
        assert grid.axis("dh1").num == tiny_config.num_rate
        assert grid.size == tiny_config.cube_size
