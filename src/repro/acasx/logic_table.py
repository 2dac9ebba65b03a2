"""The generated logic table: storage, interpolation, lookup.

The offline solve (:mod:`repro.acasx.solver`) produces, for every
decision stage *k* (seconds of time-to-CPA remaining), current advisory
state, candidate action and grid point of the (h, ḣ₀, ḣ₁) cube, the
expected reward-to-go ``Q[k, sRA, a, cube]``.  Online, the controller
asks for the Q-values at a *continuous* state: the table multilinearly
interpolates over the cube and linearly over τ — the "interpolation"
machinery Section IV of the paper flags as validation-relevant.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.acasx.advisories import ADVISORIES, NUM_ADVISORIES, Advisory, AdvisorySense
from repro.acasx.config import AcasConfig
from repro.mdp.grid import Grid, UniformAxis


#: Rows per block of the vectorized Q lookup: 256 rows × 2 stages ×
#: NUM_ADVISORIES × 8 corners of float64 ≈ 160 KB of temporaries, small
#: enough to stay in cache at any batch width.
_Q_BATCH_BLOCK = 256

#: The raw byte layout's header-length prefix, and the boundary its
#: padded header ends on, so Q is an aligned view of the buffer.
_LENGTH = struct.Struct("<Q")
_Q_ALIGN = 64

#: The :class:`AcasConfig` fields both byte layouts record.
_CONFIG_KEYS = (
    "h_max",
    "num_h",
    "rate_max",
    "num_rate",
    "horizon",
    "dt",
    "own_noise",
    "intruder_noise",
    "nmac_cost",
    "nmac_vertical",
    "alert_cost",
    "strong_alert_extra",
    "coc_reward",
    "reversal_cost",
    "strengthen_cost",
    "new_alert_cost",
    "conflict_horizontal_radius",
)


def make_cube_grid(config: AcasConfig) -> Grid:
    """The (h, ḣ₀, ḣ₁) interpolation grid for *config*."""
    return Grid(
        [
            UniformAxis("h", -config.h_max, config.h_max, config.num_h),
            UniformAxis("dh0", -config.rate_max, config.rate_max, config.num_rate),
            UniformAxis("dh1", -config.rate_max, config.rate_max, config.num_rate),
        ]
    )


class LogicTable:
    """Solved ACAS XU-like logic.

    Parameters
    ----------
    config:
        The model configuration the table was solved under.
    q_values:
        Array of shape ``(horizon + 1, num_advisories, num_advisories,
        cube_size)``: stage ``k`` (0 = terminal), current advisory
        state, candidate action, flattened cube.  Stage 0 holds the
        terminal values broadcast across actions so τ→0 lookups blend
        into the terminal cost.
    metadata:
        Provenance (solver settings, build time).
    """

    def __init__(
        self,
        config: AcasConfig,
        q_values: np.ndarray,
        metadata: Optional[Dict[str, object]] = None,
    ):
        expected = (
            config.horizon + 1,
            NUM_ADVISORIES,
            NUM_ADVISORIES,
            config.cube_size,
        )
        q_values = np.asarray(q_values, dtype=np.float32)
        if q_values.shape != expected:
            raise ValueError(
                f"q_values has shape {q_values.shape}, expected {expected}"
            )
        self.config = config
        self.q = q_values
        self.grid = make_cube_grid(config)
        self.metadata: Dict[str, object] = dict(metadata or {})

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def q_values_at(
        self,
        tau: float,
        current: Advisory,
        h: float,
        own_rate: float,
        intruder_rate: float,
    ) -> np.ndarray:
        """Interpolated Q-values of every action at a continuous state.

        Parameters
        ----------
        tau:
            Seconds until the horizontal closest point of approach.
            Clamped to ``[0, horizon * dt]``.
        current:
            The advisory currently displayed (hysteresis state).
        h, own_rate, intruder_rate:
            Continuous relative altitude (m) and vertical rates (m/s).

        Returns
        -------
        Array of shape ``(num_advisories,)``.
        """
        k_float = float(np.clip(tau / self.config.dt, 0.0, self.config.horizon))
        k_lo = int(np.floor(k_float))
        k_hi = min(k_lo + 1, self.config.horizon)
        w_hi = k_float - k_lo

        coords = np.array([[h, own_rate, intruder_rate]])
        indices, weights = self.grid.interp_table(coords)
        indices, weights = indices[0], weights[0]

        q_lo = self.q[k_lo, current.index][:, indices] @ weights
        if k_hi == k_lo or w_hi == 0.0:
            return q_lo.astype(float)
        q_hi = self.q[k_hi, current.index][:, indices] @ weights
        return ((1.0 - w_hi) * q_lo + w_hi * q_hi).astype(float)

    def q_values_batch(
        self,
        tau: np.ndarray,
        current_indices: np.ndarray,
        coords: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`q_values_at` for *n* independent states.

        Parameters
        ----------
        tau:
            Shape ``(n,)`` times to CPA, seconds.
        current_indices:
            Shape ``(n,)`` advisory-state indices.
        coords:
            Shape ``(n, 3)`` of ``(h, own_rate, intruder_rate)``.

        Returns
        -------
        Array of shape ``(n, num_advisories)``.
        """
        tau = np.asarray(tau, dtype=float)
        current_indices = np.asarray(current_indices, dtype=np.int64)
        k_float = np.clip(tau / self.config.dt, 0.0, self.config.horizon)
        k_lo = np.floor(k_float).astype(np.int64)
        k_hi = np.minimum(k_lo + 1, self.config.horizon)
        w_hi = k_float - k_lo

        indices, weights = self.grid.interp_table(coords)  # (n, 8)
        cube = self.config.cube_size
        flat_q = self.q.reshape(-1)
        # One gather over an (n, 2, NUM_ADVISORIES, corners) index block
        # instead of a per-advisory Python loop: the flat offset of
        # corner c of action a at stage k is
        # ((k * A + current) * A + a) * cube + indices[c]; the second
        # axis packs the bracketing stages (k_lo, k_hi) so both ends of
        # the tau interpolation come out of a single fancy index.
        action_offsets = np.arange(NUM_ADVISORIES, dtype=np.int64) * cube
        stages = np.stack([k_lo, k_hi], axis=1)  # (n, 2)
        blocks = (
            ((stages * NUM_ADVISORIES + current_indices[:, None])
             * NUM_ADVISORIES * cube)[:, :, None] + action_offsets
        )  # (n, 2, A)
        n = tau.shape[0]
        out = np.empty((n, NUM_ADVISORIES))
        # Evaluate in row blocks so the gathered float64 temporaries
        # stay cache-sized at megabatch widths; every op is row-wise,
        # so blocking cannot change any output bit.
        for start in range(0, n, _Q_BATCH_BLOCK):
            rows = slice(start, min(start + _Q_BATCH_BLOCK, n))
            wb = w_hi[rows]
            if not wb.any():
                # Degenerate tau interpolation for the whole block —
                # every lane clipped at the horizon (tau beyond the
                # table, the pre-CPA bulk of long encounters) or sitting
                # exactly on a stage.  The k_hi gather would be multi-
                # plied by 0 and the k_lo one by 1, so skip both: half
                # the gather traffic, same values out.
                gathered = flat_q[
                    blocks[rows, 0, :, None] + indices[rows, None, :]
                ]
                out[rows] = np.sum(gathered * weights[rows, None, :], axis=2)
                continue
            gathered = flat_q[
                blocks[rows, :, :, None] + indices[rows, None, None, :]
            ]
            q_pair = np.sum(gathered * weights[rows, None, None, :], axis=3)
            out[rows] = (
                (1.0 - wb)[:, None] * q_pair[:, 0]
                + wb[:, None] * q_pair[:, 1]
            )
        return out

    def best_advisory(
        self,
        tau: float,
        current: Advisory,
        h: float,
        own_rate: float,
        intruder_rate: float,
        forbidden_senses: Sequence[AdvisorySense] = (),
    ) -> Advisory:
        """The Q-maximizing advisory, honouring coordination locks.

        Advisories whose sense appears in *forbidden_senses* are masked
        out; COC is always permitted.
        """
        q = self.q_values_at(tau, current, h, own_rate, intruder_rate)
        forbidden = set(forbidden_senses) - {AdvisorySense.NONE}
        for advisory in ADVISORIES:
            if advisory.is_active and advisory.sense in forbidden:
                q[advisory.index] = -np.inf
        return ADVISORIES[int(np.argmax(q))]

    def policy_slice(
        self,
        tau: float,
        current: Advisory,
        intruder_rate: float = 0.0,
    ) -> np.ndarray:
        """Action indices over the (h, ḣ₀) plane — for plots and tests.

        Evaluates the greedy policy on the grid's own points at a fixed
        τ, advisory state and intruder rate.  Shape ``(num_h, num_rate)``.
        """
        h_points = self.config.h_points
        rate_points = self.config.rate_points
        out = np.zeros((len(h_points), len(rate_points)), dtype=np.int64)
        for i, h in enumerate(h_points):
            for j, rate in enumerate(rate_points):
                advisory = self.best_advisory(tau, current, h, rate, intruder_rate)
                out[i, j] = advisory.index
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Store the table (compressed npz + JSON config/metadata)."""
        self._write_npz(Path(path))

    def to_bytes(self) -> bytes:
        """The table as raw bytes: :meth:`byte_parts`, joined.

        The fleet path never joins them: the work queue streams the
        parts into its table rows rather than build one more 28 MB
        object.  :meth:`from_bytes` reads either form back.
        """
        return b"".join(self.byte_parts())

    def byte_parts(self) -> Tuple[bytes, memoryview]:
        """The raw byte layout as two buffers, without copying Q.

        The first buffer is a little-endian ``uint64`` header length,
        then a JSON header (config, metadata, dtype, shape) padded with
        spaces so Q starts on a 64-byte boundary; the second is a byte
        view of Q in C order.  There is no compression: at paper
        resolution zlib spent over a second to shrink 28.4 MB of Q to
        16.2 MB, while copying or hashing the raw bytes takes
        hundredths of one.
        """
        q = np.ascontiguousarray(self.q)
        header = json.dumps({
            "config": self._config_dict(),
            "metadata": self.metadata,
            "dtype": q.dtype.str,
            "shape": list(q.shape),
        }).encode()
        pad = -(_LENGTH.size + len(header)) % _Q_ALIGN
        header += b" " * pad
        return _LENGTH.pack(len(header)) + header, memoryview(q).cast("B")

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogicTable":
        """Rebuild a table from :meth:`to_bytes` output.

        Q is a read-only view of *data* (``np.frombuffer``), not a
        copy, so the table keeps *data* alive.
        """
        (size,) = _LENGTH.unpack_from(data)
        start = _LENGTH.size + size
        header = json.loads(bytes(memoryview(data)[_LENGTH.size:start]))
        shape = tuple(header["shape"])
        q = np.frombuffer(
            data, dtype=np.dtype(header["dtype"]),
            count=int(np.prod(shape)), offset=start,
        ).reshape(shape)
        if start + q.nbytes != len(data):
            raise ValueError(
                f"logic table bytes hold {len(data) - start} bytes of Q "
                f"after the header, expected {q.nbytes}"
            )
        return cls(
            config=cls._config_from_dict(header["config"]),
            q_values=q,
            metadata=header["metadata"],
        )

    def _config_dict(self) -> Dict[str, object]:
        return {key: getattr(self.config, key) for key in _CONFIG_KEYS}

    @staticmethod
    def _config_from_dict(config_dict: Dict[str, object]) -> AcasConfig:
        for key in ("own_noise", "intruder_noise"):
            config_dict[key] = tuple(
                tuple(pair) for pair in config_dict[key]
            )
        return AcasConfig(**config_dict)

    def _write_npz(self, target) -> None:
        np.savez_compressed(
            target,
            q=self.q,
            config=np.array(json.dumps(self._config_dict())),
            metadata=np.array(json.dumps(self.metadata)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "LogicTable":
        """Load a table previously stored with :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            return cls._from_npz(data)

    @classmethod
    def _from_npz(cls, data) -> "LogicTable":
        return cls(
            config=cls._config_from_dict(json.loads(str(data["config"]))),
            q_values=data["q"],
            metadata=json.loads(str(data["metadata"])),
        )

    def __repr__(self) -> str:
        c = self.config
        return (
            f"LogicTable(horizon={c.horizon}, grid={c.num_h}x{c.num_rate}"
            f"x{c.num_rate}, advisories={NUM_ADVISORIES})"
        )
