"""The generated logic table: storage, interpolation, lookup.

The offline solve (:mod:`repro.acasx.solver`) produces, for every
decision stage *k* (seconds of time-to-CPA remaining), current advisory
state, candidate action and grid point of the (h, ḣ₀, ḣ₁) cube, the
expected reward-to-go ``Q[k, sRA, a, cube]``.  Online, the controller
asks for the Q-values at a *continuous* state: the table multilinearly
interpolates over the cube and linearly over τ — the "interpolation"
machinery Section IV of the paper flags as validation-relevant.

The table stores Q corner-major, ``[k, sRA, cube, a]``: the values of
every action at one cube corner are one contiguous row, so a lookup
gathers a row per corner instead of a value per corner and action.

The simulation kernel needs only the argmax of a lookup, and for a
state clear of conflict (COC) that argmax is often settled before any
interpolation: one advisory beats every other at all corners the state
blends.  :meth:`LogicTable.decided_advisories` answers such states from
a small index of those cells, derived from Q on first use and never
stored or shipped; every other state goes through
:meth:`LogicTable.q_values_batch`.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.acasx.advisories import (
    ADVISORIES,
    COC,
    NUM_ADVISORIES,
    Advisory,
    AdvisorySense,
)
from repro.acasx.config import AcasConfig
from repro.mdp.grid import Grid, UniformAxis


#: Rows per block of the vectorized Q lookup: 512 rows × 2 stages ×
#: 8 corners × NUM_ADVISORIES of float64 is 320 KB, so a block's
#: temporaries stay cache-sized at any batch width.
_LOOKUP_BLOCK = 512

#: By how much, as a fraction of the largest |Q| in the COC slab, an
#: advisory must beat every other at a cell's corners for the decided
#: index to name it.  Derived, not tuned: an interpolated value lies
#: within about a dozen float64 roundings (under 2**-49 of that |Q|) of
#: its exact convex combination, so 2**-40 leaves a wide safety factor
#: (:meth:`LogicTable.decided_advisories`).
_DECIDED_MARGIN = 2.0 ** -40

#: The raw byte layout's header-length prefix, and the boundary its
#: padded header ends on, so Q is an aligned view of the buffer.
_LENGTH = struct.Struct("<Q")
_Q_ALIGN = 64

#: The header's name for a corner-major body.  A header without a
#: ``layout`` key carries a canonical ``[k, sRA, a, cube]`` body.
_CORNER_MAJOR = "k,current,cube,action"

#: A lookup's state arguments: ``tau``, then ``coords``' columns.
_STATE_NAMES = ("tau", "h", "own_rate", "intruder_rate")

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


def _read_corner_major(member) -> np.ndarray:
    """Read a canonical ``[k, sRA, a, cube]`` ``.npy`` stream into a new
    corner-major ``[k, sRA, cube, a]`` float32 array.

    The stream is read one ``(k, sRA)`` block of ``a × cube`` values at
    a time, so besides the array only a block's bytes (and the
    decompressor's buffers, a few times their size) are ever held.
    """
    # np.save writes format 1.0 unless the header outgrows 64 KiB.
    version = np.lib.format.read_magic(member)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
        member
    )
    if fortran_order or len(shape) != 4:
        raise ValueError(
            f"Q must be a C-order 4-D array, got shape {shape} "
            f"(fortran_order={fortran_order})"
        )
    stages, current, actions, cube = shape
    q_rows = np.empty((stages, current, cube, actions), dtype=np.float32)
    block_bytes = dtype.itemsize * actions * cube
    for block in q_rows.reshape(-1, cube, actions):
        raw = member.read(block_bytes)
        if len(raw) != block_bytes:
            raise ValueError("logic table Q ends before its last stage")
        block[...] = np.frombuffer(raw, dtype=dtype).reshape(actions, cube).T
    return q_rows


class LogicTable:
    """Solved ACAS XU-like logic.

    Q is held once, corner-major: a read-only C-contiguous float32
    array ``[k, sRA, cube, a]``, so the ``NUM_ADVISORIES`` action values
    of one cube point are 20 contiguous bytes.  :attr:`q` is a
    zero-copy view of it in the canonical ``[k, sRA, a, cube]`` order,
    which is the order ``table_digest``, the npz cache and every
    reader of ``table.q`` see.  The table stores no other view, so a
    pickled table carries one copy of Q.  The only other array it
    holds, the decided-advisory index of :meth:`decided_advisories`, is
    built from Q on first use and left out of pickles.

    Parameters
    ----------
    config:
        The model configuration the table was solved under.
    q_values:
        Array of shape ``(horizon + 1, num_advisories, num_advisories,
        cube_size)``: stage ``k`` (0 = terminal), current advisory
        state, candidate action, flattened cube.  Stage 0 holds the
        terminal values broadcast across actions so τ→0 lookups blend
        into the terminal cost.  A float32 canonical view of a
        corner-major C-contiguous array (what the solver and
        :meth:`from_bytes` pass) is taken as it is; any other array is
        copied into corner-major order.  Either way the table's Q is
        read-only.
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
        q_values = np.asarray(q_values)
        if q_values.shape != expected:
            raise ValueError(
                f"q_values has shape {q_values.shape}, expected {expected}"
            )
        self.config = config
        self._q_rows = np.ascontiguousarray(
            q_values.transpose(0, 1, 3, 2), dtype=np.float32
        )
        self._q_rows.flags.writeable = False
        self.grid = make_cube_grid(config)
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._decided: Optional[np.ndarray] = None

    def __getstate__(self):
        # The decided index is derived from Q: a copy rebuilds it.
        state = self.__dict__.copy()
        del state["_decided"]
        return state

    def __setstate__(self, state) -> None:
        # Unpickled arrays come back writeable; the table's Q never is.
        self.__dict__.update(state)
        self._q_rows.flags.writeable = False
        self._decided = None

    @property
    def q(self) -> np.ndarray:
        """Q in canonical ``[k, sRA, a, cube]`` order: a read-only view."""
        return self._q_rows.transpose(0, 1, 3, 2)

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
            Continuous relative altitude (m) and vertical rates (m/s),
            clamped onto the grid.

        Returns
        -------
        Array of shape ``(num_advisories,)``.

        Raises
        ------
        ValueError
            Naming the argument, if ``tau``, ``h``, ``own_rate`` or
            ``intruder_rate`` is NaN.  Infinities clamp like any other
            out-of-range value.
        """
        for name, value in zip(
            _STATE_NAMES, (tau, h, own_rate, intruder_rate)
        ):
            if math.isnan(value):
                raise ValueError(f"{name} is NaN")
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

        Each row gathers 16 action rows of the corner-major Q (8 cube
        corners, :meth:`Grid.corners`, at each of the two bracketing
        stages), in blocks of ``_LOOKUP_BLOCK`` rows.  Products and
        sums run with the action axis leading, so every operation
        reads contiguous rows of lookups.  The arithmetic is the
        canonical-layout lookup's: a float32 value times a float64
        weight, corners summed as numpy's 8-wide pairwise ``np.sum``
        does, both stages always blended, so every output bit is the
        same.

        Parameters
        ----------
        tau:
            Shape ``(n,)`` times to CPA, seconds.
        current_indices:
            Shape ``(n,)`` advisory-state indices.
        coords:
            Shape ``(n, 3)`` of ``(h, own_rate, intruder_rate)``.  A
            ``(3, n)`` array passed as its ``.T`` view reads each
            coordinate contiguously.

        Returns
        -------
        Array of shape ``(n, num_advisories)``.

        Raises
        ------
        ValueError
            Naming the argument and the first row, if any row's
            ``tau`` or coordinate is NaN.
        """
        coords, k_lo, k_hi, w_hi = self._batch_state(tau, coords)
        current_indices = np.asarray(current_indices, dtype=np.int64)

        indices, weights = self.grid.corners(coords)  # (8, n)
        # Row (k, current, cube point) of Q as one void item holding
        # its NUM_ADVISORIES float32 action values.
        rows_q = self._q_rows.view((np.void, 4 * NUM_ADVISORIES)).reshape(-1)
        cube = self.config.cube_size
        stage_bases = np.stack([
            (k_lo * NUM_ADVISORIES + current_indices) * cube,
            (k_hi * NUM_ADVISORIES + current_indices) * cube,
        ])  # (2, n)

        n = w_hi.shape[0]
        out = np.empty((n, NUM_ADVISORIES))
        for start in range(0, n, _LOOKUP_BLOCK):
            rows = slice(start, min(start + _LOOKUP_BLOCK, n))
            gathered = np.take(
                rows_q, stage_bases[:, None, rows] + indices[:, rows]
            ).view(np.float32).reshape(2, 8, -1, NUM_ADVISORIES)
            # (action, stage, corner, row).  Widening float32 to float64
            # is exact, so this multiply is the float32 × float64 one.
            c = gathered.transpose(3, 0, 1, 2).astype(float, order="C")
            c *= weights[:, rows]
            # Corners summed a level at a time in numpy's 8-wide
            # pairwise order: ((c0+c1) + (c2+c3)) + ((c4+c5) + (c6+c7)).
            c = c[:, :, 0::2] + c[:, :, 1::2]
            c = c[:, :, 0::2] + c[:, :, 1::2]
            stage_sums = c[:, :, 0] + c[:, :, 1]  # (action, stage, row)
            wb = w_hi[rows]
            np.add(
                (1.0 - wb) * stage_sums[:, 0], wb * stage_sums[:, 1],
                out=out[rows].T,
            )
        return out

    def decided_advisories(
        self,
        tau: np.ndarray,
        current_indices: np.ndarray,
        coords: np.ndarray,
    ) -> np.ndarray:
        """The argmax of :meth:`q_values_batch` where it is settled
        without interpolating, else -1.

        A row is answered when its current advisory is COC and the
        decided index names the same advisory for its cell at both
        bracketing stages: that advisory's Q beats every other
        advisory's by more than ``_DECIDED_MARGIN`` times the COC
        slab's largest |Q| at all 16 corners the row blends.  The cell
        is the one :meth:`Grid.corners` interpolates over
        (:meth:`Grid.cells`, the same :meth:`UniformAxis.bracket`
        placement), and the stages are :meth:`q_values_batch`'s.

        Why the answer is exact: :meth:`q_values_batch` gives each
        advisory a convex combination of its 16 corner values.  The
        weights lie in [0, 1] and sum to 1 within a few ulp, so the
        exact combinations of the named advisory and any other differ
        by more than the margin, 2**-40 of that |Q|, less a few ulp of
        it.  The float64 evaluation adds about a dozen roundings, each
        at most 2**-53 of the largest |Q| it touches, so each computed
        value is within 2**-49 of that |Q| of its exact combination.
        The named advisory therefore stays strictly ahead, and
        ``np.argmax`` returns it.  Other current advisories, ties,
        non-finite Q and rows whose two stages disagree are -1.

        Takes the arguments of :meth:`q_values_batch` and returns an
        ``int8`` array of shape ``(n,)``.

        Raises
        ------
        ValueError
            Naming the argument and the first row, if any row's
            ``tau`` or coordinate is NaN, as :meth:`q_values_batch`.
        """
        coords, k_lo, k_hi, _ = self._batch_state(tau, coords)
        cells = self.grid.cells(coords)
        index = self._decided_index()
        decided = index[k_lo, cells]
        decided[
            (index[k_hi, cells] != decided)
            | (np.asarray(current_indices) != COC.index)
        ] = -1
        return decided

    def _batch_state(self, tau, coords):
        """``coords`` as floats, then each row's bracketing stages
        ``k_lo`` and ``k_hi`` and the weight on ``k_hi``.  A NaN ``tau``
        or coordinate is a ``ValueError`` naming it and its first row."""
        tau = np.asarray(tau, dtype=float)
        coords = np.asarray(coords, dtype=float)
        if np.isnan(tau).any() or np.isnan(coords).any():
            for name, column in zip(_STATE_NAMES, (tau, *coords.T)):
                rows = np.flatnonzero(np.isnan(column))
                if rows.size:
                    raise ValueError(f"{name} is NaN in row {rows[0]}")
        k_float = np.clip(tau / self.config.dt, 0.0, self.config.horizon)
        k_lo = np.floor(k_float).astype(np.int64)
        k_hi = np.minimum(k_lo + 1, self.config.horizon)
        return coords, k_lo, k_hi, k_float - k_lo

    def _decided_index(self) -> np.ndarray:
        """The decided index ``[k, cube]`` of :meth:`decided_advisories`.

        Entry ``(k, b)`` is the advisory whose stage-``k`` COC-row Q
        beats every other advisory's by more than the margin at all 8
        corners of the cell based at cube point ``b``, or -1.  Bases on
        an axis's last point (their cell would leave the cube) stay -1.
        A NaN or infinite Q makes the margin non-finite, so every entry
        stays -1.  Built once, on first use, one stage at a time: only
        a stage's values are held beside the ``int8`` index.
        """
        if self._decided is not None:
            return self._decided
        coc = self._q_rows[:, COC.index]  # (k, cube, a), a view
        # max|Q| without a slab-sized temporary.
        bound = _DECIDED_MARGIN * max(float(coc.max()), -float(coc.min()))
        shape = self.grid.shape
        index = np.full((len(coc), *shape), -1, dtype=np.int8)
        for stage, q in zip(index, coc):
            actions = np.ascontiguousarray(q.T)
            # Each point's best advisory (the first of equals, as
            # np.argmax picks) and the runner-up's value.
            best = np.zeros(len(q), dtype=np.int8)
            first = actions[0].copy()
            second = np.full(len(q), -np.inf, dtype=q.dtype)
            for a, values in enumerate(actions[1:], start=1):
                best[values > first] = a
                np.maximum(second, np.minimum(first, values), out=second)
                np.maximum(first, values, out=first)
            gap = first.astype(float) - second
            best[~(gap > bound)] = -1  # a NaN gap stays -1 too
            # A cell keeps its corners' advisory where all 8 agree,
            # narrowed one axis at a time to the cells' bases.
            agreed = best.reshape(shape)
            for axis in range(len(shape)):
                lo = agreed[(slice(None),) * axis + (slice(None, -1),)]
                hi = agreed[(slice(None),) * axis + (slice(1, None),)]
                agreed = np.where(lo == hi, lo, np.int8(-1))
            stage[tuple(slice(0, num - 1) for num in shape)] = agreed
        index = index.reshape(len(coc), -1)
        # Read-only like Q: a write would change decisions unseen.
        index.flags.writeable = False
        self._decided = index
        return index

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
        out; COC is always permitted.  A NaN state is a ``ValueError``,
        as in :meth:`q_values_at`.
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
        """Store the table (compressed npz + JSON config/metadata).

        The npz holds Q in canonical ``[k, sRA, a, cube]`` order, the
        form it always had on disk; numpy writes the view in buffered
        chunks, never a full copy.
        """
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
        then a JSON header (config, metadata, dtype, the body's shape
        and ``layout``) padded with spaces so Q starts on a 64-byte
        boundary; the second is a byte view of the table's corner-major
        Q, ``[k, sRA, cube, a]`` in C order, the layout the header
        names.  A reader from before that layout finds a shape it does
        not expect and refuses the body instead of misreading it.
        There is no compression: at paper resolution zlib spent over a
        second to shrink 28.4 MB of Q to 16.2 MB, while copying or
        hashing the raw bytes takes hundredths of one.
        """
        q = self._q_rows
        header = json.dumps({
            "config": self._config_dict(),
            "metadata": self.metadata,
            "dtype": q.dtype.str,
            "shape": list(q.shape),
            "layout": _CORNER_MAJOR,
        }).encode()
        pad = -(_LENGTH.size + len(header)) % _Q_ALIGN
        header += b" " * pad
        return _LENGTH.pack(len(header)) + header, memoryview(q).cast("B")

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogicTable":
        """Rebuild a table from :meth:`to_bytes` output.

        A corner-major body becomes the table's Q as a read-only view
        of *data* (``np.frombuffer``), not a copy, so the table keeps
        *data* alive.  A body written before that layout (no
        ``layout`` key; canonical ``[k, sRA, a, cube]``) still loads,
        copied into corner-major order.
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
        layout = header.get("layout")
        if layout == _CORNER_MAJOR:
            q = q.transpose(0, 1, 3, 2)
        elif layout is not None:
            raise ValueError(f"unknown logic table Q layout {layout!r}")
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
        """Load a table previously stored with :meth:`save`.

        Q is read from the npz block by block straight into the
        table's corner-major array, so loading holds one copy of Q
        (plus a block), never the canonical array beside its
        corner-major copy.
        """
        with np.load(Path(path), allow_pickle=False) as data:
            config = cls._config_from_dict(json.loads(str(data["config"])))
            metadata = json.loads(str(data["metadata"]))
            with data.zip.open("q.npy") as member:
                q_rows = _read_corner_major(member)
        return cls(
            config=config,
            q_values=q_rows.transpose(0, 1, 3, 2),
            metadata=metadata,
        )

    def __repr__(self) -> str:
        c = self.config
        return (
            f"LogicTable(horizon={c.horizon}, grid={c.num_h}x{c.num_rate}"
            f"x{c.num_rate}, advisories={NUM_ADVISORIES})"
        )
