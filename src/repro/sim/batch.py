"""Vectorized batch simulation of many noisy encounter runs.

The paper evaluates every GA individual with 100 stochastic simulation
runs (Section VII).  Running those through the agent-based engine is
faithful but slow in Python, so this module provides a NumPy fast path:
all runs advance simultaneously as array operations.  The dynamics,
sensing, coordination and monitors replicate
:mod:`repro.sim.encounter` step for step (a dedicated test asserts
statistical equivalence); only the random-draw order differs.

There is one stepping loop, the megabatch kernel
:meth:`BatchEncounterSimulator.run_many`;
:meth:`~BatchEncounterSimulator.run` is its one-scenario call.  The
simulator is also the ``"vectorized-batch"`` simulation backend
(:mod:`repro.experiments.backends`): campaigns hand it whole chunks of
scenarios through :meth:`~BatchEncounterSimulator.run_many`.  The
kernel is organised as:

- **Noise window** — each scenario's disturbance + sensor noise is
  drawn a few decisions ahead, one ``standard_normal(out=...)`` per
  scenario per refill of a window of at most :data:`_WINDOW`
  decisions, in the historical per-decision inline draw order; each
  decision scales its slice into the lanes-last arrays the phases
  read (:class:`_NoiseWindow`, whose docstring gives why every bit
  equals those inline draws).  A generator is called once per
  refill, not several times per decision, and the kernel's memory
  scales with lanes, not lanes × duration
  (``tests/batch_reference.py`` freezes that inline-draw loop as the
  independent equivalence oracle).
- **Lanes last** — every lane array keeps the lane axis last: positions
  and velocities are ``(3, lanes)``, the sense noise ``(4, 3,
  lanes)``, so each physics, monitor and conflict-geometry operation
  runs over a contiguous row of lanes (``vel[2]``, ``pos[:2]``), never
  a strided column.  The layout decides only where a lane's values sit
  in memory, never the float operations applied to them.
- **Interpolate only the open lookups** — a decision needs only each
  lookup's argmax.  A lookup that starts clear of conflict in a cell
  where one advisory beats every other at all corners, by a margin no
  rounding can close, is answered from the logic table's decided index
  (:meth:`~repro.acasx.logic_table.LogicTable.decided_advisories`);
  the rest are interpolated
  (:meth:`~repro.acasx.logic_table.LogicTable.q_values_batch`).  Every
  advisory is the one interpolation would pick, bit for bit.
- **Per-phase timers** — every ``run_many`` call times its noise draw
  (``kernel.tape_draw``), decision, physics and observe phases and,
  when tracing is armed, records them as ``kernel.*`` spans under the
  caller's open span
  (:func:`repro.telemetry.record_phases`), so a traced campaign shows
  its kernel split on every execution path.

Supported equipage: both aircraft ACAS XU (coordinated or not),
own-ship only, or none — the combinations the experiments need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.acasx.advisories import ADVISORIES, NUM_ADVISORIES
from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters, decode_encounter
from repro.sim.encounter import EncounterSimConfig, check_equipage
from repro.util.rng import SeedLike, as_generator
from repro.util.units import NMAC_HORIZONTAL_M, NMAC_VERTICAL_M

#: Advisory attribute tables, indexed by advisory index.
_TARGET_RATES = np.array(
    [a.target_rate if a.is_active else np.nan for a in ADVISORIES]
)
_ACCELS = np.array([a.acceleration for a in ADVISORIES])
_SENSES = np.array([a.sense.value for a in ADVISORIES])  # 0 / +1 / -1
_ACTIVE = np.array([a.is_active for a in ADVISORIES])
# Derived tables hoisting per-substep elementwise work out of
# _apply_substep: inactive advisories carry a 0.0 target rate (what
# nan_to_num + the activity mask used to produce lane-wise) and ramping
# only happens where an advisory is active with positive acceleration.
_TARGET_FILLED = np.nan_to_num(_TARGET_RATES)
_RAMP_MASK = _ACTIVE & (_ACCELS > 0)

#: Most bytes of noise one :meth:`BatchEncounterSimulator.run_many`
#: call may draw (:func:`tape_bytes`).  It bounds the work a call asks
#: for, not its memory: the kernel holds at most :data:`_WINDOW`
#: decisions of that noise at a time.  The largest draws the library
#: itself sizes — a default chunk of
#: :data:`~repro.experiments.campaign.DEFAULT_CHUNK_LANES` (8,192) lanes
#: at about 60 decisions — come to at most about 165 MB (both
#: disturbances on; 87 MB at the default config), 13x below it.  A
#: request past it cannot describe a physical encounter run:
#: ``time_to_cpa=1e6`` at 100 runs would draw up to 34 GB.
MAX_TAPE_BYTES = 2 * 1024 ** 3

#: Decisions of noise each scenario draws per refill of the kernel's
#: noise window (:class:`_NoiseWindow`).  Tracemalloc peak of one
#: 819-scenario x 10-run equipped chunk (at most 60 decisions) by
#: window: 1 -> 9.4 MB, 4 -> 13.8 MB, 8 -> 19.5 MB, 16 -> 31.1 MB, 64
#: (one whole-run window) -> 94.5 MB.  A window of 1 makes one
#: generator call per scenario per decision and slowed that chunk
#: unequipped to 0.40 s, against 0.31-0.34 s for 4 to 64 (median of 5
#: on one pinned CPU of a 2-CPU host).
_WINDOW = 8


def _num_decisions(config: EncounterSimConfig, params) -> int:
    """Decisions one scenario steps through: its duration over dt.

    Same rounding (and at-least-one-decision floor) as
    ``SimulationEngine.run``, keeping the engines step-for-step equal.
    """
    duration = params.time_to_cpa + config.extra_duration
    return max(1, int(round(duration / config.decision_dt)))


def tape_bytes(
    config: EncounterSimConfig,
    equipage: str,
    params_list: Sequence[EncounterParameters],
    num_runs: int,
) -> int:
    """Bytes of noise ``run_many(params_list, num_runs)`` draws.

    Each scenario's own decisions × its runs × the doubles one lane
    draws per decision: 12 sensor-report values when equipped, plus per
    physics substep and side a vertical-rate and two
    horizontal-acceleration values when those disturbances are on (22
    equipped at the default config, 42 with horizontal disturbance on
    too).
    """
    disturbance = config.disturbance
    per_decision = 12 * (equipage in ("both", "own-only")) + (
        2 * config.physics_substeps * (
            (disturbance.vertical_rate_std > 0)
            + 2 * (disturbance.horizontal_accel_std > 0)
        )
    )
    decisions = sum(_num_decisions(config, params) for params in params_list)
    return 8 * per_decision * decisions * num_runs


def check_tape_budget(
    config: EncounterSimConfig,
    equipage: str,
    params_list: Sequence[EncounterParameters],
    num_runs: int,
) -> None:
    """Raise ``ValueError`` if the call would draw more noise than
    :data:`MAX_TAPE_BYTES`."""
    need = tape_bytes(config, equipage, params_list, num_runs)
    if need > MAX_TAPE_BYTES:
        longest = max(params.time_to_cpa for params in params_list)
        raise ValueError(
            f"{len(params_list)} scenario(s) x {num_runs} runs with "
            f"time_to_cpa up to {longest:g} s would draw {need:,} bytes "
            f"of noise, over MAX_TAPE_BYTES = {MAX_TAPE_BYTES:,}; "
            "shorten the encounters or run fewer lanes per chunk"
        )


class _NoiseWindow:
    """The next few decisions of every scenario's noise, drawn ahead.

    One float64 array ``(slots, min(_WINDOW, D_max), stride)`` holds
    each slot's raw standard normals for up to :data:`_WINDOW`
    decisions, slots in the kernel's descending-duration order;
    ``stride`` is the doubles one scenario draws per decision
    (:func:`tape_bytes`), in the historical inline draw order: the
    intruder report (pos x, y, z, vel x, y, z) then the own report,
    each lanes last, then per substep per side the vertical rate
    ``(lanes,)`` and the horizontal accel ``(lanes, 2)`` in C order.

    :meth:`draw` refills every active slot's rows in place at each
    multiple of ``_WINDOW`` (``standard_normal(out=...)``, at most up
    to the slot's last decision) and scales the decision's row into
    preallocated lanes-last arrays, sliced to the active prefix: sense
    ``(4, 3, lanes)`` (report: intruder position, intruder velocity,
    own position, own velocity; then axis x/y/z), vertical
    ``(substeps, 2, lanes)`` and horizontal ``(substeps, 2, 2, lanes)``
    (side: own then intruder; then axis x/y).  A stream that draws
    nothing (equipage, zero std) is ``None``.

    Why the bits are those of the inline draws: each generator fills,
    in order, exactly the normals a draw of its whole run would
    (``d_s * stride`` of them, the same amount the inline
    per-decision ``Generator.normal`` calls consume), only split
    across refills; numpy's ``Generator`` carries no normal from one
    call to the next, so how its stream is split cannot change a
    value.  Each value is then scaled by the same float64 ``std * z``
    multiply that ``Generator.normal(0.0, std, size)`` applies.  A
    generator shared by two scenarios would be consumed in refill
    order instead, which :meth:`BatchEncounterSimulator.run_many`
    refuses.
    """

    def __init__(
        self,
        config: EncounterSimConfig,
        sensing: bool,
        rngs: List[np.random.Generator],
        decisions: np.ndarray,
        n: int,
    ):
        substeps = config.physics_substeps
        sensor = config.sensor
        noise_std = config.disturbance.vertical_rate_std
        h_std = config.disturbance.horizontal_accel_std
        total = len(rngs) * n
        self.rngs, self.decisions = rngs, decisions
        self.n, self.substeps = n, substeps
        self.sense_len = 12 * n if sensing else 0
        self.vert_len = n if noise_std > 0 else 0
        self.per_side = self.vert_len + (2 * n if h_std > 0 else 0)
        stride = self.sense_len + substeps * 2 * self.per_side
        self.window = (
            np.empty((len(rngs), min(_WINDOW, int(decisions[0])), stride))
            if stride else None
        )
        self.sense = np.empty((4, 3, total)) if sensing else None
        self.vert = np.empty((substeps, 2, total)) if noise_std > 0 else None
        self.horiz = np.empty((substeps, 2, 2, total)) if h_std > 0 else None
        # Per-report, per-axis scales: position then velocity, x/y/z.
        pos_std = (sensor.horizontal_position_std,) * 2 + (
            sensor.vertical_position_std,
        )
        vel_std = (sensor.horizontal_velocity_std,) * 2 + (
            sensor.vertical_velocity_std,
        )
        self.sense_scale = np.array(
            [pos_std, vel_std, pos_std, vel_std]
        )[:, :, None, None]
        self.vert_scale = noise_std / np.sqrt(config.decision_dt / substeps)
        self.h_std = h_std

    def draw(self, decision: int, m: int):
        """``(sense, vert, horiz)`` for *decision* of the first *m* slots.

        The arrays are views of buffers the next call overwrites.
        """
        if self.window is None:
            return None, None, None
        row = decision % _WINDOW
        if row == 0:
            for slot in range(m):
                ahead = min(_WINDOW, int(self.decisions[slot]) - decision)
                self.rngs[slot].standard_normal(
                    out=self.window[slot, :ahead].reshape(-1)
                )
        n, lanes = self.n, m * self.n
        raw = self.window[:m, row]
        sense = vert = horiz = None
        if self.sense is not None:
            sense = self.sense[..., :lanes]
            reports = raw[:, :self.sense_len].reshape(m, 4, 3, n)
            np.multiply(
                reports.transpose(1, 2, 0, 3), self.sense_scale,
                out=sense.reshape(4, 3, m, n),
            )
        # (slot, substep, side, per-side draws): vertical then horizontal.
        sub = raw[:, self.sense_len:].reshape(
            m, self.substeps, 2, self.per_side
        )
        if self.vert is not None:
            vert = self.vert[..., :lanes]
            np.multiply(
                sub[..., :n].transpose(1, 2, 0, 3), self.vert_scale,
                out=vert.reshape(self.substeps, 2, m, n),
            )
        if self.horiz is not None:
            horiz = self.horiz[..., :lanes]
            accels = sub[..., self.vert_len:].reshape(
                m, self.substeps, 2, n, 2
            )
            np.multiply(
                accels.transpose(1, 2, 4, 0, 3), self.h_std,
                out=horiz.reshape(self.substeps, 2, 2, m, n),
            )
        return sense, vert, horiz


@dataclass
class BatchResult:
    """Per-run outcomes of a batch simulation.

    Attributes
    ----------
    min_separation:
        Minimum 3-D separation per run, metres, shape ``(n,)``.
    min_horizontal:
        Minimum horizontal separation per run.
    nmac:
        Whether each run entered the NMAC cylinder.
    own_alerted / intruder_alerted:
        Whether each side ever displayed an active advisory.
    """

    min_separation: np.ndarray
    min_horizontal: np.ndarray
    nmac: np.ndarray
    own_alerted: np.ndarray
    intruder_alerted: np.ndarray

    @property
    def num_runs(self) -> int:
        """Number of simulated runs."""
        return self.min_separation.shape[0]

    @property
    def nmac_rate(self) -> float:
        """Fraction of runs ending in an NMAC."""
        return float(np.mean(self.nmac))


class BatchEncounterSimulator:
    """Simulates many noisy runs of many encounters as array operations.

    The ``"vectorized-batch"`` simulation backend: it owns the setup it
    simulates (table, config, equipage, coordination) and answers
    :meth:`run_many`, the one call every backend shares.

    Parameters
    ----------
    table:
        Logic table for equipped aircraft (may be ``None`` when
        ``equipage='none'``).
    config:
        Simulation configuration shared with the agent-based engine.
    equipage:
        ``'both'`` (default), ``'own-only'`` or ``'none'``.
    coordination:
        Whether two equipped aircraft exchange maneuver senses.

    Raises
    ------
    ValueError
        If *config* asks for ADS-B report loss
        (``sensor.dropout_rate > 0``): the kernel senses every report,
        so only the ``"agent"`` backend simulates dropout.
    """

    #: Registry key, which campaign identity records.
    name = "vectorized-batch"

    def __init__(
        self,
        table: Optional[LogicTable] = None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        check_equipage(equipage, table)
        config = config or EncounterSimConfig()
        if config.sensor.dropout_rate > 0:
            raise ValueError(
                f"sensor.dropout_rate = {config.sensor.dropout_rate} is not "
                "simulated by the megabatch kernel, which receives every "
                'ADS-B report; use backend="agent" to simulate dropout'
            )
        self.table = table
        self.config = config
        self.equipage = equipage
        self.coordination = coordination

    # ------------------------------------------------------------------
    # Decision helpers
    # ------------------------------------------------------------------
    def _conflict_geometry(self, own_pos, own_vel, intr_pos, intr_vel):
        """Vectorized port of AcasXuController._conflict_geometry.

        Takes ``(3, lanes)`` states.
        """
        config = self.table.config
        horizon_seconds = config.horizon * config.dt
        rel_pos = intr_pos[:2] - own_pos[:2]
        rel_vel = intr_vel[:2] - own_vel[:2]
        speed_sq = rel_vel[0] * rel_vel[0] + rel_vel[1] * rel_vel[1]
        dot = rel_pos[0] * rel_vel[0] + rel_pos[1] * rel_vel[1]
        # Masked divide: lanes with ~zero closing speed keep the 0.0
        # prefill and the division is never evaluated there, so no
        # errstate bracket is needed (same lane values as the
        # where(mask, -dot / speed_sq, 0.0) form this replaces).
        t_star = np.zeros_like(dot)
        np.divide(-dot, speed_sq, out=t_star, where=speed_sq > 1e-12)
        tau = np.maximum(t_star, 0.0)
        at_cpa = rel_pos + rel_vel * tau
        miss = np.hypot(at_cpa[0], at_cpa[1])

        converging = tau > 0.0
        within_horizon = tau <= horizon_seconds
        near_miss = miss <= config.conflict_horizontal_radius
        in_conflict = converging & within_horizon & near_miss
        return tau, in_conflict

    def _decide_side(
        self, own_pos, own_vel, sensed_intr_pos, sensed_intr_vel, current_sra
    ):
        """New advisory indices for one (uncoordinated) side of every run."""
        n = own_pos.shape[1]
        tau, in_conflict = self._conflict_geometry(
            own_pos, own_vel, sensed_intr_pos, sensed_intr_vel
        )
        new_sra = np.zeros(n, dtype=np.int64)  # COC by default
        active = np.flatnonzero(in_conflict)
        if active.size == 0:
            return new_sra
        coords = np.stack([
            sensed_intr_pos[2, active] - own_pos[2, active],
            own_vel[2, active],
            sensed_intr_vel[2, active],
        ])
        tau, current = tau[active], current_sra[active]
        decided = self.table.decided_advisories(tau, current, coords.T)
        rows = np.flatnonzero(decided < 0)
        q = self.table.q_values_batch(
            tau[rows], current[rows], coords[:, rows].T
        )
        decided = decided.astype(np.int64)
        decided[rows] = np.argmax(q, axis=1)
        new_sra[active] = decided
        return new_sra

    @staticmethod
    def _mask_forbidden(q, locked) -> None:
        """-inf out advisories whose sense conflicts with *locked*."""
        for a_idx in range(NUM_ADVISORIES):
            if not _ACTIVE[a_idx]:
                continue
            conflict_mask = (locked != 0) & (_SENSES[a_idx] == locked)
            q[conflict_mask, a_idx] = -np.inf

    def _decide_pair(
        self,
        own_pos,
        own_vel,
        intr_pos,
        intr_vel,
        sense_noise,
        own_sra,
        intr_sra,
    ):
        """Both sides' new advisories from one joint table lookup.

        The only coupling between the two decisions is the coordination
        lock, which masks q values *after* the lookup — so the own and
        intruder conflict rows can share a single
        :meth:`LogicTable.q_values_batch` call (row-wise, so each row's
        values match the two separate calls) and own's fresh sense
        still locks the intruder's choice.  Used by :meth:`run_many`
        when both aircraft are equipped; one call amortizes the
        per-lookup interpolation setup across both sides.

        Both sides' conflict rows are first probed together with
        :meth:`LogicTable.decided_advisories`, whose answer is that
        row's unmasked argmax.  Only the rest enter the joint call:
        rows the probe leaves open and, with coordination on, rows
        probed to an active advisory, which a lock may forbid.  A lock
        never masks COC, so every other row keeps its probed advisory,
        which is what the masked argmax would return, and the outputs
        are bit for bit those of interpolating every row.
        """
        n = own_pos.shape[1]
        sensed_ip = intr_pos + sense_noise[0]
        sensed_iv = intr_vel + sense_noise[1]
        sensed_op = own_pos + sense_noise[2]
        sensed_ov = own_vel + sense_noise[3]
        tau_own, conflict_own = self._conflict_geometry(
            own_pos, own_vel, sensed_ip, sensed_iv
        )
        tau_intr, conflict_intr = self._conflict_geometry(
            intr_pos, intr_vel, sensed_op, sensed_ov
        )
        new_own = np.zeros(n, dtype=np.int64)
        new_intr = np.zeros(n, dtype=np.int64)
        active_own = np.flatnonzero(conflict_own)
        active_intr = np.flatnonzero(conflict_intr)
        split = active_own.size
        if split + active_intr.size == 0:
            return new_own, new_intr

        coords = np.empty((3, split + active_intr.size))
        coords[0, :split] = sensed_ip[2, active_own] - own_pos[2, active_own]
        coords[1, :split] = own_vel[2, active_own]
        coords[2, :split] = sensed_iv[2, active_own]
        coords[0, split:] = sensed_op[2, active_intr] - intr_pos[2, active_intr]
        coords[1, split:] = intr_vel[2, active_intr]
        coords[2, split:] = sensed_ov[2, active_intr]
        tau = np.concatenate([tau_own[active_own], tau_intr[active_intr]])
        current = np.concatenate(
            [own_sra[active_own], intr_sra[active_intr]]
        )
        decided = self.table.decided_advisories(tau, current, coords.T)
        interpolate = decided < 0
        if self.coordination:
            interpolate |= decided > 0
        rows = np.flatnonzero(interpolate)
        q = self.table.q_values_batch(
            tau[rows], current[rows], coords[:, rows].T
        )
        decided = decided.astype(np.int64)

        cut = int(np.searchsorted(rows, split))
        own_rows, intr_rows = rows[:cut], rows[cut:]
        q_own, q_intr = q[:cut], q[cut:]
        if self.coordination:
            # Own decides first, seeing the intruder's previous lock.
            self._mask_forbidden(
                q_own, _SENSES[intr_sra[active_own[own_rows]]]
            )
        decided[own_rows] = np.argmax(q_own, axis=1)
        new_own[active_own] = decided[:split]
        if self.coordination:
            self._mask_forbidden(
                q_intr, _SENSES[new_own[active_intr[intr_rows - split]]]
            )
        decided[intr_rows] = np.argmax(q_intr, axis=1)
        new_intr[active_intr] = decided[split:]
        return new_own, new_intr

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_substep(
        pos, vel, dt: float, vertical_noise, horizontal_noise, gathered
    ) -> None:
        """One physics substep for one side of every lane, in place.

        Replicates :func:`repro.dynamics.aircraft.step_aircraft`:
        advisory ramp (exact trapezoid) then Brownian rate disturbance.
        ``pos``/``vel`` are ``(3, lanes)``, the noises ``(lanes,)``
        (vertical) and ``(2, lanes)`` (horizontal).  Every operation is
        lane-wise, so the result for one lane does not depend on which
        other lanes share the arrays.

        ``gathered`` is ``(target, accel, max_change, ramp_mask)`` from
        :meth:`_gather_advisory` — the advisory is fixed for a whole
        decision, so the kernel gathers once per decision instead of
        once per substep.
        """
        vz = vel[2]
        # Inactive advisories gather a 0.0 target and 0.0 acceleration,
        # so their ramp clips to (signed) zero, t_ramp masks to zero and
        # the commanded displacement collapses to the free-flight vz*dt
        # — lane-for-lane the same values the explicit activity selects
        # used to produce, without the per-substep where/nan_to_num.
        target, accel, max_change, ramp_mask = gathered

        # In-place arithmetic below reuses temporaries; each rewrite is
        # the same float operation in the same order as the plain
        # expression it replaces, so every output bit is unchanged.
        ramp = target - vz
        np.clip(ramp, -max_change, max_change, out=ramp)
        # Masked divide: non-ramping lanes (accel == 0) keep the 0.0
        # prefill and never evaluate the division, so no errstate
        # bracket is needed.
        t_ramp = np.zeros_like(ramp)
        np.divide(np.abs(ramp), accel, out=t_ramp, where=ramp_mask)
        vz_capture = vz + ramp
        lift = vz + vz_capture
        lift /= 2.0
        lift *= t_ramp
        np.subtract(dt, t_ramp, out=t_ramp)
        t_ramp *= vz_capture
        lift += t_ramp
        pos[2] += lift
        vel[2] = vz_capture  # equals vz where inactive (ramp == 0)

        if vertical_noise is not None:
            bump = 0.5 * vertical_noise
            bump *= dt
            bump *= dt
            pos[2] += bump
            vel[2] += vertical_noise * dt

        if horizontal_noise is not None:
            drift = vel[:2] * dt
            kick = 0.5 * horizontal_noise
            kick *= dt
            kick *= dt
            drift += kick
            pos[:2] += drift
            vel[:2] += horizontal_noise * dt
        else:
            pos[:2] += vel[:2] * dt

    @staticmethod
    def _gather_advisory(sra, dt: float):
        """Per-lane advisory physics terms, gathered once per decision.

        The returned ``(target, accel, max_change, ramp_mask)`` tuple is
        constant while *sra* is — i.e. for every substep of a decision —
        so :meth:`_apply_substep` callers amortize the fancy-index
        gathers across substeps (same values, so same bits).
        """
        accel = _ACCELS[sra]
        return (
            _TARGET_FILLED[sra],
            accel,
            accel * dt,
            _RAMP_MASK[sra],
        )

    # ------------------------------------------------------------------
    # Megabatch: many scenarios × many runs as one lane array
    # ------------------------------------------------------------------
    def run_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> List[BatchResult]:
        """Simulate *num_runs* runs of **each** scenario as one batch.

        Flattens ``S`` scenarios × ``num_runs`` runs into a single
        ``(S * num_runs)``-lane array simulation: lanes
        ``[s*num_runs, (s+1)*num_runs)`` carry scenario ``s``, seeded
        from ``seeds[s]``, starting from its decoded geometry.  An
        active-lane mask derived from each scenario's duration lets
        short encounters stop stepping while long ones continue, so the
        per-scenario Python stepping loop disappears.

        Each scenario's disturbance and sensor noise comes from its own
        generator, drawn a few decisions ahead (:class:`_NoiseWindow`),
        and every array operation is lane-wise, so the slice returned
        for a scenario is **bitwise identical** to running that
        scenario alone (``run(params, num_runs, seed)``) — independent
        of which scenarios share the batch and in what order (chunking
        cannot change results).  That needs one generator per
        scenario: two seeds that resolve to the same ``Generator``
        object (the generator itself, or an ``RngStream`` over it)
        raise ``ValueError`` naming both positions; equal integer seeds
        are distinct generators and are fine.  The pre-refactor
        inline-draw implementation survives as ``reference_run_many``
        in ``tests/batch_reference.py``, the independent oracle the
        equivalence tests compare against.

        With tracing armed, the call's phase timings land as four
        ``kernel.*`` spans under the caller's open span.  A call that
        would draw more noise than :data:`MAX_TAPE_BYTES`
        (:func:`tape_bytes`) raises ``ValueError`` before anything is
        drawn.
        """
        params_list = list(params_list)
        if not params_list:
            raise ValueError("params_list must contain at least one scenario")
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if seeds is None:
            seeds = [None] * len(params_list)
        seeds = list(seeds)
        if len(seeds) != len(params_list):
            raise ValueError(
                f"got {len(seeds)} seeds for {len(params_list)} scenarios"
            )
        config = self.config
        check_tape_budget(config, self.equipage, params_list, num_runs)
        rngs = [as_generator(seed) for seed in seeds]
        first_use = {}
        for s, rng in enumerate(rngs):
            first = first_use.setdefault(id(rng), s)
            if first != s:
                raise ValueError(
                    f"seeds[{first}] and seeds[{s}] are the same Generator; "
                    "each scenario needs its own stream (spawn one per "
                    "scenario from a SeedSequence)"
                )

        num_scenarios = len(params_list)
        n = num_runs
        total = num_scenarios * n

        num_decisions = np.array(
            [_num_decisions(config, params) for params in params_list],
            dtype=np.int64,
        )

        # Process scenarios internally in descending-duration order
        # (stable, so equal durations keep their input order).  With the
        # longest encounters in the lowest lanes, the still-active lanes
        # are always the contiguous prefix [0, m*n): every per-decision
        # gather below is a plain view and no scatter-back is needed.
        # Each slot keeps its scenario's own rng and noise rows, and
        # every kernel op is lane-wise, so the permutation cannot change
        # any lane's bits; results map back to input order on return.
        order = np.argsort(-num_decisions, kind="stable")
        slot_decisions = num_decisions[order]

        # Lanes last: (3, total) states, so the active prefix
        # [:, :m*n] is a view whose rows are contiguous.
        own_pos = np.empty((3, total))
        own_vel = np.empty((3, total))
        intr_pos = np.empty((3, total))
        intr_vel = np.empty((3, total))
        for slot, s in enumerate(order):
            own0, intr0 = decode_encounter(params_list[s])
            rows = slice(slot * n, (slot + 1) * n)
            own_pos[:, rows] = own0.position[:, None]
            own_vel[:, rows] = own0.velocity[:, None]
            intr_pos[:, rows] = intr0.position[:, None]
            intr_vel[:, rows] = intr0.velocity[:, None]

        mark = time.perf_counter
        t_tape = t_decision = t_physics = t_observe = 0.0

        sub_dt = config.decision_dt / config.physics_substeps
        substeps = config.physics_substeps
        own_equipped = self.equipage in ("both", "own-only")
        intr_equipped = self.equipage == "both"

        t0 = mark()
        noise = _NoiseWindow(
            config, own_equipped, [rngs[s] for s in order], slot_decisions, n
        )
        t_tape += mark() - t0

        own_sra = np.zeros(total, dtype=np.int64)
        intr_sra = np.zeros(total, dtype=np.int64)
        own_alerted = np.zeros(total, dtype=bool)
        intr_alerted = np.zeros(total, dtype=bool)
        min_sep = np.full(total, np.inf)
        min_horiz = np.full(total, np.inf)
        nmac = np.zeros(total, dtype=bool)

        def observe_into(own_p, intr_p, sep_acc, horiz_acc, nmac_acc) -> None:
            # The accumulators are contiguous active-lane views/copies
            # gathered once per decision, so each substep's monitor
            # update is pure in-place arithmetic — no per-call
            # gather + scatter on the full lane arrays.
            delta = own_p - intr_p
            horizontal = np.hypot(delta[0], delta[1])
            vertical = np.abs(delta[2])
            separation = np.hypot(horizontal, vertical)
            np.minimum(sep_acc, separation, out=sep_acc)
            np.minimum(horiz_acc, horizontal, out=horiz_acc)
            nmac_acc |= (horizontal < NMAC_HORIZONTAL_M) & (
                vertical < NMAC_VERTICAL_M
            )

        t0 = mark()
        observe_into(own_pos, intr_pos, min_sep, min_horiz, nmac)
        t_observe += mark() - t0

        # slot_decisions is descending, so the number of still-active
        # slots at a decision is a single binary search.
        neg_decisions = -slot_decisions
        for decision in range(int(slot_decisions[0])):
            m = int(np.searchsorted(neg_decisions, -decision, side="left"))
            lanes = slice(0, m * n)

            t0 = mark()
            sense_noise, vert_noise, horiz_noise = noise.draw(decision, m)
            t_tape += mark() - t0

            # The active lanes are a contiguous prefix, so these are
            # views: every in-place update below lands directly in the
            # full lane arrays with no scatter-back.
            t0 = mark()
            op, ov = own_pos[:, lanes], own_vel[:, lanes]
            ip, iv = intr_pos[:, lanes], intr_vel[:, lanes]
            osra, isra = own_sra[lanes], intr_sra[lanes]

            if own_equipped and intr_equipped:
                # Joint lookup: both sides' conflict rows share one
                # q_values_batch call (own still decides first — its
                # fresh sense locks the intruder inside _decide_pair).
                osra, isra = self._decide_pair(
                    op, ov, ip, iv, sense_noise, osra, isra
                )
                own_alerted[lanes] |= _ACTIVE[osra]
                intr_alerted[lanes] |= _ACTIVE[isra]
            elif own_equipped:
                osra = self._decide_side(
                    op, ov, ip + sense_noise[0], iv + sense_noise[1], osra
                )
                own_alerted[lanes] |= _ACTIVE[osra]
            t_decision += mark() - t0

            # Monitor accumulators, gathered once per decision.
            sep_acc, horiz_acc = min_sep[lanes], min_horiz[lanes]
            nmac_acc = nmac[lanes]

            # Advisories are fixed for the whole decision: gather their
            # physics terms once and reuse across every substep.
            own_terms = self._gather_advisory(osra, sub_dt)
            intr_terms = self._gather_advisory(isra, sub_dt)
            for k in range(substeps):
                t0 = mark()
                self._apply_substep(
                    op, ov, sub_dt,
                    vert_noise[k, 0] if vert_noise is not None else None,
                    horiz_noise[k, 0] if horiz_noise is not None else None,
                    own_terms,
                )
                self._apply_substep(
                    ip, iv, sub_dt,
                    vert_noise[k, 1] if vert_noise is not None else None,
                    horiz_noise[k, 1] if horiz_noise is not None else None,
                    intr_terms,
                )
                t_physics += mark() - t0
                t0 = mark()
                observe_into(op, ip, sep_acc, horiz_acc, nmac_acc)
                t_observe += mark() - t0

            # The decide helpers return fresh advisory arrays; everything
            # else above was updated in place through the views.
            own_sra[lanes], intr_sra[lanes] = osra, isra

        telemetry.record_phases(
            ("kernel.tape_draw", t_tape),
            ("kernel.decision", t_decision),
            ("kernel.physics", t_physics),
            ("kernel.observe", t_observe),
        )

        # Undo the internal duration ordering: scenario s lives in slot
        # inverse[s] of the lane arrays.
        inverse = np.empty(num_scenarios, dtype=np.int64)
        inverse[order] = np.arange(num_scenarios)

        def result_for(s: int) -> BatchResult:
            rows = slice(int(inverse[s]) * n, (int(inverse[s]) + 1) * n)
            return BatchResult(
                min_separation=min_sep[rows].copy(),
                min_horizontal=min_horiz[rows].copy(),
                nmac=nmac[rows].copy(),
                own_alerted=own_alerted[rows].copy(),
                intruder_alerted=intr_alerted[rows].copy(),
            )

        return [result_for(s) for s in range(num_scenarios)]

    def run(
        self,
        params: EncounterParameters,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Simulate *num_runs* independent noisy runs of *params*.

        The one-scenario call of :meth:`run_many`; a ``Generator`` passed
        as *seed* is consumed exactly as the kernel consumes it.
        """
        return self.run_many([params], num_runs, [seed])[0]
