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
kernel is organised as:

- **Noise tapes** — each scenario's entire disturbance + sensor noise
  sequence is pre-drawn up front with one bulk ``standard_normal`` per
  scenario, in the historical per-decision inline draw order, then
  scaled per segment.  ``Generator.normal(0.0, std, size)`` computes
  ``0.0 + std * z`` over ``size`` sequential draws of the same ziggurat
  stream, so the tape slices are bitwise identical to those inline
  draws while eliminating the per-decision Python RNG loop
  (:mod:`repro.sim.batch_reference` freezes that inline-draw loop as
  the independent equivalence oracle).
- **Per-phase timers** — ``run_many(profile=...)`` accumulates a
  :class:`KernelProfile` (tape-draw / decision / physics / observe),
  the observability surface ``Campaign.run(profile=True)`` stamps into
  campaign metadata.

Supported equipage: both aircraft ACAS XU (coordinated or not),
own-ship only, or none — the combinations the experiments need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.acasx.advisories import ADVISORIES, NUM_ADVISORIES
from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters, decode_encounter
from repro.sim.encounter import EncounterSimConfig
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


#: Phase names of :class:`KernelProfile`, in pipeline order.
KERNEL_PHASES: Tuple[str, ...] = (
    "tape_draw", "decision", "physics", "observe",
)


@dataclass
class KernelProfile:
    """Per-phase wall-clock breakdown of megabatch kernel calls.

    Accumulates across every ``run_many`` call it is passed to, so one
    profile object can cover a whole chunked campaign.  Phases:

    - ``tape_draw`` — noise generation (bulk tape draws, plus the
      per-decision tape slicing);
    - ``decision``  — sensing arithmetic + advisory selection (includes
      the logic-table lookup);
    - ``physics``   — substep integration of both aircraft;
    - ``observe``   — separation / NMAC monitors.
    """

    tape_draw: float = 0.0
    decision: float = 0.0
    physics: float = 0.0
    observe: float = 0.0
    #: How many kernel invocations / scenarios / lanes accumulated.
    calls: int = 0
    scenarios: int = 0
    lanes: int = 0

    @property
    def total(self) -> float:
        """Wall-clock seconds across all profiled phases."""
        return float(sum(getattr(self, phase) for phase in KERNEL_PHASES))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view (the shape stamped into campaign metadata)."""
        payload: Dict[str, object] = {
            phase: getattr(self, phase) for phase in KERNEL_PHASES
        }
        payload.update(
            total=self.total,
            calls=self.calls,
            scenarios=self.scenarios,
            lanes=self.lanes,
        )
        return payload

    def describe(self) -> str:
        """Multi-line phase breakdown for benches and the CLI."""
        total = self.total
        lines = [
            f"kernel profile: {self.calls} call(s), "
            f"{self.scenarios} scenario(s), {self.lanes} lane(s), "
            f"{total:.3f}s in profiled phases"
        ]
        for phase in KERNEL_PHASES:
            seconds = getattr(self, phase)
            share = (seconds / total * 100.0) if total > 0 else 0.0
            lines.append(f"  {phase:<10} {seconds:8.3f}s  ({share:5.1f}%)")
        return "\n".join(lines)


class _NoiseTapes(NamedTuple):
    """Decision-major pre-drawn noise for one ``run_many`` invocation.

    ``sense`` is four ``(D_max, total, 3)`` arrays (intruder report
    position/velocity noise, then own report), ``vert`` is
    ``(D_max, substeps, 2, total)`` and ``horiz`` is
    ``(D_max, substeps, 2, total, 2)`` — side axis: own then intruder.
    Entries are ``None`` when that stream draws nothing (equipage /
    zero stds).  Decision ``d`` of scenario ``s`` is filled only for
    ``d < num_decisions[s]``: a finished scenario consumes no draws.
    """

    sense: Optional[List[np.ndarray]]
    vert: Optional[np.ndarray]
    horiz: Optional[np.ndarray]


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
    """Simulates *n* noisy runs of one encounter as array operations.

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
    """

    def __init__(
        self,
        table: Optional[LogicTable],
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        if equipage not in ("both", "own-only", "none"):
            raise ValueError(f"unknown equipage {equipage!r}")
        if equipage != "none" and table is None:
            raise ValueError("equipped simulations need a logic table")
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination

    # ------------------------------------------------------------------
    # Decision helpers
    # ------------------------------------------------------------------
    def _conflict_geometry(self, own_pos, own_vel, intr_pos, intr_vel):
        """Vectorized port of AcasXuController._conflict_geometry."""
        config = self.table.config
        horizon_seconds = config.horizon * config.dt
        rel_pos = intr_pos[:, :2] - own_pos[:, :2]
        rel_vel = intr_vel[:, :2] - own_vel[:, :2]
        speed_sq = np.einsum("ij,ij->i", rel_vel, rel_vel)
        dot = np.einsum("ij,ij->i", rel_pos, rel_vel)
        # Masked divide: lanes with ~zero closing speed keep the 0.0
        # prefill and the division is never evaluated there, so no
        # errstate bracket is needed (same lane values as the
        # where(mask, -dot / speed_sq, 0.0) form this replaces).
        t_star = np.zeros_like(dot)
        np.divide(-dot, speed_sq, out=t_star, where=speed_sq > 1e-12)
        tau = np.maximum(t_star, 0.0)
        at_cpa = rel_pos + rel_vel * tau[:, None]
        miss = np.hypot(at_cpa[:, 0], at_cpa[:, 1])

        converging = tau > 0.0
        within_horizon = tau <= horizon_seconds
        near_miss = miss <= config.conflict_horizontal_radius
        in_conflict = converging & within_horizon & near_miss
        return tau, in_conflict

    def _decide_side(
        self, own_pos, own_vel, sensed_intr_pos, sensed_intr_vel, current_sra
    ):
        """New advisory indices for one (uncoordinated) side of every run."""
        n = own_pos.shape[0]
        tau, in_conflict = self._conflict_geometry(
            own_pos, own_vel, sensed_intr_pos, sensed_intr_vel
        )
        new_sra = np.zeros(n, dtype=np.int64)  # COC by default
        active = np.flatnonzero(in_conflict)
        if active.size == 0:
            return new_sra
        coords = np.stack(
            [
                sensed_intr_pos[active, 2] - own_pos[active, 2],
                own_vel[active, 2],
                sensed_intr_vel[active, 2],
            ],
            axis=1,
        )
        q = self.table.q_values_batch(tau[active], current_sra[active], coords)
        new_sra[active] = np.argmax(q, axis=1)
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
        """
        n = own_pos.shape[0]
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

        coords = np.empty((split + active_intr.size, 3))
        coords[:split, 0] = sensed_ip[active_own, 2] - own_pos[active_own, 2]
        coords[:split, 1] = own_vel[active_own, 2]
        coords[:split, 2] = sensed_iv[active_own, 2]
        coords[split:, 0] = sensed_op[active_intr, 2] - intr_pos[active_intr, 2]
        coords[split:, 1] = intr_vel[active_intr, 2]
        coords[split:, 2] = sensed_ov[active_intr, 2]
        tau = np.concatenate([tau_own[active_own], tau_intr[active_intr]])
        current = np.concatenate(
            [own_sra[active_own], intr_sra[active_intr]]
        )
        q = self.table.q_values_batch(tau, current, coords)

        q_own, q_intr = q[:split], q[split:]
        if self.coordination:
            # Own decides first, seeing the intruder's previous lock.
            self._mask_forbidden(q_own, _SENSES[intr_sra[active_own]])
        new_own[active_own] = np.argmax(q_own, axis=1)
        if self.coordination:
            self._mask_forbidden(q_intr, _SENSES[new_own[active_intr]])
        new_intr[active_intr] = np.argmax(q_intr, axis=1)
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
        Every operation is lane-wise, so the result for one lane does
        not depend on which other lanes share the arrays.

        ``gathered`` is ``(target, accel, max_change, ramp_mask)`` from
        :meth:`_gather_advisory` — the advisory is fixed for a whole
        decision, so the kernel gathers once per decision instead of
        once per substep.
        """
        vz = vel[:, 2]
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
        pos[:, 2] += lift
        vel[:, 2] = vz_capture  # equals vz where inactive (ramp == 0)

        if vertical_noise is not None:
            bump = 0.5 * vertical_noise
            bump *= dt
            bump *= dt
            pos[:, 2] += bump
            vel[:, 2] += vertical_noise * dt

        if horizontal_noise is not None:
            drift = vel[:, :2] * dt
            kick = 0.5 * horizontal_noise
            kick *= dt
            kick *= dt
            drift += kick
            pos[:, :2] += drift
            vel[:, :2] += horizontal_noise * dt
        else:
            pos[:, :2] += vel[:, :2] * dt

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
    def _draw_noise_tapes(
        self,
        rngs: List[np.random.Generator],
        num_decisions: np.ndarray,
        n: int,
        total: int,
    ) -> _NoiseTapes:
        """Pre-draw every scenario's full noise sequence up front.

        One bulk ``standard_normal`` per scenario replaces the
        historical thousands of tiny per-decision draws.  The flat
        stream is consumed in exactly the historical inline order —
        per decision: intruder report (pos x, y, z, vel x, y, z), own
        report, then per substep per side: vertical rate, horizontal
        accel (n, 2) in C order — and scaled per segment.  Since
        ``Generator.normal(0.0, std, size)`` evaluates
        ``0.0 + std * z`` over ``size`` sequential standard-normal
        draws, the scaled slices are bitwise identical to the inline
        calls they replace.

        The tapes are the kernel's dominant working set (~``D_max *
        total * 42`` doubles at default substeps); megabatch chunk
        sizing (:data:`repro.experiments.campaign.DEFAULT_CHUNK_LANES`)
        keeps that bounded to a few hundred MB at worst.
        """
        config = self.config
        substeps = config.physics_substeps
        sub_dt = config.decision_dt / substeps
        sensing = self.equipage in ("both", "own-only")
        noise_std = config.disturbance.vertical_rate_std
        h_std = config.disturbance.horizontal_accel_std
        has_vert = noise_std > 0
        has_horiz = h_std > 0

        vert_len = n if has_vert else 0
        horiz_len = 2 * n if has_horiz else 0
        sense_len = 12 * n if sensing else 0
        stride = sense_len + substeps * 2 * (vert_len + horiz_len)
        if stride == 0:
            return _NoiseTapes(None, None, None)

        d_max = int(num_decisions.max())
        sense_tape = (
            [np.empty((d_max, total, 3)) for _ in range(4)]
            if sensing else None
        )
        vert_tape = (
            np.empty((d_max, substeps, 2, total)) if has_vert else None
        )
        horiz_tape = (
            np.empty((d_max, substeps, 2, total, 2)) if has_horiz else None
        )
        sensor = config.sensor
        # Per-axis report scales: position then velocity, x/y/z.
        pos_scales = np.array([
            sensor.horizontal_position_std,
            sensor.horizontal_position_std,
            sensor.vertical_position_std,
        ])
        vel_scales = np.array([
            sensor.horizontal_velocity_std,
            sensor.horizontal_velocity_std,
            sensor.vertical_velocity_std,
        ])
        vert_scale = noise_std / np.sqrt(sub_dt) if has_vert else 0.0

        for s, rng in enumerate(rngs):
            d_s = int(num_decisions[s])
            rows = slice(s * n, (s + 1) * n)
            z = rng.standard_normal(d_s * stride).reshape(d_s, stride)
            if sensing:
                # (decision, report, axis, lane); reports in draw order:
                # intruder pos, intruder vel, own pos, own vel.  Scaling
                # happens in place on the raw draws (z is scratch):
                # ``std * z`` is the same float64 multiply either way,
                # so every tape bit matches the allocating form.
                reports = z[:, :sense_len].reshape(d_s, 4, 3, n)
                reports[:, 0::2] *= pos_scales[None, None, :, None]
                reports[:, 1::2] *= vel_scales[None, None, :, None]
                for r in range(4):
                    sense_tape[r][:d_s, rows, :] = reports[:, r].transpose(
                        0, 2, 1
                    )
            if has_vert or has_horiz:
                sub = z[:, sense_len:].reshape(
                    d_s, substeps, 2, vert_len + horiz_len
                )
                if has_vert:
                    sub[..., :vert_len] *= vert_scale
                    vert_tape[:d_s, :, :, rows] = sub[..., :vert_len]
                if has_horiz:
                    sub[..., vert_len:] *= h_std
                    horiz_tape[:d_s, :, :, rows, :] = sub[
                        ..., vert_len:
                    ].reshape(d_s, substeps, 2, n, 2)
        return _NoiseTapes(sense_tape, vert_tape, horiz_tape)

    def run_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Optional[Sequence[SeedLike]] = None,
        *,
        profile: Optional[KernelProfile] = None,
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
        pre-drawn tape (:meth:`_draw_noise_tapes`), and every array
        operation is lane-wise, so the slice returned for a scenario is
        **bitwise identical** to running that scenario alone
        (``run(params, num_runs, seed)``) — independent of which
        scenarios share the batch and in what order (chunking cannot
        change results).  The pre-refactor inline-draw implementation
        survives as
        :func:`repro.sim.batch_reference.reference_run_many`, the
        independent oracle the equivalence tests compare against.

        Parameters
        ----------
        profile:
            Optional :class:`KernelProfile` accumulating this call's
            per-phase wall-clock times.
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
        rngs = [as_generator(seed) for seed in seeds]

        config = self.config
        num_scenarios = len(params_list)
        n = num_runs
        total = num_scenarios * n

        num_decisions = np.empty(num_scenarios, dtype=np.int64)
        for s, params in enumerate(params_list):
            duration = params.time_to_cpa + config.extra_duration
            # Same rounding (and at-least-one-decision floor) as
            # SimulationEngine.run, keeping the engines step-for-step equal.
            num_decisions[s] = max(1, int(round(duration / config.decision_dt)))

        # Process scenarios internally in descending-duration order
        # (stable, so equal durations keep their input order).  With the
        # longest encounters in the lowest lanes, the still-active lanes
        # are always the contiguous prefix [0, m*n): every per-decision
        # gather below is a plain view and no scatter-back is needed.
        # Each slot keeps its scenario's own rng and tape slice, and
        # every kernel op is lane-wise, so the permutation cannot change
        # any lane's bits; results map back to input order on return.
        order = np.argsort(-num_decisions, kind="stable")
        slot_decisions = num_decisions[order]

        own_pos = np.empty((total, 3))
        own_vel = np.empty((total, 3))
        intr_pos = np.empty((total, 3))
        intr_vel = np.empty((total, 3))
        for slot, s in enumerate(order):
            own0, intr0 = decode_encounter(params_list[s])
            rows = slice(slot * n, (slot + 1) * n)
            own_pos[rows] = own0.position
            own_vel[rows] = own0.velocity
            intr_pos[rows] = intr0.position
            intr_vel[rows] = intr0.velocity

        mark = time.perf_counter
        t_tape = t_decision = t_physics = t_observe = 0.0

        sub_dt = config.decision_dt / config.physics_substeps
        substeps = config.physics_substeps
        own_equipped = self.equipage in ("both", "own-only")
        intr_equipped = self.equipage == "both"

        t0 = mark()
        tapes = self._draw_noise_tapes(
            [rngs[s] for s in order], slot_decisions, n, total
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
            horizontal = np.hypot(delta[:, 0], delta[:, 1])
            vertical = np.abs(delta[:, 2])
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

            # This decision's noise is pure tape indexing — the active
            # prefix makes every slice below a plain view.
            t0 = mark()
            sense_noise = (
                [tape[decision][lanes] for tape in tapes.sense]
                if tapes.sense is not None else None
            )
            vert_noise = (
                tapes.vert[decision][:, :, lanes]
                if tapes.vert is not None else None
            )
            horiz_noise = (
                tapes.horiz[decision][:, :, lanes, :]
                if tapes.horiz is not None else None
            )
            t_tape += mark() - t0

            # The active lanes are a contiguous prefix, so these are
            # views: every in-place update below lands directly in the
            # full lane arrays with no scatter-back.
            t0 = mark()
            op, ov = own_pos[lanes], own_vel[lanes]
            ip, iv = intr_pos[lanes], intr_vel[lanes]
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

        if profile is not None:
            profile.tape_draw += t_tape
            profile.decision += t_decision
            profile.physics += t_physics
            profile.observe += t_observe
            profile.calls += 1
            profile.scenarios += num_scenarios
            profile.lanes += total

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
