"""Frozen pre-refactor megabatch kernel — the golden baseline.

This module preserves, verbatim, the ``run_many`` implementation (and
every numeric helper it touched, down to the logic-table interpolation)
as it stood **before** the noise-tape kernel refactor.  It is the
kernel's independent equivalence oracle and must not be "improved":
the tape kernel promises bitwise-identical results to the pre-refactor
draws, and the live kernel (with ``run()``, its one-scenario call)
evolves, so only a frozen copy can witness an accidental numerics
change.  If a test comparing against this module fails, either the
kernel broke or the repo's numerics were changed on purpose — in the
latter case update this module (and say so loudly in the commit),
because every stored campaign digest shifts with it.

Its shape is the pre-refactor one: a per-decision Python loop issuing
~``2 + 2 * substeps`` tiny ``Generator.normal`` calls per scenario, a
gather + scatter per ``observe`` call, and per-corner Python-loop grid
interpolation with uncached axis points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.acasx.advisories import ADVISORIES, NUM_ADVISORIES
from repro.encounters.encoding import decode_encounter
from repro.sim.batch import BatchEncounterSimulator, BatchResult
from repro.util.rng import SeedLike, as_generator
from repro.util.units import NMAC_HORIZONTAL_M, NMAC_VERTICAL_M

_TARGET_RATES = np.array(
    [a.target_rate if a.is_active else np.nan for a in ADVISORIES]
)
_ACCELS = np.array([a.acceleration for a in ADVISORIES])
_SENSES = np.array([a.sense.value for a in ADVISORIES])
_ACTIVE = np.array([a.is_active for a in ADVISORIES])

_Q_BATCH_BLOCK = 256


def _interp_weights_1d(axis_points, values):
    points = np.asarray(axis_points, dtype=float)
    vals = np.clip(np.asarray(values, dtype=float), points[0], points[-1])
    hi = np.searchsorted(points, vals, side="right")
    hi = np.clip(hi, 1, len(points) - 1)
    lo = hi - 1
    span = points[hi] - points[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        w_hi = np.where(span > 0, (vals - points[lo]) / span, 0.0)
    return lo.astype(np.int64), hi.astype(np.int64), w_hi


def _interp_table(grid, coords):
    """Pre-refactor ``Grid.interp_table``: per-corner Python loop,
    axis points rebuilt (``linspace``) on every call."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = coords.shape[0]
    num_corners = 1 << grid.ndim
    indices = np.zeros((n, num_corners), dtype=np.int64)
    weights = np.ones((n, num_corners), dtype=float)
    for dim, ax in enumerate(grid.axes):
        points = np.linspace(ax.low, ax.high, ax.num)
        lo, hi, w_hi = _interp_weights_1d(points, coords[:, dim])
        for corner in range(num_corners):
            take_hi = (corner >> dim) & 1
            idx = hi if take_hi else lo
            w = w_hi if take_hi else (1.0 - w_hi)
            indices[:, corner] += grid._strides[dim] * idx
            weights[:, corner] *= w
    return indices, weights


def _q_values_batch(table, tau, current_indices, coords):
    """Pre-refactor ``LogicTable.q_values_batch`` (same gather layout,
    frozen against future lookup optimisations)."""
    tau = np.asarray(tau, dtype=float)
    current_indices = np.asarray(current_indices, dtype=np.int64)
    k_float = np.clip(tau / table.config.dt, 0.0, table.config.horizon)
    k_lo = np.floor(k_float).astype(np.int64)
    k_hi = np.minimum(k_lo + 1, table.config.horizon)
    w_hi = k_float - k_lo

    indices, weights = _interp_table(table.grid, coords)
    cube = table.config.cube_size
    flat_q = table.q.reshape(-1)
    action_offsets = np.arange(NUM_ADVISORIES, dtype=np.int64) * cube
    stages = np.stack([k_lo, k_hi], axis=1)
    blocks = (
        ((stages * NUM_ADVISORIES + current_indices[:, None])
         * NUM_ADVISORIES * cube)[:, :, None] + action_offsets
    )
    n = tau.shape[0]
    out = np.empty((n, NUM_ADVISORIES))
    for start in range(0, n, _Q_BATCH_BLOCK):
        rows = slice(start, min(start + _Q_BATCH_BLOCK, n))
        gathered = flat_q[
            blocks[rows, :, :, None] + indices[rows, None, None, :]
        ]
        q_pair = np.sum(gathered * weights[rows, None, None, :], axis=3)
        out[rows] = (
            (1.0 - w_hi[rows])[:, None] * q_pair[:, 0]
            + w_hi[rows][:, None] * q_pair[:, 1]
        )
    return out


def _conflict_geometry(table, own_pos, own_vel, intr_pos, intr_vel):
    config = table.config
    horizon_seconds = config.horizon * config.dt
    rel_pos = intr_pos[:, :2] - own_pos[:, :2]
    rel_vel = intr_vel[:, :2] - own_vel[:, :2]
    speed_sq = np.einsum("ij,ij->i", rel_vel, rel_vel)
    dot = np.einsum("ij,ij->i", rel_pos, rel_vel)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(speed_sq > 1e-12, -dot / speed_sq, 0.0)
    tau = np.maximum(t_star, 0.0)
    at_cpa = rel_pos + rel_vel * tau[:, None]
    miss = np.hypot(at_cpa[:, 0], at_cpa[:, 1])

    converging = tau > 0.0
    within_horizon = tau <= horizon_seconds
    near_miss = miss <= config.conflict_horizontal_radius
    in_conflict = converging & within_horizon & near_miss
    return tau, in_conflict


def _decide_side(
    table, own_pos, own_vel, sensed_intr_pos, sensed_intr_vel,
    current_sra, forbidden_sense,
):
    n = own_pos.shape[0]
    tau, in_conflict = _conflict_geometry(
        table, own_pos, own_vel, sensed_intr_pos, sensed_intr_vel
    )
    new_sra = np.zeros(n, dtype=np.int64)
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
    q = _q_values_batch(table, tau[active], current_sra[active], coords)
    if forbidden_sense is not None:
        locked = forbidden_sense[active]
        for a_idx in range(NUM_ADVISORIES):
            if not _ACTIVE[a_idx]:
                continue
            conflict_mask = (locked != 0) & (_SENSES[a_idx] == locked)
            q[conflict_mask, a_idx] = -np.inf
    new_sra[active] = np.argmax(q, axis=1)
    return new_sra


def _apply_substep(pos, vel, sra, dt, vertical_noise, horizontal_noise):
    vz = vel[:, 2]
    active = _ACTIVE[sra]
    target = np.where(active, np.nan_to_num(_TARGET_RATES[sra]), 0.0)
    accel = _ACCELS[sra]

    error = np.where(active, target - vz, 0.0)
    max_change = accel * dt
    ramp = np.clip(error, -max_change, max_change)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ramp = np.where(active & (accel > 0), np.abs(ramp) / accel, 0.0)
    vz_capture = vz + ramp
    dz_cmd = (vz + vz_capture) / 2.0 * t_ramp + vz_capture * (dt - t_ramp)
    dz_free = vz * dt
    pos[:, 2] += np.where(active, dz_cmd, dz_free)
    vel[:, 2] = vz_capture

    if vertical_noise is not None:
        pos[:, 2] += 0.5 * vertical_noise * dt * dt
        vel[:, 2] += vertical_noise * dt

    if horizontal_noise is not None:
        pos[:, :2] += vel[:, :2] * dt + 0.5 * horizontal_noise * dt * dt
        vel[:, :2] += horizontal_noise * dt
    else:
        pos[:, :2] += vel[:, :2] * dt


def _draw_sense_noise_into(config, pos_out, vel_out, rows, n, rng):
    sensor = config.sensor
    pos_out[rows, 0] = rng.normal(0.0, sensor.horizontal_position_std, size=n)
    pos_out[rows, 1] = rng.normal(0.0, sensor.horizontal_position_std, size=n)
    pos_out[rows, 2] = rng.normal(0.0, sensor.vertical_position_std, size=n)
    vel_out[rows, 0] = rng.normal(0.0, sensor.horizontal_velocity_std, size=n)
    vel_out[rows, 1] = rng.normal(0.0, sensor.horizontal_velocity_std, size=n)
    vel_out[rows, 2] = rng.normal(0.0, sensor.vertical_velocity_std, size=n)


def reference_run_many(
    sim: BatchEncounterSimulator,
    params_list: Sequence,
    num_runs: int,
    seeds: Optional[Sequence[SeedLike]] = None,
) -> List[BatchResult]:
    """The pre-refactor ``run_many``, frozen.

    Same contract as :meth:`BatchEncounterSimulator.run_many` (and
    bitwise-identical results); *sim* supplies the table, config,
    equipage and coordination flags exactly as the method's ``self``
    did.
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

    config = sim.config
    table = sim.table
    num_scenarios = len(params_list)
    n = num_runs
    total = num_scenarios * n

    own_pos = np.empty((total, 3))
    own_vel = np.empty((total, 3))
    intr_pos = np.empty((total, 3))
    intr_vel = np.empty((total, 3))
    num_decisions = np.empty(num_scenarios, dtype=np.int64)
    for s, params in enumerate(params_list):
        own0, intr0 = decode_encounter(params)
        rows = slice(s * n, (s + 1) * n)
        own_pos[rows] = own0.position
        own_vel[rows] = own0.velocity
        intr_pos[rows] = intr0.position
        intr_vel[rows] = intr0.velocity
        duration = params.time_to_cpa + config.extra_duration
        num_decisions[s] = max(1, int(round(duration / config.decision_dt)))

    own_sra = np.zeros(total, dtype=np.int64)
    intr_sra = np.zeros(total, dtype=np.int64)
    own_alerted = np.zeros(total, dtype=bool)
    intr_alerted = np.zeros(total, dtype=bool)
    min_sep = np.full(total, np.inf)
    min_horiz = np.full(total, np.inf)
    nmac = np.zeros(total, dtype=bool)

    def observe(own_p, intr_p, lanes) -> None:
        delta = own_p - intr_p
        horizontal = np.hypot(delta[:, 0], delta[:, 1])
        vertical = np.abs(delta[:, 2])
        separation = np.hypot(horizontal, vertical)
        min_sep[lanes] = np.minimum(min_sep[lanes], separation)
        min_horiz[lanes] = np.minimum(min_horiz[lanes], horizontal)
        nmac[lanes] = nmac[lanes] | (
            (horizontal < NMAC_HORIZONTAL_M) & (vertical < NMAC_VERTICAL_M)
        )

    observe(own_pos, intr_pos, slice(None))

    sub_dt = config.decision_dt / config.physics_substeps
    substeps = config.physics_substeps
    own_equipped = sim.equipage in ("both", "own-only")
    intr_equipped = sim.equipage == "both"
    sensing = own_equipped or intr_equipped
    noise_std = config.disturbance.vertical_rate_std
    h_std = config.disturbance.horizontal_accel_std

    for decision in range(int(num_decisions.max())):
        active = np.flatnonzero(num_decisions > decision)
        m = active.size * n

        sense_noise = (
            [np.empty((m, 3)) for _ in range(4)] if sensing else None
        )
        vert_noise = (
            np.empty((substeps, 2, m)) if noise_std > 0 else None
        )
        horiz_noise = (
            np.empty((substeps, 2, m, 2)) if h_std > 0 else None
        )
        vert_scale = (
            noise_std / np.sqrt(sub_dt) if noise_std > 0 else 0.0
        )
        for j, s in enumerate(active):
            rows = slice(j * n, (j + 1) * n)
            rng = rngs[s]
            if sensing:
                _draw_sense_noise_into(
                    config, sense_noise[0], sense_noise[1], rows, n, rng
                )
                _draw_sense_noise_into(
                    config, sense_noise[2], sense_noise[3], rows, n, rng
                )
            for k in range(substeps):
                for side in (0, 1):
                    if vert_noise is not None:
                        vert_noise[k, side, rows] = rng.normal(
                            0.0, vert_scale, size=n
                        )
                    if horiz_noise is not None:
                        horiz_noise[k, side, rows] = rng.normal(
                            0.0, h_std, size=(n, 2)
                        )

        lanes = np.concatenate(
            [np.arange(s * n, (s + 1) * n) for s in active]
        )
        op, ov = own_pos[lanes], own_vel[lanes]
        ip, iv = intr_pos[lanes], intr_vel[lanes]
        osra, isra = own_sra[lanes], intr_sra[lanes]

        if own_equipped:
            forbidden = (
                _SENSES[isra]
                if (sim.coordination and intr_equipped)
                else None
            )
            osra = _decide_side(
                table, op, ov, ip + sense_noise[0], iv + sense_noise[1],
                osra, forbidden,
            )
            own_alerted[lanes] = own_alerted[lanes] | _ACTIVE[osra]
        if intr_equipped:
            forbidden = (
                _SENSES[osra]
                if (sim.coordination and own_equipped)
                else None
            )
            isra = _decide_side(
                table, ip, iv, op + sense_noise[2], ov + sense_noise[3],
                isra, forbidden,
            )
            intr_alerted[lanes] = intr_alerted[lanes] | _ACTIVE[isra]

        for k in range(substeps):
            _apply_substep(
                op, ov, osra, sub_dt,
                vert_noise[k, 0] if vert_noise is not None else None,
                horiz_noise[k, 0] if horiz_noise is not None else None,
            )
            _apply_substep(
                ip, iv, isra, sub_dt,
                vert_noise[k, 1] if vert_noise is not None else None,
                horiz_noise[k, 1] if horiz_noise is not None else None,
            )
            observe(op, ip, lanes)

        own_pos[lanes], own_vel[lanes] = op, ov
        intr_pos[lanes], intr_vel[lanes] = ip, iv
        own_sra[lanes], intr_sra[lanes] = osra, isra

    return [
        BatchResult(
            min_separation=min_sep[s * n:(s + 1) * n].copy(),
            min_horizontal=min_horiz[s * n:(s + 1) * n].copy(),
            nmac=nmac[s * n:(s + 1) * n].copy(),
            own_alerted=own_alerted[s * n:(s + 1) * n].copy(),
            intruder_alerted=intr_alerted[s * n:(s + 1) * n].copy(),
        )
        for s in range(num_scenarios)
    ]
