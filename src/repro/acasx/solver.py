"""Offline solve: backward-induction value iteration over the encounter MDP.

The model (Section II/III of the paper, following the ACAS X reports):

- *state*: relative altitude ``h``, own vertical rate ``dh0``, intruder
  vertical rate ``dh1`` — each on a uniform grid — plus the currently
  displayed advisory (hysteresis state) and the decision stage ``k``
  (seconds until horizontal closest approach);
- *actions*: the next advisory to display;
- *dynamics*: advisory-tracking ramp plus discrete white noise
  (:mod:`repro.acasx.dynamics`), successors projected back onto the grid
  by multilinear interpolation — the "sampling and interpolation" the
  paper's Section IV discusses;
- *preferences*: terminal NMAC cost, per-step alert costs, a clear-of-
  conflict reward, and one-off reversal/strengthening/new-alert costs.

Because the continuous dynamics depend only on the *chosen* advisory,
the expensive part of a Bellman backup is one sparse matrix-vector
product per action; the advisory-state dimension only shifts rewards.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
from scipy import sparse

from repro.acasx.advisories import (
    ADVISORIES,
    NUM_ADVISORIES,
    Advisory,
    is_new_alert,
    is_reversal,
    is_strengthening,
)
from repro.acasx.config import AcasConfig
from repro.acasx.dynamics import (
    intruder_rate_samples,
    own_rate_samples,
    relative_altitude_change,
)
from repro.acasx.logic_table import LogicTable, make_cube_grid


def stage_reward_matrix(config: AcasConfig) -> np.ndarray:
    """Per-step reward of choosing action *a* while displaying *sRA*.

    Shape ``(num_advisories, num_advisories)`` indexed ``[sRA, a]``.
    Rewards are state-independent; the collision cost enters through the
    terminal values.
    """
    rewards = np.zeros((NUM_ADVISORIES, NUM_ADVISORIES))
    for current in ADVISORIES:
        for chosen in ADVISORIES:
            if not chosen.is_active:
                reward = config.coc_reward
            else:
                reward = -config.alert_cost
                if chosen.strength >= 2:
                    reward -= config.strong_alert_extra
                if is_new_alert(current, chosen):
                    reward -= config.new_alert_cost
                if is_reversal(current, chosen):
                    reward -= config.reversal_cost
                if is_strengthening(current, chosen):
                    reward -= config.strengthen_cost
            rewards[current.index, chosen.index] = reward
    return rewards


def terminal_values(config: AcasConfig) -> np.ndarray:
    """Stage-0 values over the cube: −nmac_cost inside the NMAC band.

    An encounter reaching its closest point of approach with relative
    altitude inside ``±nmac_vertical`` is a near mid-air collision.
    """
    h = config.h_points
    inside = np.abs(h) < config.nmac_vertical
    values_h = np.where(inside, -config.nmac_cost, 0.0)
    cube = np.broadcast_to(
        values_h[:, None, None],
        (config.num_h, config.num_rate, config.num_rate),
    )
    return cube.reshape(-1).astype(float)


def build_action_transition(
    config: AcasConfig, advisory: Advisory
) -> sparse.csr_matrix:
    """Sparse cube-to-cube transition matrix for one advisory.

    Row ``s`` holds the probability-weighted interpolation weights of
    every successor grid corner reachable from cube point ``s`` when the
    own-ship tracks *advisory* for one step.

    Every row has the same number of entries before duplicates are
    summed, one per (own sample, intruder sample, cube corner), so they
    are written straight into CSR arrays with rows of equal width: one
    column array and one data array, filled sample pair by sample pair,
    each pair's corner-major ``(corners, cube)`` block into its own
    columns.  A row's entries stand in (sample pair, corner) order, and
    the per-row sort in ``sum_duplicates`` is unstable, so that order is
    part of the matrix's bits.
    """
    grid = make_cube_grid(config)
    h_points = config.h_points
    rate_points = config.rate_points
    num_h, num_rate = config.num_h, config.num_rate
    cube_size = config.cube_size
    own_samples = own_rate_samples(config, advisory)
    intruder_samples = intruder_rate_samples(config)

    num_corners = 2**grid.ndim
    width = len(own_samples) * len(intruder_samples) * num_corners
    # scipy's own choice for this many entries: int32 unless they
    # outgrow it.
    index_dtype = sparse.get_index_dtype(maxval=cube_size * width)
    cols = np.empty((cube_size, width), dtype=index_dtype)
    data = np.empty((cube_size, width))

    # Current values on the cube, flattened in (h, dh0, dh1) C order.
    h_now = np.repeat(h_points, num_rate * num_rate)
    dh0_now = np.tile(np.repeat(rate_points, num_rate), num_h)
    dh1_now = np.tile(rate_points, num_h * num_rate)

    start = 0
    for own_next_grid, p_own in own_samples:
        # Successor own rate per cube point.
        dh0_next = np.tile(np.repeat(own_next_grid, num_rate), num_h)
        for intr_next_grid, p_intr in intruder_samples:
            dh1_next = np.tile(intr_next_grid, num_h * num_rate)
            h_next = relative_altitude_change(
                h_now, dh0_now, dh0_next, dh1_now, dh1_next, config.dt
            )
            coords = np.stack([h_next, dh0_next, dh1_next])
            indices, weights = grid.corners(coords.T)
            pair = slice(start, start + num_corners)
            cols[:, pair] = indices.T
            np.multiply(weights.T, p_own * p_intr, out=data[:, pair])
            start += num_corners

    indptr = np.arange(0, cube_size * width + 1, width, dtype=index_dtype)
    matrix = sparse.csr_matrix(
        (data.reshape(-1), cols.reshape(-1), indptr),
        shape=(cube_size, cube_size),
    )
    matrix.sum_duplicates()
    return matrix


def build_logic_table(
    config: AcasConfig | None = None, verbose: bool = False
) -> LogicTable:
    """Run the full offline pipeline: model → DP solve → logic table.

    Parameters
    ----------
    config:
        Model configuration (defaults to :class:`AcasConfig`'s defaults).
    verbose:
        Print per-stage progress (useful when solving paper-resolution
        grids).

    Returns
    -------
    A :class:`LogicTable` with Q-values for every stage, advisory state,
    action and cube point.  Q is written stage by stage straight into
    the table's corner-major ``[k, sRA, cube, a]`` layout, so the table
    takes it without a second copy.
    """
    config = config or AcasConfig()
    start = time.perf_counter()

    transitions = [
        build_action_transition(config, advisory) for advisory in ADVISORIES
    ]
    build_elapsed = time.perf_counter() - start
    if verbose:
        nnz = sum(t.nnz for t in transitions)
        print(
            f"[acasx] transition matrices built in {build_elapsed:.2f}s "
            f"({nnz} nonzeros)"
        )

    rewards = stage_reward_matrix(config)
    v_terminal = terminal_values(config)
    cube_size = config.cube_size

    # Q corner-major, [k, sRA, cube, a]; stage 0 broadcasts the
    # terminal values.
    q = np.zeros(
        (config.horizon + 1, NUM_ADVISORIES, cube_size, NUM_ADVISORIES),
        dtype=np.float32,
    )
    q[0] = v_terminal[:, None]

    # V[sRA, cube] for the previous stage.
    v_prev = np.broadcast_to(v_terminal, (NUM_ADVISORIES, cube_size)).copy()
    for k in range(1, config.horizon + 1):
        expected = np.stack(
            [
                transitions[a] @ v_prev[a]
                for a in range(NUM_ADVISORIES)
            ]
        )  # (a, cube): continuation given the new advisory state is a.
        q_k = rewards[:, :, None] + expected[None, :, :]
        q[k] = q_k.transpose(0, 2, 1)
        v_prev = q_k.max(axis=1)
        if verbose and (k % 10 == 0 or k == config.horizon):
            print(f"[acasx] stage {k}/{config.horizon} solved")

    elapsed = time.perf_counter() - start
    metadata: Dict[str, object] = {
        "solver": "backward_induction",
        "build_seconds": round(build_elapsed, 3),
        "total_seconds": round(elapsed, 3),
        "cube_size": cube_size,
        "horizon": config.horizon,
    }
    if verbose:
        print(f"[acasx] logic table solved in {elapsed:.2f}s")
    return LogicTable(
        config=config, q_values=q.transpose(0, 1, 3, 2), metadata=metadata
    )
