"""Verification of the generated logic against the model.

Section IV of the paper argues that for a synthesized policy,
*verification* ("is the logic correct with respect to the model?") is
largely discharged by the optimizer's correctness, leaving *validation*
as the hard problem.  This module makes the verification half concrete
and mechanical, so the claim "the optimized logic is correct with
respect to the model" is checked rather than assumed:

- :func:`check_symmetry` — the encounter model is symmetric under the
  vertical mirror (h → −h, rates negated, climb ↔ descend), so the
  solved Q-table must be too;
- :func:`check_terminal_consistency` — stage 0 must equal the model's
  terminal cost;
- :func:`check_value_monotonicity` — at co-altitude, more time to act
  can never be worse;
- :func:`cross_check_with_dense_solver` — on a reduced grid, the
  specialized sparse solver must agree with the generic dense
  backward-induction solver of :mod:`repro.mdp` run on an explicitly
  materialized MDP;
- :func:`check_decided_index` — wherever the table's decided-advisory
  index answers a lookup without interpolating
  (:meth:`LogicTable.decided_advisories`), its answer must be the
  interpolated argmax.

Each check returns a :class:`VerificationFinding`; :func:`verify_table`
runs them all and aggregates a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.acasx.advisories import (
    ADVISORIES,
    CLIMB,
    COC,
    DESCEND,
    NUM_ADVISORIES,
    STRONG_CLIMB,
    STRONG_DESCEND,
)
from repro.acasx.config import AcasConfig
from repro.acasx.logic_table import LogicTable
from repro.acasx.solver import (
    build_action_transition,
    stage_reward_matrix,
    terminal_values,
)

#: Advisory index permutation under the vertical mirror.
MIRROR_PERMUTATION = {
    COC.index: COC.index,
    CLIMB.index: DESCEND.index,
    DESCEND.index: CLIMB.index,
    STRONG_CLIMB.index: STRONG_DESCEND.index,
    STRONG_DESCEND.index: STRONG_CLIMB.index,
}


@dataclass
class VerificationFinding:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


@dataclass
class VerificationReport:
    """Aggregate of all verification checks on a table."""

    findings: List[VerificationFinding]

    @property
    def all_passed(self) -> bool:
        """Whether every check passed."""
        return all(f.passed for f in self.findings)

    def summary(self) -> str:
        """Readable multi-line report."""
        return "\n".join(str(f) for f in self.findings)


def _mirror_cube(values: np.ndarray, config: AcasConfig) -> np.ndarray:
    """Apply h → −h, dh0 → −dh0, dh1 → −dh1 to a flattened cube."""
    cube = values.reshape(config.num_h, config.num_rate, config.num_rate)
    return cube[::-1, ::-1, ::-1].reshape(-1)


def check_symmetry(table: LogicTable, tolerance: float = 1e-3) -> VerificationFinding:
    """Q(k, s, a, x) must equal Q(k, m(s), m(a), mirror(x)).

    The grids are symmetric, the noise distributions are symmetric, the
    advisory pairs are mirror images, and the costs are sense-blind, so
    any asymmetry in the solved table indicates a solver bug.
    """
    config = table.config
    max_error = 0.0
    for k in range(0, config.horizon + 1, max(1, config.horizon // 5)):
        for s in range(NUM_ADVISORIES):
            for a in range(NUM_ADVISORIES):
                original = table.q[k, s, a].astype(float)
                mirrored = _mirror_cube(
                    table.q[
                        k, MIRROR_PERMUTATION[s], MIRROR_PERMUTATION[a]
                    ].astype(float),
                    config,
                )
                max_error = max(
                    max_error, float(np.max(np.abs(original - mirrored)))
                )
    passed = max_error < tolerance
    return VerificationFinding(
        name="vertical-mirror symmetry",
        passed=passed,
        detail=f"max |Q - mirror(Q)| = {max_error:.2e} (tol {tolerance:.0e})",
    )


def check_terminal_consistency(table: LogicTable) -> VerificationFinding:
    """Stage 0 of the stored table must equal the model's terminal cost."""
    expected = terminal_values(table.config)
    max_error = 0.0
    for s in range(NUM_ADVISORIES):
        for a in range(NUM_ADVISORIES):
            max_error = max(
                max_error,
                float(np.max(np.abs(table.q[0, s, a] - expected))),
            )
    passed = max_error < 1e-2
    return VerificationFinding(
        name="terminal-stage consistency",
        passed=passed,
        detail=f"max |Q_0 - terminal| = {max_error:.2e}",
    )


def check_value_monotonicity(table: LogicTable) -> VerificationFinding:
    """At co-altitude with level rates, V_k must not decrease with k.

    More time before the closest approach can only help: the policy can
    always replicate the shorter-horizon behaviour by idling first
    (idling even earns the COC reward).
    """
    config = table.config
    mid_h = config.num_h // 2
    mid_rate = config.num_rate // 2
    state = (mid_h * config.num_rate + mid_rate) * config.num_rate + mid_rate
    values = [
        float(table.q[k, COC.index, :, state].max())
        for k in range(1, config.horizon + 1)
    ]
    violations = sum(
        1 for a, b in zip(values, values[1:]) if b < a - 1e-2
    )
    passed = violations == 0
    return VerificationFinding(
        name="value monotonicity in horizon",
        passed=passed,
        detail=(
            f"{violations} decreases along k at co-altitude "
            f"(V_1={values[0]:.1f} ... V_{config.horizon}={values[-1]:.1f})"
        ),
    )


def check_decided_index(table: LogicTable) -> VerificationFinding:
    """Decided advisories must equal the argmax of the interpolation.

    Draws 100,000 states from a generator seeded with 0, biased to
    where interpolation is most fragile: each coordinate is a grid
    point, or one ulp either side of one (a cell face), in half the
    draws and anywhere from 10 % below to 10 % above its axis
    otherwise; ``tau`` is a stage boundary, or one ulp either side, in
    half the draws and anywhere from before 0 to past the horizon
    otherwise.  The current advisory is COC in four draws of five, any
    advisory otherwise.
    Every state :meth:`LogicTable.decided_advisories` answers must get
    the advisory ``np.argmax`` picks from
    :meth:`LogicTable.q_values_batch`.
    """
    config = table.config
    samples = 100_000
    rng = np.random.default_rng(0)

    def near(points: np.ndarray) -> np.ndarray:
        spread = 0.1 * (points[-1] - points[0])
        anywhere = rng.uniform(points[0] - spread, points[-1] + spread,
                               samples)
        grid = rng.choice(points, samples)
        # Toward grid - 1, grid or grid + 1: an ulp below, on, or above.
        nudged = np.nextafter(grid, grid + rng.integers(-1, 2, samples))
        return np.where(rng.random(samples) < 0.5, nudged, anywhere)

    tau = near(np.arange(config.horizon + 1) * config.dt)
    coords = np.stack([near(axis.points) for axis in table.grid.axes])
    current = np.where(
        rng.random(samples) < 0.8,
        COC.index,
        rng.integers(0, NUM_ADVISORIES, samples),
    )
    decided = table.decided_advisories(tau, current, coords.T)
    answered = decided >= 0
    best = np.argmax(
        table.q_values_batch(tau[answered], current[answered],
                             coords[:, answered].T),
        axis=1,
    )
    wrong = int(np.count_nonzero(best != decided[answered]))
    return VerificationFinding(
        name="decided-advisory index",
        passed=wrong == 0,
        detail=(
            f"{answered.mean():.1%} of {samples:,} sampled states "
            f"answered without interpolating, {wrong} differ from the "
            "interpolated argmax"
        ),
    )


def cross_check_with_dense_solver(
    config: AcasConfig | None = None,
    tolerance: float = 1e-3,
) -> VerificationFinding:
    """Sparse specialized solver vs generic dense backward induction.

    Materializes the reduced model as an explicit
    ``(advisory-state × cube)``-state :class:`~repro.mdp.model.TabularMDP`
    and solves it with the generic solver of :mod:`repro.mdp`; the
    per-stage values must match the specialized solver's.
    """
    from repro.acasx.solver import build_logic_table
    from repro.mdp.model import TabularMDP
    from repro.mdp.value_iteration import backward_induction

    config = config or AcasConfig(num_h=9, num_rate=3, horizon=6)
    table = build_logic_table(config)

    cube = config.cube_size
    num_states = NUM_ADVISORIES * cube
    rewards_sa = stage_reward_matrix(config)
    transitions = np.zeros((NUM_ADVISORIES, num_states, num_states))
    rewards = np.zeros((NUM_ADVISORIES, num_states))
    cube_transitions = [
        np.asarray(build_action_transition(config, advisory).todense())
        for advisory in ADVISORIES
    ]
    for action in range(NUM_ADVISORIES):
        for current in range(NUM_ADVISORIES):
            rows = slice(current * cube, (current + 1) * cube)
            cols = slice(action * cube, (action + 1) * cube)
            transitions[action, rows, cols] = cube_transitions[action]
            rewards[action, rows.start:rows.stop] = rewards_sa[current, action]
    dense = TabularMDP(transitions, rewards)
    terminal = np.tile(terminal_values(config), NUM_ADVISORIES)
    result = backward_induction(dense, horizon=config.horizon,
                                terminal_values=terminal)

    max_error = 0.0
    for k in range(1, config.horizon + 1):
        # Dense Q[a, (s, cube)] vs table Q[k, s, a, cube].
        dense_q = result.q_values[k - 1]
        for s in range(NUM_ADVISORIES):
            for a in range(NUM_ADVISORIES):
                expected = dense_q[a, s * cube:(s + 1) * cube]
                stored = table.q[k, s, a].astype(float)
                max_error = max(
                    max_error, float(np.max(np.abs(expected - stored)))
                )
    passed = max_error < tolerance
    return VerificationFinding(
        name="dense-solver cross-check",
        passed=passed,
        detail=(
            f"max |Q_sparse - Q_dense| = {max_error:.2e} on a "
            f"{config.num_h}x{config.num_rate}x{config.num_rate} grid"
        ),
    )


def verify_table(
    table: LogicTable, include_dense_cross_check: bool = True
) -> VerificationReport:
    """Run every verification check and aggregate the findings."""
    findings = [
        check_terminal_consistency(table),
        check_symmetry(table),
        check_value_monotonicity(table),
        check_decided_index(table),
    ]
    if include_dense_cross_check:
        findings.append(cross_check_with_dense_solver())
    return VerificationReport(findings=findings)
