"""Stratified Monte-Carlo estimation by encounter geometry.

The paper's Section IV complaint about plain Monte-Carlo: collisions
are rare, so "a large number of simulation runs are needed to get a
good probability estimation".  Stratification is the classical remedy:
partition the encounter space into strata (here: the geometry classes
whose risk differs by orders of magnitude — head-on, crossing,
tail-approach), estimate each stratum's rate separately, and recombine
with the strata's probability weights.  Variance drops roughly by the
between-strata variance share, and the dangerous tail-approach stratum
gets a usable per-stratum estimate instead of drowning in easy
head-on samples.

Each stratum is one :class:`~repro.experiments.Campaign` over its
sampled encounters, seeded from the estimate's generator, so every run
is seeded from that campaign's per-scenario ``SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.acasx.logic_table import LogicTable
from repro.analysis.geometry import classify_encounter
from repro.analysis.metrics import RateEstimate, wilson_interval
from repro.encounters.encoding import EncounterParameters
from repro.experiments.campaign import Campaign
from repro.montecarlo.estimator import EncounterSource
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_generator

#: The geometry strata, in reporting order.
STRATA = ("head-on", "crossing", "tail-approach")


@dataclass
class StratumEstimate:
    """Per-stratum results."""

    name: str
    weight: float
    encounters: int
    nmac: RateEstimate

    def __str__(self) -> str:
        return (
            f"{self.name:<14} weight={self.weight:.3f} "
            f"({self.encounters} encounters): NMAC {self.nmac}"
        )


@dataclass
class StratifiedReport:
    """Aggregate of a stratified campaign."""

    strata: List[StratumEstimate]
    combined_rate: float
    combined_std_error: float
    naive_std_error: float

    @property
    def variance_reduction(self) -> float:
        """Naive-over-stratified standard-error ratio (> 1 is a win)."""
        if self.combined_std_error == 0:
            return float("inf")
        return self.naive_std_error / self.combined_std_error

    def summary(self) -> str:
        """Readable multi-line report."""
        lines = [str(s) for s in self.strata]
        lines.append(
            f"combined NMAC rate: {self.combined_rate:.4f} "
            f"± {self.combined_std_error:.4f} (1σ)"
        )
        lines.append(
            f"naive-sampling σ at equal budget: {self.naive_std_error:.4f} "
            f"(variance reduction {self.variance_reduction:.2f}x)"
        )
        return "\n".join(lines)


class StratifiedEstimator:
    """Geometry-stratified NMAC-rate estimation.

    :meth:`estimate` runs one equipped campaign per stratum on the
    megabatch backend (``"vectorized-batch"``, both aircraft equipped
    and coordinating); the estimator holds no simulator of its own.

    Parameters
    ----------
    table:
        System under test.
    source:
        Encounter generator (defines the strata weights empirically).
    sim_config / runs_per_encounter:
        As in :class:`~repro.montecarlo.estimator.MonteCarloEstimator`.
    """

    def __init__(
        self,
        table: LogicTable,
        source: EncounterSource,
        sim_config: EncounterSimConfig | None = None,
        runs_per_encounter: int = 10,
    ):
        if runs_per_encounter < 1:
            raise ValueError("runs_per_encounter must be >= 1")
        self.table = table
        self.source = source
        self.sim_config = sim_config or EncounterSimConfig()
        self.runs_per_encounter = runs_per_encounter

    def _estimate_weights(
        self, rng: np.random.Generator, pilot: int
    ) -> Dict[str, float]:
        """Strata probabilities from a pilot sample of the source."""
        encounters = self.source.sample(pilot, seed=rng)
        counts = {name: 0 for name in STRATA}
        for params in encounters:
            counts[classify_encounter(params)] += 1
        return {name: counts[name] / pilot for name in STRATA}

    def _sample_stratum(
        self,
        name: str,
        count: int,
        rng: np.random.Generator,
        max_attempts_factor: int = 200,
    ) -> List[EncounterParameters]:
        """Rejection-sample *count* encounters of one geometry class."""
        collected: List[EncounterParameters] = []
        attempts = 0
        limit = max(count * max_attempts_factor, 1000)
        while len(collected) < count and attempts < limit:
            batch = self.source.sample(max(count, 32), seed=rng)
            attempts += len(batch)
            for params in batch:
                if classify_encounter(params) == name:
                    collected.append(params)
                    if len(collected) == count:
                        break
        if len(collected) < count:
            raise RuntimeError(
                f"could not sample {count} '{name}' encounters from the "
                f"source within {limit} attempts"
            )
        return collected

    def estimate(
        self,
        encounters_per_stratum: int,
        seed: SeedLike = None,
        pilot: int = 400,
        confidence: float = 0.95,
    ) -> StratifiedReport:
        """Run the stratified campaign.

        Parameters
        ----------
        encounters_per_stratum:
            Encounters simulated in *each* geometry class (equal
            allocation — the rare dangerous stratum gets as many
            samples as the common safe one).
        seed:
            RNG seed: the pilot, each stratum's sample and each
            stratum campaign's root seed derive from it in turn.
        pilot:
            Pilot-sample size used to estimate the strata weights.
        confidence:
            CI level for the per-stratum Wilson intervals.
        """
        if encounters_per_stratum < 1:
            raise ValueError("encounters_per_stratum must be >= 1")
        rng = as_generator(seed)
        weights = self._estimate_weights(rng, pilot)

        strata: List[StratumEstimate] = []
        combined_rate = 0.0
        combined_variance = 0.0
        rates = {}
        for name in STRATA:
            results = Campaign(
                self._sample_stratum(name, encounters_per_stratum, rng),
                table=self.table,
                runs_per_scenario=self.runs_per_encounter,
                sim_config=self.sim_config,
            ).run(seed=rng)
            trials = results.total_runs
            estimate = wilson_interval(results.nmac_count, trials, confidence)
            rates[name] = estimate.rate
            strata.append(
                StratumEstimate(
                    name=name,
                    weight=weights[name],
                    encounters=encounters_per_stratum,
                    nmac=estimate,
                )
            )
            combined_rate += weights[name] * estimate.rate
            combined_variance += (
                weights[name] ** 2
                * estimate.rate
                * (1 - estimate.rate)
                / trials
            )

        # Naive sampling at the same total budget: variance of a single
        # binomial draw from the mixture.
        total_trials = (
            len(STRATA) * encounters_per_stratum * self.runs_per_encounter
        )
        naive_variance = combined_rate * (1 - combined_rate) / total_trials
        # Plus the between-strata variance naive sampling pays for.
        between = sum(
            weights[name] * (rates[name] - combined_rate) ** 2
            for name in STRATA
        )
        naive_variance += between / total_trials
        return StratifiedReport(
            strata=strata,
            combined_rate=combined_rate,
            combined_std_error=float(np.sqrt(combined_variance)),
            naive_std_error=float(np.sqrt(naive_variance)),
        )
