"""The `Scenario` abstraction: one interface over every encounter source.

The paper's validation workflow consumes encounters from three kinds of
places — explicit :class:`EncounterParameters` (the Fig. 5 walkthrough),
named preset geometries (head-on, tail approach), and sampled sources
(the statistical encounter model, GA genomes).  Before this module each
pipeline re-wired those by hand; a :class:`Campaign` instead accepts any
*scenario source* and asks it for a concrete scenario list at run time.

A source is anything with ``scenarios(seed) -> List[Scenario]``.  The
seed argument matters only for sampled sources; deterministic sources
ignore it, which is what lets a campaign reproduce bit-for-bit from its
root seed alone.  :func:`as_scenario_source` coerces the common
shorthand spellings — a preset name, a parameters object, a genome
array, or a sequence mixing all three — so callers rarely construct
source objects explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.encounters.encoding import (
    EncounterParameters,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.util.rng import SeedLike, as_generator

#: Named preset geometries, shared by the library and the CLI.
PRESETS: Dict[str, Callable[..., EncounterParameters]] = {
    "head_on": head_on_encounter,
    "tail_approach": tail_approach_encounter,
}


@dataclass(frozen=True)
class Scenario:
    """One concrete encounter to be simulated, with a display name."""

    name: str
    params: EncounterParameters

    @property
    def genome(self) -> np.ndarray:
        """The scenario's 9-parameter genome vector."""
        return self.params.as_array()


class ScenarioSource(Protocol):
    """Anything that can produce a scenario list for a campaign."""

    def scenarios(self, seed: SeedLike = None) -> List[Scenario]:
        """Concrete scenarios; *seed* drives sampled sources."""
        ...


#: One item of an explicit scenario listing.
ScenarioItem = Union[
    Scenario,
    EncounterParameters,
    str,
    np.ndarray,
    Sequence[float],
    Tuple[str, EncounterParameters],
]


def preset_scenario(name: str, **overrides) -> Scenario:
    """Build a :class:`Scenario` from a preset name.

    Accepts both ``head_on`` and ``head-on`` spellings; *overrides* are
    forwarded to the preset factory (e.g. ``miss_distance=50.0``).
    """
    key = name.replace("-", "_")
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known presets: {known})")
    return Scenario(name=key, params=PRESETS[key](**overrides))


def _as_scenario(item: ScenarioItem, index: int) -> Scenario:
    """Normalize one explicit item into a :class:`Scenario`."""
    if isinstance(item, Scenario):
        return item
    if isinstance(item, EncounterParameters):
        return Scenario(name=f"scenario-{index:04d}", params=item)
    if isinstance(item, str):
        return preset_scenario(item)
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[0], str)
        and isinstance(item[1], EncounterParameters)
    ):
        return Scenario(name=item[0], params=item[1])
    # Remaining possibility: a genome vector.
    genome = np.asarray(item, dtype=float)
    if genome.ndim != 1:
        raise TypeError(
            f"cannot interpret scenario item of shape {genome.shape}; "
            "pass 2-D genome arrays to GenomeSource or as_scenario_source"
        )
    return Scenario(
        name=f"genome-{index:04d}",
        params=EncounterParameters.from_array(genome),
    )


class ExplicitSource:
    """A fixed scenario list (parameters, presets, genomes, or a mix)."""

    def __init__(self, items: Sequence[ScenarioItem]):
        items = list(items)
        if not items:
            raise ValueError("ExplicitSource needs at least one scenario")
        self._scenarios = [_as_scenario(item, i) for i, item in enumerate(items)]

    def scenarios(self, seed: SeedLike = None) -> List[Scenario]:
        """The fixed list; *seed* is ignored (the source is explicit)."""
        return list(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)


class PresetSource(ExplicitSource):
    """Named preset geometries (``head_on``, ``tail_approach``, ...)."""

    def __init__(self, *names: str):
        if not names:
            raise ValueError("PresetSource needs at least one preset name")
        super().__init__([preset_scenario(name) for name in names])


class GenomeSource(ExplicitSource):
    """Scenarios from a ``(count, 9)`` genome array (GA output)."""

    def __init__(self, genomes: np.ndarray):
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        super().__init__([row for row in genomes])


class SampledSource:
    """Scenarios drawn from a generative model at campaign run time.

    Parameters
    ----------
    model:
        Anything with ``sample(count, seed) -> List[EncounterParameters]``
        (e.g. :class:`~repro.encounters.statistical.StatisticalEncounterModel`
        or :class:`~repro.encounters.generator.ScenarioGenerator` via its
        ``random_encounters``-compatible wrapper).
    count:
        Encounters drawn per campaign run.
    """

    def __init__(self, model, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        if not hasattr(model, "sample"):
            raise TypeError(
                f"{type(model).__name__} has no sample(count, seed) method"
            )
        self.model = model
        self.count = count

    def scenarios(self, seed: SeedLike = None) -> List[Scenario]:
        """Draw ``count`` encounters from the model."""
        drawn = self.model.sample(self.count, seed=as_generator(seed))
        return [
            Scenario(name=f"sample-{i:04d}", params=params)
            for i, params in enumerate(drawn)
        ]

    def __len__(self) -> int:
        return self.count


#: Wire-format cap on ``{"sample": N}``: a spec is planned by whoever
#: receives it (the service, under its submission lock), and planning
#: costs time and memory per sampled scenario.
MAX_WIRE_SAMPLE = 10_000


def source_from_spec(spec) -> ScenarioSource:
    """Build a scenario source from a plain-JSON specification.

    The wire format campaign specs travel in (the service's
    ``POST /campaigns`` body, config files): *spec* is either

    - a list of preset names and/or 9-float genome rows
      (``["head_on", "tail_approach"]``, ``[[...], [...]]``, mixed), or
    - ``{"sample": N}`` — draw N encounters from the statistical
      encounter model at campaign run time (seeded by the campaign's
      root seed, so the draw is part of the campaign's provenance);
      N is capped at :data:`MAX_WIRE_SAMPLE`.

    Raises ``ValueError`` with a one-line diagnosis for malformed
    specs — service request handlers surface it as a 400.
    """
    if isinstance(spec, dict):
        unknown = set(spec) - {"sample"}
        if unknown:
            raise ValueError(
                f"unknown scenario-spec keys {sorted(unknown)} "
                '(expected {"sample": N} or a list of presets/genomes)'
            )
        count = spec.get("sample")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValueError(
                f'"sample" must be a positive integer, got {count!r}'
            )
        if count > MAX_WIRE_SAMPLE:
            raise ValueError(
                f'"sample" must be at most MAX_WIRE_SAMPLE = '
                f"{MAX_WIRE_SAMPLE}, got {count}"
            )
        from repro.encounters.statistical import StatisticalEncounterModel

        return SampledSource(StatisticalEncounterModel(), count)
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ValueError("scenario list is empty")
        items: List[ScenarioItem] = []
        for i, item in enumerate(spec):
            if isinstance(item, str):
                items.append(preset_scenario(item))
            elif isinstance(item, (list, tuple)) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in item
            ):
                items.append(np.asarray(item, dtype=float))
            else:
                raise ValueError(
                    f"scenario item {i} must be a preset name or a "
                    f"genome row of numbers, got {item!r}"
                )
        try:
            return ExplicitSource(items)
        except (TypeError, ValueError) as error:
            raise ValueError(str(error)) from None
    raise ValueError(
        f"cannot interpret {type(spec).__name__} as a scenario spec "
        '(expected a list of presets/genomes or {"sample": N})'
    )


def as_scenario_source(spec) -> ScenarioSource:
    """Coerce *spec* into a :class:`ScenarioSource`.

    Accepts a source object (returned unchanged), a preset name, an
    :class:`EncounterParameters` / :class:`Scenario`, a genome array
    (1-D for one scenario, 2-D for many), or a sequence mixing any of
    the explicit forms.  Generative models must be wrapped in
    :class:`SampledSource` (they need a draw count).
    """
    if hasattr(spec, "scenarios") and callable(spec.scenarios):
        return spec
    if isinstance(spec, str):
        return PresetSource(spec)
    if isinstance(spec, (Scenario, EncounterParameters)):
        return ExplicitSource([spec])
    if isinstance(spec, np.ndarray):
        if spec.ndim <= 1:
            return ExplicitSource([spec])
        return GenomeSource(spec)
    if hasattr(spec, "sample"):
        raise TypeError(
            f"{type(spec).__name__} looks like a generative model; wrap it "
            "as SampledSource(model, count) to fix the number of draws"
        )
    if isinstance(spec, Sequence):
        return ExplicitSource(spec)
    raise TypeError(f"cannot interpret {type(spec).__name__} as a scenario source")
