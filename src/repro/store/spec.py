"""Content-addressed campaign provenance: the :class:`CampaignSpec`.

A campaign's results are only comparable — and only resumable — if the
store can decide whether two runs were *the same experiment*.  This
module fixes what "the same" means: a :class:`CampaignSpec` captures
every input that determines a campaign's output bits (root seed
entropy, backend registry key, equipage/coordination, runs per
scenario, digests of the logic table, the simulation config and the
concrete scenario list) and hashes them into a stable hex
``campaign_id``.  Two campaigns with the same id produce bitwise
identical records, so the store can answer "which scenario indices are
already done?" and a re-run executes only the missing tail.

Digests are computed over canonical bytes (raw float64 genome buffers,
sorted-key JSON of plain dataclasses, the logic table's Q-array bytes),
never over pickles or repr strings, so the id is stable across
processes and Python versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.util.rng import as_seed_sequence

#: Bumped whenever the hashed canonical encoding changes, so stores
#: written by incompatible versions never alias campaign ids.
SPEC_VERSION = 1


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _canonical_json(value) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace drift)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def seed_fingerprint(seed) -> str:
    """Canonical identity of a root :class:`~numpy.random.SeedSequence`.

    Entropy alone is NOT the sequence's identity: every child produced
    by ``SeedSequence.spawn`` inherits its parent's ``entropy`` and
    differs only in ``spawn_key``, so hashing entropy alone would alias
    distinct spawned seeds onto one campaign — and a "resume" would
    silently return another seed's results.  The fingerprint therefore
    covers entropy (as decimal strings — never float), the spawn key,
    the pool size, and the spawn *counter* (re-using one sequence
    object spawns different children each time, so the same object at
    a later state is a different experiment).  Campaigns fingerprint
    their root sequence on entry, before planning spawns from it.
    """
    seq = as_seed_sequence(seed)
    entropy = seq.entropy
    if isinstance(entropy, (int, np.integer)):
        entropy_repr = [str(int(entropy))]
    elif entropy is None:
        entropy_repr = []
    else:  # sequence-of-ints entropy
        entropy_repr = [str(int(word)) for word in entropy]
    return _sha256(
        _canonical_json(
            {
                "entropy": entropy_repr,
                "spawn_key": [str(int(k)) for k in seq.spawn_key],
                "pool_size": int(seq.pool_size),
                "children_spawned": int(seq.n_children_spawned),
            }
        )
    )


def config_digest(config) -> Optional[str]:
    """Digest of a plain-dataclass simulation config (``None`` passes)."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config):
        payload = dataclasses.asdict(config)
    else:  # non-dataclass configs: their stable dict view, if any
        payload = getattr(config, "__dict__", repr(config))
    return _sha256(_canonical_json(payload))


#: The digest of every live table already hashed.  A table's Q is
#: read-only and its config frozen, so its digest cannot go stale.
_TABLE_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def table_digest(table) -> Optional[str]:
    """Digest of a logic table: its Q-array bytes plus its config.

    Hashes Q's canonical ``[k, sRA, a, cube]`` bytes (not a serialized
    container, nor the corner-major layout the table stores them in),
    so the same solved table always digests identically.  They stream
    into the hash one stage at a time: no more than one stage of Q is
    ever copied.  Each table is hashed once; later calls reuse it.
    """
    if table is None:
        return None
    digest = _TABLE_DIGESTS.get(table)
    if digest is None:
        digest = _TABLE_DIGESTS[table] = _hash_table(table)
    return digest


def _hash_table(table) -> str:
    q = table.q
    digest = hashlib.sha256(str(q.dtype).encode())
    digest.update(_canonical_json(list(q.shape)))
    for stage in q:
        digest.update(memoryview(np.ascontiguousarray(stage)).cast("B"))
    digest.update(
        _canonical_json(dataclasses.asdict(table.config))
        if dataclasses.is_dataclass(table.config)
        else repr(table.config).encode()
    )
    return digest.hexdigest()


def scenarios_digest(scenario_list) -> str:
    """Digest of the concrete scenario list (names + genome float bytes).

    Covers the *resolved* scenarios, after sampled sources have drawn —
    so a sampled campaign's id pins the exact encounters its root seed
    produced, and an explicit campaign's id pins its literal genomes.
    """
    digest = hashlib.sha256()
    for scenario in scenario_list:
        digest.update(scenario.name.encode())
        digest.update(b"\x00")
        genome = np.ascontiguousarray(
            scenario.params.as_array(), dtype=np.float64
        )
        digest.update(genome.tobytes())
    return digest.hexdigest()


def results_digest(result_set) -> str:
    """Digest of a materialized result set's per-run outcome arrays.

    The ingest path has no access to the logic table or sim config
    that produced a :class:`ResultSet`, so it content-addresses the
    *outcomes* instead: two result sets ingest to the same campaign
    only if every per-run array is bitwise identical — a changed table
    or config changes the outcomes and lands as a new campaign rather
    than silently deduping into stale records.
    """
    digest = hashlib.sha256()
    for record in result_set:
        for field_name in (
            "min_separation",
            "min_horizontal",
            "nmac",
            "own_alerted",
            "intruder_alerted",
        ):
            array = np.ascontiguousarray(getattr(record.runs, field_name))
            digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's output bits.

    ``seed_entropy`` is kept as a plain int (``SeedSequence`` entropy is
    typically 128 bits — far beyond float53 precision, which is why it
    is serialized as a decimal string everywhere downstream); it is
    provenance for humans and exports.  The *identity* contribution of
    the seed is ``seed_fp`` — the full :func:`seed_fingerprint`
    covering spawn key as well, so spawned children of one root seed
    never alias to the same campaign.
    """

    backend: str
    equipage: str
    coordination: bool
    runs_per_scenario: int
    num_scenarios: int
    seed_entropy: Optional[int]
    seed_fp: str = ""
    table_digest: Optional[str] = None
    config_digest: Optional[str] = None
    scenarios_digest: str = ""
    #: Only set on the ingest path (:meth:`of_resultset`), where the
    #: table/config digests are unreachable: the outcome bytes stand in
    #: for them so different tables cannot alias.
    results_digest: str = ""

    @classmethod
    def capture(
        cls, campaign, scenario_list, seed, seed_fp: Optional[str] = None
    ) -> "CampaignSpec":
        """Describe a planned campaign run (scenarios already resolved).

        *seed* is anything ``as_seed_sequence`` accepts — pass the
        campaign's actual root sequence so the identity covers its
        spawn key, not just its entropy.  *seed_fp* overrides the
        fingerprint when the caller snapshotted it before spawning
        from the sequence (what :meth:`Campaign.run` does).
        """
        backend = campaign.backend
        seq = as_seed_sequence(seed)
        entropy = seq.entropy
        return cls(
            backend=campaign.backend_name,
            equipage=campaign.equipage,
            coordination=campaign.coordination,
            runs_per_scenario=campaign.runs_per_scenario,
            num_scenarios=len(scenario_list),
            seed_entropy=(
                int(entropy)
                if isinstance(entropy, (int, np.integer))
                else None
            ),
            seed_fp=seed_fp if seed_fp is not None else seed_fingerprint(seq),
            table_digest=table_digest(getattr(backend, "table", None)),
            config_digest=config_digest(getattr(backend, "config", None)),
            scenarios_digest=scenarios_digest(scenario_list),
        )

    @classmethod
    def of_resultset(cls, result_set) -> "CampaignSpec":
        """Describe an already-materialized :class:`ResultSet`.

        Used to ingest results produced without a store (e.g. benchmark
        harness output).  Table/config digests and the root sequence
        are no longer reachable here, so the identity is built from
        the result set's recorded provenance — the entropy (treated as
        a root sequence), the resolved scenarios, and a digest of the
        outcome arrays themselves (so runs under different tables or
        configs never alias).  Ingesting bitwise-identical result sets
        intentionally dedups to the same campaign.
        """
        entropy = result_set.seed_entropy
        return cls(
            backend=result_set.backend,
            equipage=result_set.equipage,
            coordination=result_set.coordination,
            runs_per_scenario=result_set.runs_per_scenario,
            num_scenarios=len(result_set),
            seed_entropy=entropy,
            seed_fp="" if entropy is None else seed_fingerprint(entropy),
            scenarios_digest=scenarios_digest(
                [_RecordScenarioView(r) for r in result_set]
            ),
            results_digest=results_digest(result_set),
        )

    @property
    def campaign_id(self) -> str:
        """The content-addressed identity of this campaign."""
        payload = {
            "spec_version": SPEC_VERSION,
            "backend": self.backend,
            "equipage": self.equipage,
            "coordination": self.coordination,
            "runs_per_scenario": self.runs_per_scenario,
            "num_scenarios": self.num_scenarios,
            # Decimal string: ids must not depend on any consumer's
            # float handling of 128-bit entropy.
            "seed_entropy": (
                None if self.seed_entropy is None else str(self.seed_entropy)
            ),
            "seed_fp": self.seed_fp,
            "table_digest": self.table_digest,
            "config_digest": self.config_digest,
            "scenarios_digest": self.scenarios_digest,
            "results_digest": self.results_digest,
        }
        return _sha256(_canonical_json(payload))


class _RecordScenarioView:
    """Adapts a :class:`RunRecord` to the scenario digest interface."""

    def __init__(self, record):
        self.name = record.name
        self.params = record.params
