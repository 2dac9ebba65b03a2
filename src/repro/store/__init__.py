"""Persistent campaign results: provenance, resume, cross-campaign queries.

The validation workflow's value is in *comparing* thousands of
simulated encounters across runs — unequipped vs equipped, GA vs
random, ablations — but loose JSON/CSV exports cannot be resumed,
deduplicated, or queried together.  This package is the durable sink
the experiment stack writes through instead:

- :mod:`repro.store.spec` — :class:`CampaignSpec`, the content-addressed
  provenance hash (root seed entropy, backend, equipage/coordination,
  runs per scenario, table/config/scenario digests) that decides when
  two runs are the same experiment;
- :mod:`repro.store.store` — :class:`ResultStore`, the sqlite store:
  streamed ingest from :meth:`~repro.experiments.Campaign.iter_records`,
  ``(campaign, scenario)``-keyed dedup, resume of interrupted
  campaigns (only the missing tail simulates), full
  :class:`~repro.experiments.ResultSet` reconstruction, JSON/CSV export
  parity, and cross-campaign queries/diffs.

Every pipeline accepts a store: ``Campaign.run(store=...)``,
``MonteCarloEstimator(store=...)``, ``EncounterFitness(store=...)``
(so every generation of a ``SearchRunner`` search), the CLI's
``--store PATH`` plus the ``repro store`` subcommands, and the
benchmark harness's ``record_campaign``.
"""

from repro.store.spec import (
    CampaignSpec,
    config_digest,
    results_digest,
    scenarios_digest,
    seed_fingerprint,
    table_digest,
)
from repro.store.store import (
    CampaignDiff,
    CampaignInfo,
    CorruptRecord,
    IntegrityReport,
    ResultStore,
    StoredRecord,
)

__all__ = [
    "CampaignDiff",
    "CampaignInfo",
    "CampaignSpec",
    "CorruptRecord",
    "IntegrityReport",
    "ResultStore",
    "StoredRecord",
    "config_digest",
    "results_digest",
    "scenarios_digest",
    "seed_fingerprint",
    "table_digest",
]
