"""The ``"distributed"`` backend: the megabatch backend bound to a fleet.

:class:`DistributedBackend` is the megabatch kernel,
:class:`~repro.sim.batch.BatchEncounterSimulator`, plus the shared
queue and store paths, and it keeps the megabatch ``name``: the
campaign's content-addressed id, its ``ResultSet`` and the spec its
workers rebuild all describe the plain megabatch backend, because
where chunks execute cannot change a bit.  Direct ``run_many`` calls
run in-process.  ``Campaign(backend="distributed", ...).run(seed)`` —
and so ``MonteCarloEstimator``, ``EncounterFitness`` (a
``SearchRunner`` search's generations) and ``repro campaign --backend
distributed`` — delegates to
:meth:`DistributedBackend.run_campaign`: ``submit`` →
:meth:`~repro.distributed.coordinator.DistributedRun.wait` →
``collect``, bitwise identical to the serial run.  The wait drains the
campaign in-process when no live worker could serve it, and raises
each poisoned chunk's ``last_error`` when chunks fail permanently.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.distributed.coordinator import _queue_path, _store_path, submit
from repro.sim.batch import BatchEncounterSimulator
from repro.sim.encounter import EncounterSimConfig

#: Environment variables supplying default queue/store paths, so
#: ``backend="distributed"`` works with zero per-call ceremony once a
#: shell (or CI job) has exported where its fleet lives.
QUEUE_ENV = "REPRO_QUEUE"
STORE_ENV = "REPRO_STORE"


class DistributedBackend(BatchEncounterSimulator):
    """The megabatch backend whose campaigns run on a worker fleet.

    ``make_backend("distributed", table=..., queue=..., store=...)``;
    *queue* and *store* default to ``$REPRO_QUEUE``/``$REPRO_STORE``,
    and :class:`~repro.experiments.Campaign` forwards them from its
    ``backend_options=``.
    """

    def __init__(
        self,
        table=None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
        queue: Optional[str] = None,
        store: Optional[str] = None,
    ):
        super().__init__(table, config, equipage, coordination)
        queue = queue or os.environ.get(QUEUE_ENV)
        store = store or os.environ.get(STORE_ENV)
        if not queue or not store:
            raise ValueError(
                "the distributed backend needs a shared queue and "
                "result store: pass backend_options={'queue': ..., "
                f"'store': ...}} or set ${QUEUE_ENV} and ${STORE_ENV}"
            )
        self.queue_path = _queue_path(queue)
        self.store_path = _store_path(store)

    def __repr__(self) -> str:
        return (
            f"DistributedBackend(queue={self.queue_path!r}, "
            f"store={self.store_path!r})"
        )

    def run_campaign(self, campaign, seed=None, chunk_size=None):
        """Submit *campaign*, wait for the fleet, collect the result.

        The metadata adds ``distributed_workers`` and
        ``distributed_fallback`` (whether the wait drained any chunk
        in-process) to the usual ``campaign_id``/``loaded``/
        ``simulated`` keys.
        """
        start = time.perf_counter()
        run = submit(
            campaign,
            seed,
            queue=self.queue_path,
            store=self.store_path,
            chunk_size=chunk_size,
        )
        final = run.wait(poll=0.05)
        results = run.collect()
        results.metadata["distributed_workers"] = "fleet"
        results.metadata["distributed_fallback"] = final.drained > 0
        results.wall_time = time.perf_counter() - start
        return results
