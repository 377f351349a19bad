"""Campaign service: a persistent fault-injection job server.

Every Argus evaluation (Table 1, the latency CDFs, Figures 5-7) is a
fault-injection campaign, but the CLI runs each one from scratch.  This
package turns the stack into a *server*: campaigns are submitted as
jobs, run through the same :func:`repro.runner.execute_plan` as the
CLI, and - crucially - **deduplicated**.  An experiment's outcome is a
pure function of (binary, fault spec, duration, derived seed), so
every experiment gets a content-address and identical
experiments across jobs are cache hits served from a SQLite store
instead of being re-simulated.

Four layers, stdlib only:

* :mod:`repro.service.store` - the content-addressed result store
  (SQLite): canonical experiment keys, cache statistics, and
  import/export in the :mod:`repro.runner.journal` JSONL format.
* :mod:`repro.service.scheduler` - a priority job queue that hands
  each campaign's cache-miss experiments to
  :func:`repro.runner.execute_plan` (in-process, or one process pool
  per plan with fresh-pool retries), with graceful drain on SIGTERM
  and crash-safe restart (jobs whose journal is incomplete are
  re-enqueued; no experiment is lost or run twice).
* :mod:`repro.service.server` - an asyncio HTTP JSON API:
  ``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events``
  (streamed telemetry), ``GET /jobs/<id>/results`` (JSONL),
  ``GET /healthz``, ``GET /metrics``.
* :mod:`repro.service.client` - a stdlib HTTP client used by the
  ``argus-repro submit / jobs / fetch`` subcommands and the tests.

Entry point: ``argus-repro serve``.  See ``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import (CampaignSpec, Job, JobScheduler,
                                     RetryPolicy, SpecError)
from repro.service.server import ServiceServer
from repro.service.store import ResultStore, binary_digest, experiment_key

__all__ = [
    "CampaignSpec",
    "Job",
    "JobScheduler",
    "RetryPolicy",
    "SpecError",
    "ResultStore",
    "binary_digest",
    "experiment_key",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
]
