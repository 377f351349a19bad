"""Parallel campaign execution engine (planning, pooling, journaling).

The fault-injection campaigns behind Table 1 and Secs. 4.1-4.2 are
embarrassingly parallel: every experiment is an independent pair of
bounded runs.  This package decouples *what* a campaign computes
(:mod:`repro.faults.campaign`) from *how* it executes:

* :mod:`repro.runner.plan` - deterministic experiment planning.  The
  injection points are sampled once from a seed-derived master stream
  and every experiment carries its own derived RNG seed, so quadrant
  counts are bit-identical for any worker count or execution order.
* :mod:`repro.runner.pool` - a :class:`~concurrent.futures.ProcessPoolExecutor`
  engine with per-experiment timeouts, retry of crashed or hung worker
  batches, and graceful fallback to in-process serial execution.
* :mod:`repro.runner.journal` - an append-only JSONL result journal
  with checkpoint/resume: a killed campaign restarts where it stopped,
  skipping already-journaled experiment ids.
* :mod:`repro.runner.telemetry` - structured progress events
  (throughput, ETA, live per-checker attribution) with pluggable sinks.

Entry points: ``Campaign.run(..., workers=, journal=, resume=)`` and the
``argus-repro campaign`` CLI subcommand.  See ``docs/CAMPAIGNS.md``.
"""

from repro.runner.journal import (Journal, JournalError, JournalMismatch,
                                  record_to_result, result_to_record)
from repro.runner.plan import (CampaignPlan, PlannedExperiment, derive_seed,
                               plan_campaign)
from repro.runner.pool import aggregate_records, default_workers, execute_plan
from repro.runner.telemetry import (CallbackTelemetry, JsonlTelemetry,
                                    LegacyPrintTelemetry, NullTelemetry,
                                    StderrTelemetry, TeeTelemetry,
                                    TelemetryEvent, TelemetrySink, coerce_sink,
                                    event_to_dict)

__all__ = [
    "CampaignPlan",
    "PlannedExperiment",
    "derive_seed",
    "plan_campaign",
    "Journal",
    "JournalError",
    "JournalMismatch",
    "record_to_result",
    "result_to_record",
    "aggregate_records",
    "default_workers",
    "execute_plan",
    "TelemetryEvent",
    "TelemetrySink",
    "NullTelemetry",
    "StderrTelemetry",
    "CallbackTelemetry",
    "JsonlTelemetry",
    "TeeTelemetry",
    "LegacyPrintTelemetry",
    "coerce_sink",
    "event_to_dict",
]
