"""Append-only JSONL campaign journal with checkpoint/resume.

Journal layout (one JSON object per line, append-only)::

    {"kind": "header", "version": 1, "seed": 0, ...}
    {"kind": "plan", "duration": "transient", "fingerprint": "4f2a...", "experiments": 400}
    {"kind": "result", "id": "transient/000000", "result": {...}}
    {"kind": "result", "id": "transient/000001", "result": {...}}

Every result is flushed as soon as its experiment finishes, so a killed
campaign loses at most the experiments in flight.  On resume the loader
tolerates a truncated final line (the kill may land mid-write), indexes
finished experiment ids, and the engine re-runs only the rest.  ``plan``
records pin the plan fingerprint: resuming under a different seed,
experiment count, or point population raises :class:`JournalMismatch`
instead of silently mixing incompatible results.

One journal file can hold several plans (e.g. the transient and
permanent rows of Table 1) because experiment ids are duration-prefixed.
"""

import json
import os

from repro.faults.model import FaultSpec

JOURNAL_VERSION = 1

#: ExperimentResult fields copied verbatim into / out of result records.
_RESULT_FIELDS = (
    "duration", "inject_at", "masked", "detected", "checker", "detail",
    "activated_at", "latency_instructions", "latency_cycles",
    "latency_blocks", "hung",
)

#: Fields added after journal version 1 shipped; absent in old journals
#: (and in records produced by old writers), so reads fall back to the
#: default instead of raising.  Keys a reader does not know (fields
#: retired since they were written) are ignored.
_RESULT_DEFAULTS = {
    # Structured detector attribution (checker id, firing site, latency
    # triple, raw residues) - None (elided) for undetected outcomes and
    # in every pre-diagnosis journal.
    "attribution": None,
}


class JournalError(ValueError):
    """A journal cannot be (re)used as requested."""


class JournalMismatch(JournalError):
    """The journal was written by an incompatible campaign plan."""


def result_to_record(result):
    """Serialize an ExperimentResult to a JSON-ready dict."""
    record = {field: getattr(result, field) for field in _RESULT_FIELDS}
    for field, default in _RESULT_DEFAULTS.items():
        value = getattr(result, field)
        if value != default:  # keep older records byte-identical
            record[field] = value
    spec = result.spec
    record["spec"] = None if spec is None else {
        "target": spec.target,
        "mask": spec.mask,
        "index": spec.index,
        "is_state": spec.is_state,
    }
    return record


def record_to_result(record):
    """Rebuild an ExperimentResult from a journal record."""
    from repro.faults.campaign import ExperimentResult

    spec = record.get("spec")
    if spec is not None:
        spec = FaultSpec(target=spec["target"], mask=spec["mask"],
                         index=spec["index"], is_state=spec["is_state"])
    fields = {field: record[field] for field in _RESULT_FIELDS}
    fields.update({field: record.get(field, default)
                   for field, default in _RESULT_DEFAULTS.items()})
    return ExperimentResult(spec=spec, **fields)


def record_quadrant(record):
    """Table 1 quadrant of a result record (mirrors ExperimentResult)."""
    if record["masked"]:
        return "masked_detected" if record["detected"] else "masked_undetected"
    return "unmasked_detected" if record["detected"] else "unmasked_undetected"


class Journal:
    """An append-only JSONL journal bound to one file path."""

    def __init__(self, path):
        self.path = str(path)
        self.meta = None
        self.plans = {}  # duration -> fingerprint
        self.records = {}  # experiment id -> result record (dict)
        self._handle = None

    # -- reading -----------------------------------------------------------
    def load(self):
        """Index the journal's existing content; tolerates a torn tail."""
        self.meta = None
        self.plans = {}
        self.records = {}
        if not os.path.exists(self.path):
            return self
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn write from a mid-campaign kill
                kind = entry.get("kind")
                if kind == "header":
                    self.meta = entry
                elif kind == "plan":
                    self.plans[entry["duration"]] = entry["fingerprint"]
                elif kind == "result":
                    self.records[entry["id"]] = entry["result"]
        return self

    def done_ids(self, plan):
        """Ids of the plan's experiments already present in the journal."""
        return [eid for eid in plan.ids if eid in self.records]

    # -- writing -----------------------------------------------------------
    def _append(self, entry):
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def ensure_header(self, meta=None):
        """Write the header record once per file."""
        if self.meta is not None:
            return
        entry = {"kind": "header", "version": JOURNAL_VERSION}
        entry.update(meta or {})
        self._append(entry)
        self.meta = entry

    def register_plan(self, plan):
        """Pin (or verify) the plan fingerprint for ``plan.duration``."""
        fingerprint = plan.fingerprint()
        existing = self.plans.get(plan.duration)
        if existing is not None:
            if existing != fingerprint:
                raise JournalMismatch(
                    "journal %s was written by a different %s plan "
                    "(fingerprint %s != %s); refusing to mix results"
                    % (self.path, plan.duration, existing, fingerprint))
            return
        self._append({"kind": "plan", "duration": plan.duration,
                      "fingerprint": fingerprint,
                      "experiments": len(plan)})
        self.plans[plan.duration] = fingerprint

    def append_result(self, experiment_id, record):
        """Journal one finished experiment (flushed immediately)."""
        self._append({"kind": "result", "id": experiment_id,
                      "result": record})
        self.records[experiment_id] = record

    # -- compaction ----------------------------------------------------------
    def compact(self):
        """Rewrite the journal dropping superseded and torn records.

        Resume paths can legally append an experiment id twice (a crash
        between the result write and the process exit re-runs the
        in-flight experiment on restart) and a kill can tear the final
        line.  ``load()`` already keeps last-wins, so duplicates only
        waste disk and re-parse time - compaction rewrites the file so
        its contents match what ``load()`` would index: one header, one
        plan record per duration, and each experiment id exactly once
        (its *last* record, in first-appearance order).  The rewrite is
        atomic (temp file + ``os.replace``); an empty or missing journal
        is a no-op.  Returns a stats dict (lines kept/dropped).
        """
        self.close()
        stats = {"results": 0, "duplicates_dropped": 0, "torn_dropped": 0}
        if not os.path.exists(self.path):
            return stats
        header = None
        plans = []  # (duration, entry) in first-seen order
        plan_seen = set()
        order = []  # experiment ids in first-appearance order
        last = {}  # experiment id -> last result entry
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    stats["torn_dropped"] += 1
                    continue
                kind = entry.get("kind")
                if kind == "header":
                    header = header or entry
                elif kind == "plan":
                    if entry["duration"] not in plan_seen:
                        plan_seen.add(entry["duration"])
                        plans.append(entry)
                elif kind == "result":
                    if entry["id"] in last:
                        stats["duplicates_dropped"] += 1
                    else:
                        order.append(entry["id"])
                    last[entry["id"]] = entry
        tmp_path = self.path + ".compact"
        with open(tmp_path, "w") as handle:
            for entry in ([header] if header else []) + plans:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            for experiment_id in order:
                handle.write(json.dumps(last[experiment_id],
                                        sort_keys=True) + "\n")
        os.replace(tmp_path, self.path)
        stats["results"] = len(order)
        self.load()
        return stats

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self.load()

    def __exit__(self, *exc):
        self.close()
        return False
