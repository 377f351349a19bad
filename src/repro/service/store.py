"""Content-addressed fault-injection result store (SQLite).

An experiment's classification is a pure function of its inputs: the
embedded binary, the fault spec, the duration, the per-experiment
derived RNG seed (which fixes the injection instruction), and the fixed
run bound (:data:`repro.faults.model.RUN_SLACK`, which stays in the key
so that keys written before it was fixed still match).  Checkpointing
and worker count are provably
classification-neutral (``tests/test_checkpoint.py``,
``tests/test_campaign_parallel.py``), so they stay *out* of the key.
That makes the key a true content-address: any two jobs - today or
weeks apart, submitted by different clients - that plan the same
experiment over the same binary share one simulation.

Keys are SHA-256 over a canonical ``argus-exp/v1`` string; the binary
itself is collapsed to :func:`binary_digest` (canonical JSON of the
text words, data image, bases, entry point and entry DCS - everything
execution can observe).  Records are the exact JSON dicts of
:func:`repro.runner.journal.result_to_record`, so store rows and
journal lines are interchangeable: :meth:`ResultStore.import_journal`
ingests a campaign journal, :meth:`ResultStore.export_journal` writes
one that ``Journal.load`` / ``execute_plan(resume=True)`` consume
directly.

The store is safe for multi-threaded use (one connection behind an
RLock; SQLite WAL where the filesystem allows it) - the scheduler's job
runner threads and the HTTP handlers share one instance.
"""

import hashlib
import json
import os
import sqlite3
import threading
import time

from repro.faults.model import RUN_SLACK

SCHEMA_VERSION = 1

KEY_NAMESPACE = "argus-exp/v1"


def binary_digest(embedded):
    """Canonical SHA-256 of an embedded binary's execution-visible content.

    Covers the text words, data image, section bases, entry point and
    entry DCS - the complete input of a checked run.  Labels and other
    assembler-side metadata are excluded: two binaries with identical
    words behave identically no matter what their symbols were called.
    """
    program = embedded.program
    payload = json.dumps({
        "words": ["%08x" % (word & 0xFFFFFFFF) for word in program.words],
        "data": bytes(program.data).hex(),
        "text_base": program.text_base,
        "data_base": program.data_base,
        "entry": program.entry,
        "entry_dcs": embedded.entry_dcs,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def experiment_key(digest, planned):
    """Content-address of one planned experiment over one binary."""
    spec = planned.spec
    key = "%s|%s|%s|%s|%s|%s|%s|%d|%s" % (
        KEY_NAMESPACE, digest, planned.duration, spec.target, spec.mask,
        spec.index, spec.is_state, planned.seed, repr(float(RUN_SLACK)))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def plan_keys(digest, plan):
    """``{experiment_id: content key}`` for every experiment of a plan."""
    return {exp.experiment_id: experiment_key(digest, exp)
            for exp in plan.experiments}


class ResultStore:
    """A content-addressed experiment-result cache bound to one SQLite file.

    ``path=":memory:"`` gives an ephemeral store (tests, benchmarks).
    Hit/miss counters are in-memory per-instance (they feed the
    service's ``/metrics``); the rows themselves persist.
    """

    def __init__(self, path=":memory:"):
        self.path = str(path)
        self._lock = threading.RLock()
        # A generous connect timeout plus busy_timeout makes the store
        # safe for *multi-process* sharing (several schedulers over one
        # SQLite file): concurrent writers wait out each other's
        # transactions instead of raising "database is locked".
        self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                     timeout=30.0)
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        with self._lock:
            try:
                self._conn.execute("PRAGMA busy_timeout=30000")
                self._conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.OperationalError:
                pass  # e.g. read-only or network filesystem; default mode
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " experiment_id TEXT NOT NULL,"
                " record TEXT NOT NULL,"
                " created REAL NOT NULL)")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            self._conn.execute(
                "INSERT OR IGNORE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),))
            self._conn.commit()

    # -- lookup --------------------------------------------------------------
    def get(self, key):
        """The result record stored under ``key`` (None on a miss)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT record FROM results WHERE key = ?", (key,)).fetchone()
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(row[0])

    def get_many(self, keys):
        """``{key: record}`` for every hit among ``keys`` (counts stats)."""
        found = {}
        with self._lock:
            for key in keys:
                row = self._conn.execute(
                    "SELECT record FROM results WHERE key = ?",
                    (key,)).fetchone()
                if row is not None:
                    found[key] = json.loads(row[0])
        self.hits += len(found)
        self.misses += len(keys) - len(found)
        return found

    def entries_many(self, keys):
        """``[(key, experiment_id, record)]`` for every hit among ``keys``.

        The triple form is exactly what :meth:`put_many` consumes, so
        two stores synchronize with
        ``other.put_many(self.entries_many(keys))`` - the wire format of
        the fabric's ``POST /store/sync`` exchange.  Does not touch the
        hit/miss counters (sync traffic is not demand lookups).
        """
        found = []
        with self._lock:
            for key in keys:
                row = self._conn.execute(
                    "SELECT experiment_id, record FROM results"
                    " WHERE key = ?", (key,)).fetchone()
                if row is not None:
                    found.append((key, row[0], json.loads(row[1])))
        return found

    def __len__(self):
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, key):
        with self._lock:
            return self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?",
                (key,)).fetchone() is not None

    # -- insertion -----------------------------------------------------------
    def put(self, key, experiment_id, record):
        """Store one result record under its content key (idempotent)."""
        with self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?)",
                (key, experiment_id, json.dumps(record, sort_keys=True),
                 time.time()))
            self._conn.commit()
            self.inserts += cursor.rowcount
            return bool(cursor.rowcount)

    def put_many(self, items):
        """Store ``(key, experiment_id, record)`` triples in one commit."""
        stored = 0
        with self._lock:
            for key, experiment_id, record in items:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?)",
                    (key, experiment_id,
                     json.dumps(record, sort_keys=True), time.time()))
                stored += cursor.rowcount
            self._conn.commit()
        self.inserts += stored
        return stored

    # -- journal interchange -------------------------------------------------
    def import_journal(self, path, keys_by_id):
        """Ingest a campaign journal's results under their content keys.

        ``keys_by_id`` maps experiment id -> content key (from
        :func:`plan_keys` for the plan that wrote the journal); journal
        entries whose id is not in the map are skipped.  Returns the
        number of newly stored records.
        """
        from repro.runner.journal import Journal

        journal = Journal(path).load()
        items = [(keys_by_id[eid], eid, record)
                 for eid, record in journal.records.items()
                 if eid in keys_by_id]
        return self.put_many(items)

    def export_journal(self, path, keys_by_id, plan=None, meta=None):
        """Write stored results as a journal that ``resume=True`` consumes.

        Only experiments present in the store are written (a partial
        export is a valid journal - the engine re-runs the rest).  With
        ``plan`` given, the header and plan-fingerprint records are
        emitted so the resuming engine gets its mismatch protection.
        Returns the number of result records written.
        """
        from repro.runner.journal import Journal

        journal = Journal(path)
        journal.ensure_header(meta or {})
        if plan is not None:
            journal.register_plan(plan)
        found = self.get_many(list(keys_by_id.values()))
        written = 0
        for experiment_id, key in keys_by_id.items():
            record = found.get(key)
            if record is not None:
                journal.append_result(experiment_id, record)
                written += 1
        journal.close()
        return written

    # -- stats / lifecycle ---------------------------------------------------
    def stats(self):
        lookups = self.hits + self.misses
        return {
            "path": self.path,
            "rows": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def close(self):
        with self._lock:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_store(path):
    """Open (creating parent directories for) a persistent store."""
    if path != ":memory:":
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    return ResultStore(path)
