"""In-memory span tracer and the hooks that attach it to the campaign stack.

A span records a name, start, end, the span that caused it (its parent
on the same thread's stack), the thread, and free-form attributes (an
instruction count, a job id).  Spans are kept in memory and written out
when the run ends.  A span's *self time* is its duration minus the part
of its interval that its child spans cover.

The hooks wrap public functions and methods of the ``repro`` package
from outside: nothing in ``src/`` knows it is being traced.  A plain
function is replaced in every loaded ``repro.*`` module namespace that
holds it by identity, because callers import the simulation loops by
name.  A hook whose target no longer exists is reported as missing,
never as an error, so the benchmark keeps running across refactors.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import weakref


class Span:
    """One timed call.  ``end`` is None while the span is open."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, span_id, name, start, parent, thread, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "attrs": self.attrs}


class Tracer:
    """Collects spans from any number of threads, one stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, **attrs):
        stack = self._stack()
        span = Span(next(self._ids), name, self.clock(),
                    stack[-1].id if stack else None,
                    threading.get_ident(), attrs)
        stack.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        return span

    def span(self, name, **attrs):
        return _SpanContext(self, name, attrs)

    def write(self, path):
        """Write every closed span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


class _SpanContext:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span = None

    def __enter__(self):
        self.span = self.tracer.begin(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


def self_times(spans):
    """``{span id: self time}``: duration minus the union of the
    intervals its children cover (clipped to the parent's interval)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


# -- hooks -------------------------------------------------------------------

def _loop_hook(tracer, fn, name):
    """Span around a simulation loop, tagged with the retired-instruction
    delta of the core it drives and with its outcome."""
    @functools.wraps(fn)
    def wrapper(core, *args, **kwargs):
        before = getattr(core, "instret", None)
        span = tracer.begin(name)
        try:
            outcome = fn(core, *args, **kwargs)
        finally:
            tracer.end(span)
        after = getattr(core, "instret", None)
        if before is not None and after is not None:
            span.attrs["instructions"] = after - before
        if isinstance(outcome, tuple) and outcome:
            span.attrs["positive"] = bool(outcome[0])
            span.attrs["halted"] = bool(getattr(core, "halted", False))
        return outcome
    return wrapper


def _golden_hook(tracer, fn, name):
    """Span around the *first* ``golden_trace`` call of each campaign;
    later calls return the cached trace and are not a golden run."""
    seen = weakref.WeakSet()

    @functools.wraps(fn)
    def wrapper(campaign, *args, **kwargs):
        if campaign in seen:
            return fn(campaign, *args, **kwargs)
        seen.add(campaign)
        span = tracer.begin(name)
        try:
            trace = fn(campaign, *args, **kwargs)
        finally:
            tracer.end(span)
        span.attrs["instructions"] = len(trace)
        checkpoints = getattr(campaign, "checkpoints", None)
        store = checkpoints() if callable(checkpoints) else None
        span.attrs["checkpoints"] = len(store) if store is not None else 0
        return trace
    return wrapper


def _sized_hook(tracer, fn, name):
    """Span tagged with how many items went in and how many came out
    (store lookups and hits, records written)."""
    @functools.wraps(fn)
    def wrapper(obj, *args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(obj, *args, **kwargs)
        finally:
            tracer.end(span)
        items = args[0] if args else None
        span.attrs["items"] = (len(items) if isinstance(items, (list, tuple))
                               else 1)
        span.attrs["found"] = (len(result) if isinstance(result, dict)
                               else int(result is not None))
        return result
    return wrapper


def _plain_hook(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
    return wrapper


#: (span name, module, attribute path, hook factory).  Each is a call
#: into a public function or method of one layer of the stack.
HOOKS = (
    ("embed", "repro.toolchain.embed", "embed_program", _plain_hook),
    ("golden", "repro.faults.campaign", "Campaign.golden_trace", _golden_hook),
    ("campaign", "repro.faults.campaign", "Campaign.run_planned", _plain_hook),
    ("campaign", "repro.faults.campaign", "Campaign.run_planned_batch",
     _plain_hook),
    ("core.construct", "repro.cpu.checkedcore", "CheckedCore.__init__",
     _plain_hook),
    ("checkpoint.restore", "repro.cpu.checkedcore", "CheckedCore.restore",
     _plain_hook),
    ("masking", "repro.faults.execution", "masking_loop", _loop_hook),
    ("detection", "repro.faults.execution", "detection_loop", _loop_hook),
    ("journal.append", "repro.runner.journal", "Journal.append_result",
     _plain_hook),
    ("journal.compact", "repro.runner.journal", "Journal.compact", _plain_hook),
    ("store.get", "repro.service.store", "ResultStore.get", _sized_hook),
    ("store.get", "repro.service.store", "ResultStore.get_many", _sized_hook),
    ("store.put", "repro.service.store", "ResultStore.put", _sized_hook),
    ("store.put", "repro.service.store", "ResultStore.put_many", _sized_hook),
    ("scheduler.build", "repro.service.scheduler",
     "CampaignSpec.build_campaign", _plain_hook),
)

#: Modules imported before hooking, so that every namespace holding a
#: hooked function by name already exists when the hooks are installed.
PRELOAD = ("repro.faults.campaign", "repro.cpu.batched", "repro.runner",
           "repro.service", "repro.workloads", "repro.faults.stress")


def install(tracer, hooks=HOOKS):
    """Wrap every hook target; returns ``(uninstall, missing)``.

    ``missing`` lists ``module:attribute`` for targets that no longer
    exist.  ``uninstall()`` puts every original back.
    """
    for module in PRELOAD:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    undo = []
    missing = []
    for name, module_name, path, factory in hooks:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append("%s:%s" % (module_name, path))
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append("%s:%s" % (module_name, path))
            continue
        wrapper = factory(tracer, original, name)
        if owner_name:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            continue
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    undo.append((loaded, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing
