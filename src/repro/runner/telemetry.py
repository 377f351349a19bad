"""Structured campaign telemetry: progress events and pluggable sinks.

The engine emits one :class:`TelemetryEvent` at campaign start, one per
finished experiment (with the live per-checker attribution counters),
and one at completion.  Sinks decide what to do with them:

* :class:`StderrTelemetry` - human-readable progress lines with
  throughput and ETA, rate-limited to one line per ``interval`` seconds;
* :class:`CallbackTelemetry` - machine-readable: forwards every event to
  a callable (dashboards, tests, schedulers);
* :class:`LegacyPrintTelemetry` - a stdout line every N experiments
  (the format of the paper report's progress lines);
* :class:`JsonlTelemetry` - appends every event as one JSON line to a
  file (the campaign service streams these back over
  ``GET /jobs/<id>/events``; the CLI exposes it as
  ``campaign --telemetry-jsonl PATH``);
* :class:`TeeTelemetry` - fans every event out to several sinks;
* :class:`NullTelemetry` - discard.

``coerce_sink`` adapts what callers pass (a sink, a bare callable, or
nothing) into a sink instance.
"""

import json
import sys
import time
from dataclasses import dataclass, field

EVENT_START = "start"
EVENT_EXPERIMENT = "experiment"
EVENT_FINISH = "finish"


@dataclass
class TelemetryEvent:
    """One progress observation of a running campaign."""

    kind: str  # start | experiment | finish
    duration: str  # transient | permanent | ...
    completed: int  # experiments done so far (including resumed ones)
    total: int
    elapsed: float  # seconds since the engine started
    skipped: int = 0  # experiments served from the resume journal
    quadrant: str = None  # experiment events only
    checker: str = None  # experiment events only (detections)
    checker_counts: dict = field(default_factory=dict)
    # Wall-clock throughput counters (Campaign.perf_rates snapshot):
    # experiments/s, instructions/s, lane-eviction rate and the raw
    # engine counters.  None when the engine exposes none.
    perf: dict = None

    @property
    def executed(self):
        """Experiments actually run in this invocation (not resumed)."""
        return self.completed - self.skipped

    @property
    def throughput(self):
        """Executed experiments per second (0.0 until the first one)."""
        if self.elapsed <= 0 or self.executed <= 0:
            return 0.0
        return self.executed / self.elapsed

    @property
    def eta_seconds(self):
        """Projected seconds to completion (None before any throughput)."""
        rate = self.throughput
        if rate <= 0:
            return None
        return (self.total - self.completed) / rate


def event_to_dict(event):
    """JSON-ready dict of a TelemetryEvent (derived fields included)."""
    eta = event.eta_seconds
    return {
        "kind": event.kind,
        "duration": event.duration,
        "completed": event.completed,
        "total": event.total,
        "elapsed": round(event.elapsed, 6),
        "skipped": event.skipped,
        "quadrant": event.quadrant,
        "checker": event.checker,
        "checker_counts": dict(event.checker_counts),
        "throughput": round(event.throughput, 6),
        "eta_seconds": None if eta is None else round(eta, 6),
        "perf": None if event.perf is None else dict(event.perf),
    }


class TelemetrySink:
    """Receives TelemetryEvents; subclasses override :meth:`event`."""

    def event(self, event):
        raise NotImplementedError

    def close(self):
        pass


class NullTelemetry(TelemetrySink):
    def event(self, event):
        pass


class CallbackTelemetry(TelemetrySink):
    """Forwards every event to ``fn(event)`` (machine-readable sink)."""

    def __init__(self, fn):
        self.fn = fn

    def event(self, event):
        self.fn(event)


class LegacyPrintTelemetry(TelemetrySink):
    """A stdout line every N results (``  [transient] 200/800 experiments``)."""

    def __init__(self, every, stream=None):
        self.every = max(1, int(every))
        self.stream = stream if stream is not None else sys.stdout

    def event(self, event):
        if event.kind != EVENT_EXPERIMENT:
            return
        if event.completed % self.every == 0:
            print("  [%s] %d/%d experiments"
                  % (event.duration, event.completed, event.total),
                  file=self.stream)


class JsonlTelemetry(TelemetrySink):
    """Appends every event as one JSON line, flushed immediately.

    Accepts a path (the handle is owned and closed by :meth:`close`) or
    an open file-like object (left open for the caller).  Each line is a
    self-contained :func:`event_to_dict` object, so a tailing reader -
    the service's ``/jobs/<id>/events`` endpoint, a dashboard, ``tail
    -f`` - needs no state to interpret it.
    """

    def __init__(self, path_or_handle):
        if hasattr(path_or_handle, "write"):
            self.handle = path_or_handle
            self._owned = False
        else:
            self.handle = open(path_or_handle, "a")
            self._owned = True

    def event(self, event):
        self.handle.write(json.dumps(event_to_dict(event),
                                     sort_keys=True) + "\n")
        self.handle.flush()

    def close(self):
        if self._owned:
            self.handle.close()


class TeeTelemetry(TelemetrySink):
    """Fans every event out to several sinks (e.g. stderr + JSONL)."""

    def __init__(self, *sinks):
        self.sinks = list(sinks)

    def event(self, event):
        for sink in self.sinks:
            sink.event(event)

    def close(self):
        for sink in self.sinks:
            sink.close()


class StderrTelemetry(TelemetrySink):
    """Human progress lines with throughput/ETA and live attribution."""

    def __init__(self, stream=None, interval=2.0, top_checkers=3):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.top_checkers = top_checkers
        self._last_emit = 0.0

    def _emit(self, text):
        print(text, file=self.stream)

    def event(self, event):
        if event.kind == EVENT_START:
            resumed = (", %d resumed from journal" % event.skipped
                       if event.skipped else "")
            self._emit("[%s] campaign: %d experiments%s"
                       % (event.duration, event.total, resumed))
            self._last_emit = time.monotonic()
            return
        if event.kind == EVENT_FINISH:
            self._emit("[%s] done: %d experiments in %.1fs (%.1f/s)%s"
                       % (event.duration, event.total, event.elapsed,
                          event.throughput, self._attribution(event)))
            return
        now = time.monotonic()
        if now - self._last_emit < self.interval:
            return
        self._last_emit = now
        eta = event.eta_seconds
        self._emit("[%s] %d/%d (%.1f%%) | %.1f/s | eta %s%s" % (
            event.duration, event.completed, event.total,
            100.0 * event.completed / max(event.total, 1),
            event.throughput,
            "%.0fs" % eta if eta is not None else "?",
            self._attribution(event)))

    def _attribution(self, event):
        if not event.checker_counts:
            return ""
        ranked = sorted(event.checker_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        cells = ["%s=%d" % item for item in ranked[:self.top_checkers]]
        return " | " + " ".join(cells)


def coerce_sink(telemetry=None):
    """Adapt a user-facing ``telemetry`` argument into one sink.

    A TelemetrySink is used as-is, a bare callable is wrapped in
    :class:`CallbackTelemetry`, and None discards every event.
    """
    if telemetry is None:
        return NullTelemetry()
    if isinstance(telemetry, TelemetrySink):
        return telemetry
    if callable(telemetry):
        return CallbackTelemetry(telemetry)
    raise TypeError("telemetry must be a TelemetrySink or callable, "
                    "got %r" % (telemetry,))


class ProgressTracker:
    """Engine-side helper that turns commits into TelemetryEvents."""

    def __init__(self, sink, duration, total, skipped=0, perf=None):
        self.sink = sink
        self.duration = duration
        self.total = total
        self.skipped = skipped
        self.completed = skipped
        self.checker_counts = {}
        self.perf = perf  # zero-arg callable returning a rates dict
        self._started = time.monotonic()

    def _event(self, kind, quadrant=None, checker=None):
        return TelemetryEvent(
            kind=kind, duration=self.duration, completed=self.completed,
            total=self.total, elapsed=time.monotonic() - self._started,
            skipped=self.skipped, quadrant=quadrant, checker=checker,
            checker_counts=dict(self.checker_counts),
            perf=self.perf() if self.perf is not None else None)

    def start(self):
        self.sink.event(self._event(EVENT_START))

    def experiment(self, record):
        from repro.runner.journal import record_quadrant

        self.completed += 1
        checker = record.get("checker") if record.get("detected") else None
        if checker is not None:
            self.checker_counts[checker] = self.checker_counts.get(checker, 0) + 1
        self.sink.event(self._event(EVENT_EXPERIMENT,
                                    quadrant=record_quadrant(record),
                                    checker=checker))

    def finish(self):
        self.sink.event(self._event(EVENT_FINISH))
