"""Asyncio HTTP JSON API over the job scheduler (stdlib only).

A deliberately small HTTP/1.1 implementation on raw asyncio streams -
no ``http.server``, no third-party frameworks.  Endpoints:

========================  ====================================================
``POST /jobs``            submit a campaign spec; ``202`` + the job document
``GET /jobs``             list all jobs
``GET /jobs/<id>``        job status + per-duration quadrant summaries
``GET /jobs/<id>/events`` live telemetry stream: the job's JSONL event file
                          is tailed and written through until the job ends
``GET /jobs/<id>/results`` the job's journal (JSONL download); a
                          ``X-Argus-Job-State`` header flags partial fetches
``GET /healthz``          liveness
``GET /metrics``          throughput, cache hit rate, queue depth,
                          store hit/miss counters, per-endpoint request
                          counts, worker utilization (JSON)
``GET /peers``            this node's fabric topology view (static peer
                          list + live probe state); empty standalone
``GET /store/<key>``      one content-addressed result record (404 miss)
``POST /store/lookup``    batch store read: ``{"keys": [...]}`` ->
                          ``{"records": {key: record}}``
``POST /store/sync``      batch store write: ``{"entries": [[key, id,
                          record], ...]}`` -> ``{"stored": n}``
========================  ====================================================

The ``/store/*`` endpoints are the fabric's cache-exchange wire: any
node can pull (or be pushed) another node's results on demand, so the
fleet behaves as one merged content-addressed cache.

Scheduler calls are all sub-millisecond (submission only enqueues), so
they run inline on the event loop; the long work happens on the
scheduler's own threads.  The event stream is close-delimited
(``Connection: close``), which every stdlib client handles without
chunked-decoding.
"""

import asyncio
import json
import os
import threading

from repro.service.scheduler import DrainingError, SpecError

#: Upper bounds that keep a malformed or hostile request cheap.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Poll interval while tailing a job's event file.
_EVENT_POLL_SECONDS = 0.05


class _BadRequest(Exception):
    pass


async def _read_request(reader):
    """Parse one request; returns (method, path, headers, body)."""
    line = await reader.readline()
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise _BadRequest("request line too long")
    try:
        method, path, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length:
        try:
            length = int(length)
        except ValueError:
            raise _BadRequest("bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _BadRequest("body too large")
        body = await reader.readexactly(length)
    return method.upper(), path, headers, body


def _response_bytes(status, payload, extra_headers=()):
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = ["HTTP/1.1 %d %s" % (status, _REASONS.get(status, "?")),
            "Content-Type: application/json",
            "Content-Length: %d" % len(body),
            "Connection: close"]
    head.extend("%s: %s" % pair for pair in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class ServiceServer:
    """Binds the HTTP API to one :class:`JobScheduler`.

    ``port=0`` asks the OS for a free port; the bound address is
    published in ``<data_dir>/server.json`` (host, port, pid) so CLI
    clients and tests can discover a just-started server without
    parsing logs.
    """

    def __init__(self, scheduler, host="127.0.0.1", port=8471,
                 topology=None):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: Optional :class:`repro.fabric.topology.Topology`; enables the
        #: ``/peers`` view.  A standalone node reports no peers.
        self.topology = topology
        #: Per-endpoint request counters ("GET /jobs/<id>" -> count).
        #: Touched only on the event loop, read via /metrics.
        self.request_counts = {}
        self._server = None
        self._loop = None
        self._thread = None

    # -- request routing -----------------------------------------------------
    async def _handle(self, reader, writer):
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, _headers, body = request
            await self._route(writer, method, path, body)
        except _BadRequest as exc:
            writer.write(_response_bytes(400, {"error": str(exc)}))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            try:
                writer.write(_response_bytes(500, {"error": repr(exc)}))
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancelled this handler mid-close.  End the
                # task *uncancelled* (close without awaiting): 3.11's
                # StreamReaderProtocol done-callback calls
                # task.exception() and chokes on cancelled tasks.
                writer.close()

    def _count_request(self, method, parts):
        """Bump the per-endpoint counter under a cardinality-safe label."""
        if not parts:
            label = "%s /" % method
        elif parts[0] == "jobs" and len(parts) >= 2:
            label = "%s /jobs/<id>" % method
            if len(parts) >= 3:
                label += "/" + parts[2]
        elif parts[0] == "store" and len(parts) == 2 \
                and parts[1] not in ("lookup", "sync"):
            label = "%s /store/<key>" % method
        else:
            label = "%s /%s" % (method, "/".join(parts))
        self.request_counts[label] = self.request_counts.get(label, 0) + 1

    def _metrics(self):
        """The scheduler's counters plus the HTTP/store-level gauges."""
        store = self.scheduler.store
        payload = self.scheduler.metrics()
        payload["store_hits"] = store.hits
        payload["store_misses"] = store.misses
        payload["store_rows"] = len(store)
        payload["http_requests"] = dict(self.request_counts)
        if self.topology is not None:
            payload["peers_alive"] = len(self.topology.alive())
            payload["peers_total"] = len(self.topology.peers)
        return payload

    async def _route(self, writer, method, path, body):
        path = path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        self._count_request(method, parts)
        if path == "/healthz" and method == "GET":
            writer.write(_response_bytes(200, {
                "ok": True,
                "uptime_seconds":
                    self.scheduler.metrics()["uptime_seconds"]}))
            return
        if path == "/metrics" and method == "GET":
            writer.write(_response_bytes(200, self._metrics()))
            return
        if path == "/peers" and method == "GET":
            payload = ({"peers": []} if self.topology is None
                       else self.topology.to_dict())
            writer.write(_response_bytes(200, payload))
            return
        if parts[:1] == ["store"]:
            await self._route_store(writer, method, parts, body)
            return
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if method == "POST":
                    await self._submit(writer, body)
                elif method == "GET":
                    writer.write(_response_bytes(200, {
                        "jobs": [job.to_dict()
                                 for job in self.scheduler.jobs()]}))
                else:
                    writer.write(_response_bytes(
                        405, {"error": "use GET or POST"}))
                return
            job = self.scheduler.get(parts[1])
            if job is None:
                writer.write(_response_bytes(
                    404, {"error": "no such job: %s" % parts[1]}))
                return
            if len(parts) == 2 and method == "GET":
                writer.write(_response_bytes(200, job.to_dict()))
                return
            if len(parts) == 3 and method == "GET" and parts[2] == "events":
                await self._stream_events(writer, job)
                return
            if len(parts) == 3 and method == "GET" and parts[2] == "results":
                await self._send_results(writer, job)
                return
        writer.write(_response_bytes(
            404, {"error": "no route for %s %s" % (method, path)}))

    async def _route_store(self, writer, method, parts, body):
        """The fabric cache-exchange endpoints (single get, batch
        lookup, batch sync)."""
        store = self.scheduler.store
        if len(parts) == 2 and parts[1] == "lookup" and method == "POST":
            payload = self._json_body(body)
            keys = payload.get("keys") if isinstance(payload, dict) else None
            if not isinstance(keys, list):
                raise _BadRequest('expected {"keys": [...]}')
            writer.write(_response_bytes(
                200, {"records": store.get_many(keys)}))
            return
        if len(parts) == 2 and parts[1] == "sync" and method == "POST":
            payload = self._json_body(body)
            entries = (payload.get("entries")
                       if isinstance(payload, dict) else None)
            if not isinstance(entries, list) \
                    or not all(isinstance(entry, (list, tuple))
                               and len(entry) == 3 for entry in entries):
                raise _BadRequest(
                    'expected {"entries": [[key, experiment_id, record], '
                    '...]}')
            stored = store.put_many([tuple(entry) for entry in entries])
            writer.write(_response_bytes(200, {"stored": stored}))
            return
        if len(parts) == 2 and method == "GET":
            record = store.get(parts[1])
            if record is None:
                writer.write(_response_bytes(
                    404, {"error": "no record for key %s" % parts[1]}))
            else:
                writer.write(_response_bytes(200, record))
            return
        writer.write(_response_bytes(
            404, {"error": "no route for %s /%s" % (method, "/".join(parts))}))

    @staticmethod
    def _json_body(body):
        try:
            return json.loads(body.decode("utf-8") or "null")
        except ValueError:
            raise _BadRequest("body is not JSON") from None

    async def _submit(self, writer, body):
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except ValueError:
            writer.write(_response_bytes(400, {"error": "body is not JSON"}))
            return
        try:
            job = self.scheduler.submit(payload)
        except SpecError as exc:
            writer.write(_response_bytes(400, {"error": str(exc)}))
            return
        except DrainingError as exc:
            writer.write(_response_bytes(503, {"error": str(exc)}))
            return
        writer.write(_response_bytes(202, job.to_dict()))

    async def _stream_events(self, writer, job):
        """Tail the job's JSONL event file until it reaches a terminal state.

        Lines are forwarded verbatim as they land (each one is a
        self-contained :func:`repro.runner.telemetry.event_to_dict`
        object); the stream ends - connection close - once the job is
        terminal and the file is fully drained.  The terminal check comes
        before each read, so events written just before the job ended
        are still forwarded.
        """
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        path = self.scheduler.events_path(job.job_id)
        offset = 0
        while True:
            terminal = job.terminal
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
                if chunk:
                    # Forward only whole lines; a torn tail waits for
                    # the writer's next flush.
                    cut = chunk.rfind(b"\n")
                    if cut >= 0:
                        writer.write(chunk[:cut + 1])
                        await writer.drain()
                        offset += cut + 1
            if terminal:
                return
            await asyncio.sleep(_EVENT_POLL_SECONDS)

    async def _send_results(self, writer, job):
        path = self.scheduler.journal_path(job.job_id)
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Content-Length: %d\r\n"
                "X-Argus-Job-State: %s\r\n"
                "Connection: close\r\n\r\n" % (len(data), job.state))
        writer.write(head.encode("latin-1") + data)

    # -- lifecycle -----------------------------------------------------------
    async def start_async(self):
        """Bind the listening socket; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._publish_address()
        return self.host, self.port

    def _publish_address(self):
        path = os.path.join(self.scheduler.data_dir, "server.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"host": self.host, "port": self.port,
                       "pid": os.getpid()}, handle)
        os.replace(tmp, path)

    # -- threaded embedding (tests, benchmarks, library users) ---------------
    def start_in_thread(self):
        """Run the event loop on a daemon thread; returns (host, port)."""
        started = threading.Event()

        def _runner():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.start_async())
            started.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=_runner, daemon=True,
                                        name="argus-service-http")
        self._thread.start()
        started.wait(timeout=10)
        return self.host, self.port

    def stop(self):
        """Stop a threaded server (the scheduler is stopped separately)."""
        if self._loop is None:
            return

        async def _shutdown():
            # Stop accepting, then cancel and reap every open connection
            # handler so the loop closes with no pending tasks.
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            tasks = [task for task in asyncio.all_tasks(self._loop)
                     if task is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._loop.stop()
        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
