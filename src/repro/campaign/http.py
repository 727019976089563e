"""Stdlib HTTP JSON API over the sweep service.

Endpoints (all JSON)::

    POST /campaigns            {"spec": {...}}        -> submit, returns id
    GET  /campaigns                                   -> list of statuses
    GET  /campaigns/<id>                              -> status
    GET  /campaigns/<id>/summary                      -> status + headline rows
    GET  /campaigns/<id>/results                      -> full per-point dicts
    GET  /status                                      -> service counters
    GET  /healthz                                     -> liveness probe
    GET  /metrics                                     -> Prometheus text

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies, good
enough for many concurrent polling clients (the service itself serializes
on its own lock; the worker pool does the heavy lifting).  Invalid specs
come back as ``400`` with the :class:`~repro.campaign.spec.SpecError`
message; unknown campaign ids as ``404``, ids of finished campaigns the
service has evicted as a typed ``410``.  The edge is bounded: request
bodies over :data:`MAX_BODY_BYTES` are refused with ``413`` before a byte
is read, a negative or non-integer ``Content-Length`` is a ``400``, a
client that stalls for :data:`REQUEST_TIMEOUT_S` gets a ``408`` and loses
its connection, and an unexpected exception in a handler comes back as a
JSON ``500`` naming the exception type (traceback in the log).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .service import CampaignEvicted, SweepService
from .spec import SpecError

__all__ = ["make_server", "start_server", "serve_forever",
           "MAX_BODY_BYTES", "REQUEST_TIMEOUT_S"]

#: Largest accepted request body; a campaign spec is a few KiB of JSON.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle mid-request before it is dropped.
REQUEST_TIMEOUT_S = 30.0

_log = logging.getLogger(__name__)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`SweepService`."""

    server_version = "repro-campaign/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S  # applied to the socket by setup()

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, code: int, payload: dict | list) -> None:
        body = json.dumps(payload, default=str).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, body: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        raw = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _error(self, code: int, message: str, close: bool = False) -> None:
        if close:
            # The request body was not (fully) consumed: the connection
            # cannot be reused for a next request.
            self.close_connection = True
        self._send(code, {"error": message})

    def _internal_error(self, exc: Exception) -> None:
        _log.exception("unhandled error serving %s %s", self.command,
                       self.path)
        self._send(500, {"error": str(exc) or type(exc).__name__,
                         "type": type(exc).__name__})

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering 400/408/413."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, f"bad Content-Length: {raw!r}", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit", close=True)
            return None
        try:
            return self.rfile.read(length)
        except TimeoutError:
            self._error(408, "timed out reading the request body",
                        close=True)
            return None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts == ["status"]:
                self._send(200, self.service.service_status())
            elif parts == ["healthz"]:
                self._send(200, {"status": "ok",
                                 "workers": self.service.n_workers})
            elif parts == ["metrics"]:
                self._send_text(
                    200, self.service.metrics_registry().to_prometheus())
            elif parts == ["campaigns"]:
                self._send(200, self.service.list_campaigns())
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._send(200, self.service.status(parts[1]))
            elif (len(parts) == 3 and parts[0] == "campaigns"
                  and parts[2] == "summary"):
                self._send(200, self.service.summary(parts[1]))
            elif (len(parts) == 3 and parts[0] == "campaigns"
                  and parts[2] == "results"):
                self._send(200, self.service.results(parts[1]))
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except CampaignEvicted as exc:
            self._send(410, {"error": exc.args[0], "type": type(exc).__name__})
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else "not found")
        except Exception as exc:  # the server must outlive a handler bug
            self._internal_error(exc)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path.rstrip("/") != "/campaigns":
            self._error(404, f"no such endpoint: {self.path}")
            return
        raw = self._read_body()
        if raw is None:
            return
        try:
            body = json.loads(raw or b"{}")
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            self._error(400, f"bad JSON body: {exc}")
            return
        spec = body.get("spec", body) if isinstance(body, dict) else None
        if not isinstance(spec, dict):
            self._error(400, "body must be a JSON object "
                             "(optionally wrapped as {\"spec\": {...}})")
            return
        try:
            self._send(200, self.service.status(self.service.submit(spec)))
        except SpecError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # the server must outlive a handler bug
            self._internal_error(exc)


def make_server(service: SweepService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def start_server(service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the API on a background thread; returns ``(server, thread)``.

    Tests and embedders use this; ``server.shutdown()`` stops it.
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def serve_forever(service: SweepService, host: str = "127.0.0.1",
                  port: int = 8642, verbose: bool = True,
                  ready: Optional[threading.Event] = None) -> None:
    """Run the API in the foreground until interrupted (the CLI path)."""
    server = make_server(service, host, port, verbose=verbose)
    actual = server.server_address
    print(f"repro-campaign service on http://{actual[0]}:{actual[1]} "
          f"({service.n_workers} workers)")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
