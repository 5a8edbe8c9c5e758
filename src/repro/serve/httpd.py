"""The HTTP server ``repro serve`` runs, built on the standard library.

A :class:`ThreadingHTTPServer` whose handler translates requests into
:func:`repro.serve.service.dispatch` calls — every route, status code
and payload is defined there.  One thread per connection is exactly
right for this service's traffic shape: requests are either instant
(status polls, store-served results) or deliberately long-lived (NDJSON
event streams), and the simulation work itself runs on the job
manager's pool, not on request threads.

Needing nothing beyond the standard library, the same server runs in
the container image, the CI smoke jobs and the test suite, which all
exercise the real wire protocol.
"""

from __future__ import annotations

import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.serve.service import Response, SimulationService, dispatch


class ReproHTTPServer(ThreadingHTTPServer):
    """The service bound to a socket; ``service`` rides on the server."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SimulationService,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    server: ReproHTTPServer  # narrowed for attribute access below

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        body: Optional[bytes] = None
        if method == "POST":
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown, so its bytes cannot be
                # skipped: answer, then close rather than read them as
                # the next request on this connection.
                self._send(
                    Response(
                        status=400,
                        payload={"error": f"invalid Content-Length: {declared!r}"},
                    ),
                    close=True,
                )
                return
            body = self.rfile.read(length) if length > 0 else b""
        response = dispatch(self.server.service, method, split.path, query, body)

        if response.stream is not None:
            # Close-delimited streaming: no Content-Length, one NDJSON
            # line per event, flushed as produced, connection closed at
            # the job's terminal event (``curl -N`` follows it live).
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            try:
                for chunk in response.stream:
                    self.wfile.write(chunk.encode())
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client hung up mid-stream; the job runs on
            return

        self._send(response)

    def _send(self, response: Response, close: bool = False) -> None:
        """Write one complete (non-streaming) response."""
        data = response.body_bytes()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")  # also ends keep-alive
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )


def serve_forever(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8000,
    quiet: bool = False,
) -> None:
    """Run the server until interrupted; shuts the pool down."""
    server = ReproHTTPServer((host, port), service, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro-serve listening on http://{bound_host}:{bound_port}/api/v1")
    print(f"store: {service.manager.store_dir or '(default)'}  "
          f"workers: {service.manager.workers}  "
          f"jobs-per-sweep: {service.manager.jobs}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.manager.shutdown(wait=False)


def serve_in_thread(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ReproHTTPServer, threading.Thread, str]:
    """Start the server on a background thread (tests, smoke scripts).

    ``port=0`` binds an ephemeral port; the returned base URL includes
    whatever the OS granted.  Callers own shutdown:
    ``server.shutdown(); server.server_close()``.
    """
    server = ReproHTTPServer((host, port), service, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return server, thread, f"http://{bound_host}:{bound_port}"


__all__ = ["ReproHTTPServer", "serve_forever", "serve_in_thread"]
