"""Stdlib-only HTTP/JSON front end for a :class:`ServingService`.

No web framework — ``http.server.ThreadingHTTPServer`` plus JSON
bodies is enough for a serving sidecar, and it keeps the repo free of
dependencies. Every handler thread funnels its request into the
service's coalescing broker, so concurrency at the HTTP layer directly
becomes batch width at the kernel layer.

Endpoints
---------
``GET /healthz``
    Liveness: ``{"ok": true}``.
``GET /status``
    The full service status document (broker / cache / snapshot
    stats, batching knobs, config).
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of every registered
    series — broker, caches, snapshot/delta, cluster (merged across
    worker threads), and engine. See :mod:`repro.obs` and
    ``docs/observability.md`` for the catalog.
``POST /top_k``
    Body ``{"query": <id-or-label>, "k": 10, "include_query": false}``
    -> the ranking as JSON. An optional ``"deadline_ms"`` field
    overrides the server's default per-request deadline.
``POST /score``
    Body ``{"u": <id-or-label>, "v": <id-or-label>}`` -> the score.
    Accepts the same optional ``"deadline_ms"`` field.
``POST /warmup``
    Pre-build the current snapshot's shared artifacts.
``POST /mutate``
    Body ``{"add": [[u, v], ...], "remove": [[u, v], ...]}`` ->
    builds a fresh snapshot in the background and hot-swaps it;
    responds with the new snapshot summary. With ``"canary": true``
    the edit is staged as a blue-green canary instead
    (:meth:`ServingService.mutate_canary`, optional ``"fraction"``
    field) and the response carries the live canary document, or
    the current snapshot summary when the batch has no net edit.
    While a canary is in flight, every mutation answers 409.

Unknown nodes and malformed bodies answer 400 with
``{"error": ...}``; unexpected server-side failures answer 500. The
overload guard speaks HTTP too: a shed request
(:class:`~repro.serve.guard.Overloaded`) answers **429** with a
``Retry-After`` header, and a missed deadline
(:class:`~repro.serve.guard.DeadlineExceeded`) answers **504**.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine.results import Ranking
from repro.serve.guard import DeadlineExceeded, Overloaded
from repro.serve.service import ServingService

__all__ = ["SimilarityHTTPServer", "ranking_to_dict", "serve_http"]


def ranking_to_dict(ranking: Ranking) -> dict:
    """A JSON-ready rendering of a :class:`~repro.engine.Ranking`.

    >>> import numpy as np
    >>> from repro import Ranking
    >>> from repro.serve import ranking_to_dict
    >>> document = ranking_to_dict(Ranking.from_scores(
    ...     np.array([0.2, 0.9]), query=0, k=1, labels=["a", "b"]))
    >>> document["results"]
    [{'node': 1, 'label': 'b', 'score': 0.9}]
    """
    return {
        "query": ranking.query,
        "query_label": ranking.query_label,
        "measure": ranking.measure,
        "results": [
            {"node": entry.node, "label": entry.label,
             "score": entry.score}
            for entry in ranking
        ],
    }


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keep-alive is safe: every response carries an explicit
    # Content-Length, and load generators reuse connections.
    protocol_version = "HTTP/1.1"
    server: "SimilarityHTTPServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 (stdlib name)
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self,
        payload: dict,
        code: int = 200,
        headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        document = json.loads(raw)
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    @staticmethod
    def _mutate(service, body: dict) -> dict:
        add = body.get("add", ())
        remove = body.get("remove", ())
        if body.get("canary"):
            fraction = body.get("fraction")
            canary = service.mutate_canary(
                add=add,
                remove=remove,
                fraction=None if fraction is None else float(fraction),
            )
            if canary is not None:
                return {"canary": canary.describe()}
            # no net edit: no canary, the current snapshot stands
            return {"snapshot": service.snapshots.current.describe()}
        snapshot = service.mutate(add=add, remove=remove)
        return {"snapshot": snapshot.describe()}

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        service = self.server.service
        if self.path == "/healthz":
            self._send_json({"ok": True})
        elif self.path == "/status":
            self._send_json(service.status())
        elif self.path == "/metrics":
            body = service.metrics_text().encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json({"error": f"no route {self.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        service = self.server.service
        try:
            body = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json({"error": f"bad JSON body: {exc}"}, 400)
            return
        try:
            deadline_ms = body.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
            if self.path == "/top_k":
                if "query" not in body:
                    raise KeyError("missing field 'query'")
                ranking = service.top_k_sync(
                    body["query"],
                    k=int(body.get("k", 10)),
                    include_query=bool(body.get("include_query", False)),
                    deadline_ms=deadline_ms,
                )
                self._send_json(ranking_to_dict(ranking))
            elif self.path == "/score":
                if "u" not in body or "v" not in body:
                    raise KeyError("missing field 'u' or 'v'")
                score = service.score_sync(
                    body["u"], body["v"], deadline_ms=deadline_ms
                )
                self._send_json({"score": score})
            elif self.path == "/warmup":
                self._send_json({"engine_stats": service.warmup()})
            elif self.path == "/mutate":
                try:
                    document = self._mutate(service, body)
                except RuntimeError as exc:
                    # a canary in flight refuses every other write
                    self._send_json({"error": str(exc)}, 409)
                    return
                self._send_json(document)
            else:
                self._send_json(
                    {"error": f"no route {self.path}"}, 404
                )
        except Overloaded as exc:
            # shed at admission: tell the client when to come back
            self._send_json(
                {"error": str(exc), "retry_after": exc.retry_after},
                429,
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except DeadlineExceeded as exc:
            self._send_json({"error": str(exc)}, 504)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # bad node, bad edit, bad parameter: the caller's fault
            self._send_json({"error": str(exc)}, 400)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(
                {"error": f"internal error: {exc}"}, 500
            )


class SimilarityHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServingService`.

    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import ServingService, SimilarityHTTPServer
    >>> service = ServingService(figure1_citation_graph())
    >>> server = SimilarityHTTPServer(("127.0.0.1", 0), service)
    >>> server.url.startswith("http://127.0.0.1:")
    True
    >>> server.server_close()
    """

    daemon_threads = True
    # the default listen backlog (5) resets connections under the
    # very burst concurrency the broker exists to coalesce
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: ServingService,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral port 0)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start_background(self) -> None:
        """Serve forever on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("HTTP server already running")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut down the listener (and its thread, if backgrounded)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


def serve_http(
    service: ServingService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    background: bool = False,
) -> SimilarityHTTPServer:
    """Bind an HTTP front end to ``service``.

    ``port=0`` picks an ephemeral port (read it back from
    ``server.port``). With ``background=True`` the server starts
    serving on a daemon thread before returning; otherwise call
    ``serve_forever()`` (or ``start_background()``) yourself. The
    service's background loop must be running
    (:meth:`ServingService.start_background`) for queries to succeed.

    Examples
    --------
    A real HTTP round-trip against an ephemeral port:

    >>> import json, urllib.request
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import ServingService, serve_http
    >>> service = ServingService(figure1_citation_graph())
    >>> service.start_background()
    >>> server = serve_http(service, background=True)
    >>> with urllib.request.urlopen(server.url + "/healthz") as reply:
    ...     json.loads(reply.read())
    {'ok': True}
    >>> server.stop(); service.close()
    """
    server = SimilarityHTTPServer((host, port), service, verbose=verbose)
    if background:
        server.start_background()
    return server
