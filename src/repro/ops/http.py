"""Minimal asyncio HTTP/1.1 admin server for one live node.

Hand-rolled on ``asyncio.start_server`` — no third-party HTTP stack —
because the surface is tiny and read-only:

=====================  ==================================================
``GET /metrics``       Prometheus text exposition of the node's registry.
``GET /members``       JSON membership table.
``GET /suspicions``    JSON suspicion table (confirmations, deadlines).
``GET /info``          JSON node summary (shared schema with the CLI).
``GET /health``        Readiness: 200 while the Local Health Multiplier
                       is at or below the degraded threshold, 503 above
                       it — an overloaded member keeps *liveness* but
                       drops *readiness*, Consul-style.
``GET /events``        JSON-lines membership event stream; resume with
                       ``?since=<seq>`` (no duplication across polls).
=====================  ==================================================

Responses always close the connection (``Connection: close``); scrapers
and the ``watch`` CLI poll, they do not hold sockets open. Requests are
size-limited, must arrive within :data:`REQUEST_DEADLINE` and non-GET
methods are rejected, so a stray scanner — or a client that connects and
says nothing — cannot wedge the protocol loops sharing the event loop:
whatever bytes arrive, the answer is a well-formed response and a close.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.ops.events import EventStream
from repro.ops.exposition import CONTENT_TYPE, render_text
from repro.ops.registry import MetricsRegistry, NodeCollector
from repro.ops.schema import envelope, members_payload, node_info, suspicions_payload

_MAX_REQUEST_LINE = 4096
_MAX_HEADER_BYTES = 16 * 1024
#: Seconds a client has to deliver its request line and headers before
#: it is answered ``408`` and closed — and, each, to take the response
#: off the socket and to let the close finish before it is aborted.
REQUEST_DEADLINE = 5.0
_JSON_TYPE = "application/json; charset=utf-8"
_JSONL_TYPE = "application/jsonl; charset=utf-8"


class AdminServer:
    """Serves one node's operational state over HTTP.

    Build with :meth:`start` inside a running event loop. When
    ``registry``/``events`` are not supplied, a private
    :class:`MetricsRegistry` with a :class:`NodeCollector` (RTT hook
    installed) and an :class:`EventStream` registered as a node listener
    are created, so ``AdminServer.start(node)`` is fully wired on its
    own.
    """

    def __init__(
        self,
        node,
        registry: MetricsRegistry,
        events: EventStream,
        degraded_lhm: Optional[int] = None,
    ) -> None:
        self.node = node
        self.registry = registry
        self.events = events
        if degraded_lhm is None:
            degraded_lhm = getattr(node.config, "admin_degraded_lhm", 2)
        #: ``/health`` reports degraded while the LHM score exceeds this.
        self.degraded_lhm = degraded_lhm
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[str] = None

    @classmethod
    async def start(
        cls,
        node,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventStream] = None,
        degraded_lhm: Optional[int] = None,
    ) -> "AdminServer":
        if registry is None:
            registry = MetricsRegistry()
            collector = NodeCollector(registry, node)
            collector.install_rtt_hook()
            collector.install_sync_hook()
        if events is None:
            events = EventStream()
            node.add_listener(events)
        self = cls(node, registry, events, degraded_lhm)
        self._server = await asyncio.start_server(self._handle, host=host, port=port)
        bound = self._server.sockets[0].getsockname()
        self._address = f"{bound[0]}:{bound[1]}"
        return self

    @property
    def address(self) -> str:
        """``host:port`` the server is bound to."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                status, content_type, body = await asyncio.wait_for(
                    self._respond(reader), REQUEST_DEADLINE
                )
            except asyncio.TimeoutError:
                status, content_type, body = self._error(
                    "408 Request Timeout", "request head not received in time"
                )
            payload = body.encode("utf-8") if isinstance(body, str) else body
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n"
                f"\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            await asyncio.wait_for(writer.drain(), REQUEST_DEADLINE)
            writer.close()
            await asyncio.wait_for(writer.wait_closed(), REQUEST_DEADLINE)
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            pass  # timeout: the client stopped reading; its bytes go with it
        finally:
            # Idempotent after a clean close; discards whatever a stalled
            # client left in the write buffer, which close() would wait on.
            writer.transport.abort()

    async def _respond(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return self._error("400 Bad Request", "oversized request line")
        if len(request_line) > _MAX_REQUEST_LINE:
            return self._error("400 Bad Request", "oversized request line")
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            return self._error("400 Bad Request", "malformed request line")
        method, target, _version = parts
        # Drain headers (bounded) so well-behaved clients see a clean close.
        seen = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # one header line over the stream limit
                return self._error("431 Request Header Fields Too Large", "")
            seen += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            if seen > _MAX_HEADER_BYTES:
                return self._error("431 Request Header Fields Too Large", "")
        if method != "GET":
            return self._error("405 Method Not Allowed", f"method {method}")
        try:
            split = urlsplit(target)
        except ValueError as exc:  # e.g. "//[": invalid IPv6 netloc
            return self._error("400 Bad Request", f"malformed target: {exc}")
        query = parse_qs(split.query)
        return self._route(split.path, query)

    def _route(self, path: str, query):
        if path == "/metrics":
            return "200 OK", CONTENT_TYPE, render_text(self.registry)
        if path == "/members":
            return self._json(members_payload(self.node))
        if path == "/suspicions":
            return self._json(suspicions_payload(self.node))
        if path == "/info":
            info = node_info(self.node)
            # The chosen (possibly ephemeral) admin binding, so launchers
            # that start members with ``admin_port=0`` can discover the
            # port from the member itself (docs/SOAK.md).
            info["admin"] = {"address": self.address, "url": self.url}
            return self._json(info)
        if path == "/health":
            return self._health()
        if path == "/events":
            return self._events(query)
        return self._error("404 Not Found", f"no such endpoint: {path}")

    def _health(self):
        score = self.node.local_health.score
        degraded = score > self.degraded_lhm
        payload = envelope(
            "health",
            {
                "status": "degraded" if degraded else "ok",
                "lhm": score,
                "degraded_above": self.degraded_lhm,
                "running": self.node.running,
            },
        )
        status = "503 Service Unavailable" if degraded else "200 OK"
        return status, _JSON_TYPE, json.dumps(payload) + "\n"

    def _events(self, query):
        try:
            since = int(query.get("since", ["0"])[0])
            limit_values = query.get("limit")
            limit = int(limit_values[0]) if limit_values else None
        except (TypeError, ValueError):
            return self._error("400 Bad Request", "since/limit must be integers")
        records = self.events.since(since, limit)
        return "200 OK", _JSONL_TYPE, EventStream.to_jsonl(records)

    @staticmethod
    def _json(payload, status: str = "200 OK"):
        return status, _JSON_TYPE, json.dumps(payload, sort_keys=True) + "\n"

    def _error(self, status: str, detail: str):
        payload = envelope("error", {"status": status, "detail": detail})
        return status, _JSON_TYPE, json.dumps(payload) + "\n"
