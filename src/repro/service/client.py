"""Blocking client for the query service's line-JSON protocol.

Thin by design — stdlib socket, one request in flight per connection —
so it doubles as executable documentation of the wire protocol::

    with ServiceClient("127.0.0.1", 7654) as client:
        client.hello()
        stmt = client.prepare(
            "select [name: c.name] from c in Composer where c.name = $who;"
        )
        rows = client.execute(stmt, {"who": "Bach"})["rows"]

Error responses raise :class:`ServiceClientError`, which carries the
protocol error ``code`` so callers can distinguish an admission
rejection from a timeout from a parse error.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional

from repro.errors import ProtocolError, ServiceError
from repro.service import protocol

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(ServiceError):
    """An ``ok: false`` response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServiceClient:
    """One connection to a :class:`~repro.service.server.QueryServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7654, timeout: float = 60.0
    ) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self.session: Optional[str] = None

    # -- plumbing -----------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """One raw round-trip; raises :class:`ServiceClientError` on an
        error response."""
        if self.session is not None and "session" not in payload:
            payload = {**payload, "session": self.session}
        self._socket.sendall(protocol.encode(payload))
        line = self._reader.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise ProtocolError("server closed the connection")
        response = protocol.decode(line)
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServiceClientError(
                error.get("code", "unknown"), error.get("message", "")
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- operations ---------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def hello(self) -> str:
        """Open a session; subsequent requests carry it implicitly."""
        self.session = self.request({"op": "hello"})["session"]
        return self.session

    def query(
        self,
        text: str,
        params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> dict:
        payload: dict = {"op": "query", "text": text}
        if params is not None:
            payload["params"] = params
        if timeout is not None:
            payload["timeout"] = timeout
        if batch_size is not None:
            payload["batch_size"] = batch_size
        if shards is not None:
            payload["shards"] = shards
        return self.request(payload)

    def prepare(self, text: str) -> str:
        """Register a parameterized statement; returns its id."""
        return self.request({"op": "prepare", "text": text})["statement"]

    def execute(
        self,
        statement: str,
        params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> dict:
        payload: dict = {"op": "execute", "statement": statement}
        if params is not None:
            payload["params"] = params
        if timeout is not None:
            payload["timeout"] = timeout
        if batch_size is not None:
            payload["batch_size"] = batch_size
        if shards is not None:
            payload["shards"] = shards
        return self.request(payload)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def refresh_stats(self) -> dict:
        return self.request({"op": "refresh_stats"})

    def history(
        self, query: Optional[str] = None, limit: Optional[int] = None
    ) -> dict:
        """Per-query plan histories (estimated vs. measured) plus the
        feedback-loop state; ``query`` substring-filters."""
        payload: dict = {"op": "history"}
        if query is not None:
            payload["query"] = query
        if limit is not None:
            payload["limit"] = limit
        return self.request(payload)

    def progress(self) -> dict:
        """Live fixpoint progress of in-flight (and just-finished)
        queries — the payload ``repro top`` renders."""
        return self.request({"op": "progress"})["progress"]

    def recalibrate(self, apply: bool = False) -> dict:
        """Fit cost-model weights from accumulated telemetry; with
        ``apply``, hot-swap them into the serving path."""
        return self.request({"op": "recalibrate", "apply": apply})

    def pin(
        self,
        text: str,
        params: Optional[Dict[str, object]] = None,
        revert: bool = False,
    ) -> dict:
        """Pin a query's cached plan; ``revert`` reinstalls the prior
        plan of its last flagged regression."""
        payload: dict = {"op": "pin", "text": text, "revert": revert}
        if params is not None:
            payload["params"] = params
        return self.request(payload)

    def unpin(
        self, text: str, params: Optional[Dict[str, object]] = None
    ) -> dict:
        payload: dict = {"op": "unpin", "text": text}
        if params is not None:
            payload["params"] = params
        return self.request(payload)

    def diagnose(
        self,
        text: str,
        params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """Run one query at full observability detail (whatever
        ``profile_sample_every`` says) and record a diagnostic bundle."""
        payload: dict = {"op": "diagnose", "text": text}
        if params is not None:
            payload["params"] = params
        if timeout is not None:
            payload["timeout"] = timeout
        if shards is not None:
            payload["shards"] = shards
        return self.request(payload)

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
