"""Wire protocol of the query service.

Line-delimited JSON over a byte stream: each request is one JSON object
on one line, answered by exactly one JSON object on one line.  Requests
carry an ``op`` plus op-specific fields; responses carry ``ok: true``
plus payload, or ``ok: false`` plus ``error: {code, message}``.

Operations
    ``hello``                             → ``{session}``
    ``query {text, params?, timeout?, batch_size?, shards?,
    strategy?}``                          → ``{rows, cache, ...}``
                                            (``strategy``: transformPT
                                            search — ``ii`` or
                                            ``enum``; plans are
                                            cached per strategy)
    ``prepare {text}``                    → ``{statement, parameters}``
    ``execute {statement, params?, ...}`` → like ``query``
    ``explain {text, analyze?}``          → annotated plan (est vs. actual)
    ``trace {text, execute?}``            → optimizer/engine span trace
    ``stats``                             → metrics + cache + admission
    ``metrics``                           → Prometheus text exposition
    ``refresh_stats``                     → re-ANALYZE the store
    ``history {query?, limit?}``          → per-plan telemetry (est vs. actual)
    ``recalibrate {apply?}``              → refit cost weights from telemetry
    ``pin {text, params?, revert?}``      → pin plan / revert a regression
    ``unpin {text, params?}``             → release a pinned plan
    ``diagnose {text, params?, shards?}`` → run once at full detail and
                                            record a diagnostic bundle
                                            (plus the flight-recorder
                                            ledger)
    ``ping`` / ``close`` / ``shutdown``

An unknown ``op`` (the retired ``governor`` included) is answered with
a ``protocol_error``.

A request may carry a client-chosen ``id``; it is echoed verbatim on
the response (success or error) for correlation.  Executed queries
additionally get a server-assigned ``request_id``, which also tags the
query's record in the metrics ring and the slow-query log.

Prepared statements use ``$name`` placeholders in the query text
(``where x.name = $who``); ``params`` maps names to JSON values, which
are spliced in as typed literals before parsing.  ``$`` is not legal in
the query language itself, so an unbound placeholder can never slip
through to the parser silently.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AdmissionError,
    ExecutionCancelled,
    ExecutionTimeout,
    FixpointLimitError,
    LanguageError,
    ProtocolError,
    ReproError,
)

__all__ = [
    "MAX_LINE_BYTES",
    "encode",
    "decode",
    "error_response",
    "error_code_for",
    "placeholder_names",
    "substitute_params",
]

#: Upper bound on one protocol line; a peer sending more is broken (or
#: hostile) and gets a protocol error instead of exhausting memory.
MAX_LINE_BYTES = 4 * 1024 * 1024

_PLACEHOLDER = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")

#: error codes, stable across releases — clients switch on these.
PARSE_ERROR = "parse_error"
ADMISSION_REJECTED = "admission_rejected"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
FIXPOINT_LIMIT = "fixpoint_limit"
PROTOCOL = "protocol_error"
EXECUTION = "execution_error"
INTERNAL = "internal_error"


def encode(payload: dict) -> bytes:
    """One response/request as a JSON line."""
    return (json.dumps(payload, separators=(",", ":"), default=str) + "\n").encode(
        "utf-8"
    )


def decode(line: bytes) -> dict:
    """Parse one JSON line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed JSON request: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    return payload


def error_code_for(error: ReproError) -> str:
    """Map a library exception onto a stable protocol error code."""
    if isinstance(error, ExecutionTimeout):
        return TIMEOUT
    if isinstance(error, ExecutionCancelled):
        return CANCELLED
    if isinstance(error, FixpointLimitError):
        return FIXPOINT_LIMIT
    if isinstance(error, AdmissionError):
        return ADMISSION_REJECTED
    if isinstance(error, ProtocolError):
        return PROTOCOL
    if isinstance(error, LanguageError):
        return PARSE_ERROR
    return EXECUTION


def error_response(code: str, message: str, **extra) -> dict:
    payload = {"ok": False, "error": {"code": code, "message": message}}
    if extra:
        payload["error"].update(extra)
    return payload


# -- parameterized queries ---------------------------------------------------


def placeholder_names(text: str) -> List[str]:
    """The ``$name`` placeholders of a statement, in first-use order."""
    seen: List[str] = []
    for match in _PLACEHOLDER.finditer(text):
        name = match.group(1)
        if name not in seen:
            seen.append(name)
    return seen


def substitute_params(text: str, params: Optional[Dict[str, object]]) -> str:
    """Splice ``params`` into ``$name`` placeholders as typed literals.

    Every placeholder must be bound and every parameter used; a
    mismatch raises :class:`ProtocolError` (silently ignoring either
    side hides client bugs).
    """
    params = params or {}
    if not isinstance(params, dict):
        raise ProtocolError("params must be an object of name -> value")
    wanted = placeholder_names(text)
    missing = [name for name in wanted if name not in params]
    if missing:
        raise ProtocolError(f"unbound parameters: {', '.join(missing)}")
    unused = [name for name in params if name not in wanted]
    if unused:
        raise ProtocolError(f"unknown parameters: {', '.join(unused)}")

    def replace(match: "re.Match[str]") -> str:
        return _render_literal(params[match.group(1)])

    return _PLACEHOLDER.sub(replace, text)


def _render_literal(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ProtocolError(f"non-finite parameter value {value!r}")
        return repr(value)
    raise ProtocolError(
        f"unsupported parameter type {type(value).__name__} "
        "(use string, number, boolean or null)"
    )
