"""Unified structured logging for the service, distribution and engine layers.

Every ``repro.*`` logger funnels through one handler configured by
:func:`configure_logging`.  Two formats are supported:

``text``
    ``HH:MM:SS LEVEL logger message key=value ...`` — the classic
    human-oriented line, with any structured fields appended.

``json``
    One JSON object per line with the fixed keys ``ts`` / ``level`` /
    ``logger`` / ``message`` plus every structured field attached to the
    record (``request_id``, ``trace_id``, ``shard``, ``round``,
    ``query_class``, ...).

Structured fields ride the stdlib ``extra=`` mechanism, so call sites
stay plain ``logging`` calls::

    logger = get_logger("repro.service")
    logger.info("diagnose bundle recorded", extra={
        "request_id": 17, "query_class": "ab12cd34", "bundle": path,
    })

Log aggregation pipelines get machine-parseable lines with ``json``;
``repro serve --log-format json`` selects it from the CLI.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, Dict, Optional

#: Root of the logger namespace configure_logging() manages.
ROOT_LOGGER = "repro"

#: Attributes every LogRecord carries; anything else was passed via
#: ``extra=`` and is a structured field worth surfacing.
_RESERVED = frozenset(
    (
        "args",
        "asctime",
        "created",
        "exc_info",
        "exc_text",
        "filename",
        "funcName",
        "levelname",
        "levelno",
        "lineno",
        "message",
        "module",
        "msecs",
        "msg",
        "name",
        "pathname",
        "process",
        "processName",
        "relativeCreated",
        "stack_info",
        "taskName",
        "thread",
        "threadName",
    )
)


def structured_fields(record: logging.LogRecord) -> Dict[str, Any]:
    """The ``extra=`` fields attached to *record*, in insertion order."""

    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RESERVED and not key.startswith("_")
    }


class JsonLogFormatter(logging.Formatter):
    """One JSON object per line; structured fields become top-level keys."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        payload.update(structured_fields(record))
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


class TextLogFormatter(logging.Formatter):
    """Human-oriented line with structured fields appended as key=value."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = (
            f"{stamp} {record.levelname:<7} {record.name} "
            f"{record.getMessage()}"
        )
        fields = structured_fields(record)
        if fields:
            rendered = " ".join(f"{key}={value}" for key, value in fields.items())
            line = f"{line} {rendered}"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def configure_logging(
    fmt: str = "text",
    level: int = logging.INFO,
    stream: Optional[Any] = None,
) -> logging.Handler:
    """Install the shared handler on the ``repro`` logger namespace.

    Idempotent: a second call replaces the previous handler instead of
    stacking one more (re-running ``repro serve`` in-process must not
    duplicate every line).  Returns the installed handler so tests can
    point it at a capture stream.
    """

    if fmt not in ("text", "json"):
        raise ValueError(f"unknown log format {fmt!r} (expected text|json)")
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        JsonLogFormatter() if fmt == "json" else TextLogFormatter()
    )
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return handler


def get_logger(name: str) -> logging.Logger:
    """A logger under the managed ``repro`` namespace."""

    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")
