"""Server-child lifecycle and the closed-loop TCP load generator.

Load model: closed loop, one client connection, one request in flight,
30 s per-request timeout.  A request that errors, times out or is
refused counts as failed and contributes no latency; the run goes on.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from macro_workloads import Oracle, Request, Workload, row_set
from repro.errors import ReproError
from repro.service import ServiceClient, ServiceClientError

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REQUEST_TIMEOUT = 30.0
READY_TIMEOUT = 60.0
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class ServerDied(RuntimeError):
    """The child exited (or never became ready) during a workload."""


class ServerChild:
    """The real ``QueryServer`` in a child process (``macro_child.py``)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workload = workload
        self._log = open(
            os.path.join(OUT_DIR, f"server_{workload.name}.log"), "ab"
        )
        self.process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "macro_child.py"),
                workload.name,
                str(seed),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], READY_TIMEOUT
            )
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise ServerDied(
                    f"{workload.name}: server child never became ready "
                    f"(see {self._log.name})"
                )
            self.ready = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.pid = self.ready["pid"]
        self.port = self.ready["port"]

    def connect(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)

    def alive(self) -> bool:
        return self.process.poll() is None

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            # The command name may hold spaces; fields restart after ")".
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerDied(f"{self.workload.name}: no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """Close stdin (the child exits on EOF), then make sure."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()
            self._log.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


@dataclass
class Sample:
    request: Request
    latency_s: float
    response: dict


@dataclass
class Window:
    """What one untraced measurement window observed."""

    seconds: float = 0.0
    attempted: int = 0
    #: Responses received, right or wrong (fixed when the window ends).
    completed: int = 0
    failed: int = 0
    wrong_answers: int = 0
    cache_violations: int = 0
    samples: List[Sample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def latencies_ms(self, template_key: Optional[str] = None) -> List[float]:
        return [
            sample.latency_s * 1000.0
            for sample in self.samples
            if sample.request.template is not None
            and template_key in (None, sample.request.template.key)
        ]

    def response_field_ms(self, name: str) -> List[float]:
        return [
            sample.response[name]
            for sample in self.samples
            if name in sample.response
        ]


class Session:
    """One client connection with the workload's statements prepared."""

    def __init__(self, server: ServerChild) -> None:
        self.server = server
        self.client: Optional[ServiceClient] = None
        self.statements: Dict[str, str] = {}

    def _connect(self) -> None:
        self.client = self.server.connect()
        prepared = [t for t in self.server.workload.templates if t.prepared]
        if prepared:
            self.client.hello()
            for template in prepared:
                self.statements[template.key] = self.client.prepare(template.text)

    def send(self, request: Request) -> dict:
        """One round trip (send -> full response line parsed); raises
        on an error response, a timeout or a refused/closed connection,
        after which the next call reconnects."""
        try:
            if self.client is None:
                self._connect()
            return self.client.request(request.payload(self.statements))
        except ServiceClientError:
            raise  # an error *response*: the connection is still in step
        except (ReproError, OSError):
            # A timed-out, dropped or closed connection is out of step
            # with the server's responses: never reuse it.
            self.close()
            raise

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def set_up(server: ServerChild, stream: Iterator[Request], warmup: int) -> Session:
    """Connect, prepare, and send the first ``warmup`` requests of
    ``stream`` (part of ``setup_s``: lazy set-up finishes before the
    window opens)."""
    session = Session(server)
    for request in itertools.islice(stream, warmup):
        session.send(request)
    return session


def run_window(
    server: ServerChild,
    session: Session,
    stream: Iterator[Request],
    seconds: float,
) -> Window:
    """Drive the closed loop for ``seconds``; verification happens
    afterwards (:func:`verify`) so the generator's core stays free."""
    window = Window()
    cpu_before = server.cpu_seconds()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        request = next(stream)
        window.attempted += 1
        sent = time.perf_counter()
        try:
            response = session.send(request)
        except (ReproError, OSError) as error:
            window.failed += 1
            window.errors.append(f"{type(error).__name__}: {error}")
            if not server.alive():
                raise ServerDied(
                    f"{server.workload.name}: server child died mid-window"
                ) from error
            continue
        window.samples.append(
            Sample(request, time.perf_counter() - sent, response)
        )
    window.seconds = time.perf_counter() - started
    window.completed = len(window.samples)
    window.cpu_seconds = server.cpu_seconds() - cpu_before
    window.peak_rss_mb = server.peak_rss_mb()
    return window


def verify(window: Window, oracle: Oracle, expect_cache: str) -> None:
    """Check every response's row set against the oracle and its
    ``cache`` field against the workload's contract; a wrong answer is
    a failed request and loses its latency sample."""
    kept = []
    for sample in window.samples:
        if sample.request.template is None:
            kept.append(sample)
            continue
        status = sample.response.get("cache")
        hit = status in ("hit", "revalidated")
        if hit != (expect_cache == "hit"):
            window.cache_violations += 1
        if row_set(sample.response["rows"]) == oracle.expected(sample.request):
            kept.append(sample)
        else:
            window.wrong_answers += 1
            window.failed += 1
    window.samples = kept


def tail(latencies_ms: List[float]) -> tuple:
    """(percentile, value) of the highest standard percentile that
    still has at least ten samples beyond it (p50 when none has)."""
    count = len(latencies_ms)
    best = 50.0
    for percentile in (75.0, 90.0, 95.0, 99.0, 99.9):
        if count * (1.0 - percentile / 100.0) >= 10:
            best = percentile
    ordered = sorted(latencies_ms)
    index = min(count - 1, int(count * best / 100.0))
    return best, ordered[index]


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return third - first
