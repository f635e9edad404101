"""HTTP client + load generator for the attack service.

:class:`ServiceClient` wraps the service endpoints (submit, status,
events, cancel, results, health) with plain ``urllib.request`` (stdlib
only, like the server).  :meth:`ServiceClient.events` consumes the
``GET /jobs/<id>/events`` SSE stream as an iterator of event dicts,
and :meth:`ServiceClient.wait` follows it to the job's terminal event.
:func:`run_load` replays a stream of submissions at configurable thread
concurrency and reports latency percentiles — the measurement half of
the service acceptance bar (``scripts/bench_service.py`` drives it).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field

from .queue import TERMINAL


class ServiceClientError(RuntimeError):
    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talk to one :class:`~repro.service.server.AttackService`."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- raw request ---------------------------------------------------
    def _request(
        self, method: str, path: str, payload=None,
        timeout: float | None = None,
    ) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as err:
            try:
                message = json.loads(err.read()).get("error", "")
            except Exception:  # repro: ignore[broad-except] best-effort error-body parse; the HTTPError is re-raised as ServiceClientError either way
                message = err.reason
            raise ServiceClientError(err.code, message) from None

    # -- endpoints -----------------------------------------------------
    def submit(
        self,
        grid: str | None = None,
        params: dict | None = None,
        specs: list[dict] | None = None,
        priority: int = 0,
    ) -> dict:
        payload: dict = {"priority": priority}
        if grid is not None:
            payload["grid"] = grid
            payload["params"] = params or {}
        if specs is not None:
            payload["specs"] = specs
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued/running job (``DELETE /jobs/<id>``)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Follow the job's event stream to its terminal event, then
        return the final job view (records included when done).

        Raises :class:`TimeoutError` when ``timeout`` passes first and
        :class:`ConnectionError` when the stream closes without a
        terminal event (the service shut down).
        """
        for event in self.events(job_id, timeout=timeout):
            if event.get("kind") in TERMINAL:
                return self.job(job_id)
        raise ConnectionError(
            f"event stream for job {job_id} closed before the job finished"
        )

    def events(self, job_id: str, timeout: float | None = None):
        """Iterate one job's SSE stream as parsed event dicts.

        Yields each ``data:`` payload (``{"kind", "message", "job_id",
        "data"}``) in order: a ``submitted`` snapshot, ``node`` /
        ``progress`` events as the scheduler works, then one terminal
        ``done`` / ``failed`` / ``cancelled`` event, after which the
        iterator ends.  Keepalive comment frames are consumed silently.
        ``timeout`` bounds the *whole stream* (default: no bound — the
        server ends the stream at the terminal event).
        """
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/events",
            headers={"Accept": "text/event-stream"},
        )
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        try:
            # Per-read socket timeout: generous enough that the
            # server's 0.25s keepalive cadence never trips it.
            response = urllib.request.urlopen(
                request, timeout=max(self.timeout, 5.0)
            )
        except urllib.error.HTTPError as err:
            try:
                message = json.loads(err.read()).get("error", "")
            except Exception:  # repro: ignore[broad-except] best-effort error-body parse; the HTTPError is re-raised as ServiceClientError either way
                message = err.reason
            raise ServiceClientError(err.code, message) from None
        with response:
            data_lines: list[str] = []
            for raw in response:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"event stream for job {job_id} still open"
                    )
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:  # blank line terminates one frame
                    if data_lines:
                        yield json.loads("\n".join(data_lines))
                        data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].lstrip())
                # "event:" lines are redundant with payload["kind"]

    def results(self, **filters) -> list[dict]:
        return self.results_page(**filters)["records"]

    def results_page(self, **filters) -> dict:
        """Full paginated response: ``records`` plus ``total`` /
        ``limit`` / ``offset`` / ``order``.  Pass ``limit`` / ``offset``
        / ``order`` alongside the record filters."""
        query = urllib.parse.urlencode(
            {k: v for k, v in filters.items() if v is not None}
        )
        path = "/results" + (f"?{query}" if query else "")
        return self._request("GET", path)

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """Raw Prometheus exposition text from ``GET /metrics``."""
        request = urllib.request.Request(
            self.base_url + "/metrics",
            headers={"Accept": "text/plain"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as err:
            raise ServiceClientError(err.code, err.reason) from None

    def traces(
        self, job_id: str | None = None, trace_id: str | None = None
    ) -> dict:
        """``GET /debug/traces`` — one trace's spans (plus rendered
        ``tree``/``flame`` text) when ``job_id`` or ``trace_id`` is
        given, else the resident trace-id listing."""
        if job_id is not None:
            query = f"?job={urllib.parse.quote(job_id)}"
        elif trace_id is not None:
            query = f"?trace={urllib.parse.quote(trace_id)}"
        else:
            query = ""
        return self._request("GET", "/debug/traces" + query)

    def slo(self) -> dict:
        """``GET /slo`` — per-rule SLO verdicts and the overall fold."""
        return self._request("GET", "/slo")

    def profile(
        self, seconds: float = 1.0, hz: float | None = None
    ) -> dict:
        """``GET /debug/profile`` — sample the service's threads for
        ``seconds`` and return collapsed stacks.  The server blocks for
        the window, so the socket timeout is stretched past it."""
        params = {"seconds": seconds}
        if hz is not None:
            params["hz"] = hz
        query = urllib.parse.urlencode(params)
        return self._request(
            "GET", f"/debug/profile?{query}",
            timeout=max(self.timeout, seconds + 10.0),
        )


# -- load generation ----------------------------------------------------


@dataclass
class LoadReport:
    """Latency sample set from one load run."""

    latencies_s: list[float] = field(default_factory=list)
    errors: int = 0
    wall_s: float = 0.0
    concurrency: int = 1
    label: str = "load"

    @property
    def requests(self) -> int:
        return len(self.latencies_s) + self.errors

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(
            len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1)))
        )
        return ordered[index]

    def render(self) -> str:
        lines = [
            f"{self.label}: {self.requests} requests, "
            f"{self.concurrency} client threads, {self.errors} errors",
            f"  wall        {self.wall_s:8.3f} s",
            f"  throughput  {self.throughput_rps:8.1f} req/s",
        ]
        for q in (50, 90, 99):
            lines.append(
                f"  p{q:<2d}         {1e3 * self.percentile(q):8.2f} ms"
            )
        if self.latencies_s:
            lines.append(
                f"  max         {1e3 * max(self.latencies_s):8.2f} ms"
            )
        return "\n".join(lines)


def run_load(
    make_request,
    n_requests: int,
    concurrency: int = 1,
    label: str = "load",
) -> LoadReport:
    """Fire ``make_request(i)`` ``n_requests`` times from ``concurrency``
    threads, timing each call.

    ``make_request`` must be thread-safe (a :class:`ServiceClient`
    method is: each call opens its own connection).
    """
    report = LoadReport(concurrency=concurrency, label=label)
    lock = threading.Lock()
    counter = iter(range(n_requests))

    def worker() -> None:
        while True:
            with lock:
                i = next(counter, None)
            if i is None:
                return
            started = time.perf_counter()
            try:
                make_request(i)
            except Exception:  # repro: ignore[broad-except] load-gen counts request failures as data in the report
                with lock:
                    report.errors += 1
                continue
            elapsed = time.perf_counter() - started
            with lock:
                report.latencies_s.append(elapsed)

    threads = [
        threading.Thread(target=worker, name=f"load-{t}")
        for t in range(max(1, concurrency))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - started
    return report
