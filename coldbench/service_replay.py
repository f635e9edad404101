"""``service-replay``: the attack service answering fully stored grids.

Why this workload: it is the only one that exercises ``service``,
``api``-level HTTP, ``experiments.engine`` planning and
``experiments.storage``, and none of ``nn`` or ``layout``.  The planned
deletions in the service, queue and storage modules move this workload
and no other.

The traffic is the repository's own service benchmark,
``scripts/bench_service.py``, at its defaults:

- the replayed grids are its ``DEFAULT_GRIDS``, ``table3`` and
  ``attack-matrix`` (76 scenarios), and the store holds one record for
  each of their scenarios (its ``synthetic_store``);
- the store also holds ``DEPTH`` = 10,000 older records, the deepest
  store of its ``deep-history`` scenario (its ``deep_store``);
- a replay is its ``submit_and_wait``: ``POST /jobs`` with the grid,
  then ``GET /jobs/<id>``; it sends ``REQUESTS`` = 300 of them, then
  300 reads;
- a read is its ``deep-history`` page: ``GET /results`` with
  ``PAGE_SIZE`` = 20 records, rotating over the ``PAGES`` = 5 pages that
  are full at its shallowest depth (100 records).

Two things differ from that script.  There are ``CLIENTS`` = 2 client
threads, one per CPU of the 2-CPU host the benchmark is made for,
instead of its 4.  And before each submit, a replay plans the grid
against the store, as ``engine.run_sweep`` does first when a client
resumes a sweep: the service answers a fully stored grid without
planning, so this step is what puts ``experiments.engine`` planning in
the workload.  The seed draws the stored records' CCRs, runtimes and
fragment counts; the scenarios are the same on every seed.

Set-up seeds the store and starts an in-process ``AttackService`` on an
ephemeral localhost port.  A cycle is a closed loop: each client sends
its next request only after the previous one completed.
"""

from __future__ import annotations

import random
import re
import threading
import time

from common import median, tail

CLIENTS = 2
GRIDS = ("table3", "attack-matrix")
DEPTH = 10_000
REQUESTS = 300
# Each phase is timed in chunks of this many requests, each chunk a part
# of its own (see run.end_to_end), so a burst of noise on the host
# spoils one chunk's sample and not the whole phase's.
CHUNK = 30
PAGE_SIZE = 20
PAGES = 5


def _closed_loop(indices, op) -> tuple[float, float, list[float], list[str]]:
    """Run ``op(i)`` for each i of ``indices`` from CLIENTS threads; returns the
    process CPU time (clients and server together) and wall time it
    took, per-op wall latencies and failure messages."""
    lock = threading.Lock()
    todo = iter(indices)
    latencies: list[float] = []
    failures: list[str] = []

    def client() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            started = time.perf_counter()
            try:
                problem = op(i)
            except Exception as err:  # the service's failures are data here
                problem = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - started
            with lock:
                if problem:
                    failures.append(problem)
                else:
                    latencies.append(elapsed)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    cpu_started, started = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (
        time.process_time() - cpu_started, time.perf_counter() - started,
        latencies, failures,
    )


class ServiceReplay:
    name = "service-replay"
    units = ("replays/s", "result pages/s")

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.scratch = scratch
        self.service = None
        self.setups = 0
        self.cycles = 0
        self.http = {"sent": 0, "ok": 0, "failed": 0}
        self._http_lock = threading.Lock()
        self.latencies = {"replay": [], "results": []}
        self.wall = {"replay": [], "results": []}  # wall-clock rates

    # -- set-up -----------------------------------------------------------
    def _records(self):
        from repro.experiments import ScenarioRecord, ScenarioSpec, build_grid

        rng = random.Random(self.seed)
        records = {}

        def add(spec) -> None:
            records[spec.scenario_hash] = ScenarioRecord(
                scenario_hash=spec.scenario_hash,
                scenario=spec.to_dict(),
                status="ok",
                ccr=round(rng.uniform(0.5, 95.0), 4),
                runtime_s=round(rng.uniform(0.01, 5.0), 4),
                n_sink_fragments=rng.randint(10, 2600),
            )

        grids = []
        for name in GRIDS:
            specs = build_grid(name)
            grids.append((name, specs))
            for spec in specs:
                add(spec)
        for i in range(DEPTH):
            add(ScenarioSpec(
                design=f"synth{i:05d}", split_layer=3, attack="proximity"
            ))
        return grids, records

    def setup(self) -> None:
        from repro.experiments import ResultsStore
        from repro.service import AttackService, ServiceClient

        self.stop()
        self.setups += 1
        path = self.scratch.path / f"service{self.setups}"
        path.mkdir()
        self.grids, self.records = self._records()
        self.store = ResultsStore(path / "experiments.jsonl")
        self.store.add_many(self.records.values())
        self.service = AttackService(
            store=self.store, queue_path=path / "queue.jsonl"
        ).start()
        self.client = ServiceClient(self.service.url, timeout=30.0)
        for i in range(10):
            self._replay(i)
            self._page(i)

    def stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- operations -------------------------------------------------------
    def _http(self, call):
        outcome = "failed"
        try:
            out = call()
            outcome = "ok"
        finally:
            with self._http_lock:
                self.http["sent"] += 1
                self.http[outcome] += 1
        return out

    def _replay(self, i: int) -> str | None:
        from repro.experiments import engine

        # Every cycle replays the same grid sequence, so per-cycle counts
        # repeat exactly.
        name, specs = self.grids[i % len(self.grids)]
        with self.service.scheduler.store_lock:
            plan = engine.plan_sweep(specs, store=self.store)
        if plan.nodes:
            return f"{name}: plan has {len(plan.nodes)} nodes to run"
        out = self._http(lambda: self.client.submit(grid=name))
        if out["outcome"] != "from_store":
            return f"{name}: outcome {out['outcome']}, not from_store"
        view = self._http(lambda: self.client.job(out["job"]["job_id"]))
        if view["status"] != "done":
            return f"{name}: job {view['status']}, not done"
        got = {r["scenario_hash"]: r["ccr"] for r in view["records"]}
        want = {s.scenario_hash: self.records[s.scenario_hash].ccr for s in specs}
        if got != want:
            return f"{name}: {len(got)} records differ from the seeded store"
        return None

    def _page(self, i: int) -> str | None:
        total = len(self.records)
        offset = PAGE_SIZE * (i % PAGES)
        out = self._http(
            lambda: self.client.results_page(limit=PAGE_SIZE, offset=offset)
        )
        if out["total"] != total:
            return f"GET /results total {out['total']} != seeded {total}"
        if len(out["records"]) != PAGE_SIZE:
            return f"GET /results page at {offset}: {len(out['records'])} records"
        return None

    def cycle(self, recorder=None) -> dict:
        def tagged(op, kind):
            def run(i):
                if recorder is not None:
                    recorder.set_request(f"{kind}-{self.cycles}-{i}")
                return op(i)
            return run

        # Drop the finished jobs of earlier cycles, so that every cycle
        # submits to a queue of the same size (a submit scans the jobs).
        self.service.queue.compact()
        parts, failures = {}, []
        for kind, op in (("replay", self._replay), ("results", self._page)):
            wall = 0.0
            for start in range(0, REQUESTS, CHUNK):
                cpu_s, wall_s, latencies, failed = _closed_loop(
                    range(start, start + CHUNK), tagged(op, kind)
                )
                parts[f"{kind}{start // CHUNK}"] = cpu_s
                wall += wall_s
                self.latencies[kind] += latencies
                failures += failed
            self.wall[kind].append(REQUESTS / wall)
        self.cycles += 1
        return {
            "parts": parts,
            "work": (REQUESTS, [k for k in parts if k.startswith("replay")]),
            "aux": (REQUESTS, [k for k in parts if k.startswith("results")]),
            "attempted": 2 * REQUESTS,
            "failures": failures,
        }

    def probe(self) -> dict[str, float]:
        """Cumulative HTTP counts and per-route handler seconds, the
        latter scraped from ``GET /metrics`` (the scrape itself is not
        counted)."""
        routes = {
            ("POST", "/jobs"): "http.post_jobs.server_s",
            ("GET", "/jobs/<id>"): "http.get_job.server_s",
            ("GET", "/results"): "http.get_results.server_s",
        }
        out = {f"http.{k}": float(v) for k, v in self.http.items()}
        out.update({name: 0.0 for name in routes.values()})
        pattern = re.compile(
            r'^repro_http_request_seconds_sum\{(?P<labels>[^}]*)\} (?P<v>\S+)$'
        )
        for line in self.client.metrics().splitlines():
            match = pattern.match(line)
            if match:
                labels = dict(re.findall(r'(\w+)="([^"]*)"', match["labels"]))
                name = routes.get((labels.get("method"), labels.get("route")))
                if name:
                    out[name] = float(match["v"])
        return out

    def report(self, cycles: list[dict]) -> dict:
        pct, tail_s = tail(self.latencies["replay"])
        return {
            "replay_rps": median(self.wall["replay"]),
            "results_rps": median(self.wall["results"]),
            "replay_p50_ms": 1e3 * median(self.latencies["replay"]),
            f"replay_p{pct:.1f}_ms": 1e3 * tail_s,
            "results_p50_ms": 1e3 * median(self.latencies["results"]),
            "http_sent": self.http["sent"],
            "http_ok": self.http["ok"],
            "http_failed": self.http["failed"],
        }
