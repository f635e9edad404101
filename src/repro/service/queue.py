"""Persistent job queue: append-only JSONL journal with leased claims.

A *job* is one sweep submission — a list of scenario specs plus a
priority.  Every state transition is one appended journal line (see
:func:`repro.core.atomic.atomic_append_line`: single ``O_APPEND``
writes, so concurrent appenders interleave whole events, never bytes).
The in-memory view is a pure fold over the journal, which buys:

* **crash-resume** — a restarted queue (``recover=True``, the default)
  replays the journal and re-queues jobs whose claim *lease* has
  expired, appending a ``requeue`` event so later readers converge.
  Because the scheduler plans jobs through the sweep engine, the
  re-run skips every DAG node whose artifact or store record survived
  the crash — nothing re-runs.
* **dedup** — a submission whose scenario-hash set matches an in-flight
  job joins that job instead of enqueuing a duplicate; one whose hashes
  are *all* in the results store completes instantly without touching
  the scheduler (``from_store``).
* **leased claims** — a claim is one appended event carrying a worker
  id and a lease duration; readers folding the same journal agree on
  the owner (first claim per job wins).  The claimant extends its
  lease with ``heartbeat`` events; any reader observing an *expired*
  lease may journal a guarded ``requeue`` (it names the expired
  claimant, so it cannot unseat a fresh re-claim) and claim the job
  itself.  That is what lets several scheduler threads — or several
  ``repro serve`` processes — share one journal safely.
* **cancellation** — :meth:`JobQueue.cancel` appends a ``cancel``
  event; the scheduler drops the job's pending nodes on its next
  iteration.
* **bounded growth** — :meth:`JobQueue.compact` drops terminal jobs
  older than a TTL and atomically rewrites the journal as one
  state-snapshot event per surviving job, *preserving live lease and
  heartbeat state* for non-terminal jobs (run at service startup;
  ``repro serve --compact`` forces a full sweep).

Cross-process visibility works by tailing the journal: every public
entry point re-folds any lines other writers appended since the last
read (a single ``stat`` when nothing changed).  A torn trailing line —
a writer that died mid-append — is sealed off with a newline at
recovery so later appends cannot glue onto it, and is skipped by the
fold.  Mutations are *append-then-read-back*: the event is appended
first and the journal tail re-folded, so two processes racing to claim
the same job both converge on whichever claim line landed first.

Timestamps (lease expiry, ``finished_at``) come from an injectable
``clock`` (default :func:`time.time`), which is how the fault-injection
tests drive lease expiry deterministically.

The journal lives next to the results store by default
(``results/service_queue.jsonl``; the ``REPRO_RESULTS_DIR`` environment
variable relocates both).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..core.atomic import atomic_append_line, atomic_write_text
from ..experiments.spec import ScenarioSpec
from ..experiments.store import ResultsStore, results_dir
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.logging import log_event


def _queue_metrics():
    return (
        obs_metrics.counter(
            "repro_queue_submits_total",
            "Job submissions by outcome",
            labels=("outcome",),
        ),
        obs_metrics.counter(
            "repro_queue_claims_total", "Job claims journaled",
        ),
        obs_metrics.counter(
            "repro_queue_requeues_total",
            "Expired-lease requeues journaled, by reason",
            labels=("reason",),
        ),
        obs_metrics.counter(
            "repro_queue_heartbeats_total",
            "Lease heartbeats by outcome",
            labels=("outcome",),
        ),
        obs_metrics.histogram(
            "repro_queue_fold_seconds",
            "Journal fold latency (real folds only; the nothing-new "
            "stat-and-return path is not observed)",
        ),
    )

QUEUE_FILENAME = "service_queue.jsonl"

#: queued -> running -> done | failed | cancelled (requeue puts running
#: back; cancel is valid from any non-terminal state)
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL = ("done", "failed", "cancelled")

#: default journal TTL: terminal jobs older than this are dropped by
#: :meth:`JobQueue.compact` (which the service runs at startup).
DEFAULT_COMPACT_TTL_S = 7 * 24 * 3600.0

#: default claim lease: a claimant that fails to heartbeat for this
#: long is presumed dead and its jobs become requeue-able.
DEFAULT_LEASE_S = 30.0

#: process-wide submission counter: with the pid it makes job ids
#: unique across every queue instance sharing a journal (a per-queue
#: count could repeat after compaction under a coarse clock).
_JOB_IDS = itertools.count()


@dataclass
class Job:
    """One sweep submission and its lifecycle state."""

    job_id: str
    specs: list[dict]  # ScenarioSpec.to_dict() per scenario
    spec_hashes: tuple[str, ...]
    priority: int = 0
    source: dict = field(default_factory=dict)  # e.g. {"grid": "table3"}
    status: str = "queued"
    submitted_at: float = 0.0
    finished_at: float = 0.0  # wall-clock of the terminal event
    claimed_by: str | None = None
    claimed_at: float = 0.0
    lease_expires_at: float = 0.0  # claim is dead past this instant
    heartbeat_at: float = 0.0  # last lease renewal
    requeues: int = 0  # times a dead claimant's work was requeued
    claim_epoch: int = 0  # bumps on every applied claim (requeue guard)
    error: str | None = None
    from_store: bool = False
    nodes_total: int | None = None  # None until the scheduler plans it
    nodes_done: int = 0
    reused: int = 0  # scenarios resolved from the store at plan time
    telemetry: dict = field(default_factory=dict)
    # Journaled with the job so every scheduler that ever touches it —
    # including a survivor re-claiming a dead peer's work — records its
    # spans into the *same* trace.
    trace_id: str | None = None

    @property
    def done(self) -> bool:
        return self.status in TERMINAL

    def lease_expired(self, now: float) -> bool:
        return self.status == "running" and self.lease_expires_at <= now

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "specs": self.specs,
            "spec_hashes": list(self.spec_hashes),
            "priority": self.priority,
            "source": self.source,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "claimed_by": self.claimed_by,
            "claimed_at": self.claimed_at,
            "lease_expires_at": self.lease_expires_at,
            "heartbeat_at": self.heartbeat_at,
            "requeues": self.requeues,
            "claim_epoch": self.claim_epoch,
            "error": self.error,
            "from_store": self.from_store,
            "nodes_total": self.nodes_total,
            "nodes_done": self.nodes_done,
            "reused": self.reused,
            "telemetry": self.telemetry,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        # Tolerate events written by a build with extra fields (mixed
        # scheduler versions share one journal): drop unknown keys
        # instead of discarding the whole job on fold.
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in known}
        data["spec_hashes"] = tuple(data.get("spec_hashes") or ())
        return cls(**data)

    def specs_objects(self) -> list[ScenarioSpec]:
        return [ScenarioSpec.from_dict(s) for s in self.specs]


def default_queue_path() -> Path:
    return results_dir() / QUEUE_FILENAME


class JobQueue:
    """Journal-backed priority queue of sweep jobs.

    Thread-safe; every mutation appends a journal event and then folds
    the journal tail back in (so concurrent writers in *other
    processes* are observed before the outcome is reported), and
    :class:`threading.Condition` waiters (the schedulers) are notified
    on every state change.

    ``clock`` (default :func:`time.time`) supplies every timestamp —
    lease expiry in particular — so tests can drive time
    deterministically.  ``recover=False`` opens a read-only view that
    never seals or requeues anything (inspection tools).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        recover: bool = True,
        clock=None,
    ):
        self.path = Path(path) if path else default_queue_path()
        self.clock = clock or time.time
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count()
        self._arrival: dict[str, int] = {}  # FIFO order within a priority
        self._offset = 0  # journal bytes folded so far
        self._ino = -1  # detects compaction's os.replace
        self._lock = threading.RLock()
        self.changed = threading.Condition(self._lock)
        with self._lock:
            if recover:
                self._seal_torn_tail()
            self._refresh()
            if recover:
                self._recover()

    # -- journal -------------------------------------------------------
    def _append(self, event: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A peer may have died mid-append since we last looked; without
        # the seal our own event would glue onto its torn fragment and
        # both lines would be lost.  (Two processes sealing at once
        # just yields harmless blank lines — the fold skips them.)
        self._seal_torn_tail()
        atomic_append_line(self.path, json.dumps(event, sort_keys=True))

    def _journal(self, event: dict) -> None:
        """Append one event, then fold the tail back in (read-back).

        Folding — not direct in-memory mutation — is what applies the
        event, so this process and every other journal reader run the
        exact same fold in the exact same order and converge.
        """
        self._append(event)
        self._refresh()

    def _seal_torn_tail(self) -> None:
        """Isolate a torn trailing line left by a writer that died
        mid-append: without the sealing newline, the next append would
        glue onto the fragment and corrupt *its own* event too."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except OSError:
            return
        if torn:
            # A single-byte append sealing the torn tail cannot itself
            # tear; the O_APPEND machinery is overkill for one newline.
            with open(self.path, "ab") as handle:  # repro: ignore[atomic-write]
                handle.write(b"\n")

    def _refresh(self) -> None:
        """Fold journal lines appended since the last read (cheap: one
        ``stat`` when nothing changed).  A rewritten journal (another
        process compacted it: new inode, or shrunk) triggers a full
        re-fold from byte zero."""
        try:
            stat = os.stat(self.path)
        except OSError:
            return
        if stat.st_ino != self._ino or stat.st_size < self._offset:
            self._jobs.clear()
            self._arrival.clear()
            self._seq = itertools.count()
            self._offset = 0
            self._ino = stat.st_ino
        if stat.st_size <= self._offset:
            return
        # Only real folds are timed; the stat-and-return path above
        # runs on every public entry point and must stay unmetered.
        fold_started = time.perf_counter()
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        complete = chunk.rfind(b"\n")
        if complete < 0:
            return  # torn tail in progress: fold it once the line lands
        for raw in chunk[:complete].split(b"\n"):
            if not raw.strip():
                continue
            try:
                self._apply(json.loads(raw))
            except (json.JSONDecodeError, TypeError, KeyError,
                    UnicodeDecodeError):
                continue  # torn/foreign line: the journal stays usable
        self._offset += complete + 1
        _queue_metrics()[4].observe(time.perf_counter() - fold_started)

    def _apply(self, event: dict) -> None:
        """Fold one journal event into the in-memory state.

        The fold is deterministic and order-dependent only on the
        journal itself: first claim per queued job wins, a ``requeue``
        only unseats the claimant it names, and a terminal status is
        never overwritten by a later event (``cancel`` included — a
        cancelled job's in-flight batch may still journal ``done``).
        """
        kind = event.get("event")
        if kind == "submit":
            job = Job.from_dict(event["job"])
            if job.job_id not in self._jobs:
                self._jobs[job.job_id] = job
                self._arrival[job.job_id] = next(self._seq)
            return
        job = self._jobs.get(event.get("job_id", ""))
        if job is None:
            return  # foreign/torn event: ignore
        if kind == "claim":
            if job.status == "queued":  # first claim wins
                job.status = "running"
                job.claimed_by = event.get("worker")
                at = event.get("at", 0.0)
                job.claimed_at = at
                job.heartbeat_at = at
                job.lease_expires_at = at + event.get("lease_s", 0.0)
                job.claim_epoch += 1
        elif kind == "heartbeat":
            if (
                job.status == "running"
                and job.claimed_by == event.get("worker")
            ):
                at = event.get("at", 0.0)
                job.heartbeat_at = max(job.heartbeat_at, at)
                job.lease_expires_at = max(
                    job.lease_expires_at, at + event.get("lease_s", 0.0)
                )
        elif kind == "progress":
            if not job.done:
                job.nodes_total = event.get("nodes_total", job.nodes_total)
                job.nodes_done = event.get("nodes_done", job.nodes_done)
                job.reused = event.get("reused", job.reused)
        elif kind == "done":
            if not job.done:
                job.status = "done"
                job.telemetry = event.get("telemetry") or job.telemetry
                job.nodes_done = job.nodes_total or job.nodes_done
                job.finished_at = event.get("at", 0.0)
        elif kind == "failed":
            if not job.done:
                job.status = "failed"
                job.error = event.get("error")
                job.finished_at = event.get("at", 0.0)
        elif kind == "cancel":
            if not job.done:
                job.status = "cancelled"
                job.finished_at = event.get("at", 0.0)
        elif kind == "requeue":
            # Guarded: unseat only the exact claim the event observed —
            # the claimant it names *and* that claim's epoch — so a
            # late requeue (two readers both saw the same expired
            # lease) cannot steal a job already re-claimed, even by
            # the same worker that recovered from its stall.  Events
            # without from_worker/epoch (pre-lease journals) apply on
            # whatever guard they do carry.
            expired = event.get("from_worker")
            epoch = event.get("epoch")
            if job.status == "running" and (
                expired is None or job.claimed_by == expired
            ) and (epoch is None or epoch == job.claim_epoch):
                job.status = "queued"
                job.claimed_by = None
                job.claimed_at = 0.0
                job.lease_expires_at = 0.0
                job.heartbeat_at = 0.0
                job.requeues += 1

    def _requeue_expired_locked(self, reason: str) -> list[Job]:
        """Journal a guarded requeue for every running job whose lease
        has expired; returns the jobs that folded back to queued.  The
        guard names both the dead claimant and its claim epoch, so the
        event is inert against any fresher claim."""
        now = self.clock()
        requeued = []
        for job in list(self._jobs.values()):
            if not job.lease_expired(now):
                continue
            self._journal({
                "event": "requeue",
                "job_id": job.job_id,
                "from_worker": job.claimed_by,
                "epoch": job.claim_epoch,
                "reason": reason,
                "at": now,
            })
            folded = self._jobs.get(job.job_id)
            if folded is not None and folded.status == "queued":
                requeued.append(folded)
                _queue_metrics()[2].labels(reason=reason).inc()
                log_event(
                    "job_requeue", job_id=job.job_id,
                    from_worker=job.claimed_by, reason=reason,
                    trace_id=job.trace_id,
                )
        return requeued

    def _recover(self) -> None:
        # Crash-resume: a job whose claimant stopped heartbeating past
        # its lease never reached a terminal event.  Requeue it — the
        # sweep engine's plan prunes every node the cache/store already
        # holds, so the re-run only executes what the crash actually
        # lost.  Live leases are left alone: their scheduler (possibly
        # in another process) is still working.
        self._requeue_expired_locked("startup-recovery")

    def refresh(self) -> None:
        """Fold in events appended by other processes since the last
        read (public hook for read-only consumers)."""
        with self._lock:
            self._refresh()

    # -- submission ----------------------------------------------------
    def submit(
        self,
        specs: list[ScenarioSpec],
        priority: int = 0,
        source: dict | None = None,
        store: ResultsStore | None = None,
    ) -> tuple[Job, str]:
        """Enqueue a sweep; returns ``(job, outcome)``.

        Outcomes: ``"queued"`` (new job), ``"duplicate"`` (an in-flight
        job already covers exactly these scenario hashes — that job is
        returned), ``"from_store"`` (every hash is already in the
        results store — the job is created terminal and the scheduler
        never sees it).
        """
        if not specs:
            raise ValueError("cannot submit an empty job")
        hashes = tuple(s.scenario_hash for s in specs)
        with self._lock:
            self._refresh()  # dedup must see other processes' jobs
            wanted = frozenset(hashes)
            for job in self._jobs.values():
                if not job.done and frozenset(job.spec_hashes) == wanted:
                    _queue_metrics()[0].labels(outcome="duplicate").inc()
                    return job, "duplicate"
            from_store = store is not None and all(
                h in store for h in hashes
            )
            now = self.clock()
            job = Job(
                job_id=(
                    f"job-{int(now * 1000):x}-{os.getpid():x}"
                    f"-{next(_JOB_IDS):04x}"
                ),
                specs=[s.to_dict() for s in specs],
                spec_hashes=hashes,
                priority=int(priority),
                source=source or {},
                submitted_at=now,
                # Inherit the submitting request's trace (the HTTP
                # handler runs submissions inside a request span), so
                # the whole job lifecycle shares one trace id.
                trace_id=(
                    obs_trace.current_trace_id() or obs_trace.new_trace_id()
                ),
            )
            if from_store:
                job.status = "done"
                job.from_store = True
                job.nodes_total = 0
                job.reused = len(hashes)
                job.finished_at = job.submitted_at
            self._journal({"event": "submit", "job": job.to_dict()})
            self.changed.notify_all()
            outcome = "from_store" if from_store else "queued"
            _queue_metrics()[0].labels(outcome=outcome).inc()
            log_event(
                "job_submit", job_id=job.job_id, outcome=outcome,
                n_specs=len(hashes), priority=job.priority,
                trace_id=job.trace_id,
            )
            # The fold registered its own Job instance; return that one
            # so callers and queue readers share a single object.
            return self._jobs[job.job_id], outcome

    # -- scheduler side ------------------------------------------------
    def claim(
        self, worker: str = "scheduler", lease_s: float = DEFAULT_LEASE_S
    ) -> Job | None:
        """Atomically claim the highest-priority queued job (FIFO within
        a priority level) under a ``lease_s``-second lease; None when
        nothing is claimable.

        Running jobs whose lease has expired are requeued first (with a
        guard naming the dead claimant), so orphaned work is claimable
        in the same pass.  The claim is append-then-read-back: when two
        workers race, the journal's first claim line wins and the loser
        silently moves on to the next queued job.  ``worker`` must be
        unique per claimant (see
        :attr:`repro.service.SweepScheduler.worker_id`) or two winners
        could each believe the claim is theirs.
        """
        with self._lock:
            while True:
                self._refresh()
                requeued = self._requeue_expired_locked("lease-expired")
                queued = [
                    j for j in self._jobs.values() if j.status == "queued"
                ]
                if not queued:
                    if requeued:
                        self.changed.notify_all()
                    return None
                job = min(
                    queued,
                    key=lambda j: (-j.priority, self._arrival[j.job_id]),
                )
                self._journal({
                    "event": "claim",
                    "job_id": job.job_id,
                    "worker": worker,
                    "at": self.clock(),
                    "lease_s": float(lease_s),
                })
                self.changed.notify_all()
                claimed = self._jobs.get(job.job_id)
                if (
                    claimed is not None
                    and claimed.status == "running"
                    and claimed.claimed_by == worker
                ):
                    _queue_metrics()[1].inc()
                    log_event(
                        "job_claim", job_id=claimed.job_id,
                        worker=worker, lease_s=float(lease_s),
                        trace_id=claimed.trace_id,
                    )
                    return claimed
                # Another worker's claim line landed first; each pass
                # removes at least one job from the queued set, so the
                # loop terminates.

    def heartbeat(
        self,
        job_id: str,
        worker: str,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> bool:
        """Extend ``worker``'s lease on a running job; False when the
        lease is no longer ours to extend (the job was requeued and
        possibly re-claimed, finished, or cancelled) — the caller must
        stop working on it."""
        with self._lock:
            self._refresh()
            job = self._jobs.get(job_id)
            if (
                job is None
                or job.status != "running"
                or job.claimed_by != worker
            ):
                _queue_metrics()[3].labels(outcome="lost").inc()
                return False
            self._journal({
                "event": "heartbeat",
                "job_id": job_id,
                "worker": worker,
                "at": self.clock(),
                "lease_s": float(lease_s),
            })
            job = self._jobs.get(job_id)
            renewed = (
                job is not None
                and job.status == "running"
                and job.claimed_by == worker
            )
            _queue_metrics()[3].labels(
                outcome="renewed" if renewed else "lost"
            ).inc()
            return renewed

    def requeue_expired(self) -> list[Job]:
        """Requeue every running job whose lease has expired; returns
        the requeued jobs.  Safe to call from any reader — the guarded
        requeue event cannot unseat a fresh claim."""
        with self._lock:
            self._refresh()
            requeued = self._requeue_expired_locked("lease-expired")
            if requeued:
                self.changed.notify_all()
            return requeued

    def progress(
        self,
        job_id: str,
        nodes_done: int,
        nodes_total: int,
        reused: int = 0,
    ) -> None:
        with self._lock:
            self._journal({
                "event": "progress", "job_id": job_id,
                "nodes_done": nodes_done, "nodes_total": nodes_total,
                "reused": reused,
            })
            self.changed.notify_all()

    def complete(self, job_id: str, telemetry: dict | None = None) -> None:
        with self._lock:
            self._journal({
                "event": "done", "job_id": job_id,
                "telemetry": telemetry or {}, "at": self.clock(),
            })
            self.changed.notify_all()
            job = self._jobs.get(job_id)
            log_event(
                "job_done", job_id=job_id,
                trace_id=job.trace_id if job else None,
            )

    def fail(self, job_id: str, error: str) -> None:
        with self._lock:
            self._journal({
                "event": "failed", "job_id": job_id, "error": error,
                "at": self.clock(),
            })
            self.changed.notify_all()
            job = self._jobs.get(job_id)
            log_event(
                "job_failed", job_id=job_id, error=error,
                trace_id=job.trace_id if job else None,
            )

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; True when it took effect.

        Cancellation is one journaled event, so every reader folding
        the journal converges on it.  The scheduler drops the job's
        not-yet-dispatched nodes on its next iteration (nodes shared
        with other live jobs keep running); already-terminal jobs and
        unknown ids return False.
        """
        with self._lock:
            self._refresh()
            job = self._jobs.get(job_id)
            if job is None or job.done:
                return False
            self._journal({
                "event": "cancel", "job_id": job_id, "at": self.clock(),
            })
            self.changed.notify_all()
            job = self._jobs.get(job_id)
            return job is not None and job.status == "cancelled"

    # -- maintenance ---------------------------------------------------
    def compact(self, ttl_s: float = 0.0) -> int:
        """Drop terminal jobs older than ``ttl_s`` seconds and rewrite
        the journal atomically; returns the number of jobs dropped.

        The journal otherwise only grows (every transition is an
        appended event).  Compaction folds each surviving job into a
        single snapshot ``submit`` event carrying its full current
        state — lease, heartbeat and claimant fields included, so a
        running job keeps its owner and expiry across the rewrite —
        and ``os.replace``s it onto the old file, so concurrent readers
        never observe a torn journal (their next refresh detects the
        new inode and re-folds).  Terminal events journaled before the
        ``at`` timestamp existed replay with ``finished_at == 0`` and
        are dropped by any TTL.

        Events appended by *another process* between the snapshot read
        and the replace are lost; run compaction from a single service
        process (its own schedulers share this queue object and are
        safe).
        """
        with self._lock:
            self._refresh()
            cutoff = self.clock() - max(ttl_s, 0.0)
            keep = [
                job for job in self.jobs()
                if not job.done or job.finished_at >= cutoff
            ]
            dropped = len(self._jobs) - len(keep)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            snapshot = "".join(
                json.dumps(
                    {"event": "submit", "job": job.to_dict()},
                    sort_keys=True,
                ) + "\n"
                for job in keep
            )
            atomic_write_text(self.path, snapshot)
            self._jobs = {job.job_id: job for job in keep}
            self._seq = itertools.count()
            self._arrival = {
                job.job_id: next(self._seq) for job in keep
            }
            # The snapshot is already folded into memory: fast-forward
            # the tail pointer past exactly the bytes we wrote, onto
            # the fresh inode (an append racing in right behind the
            # replace stays beyond the pointer for the next refresh).
            try:
                self._ino = os.stat(self.path).st_ino
                self._offset = len(snapshot.encode("utf-8"))
            except OSError:
                self._ino, self._offset = -1, 0
            self.changed.notify_all()
            return dropped

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            self._refresh()
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            self._refresh()
            return sorted(
                self._jobs.values(), key=lambda j: self._arrival[j.job_id]
            )

    def pending(self) -> list[Job]:
        return [j for j in self.jobs() if not j.done]

    def running(self) -> list[Job]:
        """Jobs currently claimed under a lease (for ``/healthz``)."""
        return [j for j in self.jobs() if j.status == "running"]
