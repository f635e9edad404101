"""repro.api — the public SDK: one Client, pluggable execution backends.

The reproduction runs its attacks two ways (the DAG sweep engine in
process, the HTTP attack service over it).  This package is the single
stable surface over both:

* :class:`Client` — accepts :class:`~repro.experiments.ScenarioSpec`
  objects, spec dicts, or registry grid names, plus high-level helpers
  (``client.table3()``, ``client.figure5()``,
  ``client.defense_sweep()``, ``client.attack(design, ...)``);
* :class:`~repro.api.backends.Backend` — the execution protocol, with
  :class:`InlineBackend` (single-process, deterministic),
  :class:`LocalBackend` (multi-process sweep engine) and
  :class:`ServiceBackend` (HTTP attack service, auto-spawned when no
  URL is given) behind an unchanged caller surface;
* :class:`Job` -> :class:`ResultSet` — uniform handles and results
  (built on :class:`~repro.experiments.ScenarioRecord`, with lazy
  report accessors reusing :mod:`repro.experiments.reports`, and
  :meth:`ResultSet.diff` for sweep-vs-sweep regression checks);
* :class:`~repro.api.events.ProgressEvent` — one streaming progress
  callback (``on_event``) unifying the engine's ``on_node`` hook with
  the service's SSE event stream.

New workloads register a grid (:func:`repro.experiments.register`) and
are immediately runnable on every backend; new execution strategies
implement ``Backend`` and plug in without touching any caller.
"""

from .backends import (
    BACKENDS,
    Backend,
    BackendError,
    BackendOutcome,
    InlineBackend,
    JobCancelled,
    LocalBackend,
    ServiceBackend,
)
from .client import (
    DIFF_FIELDS,
    Client,
    EmptySubmission,
    Job,
    RecordDelta,
    ResultSet,
    ResultSetDiff,
)
from .events import (
    EVENT_KINDS,
    ProgressEvent,
    message_printer,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendError",
    "BackendOutcome",
    "Client",
    "DIFF_FIELDS",
    "EVENT_KINDS",
    "EmptySubmission",
    "InlineBackend",
    "Job",
    "JobCancelled",
    "LocalBackend",
    "ProgressEvent",
    "RecordDelta",
    "ResultSet",
    "ResultSetDiff",
    "ServiceBackend",
    "message_printer",
]
