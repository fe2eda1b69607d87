"""The experiment service: sweeps as a long-running multi-tenant API.

Three pieces over one concurrency-safe
:class:`~repro.harness.store.ExperimentStore`:

- :mod:`repro.harness.service.queue` — a durable job queue and a
  persistent worker pool: a job's plan replays its recorded cells in one
  batch, the rest fan out to workers and record to the store as each
  finishes, and per-job progress counters live in the ``jobs`` namespace;
- :mod:`repro.harness.service.app` — the stdlib-only HTTP API
  (``python -m repro serve``): submit sweeps, poll job status, long-poll
  progress, fetch sweep rows and byte-identical artifacts, and read the
  results book as live HTML;
- :mod:`repro.harness.service.client` — the small keep-alive client
  behind ``python -m repro submit`` / ``python -m repro status``.

See ``docs/RESULTS.md`` ("The experiment service") for the full tour.
"""

from repro.harness.service.client import ServiceClient, ServiceError
from repro.harness.service.queue import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    ExperimentService,
)

__all__ = [
    "ExperimentService",
    "ServiceClient",
    "ServiceError",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
]
