"""The experiment service: sweeps as a long-running multi-tenant API.

Three pieces over one concurrency-safe
:class:`~repro.harness.store.ExperimentStore`:

- :mod:`repro.harness.service.queue` — a job queue and a persistent
  worker pool over the store: a job is one task that replays its
  recorded cells in one batch and records the rest as each finishes; its
  record in the ``jobs`` namespace holds its counters and event log, and
  a service that starts runs every unsettled job it finds;
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
