"""Async counting service: job queue, result cache, dataset registry.

This package turns the one-shot counting library into a long-lived
deployable system.  A :class:`CountingService` owns named, pre-converted
datasets (each with a warm :class:`~repro.engine.CountingEngine` whose
plan caches and worker pools persist across requests), runs
every execution through a bounded :class:`~repro.service.jobs.JobQueue`
(worker threads + 429 admission control), and serves repeats from a
fingerprint-keyed :class:`~repro.service.cache.ResultCache` in
microseconds::

    from repro.service import CountingService

    service = CountingService()
    service.registry.load("condmat")
    result, cached = service.count("condmat", "glet1", trials=5, seed=1)
    job = service.submit("condmat", "wiki", trials=5)   # async: poll job.id

Over the wire (``repro-serve`` / ``python -m repro.service``) the same
surface is JSON-over-HTTP — see :mod:`repro.service.httpd` for the
endpoints and :mod:`repro.service.client` for the Python client.
"""

from .cache import ResultCache
from .jobs import Job, JobQueue, ServiceSaturated, UnknownJobError
from .registry import DatasetEntry, DatasetRegistry, UnknownDatasetError
from .service import (
    BadRequestError,
    CountingService,
    ServiceTimeout,
    UnknownQueryError,
)

__all__ = [
    "CountingService",
    "DatasetRegistry",
    "DatasetEntry",
    "ResultCache",
    "JobQueue",
    "Job",
    "ServiceSaturated",
    "ServiceTimeout",
    "BadRequestError",
    "UnknownDatasetError",
    "UnknownQueryError",
    "UnknownJobError",
]
