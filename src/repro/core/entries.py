"""Space entries exchanged between master and workers.

"Each task object is identified by a unique ID and the space in which it
resides" — here: ``(app_id, task_id)``.  Workers use a wildcard template
on ``TaskEntry`` (value-based lookup), the master collects ``ResultEntry``
objects back.

Each class's codec schema is its constructor's parameter list, in that
order (the canonical encoding order), registered when the class is
defined — see :class:`~repro.tuplespace.entry.Entry`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.tuplespace.entry import Entry

__all__ = ["TaskEntry", "ResultEntry", "DeadLetterEntry", "MasterCheckpointEntry"]


class TaskEntry(Entry):
    """One independent unit of application work.

    ``attempts`` counts how many times a worker already failed on this
    task (poison-task quarantine): a worker whose application code raises
    re-writes the task with ``attempts + 1`` instead of crashing, and
    after ``max_attempts`` the task becomes a :class:`DeadLetterEntry`.
    ``None`` in a template is, as for every field, a wildcard.

    ``trace`` carries the task's trace ID (``"<app_id>/<task_id>"``)
    end-to-end.  The master mints it unconditionally — even with tracing
    disabled — so entry bytes (and hence modelled transfer latencies)
    are identical whether or not spans are being recorded.

    ``tenant``/``priority`` identify the submitting job for the
    multi-tenant job service: admission control meters TaskEntry writes
    per tenant, the space's deficit-round-robin dispatcher shares takes
    across tenants by weight, and overload shedding drops the lowest
    ``priority`` first.  ``None`` (the default everywhere else in the
    system) keeps single-tenant deployments byte-identical to before.
    """

    def __init__(
        self,
        app_id: Optional[str] = None,
        task_id: Optional[int] = None,
        payload: Any = None,
        attempts: Optional[int] = None,
        trace: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> None:
        self.app_id = app_id
        self.task_id = task_id
        self.payload = payload
        self.attempts = attempts
        self.trace = trace
        self.tenant = tenant
        self.priority = priority


class ResultEntry(Entry):
    """The computed output for one task."""

    def __init__(
        self,
        app_id: Optional[str] = None,
        task_id: Optional[int] = None,
        payload: Any = None,
        worker: Optional[str] = None,
        compute_ms: Optional[float] = None,
        trace: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> None:
        self.app_id = app_id
        self.task_id = task_id
        self.payload = payload
        self.worker = worker
        self.compute_ms = compute_ms
        self.trace = trace
        self.tenant = tenant
        self.priority = priority


class MasterCheckpointEntry(Entry):
    """The master's periodic progress record, written into the space.

    A restarted master adopts the highest-``seq`` checkpoint and resumes:
    adopted ``results``/``dead`` are never re-aggregated (exactly-once),
    and only tasks with no trace left anywhere — not checkpointed, no
    task/result/dead-letter entry visible — are re-seeded.  Written under
    a short lease so an abandoned run's checkpoint ages out of the space
    instead of leaking.

    Routed on ``app_id``: every checkpoint of one application lives on
    one shard, so the per-period write-new + retire-old pair is a single
    batch RPC there and resume's "find the newest" is a keyed read.
    """

    def __init__(
        self,
        app_id: Optional[str] = None,
        seq: Optional[int] = None,
        results: Optional[dict[int, Any]] = None,
        dead: Optional[dict[int, str]] = None,
        by_worker: Optional[dict[str, int]] = None,
        outstanding: Optional[list[int]] = None,
        duplicates: Optional[int] = None,
        replicas: Optional[int] = None,
    ) -> None:
        self.app_id = app_id
        self.seq = seq
        self.results = results
        self.dead = dead
        self.by_worker = by_worker
        self.outstanding = outstanding
        self.duplicates = duplicates
        self.replicas = replicas

    def shard_key(self) -> Optional[str]:
        return self.app_id


class DeadLetterEntry(Entry):
    """A task given up on after ``max_attempts`` application failures.

    Deliberately *not* a :class:`TaskEntry` subclass: workers match on the
    ``TaskEntry`` type, so a quarantined task must fall outside their
    template or it would be taken and fail forever.  The master drains
    dead letters and reports them (partial-result policy) instead of
    waiting for a result that can never come.
    """

    def __init__(
        self,
        app_id: Optional[str] = None,
        task_id: Optional[int] = None,
        payload: Any = None,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        attempts: Optional[int] = None,
        trace: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.app_id = app_id
        self.task_id = task_id
        self.payload = payload
        self.error = error
        self.worker = worker
        self.attempts = attempts
        self.trace = trace
        self.tenant = tenant

