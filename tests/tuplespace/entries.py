"""Entry classes shared across tuple-space tests."""

from __future__ import annotations

from typing import Any, Optional

from repro.tuplespace import Entry


class TaskEntry(Entry):
    def __init__(self, app: Optional[str] = None, task_id: Optional[int] = None,
                 payload: Any = None) -> None:
        self.app = app
        self.task_id = task_id
        self.payload = payload


class ResultEntry(Entry):
    def __init__(self, app: Optional[str] = None, task_id: Optional[int] = None,
                 value: Any = None) -> None:
        self.app = app
        self.task_id = task_id
        self.value = value


class PriorityTask(TaskEntry):
    """Subclass used to test polymorphic matching."""

    def __init__(self, app: Optional[str] = None, task_id: Optional[int] = None,
                 payload: Any = None, priority: Optional[int] = None) -> None:
        super().__init__(app, task_id, payload)
        self.priority = priority

