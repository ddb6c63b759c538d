"""Query tickets and served results: the service's future-like handles.

A :class:`QueryTicket` is resolved exactly once — by the service's
dispatcher, or synchronously on a result-cache hit at submit time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.execution import ExecutionResult
    from repro.matrix.distributed import BlockedMatrix


@dataclass(frozen=True)
class ServedResult:
    """What a finished query hands back to its tenant."""

    query_id: str
    tenant: str
    #: The underlying execution (or the cached one, on a result-cache hit).
    result: "ExecutionResult"
    #: True when the result cache answered without re-execution.
    from_cache: bool
    #: Wall-clock seconds spent queued before execution started.
    queue_seconds: float
    #: Wall-clock seconds from submission to completion.
    service_seconds: float

    def output(self, index: int = 0) -> "BlockedMatrix":
        return self.result.output(index)

    @property
    def outputs(self):
        return self.result.outputs

    @property
    def metrics(self):
        """This query's own modeled metrics delta."""
        return self.result.metrics


class QueryTicket:
    """Future-like handle for one submitted query."""

    def __init__(
        self,
        query_id: str,
        tenant: str,
        dag,
        bound: Dict[str, "BlockedMatrix"],
        cost: int,
    ):
        self.query_id = query_id
        self.tenant = tenant
        self.dag = dag
        self.bound = bound
        #: Estimated footprint in bytes (the admission currency).
        self.cost = cost
        self.enqueued_at = time.monotonic()
        self._event = threading.Event()
        self._value: Optional[ServedResult] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServedResult:
        """Block until the query finishes; re-raises its failure if any."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} did not complete within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def _resolve(self, value: ServedResult) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return (
            f"QueryTicket(id={self.query_id!r}, tenant={self.tenant!r}, "
            f"cost={self.cost}, {state})"
        )
