"""Sessions: a tenant's named input bindings on a shared service.

A :class:`Session` is the tenant-facing handle of a
:class:`~repro.serving.service.MatrixService`.  It owns a mutable mapping
of input name -> :class:`~repro.matrix.distributed.BlockedMatrix`; queries
submitted through the session resolve their DAG leaves against that
mapping (optionally overridden per call).  Cache correctness under
re-binding is structural, not advisory:

* binding a name to a *new* matrix changes the matrix identity in the
  result-cache key;
* mutating a bound matrix in place (``set_block``) bumps the matrix's
  ``version``, which is part of both the result-cache and slice-cache keys;

so after any re-bind the next query re-executes instead of being served a
stale cached answer.  Sessions are cheap — open one per tenant, or several
per tenant for independent binding namespaces; fair scheduling groups them
by tenant name.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.errors import SessionClosedError
from repro.matrix.distributed import BlockedMatrix

if TYPE_CHECKING:
    from repro.execution import Query
    from repro.serving.service import MatrixService, QueryTicket, ServedResult


class Session:
    """One tenant's bindings + submission sugar (created by
    :meth:`MatrixService.open_session`)."""

    def __init__(self, service: "MatrixService", tenant: str, session_id: str):
        self._service = service
        self.tenant = tenant
        self.session_id = session_id
        self._bindings: Dict[str, BlockedMatrix] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- bindings ---------------------------------------------------------

    def bind(self, name: str, matrix: BlockedMatrix) -> "Session":
        """Bind *name* to *matrix* (replacing any previous binding)."""
        with self._lock:
            self._check_open()
            self._bindings[name] = matrix
        return self

    def bind_many(self, bindings: Mapping[str, BlockedMatrix]) -> "Session":
        """Bind every ``name -> matrix`` pair of *bindings*."""
        for name, matrix in bindings.items():
            self.bind(name, matrix)
        return self

    @property
    def bindings(self) -> Dict[str, BlockedMatrix]:
        """A copy of the current bindings."""
        with self._lock:
            return dict(self._bindings)

    def resolve_inputs(
        self, extra: Optional[Mapping[str, BlockedMatrix]] = None
    ) -> Dict[str, BlockedMatrix]:
        """This session's bindings merged with per-call *extra* overrides.

        The returned dict is a point-in-time snapshot: later re-binds do
        not affect queries already submitted with it.
        """
        with self._lock:
            self._check_open()
            merged = dict(self._bindings)
        if extra:
            merged.update(extra)
        return merged

    # -- submission -------------------------------------------------------

    def submit(
        self,
        query: "Query",
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
    ) -> "QueryTicket":
        """Submit *query* asynchronously; returns a ticket to wait on."""
        return self._service.submit(self, query, inputs=inputs)

    def execute(
        self,
        query: "Query",
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
        timeout: Optional[float] = None,
    ) -> "ServedResult":
        """Submit *query* and block until its result is available."""
        return self.submit(query, inputs=inputs).result(timeout)

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session; further submits raise SessionClosedError."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._bindings.clear()
        self._service._forget_session(self)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                f"session {self.session_id} is closed"
            )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(id={self.session_id!r}, tenant={self.tenant!r}, "
            f"bindings={sorted(self._bindings)}, closed={self._closed})"
        )
