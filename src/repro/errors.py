"""Exception hierarchy for the FuseME reproduction.

Every error raised by the engine derives from :class:`ReproError`, so callers
can catch a single base class.  The distributed substrate raises
:class:`TaskOutOfMemoryError` when a task's memory ledger exceeds the
configured budget, mirroring the O.O.M. failures the paper reports for BFO and
MatFast, and :class:`SimulatedTimeoutError` mirroring the paper's 12-hour
``T.O.`` entries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MatrixShapeError(ReproError, ValueError):
    """Two matrices have incompatible shapes for the requested operator."""


class BlockLayoutError(ReproError, ValueError):
    """Two blocked matrices have incompatible block grids or block sizes."""


class SparsityError(ReproError, ValueError):
    """An operation required a sparse (or dense) block and got the other."""


class PlanError(ReproError, RuntimeError):
    """A fusion plan is malformed (cycle, dangling edge, missing input)."""


class OptimizerError(ReproError, RuntimeError):
    """The (P, Q, R) optimizer could not find feasible parameters."""


class ExecutionError(ReproError, RuntimeError):
    """A distributed operator failed while executing on the cluster."""


class TaskOutOfMemoryError(ExecutionError):
    """A simulated task exceeded the per-task memory budget ``theta_t``.

    Attributes
    ----------
    task_id:
        Identifier of the failing task.
    used_bytes:
        Bytes the task attempted to hold.
    budget_bytes:
        Configured per-task budget.
    """

    def __init__(self, task_id: str, used_bytes: int, budget_bytes: int):
        self.task_id = task_id
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"task {task_id} out of memory: needs {used_bytes} bytes, "
            f"budget is {budget_bytes} bytes"
        )

    # exceptions with non-message constructor arguments must spell out how
    # to rebuild themselves, or a pickle/copy round trip (multiprocessing,
    # concurrent.futures, copy.deepcopy) fails to reconstruct them
    def __reduce__(self):
        return (type(self), (self.task_id, self.used_bytes, self.budget_bytes))


class SimulatedTimeoutError(ExecutionError):
    """Modeled elapsed time exceeded the configured timeout (paper: 12 h)."""

    def __init__(self, elapsed_seconds: float, timeout_seconds: float):
        self.elapsed_seconds = elapsed_seconds
        self.timeout_seconds = timeout_seconds
        super().__init__(
            f"simulated time {elapsed_seconds:.1f}s exceeded the "
            f"timeout of {timeout_seconds:.1f}s"
        )

    def __reduce__(self):
        return (type(self), (self.elapsed_seconds, self.timeout_seconds))


class DataError(ReproError, ValueError):
    """A dataset file or generator received invalid parameters."""


class ServingError(ReproError, RuntimeError):
    """Base class for errors raised by the serving layer (repro.serving)."""


class ServiceOverloadedError(ServingError):
    """The service shed a query instead of queueing it unboundedly.

    Raised at submit time when the admission queue is full, when a single
    query's estimated footprint can never fit the service memory budget, or
    when the service is shutting down with queries still queued.
    """


class QueryTimeoutError(ServingError):
    """A queued query waited longer than the configured queue timeout.

    Attributes
    ----------
    query_id:
        Identifier of the expired query.
    waited_seconds:
        Wall-clock seconds the query spent queued.
    timeout_seconds:
        The configured queue timeout it exceeded.
    """

    def __init__(self, query_id: str, waited_seconds: float, timeout_seconds: float):
        self.query_id = query_id
        self.waited_seconds = waited_seconds
        self.timeout_seconds = timeout_seconds
        super().__init__(
            f"query {query_id} waited {waited_seconds:.3f}s in the admission "
            f"queue, exceeding the {timeout_seconds:.3f}s timeout"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.query_id, self.waited_seconds, self.timeout_seconds),
        )


class SessionClosedError(ServingError):
    """A query was submitted through a session that has been closed."""
