"""Outside-in tracing for the ledger's traced pass.

The benchmark owns every span: nothing in ``src/`` knows it is being
measured.  :func:`install` wraps the public entry points of each layer *where
callers look them up* — a function imported with ``from m import f`` lives in
every importing module's namespace, so all ``repro.*`` modules holding the
original object are patched; methods are patched on their class.  A hook
whose target no longer exists is skipped and reported by name
(``trace.missing_hooks``), so a later refactor is never blocked by the
benchmark it may not edit.

Spans nest through a per-thread stack.  A span's *self* time is its duration
minus the time its child spans cover, so the self times of one op's spans sum
to the op's root span exactly.  The serving layer executes a query on a
dispatcher thread while the client blocks: ``Session.execute`` publishes its
frame under the query object's identity and the inner ``Engine.execute``
adopts it as parent, which keeps one tree (and one op id) per client op.

Calls made outside an op (warm-up, correctness checks) are not recorded.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# frame layout (a list, for speed): name, op id, span id, start, child
# seconds, layer, whether no enclosing span on this thread is of the same layer
_NAME, _OP, _ID, _START, _CHILD, _LAYER, _OUTER = range(7)


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``module.attr`` (``attr`` may be ``Class.method``)."""

    layer: str
    module: str
    attr: str
    #: ``"span"`` records a span per call; ``"tally"`` only accumulates calls
    #: and seconds per op (hot leaf calls: 100k cost evaluations per plan);
    #: ``"count"`` counts calls without reading the clock (constructors).
    kind: str = "span"
    #: Positional index of the argument whose identity links a call made on
    #: another thread to the client span that is waiting for it.
    publish: Optional[int] = None
    adopt: Optional[int] = None
    #: ``SliceCache.get`` only: when the call bumped the cache's ``misses``,
    #: tally the returned slab's bytes as ``slice_cache.bytes_materialized``.
    miss_bytes: bool = False


HOOKS: Tuple[Hook, ...] = (
    Hook("execution", "repro.execution", "Engine.execute", adopt=1),
    Hook("execution", "repro.execution", "Engine.explain"),
    Hook("lang", "repro.lang.parser", "parse_expression"),
    Hook("lang", "repro.lang.rewrites", "simplify_dag"),
    Hook("core.plan_cache", "repro.core.plan_cache", "dag_fingerprint"),
    Hook("core.plan_cache", "repro.core.plan_cache", "PlanCache.get"),
    Hook("core.cfg", "repro.core.cfg", "generate_fusion_plan"),
    Hook("core.optimizer", "repro.core.optimizer", "optimize_parameters"),
    Hook("core.optimizer", "repro.core.cost", "CostModel.raw_seconds", "tally"),
    Hook("core.physical", "repro.core.physical", "lower_plan"),
    Hook("core.physical", "repro.core.physical", "run_physical_plan"),
    Hook("core.physical", "repro.core.physical", "execute_unit"),
    Hook("core.passes", "repro.core.passes", "run_graph_passes"),
    Hook("core.cfo", "repro.core.cfo", "CuboidFusedOperator.execute"),
    Hook("core.fused_eval", "repro.core.fused_eval", "evaluate_slice"),
    Hook("core.fused_eval", "repro.core.fused_eval", "evaluate_masked_slice"),
    Hook("core.fused_eval", "repro.core.fused_eval", "masked_product"),
    Hook("core.fused_eval", "repro.core.fused_eval", "finish_masked"),
    Hook("cluster", "repro.cluster.slice_cache", "SliceCache.get",
         miss_bytes=True),
    Hook("cluster", "repro.cluster.executor", "Stage.close"),
    Hook("matrix", "repro.matrix.distributed", "BlockedMatrix.block_slice"),
    Hook("matrix", "repro.matrix.distributed", "BlockedMatrix.to_scipy"),
    Hook("matrix", "repro.matrix.distributed", "BlockedMatrix.to_numpy"),
    Hook("matrix", "repro.matrix.distributed", "BlockedMatrix.transpose"),
    Hook("blocks", "repro.blocks.kernels", "matmul", "tally"),
    Hook("blocks", "repro.blocks.kernels", "sddmm", "tally"),
    Hook("blocks", "repro.blocks.kernels", "binary", "tally"),
    Hook("blocks", "repro.blocks.kernels", "unary", "tally"),
    Hook("blocks", "repro.blocks.kernels", "aggregate", "tally"),
    Hook("blocks", "repro.blocks.kernels", "aggregate_combine", "tally"),
    Hook("blocks", "repro.blocks.block", "Block.__init__", "count"),
    Hook("serving", "repro.serving.session", "Session.bind_many"),
    Hook("serving", "repro.serving.session", "Session.execute", publish=1),
)

#: Layer of the root span the harness opens around each op; its self time is
#: the harness's own glue (building the query, picking the next batch).
HARNESS_LAYER = "harness"
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([hook.layer for hook in HOOKS] + [HARNESS_LAYER])
)


class Tracer:
    """In-memory span + count recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        #: (span id, parent id, op id, name, start, end) — ``list.append`` is
        #: atomic under the GIL, so threads share the list without a lock.
        self.spans: List[tuple] = []
        #: op id -> name -> [calls, seconds, self seconds]
        self.ops: Dict[int, Dict[str, List[float]]] = {}
        #: op id -> layer -> [inclusive seconds, self seconds]; inclusive
        #: counts a layer's outermost spans only, so nested same-layer calls
        #: (evaluate_masked_slice -> masked_product) are not counted twice
        self.layers: Dict[int, Dict[str, List[float]]] = {}
        #: frames published for adoption by another thread, by object id
        self._published: Dict[int, list] = {}
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = {}
        return stack

    def _tally(self, op: int, name: str) -> List[float]:
        per_op = self.ops[op]
        cell = per_op.get(name)
        if cell is None:
            cell = per_op[name] = [0, 0.0, 0.0]
        return cell

    def _open(self, name: str, layer: str, op: int, stack: list) -> list:
        depth = self._local.depth
        nested = depth.get(layer, 0)
        depth[layer] = nested + 1
        frame = [name, op, next(self._ids), 0.0, 0.0, layer, not nested]
        stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def _close(self, frame: list, parent: Optional[list], stack: list,
               record_span: bool) -> None:
        end = time.perf_counter()
        stack.pop()
        layer = frame[_LAYER]
        self._local.depth[layer] -= 1
        seconds = end - frame[_START]
        self_seconds = seconds - frame[_CHILD]
        cell = self._tally(frame[_OP], frame[_NAME])
        cell[0] += 1
        cell[1] += seconds
        cell[2] += self_seconds
        per_layer = self.layers[frame[_OP]]
        totals = per_layer.get(layer)
        if totals is None:
            totals = per_layer[layer] = [0.0, 0.0]
        if frame[_OUTER]:
            totals[0] += seconds
        totals[1] += self_seconds
        if parent is not None:
            parent[_CHILD] += seconds
        if record_span:
            self.spans.append((
                frame[_ID], parent[_ID] if parent is not None else 0,
                frame[_OP], frame[_NAME], frame[_START], end,
            ))

    def op(self, op_id: int) -> "_OpScope":
        """Root span of one benchmark op on the calling thread."""
        return _OpScope(self, op_id)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        name, layer, tracer = hook.attr, hook.layer, self

        if hook.kind == "count":
            def counted(*args, **kwargs):
                stack = getattr(tracer._local, "stack", None)
                if stack:
                    tracer._tally(stack[-1][_OP], name)[0] += 1
                return original(*args, **kwargs)
            return counted

        record_span = hook.kind == "span"
        publish, adopt = hook.publish, hook.adopt
        miss_bytes = hook.miss_bytes

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif adopt is not None and len(args) > adopt:
                parent = tracer._published.get(id(args[adopt]))
                if parent is None:
                    return original(*args, **kwargs)
            else:
                return original(*args, **kwargs)
            frame = tracer._open(name, layer, parent[_OP], stack)
            if publish is not None and len(args) > publish:
                tracer._published[id(args[publish])] = frame
            misses = args[0].misses if miss_bytes else 0
            try:
                result = original(*args, **kwargs)
            finally:
                if publish is not None and len(args) > publish:
                    tracer._published.pop(id(args[publish]), None)
                tracer._close(frame, parent, stack, record_span)
            if miss_bytes and args[0].misses != misses:
                # a miss materialized a fresh slab: count the copied bytes
                cell = tracer._tally(frame[_OP], "slice_cache.bytes_materialized")
                cell[0] += result.nbytes
            return result

        return traced

    def install(self, hooks: Tuple[Hook, ...] = HOOKS) -> None:
        """Patch every hook target that still exists; list the rest."""
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
                owner: object = module
                *path, leaf = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(hook.attr)
                continue
            wrapper = self._wrap(hook, original)
            if path:
                self._patch(owner, leaf, original, wrapper)
                continue
            # a plain function: patch every repro module that imported it
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapper)

    def _patch(self, owner: object, key: str, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


class _OpScope:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.ops[self.op_id] = {}
        tracer.layers[self.op_id] = {}
        self.stack = tracer._stack()
        self.frame = tracer._open("op", HARNESS_LAYER, self.op_id, self.stack)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, None, self.stack, True)


class NullTracer:
    """The untraced pass: an op scope that does nothing."""

    _scope = contextlib.nullcontext()

    def op(self, op_id: int):
        return self._scope
