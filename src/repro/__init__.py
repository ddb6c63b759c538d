"""FuseME reproduction: a distributed matrix computation engine built on
cuboid-based fused operators (CFO) and cuboid-based fusion plan generation
(CFG), after Han, Lee and Kim, SIGMOD 2022.

Quickstart::

    from repro import FuseMEEngine, matrix_input, log, rand_sparse, rand_dense

    X = rand_sparse(4000, 3000, density=0.01, block_size=100)
    U = rand_dense(4000, 200, block_size=100)
    V = rand_dense(3000, 200, block_size=100)

    Xe = matrix_input("X", 4000, 3000, 100, density=0.01)
    Ue = matrix_input("U", 4000, 200, 100)
    Ve = matrix_input("V", 3000, 200, 100)

    engine = FuseMEEngine()
    result = engine.execute(Xe * log(Ue @ Ve.T + 1e-8),
                            {"X": X, "U": U, "V": V})
    print(result.metrics.summary())
"""

from repro.config import ClusterConfig, EngineConfig, ServiceConfig, paper_cluster
from repro.core import FuseMEEngine
from repro.baselines import (
    DistMELikeEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.execution import Engine, ExecutionResult
from repro.lang import (
    Expr,
    parse_expression,
    colsum,
    exp,
    log,
    matrix_input,
    max_of,
    min_of,
    nnz_mask,
    rowsum,
    sigmoid,
    sq,
    sqrt,
    sum_of,
)
from repro.matrix import (
    BlockedMatrix,
    MatrixMeta,
    from_numpy,
    from_scipy,
    identity,
    ones,
    rand_dense,
    rand_sparse,
    zeros,
)
from repro.obs import QueryProfile, UnitProfile
from repro.serving import MatrixService, ServedResult, Session

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClusterConfig",
    "EngineConfig",
    "ServiceConfig",
    "MatrixService",
    "ServedResult",
    "Session",
    "QueryProfile",
    "UnitProfile",
    "paper_cluster",
    "FuseMEEngine",
    "SystemDSLikeEngine",
    "MatFastLikeEngine",
    "DistMELikeEngine",
    "LocalXLAEngine",
    "Engine",
    "ExecutionResult",
    "Expr",
    "parse_expression",
    "matrix_input",
    "log",
    "exp",
    "sigmoid",
    "sq",
    "sqrt",
    "nnz_mask",
    "sum_of",
    "rowsum",
    "colsum",
    "min_of",
    "max_of",
    "BlockedMatrix",
    "MatrixMeta",
    "from_numpy",
    "from_scipy",
    "identity",
    "ones",
    "zeros",
    "rand_dense",
    "rand_sparse",
]
