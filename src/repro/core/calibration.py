"""Cost-model calibration: fitting the paper's constants to this machine.

The optimizer prices every ``(P, Q, R)`` cuboid and every fusion-plan split
with the paper's hardware constants (``Bn`` = 1 Gbps, ``Bc`` = 546 GFLOPS,
Section 6.1).  Execution, however, reports *measured* per-unit seconds that
include everything the closed-form Eq. 2 leaves out: per-stage launch
overhead, utilization loss when a stage runs fewer tasks than the cluster
has slots, per-stage (rather than per-unit) communication/computation
overlap, and kernel efficiency that varies with sparsity.  On the seed
benchmarks the result is a ~30x gap (predicted 0.031 s vs measured 0.611 s
per stage) — the search optimizes for a machine we don't run on.

This module closes that loop.  A :class:`CalibrationStore` accumulates
:class:`Observation` rows — one per executed physical-plan unit, keyed by
the unit's physical operator kind (``cfo`` / ``cuboid-mm`` / ``multi-agg``
/ ``cell`` / ...) and a sparsity bucket — and fits, per kernel key, three
effective-throughput coefficients by robust least squares::

    measured_seconds  ~=  net_est * inv_net_rate
                        + com_est * inv_com_rate
                        + overhead_seconds

``net_est`` / ``com_est`` are the planner's own Net/Com *estimates* for the
unit — the fit lives in the feature space predictions are made in, so any
systematic estimate bias folds into the rates.  ``inv_net_rate`` is seconds
per (estimated) byte moved cluster-wide (its reciprocal is the *effective*
aggregate network bandwidth ``N * Bn_eff`` for that kernel class),
``inv_com_rate`` seconds per (estimated) flop (reciprocal: effective ``N *
Bc_eff``), and ``overhead_seconds`` the fixed per-unit cost (stage launch
waves) no bandwidth term can explain.  The additive form is deliberate:
measured unit time sums per-*stage* maxima over heterogeneous stages, which
an additive model tracks far better than one whole-unit ``max`` — and it
keeps the cost monotone in each of ``P, Q, R``, so the pruned search's
bounds (:mod:`repro.core.optimizer`) stay valid under calibration.

Robustness: the fit is ordinary least squares with column equilibration, an
MAD-based outlier rejection pass (straggler iterations, GC pauses), and a
non-negativity clamp (a negative throughput is always a fitting artifact).
Everything is deterministic — same observations, same coefficients.

The store is thread-safe (the serving layer shares one across tenants),
JSON round-trips via :meth:`CalibrationStore.save` /
:meth:`CalibrationStore.load`, and never imports anything above the config
layer — engines hand it plain floats (enforced by ``scripts/check_layers.py``).
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Density at or above which a kernel's inputs count as dense.
DENSE_THRESHOLD = 0.4
#: Density below which a kernel's inputs count as (very) sparse.
SPARSE_THRESHOLD = 0.05

#: Pooled-fit pseudo bucket: all observations of a kind, any sparsity.
ANY_BUCKET = "*"

#: Mean abs relative seconds-error above which an ``"active"`` engine
#: evicts a cached plan and re-plans it with the latest coefficients.
REPLAN_THRESHOLD = 0.5

KernelKey = Tuple[str, str]


def sparsity_bucket(density: Optional[float]) -> str:
    """The calibration bucket for a kernel whose sparsest input has
    *density* (``None`` — density unknown — buckets as dense)."""
    if density is None or density >= DENSE_THRESHOLD:
        return "dense"
    if density >= SPARSE_THRESHOLD:
        return "mid"
    return "sparse"


def _finite(value: Optional[float]) -> Optional[float]:
    """*value* as a float when finite, else ``None`` (JSON-safe)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class Observation:
    """One executed unit's prediction joined with its measurement.

    ``net_bytes`` / ``flops`` are the planner's *estimated* Net/Com for the
    unit — the regressors.  Fitting against the estimates (rather than the
    measured counters) is deliberate: :meth:`KernelCalibration.predict_seconds`
    is applied at planning time, when only estimates exist, so train and
    predict must share a feature space — any systematic estimate bias is
    absorbed into the fitted rates, which is exactly what "effective
    throughput" means.  ``measured_seconds`` is the modeled execution
    seconds the simulator charged (the regression target) and
    ``predicted_seconds`` what the planner claimed (``None`` for units that
    ran no parameter search).  The unit's measured bytes, flops, wall time,
    stages and tasks are on the query's
    :class:`~repro.obs.profile.UnitProfile`.
    """

    net_bytes: float
    flops: float
    measured_seconds: float
    predicted_seconds: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "net_bytes": self.net_bytes,
            "flops": self.flops,
            "measured_seconds": self.measured_seconds,
            "predicted_seconds": _finite(self.predicted_seconds),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Observation":
        # other keys are ignored: older files also stored five measured
        # totals per row, which the fit never read
        return cls(
            net_bytes=float(doc["net_bytes"]),
            flops=float(doc["flops"]),
            measured_seconds=float(doc["measured_seconds"]),
            predicted_seconds=_finite(doc.get("predicted_seconds")),
        )


@dataclass(frozen=True)
class KernelCalibration:
    """Fitted effective-throughput coefficients for one kernel class.

    ``predict_seconds`` is the calibrated Eq. 2 replacement the
    :class:`~repro.core.cost.CostModel` prices with; the two rates are the
    inverses of the paper's aggregate cluster bandwidths.
    """

    kind: str
    bucket: str
    #: Seconds per byte of cluster-wide traffic (1 / (N * Bn_eff)).
    inv_net_rate: float
    #: Seconds per floating point operation (1 / (N * Bc_eff)).
    inv_com_rate: float
    #: Fixed seconds per unit (stage-launch waves, scheduling).
    overhead_seconds: float
    samples: int
    #: Mean abs relative residual of the fit on its own window.
    residual_error: float = 0.0
    #: Store generation this fit was produced at.
    generation: int = 0

    def predict_seconds(self, net_bytes: float, flops: float) -> float:
        """Calibrated modeled seconds for a unit moving *net_bytes* and
        computing *flops* cluster-wide."""
        return (
            net_bytes * self.inv_net_rate
            + flops * self.inv_com_rate
            + self.overhead_seconds
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "bucket": self.bucket,
            "inv_net_rate": self.inv_net_rate,
            "inv_com_rate": self.inv_com_rate,
            "overhead_seconds": self.overhead_seconds,
            "samples": self.samples,
            "residual_error": self.residual_error,
            "generation": self.generation,
        }


def _solve_nonneg(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares with non-negative coefficients (tiny active-set).

    Columns are equilibrated before solving (bytes, flops and the constant
    differ by many orders of magnitude); a negative coefficient is dropped
    (clamped to zero) and the remaining columns refit, at most once per
    column — three columns, so the loop is bounded and deterministic.
    """
    n_cols = X.shape[1]
    active = list(range(n_cols))
    coef = np.zeros(n_cols)
    while active:
        sub = X[:, active]
        scale = np.max(np.abs(sub), axis=0)
        scale[scale == 0.0] = 1.0
        solution, *_ = np.linalg.lstsq(sub / scale, y, rcond=None)
        solution = solution / scale
        negative = [i for i, value in zip(active, solution) if value < 0.0]
        if not negative:
            coef[:] = 0.0
            for i, value in zip(active, solution):
                coef[i] = value
            return coef
        active = [i for i in active if i not in negative]
    return coef


def fit_throughput(
    observations: Sequence[Observation],
) -> Tuple[float, float, float, float]:
    """Fit ``(inv_net_rate, inv_com_rate, overhead, residual_error)`` to
    *observations* by robust non-negative least squares.

    Deterministic: one OLS pass, one MAD outlier-rejection pass (keeping at
    least half the window so a bimodal window cannot empty itself), one
    refit.  ``residual_error`` is the mean abs relative error of the final
    fit over the *full* window (outliers included — honesty about how well
    the model explains what actually happened).
    """
    rows = [
        obs for obs in observations
        if math.isfinite(obs.measured_seconds) and obs.measured_seconds > 0.0
        and math.isfinite(obs.net_bytes) and math.isfinite(obs.flops)
    ]
    if not rows:
        return 0.0, 0.0, 0.0, 0.0
    X = np.array([[obs.net_bytes, obs.flops, 1.0] for obs in rows])
    y = np.array([obs.measured_seconds for obs in rows])

    coef = _solve_nonneg(X, y)
    residuals = y - X @ coef
    if len(rows) >= 4:
        median = float(np.median(residuals))
        mad = float(np.median(np.abs(residuals - median)))
        tolerance = 3.5 * 1.4826 * mad + 1e-12
        keep = np.abs(residuals - median) <= tolerance
        if keep.sum() >= max(3, len(rows) // 2) and not keep.all():
            coef = _solve_nonneg(X[keep], y[keep])

    predicted = X @ coef
    residual_error = float(np.mean(np.abs(predicted - y) / y))
    return float(coef[0]), float(coef[1]), float(coef[2]), residual_error


class CalibrationStore:
    """Accumulates per-kernel observations and serves fitted coefficients.

    One store per engine (the serving layer's tenants all execute through
    one engine, so they share it).  ``observe`` appends, ``commit`` closes
    an observation batch — bumping :attr:`generation` exactly when new data
    arrived, which is what the plan cache's error-triggered invalidation
    compares against (re-planning is pointless unless the fit could have
    moved).  Fits are computed lazily per key and cached until new
    observations dirty them.

    Thread-safe: every public method takes the store lock; fitting a
    window of <= ``window`` rows of 3 columns is microseconds, so holding
    the lock through a fit is fine even under the serving layer.
    """

    def __init__(self, window: int = 256, min_samples: int = 3):
        if window <= 0:
            raise ValueError("calibration window must be positive")
        if min_samples < 2:
            raise ValueError("calibration min_samples must be at least 2")
        self.window = window
        self.min_samples = min_samples
        self._lock = threading.RLock()
        self._observations: Dict[KernelKey, Deque[Observation]] = {}
        self._fits: Dict[KernelKey, Optional[KernelCalibration]] = {}
        self._generation = 0
        self._pending = 0

    # -- recording ---------------------------------------------------------

    def observe(
        self,
        kind: str,
        bucket: str,
        *,
        net_bytes: float,
        flops: float,
        measured_seconds: float,
        predicted_seconds: Optional[float] = None,
    ) -> bool:
        """Record one unit's measurement; returns False when the row is
        unusable (nothing measured, or non-finite garbage) — calibration
        must be able to trust every row it fits."""
        measured = _finite(measured_seconds)
        net = _finite(net_bytes)
        ops = _finite(flops)
        if measured is None or measured <= 0.0 or net is None or ops is None:
            return False
        obs = Observation(
            net_bytes=net,
            flops=ops,
            measured_seconds=measured,
            predicted_seconds=_finite(predicted_seconds),
        )
        with self._lock:
            self._window_for((kind, bucket)).append(obs)
            self._fits.pop((kind, bucket), None)
            self._fits.pop((kind, ANY_BUCKET), None)
            self._pending += 1
        return True

    def commit(self) -> int:
        """Close the current observation batch; returns the (possibly
        advanced) generation.  One engine execute = one batch."""
        with self._lock:
            if self._pending:
                self._pending = 0
                self._generation += 1
            return self._generation

    def _window_for(self, key: KernelKey) -> Deque[Observation]:
        window = self._observations.get(key)
        if window is None:
            window = deque(maxlen=self.window)
            self._observations[key] = window
        return window

    @property
    def generation(self) -> int:
        """Monotone counter advanced by each committed observation batch."""
        with self._lock:
            return self._generation

    @property
    def num_observations(self) -> int:
        with self._lock:
            return sum(len(w) for w in self._observations.values())

    # -- fitting -----------------------------------------------------------

    def coefficients(self, kind: str, bucket: str) -> Optional[KernelCalibration]:
        """The fitted coefficients for ``(kind, bucket)``.

        Falls back to the pooled kind-wide fit when the exact bucket has
        too few samples; ``None`` when the kind as a whole does (the cost
        model then prices with the paper constants — calibration never
        guesses).
        """
        with self._lock:
            exact = self._observations.get((kind, bucket))
            if exact is not None and len(exact) >= self.min_samples:
                return self._fit((kind, bucket), list(exact))
            pooled: List[Observation] = []
            for (k, _), window in self._observations.items():
                if k == kind:
                    pooled.extend(window)
            if len(pooled) >= self.min_samples:
                return self._fit((kind, ANY_BUCKET), pooled)
            return None

    def _fit(
        self, key: KernelKey, rows: List[Observation]
    ) -> Optional[KernelCalibration]:
        cached = self._fits.get(key)
        if cached is not None and cached.samples == len(rows):
            return cached
        inv_net, inv_com, overhead, residual = fit_throughput(rows)
        if inv_net == 0.0 and inv_com == 0.0 and overhead == 0.0:
            return None
        fit = KernelCalibration(
            kind=key[0],
            bucket=key[1],
            inv_net_rate=inv_net,
            inv_com_rate=inv_com,
            overhead_seconds=overhead,
            samples=len(rows),
            residual_error=residual,
            generation=self._generation,
        )
        self._fits[key] = fit
        return fit

    # -- accountability ----------------------------------------------------

    def mean_abs_error(self) -> Optional[float]:
        """Mean abs relative error of the *planner's* predictions over every
        stored observation that carries one (the headline calibration-gap
        number; shrinks as calibrated plans replace paper-constant ones)."""
        errors: List[float] = []
        with self._lock:
            for window in self._observations.values():
                for obs in window:
                    if obs.predicted_seconds is None or obs.measured_seconds <= 0:
                        continue
                    errors.append(
                        abs(obs.predicted_seconds - obs.measured_seconds)
                        / obs.measured_seconds
                    )
        if not errors:
            return None
        return sum(errors) / len(errors)

    def stats(self) -> Dict[str, object]:
        """Calibration state as one plain dict (``service.status()``)."""
        with self._lock:
            kernels: Dict[str, Dict[str, object]] = {}
            for (kind, bucket), window in sorted(self._observations.items()):
                fit = self._fit((kind, bucket), list(window)) if (
                    len(window) >= self.min_samples
                ) else None
                entry: Dict[str, object] = {"samples": len(window)}
                if fit is not None:
                    entry.update(
                        inv_net_rate=fit.inv_net_rate,
                        inv_com_rate=fit.inv_com_rate,
                        overhead_seconds=fit.overhead_seconds,
                        residual_error=fit.residual_error,
                    )
                kernels[f"{kind}/{bucket}"] = entry
            return {
                "generation": self._generation,
                "observations": sum(
                    len(w) for w in self._observations.values()
                ),
                "mean_abs_seconds_error": self.mean_abs_error(),
                "kernels": kernels,
            }

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "version": 1,
                "window": self.window,
                "min_samples": self.min_samples,
                "generation": self._generation,
                "observations": {
                    f"{kind}\t{bucket}": [obs.to_dict() for obs in window]
                    for (kind, bucket), window in sorted(
                        self._observations.items()
                    )
                },
            }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "CalibrationStore":
        store = cls(
            window=int(doc.get("window", 256)),
            min_samples=int(doc.get("min_samples", 3)),
        )
        store._generation = int(doc.get("generation", 0))
        for key, rows in doc.get("observations", {}).items():
            kind, _, bucket = key.partition("\t")
            window = store._window_for((kind, bucket))
            for row in rows:
                window.append(Observation.from_dict(row))
        return store

    def save(self, path: str) -> None:
        """Write the store (observations + settings) as strict JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, allow_nan=False)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationStore":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def merge(self, other: "CalibrationStore") -> None:
        """Fold *other*'s observations into this store (calibration files
        from several replay runs compose)."""
        with other._lock:
            snapshot = {
                key: list(window)
                for key, window in other._observations.items()
            }
        with self._lock:
            for key, rows in snapshot.items():
                window = self._window_for(key)
                window.extend(rows)
                self._fits.pop(key, None)
                self._fits.pop((key[0], ANY_BUCKET), None)
            self._generation += 1

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CalibrationStore(kernels={len(self._observations)}, "
                f"observations={self.num_observations}, "
                f"generation={self._generation})"
            )
