"""Fitting the sparse ReLU-network regression model.

The model is linear in a fixed dictionary: the ReLU-product
approximations of every sparse-grid basis function.  Fitting therefore
means (i) min-max scaling the covariates into the unit cube, (ii)
assembling the feature matrix of approximate basis values, and (iii)
minimising ``sum_i loss(features_i . gamma, y_i) + lambda_star/2 *
gamma.gamma``.  ``lambda_star`` equals the tuning parameter ``kappa``
(the per-sample ridge weight is ``kappa / n``).  For the quadratic loss
this is ridge regression, solved exactly; the Huber, quantile and
logistic losses are minimised with Adam.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, loss_subgradient, loss_value
from .relu_product import product_features
from .sparse_grid import SparseGridBasis, basis_size, enumerate_basis

MODEL_SCHEMA_VERSION = 1


class ConstantColumnError(ValueError):
    """A covariate column is constant and cannot be min-max scaled."""


class NonFiniteObjectiveError(RuntimeError):
    """The optimiser produced a non-finite objective or gradient."""


def hyperparams_from_n(n: int, c: int = 0) -> tuple[int, int]:
    """Schedule ``(m, R)`` from the sample size.

    ``m = max(floor(0.2 * log2 n) + c, 0)`` and
    ``R = 3 * max(floor(0.2 * log2 n), m)``; the offset ``c`` trades
    grid resolution against variance.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    base = math.floor(0.2 * math.log2(n))
    m = max(base + c, 0)
    R = 3 * max(base, m)
    return m, R


@dataclass(frozen=True)
class Scaler:
    """Per-column min-max scaler onto [0, 1] with clamping at predict time."""

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError("scaling needs a 2-d array with at least two rows")
        mins = X.min(axis=0)
        maxs = X.max(axis=0)
        constant = np.nonzero(maxs == mins)[0]
        if constant.size:
            raise ConstantColumnError(
                f"column(s) {constant.tolist()} are constant; min-max scaling is undefined"
            )
        return cls(mins=mins, maxs=maxs)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scaled = (X - self.mins) / (self.maxs - self.mins)
        return np.clip(scaled, 0.0, 1.0)


@dataclass(frozen=True)
class FeatureMap:
    """Maps unit-cube points to the vector of approximate basis values.

    Feature order follows the basis id order; each column is the
    ReLU-product tree of one id, from
    :func:`~sdrn.relu_product.product_features`, which computes subtrees
    shared between ids once.
    """

    basis: SparseGridBasis
    R: int

    def __call__(self, X01: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X01, dtype=float))
        d = self.basis.dimension
        if X.shape[1] != d:
            raise ValueError(f"points have dimension {X.shape[1]}, basis has {d}")
        return product_features(self.R, self.basis.levels, self.basis.nodes, X)


def objective(
    gamma: np.ndarray,
    Phi: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    lambda_star: float,
) -> float:
    """Penalised empirical risk ``sum_i loss(Phi_i . gamma, y_i) + lambda_star/2 |gamma|^2``."""
    gamma = np.asarray(gamma, dtype=float)
    if Phi.shape[1] != gamma.shape[0] or Phi.shape[0] != np.shape(y)[0]:
        raise ValueError(
            f"shape mismatch: Phi {Phi.shape}, gamma {gamma.shape}, y {np.shape(y)}"
        )
    if lambda_star < 0:
        raise ValueError("lambda_star must be nonnegative")
    total = float(np.sum(loss_value(loss, Phi @ gamma, y)))
    return total + 0.5 * lambda_star * float(gamma @ gamma)


def objective_gradient(
    gamma: np.ndarray,
    Phi: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    lambda_star: float,
) -> np.ndarray:
    return Phi.T @ loss_subgradient(loss, Phi @ gamma, y) + lambda_star * gamma


# Adam step size, moment decay rates and denominator guard
ADAM_ALPHA = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Everything the fitter needs besides the data.

    ``kappa`` is the ridge tuning parameter (``lambda = kappa / n``);
    ``c_offset`` shifts the sample-size schedule for ``m``.  The
    quadratic loss is solved exactly; ``epochs``, ``tol`` and
    ``track_objective`` apply only to the full-batch Adam fit of the
    Huber, quantile and logistic losses, which stops at ``epochs`` or
    when the sup-norm of the parameter update falls below ``tol``.
    """

    loss: LossSpec
    kappa: float = 1.0
    c_offset: int = 0
    epochs: int = 5000
    tol: float = 1e-8
    track_objective: bool = False

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")


@dataclass
class FitDiagnostics:
    final_objective: float
    epochs_run: int
    converged: bool
    sup_norm: float = float("nan")
    # max |y - Phi gamma| on the training rows; not serialised
    max_residual: float = float("nan")
    objective_trace: list[float] = field(default_factory=list)


def _ridge_solve(Phi: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """The minimiser of ``|y - Phi gamma|^2 + kappa/2 |gamma|^2``.

    For ``kappa > 0`` it solves ``(2 Phi'Phi + kappa I) gamma = 2 Phi'y``
    by Cholesky on the smaller Gram matrix: the primal one when
    ``p <= n``, else the dual ``(2 Phi Phi' + kappa I) alpha = 2 y`` with
    ``gamma = Phi' alpha``.  For ``kappa = 0`` it returns the minimum-norm
    least-squares solution, the ``kappa -> 0`` limit.
    """
    if kappa == 0:
        return np.linalg.lstsq(Phi, y, rcond=None)[0]
    from scipy.linalg import cho_factor, cho_solve

    n, p = Phi.shape
    dual = p > n
    gram = Phi @ Phi.T if dual else Phi.T @ Phi
    gram *= 2.0
    gram.flat[:: gram.shape[0] + 1] += kappa
    # the transpose of the symmetric C-ordered Gram is Fortran-ordered, so
    # LAPACK factors it in place
    factor = cho_factor(gram.T, overwrite_a=True, check_finite=False)
    if dual:
        return Phi.T @ cho_solve(factor, 2.0 * y, check_finite=False)
    return cho_solve(factor, 2.0 * (Phi.T @ y), check_finite=False)


def adam_fit(Phi: np.ndarray, y: np.ndarray, config: FitConfig) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimise the penalised empirical risk from gamma = 0.

    The quadratic loss is minimised exactly by :func:`_ridge_solve`
    (``epochs_run`` 0, ``converged`` True, no objective trace); the Adam
    settings of ``config`` are not used for it.  The other losses run
    full-batch Adam, one gradient of the whole objective per epoch.
    Deterministic given (data, config).
    """
    if config.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {config.epochs}")
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    p = Phi.shape[1]
    lambda_star = config.kappa
    if config.loss.kind == "quadratic":
        try:
            gamma = _ridge_solve(Phi, y, lambda_star)
        except np.linalg.LinAlgError as exc:
            # for finite data the factorisation and the least-squares SVD succeed
            raise NonFiniteObjectiveError(f"exact ridge solve failed: {exc}") from exc
        final = objective(gamma, Phi, y, config.loss, lambda_star)
        if not (np.all(np.isfinite(gamma)) and np.isfinite(final)):
            raise NonFiniteObjectiveError(f"non-finite objective {final!r} of the exact ridge solve")
        return gamma, FitDiagnostics(final_objective=final, epochs_run=0, converged=True)
    gamma = np.zeros(p)
    m = np.zeros(p)  # first and second moment accumulators
    v = np.zeros(p)
    trace: list[float] = []

    converged = False
    epochs_run = 0
    for t in range(1, config.epochs + 1):
        epochs_run = t
        grad = objective_gradient(gamma, Phi, y, config.loss, lambda_star)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteObjectiveError(
                f"non-finite gradient at epoch {t}; "
                f"objective={objective(gamma, Phi, y, config.loss, lambda_star)!r}"
            )
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        update = ADAM_ALPHA * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        gamma = gamma - update
        sup_update = float(np.max(np.abs(update))) if p else 0.0
        if config.track_objective:
            trace.append(objective(gamma, Phi, y, config.loss, lambda_star))
        if sup_update <= config.tol:
            converged = True
            break

    final = objective(gamma, Phi, y, config.loss, lambda_star)
    if not np.isfinite(final):
        raise NonFiniteObjectiveError(f"non-finite objective {final!r} after {epochs_run} epochs")
    return gamma, FitDiagnostics(
        final_objective=final,
        epochs_run=epochs_run,
        converged=converged,
        objective_trace=trace,
    )


@dataclass
class SdrnModel:
    """A fitted model: coefficients plus everything needed to predict."""

    gamma: np.ndarray
    d: int
    m: int
    R: int
    loss: LossSpec
    kappa: float
    scaler: Scaler
    column_names: tuple[str, ...] | None = None
    diagnostics: FitDiagnostics | None = None
    _fmap: FeatureMap | None = None

    def feature_map(self) -> FeatureMap:
        if self._fmap is None:
            self._fmap = FeatureMap(basis=enumerate_basis(self.d, self.m), R=self.R)
        return self._fmap

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Scores ``features(x) . gamma`` for raw (unscaled) points."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} covariates, got {X.shape[1]}")
        Phi = self.feature_map()(self.scaler.transform(X))
        return Phi @ self.gamma

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        if self.loss.kind != "logistic":
            raise ValueError("probabilities are only defined for the logistic loss")
        return expit(self.predict(X))

    def predict_class(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Class labels; probability >= threshold maps to 1 (ties go to 1)."""
        return (self.predict_proba(X) >= threshold).astype(int)

    def to_json(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "d": self.d,
            "m": self.m,
            "R": self.R,
            "loss": {"kind": self.loss.kind, "delta": self.loss.delta, "tau": self.loss.tau},
            "kappa": self.kappa,
            "scaler": {"min": self.scaler.mins.tolist(), "max": self.scaler.maxs.tolist()},
            "columns": list(self.column_names) if self.column_names else None,
            "gamma": self.gamma.tolist(),
            "diagnostics": {
                "final_objective": self.diagnostics.final_objective,
                "epochs_run": self.diagnostics.epochs_run,
                "converged": self.diagnostics.converged,
                "sup_norm": self.diagnostics.sup_norm,
            }
            if self.diagnostics
            else None,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SdrnModel":
        version = doc.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model schema version {version!r}")
        loss = LossSpec(
            kind=doc["loss"]["kind"], delta=doc["loss"]["delta"], tau=doc["loss"]["tau"]
        )
        diag = None
        if doc.get("diagnostics"):
            diag = FitDiagnostics(
                final_objective=doc["diagnostics"]["final_objective"],
                epochs_run=doc["diagnostics"]["epochs_run"],
                converged=doc["diagnostics"]["converged"],
                sup_norm=doc["diagnostics"]["sup_norm"],
            )
        d, m, R = doc["d"], doc["m"], doc["R"]
        if m < 0 or R < 1:
            raise ValueError(f"need m >= 0 and R >= 1, got m={m!r}, R={R!r}")
        gamma = np.array(doc["gamma"], dtype=float)
        mins = np.array(doc["scaler"]["min"], dtype=float)
        maxs = np.array(doc["scaler"]["max"], dtype=float)
        columns = tuple(doc["columns"]) if doc.get("columns") else None
        size = basis_size(d, m)
        if gamma.shape != (size,):
            raise ValueError(f"gamma has {gamma.size} entries, the d={d}, m={m} basis has {size}")
        if mins.shape != (d,) or maxs.shape != (d,) or (columns and len(columns) != d):
            raise ValueError(f"scaler and columns must have d={d} entries")
        if not all(np.all(np.isfinite(a)) for a in (gamma, mins, maxs)):
            raise ValueError("gamma and scaler values must be finite")
        return cls(
            gamma=gamma,
            d=d,
            m=m,
            R=R,
            loss=loss,
            kappa=doc["kappa"],
            scaler=Scaler(mins=mins, maxs=maxs),
            column_names=columns,
            diagnostics=diag,
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SdrnModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def fit_sdrn(
    X: np.ndarray,
    y: np.ndarray,
    config: FitConfig,
    m: int | None = None,
    R: int | None = None,
    column_names=None,
) -> SdrnModel:
    """Scale, featurise and fit; ``m``/``R`` override the n-schedule."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    m_sched, R_sched = hyperparams_from_n(n, config.c_offset)
    m = m_sched if m is None else m
    R = R_sched if R is None else R
    scaler = Scaler.fit(X)
    fmap = FeatureMap(basis=enumerate_basis(X.shape[1], m), R=R)
    Phi = fmap(scaler.transform(X))
    gamma, diag = adam_fit(Phi, y, config)
    train_scores = Phi @ gamma
    diag.sup_norm = float(np.max(np.abs(train_scores))) if n else float("nan")
    diag.max_residual = float(np.max(np.abs(train_scores - y))) if n else float("nan")
    model = SdrnModel(
        gamma=gamma,
        d=X.shape[1],
        m=m,
        R=R,
        loss=config.loss,
        kappa=config.kappa,
        scaler=scaler,
        column_names=tuple(column_names) if column_names else None,
        diagnostics=diag,
    )
    model._fmap = fmap
    return model
