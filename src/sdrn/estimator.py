"""Fitting the sparse ReLU-network regression model.

The model is linear in a fixed dictionary: the ReLU-product
approximations of every sparse-grid basis function.  Fitting therefore
means (i) min-max scaling the covariates into the unit cube, (ii)
assembling the feature matrix of approximate basis values, and (iii)
minimising ``sum_i loss(features_i . gamma, y_i) + lambda_star/2 *
gamma.gamma``.  ``lambda_star`` equals the tuning parameter ``kappa``
(the per-sample ridge weight is ``kappa / n``).  Every fit is exact or
certified: the quadratic loss is ridge regression, solved in closed
form; the Huber and logistic losses run Newton's method and the
quantile loss a primal-dual interior-point method on its dual, each
stopped by a bound on the distance to the minimum.  The solvers use
``numpy.linalg`` only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .losses import LossInputError, LossSpec, loss_curvature, loss_subgradient, loss_value, sigmoid
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


@dataclass(frozen=True)
class FitConfig:
    """Everything the fitter needs besides the data.

    ``kappa`` is the ridge tuning parameter (``lambda = kappa / n``);
    ``c_offset`` shifts the sample-size schedule for ``m``.  The
    quadratic loss is solved exactly.  The Huber and logistic losses run
    Newton's method and the quantile loss an interior-point method;
    ``epochs`` caps their iterations and ``tol`` is the relative target
    for their optimality certificate (see :func:`adam_fit`).  These
    losses need ``kappa > 0``: without the ridge term the risk is not
    strongly convex, so there is no certificate and maybe no minimiser.
    """

    loss: LossSpec
    kappa: float = 1.0
    c_offset: int = 0
    epochs: int = 5000
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.kappa == 0 and self.loss.kind != "quadratic":
            raise LossInputError(
                f"the {self.loss.kind} loss needs kappa > 0: without the ridge term "
                "the fit has no optimality certificate"
            )


@dataclass
class FitDiagnostics:
    final_objective: float
    # solver iterations: Newton or interior-point steps, 0 for the exact
    # quadratic solve
    epochs_run: int
    converged: bool
    sup_norm: float = float("nan")
    # max |y - Phi gamma| on the training rows; not serialised
    max_residual: float = float("nan")
    # upper bound on (objective - minimum) / objective; not serialised
    certificate: float = float("nan")


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


# Armijo sufficient-decrease fraction, and the step length below which
# a Newton line search or an interior-point step has stalled
ARMIJO = 1e-4
MIN_STEP = 1e-12
# iterations without a smaller objective (Newton) or gap (interior point)
# after which a method stops: its target is below what rounding allows
PATIENCE = 5


def _newton(
    Phi: np.ndarray, y: np.ndarray, loss: LossSpec, kappa: float, max_iter: int, tol: float
) -> tuple[np.ndarray, int]:
    """Newton's method with Armijo backtracking from ``gamma = 0``, for
    the Huber and logistic risks.

    The Hessian is ``Phi' W Phi + kappa I``, with ``W`` the loss
    curvature at the current scores.  When ``p <= n`` each step solves
    that p x p system.  When ``p > n`` the iterate stays in the row
    space, ``gamma = Phi' beta``, so the gradient is ``Phi' u`` with
    ``u = loss' + kappa beta`` and the step is ``Phi' v`` with
    ``(W K + kappa I) v = u``, solved through the symmetric
    ``W^1/2 K W^1/2 + kappa I`` on ``K = Phi Phi'``, formed once.  It
    stops when ``|gradient|^2 / (2 kappa)``, which bounds the distance to
    the minimum by kappa-strong convexity, is at most ``tol`` times the
    objective, after ``max_iter`` steps, after ``PATIENCE`` steps that do
    not lower the objective, or when the line search stalls.  Returns the
    iterate and the number of steps taken.
    """
    n, p = Phi.shape
    kernel = p > n
    K = Phi @ Phi.T if kernel else None
    beta = np.zeros(n)
    gamma = np.zeros(p)
    f = np.zeros(n)
    value = float(np.sum(loss_value(loss, f, y)))
    stale = 0
    for it in count():
        slope_f = loss_subgradient(loss, f, y)
        grad = Phi.T @ slope_f + kappa * gamma
        if float(grad @ grad) / (2.0 * kappa) <= tol * value or it == max_iter or stale > PATIENCE:
            return gamma, it
        root = np.sqrt(loss_curvature(loss, f, y))
        try:
            if kernel:
                u = slope_f + kappa * beta
                M = root[:, None] * K * root
                M.flat[:: n + 1] += kappa
                v = (u - root * np.linalg.solve(M, root * (K @ u))) / kappa
                step, dir_f = Phi.T @ v, K @ v
            else:
                rows = root > 0
                A = Phi[rows] * root[rows, None]
                H = A.T @ A
                H.flat[:: p + 1] += kappa
                step = np.linalg.solve(H, grad)
                dir_f = Phi @ step
        except np.linalg.LinAlgError:  # kappa too small to keep the Hessian regular
            return gamma, it
        slope = float(grad @ step)
        t = 1.0
        while True:
            cand, cand_f = gamma - t * step, f - t * dir_f
            cand_value = float(np.sum(loss_value(loss, cand_f, y))) + 0.5 * kappa * float(cand @ cand)
            if cand_value <= value - ARMIJO * t * slope:  # False for NaN
                break
            t *= 0.5
            if t < MIN_STEP:
                return gamma, it
        stale = 0 if cand_value < value else stale + 1
        gamma, f, value = cand, cand_f, cand_value
        if kernel:
            beta = beta - t * v


# fraction of the distance to the boundary of the positive orthant that
# an interior-point step covers
TO_BOUNDARY = 0.995
# relative duality gap below which the interior-point iterate is close
# enough to the optimum to try an exact finish on its active bounds
POLISH_GAP = 1e-2
# cap on the active-set steps of one exact finish
FINISH_STEPS = 2


def _max_step(*pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """The largest ``xi`` with ``x + xi dx >= 0`` for every pair ``(x, dx)``."""
    xi = np.inf
    for x, dx in pairs:
        falling = dx < 0
        if np.any(falling):
            xi = min(xi, float(np.min(-x[falling] / dx[falling])))
    return xi


def _quantile_ipm(
    Phi: np.ndarray, y: np.ndarray, loss: LossSpec, kappa: float, max_iter: int, tol: float
) -> tuple[np.ndarray, int, float]:
    """Primal-dual interior-point method (Mehrotra predictor-corrector)
    on the Fenchel dual of the quantile risk,

        max  alpha' y - |Phi' alpha|^2 / (2 kappa)  over  tau - 1 <= alpha <= tau,

    whose maximiser gives the minimiser ``gamma = Phi' alpha / kappa``.

    The slacks ``s = alpha - (tau - 1)`` and ``t = tau - alpha`` are
    iterates of their own, because recomputing them from ``alpha``
    rounds to zero at the bounds; ``z`` and ``w`` are their multipliers.
    Each Newton system ``(Phi Phi' / kappa + D) dalpha = b``, ``D``
    diagonal, is solved by Woodbury through the p x p
    ``kappa I + Phi' D^-1 Phi`` when ``p < n``, else directly.  For a
    feasible ``alpha`` the duality gap ``P(gamma) - D(alpha)`` is
    ``sum_i rho(r_i) - alpha_i r_i`` over the residuals ``r``, a sum of
    nonnegative terms; it certifies ``gamma``.

    The Newton systems lose accuracy as ``D`` spreads over many orders
    of magnitude, so once the gap is below ``POLISH_GAP`` each iteration
    also tries an exact finish from the bounds the iterate holds
    (``s < z`` or ``t < w``), and the candidate with the smallest gap is
    kept.  Stops when that gap is at most ``tol`` times the objective,
    after ``max_iter`` iterations, after ``PATIENCE`` iterations without
    a smaller gap, or when a step stalls.  Returns that candidate's
    ``gamma``, the iterations and its relative gap.
    """
    n, p = Phi.shape
    tau = loss.tau
    lo, hi = tau - 1.0, tau

    def certify(alpha):
        a = np.clip(alpha, lo, hi)
        gamma = Phi.T @ a / kappa
        f = Phi @ gamma
        r = y - f
        gap = float(np.sum(np.maximum(r, 0.0) * (hi - a) + np.maximum(-r, 0.0) * (a - lo)))
        value = float(np.sum(loss_value(loss, f, y))) + 0.5 * kappa * float(gamma @ gamma)
        if not np.isfinite(gap + value):
            return gamma, r, np.inf
        return gamma, r, gap / value if value > 0 else 0.0

    def finish(free, upper):
        """Active-set steps from a partition of the rows into free ones and
        ones held at the upper or the lower bound: the free ``alpha`` zero
        their residuals, then free rows beyond a bound move to it and bound
        rows whose residual has the wrong sign become free.  Returns the
        smallest (gap, gamma) met."""
        found = (np.inf, None)
        for _ in range(FINISH_STEPS):
            a = np.where(free, 0.0, np.where(upper, hi, lo))
            rows = Phi[free]
            gram = rows @ rows.T
            try:
                # the second pass solves for the residuals the first one
                # leaves (one step of iterative refinement)
                for _ in range(2):
                    a[free] += np.linalg.solve(gram, kappa * y[free] - rows @ (Phi.T @ a))
            except np.linalg.LinAlgError:
                break
            gamma, r, gap = certify(a)
            if gap < found[0]:
                found = (gap, gamma)
            new_upper = np.where(free, a > hi, upper & (r >= 0.0))
            new_free = ~new_upper & np.where(free, a >= lo, upper | (r > 0.0))
            if np.array_equal(new_free, free) and np.array_equal(new_upper, upper):
                break
            free, upper = new_free, new_upper
        return found

    kernel = p >= n
    Q = Phi @ Phi.T / kappa if kernel else None
    alpha = np.full(n, tau - 0.5)
    s = np.full(n, 0.5)
    t = np.full(n, 0.5)
    # multipliers that zero the initial dual residual Q alpha - y - z + w
    excess = Phi @ (Phi.T @ alpha) / kappa - y
    z = np.maximum(excess, 0.0) + 1.0
    w = np.maximum(-excess, 0.0) + 1.0
    best_gamma, best_gap, stale = None, np.inf, 0
    for it in count():
        gamma, r, gap = certify(alpha)
        candidates = [(gap, gamma)]
        free = (s >= z) & (t >= w)
        if gap <= POLISH_GAP and free.sum() <= p:
            candidates.append(finish(free, t * z < s * w))
        for cand_gap, cand_gamma in candidates:
            if cand_gap < best_gap:
                best_gamma, best_gap, stale = cand_gamma, cand_gap, -1
        stale += 1
        if best_gap <= tol or it == max_iter or stale > PATIENCE:
            break
        residual = -r - z + w
        D = z / s + w / t
        if kernel:
            M = Q.copy()
            M.flat[:: n + 1] += D

            def solve(b):
                return np.linalg.solve(M, b)

        else:
            Dinv = 1.0 / D
            A = Phi * np.sqrt(Dinv)[:, None]
            M = A.T @ A
            M.flat[:: p + 1] += kappa

            def solve(b):
                return Dinv * (b - Phi @ np.linalg.solve(M, Phi.T @ (Dinv * b)))

        try:
            # predictor: the affine-scaling direction
            da = solve(-residual - z + w)
            dz = -z - z * da / s
            dw = -w + w * da / t
            xi = min(1.0, _max_step((s, da), (t, -da), (z, dz), (w, dw)))
            mu = (float(s @ z) + float(t @ w)) / (2 * n)
            mu_aff = (float((s + xi * da) @ (z + xi * dz)) + float((t - xi * da) @ (w + xi * dw))) / (2 * n)
            target = (mu_aff / mu) ** 3 * mu if mu > 0 else 0.0
            # corrector: centred towards target, with the second-order term
            r_sz = s * z + da * dz - target
            r_tw = t * w - da * dw - target
            da = solve(-residual - r_sz / s + r_tw / t)
        except np.linalg.LinAlgError:
            break
        dz = (-r_sz - z * da) / s
        dw = (-r_tw + w * da) / t
        xi = min(1.0, TO_BOUNDARY * _max_step((s, da), (t, -da), (z, dz), (w, dw)))
        if not (xi > MIN_STEP and np.all(np.isfinite(da))):
            break
        alpha = alpha + xi * da
        s = s + xi * da
        t = t - xi * da
        z = z + xi * dz
        w = w + xi * dw
    if best_gamma is None:
        raise NonFiniteObjectiveError("non-finite objective at every interior-point iterate")
    return best_gamma, it, best_gap


def adam_fit(Phi: np.ndarray, y: np.ndarray, config: FitConfig) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimise the penalised empirical risk to a certified optimum.

    The quadratic loss is minimised exactly by :func:`_ridge_solve`
    (``epochs_run`` 0, ``converged`` True).  The Huber and logistic
    losses run :func:`_newton` and the quantile loss
    :func:`_quantile_ipm`, at most ``config.epochs`` iterations each.
    ``certificate`` in the diagnostics bounds
    ``(objective - minimum) / objective``: ``|gradient|^2 / (2 kappa)``
    for the smooth losses (NaN for the quadratic loss at
    ``kappa = 0``), the duality gap for the quantile loss; those losses
    are ``converged`` when it is at most ``config.tol``.  The name
    predates the exact solvers and stays because the benchmark harness
    looks the solver up by it.  Deterministic given (data, config).
    """
    if config.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {config.epochs}")
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    loss, kappa = config.loss, config.kappa
    if not np.all(np.isfinite(y)):
        raise NonFiniteObjectiveError("non-finite objective: the responses must be finite")
    certificate = float("nan")
    iterations = 0
    if loss.kind == "quadratic":
        try:
            gamma = _ridge_solve(Phi, y, kappa)
        except np.linalg.LinAlgError as exc:
            # for finite data the factorisation and the least-squares SVD succeed
            raise NonFiniteObjectiveError(f"exact ridge solve failed: {exc}") from exc
    else:
        start = float(np.sum(loss_value(loss, np.zeros(len(y)), y)))
        if not np.isfinite(start):
            raise NonFiniteObjectiveError(f"non-finite objective {start!r} at gamma = 0")
        if loss.kind == "quantile":
            gamma, iterations, certificate = _quantile_ipm(
                Phi, y, loss, kappa, config.epochs, config.tol
            )
        else:
            gamma, iterations = _newton(Phi, y, loss, kappa, config.epochs, config.tol)
    final = objective(gamma, Phi, y, loss, kappa)
    if not (np.all(np.isfinite(gamma)) and np.isfinite(final)):
        raise NonFiniteObjectiveError(f"non-finite objective {final!r} of the fit")
    if loss.kind != "quantile" and kappa > 0:
        grad = objective_gradient(gamma, Phi, y, loss, kappa)
        bound = float(grad @ grad) / (2.0 * kappa)
        certificate = bound / final if final > 0 else bound
    converged = loss.kind == "quadratic" or certificate <= config.tol
    return gamma, FitDiagnostics(
        final_objective=final,
        epochs_run=iterations,
        converged=converged,
        certificate=certificate,
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
        if self.loss.kind != "logistic":
            raise ValueError("probabilities are only defined for the logistic loss")
        return sigmoid(self.predict(X))

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
