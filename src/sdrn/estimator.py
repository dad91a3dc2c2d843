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
``numpy.linalg`` only: every linear system of a fit with ``kappa > 0``
is posed symmetric positive definite and factored by 64-column Cholesky
panels, so LAPACK never sees more than a 64 x 64 block of it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

from . import DataError
from .losses import LossInputError, LossSpec, loss_curvature, loss_subgradient, loss_value
from .relu_product import ProductPlan, check_accuracy_level, product_features, product_plan, product_scores
from .sparse_grid import SparseGridBasis, as_points, basis_size, enumerate_basis

MODEL_SCHEMA_VERSION = 1
# the FitDiagnostics fields a model file stores, and the type of each; a
# float is any JSON number in the float range
SAVED_DIAGNOSTICS = {"final_objective": float, "epochs_run": int, "converged": bool, "sup_norm": float}


class ConstantColumnError(DataError):
    """A covariate column is constant, or has no finite range, and cannot be min-max scaled."""


class NonFiniteObjectiveError(DataError, RuntimeError):
    """The optimiser produced a non-finite objective or gradient."""


def hyperparams_from_n(n: int, c: int = 0) -> tuple[int, int]:
    """Schedule ``(m, R)`` from the sample size.

    ``m = max(floor(0.2 * log2 n) + c, 0)`` and
    ``R = 3 * max(floor(0.2 * log2 n), m, 1)``; the offset ``c`` trades
    grid resolution against variance.  The floor of 1 keeps ``R >= 1``
    below 32 samples, where the schedule's base level is 0.
    """
    if n < 2:
        raise DataError(f"sample size must be >= 2, got {n}")
    base = math.floor(0.2 * math.log2(n))
    m = max(base + c, 0)
    R = 3 * max(base, m, 1)
    return m, R


@dataclass(frozen=True)
class Scaler:
    """Per-column min-max scaler onto [0, 1] with clamping at predict time; every
    column needs a finite range ``max - min > 0``, fitted or loaded."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.subtract(self.maxs, self.mins)
        bad = np.flatnonzero(~(np.isfinite(span) & (span > 0)))
        if bad.size:
            raise ConstantColumnError(
                f"scaler column(s) {bad.tolist()} are constant or have no finite range "
                "max - min > 0; min-max scaling is undefined"
            )

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or not len(X):  # one row is a constant column, which __post_init__ refuses
            raise DataError(f"scaling needs a 2-d array of at least one row, got shape {X.shape}")
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0))

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
    shared between ids once.  Calling the map builds the ``n x p``
    feature matrix, which only fits need; :meth:`scores` gives
    ``features @ coef`` without it.  Both use :attr:`plan`, the product
    trees planned on first use, so a map evaluated many times plans once.
    """

    basis: SparseGridBasis
    R: int

    def __post_init__(self) -> None:
        check_accuracy_level(self.R)

    @cached_property
    def plan(self) -> ProductPlan:
        return product_plan(self.basis.levels, self.basis.nodes)

    def __call__(self, X01: np.ndarray) -> np.ndarray:
        return product_features(self.R, self.plan, as_points(X01, self.basis.dimension))

    def scores(self, X01: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """``self(X01) @ coef``, evaluated per row block with no ``n x p`` array."""
        return product_scores(self.R, self.plan, as_points(X01, self.basis.dimension), coef)


def _sq(a: np.ndarray) -> float:
    """``a . a`` summed in index order; BLAS's dot rounds by the thread count."""
    return float(np.einsum("i,i->", a, a))


@dataclass(frozen=True)
class FitConfig:
    """Everything the fitter needs besides the data.

    ``kappa`` is the ridge tuning parameter (``lambda = kappa / n``);
    ``c_offset`` shifts the sample-size schedule for ``m``.  The
    quadratic loss is solved exactly.  The Huber and logistic losses run
    Newton's method and the quantile loss an interior-point method,
    each certified to ``TOL`` (see :func:`adam_fit`).  These losses need
    ``kappa > 0``: without the ridge term the risk is not strongly
    convex, so there is no certificate and maybe no minimiser.
    """

    loss: LossSpec
    kappa: float = 1.0
    c_offset: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise DataError(f"kappa must be finite and nonnegative, got {self.kappa!r}")
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


def _gram(Phi: np.ndarray) -> np.ndarray | None:
    """``K = Phi Phi'`` when ``p > n``, else None: the one place that
    decides on which side :func:`_weighted_ridge` solves."""
    n, p = Phi.shape
    return Phi @ Phi.T if p > n else None


# columns per panel of _cholesky, so LAPACK sees at most a _PANEL x _PANEL block
_PANEL = 64


def _cholesky(M: np.ndarray):
    """Factor the symmetric positive definite ``M = L L'`` in place and
    return the solve ``b -> M^-1 b``.

    Left-looking, one ``_PANEL``-column panel at a time: the panel takes
    the update from the columns of ``L`` to its left in one product, its
    diagonal block is factored and inverted by ``numpy.linalg``, and the
    rows below it are scaled by that inverse.  The lower triangle of
    ``M`` ends as ``L``.  Besides ``M`` it holds one ``n x _PANEL``
    workspace and the diagonal blocks' inverses; the solve is forward
    and back substitution over the panels.  A pivot that is not positive
    raises ``numpy.linalg.LinAlgError``.
    """
    n = len(M)
    work = np.empty(n * _PANEL)
    panels = []  # (first column, end, inverse of the diagonal block of L)
    for j in range(0, n, _PANEL):
        e = min(j + _PANEL, n)
        col = M[j:, j:e]
        if j:
            col -= np.matmul(M[j:, :j], M[j:e, :j].T, out=work[: col.size].reshape(col.shape))
        L = np.linalg.cholesky(col[: e - j])
        inverse = np.linalg.inv(L)
        col[: e - j] = L
        below = col[e - j :]
        below[...] = np.matmul(below, inverse.T, out=work[: below.size].reshape(below.shape))
        panels.append((j, e, inverse))

    def solve(b):
        x = np.array(b, dtype=float)
        for j, e, inverse in panels:  # L y = b
            x[j:e] = inverse @ x[j:e]
            x[e:] -= M[e:, j:e] @ x[j:e]
        for j, e, inverse in reversed(panels):  # L' x = y
            x[j:e] = inverse.T @ (x[j:e] - M[e:, j:e].T @ x[e:])
        return x

    return solve


def _weighted_ridge(Phi: np.ndarray, w: float | np.ndarray, kappa: float, K: np.ndarray | None = None):
    """The solve ``u -> (x, s)`` of the weighted ridge system on ``Phi``,

        x = (kappa I + Phi' W Phi)^-1 Phi' u,   s = kappa (kappa I + W K)^-1 u,

    with ``W = diag(w) >= 0`` (a scalar ``w`` stands for ``w I``) and
    ``K = Phi Phi'``; the push-through identity ties them by
    ``s = u - W Phi x``.  When ``p > n`` it solves the n x n system
    ``(kappa I + W K) v = u``, with ``x = Phi' v`` and ``s = kappa v``,
    at a scalar ``w`` as at a vector: each row with ``w > 0`` is divided
    by its ``w`` into the symmetric ``(kappa / w + K) v = u / w``; a row
    with ``w = 0``, or whose ``kappa / w`` overflows, has
    ``v = u / kappa``.  With no such row the system is ``K`` itself when
    formed here, else a copy of it.  When ``p <= n`` it solves the p x p
    system for ``x`` over the rows with ``w > 0``: a vector ``w`` weights
    a copy of those rows, a scalar one the Gram ``Phi' Phi``, so that the
    quadratic fit copies no ``Phi``.  :func:`_cholesky` factors every
    system.  A caller that solves for many ``w`` passes ``K`` from
    :func:`_gram`; otherwise it is formed here."""
    formed = K is None
    K = _gram(Phi) if formed else K
    if K is not None:
        w = np.broadcast_to(w, len(K))
        with np.errstate(divide="ignore", over="ignore"):
            rows = np.isfinite(kappa / w)
        cross = K[np.ix_(rows, ~rows)]
        M = (K if formed else K.copy()) if rows.all() else K[np.ix_(rows, rows)]
        M.flat[:: len(M) + 1] += kappa / w[rows]
        factor = _cholesky(M)

        def solve(u):
            v = u / kappa
            v[rows] = factor(u[rows] / w[rows] - np.einsum("ij,j->i", cross, v[~rows]))
            # einsum adds the rows in order; a threaded gemv's order, and so
            # x's last bits, would follow the BLAS thread count
            return np.einsum("ij,i->j", Phi, v), kappa * v

        return solve
    if np.ndim(w) == 0:
        H = Phi.T @ Phi
        H *= w
    else:
        rows = w > 0
        A = Phi[rows]  # the one n x p temporary, freed on return
        A *= np.sqrt(w[rows])[:, None]
        H = A.T @ A
    H.flat[:: H.shape[0] + 1] += kappa
    inverse = _cholesky(H)

    def solve(u):
        x = inverse(Phi.T @ u)
        return x, u - w * (Phi @ x)

    return solve


# Armijo sufficient-decrease fraction, and the step length below which
# a Newton line search or an interior-point step has stalled
ARMIJO = 1e-4
MIN_STEP = 1e-12
# iterations without a smaller objective (Newton) or gap (interior point)
# after which a method stops: its target is below what rounding allows
PATIENCE = 5
# the iteration cap of both methods; no measured fit came near it: badly
# scaled Huber fits take the most, a few hundred Newton steps
MAX_ITERATIONS = 5000
# the relative target of both methods' certificate: the bound on
# (objective - minimum) / objective below which a fit is converged
TOL = 1e-12


def _newton(
    Phi: np.ndarray, y: np.ndarray, loss: LossSpec, kappa: float, K: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """Newton's method with Armijo backtracking from ``gamma = 0``, for
    the Huber and logistic risks.

    The Hessian is ``Phi' W Phi + kappa I``, with ``W`` the loss
    curvature at the current scores ``f``, so the Newton point is the
    weighted ridge fit of the working response: the ``x`` of
    :func:`_weighted_ridge` at ``u = W f - loss'``, and the step is
    ``gamma - x``.  Every step shares ``K``, which is ``_gram(Phi)``.  It
    stops when ``|gradient|^2 / (2 kappa)``, which bounds the distance to
    the minimum by kappa-strong convexity, is at most ``TOL`` times the
    objective, after ``MAX_ITERATIONS`` steps, after ``PATIENCE`` steps
    that do not lower the objective, or when the line search stalls.
    Returns the iterate and the number of steps taken.
    """
    gamma = np.zeros(Phi.shape[1])
    f = np.zeros(len(y))
    value = float(np.sum(loss_value(loss, f, y)))
    stale = 0
    for it in count():
        slope_f = loss_subgradient(loss, f, y)
        grad = Phi.T @ slope_f + kappa * gamma
        if _sq(grad) / (2.0 * kappa) <= TOL * value or it == MAX_ITERATIONS or stale > PATIENCE:
            return gamma, it
        w = loss_curvature(loss, f, y)
        try:
            x, _ = _weighted_ridge(Phi, w, kappa, K)(w * f - slope_f)
        except np.linalg.LinAlgError:  # kappa too small to keep the Hessian regular
            return gamma, it
        step, dir_f = gamma - x, f - Phi @ x
        slope = float(grad @ step)
        t = 1.0
        while True:
            cand, cand_f = gamma - t * step, f - t * dir_f
            cand_value = float(np.sum(loss_value(loss, cand_f, y))) + 0.5 * kappa * _sq(cand)
            if cand_value <= value - ARMIJO * t * slope:  # False for NaN
                break
            t *= 0.5
            if t < MIN_STEP:
                return gamma, it
        stale = 0 if cand_value < value else stale + 1
        gamma, f, value = cand, cand_f, cand_value


# fraction of the distance to the boundary of the positive orthant that
# an interior-point step covers
TO_BOUNDARY = 0.995
# relative duality gap below which the interior-point iterate is close
# enough to the optimum to try an exact finish on its active bounds
POLISH_GAP = 1e-2
# caps on the active-set steps of one exact finish and on the certified
# refinement passes of each step
FINISH_STEPS, REFINE_PASSES = 2, 4


def _max_step(*pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """The largest ``xi`` with ``x + xi dx >= 0`` for every pair ``(x, dx)``."""
    xi = np.inf
    for x, dx in pairs:
        falling = dx < 0
        if np.any(falling):
            xi = min(xi, float(np.min(-x[falling] / dx[falling])))
    return xi


def _quantile_ipm(
    Phi: np.ndarray, y: np.ndarray, loss: LossSpec, kappa: float, K: np.ndarray | None
) -> tuple[np.ndarray, int, float]:
    """Primal-dual interior-point method (Mehrotra predictor-corrector)
    on the Fenchel dual of the quantile risk,

        max  alpha' y - |Phi' alpha|^2 / (2 kappa)  over  tau - 1 <= alpha <= tau,

    whose maximiser gives the minimiser ``gamma = Phi' alpha / kappa``.

    The slacks ``s = alpha - (tau - 1)`` and ``t = tau - alpha`` are
    iterates of their own, because recomputing them from ``alpha``
    rounds to zero at the bounds; ``z`` and ``w`` are their multipliers.
    Each Newton system ``(Phi Phi' / kappa + D) dalpha = b``, ``D``
    diagonal, gives ``dalpha`` as the ``s`` of :func:`_weighted_ridge`
    at ``w = 1/D`` and ``u = b / D``, factored once for the predictor
    and the corrector.  For a feasible ``alpha`` the duality gap
    ``P(gamma) - D(alpha)`` is ``sum_i rho(r_i) - alpha_i r_i`` over the
    residuals ``r``, a sum of nonnegative terms; it certifies ``gamma``.

    The Newton systems lose accuracy as ``D`` spreads over many orders
    of magnitude, so once the gap is below ``POLISH_GAP`` each iteration
    also tries an exact finish from the bounds the iterate holds
    (``s < z`` or ``t < w``), which factors its free rows' Gram once by
    :func:`_cholesky` for ``REFINE_PASSES`` certified passes; the
    candidate with the smallest gap is kept.  Stops when that gap is at
    most ``TOL`` times the objective, after ``MAX_ITERATIONS`` iterations,
    after ``PATIENCE`` iterations without a smaller gap, or when a step
    stalls.  Returns that candidate's ``gamma``, the iterations and its
    relative gap.
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
        value = float(np.sum(loss_value(loss, f, y))) + 0.5 * kappa * _sq(gamma)
        if not np.isfinite(gap + value):
            return gamma, r, np.inf
        return gamma, r, gap / value if value > 0 else 0.0

    def finish(free, upper):
        """Active-set steps from a partition of the rows into free ones and
        ones held at the upper or the lower bound: the free ``alpha`` zero
        their residuals, then free rows beyond a bound move to it and bound
        rows whose residual has the wrong sign become free.  Stops before a
        step with more than p free rows, whose Gram would be singular.
        Returns the smallest (gap, gamma) met."""
        found = (np.inf, None)
        for _ in range(FINISH_STEPS):
            if free.sum() > p:
                break
            a = np.where(free, 0.0, np.where(upper, hi, lo))
            # the free rows' Gram from K when it is formed (p > n), so that no
            # copy of their rows of Phi is made; (K a)[free] still goes
            # through Phi, as certify's scores do: from K it rounds otherwise
            # and leaves larger gaps
            if K is None:
                rows = Phi[free]
                gram, Ka = rows @ rows.T, lambda a: rows @ (Phi.T @ a)
            else:
                gram, Ka = K[np.ix_(free, free)], lambda a: (Phi @ (Phi.T @ a))[free]
            try:
                inverse = _cholesky(gram)
            except np.linalg.LinAlgError:
                break
            # each pass solves for the residuals the last one left; past the
            # second it mostly redraws their rounding, on which the gap rests
            for _ in range(REFINE_PASSES):
                a[free] += inverse(kappa * y[free] - Ka(a))
                gamma, r, gap = certify(a)
                if gap < found[0]:
                    found = (gap, gamma)
            new_upper = np.where(free, a > hi, upper & (r >= 0.0))
            new_free = ~new_upper & np.where(free, a >= lo, upper | (r > 0.0))
            if np.array_equal(new_free, free) and np.array_equal(new_upper, upper):
                break
            free, upper = new_free, new_upper
        return found

    alpha = np.full(n, tau - 0.5)
    s = np.full(n, 0.5)
    t = np.full(n, 0.5)
    # multipliers that zero the initial dual residual K alpha / kappa - y - z + w
    excess = Phi @ (Phi.T @ alpha) / kappa - y
    z = np.maximum(excess, 0.0) + 1.0
    w = np.maximum(-excess, 0.0) + 1.0
    best_gamma, best_gap, stale = None, np.inf, 0
    for it in count():
        gamma, r, gap = certify(alpha)
        candidates = [(gap, gamma)]
        free = (s >= z) & (t >= w)
        if gap <= POLISH_GAP:
            candidates.append(finish(free, t * z < s * w))
        for cand_gap, cand_gamma in candidates:
            if cand_gap < best_gap:
                best_gamma, best_gap, stale = cand_gamma, cand_gap, -1
        stale += 1
        if best_gap <= TOL or it == MAX_ITERATIONS or stale > PATIENCE:
            break
        residual = -r - z + w
        Dinv = 1.0 / (z / s + w / t)
        try:
            solve = _weighted_ridge(Phi, Dinv, kappa, K)
            # predictor: the affine-scaling direction
            da = solve(Dinv * (-residual - z + w))[1]
            dz = -z - z * da / s
            dw = -w + w * da / t
            xi = min(1.0, _max_step((s, da), (t, -da), (z, dz), (w, dw)))
            mu = (float(s @ z) + float(t @ w)) / (2 * n)
            mu_aff = (float((s + xi * da) @ (z + xi * dz)) + float((t - xi * da) @ (w + xi * dw))) / (2 * n)
            target = (mu_aff / mu) ** 3 * mu if mu > 0 else 0.0
            # corrector: centred towards target, with the second-order term
            r_sz = s * z + da * dz - target
            r_tw = t * w - da * dw - target
            da = solve(Dinv * (-residual - r_sz / s + r_tw / t))[1]
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


def adam_fit(
    Phi: np.ndarray, y: np.ndarray, config: FitConfig, *, gram: np.ndarray | None = None
) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimise the penalised empirical risk to a certified optimum.

    The quadratic loss is minimised exactly, as the weighted ridge
    system of :func:`_weighted_ridge` at ``w = 2``, ``u = 2 y`` (when
    ``p > n``, ``(kappa / 2 + K) v = y``, factored in the Gram's own
    memory), or by the minimum-norm least-squares solution, its limit,
    at ``kappa = 0`` (``epochs_run`` 0, ``converged`` True).  The Huber
    and logistic losses run :func:`_newton` and the quantile loss
    :func:`_quantile_ipm`, at most ``MAX_ITERATIONS`` iterations each.
    ``certificate`` in the diagnostics bounds
    ``(objective - minimum) / objective``: ``|gradient|^2 / (2 kappa)``
    for the smooth losses (NaN for the quadratic loss at
    ``kappa = 0``), the duality gap for the quantile loss; those losses
    are ``converged`` when it is at most ``TOL``.  ``gram``, if given, is
    ``_gram(Phi)`` from a caller that fits Phi at several configs.  The
    name predates the exact solvers and stays because the benchmark
    harness looks the solver up by it.  Deterministic given (data, config).
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    loss, kappa = config.loss, config.kappa
    if not np.all(np.isfinite(y)):
        raise NonFiniteObjectiveError("non-finite objective: the responses must be finite")
    certificate = float("nan")
    iterations = 0
    if loss.kind == "quadratic":
        try:
            if kappa == 0:
                gamma = np.linalg.lstsq(Phi, y, rcond=None)[0]
            else:
                gamma = _weighted_ridge(Phi, 2.0, kappa, gram)(2.0 * y)[0]
        except np.linalg.LinAlgError as exc:
            # kappa I keeps every Cholesky pivot positive unless rounding
            # swamps it; the least-squares SVD of finite data succeeds
            raise NonFiniteObjectiveError(f"exact ridge solve failed: {exc}") from exc
    else:
        start = float(np.sum(loss_value(loss, np.zeros(len(y)), y)))
        if not np.isfinite(start):
            raise NonFiniteObjectiveError(f"non-finite objective {start!r} at gamma = 0")
        K = _gram(Phi) if gram is None else gram
        if loss.kind == "quantile":
            gamma, iterations, certificate = _quantile_ipm(Phi, y, loss, kappa, K)
        else:
            gamma, iterations = _newton(Phi, y, loss, kappa, K)
    scores = Phi @ gamma  # one pass over Phi for the objective and its gradient
    final = float(np.sum(loss_value(loss, scores, y))) + 0.5 * kappa * _sq(gamma)
    if not (np.all(np.isfinite(gamma)) and np.isfinite(final)):
        raise NonFiniteObjectiveError(f"non-finite objective {final!r} of the fit")
    if loss.kind != "quantile" and kappa > 0:
        grad = Phi.T @ loss_subgradient(loss, scores, y) + kappa * gamma
        bound = _sq(grad) / (2.0 * kappa)
        certificate = bound / final if final > 0 else bound
    converged = loss.kind == "quadratic" or certificate <= TOL
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

    def __post_init__(self) -> None:
        names = self.column_names
        if names is not None and not len(names) == len(set(names)) == self.d:
            raise DataError(f"need d={self.d} distinct column names, got {list(names)}")

    @cached_property
    def feature_map(self) -> FeatureMap:
        return FeatureMap(basis=enumerate_basis(self.d, self.m), R=self.R)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Scores ``features(x) . gamma`` for raw (unscaled) points, per row block."""
        return self.feature_map.scores(self.scaler.transform(as_points(X, self.d)), self.gamma)

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
            "diagnostics": {name: getattr(self.diagnostics, name) for name in SAVED_DIAGNOSTICS}
            if self.diagnostics
            else None,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SdrnModel":
        """A parsed model file's model.  This holds every rule of the file's
        JSON; ``LossSpec``, ``Scaler``, ``FitConfig``, ``basis_size`` and the model check it as a fit."""
        if not isinstance(doc, dict):
            raise DataError("a model file holds one JSON object")
        version = doc.get("schema_version")
        if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # not 1.0, nor true
            raise DataError(f"schema_version must be the integer {MODEL_SCHEMA_VERSION}, not {version!r}")
        loss, saved = doc["loss"], doc.get("diagnostics")
        kappa, gamma, mins, maxs = doc["kappa"], doc["gamma"], doc["scaler"]["min"], doc["scaler"]["max"]
        numbers = {"kappa": [kappa], "gamma": gamma, "scaler min": mins, "scaler max": maxs}
        numbers.update((name, [loss[name]]) for name in ("delta", "tau") if loss[name] is not None)
        for name, kind in SAVED_DIAGNOSTICS.items() if saved else ():
            if kind is float:
                numbers[f"diagnostics {name}"] = [saved[name]]
            elif type(saved[name]) is not kind:  # a bool is no integer here
                raise DataError(f"diagnostics {name} has the wrong JSON type: {saved[name]!r}")
        for name, values in numbers.items():
            # a JSON number in the float range: not a bool, a string, a list or 10**400
            if type(values) is not list or any(type(v) not in (int, float) or abs(v) > sys.float_info.max
                                               for v in values):
                raise DataError(f"{name} holds a value that is not a JSON number in the float range")
        loss = LossSpec(kind=loss["kind"], delta=loss["delta"], tau=loss["tau"])
        diag = FitDiagnostics(**{name: saved[name] for name in SAVED_DIAGNOSTICS}) if saved else None
        d, m, R = doc["d"], doc["m"], doc["R"]
        for name, value in (("d", d), ("m", m), ("R", R)):
            if type(value) is not int:  # not a float, nor a bool
                raise DataError(f"{name} must be an integer, got {value!r}")
        check_accuracy_level(R)
        FitConfig(loss=loss, kappa=kappa)  # refuses the kappa a fit would
        gamma, mins, maxs = (np.array(v, dtype=float) for v in (gamma, mins, maxs))
        columns = doc.get("columns")
        if columns is not None and (type(columns) is not list or any(type(c) is not str for c in columns)):
            raise DataError("columns must be a list of strings, or null")
        if mins.shape != (d,) or maxs.shape != (d,):
            raise DataError(f"scaler must have d={d} entries")
        # the basis has over 2**m ids, so a large m is refused without counting
        if m >= gamma.size.bit_length() or gamma.shape != (basis_size(d, m),):
            raise DataError(f"gamma has {gamma.size} entries, not the size of the d={d}, m={m} basis")
        # each feature is at most 1 + eps, and product_scores' root terms
        # carry 2 gamma, so with this bound finite no score overflows
        eps = 3.0 * 2.0 ** (-2 * R - 2) * (d - 1)
        with np.errstate(over="ignore"):
            bound = 2.0 * np.sum(np.abs(gamma)) * (1.0 + eps)
        if not np.isfinite(bound):
            raise DataError(f"gamma's score bound 2 sum|gamma| (1 + eps) is {float(bound)!r}, not finite")
        return cls(
            gamma=gamma,
            d=d,
            m=m,
            R=R,
            loss=loss,
            kappa=kappa,
            scaler=Scaler(mins=mins, maxs=maxs),
            column_names=tuple(columns) if columns else None,
            diagnostics=diag,
        )

    @classmethod
    def load(cls, path) -> "SdrnModel":
        """The model in the file at ``path``: every file that holds none is one ``DataError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise DataError(f"cannot load model {path}: {exc}") from exc


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
    m_sched, R_sched = hyperparams_from_n(X.shape[0], config.c_offset)  # first: it refuses n < 2
    m = m_sched if m is None else m
    R = R_sched if R is None else R
    scaler = Scaler.fit(X)
    fmap = FeatureMap(basis=enumerate_basis(X.shape[1], m), R=R)
    X01 = scaler.transform(X)
    gamma, diag = adam_fit(fmap(X01), y, config)
    # scored as predict scores, so both diagnostics are what predict gives
    train_scores = fmap.scores(X01, gamma)
    diag.sup_norm = float(np.max(np.abs(train_scores)))
    diag.max_residual = float(np.max(np.abs(train_scores - y)))
    return SdrnModel(
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
