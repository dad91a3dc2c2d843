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
interpolation decay, the surplus envelope) and reports
measured-vs-bound outcomes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from typing import Sequence

import numpy as np

from . import DataError, rng
from .estimator import FeatureMap, FitConfig, _gram, adam_fit, hyperparams_from_n
from .losses import LossSpec, sigmoid
from .relu_product import pair_product, product_pairs, square_approx
from .sparse_grid import (
    approximation_bound,
    basis_size,
    cardinality_bounds,
    enumerate_basis,
    hat_eval,
    interpolate,
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


def check_model_id(model_id: int) -> None:
    """Refuse a model id that ``MODEL_DIMS`` does not list."""
    if model_id not in MODEL_DIMS:
        raise DataError(f"unknown model id {model_id}; expected {min(MODEL_DIMS)}..{max(MODEL_DIMS)}")


def true_regression(model_id: int, X: np.ndarray) -> np.ndarray:
    """Conditional mean E(Y|X); for model 4 this is P(Y = 1 | X)."""
    check_model_id(model_id)
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
    return sigmoid(model4_logodds(X))


@dataclass(frozen=True)
class SimModelSpec:
    """One simulation setting: which model, sample size, noise, seed."""

    model_id: int
    n: int
    noise: str = "normal"
    seed: int = 0

    def __post_init__(self) -> None:
        check_model_id(self.model_id)
        if self.noise not in NOISE_KINDS:
            raise DataError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")

    @property
    def dimension(self) -> int:
        return MODEL_DIMS[self.model_id]


def bernoulli_responses(probs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    u = gen.random(len(probs))
    return (u < probs).astype(float)


def design(spec: SimModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation points and their true values, shared by every replication."""
    points = rng.stream(spec.seed, "design", spec.model_id).random((spec.n, spec.dimension))
    return points, true_regression(spec.model_id, points)


def generate(spec: SimModelSpec, rep: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The training ``(X, y)`` of replication ``rep``, from the covariate and
    noise streams keyed by ``(seed, stream, model, "train", rep)``."""
    cov_gen = rng.stream(spec.seed, "covariates", spec.model_id, "train", rep)
    X = cov_gen.random((spec.n, spec.dimension))
    noise_gen = rng.stream(spec.seed, "noise", spec.model_id, "train", rep)
    if spec.model_id == 4:
        return X, bernoulli_responses(true_regression(4, X), noise_gen)
    if spec.noise == "normal":
        eps = rng.standard_normal(noise_gen, spec.n)
    elif spec.noise == "laplace":
        eps = rng.standard_laplace(noise_gen, spec.n)
    else:
        eps = np.zeros(spec.n)
    return X, true_regression(spec.model_id, X) + eps


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionMetrics:
    avg_bias2: float
    avg_variance: float
    avg_mse: float


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    recall: float
    f1: float
    auc: float


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
        # tie-averaged ranks: each run of equal scores in sorted order
        # gets the mean of the 1-based positions it spans
        order = np.argsort(scores, kind="stable")
        _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
        ranks = np.empty(len(scores))
        ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
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

    def row(self) -> dict:
        """The cell's report row: grid point, schedule, then its metrics."""
        return {"kappa": self.kappa, "c": self.c, "m": self.m, "R": self.R, **asdict(self.metrics)}


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

    def to_csv(self) -> str:
        spec = self.spec
        lines = [
            f"# model={spec.model_id} n={spec.n} noise={spec.noise} seed={spec.seed} "
            f"loss={self.loss_selector} reps={self.reps}",
            ",".join(self.cells[0].row()),
        ]
        lines += [",".join(map(repr, cell.row().values())) for cell in self.cells]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            **asdict(self.spec),
            "loss": self.loss_selector,
            "reps": self.reps,
            "cells": [cell.row() for cell in self.cells],
        }


def _fit_replication(
    phi: np.ndarray, y: np.ndarray, configs: list[FitConfig], rep: int, out: np.ndarray
) -> None:
    """Fit each ``configs[k]`` into ``out[:, k]``; ``phi`` is freed on return."""
    # a lone config forms its own Gram: the quadratic solve copies a shared one
    gram = _gram(phi) if len(configs) > 1 else None
    for k, config in enumerate(configs):
        try:
            out[:, k] = adam_fit(phi, y, config, gram=gram)[0]
        except Exception as exc:
            kind = DataError if isinstance(exc, DataError) else RuntimeError
            raise kind(f"fit failed at kappa={config.kappa}, c={config.c_offset}, rep={rep}: {exc}") from exc


def _defined_mean(values) -> float:
    """The mean over the replications that define a rate; ``nan`` when none does."""
    values = np.asarray(values)
    defined = values[~np.isnan(values)]
    return float(np.mean(defined)) if defined.size else math.nan


def run_replications(
    spec: SimModelSpec,
    loss: LossSpec,
    reps: int,
    kappas: Sequence[float] = DEFAULT_KAPPAS,
    cs: Sequence[int] = DEFAULT_CS,
) -> SimulationReport:
    """Fit ``loss`` on fresh data per replication for every (kappa, c) cell.

    Every replication is scored on the fixed evaluation design: squared
    error against the true regression function for models 1-3, and for
    model 4 recovery of the true conditional class (the class the
    conditional probability puts more mass on).  Scoring model 4
    against freshly drawn labels instead would cap every method at the
    Bayes accuracy of the link, about 0.67, and could not discriminate
    between fits.  A model 4 point is called 1 when its score, on the
    label's 0-1 scale, is at least 1/2: the sigmoid of the logistic
    loss's score (a log-odds), and the score itself for the other
    losses, which fit the 0/1 labels directly.  Each rate is averaged
    over the replications that define it (a replication that calls no
    point 1 has no precision), and is ``nan`` only when none does.

    Each replication's training features are reused across the
    ``kappa`` grid.  The fits of a schedule cell ``c`` fill one
    ``(p, len(kappas) * reps)`` coefficient array in (kappa, rep) column
    order, which goes through :meth:`FeatureMap.scores` once, so no
    evaluation feature matrix exists.  The cells are fitted largest basis
    first, so that the largest fit does not start on a heap the smaller
    ones left behind; the report lists them in ``cs`` order.  Every draw
    is keyed by ``(seed, rep)``, so the order changes no value.
    """
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    for name, grid in (("kappas", kappas), ("cs", cs)):
        if not grid:
            raise DataError(f"empty {name} grid")
        for i, value in enumerate(grid):  # a repeat would fit and report its cells twice
            if value in grid[:i]:
                raise DataError(f"{name} grid repeats the value {value!r}")
    # every config is checked before the first draw; c_offset only labels
    # it for wrappers of adam_fit that record fits per schedule cell
    configs = {c: [FitConfig(loss=loss, kappa=kappa, c_offset=c) for kappa in kappas] for c in cs}
    schedule = {c: hyperparams_from_n(spec.n, c) for c in cs}  # it refuses n < 2
    report = SimulationReport(spec=spec, loss_selector=loss.selector(), reps=reps)
    points, truth = design(spec)
    truth_class = (truth >= 0.5).astype(int)
    rows = {c: [] for c in cs}
    # the basis grows with m, which is cheaper to sort on than its size:
    # a c past the id cap must reach enumerate_basis, which refuses it
    # before counting; the stable sort keeps equal m in cs order
    for c in sorted(rows, key=lambda c: -schedule[c][0]):
        m, R = schedule[c]
        fmap = FeatureMap(basis=enumerate_basis(spec.dimension, m), R=R)
        coefs = np.empty((len(fmap.basis), len(kappas) * reps))
        for rep in range(reps):
            X, y = generate(spec, rep)
            _fit_replication(fmap(X), y, configs[c], rep, coefs[:, rep::reps])
        # block k of the cube holds the evaluation scores of kappas[k], one row per rep
        cube = fmap.scores(points, coefs).T.reshape(len(kappas), reps, -1)
        for kappa, scores in zip(kappas, cube):
            if spec.model_id != 4:
                metrics = regression_metrics(scores, truth)
            else:
                probs = sigmoid(scores) if loss.kind == "logistic" else scores
                per_rep = [astuple(classification_metrics(prob >= 0.5, truth_class, prob))
                           for prob in probs]
                metrics = ClassificationMetrics(*map(_defined_mean, zip(*per_rep)))
            rows[c].append(GridCell(kappa=kappa, c=c, m=m, R=R, metrics=metrics))
    report.cells = [cell for c in cs for cell in rows[c]]
    return report


# --------------------------------------------------------------------------
# Bound verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """``measured`` against its guarantee: it passes when ``lower <= measured
    <= bound``, never for NaN; an exact count has ``lower == bound``."""

    name: str
    measured: float
    bound: float
    lower: float = -math.inf
    asserted: bool = True

    @property
    def passed(self) -> bool:
        return self.lower <= self.measured <= self.bound

    @property
    def note(self) -> str:
        """``lower=<repr>`` for a finite lower end below ``bound``, else empty."""
        return f"lower={self.lower!r}" if -math.inf < self.lower < self.bound else ""


@dataclass
class BoundReport:
    checks: list[BoundCheck] = field(default_factory=list)

    def add(self, *args, **kwargs) -> None:
        """Append ``BoundCheck(*args, **kwargs)``."""
        self.checks.append(BoundCheck(*args, **kwargs))

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


def _product_sweep_draws(gen: np.random.Generator, d: int, count: int):
    """``count`` (basis id, point) pairs as the ``(count, d)`` level, node and
    point arrays: a level sum uniform on 0..4 placed unit by unit on uniform
    coordinates, a uniform node of each level's index set, a uniform point."""
    budgets = gen.integers(0, 5, count)
    levels = np.zeros((count, d), dtype=np.int64)
    np.add.at(levels, (np.repeat(np.arange(count), budgets), gen.integers(0, d, budgets.sum())), 1)
    # level 0 has the nodes [0, 1]; level l the 2**(l-1) odd numbers 1, 3, ...
    picks = gen.integers(0, np.where(levels == 0, 2, 2 ** np.maximum(levels - 1, 0)))
    nodes = np.where(levels == 0, picks, 2 * picks + 1)
    return levels, nodes, gen.random((count, d))


def corner_bump(X: np.ndarray) -> np.ndarray:
    """16 x (1-x) y (1-y): a boundary-vanishing test surface with |D2f| = 64."""
    return 16.0 * X[:, 0] * (1.0 - X[:, 0]) * X[:, 1] * (1.0 - X[:, 1])


CORNER_BUMP_D2_NORM = 64.0


def decay_errors(interpolants: dict) -> dict[int, float]:
    """Monte-Carlo L2 error, at 20,000 points, of each sparse interpolant ``{m: f_m}`` of the corner bump."""
    pts = rng.stream(0, "interp-decay").random((20_000, 2))
    truth = corner_bump(pts)
    return {m: float(np.sqrt(np.mean((fm(pts) - truth) ** 2))) for m, fm in interpolants.items()}


def verify_bounds() -> BoundReport:
    """Sweep every shipped closed-form guarantee; failures become entries.

    The cardinality sandwich at m = 0 is reported but not asserted: the
    lower-bound formula holds there with equality, and the check is kept
    informational to match its documented scope of m >= 1.
    """
    report = BoundReport()

    for d, row in CARDINALITY_TABLE.items():
        for m, expected in enumerate(map(float, row)):
            count = float(len(enumerate_basis(d, m)))
            report.add(f"cardinality-table d={d} m={m}", count, expected, lower=expected)

    for d in range(2, 9):
        for m in range(0, 7):
            lower, upper = cardinality_bounds(d, m)
            report.add(f"cardinality-sandwich d={d} m={m}", float(basis_size(d, m)), upper, lower,
                       asserted=m >= 1)

    xs = np.linspace(0.0, 1.0, 10_000)
    for R in range(1, 9):
        err = float(np.max(np.abs(square_approx(R, xs) - xs ** 2)))
        report.add(f"square R={R}", err, 2.0 ** (-2 * R - 2))

    g = np.linspace(0.0, 1.0, 201)
    GX, GY = np.meshgrid(g, g)
    for R in range(1, 7):
        err = float(np.max(np.abs(pair_product(R, GX, GY) - GX * GY)))
        report.add(f"pair R={R}", err, 3.0 * 2.0 ** (-2 * R - 2))

    gen = rng.stream(0, "product-sweep")
    for d in (2, 3, 4, 5, 8):
        for R in (2, 4, 6):
            levels, nodes, X = _product_sweep_draws(gen, d, 1000)
            approx = product_pairs(R, levels, nodes, X)
            exact = np.prod(hat_eval(levels, nodes, X), axis=1)
            worst = float(np.max(np.abs(approx - exact)))
            report.add(f"product d={d} R={R}", worst, 3.0 * 2.0 ** (-2 * R - 2) * (d - 1))

    interpolants = {m: interpolate(corner_bump, 2, m) for m in range(1, 7)}
    errors = decay_errors(interpolants)
    for m, err in errors.items():
        report.add(f"interp-decay m={m}", err, approximation_bound(2, m, CORNER_BUMP_D2_NORM))
    for m in range(2, 6):
        # the exact level-by-level ratio at m = 2 is 2.8871 (the closed-form
        # error oracle in tests/test_acceptance.py, criterion 7), below
        # the nominal window that the pre-asymptotic decay only reaches
        # from m = 3 on; that row is reported rather than asserted
        report.add(f"interp-ratio m={m}", errors[m] / errors[m + 1], 5.5, lower=3.0, asserted=m >= 3)

    # the envelope holds for interior ids (every level >= 1); the corner
    # bump's surpluses there are 16 * 4**-|l|, so the ratio to the
    # envelope is 1.5 * 2**(-|l|/2), largest at |l| = 2
    for m in range(2, 7):
        fm = interpolants[m]
        interior = fm.basis.levels.min(axis=1) >= 1
        envelope = fm.coefficient_bounds(CORNER_BUMP_D2_NORM)[interior]
        worst = float(np.max(np.abs(fm.coefficients[interior]) / envelope))
        report.add(f"coefficient-envelope m={m}", worst, 1.0)
    return report
