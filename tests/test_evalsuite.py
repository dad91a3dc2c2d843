import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from scipy.special import expit, ndtri
from scipy.stats import chisquare

from conftest import index_set
from sdrn import DataError, rng
from sdrn import evalsuite as ev
from sdrn.estimator import FitConfig
from sdrn.losses import LossSpec


def test_model_dimensions_and_values():
    assert ev.MODEL_DIMS == {1: 5, 2: 7, 3: 10, 4: 10}
    X = np.array([[0.0, 0.0, 0.0, 0.3, 0.9]])
    assert ev.true_regression(1, X)[0] == pytest.approx(1.0, abs=1e-15)
    X4 = np.zeros((1, 10))
    # mu at the origin: sqrt(0.1) term vanishes with x3=0; mu = 0*cos(0) + 0 + 0 - 0 + 1
    assert ev.model4_logodds(X4)[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ev.true_regression(5, X)
    with pytest.raises(ValueError):
        ev.SimModelSpec(model_id=7, n=100)
    with pytest.raises(ValueError):
        ev.SimModelSpec(model_id=1, n=100, noise="cauchy")


@pytest.mark.parametrize(
    "model_id, at_zero, at_one",
    [
        # 1/(1+e); 1 + 1/(1+e) + tan(1/4)
        (2, 1.0 / (1.0 + math.e), 1.0 + 1.0 / (1.0 + math.e) + math.tan(0.25)),
        # 1; 1.5 cos 3 + sqrt(2.1) + 1/2 + 1
        (3, 1.0, 1.5 * math.cos(3.0) + math.sqrt(2.1) + 1.5),
    ],
)
def test_models_2_and_3_at_the_cube_corners(model_id, at_zero, at_one):
    d = ev.MODEL_DIMS[model_id]
    values = ev.true_regression(model_id, np.array([np.zeros(d), np.ones(d)]))
    assert values == pytest.approx([at_zero, at_one], rel=1e-14)


def test_laplace_noise_moments():
    gen = rng.stream(0, "laplace-moments")
    draws = rng.standard_laplace(gen, 10 ** 6)
    assert abs(draws.var() - 2.0) / 2.0 <= 0.02
    assert abs(draws.mean()) <= 0.01


class _FixedUniforms:
    # stands in for a Generator whose uniforms are given
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u.reshape(size)


def _ulps(a, b):
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("size", [200_000, (400, 500)], ids=["n", "reps-points"])
def test_normal_draws_match_scipy_ndtri(size):
    # the standard library's AS241 against scipy's independent ndtri, on the same uniforms
    uniforms = rng._open_uniform(rng.stream(0, "normal-draws"), size)
    draws = rng.standard_normal(rng.stream(0, "normal-draws"), size)
    assert draws.shape == uniforms.shape
    assert _ulps(draws, ndtri(uniforms)).max() <= 8


def test_normal_draws_match_scipy_ndtri_at_region_boundaries():
    # both ends, the tail/central switches 0.075 and 0.925, and exp(-25) where the tail changes form
    u = np.array([2.0 ** -53, np.exp(-25.0), 0.075, 0.5, 0.925, 1.0 - 2.0 ** -53, 0.0])
    draws = rng.standard_normal(_FixedUniforms(u), u.shape)
    # an exact zero uniform is nudged to 2^-53
    assert draws[-1] == draws[0]
    assert _ulps(draws, ndtri(np.where(u == 0.0, 2.0 ** -53, u))).max() <= 8


def test_model4_link_calibration():
    # empirical P(Y=1 | mu) within 3 standard errors of the logistic link
    gen = rng.stream(1, "link-check")
    n = 10 ** 5
    for mu in (-2.0, 0.0, 2.0):
        p = expit(mu)
        y = ev.bernoulli_responses(np.full(n, p), gen)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(y.mean() - p) <= 3.0 * se


def test_generate_streams():
    spec = ev.SimModelSpec(model_id=1, n=64, noise="normal", seed=5)
    Xa, ya = ev.generate(spec, rep=0)
    Xb, yb = ev.generate(spec, rep=0)
    assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)
    Xc, yc = ev.generate(spec, rep=1)
    assert not np.array_equal(Xa, Xc) and not np.array_equal(ya, yc)
    points, truth = ev.design(spec)
    assert points.shape == (64, 5) and np.array_equal(truth, ev.true_regression(1, points))
    assert not np.array_equal(points, Xa) and not np.array_equal(points, Xc)
    X, y = ev.generate(ev.SimModelSpec(model_id=1, n=64, noise="none", seed=5))
    assert np.array_equal(y, ev.true_regression(1, X))
    _, labels = ev.generate(ev.SimModelSpec(model_id=4, n=64, seed=5))
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_regression_metrics():
    truth = np.array([1.5, 0.5])
    preds = np.array([[1.0, 2.0], [3.0, 0.0]])
    m = ev.regression_metrics(preds, truth)
    assert m.avg_bias2 == 0.25
    assert m.avg_variance == 1.0
    assert m.avg_mse == 1.25
    # identical predictions: everything zero
    exact = ev.regression_metrics(np.vstack([truth, truth]), truth)
    assert (exact.avg_bias2, exact.avg_variance, exact.avg_mse) == (0.0, 0.0, 0.0)
    # single replication: variance 0 by the population convention
    single = ev.regression_metrics(preds[:1], truth)
    assert single.avg_variance == 0.0
    assert single.avg_mse == pytest.approx(single.avg_bias2, abs=1e-15)
    with pytest.raises(ValueError):
        ev.regression_metrics(preds, np.zeros(3))


def test_mse_identity_property():
    gen = np.random.default_rng(13)
    for _ in range(20):
        preds = gen.standard_normal((7, 40))
        truth = gen.standard_normal(40)
        m = ev.regression_metrics(preds, truth)
        assert abs(m.avg_mse - (m.avg_bias2 + m.avg_variance)) <= 1e-8


def test_plug_in_bias2_and_its_correction():
    # predictions = truth + b(x) + i.i.d. N(0, sigma^2) noise per replication:
    # the plug-in avg_bias2 averages mean(b^2) + sigma^2/reps, and
    # avg_bias2 - avg_variance/(reps - 1) averages mean(b^2)
    gen = rng.stream(0, "bias2-correction")
    reps, points, sigma, draws = 5, 50, 1.0, 2000
    truth = np.linspace(-1.0, 1.0, points)
    offset = np.linspace(0.1, 0.5, points)
    b2 = float(np.mean(offset ** 2))
    plug_in, corrected = np.empty(draws), np.empty(draws)
    for k in range(draws):
        noise = sigma * rng.standard_normal(gen, (reps, points))
        m = ev.regression_metrics(truth + offset + noise, truth)
        plug_in[k] = m.avg_bias2
        corrected[k] = m.avg_bias2 - m.avg_variance / (reps - 1)
    for values, expected in ((plug_in, b2 + sigma ** 2 / reps), (corrected, b2)):
        se = values.std(ddof=1) / np.sqrt(draws)
        # the inflation sigma^2/reps = 0.2 is far beyond this tolerance
        assert 4.0 * se < 0.25 * sigma ** 2 / reps
        assert abs(values.mean() - expected) <= 4.0 * se


def test_classification_metrics():
    perfect = ev.classification_metrics([1, 0, 1], [1, 0, 1], [0.9, 0.1, 0.8])
    assert perfect.accuracy == perfect.f1 == perfect.auc == 1.0
    flipped = ev.classification_metrics([0, 1], [1, 0], [0.2, 0.9])
    assert flipped.accuracy == 0.0
    scores_equal_truth = ev.classification_metrics([1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1])
    assert scores_equal_truth.auc == 1.0
    one_class = ev.classification_metrics([1, 1], [1, 1], [0.9, 0.8])
    assert np.isnan(one_class.specificity)
    assert np.isnan(one_class.auc)
    assert one_class.sensitivity == 1.0


def test_auc_of_all_equal_scores_is_one_half():
    # every positive-negative pair ties, and a tie counts one half
    metrics = ev.classification_metrics([1, 0, 1, 0, 1], [1, 0, 0, 1, 1], [0.3] * 5)
    assert metrics.auc == 0.5


def test_auc_with_one_tie_across_the_classes():
    # pairs (positive, negative): (0.8, 0.5) 1, (0.8, 0.2) 1, (0.5, 0.5) 1/2,
    # (0.5, 0.2) 1, so the AUC is 3.5 / 4
    metrics = ev.classification_metrics([1, 0, 1, 0], [1, 0, 1, 0], [0.8, 0.5, 0.5, 0.2])
    assert metrics.auc == 0.875


def test_auc_ranks_ties_as_rankdata_does():
    from scipy.stats import rankdata

    gen = np.random.default_rng(11)
    for _ in range(2000):
        n = int(gen.integers(2, 60))
        scores = gen.integers(0, int(gen.integers(1, 6)), size=n) / 4.0
        y_true = gen.integers(0, 2, size=n)
        y_true[:2] = (0, 1)  # both classes present
        gen.shuffle(y_true)
        n1, n0 = int(y_true.sum()), int(n - y_true.sum())
        ranks = rankdata(scores)
        expected = (float(np.sum(ranks[y_true == 1])) - n1 * (n1 + 1) / 2.0) / (n1 * n0)
        auc = ev.classification_metrics(y_true, y_true, scores).auc
        assert auc == expected
        # the Mann-Whitney pair count, ties counting one half
        pos, neg = scores[y_true == 1], scores[y_true == 0]
        pairs = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
        assert auc == pytest.approx(pairs / (n1 * n0), rel=1e-12, abs=1e-15)


def test_run_replications_smoke_and_determinism():
    spec = ev.SimModelSpec(model_id=1, n=80, noise="normal", seed=3)
    loss = LossSpec("quadratic")
    report = ev.run_replications(spec, loss, reps=1, kappas=(0.5, 1.0), cs=(-2, -1))
    assert len(report.cells) == 4
    for cell in report.cells:
        assert all(np.isfinite(v) for v in cell.row().values())
    again = ev.run_replications(spec, loss, reps=1, kappas=(0.5, 1.0), cs=(-2, -1))
    assert report.to_csv() == again.to_csv()
    assert report.cell(0.5, -2).m == 0
    assert [(c.kappa, c.c) for c in report.cells] == [(0.5, -2), (1.0, -2), (0.5, -1), (1.0, -1)]


def test_run_replications_labels_each_fit_with_its_cell(monkeypatch):
    seen = []
    fit = ev.adam_fit

    def recording_fit(Phi, y, config):
        seen.append((config.kappa, config.c_offset, Phi.shape[1]))
        return fit(Phi, y, config)

    monkeypatch.setattr(ev, "adam_fit", recording_fit)
    spec = ev.SimModelSpec(model_id=1, n=60, noise="normal", seed=3)
    ev.run_replications(spec, LossSpec("quadratic"), reps=1, kappas=(0.5, 1.0), cs=(-1, 0))
    # the largest basis is fitted first
    assert seen == [(0.5, 0, 112), (1.0, 0, 112), (0.5, -1, 32), (1.0, -1, 32)]


def test_run_replications_reports_in_cs_order_whatever_the_fit_order(monkeypatch):
    # at n = 80 the schedule gives m = 1 at c = 0 and m = 0 at c = -2 and -1:
    # c = 0 is fitted first, the tie keeps its cs order, and every row is
    # the one a simulation of its c alone reports
    fitted = []
    fit = ev.adam_fit
    monkeypatch.setattr(ev, "adam_fit", lambda Phi, y, config: fitted.append(config.c_offset)
                        or fit(Phi, y, config))
    spec = ev.SimModelSpec(model_id=1, n=80, noise="normal", seed=5)
    loss = LossSpec("huber", delta=1.0)
    kappas, cs = (0.5, 1.0), (0, -2, -1)
    report = ev.run_replications(spec, loss, reps=2, kappas=kappas, cs=cs)
    assert fitted == [0] * 4 + [-2] * 4 + [-1] * 4
    assert [(cell.kappa, cell.c) for cell in report.cells] == [(k, c) for c in cs for k in kappas]
    header, *rows = report.to_csv().splitlines()[1:]
    alone = [ev.run_replications(spec, loss, reps=2, kappas=kappas, cs=(c,)).to_csv().splitlines()
             for c in cs]
    assert all(lines[1] == header for lines in alone)
    assert rows == [row for lines in alone for row in lines[2:]]


def test_run_replications_builds_only_training_matrices(monkeypatch):
    from sdrn.estimator import FeatureMap

    seen = []
    original = FeatureMap.__call__

    def recording(self, X01):
        seen.append(np.array(X01))
        return original(self, X01)

    monkeypatch.setattr(FeatureMap, "__call__", recording)
    spec = ev.SimModelSpec(model_id=1, n=60, noise="normal", seed=3)
    ev.run_replications(spec, LossSpec("quadratic"), reps=2, kappas=(0.5, 1.0), cs=(-1, 0))
    monkeypatch.undo()
    # one matrix per (c, rep), of that replication's training draw; the
    # evaluation design is scored without one
    training = [ev.generate(spec, rep)[0] for rep in range(2)]
    assert len(seen) == 4
    assert all(np.array_equal(X, training[i % 2]) for i, X in enumerate(seen))


def test_run_replications_classification_columns():
    spec = ev.SimModelSpec(model_id=4, n=60, seed=4)
    report = ev.run_replications(spec, LossSpec("logistic"), reps=1, kappas=(1.0,), cs=(-2,))
    names = list(report.cells[0].row())
    assert names == ["kappa", "c", "m", "R", "accuracy", "sensitivity", "specificity",
                     "precision", "recall", "f1", "auc"]


def test_run_replications_error_identifies_cell():
    spec = ev.SimModelSpec(model_id=1, n=50, noise="normal", seed=3)
    logistic = LossSpec("logistic")  # continuous y: invalid
    with pytest.raises(DataError, match=r"kappa=1.0, c=-2, rep=0"):
        ev.run_replications(spec, logistic, reps=1, kappas=(1.0,), cs=(-2,))


def test_run_replications_owns_the_reps_limit():
    spec = ev.SimModelSpec(model_id=1, n=50, noise="normal", seed=3)
    with pytest.raises(DataError, match="reps must be >= 1, got 0"):
        ev.run_replications(spec, LossSpec("quadratic"), reps=0, kappas=(1.0,), cs=(-2,))


def _class_rates(calls, truth_class, scores):
    """(accuracy, sensitivity, specificity, precision, recall, f1, AUC) of one
    replication, counted from the confusion matrix and the Mann-Whitney pairs."""
    tp = np.sum(calls & truth_class)
    tn = np.sum(~calls & ~truth_class)
    fp = np.sum(calls & ~truth_class)
    fn = np.sum(~calls & truth_class)
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    pos, neg = scores[truth_class], scores[~truth_class]
    pairs = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return ((tp + tn) / len(calls), recall, tn / (tn + fp), precision, recall,
            2.0 * precision * recall / (precision + recall), pairs / (len(pos) * len(neg)))


@pytest.mark.parametrize(
    "model_id, loss, c", [(1, "huber:1.0", 0), (4, "logistic", -1), (4, "quadratic", -1)]
)
def test_run_replications_matches_an_independent_recomputation(model_id, loss, c):
    from dataclasses import astuple

    from sdrn.estimator import hyperparams_from_n
    from sdrn.losses import sigmoid
    from sdrn.relu_product import product_features, product_plan
    from sdrn.sparse_grid import enumerate_basis

    spec = ev.SimModelSpec(model_id=model_id, n=150, seed=6)
    kappas, reps = (0.5, 2.0), 3
    report = ev.run_replications(spec, LossSpec.parse(loss), reps=reps, kappas=kappas, cs=(c,))
    m, R = hyperparams_from_n(spec.n, c)
    basis = enumerate_basis(spec.dimension, m)
    plan = product_plan(basis.levels, basis.nodes)
    points, truth = ev.design(spec)
    samples = [ev.generate(spec, rep) for rep in range(reps)]
    for kappa in kappas:
        scores = []
        for X, y in samples:
            Phi = product_features(R, plan, X)
            gamma, _ = ev.adam_fit(Phi, y, FitConfig(loss=LossSpec.parse(loss), kappa=kappa))
            scores.append(product_features(R, plan, points) @ gamma)
        P = np.array(scores)
        metrics = astuple(report.cell(kappa, c).metrics)
        if model_id != 4:
            mean = P.mean(axis=0)
            expected = (np.mean((mean - truth) ** 2), np.mean((P - mean) ** 2),
                        np.mean((P - truth) ** 2))
            assert metrics == pytest.approx(expected, rel=1e-12, abs=0.0)
            continue
        # the logistic score is log-odds; the other losses estimate P(Y = 1 | x)
        probs = sigmoid(P) if loss == "logistic" else P
        assert np.min(np.abs(probs - 0.5)) > 1e-9
        truth_class = truth >= 0.5
        per_rep = np.array([_class_rates(prob >= 0.5, truth_class, prob) for prob in probs])
        assert metrics[:6] == tuple(float(np.mean(column)) for column in per_rep[:, :6].T)
        n1 = int(truth_class.sum())
        assert metrics[6] == pytest.approx(per_rep[:, 6].mean(), rel=0.0,
                                           abs=1.0 / (n1 * (len(truth) - n1)))


def test_model4_non_logistic_fits_call_both_classes():
    # a quadratic score estimates P(Y = 1 | x); its sigmoid is above 1/2
    # wherever that estimate is positive, which called almost every point 1
    spec = ev.SimModelSpec(model_id=4, n=400, seed=0)
    report = ev.run_replications(spec, LossSpec("quadratic"), reps=2, kappas=(1.0,), cs=(0,))
    metrics = report.cell(1.0, 0).metrics
    assert metrics.accuracy > 0.7 and metrics.specificity > 0.8 and metrics.sensitivity > 0.5


def test_model4_rates_average_over_the_replications_that_define_them(monkeypatch):
    # at kappa = 1.0, c = -1 the third replication calls no point 1, so it
    # has no precision and no f1; the other two define both
    per_rep = []
    metrics = ev.classification_metrics

    def recording(*args):
        result = metrics(*args)
        per_rep.append(astuple(result))
        return result

    monkeypatch.setattr(ev, "classification_metrics", recording)
    spec = ev.SimModelSpec(model_id=4, n=300, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ev.run_replications(spec, LossSpec("logistic"), reps=3, kappas=(1.0,), cs=(-1,))
    columns = np.array(per_rep).T
    assert [np.isnan(column).sum() for column in columns] == [0, 0, 0, 1, 0, 1, 0]
    for column, value in zip(columns, astuple(report.cell(1.0, -1).metrics)):
        assert value == float(np.mean(column[~np.isnan(column)]))


def test_model4_rate_means_keep_their_bits(monkeypatch):
    # ten replications with made-up rates: a column without nan is np.mean
    # of the column, one with nan the mean of the rest, one without a
    # defined value nan, and none of them warns
    gen = np.random.default_rng(8)
    rates = gen.random((10, 7))
    rates[[2, 7], 3] = np.nan
    rates[:, 5] = np.nan
    made = iter(rates)
    monkeypatch.setattr(ev, "classification_metrics",
                        lambda *args: ev.ClassificationMetrics(*next(made)))
    spec = ev.SimModelSpec(model_id=4, n=60, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ev.run_replications(spec, LossSpec("logistic"), reps=10, kappas=(1.0,), cs=(-2,))
    means = astuple(report.cells[0].metrics)
    for j in (0, 1, 2, 4, 6):
        assert means[j] == float(np.mean(rates[:, j]))
    assert means[3] == float(np.mean(np.delete(rates[:, 3], [2, 7])))
    assert np.isnan(means[5])


def test_cardinality_table_against_enumeration():
    from sdrn.sparse_grid import basis_size

    for d, row in ev.CARDINALITY_TABLE.items():
        for m, expected in enumerate(row):
            assert basis_size(d, m) == expected


def test_product_sweep_draws_are_valid_ids_and_reproducible():
    for d in (1, 2, 5):
        gen = rng.stream(0, "product-sweep")
        levels, nodes, X = ev._product_sweep_draws(gen, d, 500)
        assert levels.shape == nodes.shape == X.shape == (500, d)
        assert np.all((levels.sum(axis=1) >= 0) & (levels.sum(axis=1) <= 4))
        for l, s in zip(levels.ravel().tolist(), nodes.ravel().tolist()):
            assert s in index_set(l)
        assert np.all((X >= 0.0) & (X < 1.0))
        again = ev._product_sweep_draws(rng.stream(0, "product-sweep"), d, 500)
        assert all(np.array_equal(a, b) for a, b in zip((levels, nodes, X), again))


def test_product_sweep_draws_are_uniform():
    levels, nodes, _ = ev._product_sweep_draws(rng.stream(1, "uniformity"), 3, 20_000)
    # the level sum is uniform on 0..4, and each unit lands on a uniform coordinate
    assert chisquare(np.bincount(levels.sum(axis=1), minlength=5)).pvalue > 1e-3
    assert chisquare(levels.sum(axis=0)).pvalue > 1e-3
    # the node is uniform over its level's index set (level 1 has one node)
    for level in (0, 2, 3, 4):
        at = nodes[levels == level]
        positions = [index_set(level).index(s) for s in at.tolist()]
        counts = np.bincount(positions, minlength=len(index_set(level)))
        assert len(at) > 100 and chisquare(counts).pvalue > 1e-3


def test_verify_bounds_default_sweep():
    report = ev.verify_bounds()
    assert report.all_passed
    names = [c.name for c in report.checks]
    # 35 table, 49 sandwich, 8 square, 6 pair, 15 product, 6 interp-decay,
    # 4 interp-ratio and 5 coefficient-envelope rows
    assert len(names) == 128
    envelope = [c for c in report.checks if c.name.startswith("coefficient-envelope")]
    assert [c.name for c in envelope] == [f"coefficient-envelope m={m}" for m in range(2, 7)]
    for c in envelope:
        # max over interior ids of 1.5 * 2**(-|l|/2), reached at |l| = 2
        assert c.asserted and c.bound == 1.0 and c.measured == pytest.approx(0.75, rel=1e-14)
    assert "cardinality-table d=2 m=2" in names
    assert any(n.startswith("square R=1") for n in names)
    # m=0 sandwich rows are present but not asserted
    m0 = [c for c in report.checks if c.name.endswith("m=0") and "sandwich" in c.name]
    assert m0 and all(not c.asserted for c in m0)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "name,measured,bound,passed,asserted,note"
    # each row re-judged from its text as the benchmark's rows-rejudged check
    # reads bounds.csv: lower from the note, or -inf without one
    rows = [line.split(",", 5) for line in csv_text.splitlines()[1:]]
    assert len(rows) == 128
    for name, measured, bound, passed, asserted, note in rows:
        measured, bound = float(measured), float(bound)
        lower = float(note.removeprefix("lower=")) if note else -math.inf
        assert passed == str(int(lower <= measured <= bound)), name
        if name.startswith("cardinality-table"):
            assert measured == bound, name


def test_bound_check_passes_from_lower_to_bound():
    # the verdict and the note are derived, not stored
    stored = [f.name for f in fields(ev.BoundCheck)]
    assert stored == ["name", "measured", "bound", "lower", "asserted"]
    assert not ev.BoundCheck("nan", math.nan, 1.0).passed
    # an exact count: lower == bound, and no note
    exact = [ev.BoundCheck("table", value, 81.0, lower=81.0) for value in (80.0, 81.0, 82.0)]
    assert [c.passed for c in exact] == [False, True, False]
    assert all(c.note == "" for c in exact)
    assert not ev.BoundCheck("ratio", 2.9, 5.5, lower=3.0).passed
    window = ev.BoundCheck("ratio", 3.0, 5.5, lower=3.0)
    assert window.passed and window.note == "lower=3.0"
    one_sided = ev.BoundCheck("square", 0.01, 0.25)
    assert one_sided.passed and one_sided.note == ""
