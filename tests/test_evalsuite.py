import numpy as np
import pytest
from scipy.special import expit

from sdrn import evalsuite as ev
from sdrn import rng
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


def test_laplace_noise_moments():
    gen = rng.stream(0, "laplace-moments")
    draws = rng.standard_laplace(gen, 10 ** 6)
    assert abs(draws.var() - 2.0) / 2.0 <= 0.02
    assert abs(draws.mean()) <= 0.01


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
    a = ev.generate(spec, rep=0)
    b = ev.generate(spec, rep=0)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = ev.generate(spec, rep=1)
    assert not np.array_equal(a.y, c.y)
    assert np.array_equal(a.eval_points, c.eval_points)  # design shared across reps
    test_role = ev.generate(spec, rep=0, role="test")
    assert not np.array_equal(a.X, test_role.X)
    clean = ev.generate(ev.SimModelSpec(model_id=1, n=64, noise="none", seed=5))
    assert np.array_equal(clean.y, ev.true_regression(1, clean.X))
    labels = ev.generate(ev.SimModelSpec(model_id=4, n=64, seed=5))
    assert set(np.unique(labels.y)) <= {0.0, 1.0}


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


def test_run_replications_smoke_and_determinism():
    spec = ev.SimModelSpec(model_id=1, n=80, noise="normal", seed=3)
    cfg = FitConfig(loss=LossSpec("quadratic"), epochs=60, tol=1e-6)
    report = ev.run_replications(spec, cfg, reps=1, kappas=(0.5, 1.0), cs=(-2, -1))
    assert len(report.cells) == 4
    for cell in report.cells:
        values = cell.metrics.as_dict()
        assert all(np.isfinite(v) for v in values.values())
    again = ev.run_replications(spec, cfg, reps=1, kappas=(0.5, 1.0), cs=(-2, -1))
    assert report.to_csv() == again.to_csv()
    assert report.cell(0.5, -2).m == 0
    assert report.best_cell().metrics.avg_mse == min(
        c.metrics.avg_mse for c in report.cells
    )


def test_run_replications_labels_each_fit_with_its_cell(monkeypatch):
    seen = []
    fit = ev.adam_fit

    def recording_fit(Phi, y, config):
        seen.append((config.kappa, config.c_offset, Phi.shape[1]))
        return fit(Phi, y, config)

    monkeypatch.setattr(ev, "adam_fit", recording_fit)
    spec = ev.SimModelSpec(model_id=1, n=60, noise="normal", seed=3)
    ev.run_replications(spec, FitConfig(loss=LossSpec("quadratic")), reps=1,
                        kappas=(0.5, 1.0), cs=(-1, 0))
    assert seen == [(0.5, -1, 32), (1.0, -1, 32), (0.5, 0, 112), (1.0, 0, 112)]


def test_run_replications_classification_columns():
    spec = ev.SimModelSpec(model_id=4, n=60, seed=4)
    cfg = FitConfig(loss=LossSpec("logistic"), epochs=40, tol=1e-6)
    report = ev.run_replications(spec, cfg, reps=1, kappas=(1.0,), cs=(-2,))
    names = report.metric_names()
    assert "accuracy" in names and "auc" in names
    assert "avg_mse" not in names


def test_run_replications_error_identifies_cell():
    spec = ev.SimModelSpec(model_id=1, n=50, noise="normal", seed=3)
    cfg = FitConfig(loss=LossSpec("logistic"), epochs=10)  # continuous y: invalid
    with pytest.raises(RuntimeError, match=r"kappa=1.0, c=-2, rep=0"):
        ev.run_replications(spec, cfg, reps=1, kappas=(1.0,), cs=(-2,))


def test_cardinality_table_against_enumeration():
    from sdrn.sparse_grid import basis_size

    for d, row in ev.CARDINALITY_TABLE.items():
        for m, expected in enumerate(row):
            assert basis_size(d, m) == expected


def test_verify_bounds_light_config():
    cfg = ev.BoundConfig(
        square_grid=2001,
        square_rs=(1, 3),
        pair_grid=51,
        pair_rs=(1, 2),
        product_dims=(2, 3),
        product_rs=(2,),
        product_points=100,
        interp_ms=(1, 2, 3),
        mc_points=4000,
    )
    report = ev.verify_bounds(cfg)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "cardinality-table d=2 m=2" in names
    assert any(n.startswith("square R=1") for n in names)
    # m=0 sandwich rows are present but not asserted
    m0 = [c for c in report.checks if c.name.endswith("m=0") and "sandwich" in c.name]
    assert m0 and all(not c.asserted for c in m0)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "name,measured,bound,passed,asserted,note"
