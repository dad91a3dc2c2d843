import json

import numpy as np
import pytest
from scipy.optimize import minimize

from sdrn import estimator as est
from sdrn.losses import LossInputError, LossSpec, loss_value
from sdrn import relu_product as rp
from sdrn.relu_product import approx_basis_eval
from sdrn.sparse_grid import enumerate_basis, tensor_hat_eval

QUADRATIC = LossSpec("quadratic")
HUBER = LossSpec("huber", delta=1.0)
QUANTILE = LossSpec("quantile", tau=0.3)
LOGISTIC = LossSpec("logistic")


def test_hyperparams_schedule():
    assert est.hyperparams_from_n(2000, 0) == (2, 6)
    assert est.hyperparams_from_n(2000, -2) == (0, 6)
    assert est.hyperparams_from_n(5000, 1) == (3, 9)
    with pytest.raises(ValueError):
        est.hyperparams_from_n(1, 0)


def test_scale_covariates():
    X = np.array([[2.0, 0.1], [4.0, 0.9], [6.0, 0.5]])
    scaler = est.Scaler.fit(X)
    scaled = scaler.transform(X)
    assert np.allclose(scaled[:, 0], [0.0, 0.5, 1.0])
    assert np.max(np.abs(scaled[:, 1] - np.array([0.0, 1.0, 0.5]))) <= 1e-12
    # unit-range column is unchanged
    X2 = np.array([[0.0], [1.0], [0.25]])
    scaled2 = est.Scaler.fit(X2).transform(X2)
    assert np.max(np.abs(scaled2[:, 0] - X2[:, 0])) <= 1e-12
    # values beyond the training range clamp to the cube
    assert scaler.transform(np.array([[0.0, 0.5]]))[0, 0] == 0.0
    assert scaler.transform(np.array([[9.0, 0.5]]))[0, 0] == 1.0
    with pytest.raises(est.ConstantColumnError):
        est.Scaler.fit(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_feature_matrix_corner_row():
    fmap = est.FeatureMap(basis=enumerate_basis(2, 0), R=2)
    row = fmap(np.array([[0.0, 0.0]]))
    exact = np.array([1.0, 0.0, 0.0, 0.0])
    assert row.shape == (1, 4)
    assert np.max(np.abs(row[0] - exact)) <= 3.0 * 2.0 ** -6
    assert fmap(np.empty((0, 2))).shape == (0, 4)
    with pytest.raises(ValueError):
        fmap(np.zeros((3, 5)))


def test_feature_matrix_matches_per_id_evaluation():
    gen = np.random.default_rng(1)
    basis = enumerate_basis(3, 3)
    fmap = est.FeatureMap(basis=basis, R=5)
    X = gen.random((40, 3))
    Phi = fmap(X)
    for col in range(0, len(basis), 17):
        direct = approx_basis_eval(5, basis[col], X)
        assert np.all(Phi[:, col] == direct)


def test_feature_matrix_high_r_approaches_exact_tensor():
    gen = np.random.default_rng(2)
    basis = enumerate_basis(4, 2)
    fmap = est.FeatureMap(basis=basis, R=12)
    X = gen.random((30, 4))
    Phi = fmap(X)
    exact = np.column_stack([tensor_hat_eval(bid, X) for bid in basis])
    assert np.max(np.abs(Phi - exact)) <= 3.0 * 2.0 ** -26 * 3


def test_feature_map_matches_graph_twins_across_row_blocks(monkeypatch):
    # a small block budget splits 257 rows (a prime) into several blocks,
    # the last one partial
    gen = np.random.default_rng(9)
    X = gen.random((257, 5))
    for d, m in ((1, 3), (2, 3), (3, 2), (5, 1)):
        fmap = est.FeatureMap(basis=enumerate_basis(d, m), R=4)
        whole = fmap(X[:, :d])
        monkeypatch.setattr(rp, "_BLOCK_CELLS", 1000)
        Phi = fmap(X[:, :d])
        monkeypatch.undo()
        assert np.array_equal(Phi, whole)
        for col, bid in enumerate(fmap.basis):
            twin = rp.build_basis_network(4, bid).eval(X[:, :d])
            assert np.max(np.abs(Phi[:, col] - twin)) <= 1e-12


def test_objective_examples():
    Phi = np.array([[1.0], [1.0]])
    y = np.array([1.0, 1.0])
    assert est.objective(np.zeros(1), Phi, y, QUADRATIC, 0.0) == 2.0
    assert est.objective(np.zeros(1), Phi, y, LossSpec("huber", delta=1.0), 5.0) == 1.0
    with pytest.raises(ValueError):
        est.objective(np.zeros(2), Phi, y, QUADRATIC, 0.0)
    with pytest.raises(ValueError):
        est.objective(np.zeros(1), Phi, y, QUADRATIC, -1.0)


def test_objective_matches_bruteforce():
    gen = np.random.default_rng(3)
    for spec in (QUADRATIC, LossSpec("huber", delta=0.7), LossSpec("quantile", tau=0.3)):
        Phi = gen.standard_normal((20, 6))
        y = gen.standard_normal(20)
        gamma = gen.standard_normal(6)
        lam = 1.7
        total = 0.0
        for i in range(20):
            pred = float(np.dot(Phi[i], gamma))
            total += float(loss_value(spec, pred, y[i]))
        total += 0.5 * lam * float(np.sum(gamma ** 2))
        assert abs(est.objective(gamma, Phi, y, spec, lam) - total) <= 1e-10


def test_gradient_matches_finite_differences():
    gen = np.random.default_rng(4)
    h = 1e-6
    specs = [QUADRATIC, LossSpec("huber", delta=1.0), LossSpec("quantile", tau=0.4), LossSpec("logistic")]
    for spec in specs:
        for _ in range(100):
            Phi = gen.uniform(0, 1, (15, 5))
            if spec.kind == "logistic":
                y = gen.integers(0, 2, 15).astype(float)
            else:
                y = gen.standard_normal(15)
            gamma = gen.uniform(-0.5, 0.5, 5)
            if spec.kind == "quantile":
                resid = y - Phi @ gamma
                if np.min(np.abs(resid)) < 1e-4:
                    continue
            lam = 0.9
            grad = est.objective_gradient(gamma, Phi, y, spec, lam)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd = (
                    est.objective(gamma + e, Phi, y, spec, lam)
                    - est.objective(gamma - e, Phi, y, spec, lam)
                ) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(grad[k] - fd) / scale <= 1e-5


def test_adam_rejects_zero_epochs():
    cfg = est.FitConfig(loss=QUADRATIC, epochs=0)
    with pytest.raises(ValueError):
        est.adam_fit(np.ones((2, 1)), np.ones(2), cfg)


def test_adam_nonfinite_aborts():
    for loss in (QUADRATIC, HUBER, QUANTILE, LOGISTIC):
        cfg = est.FitConfig(loss=loss, epochs=10)
        with pytest.raises(est.NonFiniteObjectiveError):
            est.adam_fit(np.ones((2, 1)), np.array([np.inf, 1.0]), cfg)


def _problem(loss, n, p, seed=0):
    gen = np.random.default_rng(seed)
    Phi = gen.random((n, p))
    if loss.kind == "logistic":
        y = (gen.random(n) < 0.5).astype(float)
    else:
        # outliers put some Huber residuals beyond delta
        y = Phi @ gen.standard_normal(p) + 2.0 * gen.standard_normal(n)
    return Phi, y


def _scipy_minimiser(Phi, y, loss, kappa):
    """BFGS on the smooth risks; for the quantile risk SLSQP on its dual
    max a'y - |Phi'a|^2/(2 kappa) over the box [tau - 1, tau]^n, whose
    value is a lower bound on the minimum."""
    if loss.kind == "quantile":
        def negative_dual(a):
            g = Phi.T @ a
            return -(a @ y - g @ g / (2.0 * kappa)), -(y - Phi @ g / kappa)

        res = minimize(negative_dual, np.full(len(y), loss.tau - 0.5), jac=True,
                       method="SLSQP", bounds=[(loss.tau - 1.0, loss.tau)] * len(y),
                       options={"maxiter": 1000, "ftol": 1e-16})
        return Phi.T @ res.x / kappa, -res.fun

    def risk(g):
        return (est.objective(g, Phi, y, loss, kappa),
                est.objective_gradient(g, Phi, y, loss, kappa))

    res = minimize(risk, np.zeros(Phi.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 10_000})
    return res.x, res.fun


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC, QUANTILE], ids=lambda loss: loss.kind)
@pytest.mark.parametrize("n, p", [(40, 12), (25, 40)], ids=["p<n", "p>n"])
def test_exact_fits_match_scipy_optimize(loss, n, p):
    Phi, y = _problem(loss, n, p)
    kappa = 0.5
    cfg = est.FitConfig(loss=loss, kappa=kappa)
    gamma, diag = est.adam_fit(Phi, y, cfg)
    reference, value = _scipy_minimiser(Phi, y, loss, kappa)
    assert np.max(np.abs(gamma - reference)) <= 1e-6
    assert abs(diag.final_objective - value) <= 1e-9 * value
    assert diag.final_objective == est.objective(gamma, Phi, y, loss, kappa)
    assert diag.converged and 0.0 <= diag.certificate <= cfg.tol
    assert 1 <= diag.epochs_run < cfg.epochs


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC, QUANTILE], ids=lambda loss: loss.kind)
def test_exact_fits_are_bitwise_repeatable(loss):
    for n, p in ((40, 12), (25, 40)):
        Phi, y = _problem(loss, n, p, seed=5)
        cfg = est.FitConfig(loss=loss, kappa=0.7)
        g1, d1 = est.adam_fit(Phi, y, cfg)
        g2, d2 = est.adam_fit(Phi.copy(), y.copy(), cfg)
        assert np.array_equal(g1, g2)
        assert (d1.final_objective, d1.epochs_run, d1.certificate) == (
            d2.final_objective, d2.epochs_run, d2.certificate)


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC, QUANTILE], ids=lambda loss: loss.kind)
def test_one_iteration_cap_stops_unconverged(loss):
    Phi, y = _problem(loss, 40, 12, seed=6)
    gamma, diag = est.adam_fit(Phi, y, est.FitConfig(loss=loss, kappa=0.5, epochs=1))
    assert diag.epochs_run == 1 and not diag.converged
    assert diag.certificate > 1e-12
    if loss.kind != "quantile":
        # a damped Newton step descends; an interior-point iterate need not
        assert diag.final_objective < est.objective(np.zeros(12), Phi, y, loss, 0.5)


def test_non_quadratic_losses_need_positive_kappa():
    for loss in (HUBER, LOGISTIC, QUANTILE):
        with pytest.raises(LossInputError):
            est.FitConfig(loss=loss, kappa=0.0)
    assert est.FitConfig(loss=QUADRATIC, kappa=0.0).kappa == 0.0


def test_adam_matches_ridge_closed_form():
    # primal Gram for p < n, dual Gram for p > n
    gen = np.random.default_rng(7)
    for n, p in ((50, 20), (20, 50)):
        Phi = gen.random((n, p))
        y = gen.standard_normal(n)
        for lam in (0.5, 2.0):
            closed = np.linalg.solve(2.0 * Phi.T @ Phi + lam * np.eye(p), 2.0 * Phi.T @ y)
            gamma, diag = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=lam))
            assert np.max(np.abs(gamma - closed)) <= 1e-10
            assert diag.epochs_run == 0 and diag.converged
            assert diag.final_objective == est.objective(gamma, Phi, y, QUADRATIC, lam)


def test_quadratic_fit_at_kappa_zero_is_minimum_norm():
    gen = np.random.default_rng(13)
    Phi = gen.random((15, 40))
    y = gen.standard_normal(15)
    gamma, _ = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=0.0))
    assert np.max(np.abs(gamma - np.linalg.pinv(Phi) @ y)) <= 1e-10


def test_adam_deterministic():
    gen = np.random.default_rng(9)
    Phi = gen.random((30, 8))
    y = gen.standard_normal(30)
    cfg = est.FitConfig(loss=LossSpec("huber", delta=1.0), kappa=0.5, epochs=200)
    g1, _ = est.adam_fit(Phi, y, cfg)
    g2, _ = est.adam_fit(Phi, y, cfg)
    assert np.all(g1 == g2)
    # the exact quadratic solve, on the primal (p < n) and the dual (p > n) Gram
    for n, p in ((60, 25), (25, 60)):
        Phi = gen.random((n, p))
        y = gen.standard_normal(n)
        exact = est.FitConfig(loss=QUADRATIC, kappa=0.7)
        g5, _ = est.adam_fit(Phi, y, exact)
        g6, _ = est.adam_fit(Phi.copy(), y.copy(), exact)
        assert np.array_equal(g5, g6)


def test_unpenalized_equals_kappa_zero():
    gen = np.random.default_rng(10)
    Phi = gen.random((25, 5))
    y = gen.standard_normal(25)
    a, _ = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=0.0, epochs=300))
    b, _ = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=0.0, epochs=300))
    assert np.all(a == b)


def _small_model(loss=QUADRATIC, n=60, seed=11):
    gen = np.random.default_rng(seed)
    X = gen.uniform(0.0, 2.0, (n, 2))
    if loss.kind == "logistic":
        y = (gen.random(n) < 0.5).astype(float)
    else:
        y = np.sin(X[:, 0]) + X[:, 1] + 0.1 * gen.standard_normal(n)
    cfg = est.FitConfig(loss=loss, kappa=1.0, epochs=400)
    return est.fit_sdrn(X, y, cfg, m=1, R=4, column_names=("a", "b")), X


def test_fit_predict_and_one_hot():
    model, X = _small_model()
    assert len(model.gamma) == len(enumerate_basis(2, 1))
    # a one-hot coefficient vector turns prediction into a single feature value
    k = 5
    one_hot = np.zeros_like(model.gamma)
    one_hot[k] = 1.0
    probe = est.SdrnModel(
        gamma=one_hot,
        d=2,
        m=1,
        R=4,
        loss=QUADRATIC,
        kappa=1.0,
        scaler=model.scaler,
    )
    pts = X[:7]
    fmap = probe.feature_map()
    expected = fmap(model.scaler.transform(pts))[:, k]
    assert np.all(probe.predict(pts) == expected)


def test_model_json_round_trip_bitwise():
    model, _ = _small_model()
    doc = json.loads(json.dumps(model.to_json()))
    clone = est.SdrnModel.from_json(doc)
    gen = np.random.default_rng(12)
    pts = gen.uniform(-0.5, 2.5, (1000, 2))
    assert np.all(model.predict(pts) == clone.predict(pts))


def test_model_schema_version_guard():
    model, _ = _small_model()
    doc = model.to_json()
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        est.SdrnModel.from_json(doc)


def test_model_from_json_rejects_inconsistent_files():
    model, _ = _small_model()
    good = model.to_json()
    est.SdrnModel.from_json(good)
    edits = (
        lambda doc: doc["gamma"].append(0.0),
        lambda doc: doc["scaler"]["max"].pop(),
        lambda doc: doc.update(columns=["a"]),
        lambda doc: doc.update(m=-1),
        lambda doc: doc.update(R=0),
        lambda doc: doc["scaler"]["min"].__setitem__(1, float("-inf")),
        lambda doc: doc["gamma"].__setitem__(3, float("inf")),
    )
    for edit in edits:
        doc = json.loads(json.dumps(good))
        edit(doc)
        with pytest.raises(ValueError):
            est.SdrnModel.from_json(doc)


def test_logistic_prediction_threshold():
    model, X = _small_model(loss=LossSpec("logistic"))
    model.gamma[:] = 0.0  # score 0 everywhere: sigmoid = 0.5, ties go to class 1
    assert np.all(model.predict_class(X[:5]) == 1)
    probs = model.predict_proba(X[:5])
    assert np.all(probs == 0.5)
    plain, _ = _small_model()
    with pytest.raises(ValueError):
        plain.predict_proba(X[:3])


def test_fit_sup_norm_diagnostic():
    model, X = _small_model()
    train_preds = model.predict(X)
    assert model.diagnostics.sup_norm == pytest.approx(np.max(np.abs(train_preds)), rel=1e-12)
