import dataclasses
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sdrn import DataError
from sdrn import estimator as est
from sdrn.losses import LossInputError, LossSpec, loss_subgradient, loss_value, sigmoid
from sdrn import relu_product as rp
from sdrn.relu_product import approx_basis_eval
from sdrn.sparse_grid import enumerate_basis, tensor_hat_eval

import solver_stress

QUADRATIC = LossSpec("quadratic")
HUBER = LossSpec("huber", delta=1.0)
QUANTILE = LossSpec("quantile", tau=0.3)
LOGISTIC = LossSpec("logistic")


def test_hyperparams_schedule():
    assert est.hyperparams_from_n(2000, 0) == (2, 6)
    assert est.hyperparams_from_n(2000, -2) == (0, 6)
    assert est.hyperparams_from_n(5000, 1) == (3, 9)
    # below 32 samples the base level is 0; R keeps its floor of 3
    assert est.hyperparams_from_n(31, 0) == (0, 3)
    assert est.hyperparams_from_n(2, -1) == (0, 3)
    assert est.hyperparams_from_n(32, 0) == (1, 3)
    with pytest.raises(ValueError):
        est.hyperparams_from_n(1, 0)


def test_hyperparams_own_the_sample_size_limit():
    # fit_sdrn asks the schedule first, so a fit of one row is refused here
    with pytest.raises(DataError, match="sample size must be >= 2, got 1"):
        est.hyperparams_from_n(1)
    with pytest.raises(DataError, match="sample size must be >= 2, got 1"):
        est.fit_sdrn(np.array([[0.5]]), np.array([1.0]), est.FitConfig(loss=LossSpec("quadratic")))


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
    # no rows: sdrn's refusal naming the row count, not numpy's empty reduction
    with pytest.raises(DataError, match=r"at least one row, got shape \(0, 3\)"):
        est.Scaler.fit(np.empty((0, 3)))


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


def test_feature_map_plans_its_trees_once(monkeypatch):
    calls = []
    original = est.product_plan

    def counting(levels, nodes):
        calls.append(len(levels))
        return original(levels, nodes)

    monkeypatch.setattr(est, "product_plan", counting)
    gen = np.random.default_rng(10)
    basis = enumerate_basis(3, 2)
    fmap = est.FeatureMap(basis=basis, R=5)
    X, coef = gen.random((50, 3)), gen.standard_normal(len(basis))
    Phi, scores = fmap(X), fmap.scores(X, coef)
    assert fmap(X[:7]).tobytes() == Phi[:7].tobytes()
    assert calls == [len(basis)]
    # the cached plan and a fresh one agree bitwise
    plan = rp.product_plan(basis.levels, basis.nodes)
    assert Phi.tobytes() == rp.product_features(5, plan, X).tobytes()
    assert scores.tobytes() == rp.product_scores(5, plan, X, coef).tobytes()


def test_feature_map_matches_graph_twins_across_row_blocks(monkeypatch):
    # a small block budget splits 257 rows (a prime) into several blocks,
    # the last one partial
    gen = np.random.default_rng(9)
    X = gen.random((257, 5))
    for d, m in ((1, 3), (2, 3), (3, 2), (5, 1)):
        fmap = est.FeatureMap(basis=enumerate_basis(d, m), R=4)
        whole = fmap(X[:, :d])
        monkeypatch.setattr(rp, "_BLOCK_CELLS", 1000)
        # a new map: the block size is planned with the trees
        Phi = est.FeatureMap(basis=fmap.basis, R=4)(X[:, :d])
        monkeypatch.undo()
        assert np.array_equal(Phi, whole)
        for col, bid in enumerate(fmap.basis):
            twin = rp.build_basis_network(4, bid).eval(X[:, :d])
            assert np.max(np.abs(Phi[:, col] - twin)) <= 1e-12


def _objective(gamma, Phi, y, loss, lambda_star):
    """Penalised empirical risk ``sum_i loss(Phi_i . gamma, y_i) +
    lambda_star/2 |gamma|^2``, summed as the fit sums its final objective."""
    gamma = np.asarray(gamma, dtype=float)
    if Phi.shape[1] != gamma.shape[0] or Phi.shape[0] != np.shape(y)[0]:
        raise ValueError(f"shape mismatch: Phi {Phi.shape}, gamma {gamma.shape}, y {np.shape(y)}")
    if lambda_star < 0:
        raise ValueError("lambda_star must be nonnegative")
    return float(np.sum(loss_value(loss, Phi @ gamma, y))) + 0.5 * lambda_star * est._sq(gamma)


def test_objective_examples():
    Phi = np.array([[1.0], [1.0]])
    y = np.array([1.0, 1.0])
    assert _objective(np.zeros(1), Phi, y, QUADRATIC, 0.0) == 2.0
    assert _objective(np.zeros(1), Phi, y, LossSpec("huber", delta=1.0), 5.0) == 1.0
    with pytest.raises(ValueError):
        _objective(np.zeros(2), Phi, y, QUADRATIC, 0.0)
    with pytest.raises(ValueError):
        _objective(np.zeros(1), Phi, y, QUADRATIC, -1.0)


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
        assert abs(_objective(gamma, Phi, y, spec, lam) - total) <= 1e-10


def _gradient(gamma, Phi, y, loss, lam):
    """The gradient of :func:`_objective` (a subgradient for the quantile loss)."""
    return Phi.T @ loss_subgradient(loss, Phi @ gamma, y) + lam * gamma


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
            grad = _gradient(gamma, Phi, y, spec, lam)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd = (
                    _objective(gamma + e, Phi, y, spec, lam)
                    - _objective(gamma - e, Phi, y, spec, lam)
                ) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(grad[k] - fd) / scale <= 1e-5


def test_fit_config_rejects_bad_kappa():
    # the certificate target and the iteration cap are module constants
    assert [field.name for field in dataclasses.fields(est.FitConfig)] == ["loss", "kappa", "c_offset"]
    # FitConfig rejects a non-finite or negative kappa
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            est.FitConfig(loss=QUADRATIC, kappa=kappa)


def test_adam_nonfinite_aborts():
    for loss in (QUADRATIC, HUBER, QUANTILE, LOGISTIC):
        cfg = est.FitConfig(loss=loss)
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
        return (_objective(g, Phi, y, loss, kappa),
                _gradient(g, Phi, y, loss, kappa))

    res = minimize(risk, np.zeros(Phi.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 10_000})
    return res.x, res.fun


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC, QUANTILE], ids=lambda loss: loss.kind)
# p = n is where the solves switch sides
@pytest.mark.parametrize("n, p", [(40, 12), (30, 30), (25, 40)], ids=["p<n", "p=n", "p>n"])
def test_exact_fits_match_scipy_optimize(loss, n, p):
    Phi, y = _problem(loss, n, p)
    kappa = 0.5
    cfg = est.FitConfig(loss=loss, kappa=kappa)
    gamma, diag = est.adam_fit(Phi, y, cfg)
    reference, value = _scipy_minimiser(Phi, y, loss, kappa)
    assert np.max(np.abs(gamma - reference)) <= 1e-6
    assert abs(diag.final_objective - value) <= 1e-9 * value
    assert diag.final_objective == _objective(gamma, Phi, y, loss, kappa)
    assert diag.converged and 0.0 <= diag.certificate <= est.TOL
    assert 1 <= diag.epochs_run < est.MAX_ITERATIONS


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
def test_one_iteration_cap_stops_unconverged(loss, monkeypatch):
    Phi, y = _problem(loss, 40, 12, seed=6)
    monkeypatch.setattr(est, "MAX_ITERATIONS", 1)
    gamma, diag = est.adam_fit(Phi, y, est.FitConfig(loss=loss, kappa=0.5))
    assert diag.epochs_run == 1 and not diag.converged
    assert diag.certificate > 1e-12
    if loss.kind != "quantile":
        # a damped Newton step descends; an interior-point iterate need not
        assert diag.final_objective < _objective(np.zeros(12), Phi, y, loss, 0.5)


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC], ids=lambda loss: loss.kind)
def test_newton_returns_its_last_iterate_when_a_factorisation_fails(loss, monkeypatch):
    # from the second step on every Hessian is "singular": the fit ends
    # unconverged at the first step's iterate, which a one-step cap also gives
    Phi, y = _problem(loss, 40, 12, seed=6)
    cfg = est.FitConfig(loss=loss, kappa=0.5)
    with monkeypatch.context() as patch:
        patch.setattr(est, "MAX_ITERATIONS", 1)
        one_step, _ = est.adam_fit(Phi, y, cfg)
    cholesky, calls = est._cholesky, []

    def failing(M):
        calls.append(len(M))
        if len(calls) > 1:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(M)

    monkeypatch.setattr(est, "_cholesky", failing)
    gamma, diag = est.adam_fit(Phi, y, cfg)
    assert len(calls) == 2 and diag.epochs_run == 1 and not diag.converged
    assert np.array_equal(gamma, one_step)
    assert diag.final_objective < _objective(np.zeros(12), Phi, y, loss, 0.5)


@pytest.mark.parametrize("loss", [HUBER, LOGISTIC], ids=lambda loss: loss.kind)
def test_newton_returns_its_last_iterate_when_the_line_search_stalls(loss, monkeypatch):
    # no step can lower the objective by 1e9 times its slope, so the
    # first line search halves t below MIN_STEP and the fit stays at 0
    Phi, y = _problem(loss, 40, 12, seed=6)
    monkeypatch.setattr(est, "ARMIJO", 1e9)
    gamma, diag = est.adam_fit(Phi, y, est.FitConfig(loss=loss, kappa=0.5))
    assert diag.epochs_run == 0 and not diag.converged
    assert not np.any(gamma)
    assert diag.final_objective == _objective(np.zeros(12), Phi, y, loss, 0.5)


def test_quantile_finish_solves_at_most_p_rows(monkeypatch):
    # n >> p: an active-set step can free hundreds of rows, and a Gram of
    # more than p of them is singular
    gen = np.random.default_rng(0)
    X = gen.random((4000, 5))
    y = np.sin(2 * np.pi * X[:, 0]) + X[:, 1] * X[:, 2] + gen.standard_normal(4000)
    sizes, cholesky = [], est._cholesky

    def recording(M):
        sizes.append(len(M))
        return cholesky(M)

    monkeypatch.setattr(est, "_cholesky", recording)
    model = est.fit_sdrn(X, y, est.FitConfig(loss=LossSpec("quantile", tau=0.5)), m=1)
    assert len(model.gamma) == 112 and max(sizes) <= 112
    assert model.diagnostics.converged


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1032])
def test_cholesky_panels_solve_as_lapack(n):
    # n = 1 and 63 are one partial panel, 64 one full panel, 65 a full one
    # and a one-column one, 130 and 1032 several; two right-hand sides go
    # through one factorisation
    gen = np.random.default_rng(n)
    B = gen.random((n, n + 3))
    S = B @ B.T / n + 0.1 * np.eye(n)
    M = S.copy()
    solve = est._cholesky(M)
    assert np.allclose(np.tril(M), np.linalg.cholesky(S), rtol=0, atol=1e-12)
    for b in (gen.standard_normal(n), gen.standard_normal((n, 2))):
        x = solve(b)
        # a backward-stable solve: residual within 8 n eps of |S| |x|
        assert np.linalg.norm(S @ x - b) <= 8 * n * np.finfo(float).eps * np.linalg.norm(S) * np.linalg.norm(x)
        reference = np.linalg.solve(S, b)
        assert np.max(np.abs(x - reference)) <= 1e-11 * np.max(np.abs(reference))


def test_cholesky_of_an_indefinite_matrix_raises():
    # the non-positive pivot is in the last of three panels
    gen = np.random.default_rng(1)
    B = gen.random((130, 130))
    S = B @ B.T + np.eye(130)
    S[129, 129] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        est._cholesky(S)


def _lapack_shapes(monkeypatch):
    """Record the shape of every matrix handed to np.linalg.solve, cholesky and inv."""
    shapes = {}

    def record(name):
        original, shapes[name] = getattr(np.linalg, name), []

        def recording(a, *args):
            shapes[name].append(np.shape(a))
            return original(a, *args)

        monkeypatch.setattr(np.linalg, name, recording)

    for name in ("solve", "cholesky", "inv"):
        record(name)
    return shapes


@pytest.mark.parametrize(
    "loss, n, p",
    [(QUADRATIC, 300, 1200), (HUBER, 400, 150), (LOGISTIC, 150, 400), (HUBER, 150, 400), (QUANTILE, 150, 400)],
    ids=["quadratic-wide", "huber-tall", "logistic-wide", "huber-wide", "quantile-wide"],
)
def test_symmetric_ridge_systems_reach_lapack_in_panels(loss, n, p, monkeypatch):
    # every system of a fit, the n x n ones at a vector weight and the
    # interior point's exact finish too, is factored by _cholesky
    Phi, y = _problem(loss, n, p)
    shapes = _lapack_shapes(monkeypatch)
    _, diag = est.adam_fit(Phi, y, est.FitConfig(loss=loss, kappa=0.5))
    assert diag.converged
    assert shapes["solve"] == [] and shapes["cholesky"] and shapes["inv"]
    assert max(max(shape) for shape in shapes["cholesky"] + shapes["inv"]) <= est._PANEL == 64


@pytest.mark.parametrize("given", [False, True], ids=["K-formed", "K-given"])
def test_weighted_ridge_at_a_vector_weight_solves_the_unsymmetric_system(given):
    # p > n, so the n x n side: rows with w = 0, or with kappa / w beyond
    # the float range (5e-324), take v = u / kappa; the rest, 1e-300 too,
    # the symmetric (kappa / w + K) v = u / w
    gen = np.random.default_rng(5)
    n, p, kappa = 150, 300, 0.3
    Phi, u = gen.random((n, p)), gen.standard_normal(n)
    w = gen.random(n) + 0.05
    w[::7], w[3::11], w[5::13] = 0.0, 1e-300, 5e-324
    K = Phi @ Phi.T
    kept = K.copy()
    x, s = est._weighted_ridge(Phi, w, kappa, K if given else None)(u)
    v = np.linalg.solve(kappa * np.eye(n) + w[:, None] * K, u)
    assert np.max(np.abs(s - kappa * v)) <= 1e-10 * np.max(np.abs(kappa * v))
    assert np.max(np.abs(x - Phi.T @ v)) <= 1e-10 * np.max(np.abs(Phi.T @ v))
    assert np.array_equal(K, kept)  # a shared Gram is not overwritten


def test_weighted_ridge_takes_a_scalar_weight_as_a_constant_vector():
    # p > n: the quadratic fit's scalar w and the same weight as a vector
    # with a shared K solve one system, (kappa / w + K) v = u / w, in the
    # same arithmetic; the first factors the Gram it formed in place
    gen = np.random.default_rng(8)
    n, p, kappa = 130, 260, 0.4
    Phi, u = gen.random((n, p)), gen.standard_normal(n)
    K = est._gram(Phi)
    kept = K.copy()
    x1, s1 = est._weighted_ridge(Phi, 2.0, kappa)(u)
    x2, s2 = est._weighted_ridge(Phi, np.full(n, 2.0), kappa, K)(u)
    assert np.array_equal(x1, x2) and np.array_equal(s1, s2)
    assert np.array_equal(K, kept)


def test_solver_stress_counts_do_not_rise():
    # seed 2024 of the stress recipe (tests/solver_stress.py): 300 fits of
    # the iterative losses; none may raise, and no (regime, loss, side)
    # cell may leave more fits uncertified than the checked-in count
    cells = solver_stress.run(seeds=(2024,))
    assert sum(map(len, cells.values())) == 2 * solver_stress.FITS
    for key, results in cells.items():
        assert None not in results, key
        assert solver_stress.uncertified(results) <= solver_stress.UNCERTIFIED_2024.get(key, 0), key


_WIDE_QUADRATIC_GAMMA = """
import hashlib
import numpy as np
from sdrn import estimator as est
from sdrn.losses import LossSpec
gen = np.random.default_rng(12)
Phi, y = gen.random((2000, 2882)), gen.standard_normal(2000)
gamma, _ = est.adam_fit(Phi, y, est.FitConfig(loss=LossSpec("quadratic")))
print(hashlib.sha256(gamma.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_wide_quadratic_fit_has_the_same_bits_at_one_and_two_blas_threads():
    # simulate-sweep's c = 2 shape: p = 2882 > n = 2000, so the fit solves
    # the 2000 x 2000 system by panels and forms gamma = Phi' v from it
    src = str(Path(est.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _WIDE_QUADRATIC_GAMMA], capture_output=True,
                             text=True, env=env, check=True)
        digests.append(run.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


@pytest.mark.parametrize(
    "loss, n, p, limit",
    [
        # every logistic curvature is positive, so each primal step weights
        # all rows of Phi: one copy, freed before the next step's
        (LOGISTIC, 8000, 200, lambda Phi: 1.6 * Phi.nbytes),
        # K and the copy of its rows that the weights keep: no third n x n matrix
        (LOGISTIC, 600, 2400, lambda Phi: 3 * 600 ** 2 * 8),
        # one weighted copy of Phi, freed before the next iteration's
        (QUANTILE, 4000, 300, lambda Phi: 1.6 * Phi.nbytes),
        # K and the free rows' Gram from it, no copy of Phi's rows
        (QUANTILE, 300, 1200, lambda Phi: 1.6 * Phi.nbytes),
        # the p x p Gram, no copy of Phi
        (QUADRATIC, 4000, 300, lambda Phi: 0.25 * Phi.nbytes),
        # K, factored in place: no second n x n matrix
        (QUADRATIC, 600, 2400, lambda Phi: 1.5 * 600 ** 2 * 8),
    ],
    ids=["tall-newton", "wide-newton", "tall-quantile", "wide-quantile", "tall-ridge", "wide-ridge"],
)
def test_fit_peak_memory(loss, n, p, limit):
    Phi, y = _problem(loss, n, p)
    tracemalloc.start()
    try:
        _, diag = est.adam_fit(Phi, y, est.FitConfig(loss=loss, kappa=0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.converged and peak < limit(Phi)
    # a second step or iteration must not hold the first one's temporaries
    assert loss.kind == "quadratic" or diag.epochs_run >= 2


def test_non_quadratic_losses_need_positive_kappa():
    for loss in (HUBER, LOGISTIC, QUANTILE):
        with pytest.raises(LossInputError):
            est.FitConfig(loss=loss, kappa=0.0)
    assert est.FitConfig(loss=QUADRATIC, kappa=0.0).kappa == 0.0


def test_adam_matches_ridge_closed_form():
    # primal Gram for p <= n, dual Gram for p > n
    gen = np.random.default_rng(7)
    for n, p in ((50, 20), (30, 30), (20, 50)):
        Phi = gen.random((n, p))
        y = gen.standard_normal(n)
        for lam in (0.5, 2.0):
            closed = np.linalg.solve(2.0 * Phi.T @ Phi + lam * np.eye(p), 2.0 * Phi.T @ y)
            gamma, diag = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=lam))
            assert np.max(np.abs(gamma - closed)) <= 1e-10
            assert diag.epochs_run == 0 and diag.converged
            assert diag.final_objective == _objective(gamma, Phi, y, QUADRATIC, lam)


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
    cfg = est.FitConfig(loss=LossSpec("huber", delta=1.0), kappa=0.5)
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
    a, _ = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=0.0))
    b, _ = est.adam_fit(Phi, y, est.FitConfig(loss=QUADRATIC, kappa=0.0))
    assert np.all(a == b)


def _small_model(loss=QUADRATIC, n=60, seed=11):
    gen = np.random.default_rng(seed)
    X = gen.uniform(0.0, 2.0, (n, 2))
    if loss.kind == "logistic":
        y = (gen.random(n) < 0.5).astype(float)
    else:
        y = np.sin(X[:, 0]) + X[:, 1] + 0.1 * gen.standard_normal(n)
    cfg = est.FitConfig(loss=loss, kappa=1.0)
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
    fmap = probe.feature_map
    expected = fmap(model.scaler.transform(pts))[:, k]
    assert np.all(probe.predict(pts) == expected)
    # the same bitwise in other dimensions, where the scores contract the
    # root pairs of deeper trees against gamma
    gen = np.random.default_rng(15)
    for d, m in ((1, 3), (3, 2), (5, 2), (8, 1)):
        scaler = est.Scaler(mins=np.zeros(d), maxs=np.ones(d))
        pts = gen.random((300, d))
        Phi = est.FeatureMap(basis=enumerate_basis(d, m), R=6)(pts)
        for k in range(0, Phi.shape[1], 1 + Phi.shape[1] // 40):
            one_hot = np.zeros(Phi.shape[1])
            one_hot[k] = 1.0
            probe = est.SdrnModel(
                gamma=one_hot, d=d, m=m, R=6, loss=QUADRATIC, kappa=1.0, scaler=scaler
            )
            assert np.array_equal(probe.predict(pts), Phi[:, k])


def test_predict_holds_no_feature_matrix():
    # p = 352 features of 20 000 rows would be a 56 MB matrix
    gen = np.random.default_rng(16)
    basis = enumerate_basis(5, 2)
    model = est.SdrnModel(
        gamma=gen.standard_normal(len(basis)), d=5, m=2, R=6, loss=QUADRATIC, kappa=1.0,
        scaler=est.Scaler(mins=np.zeros(5), maxs=np.ones(5)),
    )
    model.feature_map  # the basis, enumerated before tracing starts
    X = gen.random((20_000, 5))
    tracemalloc.start()
    try:
        model.predict(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 352 and peak < 8 * 2 ** 20


@functools.cache
def _fitted_shape_model(d):
    # the (m, R) = (2, 6) that fit chooses at n = 2000, fitted on fewer rows
    gen = np.random.default_rng(d)
    X = gen.random((200, d))
    y = np.sin(3.0 * X.sum(axis=1)) + 0.1 * gen.standard_normal(200)
    model = est.fit_sdrn(X, y, est.FitConfig(loss=QUADRATIC), m=2, R=6)
    model.feature_map.plan  # planned at the default block size
    return model


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 2, 5, 7]),
    cells=st.sampled_from([rp._BLOCK_CELLS, 1000, 64]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_rows_score_depends_only_on_that_row(d, cells, seed, data):
    # whatever rows share a call, and however the product tree splits
    # them into row blocks, each row scores as in one call on all rows
    model = _fitted_shape_model(d)
    gen = np.random.default_rng(seed)
    with mock.patch.object(rp, "_BLOCK_CELLS", cells):
        fresh = dataclasses.replace(model)  # plans its trees at these cells
        step = fresh.feature_map.plan.rows
        n = data.draw(st.sampled_from([1, step + 1, 2 * step + 1]) | st.integers(1, 2 * step + 2))
        X = gen.uniform(-0.1, 1.1, (n, d))
        whole = model.predict(X)
        # a subset in any order, or with rows repeated (a concatenation)
        size = data.draw(st.sampled_from([1, step + 1]) | st.integers(1, 2 * n))
        idx = gen.integers(0, n, size) if data.draw(st.booleans()) else gen.permutation(n)[:size]
        assert fresh.predict(X[idx]).tobytes() == whole[idx].tobytes()
        # consecutive pieces, one call each
        cuts = np.sort(gen.integers(0, n + 1, data.draw(st.integers(0, 4))))
        pieces = [fresh.predict(X[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, n])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_model_json_round_trip_bitwise():
    model, _ = _small_model()
    doc = json.loads(json.dumps(model.to_json()))
    clone = est.SdrnModel.from_json(doc)
    gen = np.random.default_rng(12)
    pts = gen.uniform(-0.5, 2.5, (1000, 2))
    assert np.all(model.predict(pts) == clone.predict(pts))
    # every model fit_sdrn returns loads, at one covariate too, where no
    # pair product evaluates f_R; an R outside 1..MAX_R is refused at any d
    # before anything is featurised
    cfg = est.FitConfig(loss=QUADRATIC)
    for d in (1, 2):
        X, y = gen.random((40, d)), gen.random(40)
        for R in (1, rp.MAX_R):
            model = est.fit_sdrn(X, y, cfg, R=R)
            clone = est.SdrnModel.from_json(json.loads(json.dumps(model.to_json())))
            assert clone.predict(X).tobytes() == model.predict(X).tobytes()
        with mock.patch.object(est, "product_features", None):
            for R in (-3, 0, rp.MAX_R + 1, 600):
                with pytest.raises(DataError, match=f"^accuracy level R must be in 1..511, got {R}$"):
                    est.fit_sdrn(X, y, cfg, R=R)


def test_a_model_holds_d_distinct_column_names_or_none():
    # such a model once fitted, and its own file then failed to load
    gen = np.random.default_rng(5)
    X, y = gen.random((40, 2)), gen.random(40)
    cfg = est.FitConfig(loss=QUADRATIC)
    for names in (["a", "a"], ["a"], ["a", "b", "c"]):
        with pytest.raises(DataError, match=r"^need d=2 distinct column names, got \["):
            est.fit_sdrn(X, y, cfg, column_names=names)
    for names in (["a", "b"], None):
        model = est.fit_sdrn(X, y, cfg, column_names=names)
        assert est.SdrnModel.from_json(model.to_json()).column_names == model.column_names


def test_model_schema_version_guard():
    model, _ = _small_model()
    doc = model.to_json()
    doc["schema_version"] = 99
    with pytest.raises(DataError):
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
        # beyond the float range of the square approximator
        lambda doc: doc.update(R=600),
        lambda doc: doc["scaler"]["min"].__setitem__(1, float("-inf")),
        lambda doc: doc["gamma"].__setitem__(3, float("inf")),
        # scaler columns that Scaler.fit never writes: max == min, max < min
        lambda doc: doc["scaler"]["max"].__setitem__(0, doc["scaler"]["min"][0]),
        lambda doc: doc["scaler"].update(min=doc["scaler"]["max"], max=doc["scaler"]["min"]),
        # sizes that are not ints: 6.5 and true once planned other networks
        lambda doc: doc.update(R=6.5),
        lambda doc: doc.update(R=True),
        lambda doc: doc.update(m=1.0),
        lambda doc: doc.update(d=5.0),
    )
    for edit in edits:
        doc = json.loads(json.dumps(good))
        edit(doc)
        with pytest.raises(DataError):
            est.SdrnModel.from_json(doc)
    for field in ("d", "m", "R"):
        doc = json.loads(json.dumps(good))
        doc[field] = float(doc[field])
        with pytest.raises(DataError, match=f"^{field} must be an integer"):
            est.SdrnModel.from_json(doc)
    # a loss parameter is a JSON number in the float range: a bool or a
    # string is no number, nor is an integer past the float range
    for name, value in (("delta", True), ("delta", "1.0"), ("tau", False), ("tau", "0.5"),
                        ("delta", 10 ** 400), ("delta", -(10 ** 400))):
        doc = json.loads(json.dumps(good))
        doc["loss"] = {"kind": "huber" if name == "delta" else "quantile", "delta": None, "tau": None,
                       name: value}
        with pytest.raises(DataError, match=f"^{name} holds a value that is not a JSON number"):
            est.SdrnModel.from_json(doc)


def test_logistic_prediction_threshold():
    model, X = _small_model(loss=LossSpec("logistic"))
    model.gamma[:] = 0.0  # score 0 everywhere: sigmoid = 0.5
    assert np.all(sigmoid(model.predict(X[:5])) == 0.5)


def test_fit_sup_norm_diagnostic():
    model, X = _small_model()
    train_preds = model.predict(X)
    assert model.diagnostics.sup_norm == pytest.approx(np.max(np.abs(train_preds)), rel=1e-12)
