"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The simulation-based criteria (9-12) dominate the runtime;
everything is seeded and deterministic.

Statistical criteria are checked against exact oracles, not against
numbers seen in a run.  Criterion 7 compares the Monte-Carlo
interpolation errors with their closed form within 4 standard errors and
pins the pre-asymptotic m=2 decay ratio to its exact value 2.8871; the
ratio window [3, 5.5] is the asymptotic rate and is asserted for m=3..5.
Criterion 9 asserts the bias trend on the unbiased squared-bias estimate
avg_bias2 - avg_variance/(reps-1), since the plug-in estimate is
inflated by the replication noise.  The README discusses both.
"""

import math
import time

import numpy as np
import pytest

from conftest import build_pair_network, build_square_network
from sdrn import cli
from sdrn import evalsuite as ev
from sdrn import rng
from sdrn.estimator import TOL, FeatureMap, FitConfig, adam_fit
from sdrn.losses import LossSpec
from sdrn.relu_product import (
    approx_basis_eval,
    build_basis_network,
    pair_product,
    product_pairs,
    square_approx,
)
from sdrn.sparse_grid import (
    BasisId,
    approximation_bound,
    basis_size,
    cardinality_bounds,
    enumerate_basis,
    interpolate,
    tensor_hat_eval,
)

SEED = 0


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_01_cardinality_table():
    start = time.monotonic()
    mismatches = []
    for d, row in ev.CARDINALITY_TABLE.items():
        for m, expected in enumerate(row):
            got = len(enumerate_basis(d, m))
            if got != expected:
                mismatches.append((d, m, got, expected))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 5.0
    assert _report(1, "cardinality table 35/35", ok, f"{elapsed:.2f}s")


def test_criterion_02_cardinality_sandwich():
    violations = []
    for d in range(2, 9):
        for m in range(1, 7):
            lower, upper = cardinality_bounds(d, m)
            count = basis_size(d, m)
            if not lower <= count <= upper:
                violations.append((d, m, count, lower, upper))
    # m = 0 edge: reported, not asserted (the lower bound holds with equality)
    edge = []
    for d in range(2, 9):
        lower, _ = cardinality_bounds(d, 0)
        edge.append(f"d={d}: count={basis_size(d, 0)} lower={lower:g}")
    ok = not violations
    assert _report(2, "cardinality sandwich m=1..6", ok, "m=0 reported: " + "; ".join(edge[:2]) + " ...")


def test_criterion_03_square_approximator():
    xs = np.linspace(0.0, 1.0, 10_000)
    ok = True
    details = []
    for R in range(1, 9):
        bound = 2.0 ** (-2 * R - 2)
        err = float(np.max(np.abs(square_approx(R, xs) - xs ** 2)))
        peak = 2.0 ** (-R - 1)
        attained = abs(abs(square_approx(R, peak) - peak ** 2) - bound)
        if err > bound or attained > 1e-12:
            ok = False
            details.append(f"R={R}: err={err:.3e} bound={bound:.3e} attained-gap={attained:.1e}")
    assert _report(3, "square bound + attainment R=1..8", ok, "; ".join(details))


def test_criterion_04_pair_product():
    g = np.linspace(0.0, 1.0, 201)
    GX, GY = np.meshgrid(g, g)
    worst = []
    ok = True
    for R in range(1, 7):
        bound = 3.0 * 2.0 ** (-2 * R - 2)
        err = float(np.max(np.abs(pair_product(R, GX, GY) - GX * GY)))
        worst.append(f"R={R}: {err:.2e}<={bound:.2e}")
        ok = ok and err <= bound
    assert _report(4, "pair product bound R=1..6", ok, worst[0] + " ...")


def test_criterion_05_d_factor_basis():
    gen = rng.stream(SEED, "acceptance-product")
    ok = True
    for d in (2, 3, 4, 5, 8):
        for R in (2, 4, 6):
            bound = 3.0 * 2.0 ** (-2 * R - 2) * (d - 1)
            # 1000 (id, point) pairs; pair i is id i at point i
            levels, nodes, X = ev._product_sweep_draws(gen, d, 1000)
            approx = product_pairs(R, levels, nodes, X)
            exact = np.array(
                [tensor_hat_eval(BasisId(tuple(l), tuple(s)), x) for l, s, x in zip(levels, nodes, X)]
            )
            if np.any(np.abs(approx - exact) > bound):
                ok = False
    assert _report(5, "d-factor deviation bound", ok)


def test_criterion_06_graph_recursion_oracle():
    gen = np.random.default_rng(SEED)
    ok = True
    for R in (1, 4, 8):
        xs = gen.random(1000)
        diff = np.max(np.abs(build_square_network(R).eval(xs[:, None]) - square_approx(R, xs)))
        ok = ok and diff <= 1e-12
    for R in (1, 4, 6):
        pts = gen.random((1000, 2))
        net = build_pair_network(R)
        diff = np.max(np.abs(net.eval(pts) - pair_product(R, pts[:, 0], pts[:, 1])))
        ok = ok and diff <= 1e-12
    for d in (2, 3, 5):
        basis = enumerate_basis(d, 2)
        bid = basis[len(basis) // 2]
        pts = gen.random((1000, d))
        net = build_basis_network(4, bid)
        diff = np.max(np.abs(net.eval(pts) - approx_basis_eval(4, bid, pts)))
        ok = ok and diff <= 1e-12
    complexity_ok = all(
        (c := build_square_network(R).complexity()) is not None
        and (c.depth, c.units, c.weights) == (R + 2, 3 * R + 1, 15 * R - 4)
        for R in range(1, 21)
    )
    assert _report(6, "graph/recursion + Sub1 complexity", ok and complexity_ok)


# Closed-form L2 error of the sparse interpolant of the corner bump
# f(x, y) = g(x) g(y), g = 4x(1-x).  g vanishes on the boundary, so its
# level-0 surpluses are 0 and its level-l surplus is -h^2 g''/2 = 4^(1-l)
# on every odd node (h = 2^-l).  With the level-l sawtooth S_l (the sum of
# the level-l hats) f = sum_{k,l >= 1} a_k a_l S_k(x) S_l(y), and
# <S_k, S_l> = 1/4 + [k == l]/12 on [0, 1].  Hence
# |f - f_m|^2 = sum over excluded level pairs p, q (p1+p2 > m, q1+q2 > m)
# of G[p1, q1] G[p2, q2], with G[k, l] = a_k a_l <S_k, S_l>.
ORACLE_LEVELS = 40


def _sawtooth_gram(levels: int) -> np.ndarray:
    return 0.25 + np.eye(levels) / 12.0


def corner_bump_exact_error(m: int) -> float:
    ell = np.arange(1, ORACLE_LEVELS + 1)
    a = 4.0 ** (1 - ell)
    G = np.outer(a, a) * _sawtooth_gram(ORACLE_LEVELS)
    excluded = (ell[:, None] + ell[None, :] > m).astype(float)
    return math.sqrt(float(np.einsum("ac,bd,ab,cd->", G, G, excluded, excluded)))


def _simpson_sawtooth_gram(levels: int) -> np.ndarray:
    # S_k S_l is quadratic on every cell of width 2^-levels, so composite
    # Simpson with one panel per cell is exact up to rounding
    x = np.linspace(0.0, 1.0, 2 ** (levels + 1) + 1)
    w = np.ones_like(x)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0 * (len(x) - 1)
    saw = np.array([1.0 - np.abs(np.mod(x * 2.0 ** l, 2.0) - 1.0) for l in range(1, levels + 1)])
    return (saw * w) @ saw.T


def _interp_squared_errors(fm, mc_points: int, seed: int) -> np.ndarray:
    # the sample that ev.decay_errors draws, at mc_points = 20_000 and seed = 0
    pts = rng.stream(seed, "interp-decay").random((mc_points, 2))
    return (fm(pts) - ev.corner_bump(pts)) ** 2


def test_criterion_07_interpolation_decay():
    # the oracle itself: sawtooth Gram entries against exact quadrature, and
    # |f - f_1| = |f| = int g^2 = 8/15 (f_1 = 0, f vanishes on the boundary)
    assert np.max(np.abs(_simpson_sawtooth_gram(8) - _sawtooth_gram(8))) <= 1e-12
    assert corner_bump_exact_error(1) == pytest.approx(8.0 / 15.0, rel=1e-12)
    assert corner_bump_exact_error(2) / corner_bump_exact_error(3) == pytest.approx(2.8871, abs=5e-5)

    start = time.monotonic()
    mc_points = 20_000
    interpolants = {m: interpolate(ev.corner_bump, 2, m) for m in range(1, 8)}
    errors = ev.decay_errors(interpolants)
    below = all(
        errors[m] <= approximation_bound(2, m, ev.CORNER_BUMP_D2_NORM)
        for m in range(1, 7)
    )
    exact = {m: corner_bump_exact_error(m) for m in range(1, 8)}
    # standard error of the Monte-Carlo RMS error (delta method on the
    # sample mean of the squared errors), from the sample's own values
    se = {}
    for m in range(1, 8):
        sq = _interp_squared_errors(interpolants[m], mc_points, SEED)
        se[m] = float(np.std(sq, ddof=1) / math.sqrt(mc_points)) / (2.0 * errors[m])
    matches = all(abs(errors[m] - exact[m]) <= 4.0 * se[m] for m in range(1, 8))
    ratios = {m: errors[m] / errors[m + 1] for m in range(2, 6)}
    in_window = all(3.0 <= ratios[m] <= 5.5 for m in range(3, 6))
    # the m=2 ratio is pinned to the exact 2.8871: the window [3, 5.5] is an
    # asymptotic rate the decay only reaches from m=3 on.  The tolerance is
    # the exact ratio's range when both errors move by 4 standard errors.
    lo = (exact[2] - 4.0 * se[2]) / (exact[3] + 4.0 * se[3])
    hi = (exact[2] + 4.0 * se[2]) / (exact[3] - 4.0 * se[3])
    ratio2_ok = lo <= ratios[2] <= hi
    elapsed = time.monotonic() - start
    ok = below and matches and in_window and ratio2_ok and elapsed < 30.0
    detail = (
        f"bounds {'ok' if below else 'VIOLATED'}; mc vs exact within 4 SE: {matches} "
        + "(worst "
        + f"{max(abs(errors[m] - exact[m]) / se[m] for m in range(1, 8)):.1f} SE); ratios "
        + ", ".join(f"m={m}: {r:.3f}" for m, r in ratios.items())
        + f"; m=2 exact {exact[2] / exact[3]:.4f} in [{lo:.4f}, {hi:.4f}]: {ratio2_ok}"
        + f"; m=3..5 in [3, 5.5]: {in_window}; {elapsed:.1f}s"
    )
    assert _report(7, "interpolation decay vs closed form + ratio window", ok, detail)


def test_criterion_08_ridge_quadratic_oracle():
    gen = np.random.default_rng(7)
    Phi = gen.random((50, 20))
    y = gen.standard_normal(50)
    lam = 2.0
    closed = np.linalg.solve(2.0 * Phi.T @ Phi + lam * np.eye(20), 2.0 * Phi.T @ y)
    gamma, _ = adam_fit(Phi, y, FitConfig(loss=LossSpec("quadratic"), kappa=lam))
    gap = float(np.max(np.abs(gamma - closed)))
    ok = gap <= 1e-10
    assert _report(8, "quadratic fit equals ridge closed form", ok, f"sup gap {gap:.2e}")


@pytest.fixture(scope="module")
def model1_sweep():
    spec = ev.SimModelSpec(model_id=1, n=2000, noise="normal", seed=SEED)
    # record the per-replication predictions each cell is scored on, so the
    # criterion can put a jackknife standard error on its margin
    scored = []
    plug_in = ev.regression_metrics

    def recording_metrics(predictions, truth):
        scored.append((np.array(predictions), np.array(truth)))
        return plug_in(predictions, truth)

    start = time.monotonic()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "regression_metrics", recording_metrics)
        report = ev.run_replications(spec, LossSpec("quadratic"), reps=20, kappas=(1.0,),
                                     cs=(-2, -1, 0, 1, 2))
    return report, time.monotonic() - start, scored


def _debiased_bias2(metrics: ev.RegressionMetrics, reps: int) -> float:
    # the plug-in avg_bias2 has expectation bias^2 + E[avg_variance]/(reps - 1)
    return metrics.avg_bias2 - metrics.avg_variance / (reps - 1)


def _jackknife_se(stat, reps: int) -> float:
    """Leave-one-replication-out jackknife standard error of stat(kept rows)."""
    keep = [np.delete(np.arange(reps), i) for i in range(reps)]
    values = np.array([stat(rows) for rows in keep])
    return float(np.sqrt((reps - 1) / reps * np.sum((values - values.mean()) ** 2)))


def test_criterion_09_desk_scale_reproduction(model1_sweep):
    report, elapsed, scored = model1_sweep
    cs = (-2, -1, 0, 1, 2)
    reps = report.reps
    mse = report.cell(1.0, 0).metrics.avg_mse
    window_ok = 0.07 <= mse <= 0.16
    raw = [report.cell(1.0, c).metrics.avg_bias2 for c in cs]
    # the criterion is about the true squared bias; at 20 replications the
    # plug-in estimate is inflated by var/(reps-1), which exceeds the true
    # decrease between c=1 and c=2, so monotonicity is asserted on the
    # unbiased value
    bias = [_debiased_bias2(report.cell(1.0, c).metrics, reps) for c in cs]
    var = [report.cell(1.0, c).metrics.avg_variance for c in cs]
    bias_ok = all(a > b for a, b in zip(bias, bias[1:]))
    var_ok = all(a < b for a, b in zip(var, var[1:]))
    time_ok = elapsed < 900.0
    ok = window_ok and bias_ok and var_ok and time_ok

    assert len(scored) == len(cs)

    def debiased_at(cell: int, rows: np.ndarray) -> float:
        preds, truth = scored[cell]
        return _debiased_bias2(ev.regression_metrics(preds[rows], truth), len(rows))

    drop = bias[-2] - bias[-1]
    drop_se = _jackknife_se(lambda rows: debiased_at(-2, rows) - debiased_at(-1, rows), reps)
    detail = (
        f"mse(1,0)={mse:.4f} in [0.07,0.16]: {window_ok}; "
        f"plug-in bias2 {['%.4f' % b for b in raw]}; "
        f"bias2 - var/(reps-1) {['%.5f' % b for b in bias]} decreasing: {bias_ok} "
        f"(last drop {drop:.5f} = {drop / drop_se:.1f} jackknife SE); "
        f"var {['%.4f' % v for v in var]} increasing: {var_ok}; {elapsed:.0f}s"
    )
    assert _report(9, "Model 1 desk-scale reproduction", ok, detail)


def test_criterion_10_sample_size_trend():
    best = {}
    for n in (2000, 5000):
        spec = ev.SimModelSpec(model_id=1, n=n, noise="normal", seed=SEED)
        report = ev.run_replications(spec, LossSpec("quadratic"), reps=10, kappas=(0.5, 1.0, 2.0),
                                     cs=(0,))
        best[n] = min(cell.metrics.avg_mse for cell in report.cells)
    ok = best[5000] < best[2000]
    assert _report(10, "optimal mse shrinks with n", ok, f"n=2000: {best[2000]:.4f}, n=5000: {best[5000]:.4f}")


def _record_fits(patch) -> list:
    """Record the config and diagnostics of every fit run_replications makes."""
    fits = []

    def recording_fit(Phi, y, config):
        gamma, diag = adam_fit(Phi, y, config)
        fits.append((config, diag))
        return gamma, diag

    patch.setattr(ev, "adam_fit", recording_fit)
    return fits


def _uncertified(fits) -> list:
    """The iterative fits whose certificate or duality gap misses ``TOL``."""
    return [
        diag for config, diag in fits
        if config.loss.kind != "quadratic" and not (diag.converged and diag.certificate <= TOL)
    ]


def test_criterion_11_laplace_robustness():
    spec = ev.SimModelSpec(model_id=1, n=2000, noise="laplace", seed=SEED)
    best = {}
    with pytest.MonkeyPatch.context() as patch:
        fits = _record_fits(patch)
        for loss in (LossSpec("quadratic"), LossSpec("quantile", tau=0.5)):
            report = ev.run_replications(spec, loss, reps=20, kappas=(0.5, 1.0), cs=(0,))
            best[loss.kind] = min(cell.metrics.avg_mse for cell in report.cells)
    uncertified = _uncertified(fits)
    ok = best["quantile"] < best["quadratic"] and not uncertified
    assert _report(
        11,
        "median regression beats quadratic under Laplace noise",
        ok,
        f"quantile {best['quantile']:.4f} < quadratic {best['quadratic']:.4f}; "
        f"{len(uncertified)} of {sum(c.loss.kind == 'quantile' for c, _ in fits)} "
        "quantile fits above their gap target",
    )


def test_criterion_12_classification_accuracy():
    spec = ev.SimModelSpec(model_id=4, n=2000, seed=SEED)
    # Newton's method certifies each logistic fit within a few iterations
    with pytest.MonkeyPatch.context() as patch:
        fits = _record_fits(patch)
        report = ev.run_replications(spec, LossSpec("logistic"), reps=10, kappas=(0.5, 1.0, 2.0),
                                     cs=(-2, -1))
    uncertified = _uncertified(fits)
    tuned = max(report.cells, key=lambda cell: cell.metrics.accuracy)
    ok = tuned.metrics.accuracy >= 0.89 and not uncertified
    assert _report(
        12,
        "Model 4 tuned test accuracy",
        ok,
        f"best accuracy {tuned.metrics.accuracy:.4f} at kappa={tuned.kappa}, c={tuned.c}; "
        f"{len(uncertified)} of {len(fits)} fits above their certificate target",
    )


def test_criterion_13_byte_determinism(tmp_path):
    train = tmp_path / "train.csv"
    spec = ev.SimModelSpec(model_id=1, n=120, noise="normal", seed=3)
    X, y = ev.generate(spec)
    header = ["x1", "x2", "x3", "x4", "x5", "y"]
    lines = [",".join(header)]
    for row, target in zip(X, y):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fit_bytes = []
    for run in range(2):
        model_path = tmp_path / f"model{run}.json"
        rc = cli.main(
            ["fit", "--input", str(train), "--target", "y",
             "--model-out", str(model_path)]
        )
        assert rc == 0
        fit_bytes.append(model_path.read_bytes())

    sim_bytes = []
    for run in range(2):
        out_csv = tmp_path / f"sim{run}.csv"
        out_json = tmp_path / f"sim{run}.json"
        rc = cli.main(
            ["simulate", "--model", "1", "--n", "90", "--reps", "2", "--seed", "7",
             "--kappas", "0.5,1.0", "--cs=-2,-1",
             "--out-csv", str(out_csv), "--out-json", str(out_json)]
        )
        assert rc == 0
        sim_bytes.append(out_csv.read_bytes() + out_json.read_bytes())

    ok = fit_bytes[0] == fit_bytes[1] and sim_bytes[0] == sim_bytes[1]
    assert _report(13, "fit/simulate byte determinism", ok)
