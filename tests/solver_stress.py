"""The solver stress recipe: many small random fits of the iterative
losses, counted by whether each ends certified.

Each seed draws 150 fits per regime.  A fit has n and p uniform on
2..299 and a uniform or 0/1 feature matrix; the losses take turns
(quantile tau = 0.5, Huber delta = 1, logistic); the responses are
``s * N(0, 1)``, or ``1{N > 0}`` for the logistic loss.  The moderate
regime draws ``s`` log-uniform on 0.1..10 and ``kappa`` on 0.05..10, the
badly scaled one ``s`` on 1e-4..1e5 and ``kappa`` on 1e-4..1e3.  A fit
is uncertified when its certificate is above ``estimator.TOL``.

Run as a script, it prints one table over the seeds it is given
(2024, 1 and 7 by default): per regime, loss and solve side (``p<=n``
or ``p>n``), the fits, the uncertified ones, the worst certificate, the
iterations (median, 90th percentile, most) and the fits that raised::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/solver_stress.py [seed ...]

``UNCERTIFIED_2024`` holds the uncertified counts on seed 2024, which a
Tier-1 test keeps from rising.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np

from sdrn.estimator import TOL, FitConfig, adam_fit
from sdrn.losses import LossSpec

FITS = 150
SEEDS = (2024, 1, 7)
LOSSES = (LossSpec("quantile", tau=0.5), LossSpec("huber", delta=1.0), LossSpec("logistic"))
# regime -> (log10 range of the response scale s, log10 range of kappa)
REGIMES = {"moderate": ((-1.0, 1.0), (np.log10(0.05), 1.0)), "badly scaled": ((-4.0, 5.0), (-4.0, 3.0))}

# uncertified fits per (regime, loss, side) on seed 2024; every other
# cell has none
UNCERTIFIED_2024 = {
    ("badly scaled", "quantile", "p<=n"): 8,
    ("badly scaled", "quantile", "p>n"): 6,
    ("moderate", "quantile", "p<=n"): 1,
    ("moderate", "quantile", "p>n"): 1,
}


def draws(seed: int, fits: int = FITS):
    """Yield ``(regime, Phi, y, config)`` for every fit of one seed."""
    for index, (regime, (s_range, kappa_range)) in enumerate(REGIMES.items()):
        gen = np.random.default_rng([seed, index])
        for i in range(fits):
            loss = LOSSES[i % len(LOSSES)]
            n, p = gen.integers(2, 300, size=2)
            Phi = (gen.random((n, p)) < 0.5).astype(float) if gen.random() < 0.5 else gen.random((n, p))
            s, kappa = 10.0 ** gen.uniform(*s_range), 10.0 ** gen.uniform(*kappa_range)
            noise = gen.standard_normal(n)
            y = (noise > 0).astype(float) if loss.kind == "logistic" else s * noise
            yield regime, Phi, y, FitConfig(loss=loss, kappa=kappa)


def run(seeds=SEEDS, fits: int = FITS) -> dict:
    """Fit every draw of ``seeds``; map (regime, loss, side) to a list of
    ``(certificate, iterations)``, with ``None`` for a fit that raised."""
    cells = defaultdict(list)
    for seed in seeds:
        for regime, Phi, y, config in draws(seed, fits):
            n, p = Phi.shape
            key = (regime, config.loss.kind, "p<=n" if p <= n else "p>n")
            try:
                _, diag = adam_fit(Phi, y, config)
            except Exception as exc:  # noqa: BLE001 - a raise is a result here
                cells[key].append(None)
                print(f"{key} n={n} p={p} kappa={config.kappa:.3g} raised {exc!r}", file=sys.stderr)
            else:
                cells[key].append((diag.certificate, diag.epochs_run))
    return dict(cells)


def uncertified(results: list) -> int:
    return sum(1 for r in results if r is not None and not r[0] <= TOL)


def table(cells: dict) -> str:
    lines = ["regime,loss,side,fits,uncertified,worst_certificate,iter_median,iter_p90,iter_max,raised"]
    for key in sorted(cells):
        done = [r for r in cells[key] if r is not None]
        its = np.array([r[1] for r in done]) if done else np.zeros(1)
        worst = max((r[0] for r in done), default=float("nan"))
        lines.append(
            ",".join(key) + f",{len(cells[key])},{uncertified(cells[key])},{worst:.2g},"
            f"{np.median(its):g},{np.percentile(its, 90):g},{its.max()},{len(cells[key]) - len(done)}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(run(tuple(int(a) for a in sys.argv[1:]) or SEEDS)))
