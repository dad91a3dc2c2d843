"""Benchmark of the sdrn command line, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload fit-predict --seed 3 --seconds 10 --trace 0

With ``--trace 0`` each round of the workload's commands runs as fresh
``python3 -m sdrn.cli`` child processes (the ``sdrn`` entry point) and
the end-to-end metrics are reported; with ``--trace 1`` the same
commands run twice in this process through ``sdrn.cli.main``, untraced
and then traced (see ``tracer.py``), and the per-layer metrics and the
tracing overhead are reported.  Every run checks the program's outputs
against ``oracles.py``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from tracer import PER_LAYER, Tracer, per_layer, sdrn_hooks

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "items_per_s": "1/s",
    "error": "1",
    "peak_rss_mb": "MB",
}


class Run:
    """One benchmark run: its work directory, the commands' environment and the checks."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None):
        self.seed = seed
        self.tracer = tracer
        self.work = BENCH / "work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.checks: dict[str, dict] = {}
        self.notes: dict[str, float] = {}

    def child(self, argv: list[str], tag: str) -> tuple[float, float, int]:
        """Wall time, peak RSS (MB) and exit code of one fresh interpreter."""
        with open(self.work / f"{tag}.out", "wb") as out, \
                open(self.work / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def in_process(self, argv: list[str], tag: str) -> int:
        from sdrn import cli

        with open(self.work / f"{tag}.out", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1

    def check(self, name: str, ok, detail: str, output: str) -> None:
        """Record a check on the commands that write ``output``."""
        self.checks[name] = {"ok": bool(ok), "detail": detail, "output": output}

    def graph_oracle(self, cases, output: str) -> None:
        """ReluGraph twins of sampled ids against the program's fast path;
        ``cases`` holds (R, level, node, points, fast values)."""
        from sdrn.relu_product import build_basis_network
        from sdrn.sparse_grid import BasisId

        worst, count = 0.0, 0
        for R, level, node, X, fast in cases:
            graph = build_basis_network(R, BasisId(tuple(level), tuple(node)))
            with self.tracer.span("relu_product.ReluGraph.eval") if self.tracer \
                    else contextlib.nullcontext():
                exact = graph.eval(X)
            worst = max(worst, float(np.max(np.abs(exact - fast))))
            count += 1
        self.check("relu-graph-oracle", worst <= 1e-12,
                   f"{count} ids: max deviation {worst:.3g} <= 1e-12", output)

    def digest(self, name: str) -> str:
        path = self.work / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


class FitPredict:
    """Model 1 data drawn here; `sdrn fit` (Huber) then `sdrn predict` on held-out rows."""

    n, d, heldout = 2000, 5, 100_000
    delta, kappa = 1.0, 1.0
    fit = ["fit", "--input", "train.csv", "--target", "y", "--model-out", "model.json",
           "--loss", "huber:1.0"]
    predict = ["predict", "--model", "model.json", "--input", "heldout.csv",
               "--output", "predictions.csv"]
    # A fit takes about 2 s, most of it interpreter start-up, so one
    # sample is noisy: a round fits three times and reports the median.
    commands = [(fit, "model.json")] * 3 + [(predict, "predictions.csv")]

    def prepare(self, run: Run) -> None:
        self.X = run.rng.random((self.n, self.d))
        self.y = oracles.model1_truth(self.X) + run.rng.standard_normal(self.n)
        self.Z = run.rng.random((self.heldout, self.d))
        names = [f"x{j + 1}" for j in range(self.d)]
        write_csv(run.work / "train.csv", names + ["y"], np.column_stack([self.X, self.y]))
        write_csv(run.work / "heldout.csv", names, self.Z)

    def round_metrics(self, walls: list[float]) -> tuple[list, list]:
        return walls[:3], [self.heldout / walls[3]]

    def check(self, run: Run) -> float:
        from sdrn.estimator import FeatureMap
        from sdrn.sparse_grid import enumerate_basis

        model = json.loads((run.work / "model.json").read_text())
        m, R = oracles.schedule(self.n, 0)
        p = oracles.basis_count(self.d, m)
        gamma = np.array(model["gamma"])
        shape = (model["d"], model["m"], model["R"], len(gamma))
        run.check("fit-schedule", shape == (self.d, m, R, p),
                  f"d, m, R, p = {self.d}, {m}, {R}, {p}", "model.json")
        run.check("fit-scaler", model["scaler"]["min"] == self.X.min(axis=0).tolist()
                  and model["scaler"]["max"] == self.X.max(axis=0).tolist(),
                  "model scaler equals the training columns' min and max", "model.json")

        X01 = oracles.minmax_scale(self.X, self.X)
        Phi = FeatureMap(basis=enumerate_basis(self.d, m), R=R)(X01)
        value, grad = oracles.huber_objective(gamma, Phi, self.y, self.delta, self.kappa)
        certificate = float(grad @ grad) / (2.0 * self.kappa) / value
        run.notes["huber_certificate"] = certificate
        run.check("huber-certificate", certificate <= 1e-10,
                  f"|grad|^2/(2 kappa)/objective = {certificate:.3g} <= 1e-10", "model.json")

        with open(run.work / "predictions.csv", encoding="utf-8") as fh:
            comment, header = fh.readline(), fh.readline().strip()
        table = np.loadtxt(run.work / "predictions.csv", delimiter=",", skiprows=2, ndmin=2)
        pred = table[:, -1]
        run.check("predict-rows", comment.startswith("# sdrn-predict")
                  and header == ",".join([f"x{j + 1}" for j in range(self.d)] + ["prediction"])
                  and table.shape == (self.heldout, self.d + 1)
                  and np.array_equal(table[:, :-1], self.Z) and bool(np.all(np.isfinite(pred))),
                  f"{self.heldout} rows, covariates echoed, predictions finite", "predictions.csv")

        levels, nodes = oracles.basis_ids(self.d, m)
        H_train = oracles.exact_hats(levels, nodes, X01)
        gamma_ref = oracles.huber_minimiser(H_train, self.y, self.delta, self.kappa)
        Z01 = oracles.minmax_scale(self.X, self.Z)
        recomputed = np.empty(self.heldout)
        ref = np.empty(self.heldout)
        for lo in range(0, self.heldout, 10_000):
            H = oracles.exact_hats(levels, nodes, Z01[lo : lo + 10_000])
            recomputed[lo : lo + 10_000] = H @ gamma
            ref[lo : lo + 10_000] = H @ gamma_ref
        tree_bound = float(np.abs(gamma).sum()) * 3.0 * 2.0 ** (-2 * R - 2) * (self.d - 1)
        gap = float(np.max(np.abs(recomputed - pred)))
        run.check("product-tree-bound", gap <= tree_bound,
                  f"max |pred - sum gamma prod hat| = {gap:.3g} <= {tree_bound:.3g}",
                  "predictions.csv")

        truth = oracles.model1_truth(self.Z)
        mse = float(np.mean((pred - truth) ** 2))
        mse_ref = float(np.mean((ref - truth) ** 2))
        run.notes.update(heldout_mse=mse, reference_mse=mse_ref, var_f1=float(np.var(truth)))
        run.check("heldout-mse", mse < 0.25 * np.var(truth),
                  f"heldout_mse {mse:.4g} < Var f1 / 4 = {np.var(truth) / 4:.4g}",
                  "predictions.csv")

        rows = run.rng.choice(self.heldout, 32, replace=False)
        cols = run.rng.choice(p, 8, replace=False)
        fast = FeatureMap(basis=enumerate_basis(self.d, m), R=R)(Z01[rows])
        run.graph_oracle([(R, levels[c], nodes[c], Z01[rows], fast[:, c]) for c in cols],
                         "model.json")
        return mse / mse_ref

    def traced_check(self, run: Run, tracer: Tracer) -> None:
        tracer.counts["estimator.solver_rel_gap"] = run.notes["huber_certificate"]


class SimulateSweep:
    """`sdrn simulate` on Model 1 with the quadratic loss over c = -2..2 (p = 32..2882)."""

    n, d, reps = 2000, 5, 2
    cs = (-2, -1, 0, 1, 2)

    def prepare(self, run: Run) -> None:
        self.commands = [([
            "simulate", "--model", "1", "--n", str(self.n), "--reps", str(self.reps),
            "--loss", "quadratic", "--kappas", "1.0", "--cs=" + ",".join(map(str, self.cs)),
            "--seed", str(run.seed), "--out-csv", "report.csv",
        ], "report.csv")]

    def round_metrics(self, walls: list[float]) -> tuple[list, list]:
        return walls, [self.reps * len(self.cs) / walls[0]]

    def check(self, run: Run) -> float:
        from sdrn.estimator import FeatureMap
        from sdrn.sparse_grid import enumerate_basis

        lines = (run.work / "report.csv").read_text().splitlines()
        expected = (f"# model=1 n={self.n} noise=normal seed={run.seed} "
                    f"loss=quadratic reps={self.reps}")
        rows = [line.split(",") for line in lines[2:]]
        run.check("report-shape", lines[0] == expected
                  and lines[1] == "kappa,c,m,R,avg_bias2,avg_variance,avg_mse"
                  and [(float(r[0]), int(r[1])) for r in rows] == [(1.0, c) for c in self.cs],
                  "config echo, header and one row per c", "report.csv")
        run.check("schedule", [(int(r[2]), int(r[3])) for r in rows]
                  == [oracles.schedule(self.n, c) for c in self.cs], "(m, R) per c", "report.csv")
        b2, var, mse = (np.array([float(r[k]) for r in rows]) for k in (4, 5, 6))
        identity = np.all(np.abs(mse - b2 - var) <= 1e-12 * mse) and np.all(var > 0)
        run.check("mse-identity", identity,
                  "avg_mse = avg_bias2 + avg_variance, avg_variance > 0", "report.csv")

        m, R = oracles.schedule(self.n, self.cs[-1])
        levels, nodes = oracles.basis_ids(self.d, m)
        X = run.rng.random((32, self.d))
        cols = run.rng.choice(len(levels), 8, replace=False)
        fast = FeatureMap(basis=enumerate_basis(self.d, m), R=R)(X)
        run.graph_oracle([(R, levels[c], nodes[c], X, fast[:, c]) for c in cols], "report.csv")
        return float(np.mean(mse))

    def traced_check(self, run: Run, tracer: Tracer) -> None:
        """The fitted coefficients are not in the report: take the first
        replication of each c from the calls recorded at adam_fit."""
        first = {}
        for Phi, y, config, gamma in tracer.fits:
            first.setdefault(config.c_offset, (Phi, y, config.kappa, gamma))
        gaps = []
        for Phi, y, kappa, gamma in first.values():
            exact = oracles.ridge_minimiser(Phi, y, kappa)
            best = oracles.quadratic_objective(exact, Phi, y, kappa)
            gaps.append((oracles.quadratic_objective(gamma, Phi, y, kappa) - best) / best)
        worst = max(gaps)
        tracer.counts["estimator.solver_rel_gap"] = worst
        run.check("ridge-gap", len(first) == len(self.cs) and worst <= 1e-8,
                  f"relative gap to the exact ridge minimum {worst:.3g} <= 1e-8 for each c",
                  "report.csv")


class VerifyBounds:
    """`sdrn verify-bounds` with its default sweep; its inputs are fixed by the program."""

    commands = [(["verify-bounds", "--out-csv", "bounds.csv"], "bounds.csv")]
    error_kinds = ("square", "pair", "product", "interp-decay")

    def prepare(self, run: Run) -> None:
        pass

    def round_metrics(self, walls: list[float]) -> tuple[list, list]:
        return walls, [self.asserted / walls[0]]

    def check(self, run: Run) -> float:
        from sdrn.relu_product import approx_basis_eval
        from sdrn.sparse_grid import BasisId

        lines = (run.work / "bounds.csv").read_text().splitlines()
        rows = [line.split(",", 5) for line in lines[2:]]
        self.asserted = sum(int(r[4]) for r in rows)
        stdout = (run.work / "cmd0.out").read_text().splitlines()
        run.check("verdict", lines[0] == "# sdrn verify-bounds (default sweep)"
                  and stdout[-1] == f"all {self.asserted} asserted checks passed",
                  "header and 'all N asserted checks passed'", "bounds.csv")
        judged, counted, ratios = True, 0, []
        for name, measured, bound, passed, asserted, note in rows:
            measured, bound = float(measured), float(bound)
            lower = float(note[len("lower="):]) if note.startswith("lower=") else -np.inf
            if name.startswith("cardinality"):
                d, m = (int(part.split("=")[1]) for part in name.split()[1:])
                judged &= measured == oracles.basis_count(d, m)
                counted += 1
            if asserted == "1":
                judged &= lower <= measured <= bound and passed == "1"
                if name.split()[0] in self.error_kinds:
                    ratios.append(measured / bound)
        # 35 table + 49 sandwich cardinality rows; 8 square, 6 pair, 15 product
        # and 6 interpolation error rows
        run.check("rows-rejudged", judged and counted == 84 and len(ratios) == 35,
                  f"{len(rows)} rows re-judged, {counted} cardinalities recounted", "bounds.csv")

        cases = []
        for d in (2, 3, 4, 5, 8):
            for R in (2, 4, 6):
                level = np.zeros(d, dtype=int)
                np.add.at(level, run.rng.integers(0, d, run.rng.integers(0, 5)), 1)
                node = [int(run.rng.integers(0, 2)) if l == 0
                        else 2 * int(run.rng.integers(0, 2 ** (l - 1))) + 1 for l in level]
                X = run.rng.random((16, d))
                fast = approx_basis_eval(R, BasisId(tuple(level), tuple(node)), X)
                cases.append((R, level, node, X, fast))
        run.graph_oracle(cases, "bounds.csv")
        return max(ratios)

    def traced_check(self, run: Run, tracer: Tracer) -> None:
        pass


WORKLOADS = {
    "fit-predict": FitPredict,
    "simulate-sweep": SimulateSweep,
    "verify-bounds": VerifyBounds,
}


def write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def context(sdrn_threads: str | None) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "SDRN_THREADS": f"{sdrn_threads or 'unset'} (unset for the commands)",
    }


def untraced(workload, run: Run, seconds: float) -> dict:
    samples, rss, exits, digests = [], [], [], {}
    start = time.perf_counter()
    while not exits or time.perf_counter() - start < seconds:
        walls = []
        for i, (argv, output) in enumerate(workload.commands):
            (run.work / output).unlink(missing_ok=True)
            wall, peak, rc = run.child(["-m", "sdrn.cli"] + argv, f"cmd{i}")
            walls.append(wall)
            rss.append(peak)
            exits.append(rc)
            digests.setdefault(output, []).append(run.digest(output))
        samples.append(walls)
    setup = [run.child(["-c", "import sdrn.cli"], "setup")[0] for _ in range(SETUP_REPEATS)]
    error = workload.check(run)
    for output, seen in digests.items():
        run.check(f"deterministic {output}", len(set(seen)) == 1,
                  f"identical SHA-256 over {len(seen)} invocation(s)", output)
    # after check(): verify-bounds counts its items from its output
    per_round = [workload.round_metrics(walls) for walls in samples]
    return {
        "exits": exits,
        "rounds": len(samples),
        "digests": {output: seen[0] for output, seen in digests.items()},
        "metrics": {
            "setup_s": statistics.median(setup),
            "command_s": statistics.median(w for c, _ in per_round for w in c),
            "items_per_s": statistics.median(i for _, r in per_round for i in r),
            "error": error,
            "peak_rss_mb": max(rss),
        },
    }


def traced(workload, run: Run) -> dict:
    from sdrn import cli  # noqa: F401  (import cost stays out of both passes)

    tracer = run.tracer
    cwd = os.getcwd()
    os.chdir(run.work)
    try:
        walls, digests, exits = [], {}, []
        for hooks in (None, sdrn_hooks(tracer)):
            if hooks:
                tracer.install(*hooks)
            start = time.perf_counter()
            try:
                for i, (argv, output) in enumerate(workload.commands):
                    with tracer.span("cli.main") if hooks else contextlib.nullcontext():
                        exits.append(run.in_process(argv, f"cmd{i}"))
                    digests.setdefault(output, []).append(run.digest(output))
            finally:
                walls.append(time.perf_counter() - start)
                tracer.uninstall()
    finally:
        os.chdir(cwd)
    tracer.counts["trace.overhead_s"] = walls[1] - walls[0]
    for output, seen in digests.items():
        run.check(f"deterministic {output}", len(set(seen)) == 1,
                  f"identical SHA-256 over {len(seen)} invocations, untraced and traced", output)
    workload.check(run)
    workload.traced_check(run, tracer)
    tracer.fits.clear()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tracer.write(results / f"{run.work.name}.spans.jsonl")
    return {
        "exits": exits,
        "walls": walls,
        "digests": {output: seen[0] for output, seen in digests.items()},
        "metrics": per_layer(tracer),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    workload = WORKLOADS[name]()
    run = Run(name, seed, Tracer() if trace else None)
    workload.prepare(run)
    out = traced(workload, run) if trace else untraced(workload, run, seconds)
    bad_outputs = {c["output"] for c in run.checks.values() if not c["ok"]}
    rounds = len(out["exits"]) // len(workload.commands)
    outputs = [output for _, output in workload.commands] * rounds
    failed = sum(rc != 0 or output in bad_outputs for rc, output in zip(out["exits"], outputs))
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "context": ctx,
        "checks": run.checks, "notes": run.notes,
        **{k: v for k, v in out.items() if k != "metrics"},
    }
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    for check, c in run.checks.items():
        print(f"check {check:<28} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    for metric, m in record["metrics"].items():
        print(f"{name:<15} {metric:<38} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": all(c["ok"] for c in run.checks.values()),
        "attempted": len(out["exits"]),
        "failed": failed,
        "metrics": record["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args()

    if not (ROOT / "src" / "sdrn" / "__init__.py").is_file():
        print(f"perfbench: no sdrn source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sdrn

    if Path(sdrn.__file__).resolve().parent != (ROOT / "src" / "sdrn").resolve():
        print(f"perfbench: imported sdrn from {sdrn.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    # single-threaded replications, in the commands and in the traced passes
    ctx = context(os.environ.pop("SDRN_THREADS", None))
    if args.workload == "all":
        for name in WORKLOADS:
            for trace in ((0, 1) if args.trace is None else (args.trace,)):
                result = run_one(name, args.seed, args.seconds, bool(trace), ctx)
                print(json.dumps(result), flush=True)
        return 0
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace), ctx)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
