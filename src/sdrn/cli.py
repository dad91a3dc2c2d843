"""Command-line front end: fit, predict, simulate, basis-info, verify-bounds.

CSV dialect: comma separated, first row is the header, UTF-8, ``.``
decimal point, numeric fields unquoted.  Lines starting with ``#`` are
configuration echoes and are skipped on read.  Exit codes: 0 success,
1 usage error, 2 data error, 3 bound violation (verify-bounds only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .estimator import (
    ConstantColumnError,
    FitConfig,
    FitDiagnostics,
    NonFiniteObjectiveError,
    SdrnModel,
    fit_sdrn,
    hyperparams_from_n,
)
from .evalsuite import (
    DEFAULT_CS,
    DEFAULT_KAPPAS,
    SimModelSpec,
    run_replications,
    verify_bounds,
)
from .losses import LossInputError, LossSpec
from .relu_product import ComplexityReport, basis_network_complexity
from .sparse_grid import BasisSizeError, basis_size, cardinality_bounds, cardinality_log_bounds

DEFAULT_SEED = 0
EPOCHS_HELP = (
    "iteration cap of the Newton (huber, logistic) and interior-point (quantile) fits; "
    "the quadratic loss is solved exactly"
)
TOL_HELP = (
    "relative target for the fit's optimality certificate (huber, logistic) "
    "or duality gap (quantile)"
)


class DataError(Exception):
    """Bad input data: missing columns, non-numeric or non-finite cells, schema mismatch."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Read a numeric CSV with a header row; report bad cells by row/column."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header: list[str] | None = None
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].startswith("#") and header is None):
                continue
            if header is None:
                header = [c.strip() for c in row]
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}"
                )
            values = []
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    kind = "non-numeric" if value is None else "non-finite"
                    raise DataError(
                        f"{path}: {kind} value {cell!r} at row {lineno}, "
                        f"column {header[j]!r}"
                    )
                values.append(value)
            rows.append(values)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    return header, rows


def _format(value: float) -> str:
    return repr(float(value))


def _format_log(log_value: float) -> str:
    """The positive number ``exp(log_value)`` in e-notation, also beyond the float range."""
    exponent, fraction = divmod(log_value / math.log(10.0), 1.0)
    return f"{10.0 ** fraction!r}e+{int(exponent)}"


def implied_network_complexity(d: int, p: int, R: int) -> ComplexityReport:
    """Complexity of the full estimator network: p basis nets + combiner."""
    per = basis_network_complexity(d, R)
    return ComplexityReport(
        depth=per.depth + 1,
        units=per.units * p + 1,
        weights=per.weights * p + p + 1,
    )


def cmd_fit(args) -> int:
    try:
        loss = LossSpec.parse(args.loss)
    except (LossInputError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    if args.m is not None and args.c is not None:
        raise DataError("--m overrides the schedule; passing --c as well is contradictory")
    if args.m is not None and args.m < 0 or args.r is not None and args.r < 1:
        raise DataError("need --m >= 0 and --r >= 1")
    c_offset = 0 if args.c is None else args.c
    header, rows = read_csv(args.input)
    if args.target not in header:
        raise DataError(f"target column {args.target!r} not found in {args.input}")
    if len(rows) < 2:
        raise DataError(f"{args.input}: need at least two data rows to fit")
    t_idx = header.index(args.target)
    data = np.array(rows, dtype=float)
    y = data[:, t_idx]
    X = np.delete(data, t_idx, axis=1)
    columns = [h for i, h in enumerate(header) if i != t_idx]
    config = FitConfig(
        loss=loss,
        kappa=args.kappa,
        c_offset=c_offset,
        epochs=args.epochs,
        tol=args.tol,
    )
    try:
        model = fit_sdrn(X, y, config, m=args.m, R=args.r, column_names=columns)
    except ConstantColumnError as exc:
        raise DataError(str(exc)) from exc
    model.save(args.model_out)
    diag: FitDiagnostics = model.diagnostics
    net = implied_network_complexity(model.d, len(model.gamma), model.R)
    sched_m, sched_R = hyperparams_from_n(len(y), c_offset)
    print(f"fitted {args.input}: n={len(y)} d={model.d} target={args.target}")
    print(f"loss={loss.selector()} kappa={_format(model.kappa)} c={c_offset} seed={args.seed}")
    print(
        f"m={model.m} R={model.R}"
        + ("" if (model.m, model.R) == (sched_m, sched_R) else " (overridden)")
    )
    print(f"basis size={len(model.gamma)}")
    print(f"network depth={net.depth} units={net.units} weights={net.weights}")
    print(
        f"final objective={_format(diag.final_objective)} iterations={diag.epochs_run} "
        f"certificate={diag.certificate:.3g} converged={diag.converged}"
    )
    print(f"train sup-norm={_format(diag.sup_norm)}")
    if loss.kind == "quadratic":
        m_bound = diag.max_residual
        print(f"lipschitz constant=2M={_format(loss.lipschitz_constant(m_bound))} (M={_format(m_bound)})")
    else:
        print(f"lipschitz constant={_format(loss.lipschitz_constant())}")
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    try:
        model = SdrnModel.load(args.model)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load model {args.model}: {exc}") from exc
    header, rows = read_csv(args.input)
    if model.column_names:
        missing = [c for c in model.column_names if c not in header]
        if missing:
            raise DataError(f"{args.input}: missing model columns {missing}")
        order = [header.index(c) for c in model.column_names]
    else:
        if len(header) != model.d:
            raise DataError(
                f"{args.input}: model expects {model.d} unnamed columns, got {len(header)}"
            )
        order = list(range(model.d))
    out_header = header + ["prediction"]
    logistic = model.loss.kind == "logistic"
    if logistic:
        out_header.append("probability")
    lines = [f"# sdrn-predict model={args.model} schema_version=1"]
    lines.append(",".join(out_header))
    if rows:
        X = np.array(rows, dtype=float)[:, order]
        scores = model.predict(X)
        probs = model.predict_proba(X) if logistic else None
        for i, row in enumerate(rows):
            cells = [_format(v) for v in row] + [_format(scores[i])]
            if logistic:
                cells.append(_format(probs[i]))
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_grid(text: str, cast) -> tuple:
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise DataError(f"bad grid value in {text!r}: {exc}") from exc
    if not values:
        raise DataError(f"empty grid {text!r}")
    return values


def cmd_simulate(args) -> int:
    try:
        loss = LossSpec.parse(args.loss)
        spec = SimModelSpec(model_id=args.model, n=args.n, noise=args.noise, seed=args.seed)
    except (LossInputError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    kappas = _parse_grid(args.kappas, float)
    cs = _parse_grid(args.cs, int)
    config = FitConfig(loss=loss, epochs=args.epochs, tol=args.tol)
    report = run_replications(spec, config, reps=args.reps, kappas=kappas, cs=cs)
    csv_text = report.to_csv()
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_basis_info(args) -> int:
    if args.d < 1 or args.m < 0 or args.r is not None and args.r < 1:
        raise DataError("need --d >= 1, --m >= 0 and --r >= 1")
    size = basis_size(args.d, args.m)
    print(f"d={args.d} m={args.m}")
    print(f"basis size={size}")
    if args.d >= 2:
        lower, upper = (
            _format(value) if math.isfinite(value) else _format_log(log_value)
            for value, log_value in zip(
                cardinality_bounds(args.d, args.m), cardinality_log_bounds(args.d, args.m)
            )
        )
        print(f"cardinality bounds: lower={lower} upper={upper}")
    if args.r is not None:
        per = basis_network_complexity(args.d, args.r)
        net = implied_network_complexity(args.d, size, args.r)
        print(f"per-feature network (R={args.r}): depth={per.depth} units={per.units} weights={per.weights}")
        print(f"full network: depth={net.depth} units={net.units} weights={net.weights}")
    return 0


def cmd_verify_bounds(args) -> int:
    report = verify_bounds()
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("# sdrn verify-bounds (default sweep)\n")
            fh.write(report.to_csv())
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        if not c.asserted:
            status += " (reported only)"
        extra = f" {c.note}" if c.note else ""
        print(f"{c.name:<{width}} measured={c.measured!r} bound={c.bound!r}{extra} {status}")
    if not report.all_passed:
        print("bound violations detected", file=sys.stderr)
        return 3
    print(f"all {sum(1 for c in report.checks if c.asserted)} asserted checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sdrn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model on a CSV file")
    p_fit.add_argument("--input", required=True, help="training CSV with a header row")
    p_fit.add_argument("--target", required=True, help="name of the response column")
    p_fit.add_argument("--model-out", required=True, help="path for the model JSON")
    p_fit.add_argument("--loss", default="quadratic", help="quadratic | huber:<d> | quantile:<t> | logistic")
    p_fit.add_argument("--kappa", type=float, default=1.0, help="ridge tuning parameter (lambda = kappa/n)")
    p_fit.add_argument("--c", type=int, default=None, help="offset in the m-schedule (conflicts with --m)")
    p_fit.add_argument("--m", type=int, default=None, help="override the level-sum budget m")
    p_fit.add_argument("--r", type=int, default=None, help="override the product accuracy R")
    p_fit.add_argument("--epochs", type=int, default=5000, help=EPOCHS_HELP)
    p_fit.add_argument("--tol", type=float, default=1e-12, help=TOL_HELP)
    p_fit.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="echoed in the summary; the fit does not use it"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="append predictions to a CSV file")
    p_pred.add_argument("--model", required=True, help="model JSON from fit")
    p_pred.add_argument("--input", required=True, help="covariate CSV (columns matched by name)")
    p_pred.add_argument("--output", default=None, help="output CSV (default: stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="replication study on a synthetic model")
    p_sim.add_argument("--model", type=int, required=True, choices=[1, 2, 3, 4], help="model id 1..4")
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--noise", default="normal", choices=["normal", "laplace", "none"])
    p_sim.add_argument("--loss", default="quadratic")
    p_sim.add_argument("--kappas", default=",".join(str(k) for k in DEFAULT_KAPPAS))
    p_sim.add_argument("--cs", default=",".join(str(c) for c in DEFAULT_CS))
    p_sim.add_argument("--epochs", type=int, default=3000, help=EPOCHS_HELP)
    p_sim.add_argument("--tol", type=float, default=1e-12, help=TOL_HELP)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--out-csv", default=None)
    p_sim.add_argument("--out-json", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_info = sub.add_parser("basis-info", help="basis size, bounds, network complexity")
    p_info.add_argument("--d", type=int, required=True)
    p_info.add_argument("--m", type=int, required=True)
    p_info.add_argument("--r", type=int, default=None)
    p_info.set_defaults(func=cmd_basis_info)

    p_ver = sub.add_parser("verify-bounds", help="run the bound-verification sweep")
    p_ver.add_argument("--out-csv", default=None)
    p_ver.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, LossInputError, BasisSizeError, NonFiniteObjectiveError) as exc:
        print(f"sdrn: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
