"""Command-line front end: fit, predict, simulate, basis-info, verify-bounds.

CSV dialect: comma separated, first row is the header, UTF-8 with or
without a byte-order mark, ``.`` decimal point, as ``csv.reader`` reads
it.  Lines starting with ``#`` before the header are configuration
echoes and are skipped on read, so no column name may start with ``#``.
Exit codes: 0 success, 1 usage error, 2 data error (any
:class:`sdrn.DataError`), 3 bound violation (verify-bounds only), 143
terminated by SIGTERM (no partial output left).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from collections import deque
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import chain, islice, starmap

import numpy as np

from . import DataError
from .estimator import (
    MODEL_SCHEMA_VERSION,
    FitConfig,
    FitDiagnostics,
    SdrnModel,
    fit_sdrn,
    hyperparams_from_n,
)
from .evalsuite import (
    DEFAULT_CS,
    DEFAULT_KAPPAS,
    MODEL_DIMS,
    NOISE_KINDS,
    SimModelSpec,
    run_replications,
    verify_bounds,
)
from .losses import LossSpec, sigmoid
from .relu_product import ComplexityReport, basis_network_complexity
from .sparse_grid import basis_size, cardinality_bounds, cardinality_log_bounds

# a cap on the exact counting work of basis-info; at it, basis_size and
# the network count take well under a second (basis-info --d 100000 --m 0
# --r 511 prints in 0.42 s on a 2-core machine)
MAX_COUNT_TERMS = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# characters of text the block reader reads at a time
_PIECE = 1 << 20
# data rows per block on the per-cell path
_CELL_ROWS = 1 << 14


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row; report bad cells by row/column.

    Returns the header and the ``(rows, columns)`` float array, the
    blocks of :func:`_stream` concatenated, run in this process: numpy's
    C parser reads each piece it can, and from the first it cannot, the
    per-cell ``csv.reader`` path reads the rest.  Each block's row texts
    are dropped as it is read, so only the array is held.  A data error
    in a late block names its row counted from the file's start.
    """
    header, lineno, texts = _read_header(path, _pieces(path))
    return header, np.concatenate(list(_stream(path, header, lineno, texts, lambda data, _: data)))


def _pieces(path: str):
    """The text of ``path`` in whole lines: ``fh.read(_PIECE)`` plus the
    rest of its last line from ``fh.readline()``.  A file that cannot be
    opened, read or decoded is a :class:`DataError`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                yield from iter(lambda: fh.read(_PIECE) + fh.readline(), "")
            except UnicodeDecodeError:
                # parsed as a stream, a bad cell before the undecodable
                # bytes is reported first: this rescan raises one or the other
                fh.seek(0)
                for _ in _parse_cells(path, *_read_header(path, fh)):
                    pass
                raise
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc


def _read_header(path: str, texts):
    """The header of the whole lines ``texts``, read by ``csv.reader``: the
    first record that is neither empty nor starts with ``#``.  Returns it,
    the count of records up to and including it, and the rest of its text
    followed by the later texts."""
    piece = None

    def lines():
        nonlocal piece
        for text in texts:
            piece = io.StringIO(text, newline="")
            yield from piece

    try:
        for lineno, row in enumerate(csv.reader(lines()), start=1):
            if row and not row[0].startswith("#"):
                header = [name.strip() for name in row]
                if any(name.startswith("#") for name in header):
                    # a header line starting with one would be skipped as a comment
                    raise DataError(f"{path}: column names may not start with '#'")
                # a chain keeps its arguments, but an exhausted list iterator
                # lets go of its list: the piece is freed once it is read
                return header, lineno, chain(iter([piece.read()]), texts)
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    raise DataError(f"{path}: empty file, expected a header row")


# Characters on which csv.reader or float() part from a split on "," and
# numpy's parser: quotes, NUL (a csv error before Python 3.11) and
# \x1c-\x1f, which numpy strips as whitespace and float() rejects.
_CSV_READER_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _parse_plain(text: str, header: list[str]):
    """What :func:`_parse_cells` yields for the whole lines ``text``,
    read by numpy's C parser, and the count of lines: ``((data, lines),
    records)``; or None for text it might read otherwise, including all
    bad input, and :func:`_parse_cells` then names the bad row and column."""
    if any(c in text for c in _CSV_READER_CHARS):
        return None
    if "\r" in text:  # csv.reader's line ends: \n, \r\n and \r
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    records = len(lines) - (lines[-1] == "")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    body = [line for line in lines if line]
    if not body:  # loadtxt warns on empty input
        return (np.empty((0, len(header))), body), records
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(body), len(header)) or not np.isfinite(data).all():
        return None
    return (data, body), records


def _parse_cells(path: str, header: list[str], lineno: int, texts):
    """The blocks ``(data, lines)`` of the whole lines ``texts`` after the
    header, whose first line is row ``lineno + 1``, by ``csv.reader``,
    float() on every cell; ``lines`` holds each data row's cells as read,
    as a CSV line (:func:`_record`): where the text has no quotes, that
    is the data line itself."""
    rows: list[list[float]] = []
    lines: list[str] = []
    reader = csv.reader(line for text in texts for line in io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=lineno + 1):
            if not row:
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
            lines.append(_record(row))
            if len(rows) == _CELL_ROWS:
                yield np.array(rows, dtype=float), lines
                rows, lines = [], []
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    yield np.array(rows, dtype=float).reshape(len(rows), len(header)), lines


def _record(cells: list[str]) -> str:
    """``cells`` as one CSV line: a cell that holds a ``,``, a quote, a
    carriage return or a newline is quoted, and its quotes doubled."""
    line = ",".join(cells)
    # one scan of the joined line, so that a row that needs no quotes pays no scan per cell
    if '"' in line or "\n" in line or "\r" in line or line.count(",") >= len(cells):
        line = ",".join('"' + c.replace('"', '""') + '"' if any(s in c for s in ',"\r\n') else c
                        for c in cells)
    return line


def _stream(path: str, header: list[str], lineno: int, texts, block, pool=None, workers=1):
    """The results of ``block(data, lines)`` on the blocks of the whole
    lines ``texts`` after the header's ``lineno`` records, in order
    (:func:`_in_order`).  Numpy's parser reads each piece it can take
    (:func:`_piece`); from the first it cannot, the pieces in flight and
    the rest go through :func:`_parse_cells`."""
    in_flight = deque()  # the pieces handed out and not yet yielded, in input order

    def pieces():
        for text in texts:
            in_flight.append(text)
            yield block, text, header

    for result in _in_order(pool, workers, _piece, pieces()):
        if result is None:  # the per-cell path from this piece on
            cells = _parse_cells(path, header, lineno, chain(in_flight, texts))
            yield from _in_order(pool, workers, block, cells)
            return
        in_flight.popleft()
        lineno += result[1]
        yield result[0]


def _piece(block, text: str, header: list[str]):
    """``block(data, lines)`` of the whole lines ``text`` and their count of
    lines, or None where numpy's parser cannot take them (:func:`_parse_plain`)."""
    parsed = _parse_plain(text, header)
    return parsed and (block(*parsed[0]), parsed[1])


def _in_order(pool, workers: int, fn, calls):
    """``fn(*call)`` for each of ``calls``, in their order: in this process
    when ``pool`` is None, else by the pool's ``workers``, with one call
    queued beyond one per worker."""
    if pool is None:
        yield from starmap(fn, calls)
        return
    pending = deque()
    for call in calls:
        pending.append(pool.submit(fn, *call))
        if len(pending) > workers:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _format(value: float) -> str:
    return repr(float(value))


def _e_notation(mantissa: float, exponent: int) -> str:
    """``mantissa * 10**exponent`` for ``1 <= mantissa < 10``, as repr writes a float."""
    return f"{mantissa!r}".removesuffix(".0") + f"e+{exponent}"


def _format_log(log_value: float) -> str:
    """The positive number ``exp(log_value)`` in e-notation, also beyond the float range."""
    exponent, fraction = divmod(log_value / math.log(10.0), 1.0)
    return _e_notation(10.0 ** fraction, int(exponent))


def _format_count(n: int) -> str:
    """The positive integer ``n`` in full, or in e-notation where it has
    more digits than Python converts to text (4300 by default)."""
    try:
        return str(n)
    except ValueError:
        pass
    # the exponent from the bit length, settled against exact powers of
    # ten; int / int rounds the mantissa correctly
    exponent = int((n.bit_length() - 1) * math.log10(2.0))
    while 10 ** exponent > n:
        exponent -= 1
    while 10 ** (exponent + 1) <= n:
        exponent += 1
    mantissa = n / 10 ** exponent
    if mantissa == 10.0:  # n just below the next power of ten
        mantissa, exponent = 1.0, exponent + 1
    return _e_notation(mantissa, exponent)


def implied_network_complexity(d: int, p: int, R: int) -> ComplexityReport:
    """Complexity of the full estimator network: p basis nets + combiner."""
    per = basis_network_complexity(d, R)
    return ComplexityReport(
        depth=per.depth + 1,
        units=per.units * p + 1,
        weights=per.weights * p + p + 1,
    )


def cmd_fit(args) -> int:
    loss = LossSpec.parse(args.loss)
    if args.m is not None and args.c is not None:
        raise DataError("--m overrides the schedule; passing --c as well is contradictory")
    c_offset = 0 if args.c is None else args.c
    config = FitConfig(loss=loss, kappa=args.kappa, c_offset=c_offset)
    header, data = read_csv(args.input)
    if repeated := sorted({h for h in header if header.count(h) > 1}):
        raise DataError(f"{args.input}: column names {repeated} appear more than once")
    if args.target not in header:
        raise DataError(f"target column {args.target!r} not found in {args.input}")
    if len(header) < 2:
        raise DataError(f"{args.input}: need at least one covariate column besides the target")
    t_idx = header.index(args.target)
    y = data[:, t_idx]
    X = np.delete(data, t_idx, axis=1)
    columns = [h for i, h in enumerate(header) if i != t_idx]
    model = fit_sdrn(X, y, config, m=args.m, R=args.r, column_names=columns)
    _write(args.model_out, json.dumps(model.to_json(), indent=2, sort_keys=True) + "\n")
    diag: FitDiagnostics = model.diagnostics
    net = implied_network_complexity(model.d, len(model.gamma), model.R)
    sched_m, sched_R = hyperparams_from_n(len(y), c_offset)
    print(f"fitted {args.input}: n={len(y)} d={model.d} target={args.target}")
    print(f"loss={loss.selector()} kappa={_format(model.kappa)} c={c_offset}")
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


@contextmanager
def _atomic_output(path: str | None):
    """A text file for output that appears whole or not at all.

    A regular file (or a new one) is written through a temporary file in
    its directory and replaced on success; standard output (``None``) is
    spooled to a temporary file and copied at the end.  Anything else,
    such as ``/dev/null`` or a FIFO, is written in place: replacing it
    would turn it into a regular file.  An ``OSError`` on the way, the
    writes of the ``with`` body included, is raised as a
    :class:`DataError` naming the output.
    """
    try:
        if path is None:
            with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
                yield spool
                spool.seek(0)
                shutil.copyfileobj(spool, sys.stdout)
            return
        target = os.path.realpath(path)  # through a symlink, not over it
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "w", encoding="utf-8") as fh:
                yield fh
            return
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            if os.path.exists(target):  # a replaced file keeps its permissions
                shutil.copymode(target, tmp)
            with fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {'standard output' if path is None else path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write the finished ``text`` to ``path`` (standard output for None)
    through :func:`_atomic_output`."""
    with _atomic_output(path) as out:
        out.write(text)


def _block_text(data: np.ndarray, lines: list[str], job=None) -> str:
    """A block's output rows, each row as read and repr of its score (and
    probability), for ``job``, ``(model, column order)``: a worker's by default."""
    model, order = job or _worker_job
    scores = model.predict(data[:, order])
    if model.loss.kind == "logistic":
        rows = zip(lines, scores.tolist(), sigmoid(scores).tolist())
        return "".join(f"{row},{s!r},{q!r}\n" for row, s, q in rows)
    return "".join(f"{row},{s!r}\n" for row, s in zip(lines, scores.tolist()))


_worker_job = None  # set as a pool worker starts, so that no block carries the model


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job
    # the parent shuts the pool down on an interrupt or a SIGTERM; an
    # orphan would wait for blocks forever
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})  # held while the parent forked
    parent = sys.modules["multiprocessing"].parent_process()
    threading.Thread(target=lambda: parent.join() or os._exit(1), daemon=True).start()


def cmd_predict(args) -> int:
    """Score the input one piece at a time, so memory stays flat as the
    row count grows.  This process reads the header (:func:`_read_header`)
    and one piece ahead per usable CPU; where it reads more than one, a
    forked worker per piece read ahead parses, scores and formats them,
    and their text is written in input order (:func:`_stream`).  From the
    first piece that numpy's parser cannot take, this process reads the
    rest through the per-cell path, and the workers score its blocks."""
    try:
        model = SdrnModel.load(args.model)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load model {args.model}: {exc}") from exc
    header, lineno, texts = _read_header(args.input, _pieces(args.input))
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    ahead = list(islice(texts, len(os.sched_getaffinity(0)) if forks else 1))
    workers, texts = len(ahead), chain(iter(ahead), texts)
    del ahead  # as in _read_header, a piece is freed once it is read
    if model.column_names:
        missing = [c for c in model.column_names if c not in header]
        if missing:
            raise DataError(f"{args.input}: missing model columns {missing}")
        if repeated := [c for c in model.column_names if header.count(c) > 1]:
            raise DataError(f"{args.input}: model columns {repeated} appear more than once")
        order = [header.index(c) for c in model.column_names]
    else:
        if len(header) != model.d:
            raise DataError(
                f"{args.input}: model expects {model.d} unnamed columns, got {len(header)}"
            )
        order = list(range(model.d))
    out_header = header + ["prediction"]
    if model.loss.kind == "logistic":
        out_header.append("probability")
    job = (model, order)
    with _atomic_output(args.output) as out, ExitStack() as stack:
        out.write(f"# sdrn-predict model={args.model} schema_version={MODEL_SCHEMA_VERSION}\n")
        out.write(_record(out_header) + "\n")
        pool, block = None, partial(_block_text, job=job)
        if workers > 1:  # imported here, so that import sdrn.cli does not pay for them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            model.feature_map.plan  # planned once, before the fork, for every worker
            ctx = multiprocessing.get_context("fork")  # spawn, forkserver re-import sdrn
            # the workers fork at the first submit; SIGTERM is held until
            # they have, because an exception its handler raises inside an
            # at-fork hook (logging registers some) is dropped
            with _sigterm_held():
                pool = stack.enter_context(ProcessPoolExecutor(workers, ctx, _start_worker, (job,)))
                pool.submit(int)
            block = _block_text  # the workers hold the job
        out.writelines(_stream(args.input, header, lineno, texts, block, pool, workers))
    return 0


def _parse_grid(flag: str, text: str, cast) -> tuple:
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise DataError(f"bad {flag} value in {text!r}: {exc}") from exc
    if not values:
        raise DataError(f"empty {flag} grid {text!r}")
    for i, value in enumerate(values):  # a repeat would fit and report its cells twice
        if value in values[:i]:
            raise DataError(f"{flag} {text!r} repeats the value {value!r}")
    return values


def cmd_simulate(args) -> int:
    kappas = _parse_grid("--kappas", args.kappas, float)
    cs = _parse_grid("--cs", args.cs, int)
    loss = LossSpec.parse(args.loss)
    spec = SimModelSpec(model_id=args.model, n=args.n, noise=args.noise, seed=args.seed)
    report = run_replications(spec, loss, reps=args.reps, kappas=kappas, cs=cs)
    _write(args.out_csv or None, report.to_csv())
    if args.out_json:
        _write(args.out_json, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_basis_info(args) -> int:
    if args.d < 1 or args.m < 0:
        raise DataError("need --d >= 1 and --m >= 0")
    if args.d * (args.m + 1) ** 2 > MAX_COUNT_TERMS:
        raise DataError(
            f"basis-info counts bases with d*(m+1)**2 <= {MAX_COUNT_TERMS}, "
            f"got d={args.d}, m={args.m}"
        )
    # the network count refuses a bad --r before the first line prints
    per = None if args.r is None else basis_network_complexity(args.d, args.r)
    size = basis_size(args.d, args.m)
    print(f"d={args.d} m={args.m}")
    print(f"basis size={_format_count(size)}")
    if args.d >= 2:
        lower, upper = (
            _format(value) if math.isfinite(value) else _format_log(log_value)
            for value, log_value in zip(
                cardinality_bounds(args.d, args.m), cardinality_log_bounds(args.d, args.m)
            )
        )
        print(f"cardinality bounds: lower={lower} upper={upper}")
    if args.r is not None:
        net = implied_network_complexity(args.d, size, args.r)
        print(f"per-feature network (R={args.r}): depth={per.depth} units={per.units} weights={per.weights}")
        print(
            f"full network: depth={net.depth} units={_format_count(net.units)} "
            f"weights={_format_count(net.weights)}"
        )
    return 0


def cmd_verify_bounds(args) -> int:
    report = verify_bounds()
    if args.out_csv:
        _write(args.out_csv, "# sdrn verify-bounds (default sweep)\n" + report.to_csv())
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
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="append predictions to a CSV file")
    p_pred.add_argument("--model", required=True, help="model JSON from fit")
    p_pred.add_argument("--input", required=True, help="covariate CSV (columns matched by name)")
    p_pred.add_argument("--output", default=None, help="output CSV (default: stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="replication study on a synthetic model")
    p_sim.add_argument("--model", type=int, required=True, choices=list(MODEL_DIMS), help="model id")
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--noise", default="normal", choices=NOISE_KINDS)
    p_sim.add_argument("--loss", default="quadratic")
    p_sim.add_argument("--kappas", default=",".join(str(k) for k in DEFAULT_KAPPAS))
    p_sim.add_argument("--cs", default=",".join(str(c) for c in DEFAULT_CS))
    p_sim.add_argument("--seed", type=int, default=0)
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


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_unwinds():
    """While a command runs in the main thread, SIGTERM raises
    ``SystemExit(143)``, so the command unwinds as from an interrupt:
    :func:`_atomic_output` removes its temporary file and ``predict``
    shuts its workers down.  The previous handler is restored after."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def _sigterm_held():
    """SIGTERM stays pending in the body and is delivered after it."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _sigterm_unwinds():
            return args.func(args)
    except DataError as exc:
        print(f"sdrn: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
