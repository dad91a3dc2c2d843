"""Property tests: every CSV and every numeric option ends in a documented
exit code (0 ok, 1 usage, 2 data), never in an uncaught exception, and
``read_csv`` and the blocks it streams read every CSV as the per-cell
``csv.reader`` parser does, also when the block reader splits the text
into many small pieces.

The fuzzed sizes stay small on purpose: the basis-id cap is the only
memory guard today, so a level-sum budget just under the cap on a wide
file would allocate gigabytes before any check (see ROADMAP, the
Gram-matrix item).  Budgets far above the cap are fuzzed, because they
are refused before anything is counted or allocated.
"""

import contextlib
import csv
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import csv_blocks
from sdrn import cli
from sdrn import evalsuite as ev
from sdrn.estimator import SAVED_DIAGNOSTICS, FitConfig, fit_sdrn
from sdrn.losses import LossSpec

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# mostly in-range values, so that most draws reach the fit, and any float
FLOATS = st.one_of(st.floats(1e-3, 1e3), st.floats(width=64))
LOSSES = st.one_of(
    st.sampled_from(["quadratic", "huber:1.0", "quantile:0.5", "logistic"]),
    FLOATS.map(lambda delta: f"huber:{delta!r}"),
    FLOATS.map(lambda tau: f"quantile:{tau!r}"),
)

# numeric cells, with the odd spellings float() accepts, and arbitrary text
CELLS = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(min_value=-3.0, max_value=3.0).map(repr),
    st.integers(-(10 ** 400), 10 ** 400).map(str),
    st.sampled_from(["", " 1.5 ", "1e400", "-0", "0x1", "1_0", "nan", "-inf", "#1", '"2"']),
    st.text(max_size=6),
)
SMALL_CELLS = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(repr),
    st.integers(0, 1).map(str),
)


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def _write(path: Path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


@st.composite
def tables(draw, cells):
    width = draw(st.integers(1, 4))
    names = st.lists(st.sampled_from(["a", "b", "", "#h", "y"]), min_size=width - 1, max_size=width - 1)
    header = draw(st.one_of(st.just([f"x{j}" for j in range(width - 1)]), names)) + ["y"]
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=40))
    return header, rows


@FUZZ
@given(table=tables(CELLS), loss=LOSSES)
def test_fit_on_fuzzed_csv_ends_in_an_exit_code(table, loss):
    with tempfile.TemporaryDirectory() as tmp:
        train = Path(tmp) / "train.csv"
        _write(train, *table)
        argv = ["fit", "--input", str(train), "--target", "y", "--loss", loss,
                "--model-out", str(Path(tmp) / "m.json")]
        assert _exit_code(argv) in (0, 2)


@FUZZ
@given(table=tables(SMALL_CELLS), loss=LOSSES, shuffle=st.randoms(use_true_random=False))
def test_fit_predict_round_trip_on_fuzzed_csv(table, loss, shuffle):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        train, model = Path(tmp) / "train.csv", Path(tmp) / "m.json"
        _write(train, header, rows)
        argv = ["fit", "--input", str(train), "--target", "y", "--loss", loss,
                "--model-out", str(model)]
        code = _exit_code(argv)
        assert code in (0, 2)
        if code != 0:
            assert not model.exists()
            return
        # the fitted columns, matched by name in any order, predict every row
        order = list(range(len(header)))
        shuffle.shuffle(order)
        new = Path(tmp) / "new.csv"
        _write(new, [header[j] for j in order], [[row[j] for j in order] for row in rows])
        out = Path(tmp) / "pred.csv"
        assert _exit_code(["predict", "--model", str(model), "--input", str(new),
                           "--output", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2 + len(rows)


BIG_BUDGET = st.integers(24, 10 ** 12)  # refused by the id cap from 2**m alone


@FUZZ
@given(
    kappa=FLOATS,
    m=st.one_of(st.none(), st.integers(-3, 3), BIG_BUDGET),
    c=st.one_of(st.none(), st.integers(-4, 1), BIG_BUDGET),
    r=st.one_of(st.none(), st.integers(-3, 12), st.integers(500, 3000)),
    loss=LOSSES,
)
def test_fit_options_end_in_an_exit_code(kappa, m, c, r, loss):
    with tempfile.TemporaryDirectory() as tmp:
        train = Path(tmp) / "train.csv"
        rows = [[repr(0.1 * i), repr((0.37 * i) % 1.0), str(i % 2)] for i in range(30)]
        _write(train, ["a", "b", "y"], rows)
        argv = ["fit", "--input", str(train), "--target", "y", "--loss", loss,
                "--model-out", str(Path(tmp) / "m.json"), f"--kappa={kappa!r}"]
        for flag, value in (("--m", m), ("--c", c), ("--r", r)):
            if value is not None:
                argv.append(f"{flag}={value}")
        assert _exit_code(argv) in (0, 2)


@FUZZ
@given(
    model=st.one_of(st.integers(1, 4), st.integers(-1, 6)),
    n=st.integers(-2, 60),
    reps=st.one_of(st.integers(1, 2), st.integers(-1, 0)),
    kappas=st.one_of(st.lists(FLOATS, min_size=1, max_size=2).map(
        lambda ks: ",".join(repr(k) for k in ks)), st.text(max_size=6)),
    cs=st.one_of(st.lists(st.integers(-4, 0), min_size=1, max_size=2).map(
        lambda cs: ",".join(map(str, cs))), st.one_of(BIG_BUDGET.map(str), st.text(max_size=6))),
    loss=LOSSES,
    noise=st.sampled_from(["normal", "laplace", "none"]),
)
def test_simulate_options_end_in_an_exit_code(model, n, reps, kappas, cs, loss, noise):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", f"--model={model}", f"--n={n}", f"--reps={reps}",
                f"--kappas={kappas}", f"--cs={cs}",
                "--loss", loss, "--noise", noise, "--out-csv", str(Path(tmp) / "sim.csv")]
        assert _exit_code(argv) in (0, 1, 2)


@functools.cache
def _valid_model():
    """A fitted model's JSON text (d = 5, m = 1, 112 ids) and a five-row input for it."""
    X, y = ev.generate(ev.SimModelSpec(model_id=1, n=80, seed=0))
    names = [f"x{j}" for j in range(1, 6)]
    model = fit_sdrn(X, y, FitConfig(loss=LossSpec("quadratic")), column_names=names)
    rows = [",".join(map(repr, row)) for row in X[:5].tolist()]
    return json.dumps(model.to_json()), "\n".join([",".join(names), *rows]) + "\n"


DROP, RETYPE = "<drop the field>", "<the field's JSON text, as a string>"
# every field of a model file, and the first entries of its lists; a
# renamed column is left out, as it makes a valid model for other inputs
MODEL_FIELDS = [
    ("schema_version",), ("d",), ("m",), ("R",), ("kappa",), ("loss",), ("loss", "kind"),
    ("loss", "delta"), ("loss", "tau"), ("scaler",), ("scaler", "min"), ("scaler", "max"),
    ("scaler", "min", 0), ("scaler", "max", 0), ("columns",), ("gamma",), ("gamma", 0),
    ("gamma", 1), ("diagnostics",), *(("diagnostics", name) for name in SAVED_DIAGNOSTICS),
]
FIELD_VALUES = [DROP, RETYPE, 0, -1, 1e308, 10 ** 400, "nan", True, [], {}]


@settings(FUZZ, max_examples=100)
@given(edits=st.tuples(st.sampled_from(MODEL_FIELDS), st.sampled_from(FIELD_VALUES)).map(
    lambda edit: [edit]))
@example(edits=[(("kappa",), -1)])
@example(edits=[(("scaler", "min", 0), -1e308), (("scaler", "max", 0), 1e308)])
@example(edits=[(("gamma", 0), 1e308), (("gamma", 1), 1e308)])
@example(edits=[(("gamma", 0), "1")])
@example(edits=[(("schema_version",), True)])
@example(edits=[(("schema_version",), 1.0)])
def test_a_model_file_that_loads_predicts_finite_scores(edits):
    # a changed model file either predicts finite scores with nothing on
    # stderr and no warning, or is refused on load with one line and no output
    text, rows = _valid_model()
    doc = json.loads(text)
    for path, value in edits:
        *outer, last = path
        field = functools.reduce(lambda node, key: node[key], outer, doc)
        if value == DROP:
            del field[last]
        else:
            field[last] = json.dumps(field[last]) if value == RETYPE else value
    with tempfile.TemporaryDirectory() as tmp:
        model, five, out = Path(tmp) / "m.json", Path(tmp) / "five.csv", Path(tmp) / "out.csv"
        model.write_text(json.dumps(doc), encoding="utf-8")
        five.write_text(rows, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(["predict", "--model", str(model), "--input", str(five),
                           "--output", str(out)])
        assert not caught
        if rc == 0:
            assert err.getvalue() == ""
            scores = [float(line.split(",")[-1]) for line in out.read_text().splitlines()[2:]]
            assert len(scores) == 5 and all(map(math.isfinite, scores))
        else:
            assert rc == 2 and not out.exists()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("sdrn: data error: cannot load model")


def _reference_read_csv(path):
    """The per-cell reader ``read_csv`` replaced: csv.reader over the file
    stream, without a leading byte-order mark, and float() on every cell,
    with the same messages; a row's line is its cells as ``csv.writer``
    writes them."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header, rows, lines = None, [], []
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (row[0].startswith("#") and header is None):
                    continue
                if header is None:
                    header = [c.strip() for c in row]
                    if any(name.startswith("#") for name in header):
                        raise cli.DataError(f"{path}: column names may not start with '#'")
                    continue
                if len(row) != len(header):
                    raise cli.DataError(
                        f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}")
                values = []
                for j, cell in enumerate(row):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = None
                    if value is None or not math.isfinite(value):
                        kind = "non-numeric" if value is None else "non-finite"
                        raise cli.DataError(f"{path}: {kind} value {cell!r} at row {lineno}, "
                                            f"column {header[j]!r}")
                    values.append(value)
                rows.append(values)
                # csv.writer quotes a cell holding a character of its line end
                record = io.StringIO()
                csv.writer(record, lineterminator="\r\n").writerow(row)
                lines.append(record.getvalue().removesuffix("\r\n"))
    except OSError as exc:
        raise cli.DataError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise cli.DataError(f"{path}: unreadable CSV: {exc}") from exc
    if header is None:
        raise cli.DataError(f"{path}: empty file, expected a header row")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header)), lines


def _read_either(read, path):
    try:
        return read(path)
    except cli.DataError as exc:
        return str(exc)


# whitespace float() strips and str.splitlines() breaks on, and \x1c,
# which numpy's parser strips but float() rejects
ODD_CELLS = st.sampled_from(
    ["\x0c1", "1\x0c", "2\u2028", "\x853", "\x1c1", "1\x1d", " 2 ", "1.50", "1e-3", "\u20031"])
ODD_LINES = st.sampled_from(["", " ", "\t", "#", "# note", "#1,2", ",", '"#q",1'])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    # any cells, or valid ones mixed with the odd ones, so that whole files parse
    cells = draw(st.sampled_from([st.one_of(CELLS, ODD_CELLS), st.one_of(SMALL_CELLS, ODD_CELLS)]))
    names = st.lists(st.sampled_from(["a", " b ", "", "#h", "y", "c\x0c", '"d,e"', '"#f"']),
                     min_size=width, max_size=width)
    header = draw(st.one_of(st.just([f"x{j}" for j in range(width)]), names))
    row = st.lists(cells, min_size=width, max_size=width)
    # short, long and trailing-comma rows
    ragged = st.lists(cells, min_size=1, max_size=width + 1).map(lambda r: r + [""] * (len(r) % 2))
    body = draw(st.lists(st.one_of(row, row, ragged, ODD_LINES.map(lambda line: [line])),
                         max_size=12))
    lines = draw(st.lists(ODD_LINES, max_size=2)) + [",".join(header)]
    lines += [",".join(r) for r in body]
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def _read_blocks_joined(path):
    """The header, the data and the row lines of ``read_csv``'s blocks
    (``conftest.csv_blocks``), concatenated over the blocks."""
    parts, lines = [], []
    for header, data, block_lines in csv_blocks(path):
        parts.append(data)
        lines += block_lines
    return header, np.concatenate(parts), lines


def _read_in_pieces(path, piece):
    """The blocks reading ``piece`` characters (and the rest of the
    last line) at a time, the per-cell path yielding a block every two rows."""
    with mock.patch.object(cli, "_PIECE", piece), mock.patch.object(cli, "_CELL_ROWS", 2):
        return _read_either(_read_blocks_joined, path)


PIECES = (1, 7, 64, cli._PIECE)


@settings(FUZZ, max_examples=300)
@given(text=csv_texts())
@example(text="x\n")  # header only
@example(text="a,b")  # header only, no line end
@example(text="a,b\r\n1,2\r\n#3,4\r\n")
@example(text='a,b\n"1",2\n')  # quoted cells reach float() without their quotes
@example(text="a,b\n" + "1,2\n" * 30 + '"3",4\n5,6\n')  # the first quote in a late block
@example(text='a,b\n' + "1,2\n" * 30 + '"3\n4",5\n')  # a quoted line end in a late block
@example(text="abc,de\r\n" + "1.5,2\r\n" * 20)  # \r\n split across 7-character pieces
@example(text="a,b\r1,2\r\r3,4\r")  # \r line ends only
@example(text="#" + "c" * 100 + "\n\n# more\n\r\na,b\n1,2\n")  # comments across pieces
@example(text="a,b\n" + "1,2\n" * 30 + "1,x\n")  # a bad cell in a late block
@example(text="a\n0." + "0" * csv.field_size_limit() + "1\n")  # past csv's field limit
@example(text="a,b\n1,2\x0c3,4\n")  # one row with three fields, not two rows
@example(text="a\n\x1c1\n")  # float() rejects \x1c
@example(text='"a\nb",c\n1,2\n')  # a quoted line end in the header
@example(text='#x\n"#q",1\n"a\r\nb",c\r\n1,2\n3,4')  # comments, then a header of two lines
@example(text="a," * (csv.field_size_limit() // 2) + "a\n")  # a header past csv's field limit
@example(text='"a,b",c\n"1\n",2\r\n"3\r",4\n')  # cells holding line ends are quoted
@example(text="\ufeffa,b\n1,2\n")  # a byte-order mark, which is no part of the name
def test_read_csv_matches_the_per_cell_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = _read_either(_reference_read_csv, path)
        for piece in PIECES:
            got = _read_in_pieces(path, piece)
            if isinstance(want, str):
                assert got == want
            else:
                assert not isinstance(got, str), got
                assert got[0] == want[0] and got[2] == want[2]
                assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
                assert got[1].tobytes() == want[1].tobytes()
        # read_csv is those blocks' header and data
        got = _read_either(cli.read_csv, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def test_read_blocks_streams_the_rows(tmp_path):
    # 1 KiB pieces split 2000 rows into blocks: the numpy path's blocks,
    # then, from the first quote, the per-cell path's
    path = tmp_path / "in.csv"
    lines = ["0.5,0.25"] * 2000
    lines[1500] = '"0.5",0.25'
    path.write_text("a,b\n" + "\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(cli, "_PIECE", 1024), mock.patch.object(cli, "_CELL_ROWS", 100):
        sizes = [len(data) for _, data, _ in csv_blocks(str(path))]
    # a 1024-character piece holds 113 or 114 lines of 9 characters
    switch = sizes.index(100)
    assert set(sizes[:switch]) <= {113, 114} and sum(sizes[:switch]) <= 1500
    assert set(sizes[switch:-1]) == {100} and sum(sizes) == 2000


def test_read_csv_names_the_first_fault_the_stream_reaches():
    # undecodable bytes past the first 8 KiB, and past the first piece: a
    # bad cell before them is named, one after them is not
    rows = ["0.5,0.25"] * 2000
    for bad_row in (None, 3, 1500, 2000):
        cells = list(rows) + ["0.5,0.25"]
        if bad_row is not None:
            cells[bad_row] = "0.5,x"
        text = "a,b\n" + "\n".join(cells[:2000]) + "\n"
        data = text.encode() + b"1,\xff\n" + (cells[2000] + "\n").encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(data)
            want = _read_either(_reference_read_csv, path)
            for piece in (7, 1024, cli._PIECE):
                got = _read_in_pieces(path, piece)
                assert isinstance(want, str) and got == want
        assert ("non-numeric value 'x'" in got) == (bad_row in (3, 1500))
