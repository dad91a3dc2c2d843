"""Property tests: every CSV and every numeric option ends in a documented
exit code (0 ok, 1 usage, 2 data), never in an uncaught exception.

The fuzzed sizes stay small on purpose: the basis-id cap is the only
memory guard today, so a level-sum budget just under the cap on a wide
file would allocate gigabytes before any check (see ROADMAP, the
Gram-matrix item).  Budgets far above the cap are fuzzed, because they
are refused before anything is counted or allocated.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdrn import cli

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
LOSSES = st.sampled_from(["quadratic", "huber:1.0", "quantile:0.5", "logistic"])

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
                "--model-out", str(Path(tmp) / "m.json"), "--epochs", "50"]
        assert _exit_code(argv) in (0, 2)


@FUZZ
@given(table=tables(SMALL_CELLS), loss=LOSSES, shuffle=st.randoms(use_true_random=False))
def test_fit_predict_round_trip_on_fuzzed_csv(table, loss, shuffle):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        train, model = Path(tmp) / "train.csv", Path(tmp) / "m.json"
        _write(train, header, rows)
        argv = ["fit", "--input", str(train), "--target", "y", "--loss", loss,
                "--model-out", str(model), "--epochs", "50"]
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
# mostly in-range values, so that most draws reach the fit, and any float
FLOATS = st.one_of(st.floats(1e-3, 1e3), st.floats(width=64))


@FUZZ
@given(
    kappa=FLOATS,
    tol=FLOATS,
    epochs=st.integers(-3, 60),
    m=st.one_of(st.none(), st.integers(-3, 3), BIG_BUDGET),
    c=st.one_of(st.none(), st.integers(-4, 1), BIG_BUDGET),
    r=st.one_of(st.none(), st.integers(-3, 12), st.integers(500, 3000)),
    loss=LOSSES,
)
def test_fit_options_end_in_an_exit_code(kappa, tol, epochs, m, c, r, loss):
    with tempfile.TemporaryDirectory() as tmp:
        train = Path(tmp) / "train.csv"
        rows = [[repr(0.1 * i), repr((0.37 * i) % 1.0), str(i % 2)] for i in range(30)]
        _write(train, ["a", "b", "y"], rows)
        argv = ["fit", "--input", str(train), "--target", "y", "--loss", loss,
                "--model-out", str(Path(tmp) / "m.json"), f"--kappa={kappa!r}",
                f"--tol={tol!r}", f"--epochs={epochs}"]
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
    epochs=st.integers(-3, 40),
    tol=FLOATS,
    loss=LOSSES,
    noise=st.sampled_from(["normal", "laplace", "none"]),
)
def test_simulate_options_end_in_an_exit_code(model, n, reps, kappas, cs, epochs, tol, loss, noise):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", f"--model={model}", f"--n={n}", f"--reps={reps}",
                f"--kappas={kappas}", f"--cs={cs}", f"--epochs={epochs}", f"--tol={tol!r}",
                "--loss", loss, "--noise", noise, "--out-csv", str(Path(tmp) / "sim.csv")]
        assert _exit_code(argv) in (0, 1, 2)
