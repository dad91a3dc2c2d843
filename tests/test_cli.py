import ast
import decimal
import json
import math
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_blocks
from sdrn import DataError, cli
from sdrn import evalsuite as ev
from sdrn import relu_product as rp
from sdrn.estimator import ConstantColumnError, NonFiniteObjectiveError, SdrnModel
from sdrn.losses import LossInputError
from sdrn.sparse_grid import BasisSizeError, basis_size


def _write_training_csv(path, n=200, seed=0):
    spec = ev.SimModelSpec(model_id=1, n=n, noise="normal", seed=seed)
    X, y = ev.generate(spec)
    header = ["x1", "x2", "x3", "x4", "x5", "y"]
    lines = [",".join(header)]
    for row, target in zip(X, y):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_fit_writes_model_with_full_gamma(tmp_path, capsys):
    train = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    _write_training_csv(train)
    rc = cli.main(
        [
            "fit",
            "--input", str(train),
            "--target", "y",
            "--model-out", str(model_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    model = SdrnModel.load(model_path)
    # n=200: schedule gives m = floor(0.2 * log2 200) = 1
    assert model.m == 1 and model.R == 3
    assert len(model.gamma) == basis_size(5, 1)
    assert "basis size=112" in out
    assert model.column_names == ("x1", "x2", "x3", "x4", "x5")


def test_fit_override_flags_echoed(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train, n=120)
    rc = cli.main(
        [
            "fit",
            "--input", str(train),
            "--target", "y",
            "--model-out", str(tmp_path / "m.json"),
            "--m", "2",
            "--r", "6",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "m=2 R=6 (overridden)" in out


def test_fit_data_errors(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    assert cli.main(["fit", "--input", str(train), "--target", "nope",
                     "--model-out", str(tmp_path / "m.json")]) == 2
    assert "nope" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,y\n1.0,2.0,3.0\n1.5,oops,2.5\n", encoding="utf-8")
    assert cli.main(["fit", "--input", str(bad), "--target", "y",
                     "--model-out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "'b'" in err

    const = tmp_path / "const.csv"
    const.write_text("a,b,y\n1.0,5.0,3.0\n2.0,5.0,2.5\n3.0,5.0,2.0\n", encoding="utf-8")
    assert cli.main(["fit", "--input", str(const), "--target", "y",
                     "--model-out", str(tmp_path / "m.json")]) == 2


def _assert_data_error(rc, capsys, *fragments):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and err.startswith("sdrn: data error:")
    for fragment in fragments:
        assert fragment in err


def test_fit_rejects_non_finite_cell(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("a,b,y\n1.0,2.0,3.0\n1.5,nan,2.5\n2.0,1.0,1.0\n", encoding="utf-8")
    rc = cli.main(["fit", "--input", str(bad), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
    _assert_data_error(rc, capsys, "row 3", "'b'")
    assert not (tmp_path / "m.json").exists()


def test_predict_rejects_non_finite_cell(tmp_path, capsys):
    _, model_path = _fit_small(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "nan.csv"
    bad.write_text("x1,x2,x3,x4,x5\n0.1,0.2,0.3,0.4,0.5\n0.1,0.2,nan,0.4,0.5\n",
                   encoding="utf-8")
    out = tmp_path / "pred.csv"
    rc = cli.main(["predict", "--model", str(model_path), "--input", str(bad),
                   "--output", str(out)])
    _assert_data_error(rc, capsys, "row 3", "'x3'")
    assert not out.exists()


def _write_with_targets(path, targets):
    """The 60-row training file with its first targets replaced."""
    _write_training_csv(path, n=60)
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, target in enumerate(targets, start=1):
        lines[i] = ",".join(lines[i].split(",")[:-1] + [repr(target)])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_fit_with_non_finite_objective_is_data_error(tmp_path, capsys):
    # finite cells whose loss overflows: the squared residual of 1e200, and
    # two Huber losses of about 1e308 each, whose sum does
    for loss, targets in (("quadratic", [1e200]), ("huber:1.0", [1e308, 1e308])):
        train = tmp_path / "big.csv"
        _write_with_targets(train, targets)
        rc = cli.main(["fit", "--input", str(train), "--target", "y", "--loss", loss,
                       "--model-out", str(tmp_path / "m.json")])
        _assert_data_error(rc, capsys, "non-finite objective")
        assert not (tmp_path / "m.json").exists()


def test_predict_rejects_malformed_model_files(tmp_path, capsys):
    train, model_path = _fit_small(tmp_path)
    capsys.readouterr()
    good = json.loads(model_path.read_text())
    edits = {
        "short-gamma": lambda doc: doc["gamma"].pop(),
        "one-entry-scaler": lambda doc: doc["scaler"].update(min=doc["scaler"]["min"][:1]),
        "nan-gamma": lambda doc: doc["gamma"].__setitem__(0, float("nan")),
        # f_R is inf from R = 512 and NaN from R = 538 on
        "R-beyond-float-range": lambda doc: doc.update(R=600),
        "string-m": lambda doc: doc.update(m="1"),
        "list-scaler": lambda doc: doc.update(scaler=[0.0, 1.0]),
        # refused without the O(d m**2) exact basis count
        "huge-m": lambda doc: doc.update(m=10 ** 6),
        "repeated-columns": lambda doc: doc["columns"].__setitem__(1, doc["columns"][0]),
    }
    # these loaded, and predict exited 0, with nan scores or fields no fit
    # writes; each message names its field, the name up to a "-"
    named = {
        "kappa": lambda doc: doc.update(kappa=-1),
        "scaler": lambda doc: (doc["scaler"]["min"].__setitem__(0, -1e308),
                               doc["scaler"]["max"].__setitem__(0, 1e308)),
        "gamma": lambda doc: doc["gamma"].__setitem__(slice(0, 2), [1e308, 1e308]),
        "gamma-string": lambda doc: doc["gamma"].__setitem__(0, "1"),
        "schema_version-true": lambda doc: doc.update(schema_version=True),
        "schema_version-float": lambda doc: doc.update(schema_version=1.0),
        "delta-true": lambda doc: doc["loss"].update(kind="huber", delta=True),
        "diagnostics-epochs_run": lambda doc: doc["diagnostics"].update(epochs_run="nan"),
        # loaded as five one-letter columns, which an a,b,c,d,e input matched
        "columns-string": lambda doc: doc.update(columns="abcde"),
        # refused as "int too large to convert to float", naming no field
        "kappa-digits": lambda doc: doc.update(kappa=10 ** 400),
        # loaded, and lipschitz_constant() raised OverflowError
        "delta-digits": lambda doc: doc["loss"].update(kind="huber", delta=10 ** 400),
    }
    docs = {}
    for name, edit in {**edits, **named}.items():
        docs[name] = json.loads(json.dumps(good))
        edit(docs[name])
    docs["top-level-list"] = [good]
    for name, doc in docs.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        rc = cli.main(["predict", "--model", str(bad), "--input", str(train),
                       "--output", str(out)])
        fragments = [f".json: {name.split('-')[0]}"] if name in named else []
        _assert_data_error(rc, capsys, "cannot load model", *fragments)
        assert not out.exists()


@pytest.mark.parametrize("error", [DataError, LossInputError, BasisSizeError, ConstantColumnError,
                                   NonFiniteObjectiveError, ValueError], ids=lambda e: e.__name__)
@pytest.mark.parametrize("command", ["fit", "predict", "simulate"])
def test_main_owns_the_data_error_exit(tmp_path, capsys, monkeypatch, command, error):
    # a library call that raises any DataError ends in exit 2, one message
    # line and no output, with no translation in the command; any other
    # ValueError is a fault of the program and escapes main
    assert cli.DataError is DataError
    train, model_path = _fit_small(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.csv"

    def planted(*args, **kwargs):
        raise error("planted")

    if command == "fit":
        monkeypatch.setattr(cli, "fit_sdrn", planted)
        argv = ["fit", "--input", str(train), "--target", "y", "--model-out", str(out)]
    elif command == "predict":
        monkeypatch.setattr(SdrnModel, "predict", planted)
        argv = ["predict", "--model", str(model_path), "--input", str(train), "--output", str(out)]
    else:  # run_replications labels the failed fit by its cell
        monkeypatch.setattr(ev, "adam_fit", planted)
        argv = ["simulate", "--model", "1", "--n", "40", "--reps", "1", "--kappas", "1.0",
                "--cs", "0", "--out-csv", str(out)]
    if error is ValueError:
        with pytest.raises(Exception, match="planted") as caught:
            cli.main(argv)
        assert not isinstance(caught.value, DataError)
    else:
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sdrn: data error: ")
        assert lines[0].endswith("planted")
    assert not out.exists()


def _run_with_scipy_blocked(*argvs):
    # runs the commands in order in one fresh interpreter in which every
    # scipy import raises, and asserts that each of them exits 0
    code = ("import sys\nsys.modules['scipy'] = None\nfrom sdrn import cli\n"
            f"for argv in {list(argvs)!r}:\n"
            "    rc = cli.main(argv)\n"
            "    if rc:\n"
            "        sys.exit(rc)\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr


def _checkout_env():
    # the environment of a fresh interpreter that imports this checkout's sdrn
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=_checkout_env())


def _write_binary_training_csv(path, n):
    # a 0/1 target, so that every loss (logistic too) fits the same file
    X = np.random.default_rng(n).random((n, 5))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(float)
    lines = ["x1,x2,x3,x4,x5,y"] + [",".join(map(repr, row)) for row in np.column_stack([X, y]).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("loss", ["quadratic", "huber:1.0", "quantile:0.5", "logistic"])
@pytest.mark.parametrize("n, m", [(150, 1), (60, 2)], ids=["p<=n", "p>n"])
def test_fit_loads_no_scipy(tmp_path, loss, n, m):
    # p = 112 at m=1 and 352 at m=2, so both Gram sides of every solver run
    train = tmp_path / "train.csv"
    _write_binary_training_csv(train, n)
    _run_with_scipy_blocked(["fit", "--input", str(train), "--target", "y", "--loss", loss,
                             "--m", str(m), "--model-out", str(tmp_path / "model.json")])


def _commands(tmp_path, case):
    train, model, out = tmp_path / "train.csv", str(tmp_path / "model.json"), str(tmp_path / "out.csv")
    _write_binary_training_csv(train, 80)
    simulate = ["simulate", "--n", "60", "--reps", "2", "--kappas", "1.0", "--cs=-1,0", "--out-csv", out]
    return {
        "predict": [["fit", "--input", str(train), "--target", "y", "--model-out", model],
                    ["predict", "--model", model, "--input", str(train), "--output", out]],
        "simulate-1-normal": [simulate + ["--model", "1"]],
        "simulate-1-laplace": [simulate + ["--model", "1", "--noise", "laplace"]],
        "simulate-4-logistic": [simulate + ["--model", "4", "--loss", "logistic"]],
        "basis-info-r": [["basis-info", "--d", "5", "--m", "2", "--r", "6"]],
        "verify-bounds": [["verify-bounds", "--out-csv", out]],
    }[case]


@pytest.mark.parametrize("case", ["predict", "simulate-1-normal", "simulate-1-laplace",
                                  "simulate-4-logistic", "basis-info-r", "verify-bounds"])
def test_commands_run_with_scipy_blocked(tmp_path, case):
    # numpy is the only runtime dependency: no command may import scipy
    _run_with_scipy_blocked(*_commands(tmp_path, case))


def test_package_imports_only_numpy_and_the_standard_library():
    package = Path(cli.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_fit_summary_reports_certified_iterations(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train, n=120)
    for loss in ("huber:1.0", "quantile:0.5", "quadratic"):
        rc = cli.main(["fit", "--input", str(train), "--target", "y", "--loss", loss,
                       "--model-out", str(tmp_path / "m.json")])
        assert rc == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("final objective")]
        assert len(line) == 1
        fields = dict(part.split("=") for part in line[0].split()[1:])
        assert fields["converged"] == "True" and float(fields["certificate"]) <= 1e-12
        assert int(fields["iterations"]) >= (loss != "quadratic")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert sorted(doc["diagnostics"]) == ["converged", "epochs_run", "final_objective", "sup_norm"]


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_zero_kappa_with_non_quadratic_loss_is_data_error(tmp_path, capsys, command):
    if command == "fit":
        train = tmp_path / "train.csv"
        _write_training_csv(train, n=60)
        argv = ["fit", "--input", str(train), "--target", "y",
                "--model-out", str(tmp_path / "m.json"), "--loss", "huber:1.0", "--kappa", "0"]
    else:
        argv = ["simulate", "--model", "1", "--n", "60", "--reps", "1", "--loss", "huber:1.0",
                "--kappas", "1.0,0", "--cs=-2", "--out-csv", str(tmp_path / "sim.csv")]
    _assert_data_error(cli.main(argv), capsys, "kappa > 0")
    assert not list(tmp_path.glob("*.json")) + list(tmp_path.glob("sim.csv"))


def test_fit_logistic_on_non_binary_target_is_data_error(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train, n=60)
    rc = cli.main(["fit", "--input", str(train), "--target", "y",
                   "--model-out", str(tmp_path / "m.json"), "--loss", "logistic"])
    _assert_data_error(rc, capsys, "{0, 1}")


def test_fit_on_forty_columns_is_data_error(tmp_path, capsys):
    # 2**40 ids at m = 0, far beyond the id cap
    gen = np.random.default_rng(0)
    data = tmp_path / "wide.csv"
    header = [f"x{j}" for j in range(40)] + ["y"]
    rows = [",".join(repr(float(v)) for v in row) for row in gen.random((10, 41))]
    data.write_text("\n".join([",".join(header)] + rows) + "\n", encoding="utf-8")
    rc = cli.main(["fit", "--input", str(data), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
    _assert_data_error(rc, capsys, "exceeding cap")


def test_quadratic_fit_builds_one_feature_matrix(tmp_path, capsys, monkeypatch):
    from sdrn import estimator

    train = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    _write_training_csv(train, n=80)
    calls = []
    original = estimator.FeatureMap.__call__

    def counting(self, X01):
        calls.append(np.shape(X01))
        return original(self, X01)

    monkeypatch.setattr(estimator.FeatureMap, "__call__", counting)
    assert cli.main(["fit", "--input", str(train), "--target", "y",
                     "--model-out", str(model_path)]) == 0
    monkeypatch.undo()
    assert len(calls) == 1
    # M is the largest training residual, as predicting on the training rows gives it
    lines = capsys.readouterr().out.splitlines()
    header, data = cli.read_csv(str(train))
    model = SdrnModel.load(model_path)
    m_bound = float(np.max(np.abs(model.predict(data[:, :-1]) - data[:, -1])))
    expected = f"lipschitz constant=2M={2.0 * m_bound!r} (M={m_bound!r})"
    assert [line for line in lines if line.startswith("lipschitz")] == [expected]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--input", "x.csv"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "9"])  # outside the model choices
    assert exc.value.code == 1
    # the iteration cap and the certificate target are constants, and a fit
    # draws nothing at random
    fit = ["fit", "--input", "x.csv", "--target", "y", "--model-out", "m.json"]
    simulate = ["simulate", "--model", "1"]
    for argv in (fit + ["--epochs", "5"], simulate + ["--epochs", "5"], fit + ["--seed", "7"],
                 fit + ["--tol", "1e-8"], simulate + ["--tol", "1e-8"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def _fit_small(tmp_path, loss="quadratic"):
    train = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    _write_training_csv(train, n=80)
    args = [
        "fit", "--input", str(train), "--target", "y",
        "--model-out", str(model_path), "--loss", loss,
    ]
    if loss == "logistic":
        # rewrite targets as labels
        lines = train.read_text().splitlines()
        header = lines[0]
        rows = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            cells[-1] = str(float(i % 2))
            rows.append(",".join(cells))
        train.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    assert cli.main(args) == 0
    return train, model_path


def test_predict_round_trip_and_column_matching(tmp_path):
    train, model_path = _fit_small(tmp_path)
    out1 = tmp_path / "pred1.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(train), "--output", str(out1)]) == 0
    text = out1.read_text(encoding="utf-8")
    assert text.splitlines()[1].endswith("prediction")
    assert len(text.splitlines()) == 2 + 80  # comment + header + rows

    # permute columns: same predictions (matched by name)
    lines = train.read_text().splitlines()
    header = lines[0].split(",")
    perm = [4, 0, 2, 1, 3, 5]
    permuted = tmp_path / "permuted.csv"
    rows = [",".join([line.split(",")[j] for j in perm]) for line in lines]
    permuted.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out2 = tmp_path / "pred2.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(permuted), "--output", str(out2)]) == 0
    pred1 = [line.split(",")[-1] for line in out1.read_text().splitlines()[2:]]
    pred2 = [line.split(",")[-1] for line in out2.read_text().splitlines()[2:]]
    assert pred1 == pred2


def test_predict_header_only_and_schema_errors(tmp_path, capsys):
    train, model_path = _fit_small(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,x3,x4,x5\n", encoding="utf-8")
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it parses no rows
        assert cli.main(["predict", "--model", str(model_path),
                         "--input", str(empty), "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["x1,x2,x3,x4,x5,prediction"]
    assert capsys.readouterr().err == ""

    missing = tmp_path / "missing.csv"
    missing.write_text("x1,x2,x3\n0.1,0.2,0.3\n", encoding="utf-8")
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(missing), "--output", str(out)]) == 2

    doc = json.loads(model_path.read_text())
    doc["schema_version"] = 42
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["predict", "--model", str(bad_model),
                     "--input", str(train), "--output", str(out)]) == 2


def test_predict_rejects_a_model_column_named_twice(tmp_path, capsys):
    train, model_path = _fit_small(tmp_path)
    header, *rows = train.read_text().splitlines()
    twice = tmp_path / "twice.csv"
    # a second x2 column, here a copy of x1: the model would read only the first
    twice.write_text("\n".join([header + ",x2"] + [f"{row},{row.split(',')[0]}" for row in rows]) + "\n")
    capsys.readouterr()
    rc = cli.main(["predict", "--model", str(model_path), "--input", str(twice),
                   "--output", str(tmp_path / "pred.csv")])
    _assert_data_error(rc, capsys, "model columns ['x2'] appear more than once")
    assert not (tmp_path / "pred.csv").exists()


def test_predict_logistic_adds_probability(tmp_path, monkeypatch):
    from sdrn import estimator
    from sdrn.losses import sigmoid

    train, model_path = _fit_small(tmp_path, loss="logistic")
    out = tmp_path / "pred.csv"
    calls = []
    original = estimator.product_scores

    def counting(*args):
        calls.append(len(args[2]))
        return original(*args)

    monkeypatch.setattr(estimator, "product_scores", counting)
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(train), "--output", str(out)]) == 0
    monkeypatch.undo()
    # the probability is the sigmoid of the score, not a second pass over the tree
    assert calls == [80]
    lines = out.read_text().splitlines()
    assert lines[1].endswith("prediction,probability")
    for line, row in zip(lines[2:], train.read_text().splitlines()[1:], strict=True):
        assert line.startswith(row + ",")
        score, prob = (float(cell) for cell in line.split(",")[-2:])
        assert prob == float(sigmoid(np.array([score]))[0])


def test_simulate_deterministic_bytes(tmp_path):
    outs = []
    for run in range(2):
        csv_path = tmp_path / f"sim{run}.csv"
        json_path = tmp_path / f"sim{run}.json"
        rc = cli.main(
            [
                "simulate", "--model", "1", "--n", "90", "--reps", "2",
                "--seed", "7", "--kappas", "1.0", "--cs=-2,-1",
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ]
        )
        assert rc == 0
        outs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outs[0] == outs[1]
    text = outs[0][0].decode()
    assert text.startswith("# model=1 n=90")
    assert "avg_mse" in text.splitlines()[1]


def test_simulate_classification_columns(tmp_path):
    csv_path = tmp_path / "sim4.csv"
    rc = cli.main(
        [
            "simulate", "--model", "4", "--n", "60", "--reps", "1",
            "--loss", "logistic", "--kappas", "1.0", "--cs=-2",
            "--out-csv", str(csv_path),
        ]
    )
    assert rc == 0
    header = csv_path.read_text().splitlines()[1]
    assert "accuracy" in header and "avg_mse" not in header


@pytest.mark.parametrize("model_id", [2, 3])
def test_simulate_models_2_and_3(tmp_path, model_id):
    csv_path = tmp_path / f"sim{model_id}.csv"
    rc = cli.main(["simulate", "--model", str(model_id), "--n", "200", "--reps", "2",
                   "--kappas", "1.0", "--cs=-1,0", "--out-csv", str(csv_path)])
    assert rc == 0
    comment, header, *rows = csv_path.read_text().splitlines()
    assert comment.startswith(f"# model={model_id} n=200")
    assert header == "kappa,c,m,R,avg_bias2,avg_variance,avg_mse"
    assert [row.split(",")[:2] for row in rows] == [["1.0", "-1"], ["1.0", "0"]]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_basis_info(capsys):
    assert cli.main(["basis-info", "--d", "2", "--m", "2"]) == 0
    assert "basis size=17" in capsys.readouterr().out
    assert cli.main(["basis-info", "--d", "5", "--m", "4"]) == 0
    assert "basis size=2882" in capsys.readouterr().out
    assert cli.main(["basis-info", "--d", "3", "--m", "1", "--r", "4"]) == 0
    out = capsys.readouterr().out
    assert "per-feature network (R=4): depth=12 units=84 weights=446" in out


@pytest.mark.parametrize("d, m", [(400, 3), (2000, 0)])
def test_basis_info_beyond_float_range(d, m, capsys):
    # both cardinality bounds exceed the float range at d=2000, the upper one at d=400
    assert cli.main(["basis-info", "--d", str(d), "--m", str(m)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    line = [l for l in captured.out.splitlines() if l.startswith("cardinality bounds")][0]
    lower, upper = (part.split("=")[1] for part in line.split()[2:])
    size = basis_size(d, m)
    for text in (lower, upper):
        mantissa, exponent = text.split("e+")
        assert 1.0 <= float(mantissa) < 10.0
    assert int(lower.split("e+")[1]) <= len(str(size)) - 1 <= int(upper.split("e+")[1])


def _decimal_mantissa_exponent(n):
    """The exact ``n`` as a decimal: its mantissa rounded once to a float, and its exponent."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        exact = decimal.Decimal(n)
        return float(exact.scaleb(-exact.adjusted())), exact.adjusted()


def test_basis_info_beyond_integer_text_limit(capsys):
    # 2**14300 has 4305 digits, past the 4300 that str() converts
    assert cli.main(["basis-info", "--d", "14300", "--m", "0"]) == 0
    assert "basis size=5.35720166241694e+4304" in capsys.readouterr().out.splitlines()
    # the --r units and weights lines print through the same helper
    assert cli._format_count(2 ** 14300) == "5.35720166241694e+4304"
    assert _decimal_mantissa_exponent(2 ** 14300) == (5.35720166241694, 4304)
    for n in (3 ** 9100, 7 * 10 ** 4400 + 1, 2 ** 14300 + 1):
        mantissa, exponent = cli._format_count(n).split("e+")
        assert (float(mantissa), int(exponent)) == _decimal_mantissa_exponent(n)
    # powers of ten print as repr prints 1e300, not from a rounded logarithm
    assert cli._format_count(10 ** 4300) == "1e+4300"
    assert cli._format_count(10 ** 4301 - 1) == "1e+4301"
    assert cli._format_count(17) == "17"
    assert cli._format_count(10 ** 4299) == str(10 ** 4299)
    assert cli._format_log(4300 * math.log(10.0)) == "1e+4300"


@pytest.mark.parametrize(
    "d, m, code", [(1, 315, 0), (1, 316, 2), (3, 20000, 2), (3_000_000, 1, 2), (14300, 0, 0)]
)
def test_basis_info_bounds_its_counting_work(d, m, code, capsys):
    # refused past the d*(m+1)**2 cap before anything is counted
    assert cli.main(["basis-info", "--d", str(d), "--m", str(m)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"sdrn: data error: basis-info counts bases with d*(m+1)**2 <= "
                       f"{cli.MAX_COUNT_TERMS}, got d={d}, m={m}\n")


def test_basis_info_counts_a_wide_network_without_building_it(monkeypatch, capsys):
    monkeypatch.setattr(rp, "build_basis_network", None)
    assert cli.main(["basis-info", "--d", "100000", "--m", "0", "--r", "511"]) == 0
    out = capsys.readouterr().out
    assert "per-feature network (R=511): depth=8706 units=460395398 weights=2761467795\n" in out


@pytest.mark.parametrize(
    "flags",
    [["--d", "0", "--m", "2"], ["--d", "2", "--m", "-1"], ["--d", "2", "--m", "2", "--r", "0"],
     ["--d", "2", "--m", "2", "--r", "512"]],
    ids=["d=0", "m=-1", "r=0", "r=512"],
)
def test_basis_info_rejects_bad_values(flags, capsys):
    assert cli.main(["basis-info"] + flags) == 2
    out, err = capsys.readouterr()
    assert err.startswith("sdrn: data error: ") and out == ""


def test_predict_echo_of_repr_cells_is_repr_of_every_value(tmp_path):
    # input written by repr: each output line is repr of every covariate and score
    train, model_path = _fit_small(tmp_path)
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(train), "--output", str(out)]) == 0
    data = np.loadtxt(train, delimiter=",", skiprows=1)
    scores = SdrnModel.load(model_path).predict(data[:, :-1])
    rows = np.column_stack([data, scores]).tolist()
    lines = [f"# sdrn-predict model={model_path} schema_version=1",
             "x1,x2,x3,x4,x5,y,prediction"] + [",".join(map(repr, row)) for row in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_predict_echoes_cells_as_written(tmp_path):
    _, model_path = _fit_small(tmp_path)
    new = tmp_path / "new.csv"
    new.write_text('x1,x2,x3,x4,x5\r\n1.50,1e-3, 2 ,0.5,0.25\r\n"0.5",0.1,0.2,"3e-1",0.4\r\n',
                   encoding="utf-8")
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(new), "--output", str(out)]) == 0
    scores = SdrnModel.load(model_path).predict(
        np.array([[1.5, 1e-3, 2.0, 0.5, 0.25], [0.5, 0.1, 0.2, 0.3, 0.4]])).tolist()
    assert out.read_text().splitlines()[2:] == [
        f"1.50,1e-3, 2 ,0.5,0.25,{scores[0]!r}", f"0.5,0.1,0.2,3e-1,0.4,{scores[1]!r}"]


def test_predict_with_an_unnamed_column_model_reads_columns_in_order(tmp_path, capsys):
    # a model fitted without column names takes its d covariates from the
    # input's columns in order, whatever their header says
    from sdrn.estimator import FitConfig, fit_sdrn
    from sdrn.losses import LossSpec

    X = np.random.default_rng(4).random((40, 3))
    model = fit_sdrn(X, X.sum(axis=1), FitConfig(loss=LossSpec("quadratic")))
    model_path = tmp_path / "unnamed.json"
    model_path.write_text(json.dumps(model.to_json()), encoding="utf-8")
    assert json.loads(model_path.read_text())["columns"] is None
    new = tmp_path / "new.csv"
    new.write_text("a,b,c\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in X[:5].tolist()))
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path), "--input", str(new),
                     "--output", str(out)]) == 0
    scores = SdrnModel.load(model_path).predict(X[:5])
    rows = np.column_stack([X[:5], scores]).tolist()
    assert out.read_text().splitlines()[1:] == ["a,b,c,prediction"] + [",".join(map(repr, row)) for row in rows]

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b\n0.1,0.2\n", encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["predict", "--model", str(model_path), "--input", str(narrow),
                   "--output", str(tmp_path / "narrow-pred.csv")])
    _assert_data_error(rc, capsys, "model expects 3 unnamed columns, got 2")
    assert not (tmp_path / "narrow-pred.csv").exists()


def test_predict_on_training_file_matches_diagnostics(tmp_path):
    train, model_path = _fit_small(tmp_path)
    out = tmp_path / "roundtrip.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(train), "--output", str(out)]) == 0
    preds = [abs(float(line.split(",")[-1])) for line in out.read_text().splitlines()[2:]]
    doc = json.loads(model_path.read_text())
    assert max(preds) == doc["diagnostics"]["sup_norm"]


def test_fit_rejects_m_with_c(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train, n=60)
    rc = cli.main(["fit", "--input", str(train), "--target", "y",
                   "--model-out", str(tmp_path / "m.json"),
                   "--m", "1", "--c", "1"])
    assert rc == 2
    assert "contradictory" in capsys.readouterr().err


def test_verify_bounds_csv_has_config_echo(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert cli.main(["verify-bounds", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "name,measured,bound,passed,asserted,note"
    assert lines[-1] == "coefficient-envelope m=6,0.75,1.0,1,1,"
    asserted = sum(int(line.split(",")[4]) for line in lines[2:])
    assert capsys.readouterr().out.splitlines()[-1] == f"all {asserted} asserted checks passed"


def test_verify_bounds_exit_three_on_violation(monkeypatch, capsys):
    import sdrn.evalsuite as ev_mod

    failing = ev_mod.BoundReport(
        checks=[ev_mod.BoundCheck("demo", 2.0, 1.0)]
    )
    monkeypatch.setattr(cli, "verify_bounds", lambda: failing)
    assert cli.main(["verify-bounds"]) == 3
    assert "violations" in capsys.readouterr().err


def _fit_argv(tmp_path, *flags, train=None, model_out=None):
    if train is None:
        train = tmp_path / "train.csv"
        _write_training_csv(train, n=60)
    return ["fit", "--input", str(train), "--target", "y",
            "--model-out", str(model_out or tmp_path / "m.json"), *flags]


def _simulate_argv(tmp_path, *flags):
    return ["simulate", "--model", "1", "--n", "60", "--reps", "1", "--kappas", "1.0",
            "--cs=-2", "--out-csv", str(tmp_path / "sim.csv"), *flags]


def _csv_bytes(tmp_path, data):
    path = tmp_path / "raw.csv"
    path.write_bytes(data)
    return path


BAD_INPUTS = {
    "fit-kappa=-1": lambda tmp: _fit_argv(tmp, "--kappa", "-1"),
    "fit-r=2000": lambda tmp: _fit_argv(tmp, "--r", "2000"),
    "fit-m=-1": lambda tmp: _fit_argv(tmp, "--m", "-1"),
    "fit-one-row": lambda tmp: _fit_argv(tmp, train=_csv_bytes(tmp, b"a,y\n1.0,2.0\n")),
    "fit-target-only": lambda tmp: _fit_argv(
        tmp, train=_csv_bytes(tmp, b"y\n1.0\n2.0\n3.0\n")),
    "fit-not-utf8": lambda tmp: _fit_argv(
        tmp, train=_csv_bytes(tmp, b"a,y\n1.0,2.0\n2.0,\xff\n3.0,1.0\n")),
    # predict would skip a header that starts with this name as a comment
    "fit-hash-column-name": lambda tmp: _fit_argv(
        tmp, train=_csv_bytes(tmp, b"a,#b,y\n1.0,2.0,0.5\n2.0,1.0,1.5\n3.0,0.0,1.0\n")),
    "fit-unwritable-model-out": lambda tmp: _fit_argv(tmp, model_out=tmp / "no-dir" / "m.json"),
    # a model would map both covariates to the first "a"
    "fit-repeated-column-name": lambda tmp: _fit_argv(
        tmp, train=_csv_bytes(tmp, b"a,a,y\n1.0,2.0,0.5\n2.0,1.0,1.5\n3.0,0.0,1.0\n")),
    "fit-huber:nan": lambda tmp: _fit_argv(tmp, "--loss", "huber:nan"),
    "fit-huber:inf": lambda tmp: _fit_argv(tmp, "--loss", "huber:inf"),
    "simulate-reps=0": lambda tmp: _simulate_argv(tmp, "--reps", "0"),
    "simulate-kappas=-1": lambda tmp: _simulate_argv(tmp, "--kappas=-1"),
    "simulate-kappas=nan": lambda tmp: _simulate_argv(tmp, "--kappas", "nan"),
    "simulate-unwritable-out-csv": lambda tmp: _simulate_argv(
        tmp, "--out-csv", str(tmp / "no-dir" / "sim.csv")),
    "simulate-huber:nan": lambda tmp: _simulate_argv(tmp, "--loss", "huber:nan"),
    # a repeated grid value would fit every cell of it twice
    "simulate-kappas=1,1": lambda tmp: _simulate_argv(tmp, "--kappas", "1,1"),
    "simulate-kappas=1,1.0": lambda tmp: _simulate_argv(tmp, "--kappas", "0.5,1,1.0"),
    "simulate-cs=0,0": lambda tmp: _simulate_argv(tmp, "--cs=0,-1,0"),
}
# the field that a case's message names
BAD_FIELDS = {
    "fit-r=2000": "accuracy level R must be in 1..511, got 2000",
    "fit-m=-1": "max level sum must be >= 0, got -1",
    "fit-one-row": "sample size must be >= 2, got 1",
    "fit-repeated-column-name": "column names ['a']",
    "fit-huber:nan": "delta",
    "fit-huber:inf": "delta",
    "simulate-huber:nan": "delta",
    "simulate-kappas=1,1": "--kappas '1,1' repeats the value 1.0",
    "simulate-kappas=1,1.0": "--kappas '0.5,1,1.0' repeats the value 1.0",
    "simulate-cs=0,0": "--cs '0,-1,0' repeats the value 0",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_options_and_inputs_are_data_errors(case, tmp_path, capsys):
    _assert_data_error(cli.main(BAD_INPUTS[case](tmp_path)), capsys, BAD_FIELDS.get(case, ""))
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "sim.csv").exists()


def test_predict_to_unwritable_output_is_data_error(tmp_path, capsys):
    train, model_path = _fit_small(tmp_path)
    capsys.readouterr()
    rc = cli.main(["predict", "--model", str(model_path), "--input", str(train),
                   "--output", str(tmp_path / "no-dir" / "pred.csv")])
    _assert_data_error(rc, capsys, "cannot write")


@pytest.mark.parametrize("columns", [5, 1])
def test_fit_predict_round_trip_below_32_rows(tmp_path, columns):
    # below 32 rows the schedule's base level is 0, and R keeps its floor of 3
    train = tmp_path / "train.csv"
    _write_training_csv(train, n=31)
    if columns == 1:
        lines = [line.split(",") for line in train.read_text().splitlines()]
        train.write_text("\n".join(",".join([row[0], row[-1]]) for row in lines) + "\n")
    model_path = tmp_path / "model.json"
    assert cli.main(_fit_argv(tmp_path, train=train, model_out=model_path)) == 0
    assert (SdrnModel.load(model_path).m, SdrnModel.load(model_path).R) == (0, 3)
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path), "--input", str(train),
                     "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 31


def test_simulate_below_32_rows(tmp_path):
    assert cli.main(_simulate_argv(tmp_path, "--n", "20")) == 0
    assert ",0,3," in (tmp_path / "sim.csv").read_text().splitlines()[2]


def test_simulate_logistic_on_a_regression_model_is_data_error(tmp_path, capsys):
    rc = cli.main(_simulate_argv(tmp_path, "--loss", "logistic"))
    _assert_data_error(rc, capsys, "kappa=1.0, c=-2, rep=0", "{0, 1}")


def _covariate_csv(path, n, seed=0):
    X = np.random.default_rng(seed).random((n, 5))
    path.write_text("x1,x2,x3,x4,x5\n" + "".join(",".join(map(repr, row)) + "\n"
                                               for row in X.tolist()), encoding="utf-8")
    return X


def _usable_cpus(monkeypatch, count):
    # sdrn predict forks one worker per usable CPU: these are the first
    # `count` of the machine's, never more than it has
    if hasattr(os, "sched_getaffinity"):
        cpus = set(sorted(os.sched_getaffinity(0))[:count])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


def test_predict_failing_late_leaves_no_output(tmp_path, capsys, monkeypatch):
    # 4 KiB pieces: earlier blocks are scored and written, on two CPUs by
    # forked workers, before the last block's non-finite cell is read
    import multiprocessing

    _, model_path = _fit_small(tmp_path)
    bad = tmp_path / "bad.csv"
    _covariate_csv(bad, 1000)
    bad.write_text(bad.read_text() + "0.1,0.2,inf,0.4,0.5\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_PIECE", 4096)
    capsys.readouterr()
    before = sorted(p.name for p in tmp_path.iterdir())
    existing = tmp_path / "old.csv"
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        for output in (tmp_path / "new.csv", existing, None):
            if output == existing and existing.name not in before:
                existing.write_bytes(b"kept\n")
                existing.chmod(0o600)
                before.append(existing.name)
            argv = ["predict", "--model", str(model_path), "--input", str(bad)]
            rc = cli.main(argv + (["--output", str(output)] if output else []))
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert "non-finite value 'inf' at row 1002, column 'x3'" in captured.err
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
            assert multiprocessing.active_children() == []
    assert existing.read_bytes() == b"kept\n"
    # a successful run replaces the file and keeps its permissions
    assert cli.main(["predict", "--model", str(model_path), "--input", str(tmp_path / "train.csv"),
                     "--output", str(existing)]) == 0
    assert stat.S_IMODE(existing.stat().st_mode) == 0o600 and existing.read_bytes() != b"kept\n"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
@pytest.mark.parametrize("loss", ["huber:1.0", "logistic"])
def test_pooled_predict_writes_the_bytes_of_one_cpu(tmp_path, capsys, monkeypatch, loss):
    # 4 KiB pieces split 3,000 rows into many blocks: on one CPU this
    # process scores them all, on two the forked workers do; to a file and
    # to standard output, the bytes agree
    import multiprocessing

    _, model_path = _fit_small(tmp_path, loss=loss)
    new = tmp_path / "new.csv"
    _covariate_csv(new, 3000)
    monkeypatch.setattr(cli, "_PIECE", 4096)
    scored = []  # rows per SdrnModel.predict call in this process, not in the workers
    original = SdrnModel.predict
    monkeypatch.setattr(SdrnModel, "predict", lambda self, X: scored.append(len(X)) or original(self, X))
    parsed = []  # data rows per cli._parse_plain call in this process: the workers parse the pieces
    parse_plain = cli._parse_plain

    def recorded_parse_plain(text, header):
        block = parse_plain(text, header)
        parsed.append(0 if block is None else len(block[0][0]))
        return block

    monkeypatch.setattr(cli, "_parse_plain", recorded_parse_plain)
    argv = ["predict", "--model", str(model_path), "--input", str(new)]
    written = {}
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"pred{cpus}.csv"
        scored.clear()
        parsed.clear()
        capsys.readouterr()
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert multiprocessing.active_children() == []
        written[cpus] = out.read_bytes()
        assert sum(scored) == (0 if cpus == 2 else 2 * 3000)
        if cpus == 2:  # the header is read by csv.reader, the pieces by the workers
            assert parsed == []
        else:
            assert sum(parsed) == 2 * 3000 and len(parsed) >= 2
    assert written[2] == written[1]
    lines = written[2].decode().splitlines()
    assert len(lines) == 2 + 3000
    assert lines[1].endswith("prediction,probability" if loss == "logistic" else ",prediction")


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="needs fork and CPU affinity")
def test_predict_starts_one_worker_per_piece_read_ahead(tmp_path, capsys, monkeypatch):
    # 138 rows of 90 characters make three 4 KiB pieces, each ending at a
    # line end, but more than three pieces' worth of bytes: on four usable
    # CPUs, predict reads the three pieces ahead and starts three workers
    import concurrent.futures

    _, model_path = _fit_small(tmp_path)
    new = tmp_path / "new.csv"
    X = np.random.default_rng(1).random((138, 5))
    new.write_text("x1,x2,x3,x4,x5\n" + "".join(",".join(f"{v:.15f}" for v in row) + "\n" for row in X),
                   encoding="utf-8")
    monkeypatch.setattr(cli, "_PIECE", 4096)
    assert len(list(cli._pieces(str(new)))) == 3 and new.stat().st_size > 3 * cli._PIECE
    pools = []  # the max_workers of each pool predict starts

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            pools.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    written = {}
    for cpus in (4, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / f"pred{cpus}.csv"
        assert cli.main(["predict", "--model", str(model_path), "--input", str(new),
                         "--output", str(out)]) == 0
        written[cpus] = out.read_bytes()
    assert pools == [3]
    assert written[4] == written[1] and len(written[1].splitlines()) == 2 + 138


def test_pooled_predict_takes_the_per_cell_path_from_the_first_piece_numpy_cannot(
        tmp_path, capsys, monkeypatch):
    # 4 KiB pieces hold about 43 rows each; data row 2,001 quotes its cells,
    # so the piece holding it, and every later one, those already handed to
    # a worker too, go through the per-cell path (row 2,501 ends in \r\n).
    # Its echo drops the quotes and line ends, so the output has the bytes
    # of the plain file's, on two CPUs and on one; a bad cell further on is
    # named by its row in the file
    import multiprocessing

    _, model_path = _fit_small(tmp_path)
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    _covariate_csv(plain, 3000)
    lines = plain.read_text().splitlines(keepends=True)
    lines[2001] = ",".join(f'"{cell}"' for cell in lines[2001].rstrip("\n").split(",")) + "\n"
    lines[2501] = lines[2501].replace("\n", "\r\n")
    odd.write_bytes("".join(lines).encode())
    cells = lines[2701].split(",")
    lines[2701] = ",".join(cells[:2] + ["abc"] + cells[3:])
    bad = tmp_path / "bad.csv"
    bad.write_bytes("".join(lines).encode())
    monkeypatch.setattr(cli, "_PIECE", 4096)
    predict = ["predict", "--model", str(model_path), "--input"]
    assert cli.main(predict + [str(plain), "--output", str(tmp_path / "plain-pred.csv")]) == 0
    want = (tmp_path / "plain-pred.csv").read_bytes()
    assert len(want.splitlines()) == 2 + 3000
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"odd-pred{cpus}.csv"
        assert cli.main(predict + [str(odd), "--output", str(out)]) == 0
        assert out.read_bytes() == want
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(predict + [str(bad), "--output", str(tmp_path / "bad-pred.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-numeric value 'abc' at row 2702, column 'x3'" in captured.err
        assert sorted(tmp_path.iterdir()) == before
        assert multiprocessing.active_children() == []


def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, capsys):
    # Excel's "CSV UTF-8" files start with one; it is dropped on read
    train, model_path = _fit_small(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + train.read_bytes())
    bom_model = tmp_path / "bom.json"
    assert cli.main(["fit", "--input", str(bom), "--target", "y", "--model-out", str(bom_model)]) == 0
    assert bom_model.read_bytes() == model_path.read_bytes()
    predictions = []
    for model, data in ((model_path, train), (bom_model, train), (model_path, bom)):
        capsys.readouterr()
        assert cli.main(["predict", "--model", str(model), "--input", str(data)]) == 0
        predictions.append(capsys.readouterr().out.split("\n", 1)[1])  # after the model echo
    assert predictions[0] == predictions[1] == predictions[2]
    # the target as the first column, and a comment line before the header
    rows = b"1.0,0.1\n2.0,0.5\n0.5,0.9\n"
    for text in (b"y,a\n" + rows, b"# echo\ny,a\n" + rows):
        first = _csv_bytes(tmp_path, b"\xef\xbb\xbf" + text)
        assert cli.main(_fit_argv(tmp_path, train=first)) == 0
        assert SdrnModel.load(tmp_path / "m.json").column_names == ("a",)
    # a bad cell before undecodable bytes past the first 8 KiB is named,
    # by its column, in the rescan that the bytes start
    bad = _csv_bytes(tmp_path, b"\xef\xbb\xbfa,y\n1.0,2.0\nx,1.0\n" + b"0.5,0.25\n" * 2000 + b"\xff,3.0\n")
    _assert_data_error(cli.main(_fit_argv(tmp_path, train=bad)), capsys,
                       "non-numeric value 'x' at row 3, column 'a'")


def test_a_quoted_header_keeps_the_numpy_path(tmp_path, monkeypatch):
    # every header name quoted, as csv.QUOTE_NONNUMERIC and R's write.csv
    # write them: csv.reader reads the header, and the 4 KiB pieces after
    # it go through numpy's parser, in read_csv's blocks and in predict, on
    # two CPUs and on one; no data row goes through the per-cell path in
    # this process, and the output has the bytes of the plain file's
    _, model_path = _fit_small(tmp_path)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    X = _covariate_csv(plain, 3000)
    header, rest = plain.read_text().split("\n", 1)
    quoted.write_text(",".join(f'"{name}"' for name in header.split(",")) + "\n" + rest)
    monkeypatch.setattr(cli, "_PIECE", 4096)
    monkeypatch.setattr(cli, "_CELL_ROWS", 100)
    cells = []  # data rows per block of the per-cell path in this process
    parse_cells = cli._parse_cells

    def recorded_parse_cells(*args):
        for block in parse_cells(*args):
            cells.append(len(block[-2]))
            yield block

    monkeypatch.setattr(cli, "_parse_cells", recorded_parse_cells)
    blocks = list(csv_blocks(str(quoted)))
    # a 4 KiB piece holds about 43 rows; a per-cell block would hold 100
    assert cells == [] and len(blocks) > 2 and all(len(data) < 100 for _, data, _ in blocks)
    assert blocks[0][0] == header.split(",")
    assert np.concatenate([data for _, data, _ in blocks]).tobytes() == X.tobytes()
    predict = ["predict", "--model", str(model_path), "--input"]
    assert cli.main(predict + [str(plain), "--output", str(tmp_path / "plain-pred.csv")]) == 0
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"quoted-pred{cpus}.csv"
        assert cli.main(predict + [str(quoted), "--output", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "plain-pred.csv").read_bytes()
        assert cells == []


def test_predict_reads_its_own_output_back(tmp_path):
    # a header name holding a "," and cells holding a line end, which
    # float() accepts, are quoted in the output, their other bytes as
    # read: predict reads its output back, row for row
    X = np.random.default_rng(5).random((40, 2))
    train = tmp_path / "train.csv"
    train.write_text('"d,e",f,y\n' + "".join(f"{a!r},{b!r},{a + b!r}\n" for a, b in X.tolist()))
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(train), "--target", "y",
                     "--model-out", str(model_path)]) == 0
    new, out, again = tmp_path / "new.csv", tmp_path / "pred.csv", tmp_path / "again.csv"
    new.write_bytes(b'"d,e",f\n0.1,0.5\n"0.2\n",0.5\n"0.3\r", 0.5\n')
    predict = ["predict", "--model", str(model_path), "--input"]
    assert cli.main(predict + [str(new), "--output", str(out)]) == 0
    scores = SdrnModel.load(model_path).predict(np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5]]))
    s1, s2, s3 = map(repr, scores.tolist())
    assert out.read_bytes().decode().split("\n", 1)[1] == (
        f'"d,e",f,prediction\n0.1,0.5,{s1}\n"0.2\n",0.5,{s2}\n"0.3\r", 0.5,{s3}\n')
    assert cli.main(predict + [str(out), "--output", str(again)]) == 0
    header, data = cli.read_csv(str(again))
    assert header == ["d,e", "f", "prediction", "prediction"]
    assert data.tobytes() == np.column_stack([[0.1, 0.2, 0.3], [0.5] * 3, scores, scores]).tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads the workers' pids from /proc; needs two usable CPUs")
def test_sigterm_during_predict_leaves_no_temporary_file_and_no_worker(tmp_path):
    # 4 KiB pieces split 60,000 rows into hundreds of blocks, so predict is
    # still writing its temporary file, with its workers forked, when the
    # SIGTERM comes
    _, model_path = _fit_small(tmp_path)
    new = tmp_path / "new.csv"
    _covariate_csv(new, 60000)
    out = tmp_path / "pred.csv"
    code = "import sys\nfrom sdrn import cli\ncli._PIECE = 4096\nsys.exit(cli.main(sys.argv[1:]))\n"
    argv = ["predict", "--model", str(model_path), "--input", str(new), "--output", str(out)]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=_checkout_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    tmp = Path(f"{out}.{proc.pid}.tmp")
    workers, deadline = [], time.monotonic() + 60
    try:
        while not (tmp.exists() and workers) and proc.poll() is None and time.monotonic() < deadline:
            try:
                workers = [pid for task in Path(f"/proc/{proc.pid}/task").iterdir()
                           for pid in (task / "children").read_text().split()]
            except OSError:
                pass
            time.sleep(0.005)
        assert proc.poll() is None and tmp.exists() and workers
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 143, err
    assert b"Traceback" not in err
    assert not tmp.exists() and not out.exists()
    # the workers were joined, not orphaned
    assert not any(Path(f"/proc/{pid}").exists() for pid in workers)
    # an in-process caller keeps its own handler
    before = signal.getsignal(signal.SIGTERM)
    argv[argv.index(str(new))] = str(tmp_path / "train.csv")
    assert cli.main(argv) == 0 and signal.getsignal(signal.SIGTERM) is before


def test_commands_without_a_pool_import_no_multiprocessing(tmp_path):
    # predict starts its workers, which parse and score the pieces, only
    # once it reads a second piece, so importing sdrn.cli, these commands
    # and a one-piece predict leave multiprocessing's modules out
    train, model, out = str(tmp_path / "train.csv"), str(tmp_path / "model.json"), str(tmp_path / "out.csv")
    _write_binary_training_csv(tmp_path / "train.csv", 80)
    argvs = [["fit", "--input", train, "--target", "y", "--model-out", model],
             ["predict", "--model", model, "--input", train, "--output", out],
             SIMULATE_SMALL + ["--out-csv", out],
             ["verify-bounds", "--out-csv", out]]
    code = ("import sys\nfrom sdrn import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_fit_and_predict_import_no_hashlib_or_statistics(tmp_path):
    # only the random streams of simulate and verify-bounds use them
    train, model, out = str(tmp_path / "train.csv"), str(tmp_path / "model.json"), str(tmp_path / "out.csv")
    _write_binary_training_csv(tmp_path / "train.csv", 80)
    argvs = [["fit", "--input", train, "--target", "y", "--model-out", model],
             ["predict", "--model", model, "--input", train, "--output", out]]
    code = ("import sys\nfrom sdrn import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(sorted({'_hashlib', 'hashlib', 'statistics'} & set(sys.modules)))\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


SIMULATE_SMALL = ["simulate", "--model", "1", "--n", "60", "--reps", "1", "--kappas", "1.0", "--cs=-2"]
# the command run for each output, and whether that output exists before
WHOLE_OR_ABSENT = {
    "fit-model-out": (lambda tmp, out: _fit_argv(tmp, "--m", "0", model_out=out), True),
    "simulate-out-csv": (lambda tmp, out: SIMULATE_SMALL + ["--out-csv", str(out)], True),
    "simulate-out-json": (
        lambda tmp, out: SIMULATE_SMALL + ["--out-csv", os.devnull, "--out-json", str(out)], False),
    "simulate-stdout": (lambda tmp, out: SIMULATE_SMALL, False),
    "verify-bounds-out-csv": (lambda tmp, out: ["verify-bounds", "--out-csv", str(out)], True),
}


@pytest.mark.parametrize("case", list(WHOLE_OR_ABSENT))
def test_every_output_is_whole_or_absent(case, tmp_path):
    # a 16-byte file size limit, below every output's size, fails the
    # writes as a full disk would (SIGXFSZ ignored, so a write past it
    # raises EFBIG): the command exits 2, an existing output keeps its
    # bytes, a new one does not appear, no temporary file is left and
    # nothing reaches standard output
    argv, existing = WHOLE_OR_ABSENT[case]
    out = tmp_path / "out"
    argv = argv(tmp_path, out)
    if existing:
        out.write_bytes(b"old\n")
    before = sorted(tmp_path.iterdir())
    code = ("import resource, signal, sys\nfrom sdrn import cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    done = _run_python(code, *argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("sdrn: data error: cannot write") and done.stdout == ""
    assert sorted(tmp_path.iterdir()) == before
    assert not existing or out.read_bytes() == b"old\n"


def test_read_csv_holds_only_its_array(tmp_path):
    # each block's row texts are dropped as it is read, so what read_csv
    # leaves allocated is its array; two pieces give two blocks
    path = tmp_path / "in.csv"
    _covariate_csv(path, 20000)
    cli.read_csv(str(path))  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        header, data = cli.read_csv(str(path))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert data.shape == (20000, 5) and os.path.getsize(path) > cli._PIECE
    assert held <= 1.1 * data.nbytes, held / data.nbytes


def test_predict_to_stdout_equals_output_file(tmp_path, capsys):
    _, model_path = _fit_small(tmp_path)
    new = tmp_path / "new.csv"
    _covariate_csv(new, 300)
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    argv = ["predict", "--model", str(model_path), "--input", str(new)]
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_predict_writes_a_device_in_place(tmp_path):
    _, model_path = _fit_small(tmp_path)
    assert cli.main(["predict", "--model", str(model_path), "--input", str(tmp_path / "train.csv"),
                     "--output", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_streamed_predict_is_one_whole_call_bitwise(tmp_path, monkeypatch):
    # 4 KiB pieces end mid row block; a row's score depends only on that
    # row, so the scores are those of one call on the whole array, and
    # any slice of the rows scores as in the whole
    _, model_path = _fit_small(tmp_path)
    model = SdrnModel.load(model_path)
    new = tmp_path / "new.csv"
    X = _covariate_csv(new, 3000)
    monkeypatch.setattr(cli, "_PIECE", 4096)
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path), "--input", str(new),
                     "--output", str(out)]) == 0
    streamed = np.loadtxt(out, delimiter=",", skiprows=2)[:, -1]
    whole = model.predict(X)
    assert streamed.tobytes() == whole.tobytes()
    for lo, hi in ((1, 2999), (1234, 2345), (2998, 3000)):
        assert model.predict(X[lo:hi]).tobytes() == whole[lo:hi].tobytes()


def test_predict_memory_stays_flat_as_rows_grow(tmp_path, monkeypatch):
    # with 64 KiB pieces both files span many blocks; numpy registers its
    # buffers with tracemalloc, so the peak counts arrays and strings
    _, model_path = _fit_small(tmp_path)
    monkeypatch.setattr(cli, "_PIECE", 1 << 16)
    peaks = []
    for n in (4000, 40000):
        new = tmp_path / f"new{n}.csv"
        _covariate_csv(new, n)
        tracemalloc.start()
        try:
            assert cli.main(["predict", "--model", str(model_path), "--input", str(new),
                             "--output", str(tmp_path / "pred.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
