import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdrn import cli
from sdrn import evalsuite as ev
from sdrn.estimator import SdrnModel
from sdrn.sparse_grid import basis_size


def _write_training_csv(path, n=200, seed=0):
    spec = ev.SimModelSpec(model_id=1, n=n, noise="normal", seed=seed)
    data = ev.generate(spec)
    header = ["x1", "x2", "x3", "x4", "x5", "y"]
    lines = [",".join(header)]
    for row, target in zip(data.X, data.y):
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
            "--epochs", "150",
            "--seed", "7",
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
            "--epochs", "30",
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
                       "--model-out", str(tmp_path / "m.json"), "--epochs", "20"])
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
    }
    for name, edit in edits.items():
        doc = json.loads(json.dumps(good))
        edit(doc)
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        rc = cli.main(["predict", "--model", str(bad), "--input", str(train),
                       "--output", str(out)])
        _assert_data_error(rc, capsys, "cannot load model")
        assert not out.exists()


def test_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: the solvers use numpy.linalg only, and the
    # normal draws and the rank-based AUC import scipy when they run
    code = "import sys, sdrn.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


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
                   "--model-out", str(tmp_path / "m.json"), "--loss", "logistic",
                   "--epochs", "5"])
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
                     "--model-out", str(model_path), "--epochs", "60"]) == 0
    monkeypatch.undo()
    assert len(calls) == 1
    # M is the largest training residual, as predicting on the training rows gives it
    lines = capsys.readouterr().out.splitlines()
    header, rows = cli.read_csv(str(train))
    data = np.array(rows)
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


def _fit_small(tmp_path, loss="quadratic"):
    train = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    _write_training_csv(train, n=80)
    args = [
        "fit", "--input", str(train), "--target", "y",
        "--model-out", str(model_path), "--epochs", "60", "--loss", loss,
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
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(empty), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # comment + header only

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


def test_predict_logistic_adds_probability(tmp_path):
    train, model_path = _fit_small(tmp_path, loss="logistic")
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(train), "--output", str(out)]) == 0
    header = out.read_text().splitlines()[1]
    assert header.endswith("prediction,probability")


def test_simulate_deterministic_bytes(tmp_path):
    outs = []
    for run in range(2):
        csv_path = tmp_path / f"sim{run}.csv"
        json_path = tmp_path / f"sim{run}.json"
        rc = cli.main(
            [
                "simulate", "--model", "1", "--n", "90", "--reps", "2",
                "--seed", "7", "--kappas", "1.0", "--cs=-2,-1",
                "--epochs", "40",
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
            "--epochs", "30", "--out-csv", str(csv_path),
        ]
    )
    assert rc == 0
    header = csv_path.read_text().splitlines()[1]
    assert "accuracy" in header and "avg_mse" not in header


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


@pytest.mark.parametrize(
    "flags",
    [["--d", "0", "--m", "2"], ["--d", "2", "--m", "-1"], ["--d", "2", "--m", "2", "--r", "0"]],
    ids=["d=0", "m=-1", "r=0"],
)
def test_basis_info_rejects_bad_values(flags, capsys):
    assert cli.main(["basis-info"] + flags) == 2
    assert capsys.readouterr().err.startswith("sdrn: data error: ")


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
                   "--m", "1", "--c", "1", "--epochs", "10"])
    assert rc == 2
    assert "contradictory" in capsys.readouterr().err


def test_verify_bounds_csv_has_config_echo(tmp_path, monkeypatch):
    import sdrn.evalsuite as ev_mod

    light = ev_mod.BoundConfig(
        square_grid=501, square_rs=(1,), pair_grid=21, pair_rs=(1,),
        product_dims=(2,), product_rs=(2,), product_points=20,
        interp_ms=(1, 2), mc_points=500,
    )
    monkeypatch.setattr(cli, "verify_bounds", lambda: ev_mod.verify_bounds(light))
    out = tmp_path / "bounds.csv"
    assert cli.main(["verify-bounds", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "name,measured,bound,passed,asserted,note"


def test_verify_bounds_exit_three_on_violation(monkeypatch, capsys):
    import sdrn.evalsuite as ev_mod

    failing = ev_mod.BoundReport(
        checks=[ev_mod.BoundCheck(name="demo", measured=2.0, bound=1.0, passed=False)]
    )
    monkeypatch.setattr(cli, "verify_bounds", lambda: failing)
    assert cli.main(["verify-bounds"]) == 3
    assert "violations" in capsys.readouterr().err
