"""Outputs pinned in git: each command's output against its reference file
under ``tests/reference``, every number within ``RTOL``.

The references are the outputs of :func:`write_outputs`: ``verify-bounds``'
``bounds.csv``; a ``simulate`` report (Model 1, n = 2000, 2 reps, kappa = 1,
c = -2..2); a Huber and a quantile ``model.json`` fitted with ``--c 1``
(p = 1032) on 2000 Model 1 rows from ``evalsuite.generate``; and their
predictions on 1000 further rows.  Text between numbers must match exactly.
The bytes hold per OpenBLAS kernel and BLAS thread count, and the test says
whether they matched; across kernels only the tolerance holds.  A change
that means to move outputs writes the references again, with

    PYTHONPATH=src python tests/test_reference_outputs.py

and states the largest move it made.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

from sdrn import cli
from sdrn.evalsuite import SimModelSpec, generate

REFERENCE = Path(__file__).resolve().parent / "reference"
# |got - want| <= RTOL * max(1, |want|) for every number.  Against outputs
# made with OpenBLAS's SkylakeX kernel at two threads, the largest measured
# with the SkylakeX, Haswell and Prescott kernels at one and at two threads
# was 2.8e-13 (a Huber coefficient, Prescott), a margin of about 35
RTOL = 1e-11
# a decimal number as Python and the commands write it: 2000, -0.5, 1e-05
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
SPEC = SimModelSpec(model_id=1, n=2000, seed=7)
LOSSES = {"huber": "huber:1.0", "quantile": "quantile:0.5"}


def _write_csv(path: Path, names: list[str], rows: np.ndarray) -> None:
    lines = [",".join(names)] + [",".join(map(repr, row)) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_outputs(out: Path) -> list[str]:
    """Run the commands in the directory ``out`` through ``cli.main`` and
    return the names of the outputs they wrote there."""
    X, y = generate(SPEC)
    new, _ = generate(dataclasses.replace(SPEC, n=1000), rep=1)
    names = [f"x{j + 1}" for j in range(SPEC.dimension)]
    cwd = os.getcwd()
    os.chdir(out)  # predict echoes the model path it was given
    try:
        _write_csv(Path("train.csv"), names + ["y"], np.column_stack([X, y]))
        _write_csv(Path("new.csv"), names, new)
        commands = [
            ["verify-bounds", "--out-csv", "bounds.csv"],
            ["simulate", "--model", "1", "--n", "2000", "--reps", "2", "--loss", "quadratic",
             "--kappas", "1.0", "--cs=-2,-1,0,1,2", "--out-csv", "report.csv"],
        ]
        for name, loss in LOSSES.items():
            commands += [
                ["fit", "--input", "train.csv", "--target", "y", "--loss", loss, "--c", "1",
                 "--model-out", f"{name}.json"],
                ["predict", "--model", f"{name}.json", "--input", "new.csv",
                 "--output", f"{name}-predictions.csv"],
            ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return [argv[-1] for argv in commands]


def worst_difference(got: str, want: str) -> float:
    """The largest ``|got - want| / max(1, |want|)`` over the numbers of two
    texts; their text between the numbers must be the same."""
    parts, wants = _NUMBER.split(got), _NUMBER.split(want)
    assert parts[0::2] == wants[0::2]
    a, b = np.array(parts[1::2], dtype=float), np.array(wants[1::2], dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0))


def test_outputs_match_their_references(tmp_path):
    names = write_outputs(tmp_path)
    assert sorted(names) == sorted(p.name for p in REFERENCE.iterdir())
    moved = []
    for name in names:
        got, want = (tmp_path / name).read_text(), (REFERENCE / name).read_text()
        worst = worst_difference(got, want)
        same = got == want
        print(f"{name}: {'the same bytes' if same else 'other bytes'}, worst difference {worst:.3g}")
        assert worst <= RTOL, f"{name}: a number moved by {worst:.3g}, beyond {RTOL}"
        if not same:
            moved.append(f"{name} ({worst:.3g})")
    if moved:
        warnings.warn(f"within {RTOL} of their references, but not the same bytes: {', '.join(moved)}")


if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in write_outputs(Path(tmp)):
            shutil.copyfile(Path(tmp) / name, REFERENCE / name)
