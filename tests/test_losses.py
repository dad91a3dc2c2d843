import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrn.losses import (
    LossInputError,
    LossSpec,
    loss_curvature,
    loss_subgradient,
    loss_value,
    sigmoid,
)

QUANTILE = LossSpec("quantile", tau=0.25)
HUBER = LossSpec("huber", delta=1.0)
QUADRATIC = LossSpec("quadratic")
LOGISTIC = LossSpec("logistic")


def test_spec_validation():
    with pytest.raises(LossInputError):
        LossSpec("unknown")
    with pytest.raises(LossInputError):
        LossSpec("huber")
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(LossInputError, match="delta"):
            LossSpec("huber", delta=delta)
    with pytest.raises(LossInputError):
        LossSpec("quantile", tau=1.0)
    with pytest.raises(LossInputError):
        LossSpec("quadratic", delta=1.0)
    # a loaded model's parameters are JSON values: a bool or a string is no number
    for name, value in (("delta", True), ("delta", "1.0"), ("tau", False), ("tau", "0.5")):
        kind = "huber" if name == "delta" else "quantile"
        with pytest.raises(LossInputError, match=f"{name} must be a number"):
            LossSpec(kind, **{name: value})
    # an integer past the float range, which only a model file can hold
    for delta in (10 ** 400, -(10 ** 400)):
        with pytest.raises(LossInputError, match="delta must be a number in the float range"):
            LossSpec("huber", delta=delta)


def test_spec_parse_round_trip():
    for text in ("quadratic", "huber:0.5", "quantile:0.25", "logistic"):
        spec = LossSpec.parse(text)
        assert LossSpec.parse(spec.selector()) == spec
    with pytest.raises(LossInputError):
        LossSpec.parse("huber")
    with pytest.raises(LossInputError):
        LossSpec.parse("quadratic:3")
    with pytest.raises(LossInputError, match="could not convert string to float: 'x'"):
        LossSpec.parse("quantile:x")


def test_lipschitz_constants():
    assert HUBER.lipschitz_constant() == 1.0
    assert QUANTILE.lipschitz_constant() == 1.0
    assert LossSpec("quantile", tau=0.9).lipschitz_constant() == 1.0
    assert LOGISTIC.lipschitz_constant() == 2.0
    assert QUADRATIC.lipschitz_constant(m_bound=3.0) == 6.0
    with pytest.raises(LossInputError):
        QUADRATIC.lipschitz_constant()


def test_loss_values():
    assert loss_value(QUANTILE, 0.0, 1.0) == 0.25  # residual +1
    assert loss_value(QUANTILE, 1.0, 0.0) == 0.75  # residual -1
    assert loss_value(HUBER, 0.0, 0.5) == 0.125
    assert loss_value(HUBER, 0.0, 2.0) == 1.5
    assert loss_value(LOGISTIC, 0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert loss_value(QUADRATIC, 1.0, 3.0) == 4.0


def test_logistic_rejects_nonbinary():
    with pytest.raises(LossInputError):
        loss_value(LOGISTIC, 0.0, 0.5)
    with pytest.raises(LossInputError):
        loss_subgradient(LOGISTIC, 0.0, np.array([0.0, 2.0]))


def test_subgradient_examples():
    assert loss_subgradient(QUADRATIC, 1.0, 0.0) == 2.0
    assert loss_subgradient(LOGISTIC, 0.0, 1.0) == -0.5
    half = LossSpec("quantile", tau=0.5)
    assert loss_subgradient(half, 0.0, 0.3) == -0.5  # positive residual
    # kink convention: residual exactly zero uses the <= 0 branch
    assert loss_subgradient(QUANTILE, 1.0, 1.0) == 1.0 - 0.25
    # Huber is C1 across the threshold
    assert loss_subgradient(HUBER, 2.0, 0.0) == 1.0
    assert loss_subgradient(HUBER, 0.5, 0.0) == 0.5


ALL_SPECS = [QUADRATIC, HUBER, QUANTILE, LossSpec("quantile", tau=0.7), LOGISTIC]


def test_subgradient_matches_finite_differences():
    gen = np.random.default_rng(10)
    h = 1e-6
    for spec in ALL_SPECS:
        checked = 0
        while checked < 1000:
            f = gen.uniform(-3.0, 3.0)
            y = float(gen.integers(0, 2)) if spec.kind == "logistic" else gen.uniform(-3.0, 3.0)
            if spec.kind == "quantile" and abs(y - f) < 1e-4:
                continue  # stay away from the kink
            grad = loss_subgradient(spec, f, y)
            fd = (loss_value(spec, f + h, y) - loss_value(spec, f - h, y)) / (2.0 * h)
            assert abs(grad - fd) <= 1e-4, (spec.kind, f, y)
            checked += 1


def test_curvature_matches_finite_differences_of_subgradient():
    gen = np.random.default_rng(12)
    h = 1e-6
    for spec in (HUBER, LOGISTIC):
        f = gen.uniform(-3.0, 3.0, 1000)
        if spec.kind == "logistic":
            y = gen.integers(0, 2, 1000).astype(float)
        else:
            y = gen.uniform(-3.0, 3.0, 1000)
        away = np.abs(np.abs(y - f) - HUBER.delta) > 1e-4  # off the Huber threshold
        fd = (loss_subgradient(spec, f + h, y) - loss_subgradient(spec, f - h, y)) / (2.0 * h)
        curvature = loss_curvature(spec, f, y)
        assert curvature.shape == f.shape
        assert np.max(np.abs(curvature - fd)[away]) <= 1e-6, spec.kind
    with pytest.raises(LossInputError):
        loss_curvature(QUANTILE, 0.0, 1.0)


def test_sigmoid_matches_scipy_expit_without_warnings():
    from scipy.special import expit

    f = np.linspace(-800.0, 800.0, 320_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(f)
    # relative agreement wherever expit is a normal float; below that both
    # are subnormal or zero
    np.testing.assert_allclose(got, expit(f), rtol=1e-15, atol=np.finfo(float).tiny)
    assert sigmoid(0.0) == 0.5


@settings(max_examples=300, deadline=None)
@given(
    f1=st.floats(-5, 5),
    f2=st.floats(-5, 5),
    y=st.floats(-5, 5),
    t=st.floats(0, 1),
    kind=st.sampled_from(["quadratic", "huber", "quantile", "logistic"]),
)
def test_convexity_property(f1, f2, y, t, kind):
    spec = {
        "quadratic": QUADRATIC,
        "huber": HUBER,
        "quantile": QUANTILE,
        "logistic": LOGISTIC,
    }[kind]
    if kind == "logistic":
        y = 1.0 if y >= 0 else 0.0
    mid = t * f1 + (1.0 - t) * f2
    lhs = loss_value(spec, mid, y)
    rhs = t * loss_value(spec, f1, y) + (1.0 - t) * loss_value(spec, f2, y)
    assert lhs <= rhs + 1e-12


def test_lipschitz_property_on_bounded_range():
    gen = np.random.default_rng(11)
    for spec in ALL_SPECS:
        for _ in range(500):
            y = float(gen.integers(0, 2)) if spec.kind == "logistic" else gen.uniform(-2, 2)
            f1, f2 = gen.uniform(-2, 2, 2)
            if spec.kind == "quadratic":
                c = spec.lipschitz_constant(m_bound=4.0)  # |f - y| <= 4 on this range
            else:
                c = spec.lipschitz_constant()
            gap = abs(loss_value(spec, f1, y) - loss_value(spec, f2, y))
            assert gap <= c * abs(f1 - f2) + 1e-12
