"""Lipschitz losses for regression and classification.

Four convex losses share one interface: quadratic (mean regression),
Huber and quantile (robust regression), and logistic (binary
responses).  Each exposes its value, a subgradient in the prediction
and a Lipschitz constant; the Huber and logistic losses also a
(generalised) second derivative.  All functions broadcast over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("quadratic", "huber", "quantile", "logistic")


class LossInputError(ValueError):
    """Invalid loss parameters or responses."""


@dataclass(frozen=True)
class LossSpec:
    """Selects a loss: ``huber`` needs ``delta > 0``, ``quantile`` needs ``tau`` in (0, 1)."""

    kind: str
    delta: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise LossInputError(f"unknown loss kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "huber":
            if self.delta is None or self.delta <= 0:
                raise LossInputError("huber loss needs delta > 0")
        elif self.delta is not None:
            raise LossInputError(f"delta is only valid for huber, not {self.kind}")
        if self.kind == "quantile":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise LossInputError("quantile loss needs tau in (0, 1)")
        elif self.tau is not None:
            raise LossInputError(f"tau is only valid for quantile, not {self.kind}")

    @classmethod
    def parse(cls, text: str) -> "LossSpec":
        """Parse a CLI-style selector: quadratic | huber:<delta> | quantile:<tau> | logistic."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name == "huber":
            if not arg:
                raise LossInputError("huber loss selector needs a delta, e.g. huber:1.0")
            return cls("huber", delta=float(arg))
        if name == "quantile":
            if not arg:
                raise LossInputError("quantile loss selector needs a tau, e.g. quantile:0.5")
            return cls("quantile", tau=float(arg))
        if arg:
            raise LossInputError(f"loss {name!r} takes no parameter")
        return cls(name)

    def selector(self) -> str:
        if self.kind == "huber":
            return f"huber:{self.delta!r}"
        if self.kind == "quantile":
            return f"quantile:{self.tau!r}"
        return self.kind

    def lipschitz_constant(self, m_bound: float | None = None) -> float:
        """Lipschitz constant in the prediction argument.

        Huber: delta; quantile: 1; logistic: 2.  The quadratic loss is
        only Lipschitz on a bounded range, with constant ``2 * m_bound``
        where ``m_bound`` bounds ``|prediction - response|``.
        """
        if self.kind == "quadratic":
            if m_bound is None:
                raise LossInputError("quadratic Lipschitz constant needs the range bound M")
            return 2.0 * m_bound
        if self.kind == "huber":
            return float(self.delta)
        if self.kind == "quantile":
            return 1.0
        return 2.0


def sigmoid(f):
    """The logistic function ``1 / (1 + exp(-f))``, as ``exp(f) / (1 + exp(f))``
    for negative ``f`` so that no ``exp`` overflows."""
    f = np.asarray(f, dtype=float)
    e = np.exp(-np.abs(f))
    return np.where(f >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_binary(y: np.ndarray) -> None:
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LossInputError("logistic loss needs responses in {0, 1}")


def loss_value(spec: LossSpec, f, y):
    """Pointwise loss of prediction ``f`` against response ``y``."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.kind == "quadratic":
        return (y - f) ** 2
    if spec.kind == "huber":
        r = np.abs(y - f)
        delta = spec.delta
        return np.where(r <= delta, 0.5 * r * r, delta * r - 0.5 * delta * delta)
    if spec.kind == "quantile":
        u = y - f
        return u * (spec.tau - (u <= 0.0))
    _check_binary(y)
    return np.logaddexp(0.0, f) - y * f


def loss_subgradient(spec: LossSpec, f, y):
    """Subgradient of the loss in ``f``.

    The Huber loss is C1, so there is no kink to resolve.  At the
    quantile kink (zero residual) the ``residual <= 0`` branch is used,
    matching the indicator in the loss itself, so the value is
    ``1 - tau``.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.kind == "quadratic":
        return 2.0 * (f - y)
    if spec.kind == "huber":
        r = f - y
        delta = spec.delta
        return np.clip(r, -delta, delta)
    if spec.kind == "quantile":
        u = y - f
        return np.where(u <= 0.0, 1.0 - spec.tau, -spec.tau)
    _check_binary(y)
    return sigmoid(f) - y


def loss_curvature(spec: LossSpec, f, y):
    """Second derivative in ``f`` of the Huber and logistic losses, the
    ones fitted by Newton's method.

    Huber: 1 where the residual is at most ``delta`` in size, else 0, an
    element of the generalised Hessian, which makes Newton's method on
    the Huber risk semismooth; logistic: ``sigmoid(f) (1 - sigmoid(f))``.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.kind == "huber":
        return (np.abs(f - y) <= spec.delta).astype(float)
    if spec.kind != "logistic":
        raise LossInputError(f"no Newton curvature for the {spec.kind} loss")
    _check_binary(y)
    e = np.exp(-np.abs(f))
    return e / ((1.0 + e) * (1.0 + e))
