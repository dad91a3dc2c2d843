"""Shared test fixtures: random smooth functions with known derivatives,
the derivative-integral route to hierarchical surpluses, the independent
oracle for :func:`sdrn.sparse_grid.surpluses`, the one-id-at-a-time
references (``index_set``, ``surplus_oracle``) for the array code in
``sdrn.sparse_grid``, the stacked-triple reference for the keyed
leaves of :func:`sdrn.relu_product.product_plan`, the ReLU-graph
twins of :func:`sdrn.relu_product.square_approx` and
:func:`sdrn.relu_product.pair_product`, the closed form of f_R with
its cell index capped at ``2**R - 1``, and the blocks that
:func:`sdrn.cli.read_csv` reads, with their row texts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from sdrn import cli
from sdrn import relu_product as rp
from sdrn.sparse_grid import BasisId, hat_eval


def index_set(level: int) -> list[int]:
    """Admissible node numbers at one refinement level, ascending.

    Level 0 carries the endpoint nodes ``[0, 1]``; level ``l >= 1``
    carries the odd integers in ``[1, 2**l - 1]``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level == 0:
        return [0, 1]
    return list(range(1, 2 ** level, 2))


def surplus_oracle(f: Callable[[np.ndarray], np.ndarray], bid: BasisId) -> float:
    """Surplus of ``f`` at ``bid`` from the nodal difference stencil, one
    id at a time: the reference for :func:`sdrn.sparse_grid.surpluses`.

    Per coordinate the stencil is ``[-1/2, 1, -1/2]`` at
    ``(x - h, x, x + h)`` for levels >= 1 and plain evaluation at the
    endpoint node for level 0; coordinates combine as a tensor product.
    """
    offsets: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for l, s in zip(bid.level, bid.node):
        h = 2.0 ** -l
        c = s * h
        if l == 0:
            offsets.append(np.array([c]))
            weights.append(np.array([1.0]))
        else:
            offsets.append(np.array([c - h, c, c + h]))
            weights.append(np.array([-0.5, 1.0, -0.5]))
    grids = np.meshgrid(*offsets, indexing="ij")
    wgrids = np.meshgrid(*weights, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wtotal = np.ones(pts.shape[0])
    for w in wgrids:
        wtotal *= w.ravel()
    return float(np.dot(wtotal, np.asarray(f(pts), dtype=float)))


def stacked_triple_plan(levels, nodes) -> rp.ProductPlan:
    """:func:`sdrn.relu_product.product_plan` with its leaves found by
    ``np.unique(axis=0)`` over the stacked ``(coordinate, level, node)``
    triples of every factor: the reference for the plan's packed keys."""
    levels = np.asarray(levels, dtype=np.int64)
    k, d = levels.shape
    coords = np.broadcast_to(np.arange(d), (k, d))
    triples = np.stack([coords, levels, np.asarray(nodes, dtype=np.int64)], axis=-1)
    leaves, idx = np.unique(triples.reshape(-1, 3), axis=0, return_inverse=True)
    idx = idx.reshape(k, d)
    pairs, width, widest = [], len(leaves), len(leaves)
    while idx.shape[1] > 1:
        q = idx.shape[1]
        forwarded, last = np.unique(idx[:, q - q % 2 :], return_inverse=True)
        keys = idx[:, 0 : q - 1 : 2] * width + idx[:, 1:q:2]
        distinct, inverse = np.unique(keys, return_inverse=True)
        idx = np.column_stack([inverse.reshape(keys.shape), len(distinct) + last.reshape(k, q % 2)])
        pairs.append((*np.divmod(distinct, width), forwarded))
        width = len(distinct) + len(forwarded)
        widest = max(widest, width)
    # the widest table counts the k root rows in id order; the rows per block
    # come from the levels alone, which is the same for an enumerated basis
    return rp.ProductPlan(leaves, pairs, idx[:, 0], max(widest, k), max(1, rp._BLOCK_CELLS // widest))


class QuadratureError(RuntimeError):
    """Successive quadrature orders disagree beyond the tolerance."""


@dataclass(frozen=True)
class SmoothFunction:
    """A function on the unit cube with analytic mixed second derivatives.

    ``value`` maps a batch of points ``(n, d)`` to values ``(n,)``.
    ``mixed_second(x, dims)`` returns the derivative of order two in each
    coordinate listed in ``dims`` (and order zero elsewhere), again
    batched.  ``mixed_second(x, all dims)`` is the full mixed second
    derivative entering the coefficient integral.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    mixed_second: Callable[[np.ndarray, tuple[int, ...]], np.ndarray]


def _cell_quadrature(level: int, node: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over the two linear cells of a hat.

    The hat with level ``l >= 1`` is linear on ``[c-h, c]`` and
    ``[c, c+h]``; integrating each cell separately keeps polynomial
    integrands exact.
    """
    base_x, base_w = leggauss(order)
    h = 2.0 ** -level
    c = node * h
    lo = max(c - h, 0.0)
    hi = min(c + h, 1.0)
    xs, ws = [], []
    for a, b in ((lo, c), (c, hi)):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _grid_point(bid: BasisId) -> np.ndarray:
    """Coordinates ``node * 2**-level`` of the grid point of ``bid``."""
    return np.array([s * 2.0 ** -l for l, s in zip(bid.level, bid.node)])


def _coefficient_integral(func: SmoothFunction, bid: BasisId, order: int) -> float:
    active = [j for j, l in enumerate(bid.level) if l >= 1]
    if not active:
        point = _grid_point(bid)[None, :]
        return float(func.value(point)[0])
    axes = [_cell_quadrature(bid.level[j], bid.node[j], order) for j in active]
    grids = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    weights = np.meshgrid(*(w for _, w in axes), indexing="ij")
    pts = np.empty((grids[0].size, bid.dimension))
    pts[:, :] = _grid_point(bid)[None, :]
    wtotal = np.ones(grids[0].size)
    for k, j in enumerate(active):
        xj = grids[k].ravel()
        pts[:, j] = xj
        wtotal *= weights[k].ravel()
        wtotal *= -(2.0 ** -(bid.level[j] + 1)) * hat_eval(bid.level[j], bid.node[j], xj)
    deriv = func.mixed_second(pts, tuple(active))
    return float(np.dot(wtotal, deriv))


def hierarchical_coefficient(
    func: SmoothFunction,
    bid: BasisId,
    order: int = 8,
    convergence_tol: float | None = None,
) -> float:
    """Surplus of ``func`` at ``bid`` via the derivative-integral formula.

    For every coordinate at level >= 1 the integrand carries the factor
    ``-2**-(l+1) * phi_{l,s}`` against the mixed second derivative over
    those coordinates; level-0 coordinates are pinned at their endpoint
    node (nodal convention).  Integration is per-cell Gauss-Legendre of
    the given ``order``.

    When ``convergence_tol`` is set the integral is recomputed at
    ``order + 2`` and a :class:`QuadratureError` is raised if the two
    values differ by more than the tolerance.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    if func.dimension != bid.dimension:
        raise ValueError("function and basis id dimensions differ")
    value = _coefficient_integral(func, bid, order)
    if convergence_tol is not None:
        refined = _coefficient_integral(func, bid, order + 2)
        if abs(refined - value) > convergence_tol:
            raise QuadratureError(
                f"quadrature not converged at order {order}: "
                f"{value!r} vs {refined!r} at order {order + 2}"
            )
        value = refined
    return value


class Component:
    """One-dimensional factor with an analytic second derivative."""

    def __init__(self, value, second):
        self.value = value
        self.second = second

    def l2_second(self) -> float:
        x, w = leggauss(40)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        return float(np.sqrt(np.sum(w * self.second(x) ** 2)))


def _sine(gen) -> Component:
    a = gen.uniform(0.5, 3.0)
    b = gen.uniform(0.0, 2.0 * np.pi)
    return Component(lambda x: np.sin(a * x + b), lambda x: -(a ** 2) * np.sin(a * x + b))


def _cubic(gen) -> Component:
    c = gen.uniform(-1.0, 1.0, 4)
    return Component(
        lambda x: c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3,
        lambda x: 2.0 * c[2] + 6.0 * c[3] * x,
    )


def _bump(gen) -> Component:
    # vanishes at both endpoints: x(1-x)(a + b x)
    a, b = gen.uniform(-2.0, 2.0, 2)
    return Component(
        lambda x: x * (1.0 - x) * (a + b * x),
        lambda x: 2.0 * (b - a) - 6.0 * b * x,
    )


def _interior_sine(gen) -> Component:
    # sin(k pi x) with integer k vanishes at both endpoints
    k = int(gen.integers(1, 4))
    a = k * np.pi
    return Component(lambda x: np.sin(a * x), lambda x: -(a ** 2) * np.sin(a * x))


class ProductFunction:
    """Tensor product of 1-d components; all mixed seconds are analytic."""

    def __init__(self, comps: list[Component]):
        self.comps = comps
        self.dimension = len(comps)

    def value(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.ones(X.shape[0])
        for j, comp in enumerate(self.comps):
            out *= comp.value(X[:, j])
        return out

    def mixed_second(self, X: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.ones(X.shape[0])
        for j, comp in enumerate(self.comps):
            fn = comp.second if j in dims else comp.value
            out *= fn(X[:, j])
        return out

    def smooth(self) -> SmoothFunction:
        return SmoothFunction(
            dimension=self.dimension, value=self.value, mixed_second=self.mixed_second
        )

    def l2_norm_d2f(self) -> float:
        norm = 1.0
        for comp in self.comps:
            norm *= comp.l2_second()
        return norm


def random_product_function(gen, d: int, boundary_vanishing: bool = False) -> ProductFunction:
    makers = (_bump, _interior_sine) if boundary_vanishing else (_sine, _cubic, _bump)
    comps = [makers[int(gen.integers(0, len(makers)))](gen) for _ in range(d)]
    return ProductFunction(comps)


def capped_square_approx(R: int, x) -> np.ndarray:
    """f_R in closed form with the cell index ``k = min(floor(x 2**R), 2**R - 1)``,
    rounding each step as :func:`sdrn.relu_product.square_approx` does."""
    t = np.asarray(x, dtype=float) * 2.0 ** R
    k = np.minimum(np.floor(t), 2.0 ** R - 1.0)
    return ((t - k) * (2.0 * k + 1.0) + k * k) * 4.0 ** -R


def build_square_network(R: int) -> rp.ReluGraph:
    """Explicit graph for f_R: depth R+2, units 3R+1, weights 15R-4."""
    b = rp._GraphBuilder(input_arity=1)
    chain = rp._SquareChain(b.input_expr(0))
    b.square_layers([chain], R)
    return b.finish(chain.result())


def build_pair_network(R: int) -> rp.ReluGraph:
    """Explicit graph computing the pair product on [0, 1]**2.

    Matches :func:`sdrn.relu_product.pair_product` pointwise on the unit
    square (the graph does not reproduce the input clamping applied
    outside it).
    """
    b = rp._GraphBuilder(input_arity=2)
    return b.finish(b.pair_exprs([(b.input_expr(0), b.input_expr(1))], R)[0])


def csv_blocks(path):
    """The ``(header, data, lines)`` blocks of a numeric CSV, as
    :func:`sdrn.cli.read_csv` streams them in this process: ``lines``
    holds each data row's cells as read, as a CSV line."""
    header, lineno, texts = cli._read_header(path, cli._pieces(path))
    for data, lines in cli._stream(path, header, lineno, texts, lambda *block: block):
        yield header, data, lines
