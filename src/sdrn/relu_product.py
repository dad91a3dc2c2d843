r"""ReLU approximation of products, from tooth functions to basis features.

* ``tooth`` g, the unit sawtooth;
* ``square_approx`` f_R, the piecewise-linear interpolant of x**2 on the
  grid ``k * 2**-R``, with ``|f_R(x) - x**2| <= 2**(-2R-2)`` on [0, 1].
  It is evaluated in closed form; Yarotsky's network computes it as the
  tooth chain ``x - sum_r g_r(x)/4**r``, which the graphs below build;
* ``pair_product``, one tree level: the polarisation identity
  xy = ((x+y)**2 - x**2 - y**2)/2 applied to f_R, accurate to ``3 * 2**(-2R-2)``;
* ``product_features``, the product-tree evaluator: the d hat factors
  of many basis functions multiplied through binary trees of pair
  products, accurate to ``3 * 2**(-2R-2) * (d-1)``, with every distinct
  subtree evaluated once, from the trees that ``product_plan`` plans once
  for any number of points; ``approx_basis_eval`` applies them to one id;
* ``product_pairs``, the same trees for k (id, point) pairs, id i at
  point i only: the diagonal of ``product_features`` without the table;
* ``product_scores``, the same trees contracted against coefficients
  (``product_features(...) @ coef``) per row block, without the feature
  matrix.

Each closed form has a twin builder returning an explicit
:class:`ReluGraph` that matches it pointwise, with exact
depth/unit/weight accounting (weights = connections plus units).  The
closed forms are the fast path used to assemble feature matrices; the
tooth chain and the graphs are their oracles, used for verification and
complexity reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DataError
from .sparse_grid import BasisId, as_points, basis_size, hat_eval

# cells of one tree-level table in a row block of _tree_blocks
_BLOCK_CELLS = 1 << 16


def relu(x):
    return np.maximum(x, 0.0)


def tooth(x):
    """The unit sawtooth: 2x on [0, 1/2), 2(1-x) on [1/2, 1], 0 outside.

    Computed through its ReLU form ``2*s(x) - 4*s(x - 1/2) + 2*s(x - 1)``
    so that inputs outside [0, 1] behave the same as in the graphs.
    """
    x = np.asarray(x, dtype=float)
    return 2.0 * relu(x) - 4.0 * relu(x - 0.5) + 2.0 * relu(x - 1.0)


# the largest R at which square_approx stays finite: the cell index k
# reaches 2**R at x = 1, and k * k = 4**R overflows a float from R = 512 on
MAX_R = 511


def check_accuracy_level(R: int) -> None:
    """Refuse an accuracy level outside ``1..MAX_R``."""
    if not 1 <= R <= MAX_R:
        raise DataError(f"accuracy level R must be in 1..{MAX_R}, got {R}")


def square_approx(R: int, x, out=None, work=None):
    """f_R(x), the linear interpolant of x**2 on the grid ``k * 2**-R``, for x in [0, 1].

    With ``h = 2**-R`` and ``k = floor(x / h)`` the cell index (2**R at x = 1),
    ``f_R(x) = (k h)**2 + (x - k h)(2k + 1) h``.  This equals the
    tooth chain ``x - sum_{r=1}^{R} g_r(x) / 4**r`` on [0, 1] (to
    rounding), is exact at every grid point, and its error against x**2
    peaks at cell midpoints with value exactly ``2**(-2R-2)``.
    ``R`` ranges over ``1..MAX_R``.  ``out``, if given, receives f_R(x)
    and may be ``x`` itself; ``work``, if given, is two more arrays of
    x's shape that hold k and ``2k + 1``.
    """
    check_accuracy_level(R)
    t = np.multiply(np.asarray(x, dtype=float), 2.0 ** R, out=out)  # x / h, exact
    k, odd = (np.empty_like(t), np.empty_like(t)) if work is None else work
    np.floor(t, out=k)
    t -= k  # in place: h**2 (k**2 + (t - k)(2k + 1))
    np.multiply(k, 2.0, out=odd)
    odd += 1.0
    t *= odd
    k *= k
    t += k
    t *= 4.0 ** -R
    return t


def pair_product(R: int, x, y):
    """Approximate ``x * y`` as 2*(f_R((x+y)/2) - f_R(x)/4 - f_R(y)/4).

    Inputs are clamped to [0, 1], where the bound ``3 * 2**(-2R-2)`` holds,
    and broadcast; their pairs are one tree level.  Exactly symmetric in its
    arguments (the two single-argument terms are added before subtracting).
    """
    xy = np.array(np.broadcast_arrays(x, y), dtype=float)
    pairs = np.clip(xy, 0.0, 1.0, out=xy).reshape(2, -1)
    out, buf = np.empty_like(pairs[:1]), np.empty((4, pairs.size))
    out = _tree_level(R, pairs, np.arange(1), np.arange(1, 2), np.arange(0), False, out, buf)
    return out.reshape(xy.shape[1:])[()]


@dataclass(frozen=True, eq=False)
class ProductPlan:
    """The product trees of k basis ids, planned once for any number of points.

    ``leaves`` holds the distinct ``(coordinate, level, node)`` hats.
    ``pairs`` holds, per tree level, the ``(left, right)`` child rows of
    its distinct pairs and its ``forwarded`` rows, as rows of the table
    of the level below; its last entry, for ``d >= 2``, is the root,
    which forwards nothing.  ``top[i]`` is the root pair of id i, or for
    ``d == 1`` its leaf.  ``widest`` is the row count of the widest
    table, the leaves, a level or the ``len(top)`` rows in id order, and
    ``rows`` the row-block size: a block holds ``_BLOCK_CELLS`` cells of it.
    """

    leaves: np.ndarray
    pairs: list
    top: np.ndarray
    widest: int
    rows: int


def product_plan(levels, nodes) -> ProductPlan:
    """Plan the product trees of k basis ids; it does not depend on R or the points.

    ``levels`` and ``nodes`` are ``(k, d)`` integer arrays, one id per
    row.  Adjacent factors are paired left to right per level, and an
    unpaired trailing factor is forwarded.  Each level is one array
    operation over its distinct subtrees, so a hat, a subtree value and
    its f_R are computed once however many ids share them.
    """
    levels = np.asarray(levels, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    k, d = levels.shape
    # one int64 key per (coordinate, level, node) hat, sorting as the triples do
    L, N = int(levels.max(initial=0)) + 1, int(nodes.max(initial=0)) + 1
    keys, idx = np.unique((np.arange(d) * L + levels) * N + nodes, return_inverse=True)
    coord_level, node = np.divmod(keys, N)
    leaves = np.column_stack([*np.divmod(coord_level, L), node])
    idx = idx.reshape(k, d)
    pairs, width, widest = [], len(leaves), max(len(leaves), k)
    while idx.shape[1] > 1:
        q = idx.shape[1]
        forwarded, last = np.unique(idx[:, q - q % 2 :], return_inverse=True)
        keys = idx[:, 0 : q - 1 : 2] * width + idx[:, 1:q:2]
        distinct, inverse = np.unique(keys, return_inverse=True)
        # inverses come flat before numpy 2
        idx = np.column_stack([inverse.reshape(keys.shape), len(distinct) + last.reshape(k, q % 2)])
        pairs.append((*np.divmod(distinct, width), forwarded))
        width = len(distinct) + len(forwarded)
        widest = max(widest, width)
    return ProductPlan(leaves, pairs, idx[:, 0], widest, max(1, _BLOCK_CELLS // widest))


def _table(buf, slot: int, *shape):
    """A table of ``shape``: the first cells of row ``slot`` of the workspace ``buf``."""
    return buf[slot, : math.prod(shape)].reshape(shape)


def _tree_level(R: int, vals, left, right, forwarded, clamp: bool, out, buf):
    """One tree level of the table ``vals``, one row per subtree, into ``out``:
    the pair products of its ``left`` and ``right`` rows, clamped to [0, 1]
    when ``clamp`` (below the root), then its ``forwarded`` rows, with tables
    0 to 3 of ``buf`` as work.  Each row is halved, and its f_R quartered,
    once; a power of two scales exactly, so that equals scaling each pair sum."""
    w, q, n = len(vals), len(left), vals.shape[1]
    halves = np.multiply(vals, 0.5, out=_table(buf, 0, w, n))
    mids = halves.take(left, axis=0, out=_table(buf, 1, q, n), mode="clip")
    mids += halves.take(right, axis=0, out=_table(buf, 2, q, n), mode="clip")
    quarters = square_approx(R, vals, _table(buf, 0, w, n), (_table(buf, 2, w, n), _table(buf, 3, w, n)))
    quarters *= 0.25
    fxy = quarters.take(left, axis=0, out=_table(buf, 2, q, n), mode="clip")
    fxy += quarters.take(right, axis=0, out=_table(buf, 3, q, n), mode="clip")
    prods = square_approx(R, mids, out[:q], (_table(buf, 0, q, n), _table(buf, 3, q, n)))
    prods -= fxy
    prods *= 2.0
    if clamp:
        np.clip(prods, 0.0, 1.0, out=prods)
    vals.take(forwarded, axis=0, out=out[q:], mode="clip")
    return out


def _tree_blocks(R: int, plan: ProductPlan, X, levels: int, buf):
    """Run the first ``levels`` levels of the trees of ``plan``, per row block of ``X``.

    Yields ``(rows, table)`` per block: the row slice and the table the
    last level run gives (the leaf hats for ``levels == 0``), one row
    per subtree and one column per point.  When ``levels`` is the whole
    tree, its last level is computed in id order: row i is id i.
    ``buf`` is a workspace of 6 rows of ``plan.rows`` (or fewer, for
    fewer points) times ``plan.widest``; every block writes its tables
    to it, the levels alternating between rows 4 and 5.
    """
    leaves, pairs, top = plan.leaves, plan.pairs[:levels], plan.top
    if levels == len(plan.pairs):
        if pairs:
            *pairs, (left, right, _) = pairs
            pairs.append((left[top], right[top], top[:0]))
        else:
            leaves = leaves[top]
    coords, last = np.ascontiguousarray(leaves[:, 0]), len(plan.pairs) - 1
    for lo in range(0, X.shape[0], plan.rows):
        rows = slice(lo, lo + plan.rows)
        pts = X[rows].T
        n = pts.shape[1]
        vals = pts.take(coords, axis=0, out=_table(buf, 4, len(coords), n), mode="clip")
        hat_eval(leaves[:, 1:2], leaves[:, 2:3], vals, out=vals)
        for i, (left, right, forwarded) in enumerate(pairs):
            out = _table(buf, 5 - i % 2, len(left) + len(forwarded), n)
            vals = _tree_level(R, vals, left, right, forwarded, i < last, out, buf)
        yield rows, vals


def product_features(R: int, plan: ProductPlan, X) -> np.ndarray:
    """ReLU-product approximations of k tensor hat functions at n points.

    ``plan`` is :func:`product_plan` of the k basis ids and ``X`` is
    ``(n, d)``; the result is ``(n, k)``.  Column i multiplies the d hat
    values of id i through its binary tree, whose pair outputs below the
    root are clamped to [0, 1] (ReLU-expressible; it keeps each pair
    product on the domain of its bound).  The deviation from the exact
    product is at most ``3 * 2**(-2R-2) * (d - 1)``; for ``d == 1`` it is
    0.  Rows go in blocks, all run in one workspace of ``plan.widest``
    rows per table, allocated once per call, so the output is the only
    ``n x k`` array and every block reuses the same tables.  The root
    level computes its pairs in id order, straight into the table copied
    to the output.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty((X.shape[0], len(plan.top)))
    buf = np.empty((6, min(plan.rows, X.shape[0]) * plan.widest))
    for rows, vals in _tree_blocks(R, plan, X, len(plan.pairs), buf):
        out[rows] = vals.T
    return out


def product_pairs(R: int, levels, nodes, X) -> np.ndarray:
    """Id i's product-tree value at point i: the diagonal of ``product_features``, bitwise.

    ``levels``, ``nodes`` and ``X`` are ``(k, d)``; the result is ``(k,)``.
    The ``(d, k)`` leaf hats are reduced with the tree levels of
    :func:`product_features`, pairing adjacent rows left to right.
    """
    vals = hat_eval(np.asarray(levels).T, np.asarray(nodes).T, np.asarray(X, dtype=float).T)
    buf = np.empty((4, vals.size))
    while len(vals) > 1:
        q = len(vals)
        level = np.arange(0, q - 1, 2), np.arange(1, q, 2), np.arange(q - q % 2, q)
        vals = _tree_level(R, vals, *level, q > 2, np.empty(((q + 1) // 2, vals.shape[1])), buf)
    return vals[0]


def product_scores(R: int, plan: ProductPlan, X, coef) -> np.ndarray:
    """``product_features(R, plan, X) @ coef`` without any ``n x k`` array.

    ``coef`` is ``(k,)`` or ``(k, q)``; the result is ``(n,)`` or
    ``(n, q)``.  The root pair product ``2 f_R(mid) - (f_R(l) + f_R(r)) / 2``
    is linear in the children's f_R values, so the coefficients are
    summed onto the children, rows of the narrower table below the root,
    and each row block forms only the root's midpoint f_R values and that
    table, in the workspace of :func:`product_features`.  The result
    agrees with the product to rounding, and for a one-hot ``coef`` it is
    the feature column bitwise: every scaling is a power of two and every
    other term is an exact zero.  For a vector
    ``coef`` a row's score depends only on that row: any split, subset or
    order of the rows gives the same bits (:func:`_contract`).
    """
    X = np.asarray(X, dtype=float)
    coef = np.asarray(coef, dtype=float)
    top = plan.top
    if coef.shape[:1] != top.shape:
        raise ValueError(f"coef has shape {coef.shape}, need {len(top)} rows")
    out = np.empty(X.shape[:1] + coef.shape[1:])
    buf = np.empty((6, min(plan.rows, X.shape[0]) * plan.widest))
    if not plan.pairs:
        for rows, vals in _tree_blocks(R, plan, X, 0, buf):
            out[rows] = _contract(vals, coef)
        return out
    *below, (left, right, _) = plan.pairs
    # the table below the root holds its level's pairs and forwarded rows
    width = len(below[-1][0]) + len(below[-1][2]) if below else len(plan.leaves)
    at_root = np.zeros((len(left),) + coef.shape[1:])
    np.add.at(at_root, top, 2.0 * coef)
    at_children = np.zeros((width,) + coef.shape[1:])
    np.add.at(at_children, left, 0.25 * at_root)
    np.add.at(at_children, right, 0.25 * at_root)
    for rows, vals in _tree_blocks(R, plan, X, len(below), buf):
        q, n = len(left), vals.shape[1]
        halves = np.multiply(vals, 0.5, out=_table(buf, 0, width, n))
        mids = halves.take(left, axis=0, out=_table(buf, 1, q, n), mode="clip")
        mids += halves.take(right, axis=0, out=_table(buf, 2, q, n), mode="clip")
        work = _table(buf, 0, q, n), _table(buf, 2, q, n)
        out[rows] = _contract(square_approx(R, mids, mids, work), at_root)
        out[rows] -= _contract(square_approx(R, vals, vals, (halves, _table(buf, 2, width, n))), at_children)
    return out


def _contract(table, coef):
    """``table.T @ coef``.  For a vector ``coef`` einsum sums each column in row order, so
    a column's sum depends on it alone; a lone column goes in twice, as einsum would
    sum it in another order.  A matrix ``coef`` keeps the faster BLAS product."""
    if coef.ndim > 1:
        return table.T @ coef
    if table.shape[1] == 1:
        return np.einsum("kr,k->r", np.repeat(table, 2, axis=1), coef)[:1]
    return np.einsum("kr,k->r", table, coef)


def approx_basis_eval(R: int, bid: BasisId, x):
    """ReLU-product approximation of the tensor hat function of ``bid``.

    For ``d == 1`` this is the exact hat value (no product needed); for
    ``d >= 2`` the deviation from the exact tensor product is at most
    ``3 * 2**(-2R-2) * (d - 1)``.
    """
    pts = as_points(x, bid.dimension)
    out = product_features(R, product_plan([bid.level], [bid.node]), pts)[:, 0]
    return out if np.ndim(x) == 2 else out[0]


# --------------------------------------------------------------------------
# Explicit graphs
# --------------------------------------------------------------------------

# An affine expression is a dict {(layer, index): weight} plus a bias,
# where layer 0 means the network inputs and layer k >= 1 the k-th
# computation layer.  Builders compose expressions symbolically, so
# chains of affine maps are flattened and never cost extra units.
Expr = tuple[dict[tuple[int, int], float], float]


@dataclass(frozen=True)
class ComplexityReport:
    depth: int
    units: int
    weights: int


@dataclass
class Neuron:
    """One computational unit: affine in earlier values, optional ReLU."""

    inputs: list[tuple[int, int, float]]
    bias: float
    relu: bool


@dataclass
class ReluGraph:
    """Layered ReLU network with explicit (possibly skipping) connections.

    ``layers[k]`` holds the neurons of computation layer ``k + 1``; the
    final layer must contain the single linear output unit.  Depth
    counts the input layer plus every computation layer; the weight
    count is the number of connections plus the number of units.
    """

    input_arity: int
    layers: list[list[Neuron]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers) + 1

    @property
    def unit_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def connection_count(self) -> int:
        return sum(len(n.inputs) for layer in self.layers for n in layer)

    @property
    def weight_count(self) -> int:
        return self.connection_count + self.unit_count

    def complexity(self) -> ComplexityReport:
        return ComplexityReport(depth=self.depth, units=self.unit_count, weights=self.weight_count)

    def eval(self, x) -> np.ndarray:
        """Evaluate the output unit; ``x`` is ``(input_arity,)`` or ``(n, input_arity)``."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.input_arity:
            raise ValueError(f"expected {self.input_arity} inputs, got {pts.shape[1]}")
        values: list[np.ndarray] = [pts.T]
        for layer in self.layers:
            acts = np.empty((len(layer), pts.shape[0]))
            for i, neuron in enumerate(layer):
                acc = np.full(pts.shape[0], neuron.bias)
                for (lyr, idx, w) in neuron.inputs:
                    acc += w * values[lyr][idx]
                acts[i] = np.maximum(acc, 0.0) if neuron.relu else acc
            values.append(acts)
        out = values[-1][0]
        return out if np.ndim(x) == 2 else out[0]


def _combine(terms: Sequence[tuple[float, Expr]], bias: float = 0.0) -> Expr:
    coeffs: dict[tuple[int, int], float] = {}
    b = bias
    for c, (refs, eb) in terms:
        b += c * eb
        for key, w in refs.items():
            coeffs[key] = coeffs.get(key, 0.0) + c * w
    return ({k: w for k, w in coeffs.items() if w != 0.0}, b)


class _SquareChain:
    """One f_R evaluation threaded through shared tooth layers."""

    def __init__(self, u: Expr):
        self.terms: list[tuple[float, Expr]] = [(1.0, u)]
        self.g = u

    def piece_specs(self) -> list[tuple[Expr, bool]]:
        return [(_combine([(1.0, self.g)], bias=shift), True) for shift in (0.0, -0.5, -1.0)]

    def advance(self, pieces: list[Expr], r: int) -> None:
        self.g = _combine([(2.0, pieces[0]), (-4.0, pieces[1]), (2.0, pieces[2])])
        self.terms.append((-(4.0 ** -r), self.g))

    def result(self) -> Expr:
        return _combine(self.terms)


class _GraphBuilder:
    """Accumulates layers; expressions reference (layer, index) pairs."""

    def __init__(self, input_arity: int):
        self.graph = ReluGraph(input_arity=input_arity)

    @staticmethod
    def input_expr(j: int) -> Expr:
        return ({(0, j): 1.0}, 0.0)

    def add_layer(self, specs: Sequence[tuple[Expr, bool]]) -> list[Expr]:
        """Append one layer of neurons; returns expressions for their outputs."""
        layer_idx = len(self.graph.layers) + 1
        neurons = []
        outs: list[Expr] = []
        for i, ((refs, bias), use_relu) in enumerate(specs):
            inputs = [(lyr, idx, w) for (lyr, idx), w in sorted(refs.items())]
            neurons.append(Neuron(inputs=inputs, bias=bias, relu=use_relu))
            outs.append(({(layer_idx, i): 1.0}, 0.0))
        self.graph.layers.append(neurons)
        return outs

    def square_layers(self, chains: list[_SquareChain], R: int) -> None:
        """Append R layers advancing all chains in lockstep."""
        for r in range(1, R + 1):
            specs: list[tuple[Expr, bool]] = []
            for chain in chains:
                specs.extend(chain.piece_specs())
            outs = self.add_layer(specs)
            for i, chain in enumerate(chains):
                chain.advance(outs[3 * i : 3 * i + 3], r)

    def pair_exprs(self, pairs: list[tuple[Expr, Expr]], R: int) -> list[Expr]:
        """Pair products of all ``pairs`` sharing the same R layers."""
        trios = []
        chains: list[_SquareChain] = []
        for u, v in pairs:
            mid = _combine([(0.5, u), (0.5, v)])
            trio = (_SquareChain(mid), _SquareChain(u), _SquareChain(v))
            trios.append(trio)
            chains.extend(trio)
        self.square_layers(chains, R)
        return [
            _combine([(2.0, m.result()), (-0.5, a.result()), (-0.5, b.result())])
            for m, a, b in trios
        ]

    def clamp_exprs(self, exprs: list[Expr]) -> list[Expr]:
        """Clamp each value to [0, 1] in one shared layer: s(v) - s(v - 1)."""
        specs: list[tuple[Expr, bool]] = []
        for e in exprs:
            specs.append((e, True))
            specs.append((_combine([(1.0, e)], bias=-1.0), True))
        outs = self.add_layer(specs)
        return [
            _combine([(1.0, outs[2 * i]), (-1.0, outs[2 * i + 1])])
            for i in range(len(exprs))
        ]

    def tree_exprs(self, exprs: list[Expr], R: int) -> Expr:
        vals = list(exprs)
        while len(vals) > 1:
            pairs = [(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
            prods = self.pair_exprs(pairs, R)
            if len(vals) > 2:
                prods = self.clamp_exprs(prods)
            if len(vals) % 2 == 1:
                prods.append(vals[-1])
            vals = prods
        return vals[0]

    def finish(self, expr: Expr) -> ReluGraph:
        self.add_layer([(expr, False)])
        return self.graph


def build_basis_network(R: int, bid: BasisId) -> ReluGraph:
    """Explicit graph for the ReLU-product basis feature of ``bid``.

    The first layer computes the d hat values (three ReLU pieces each),
    then a binary tree of pair blocks, one block of shared layers per
    tree level, with clamped intermediate outputs, mirrors
    :func:`approx_basis_eval`.  Depth is ``R * ceil(log2 d)`` up to an
    additive O(log d) term.
    """
    check_accuracy_level(R)
    b = _GraphBuilder(input_arity=bid.dimension)
    specs: list[tuple[Expr, bool]] = []
    for j, (l, s) in enumerate(zip(bid.level, bid.node)):
        scale = 2.0 ** l
        xj = b.input_expr(j)
        for shift in (1.0, 0.0, -1.0):
            specs.append((_combine([(scale, xj)], bias=shift - s), True))
    pieces = b.add_layer(specs)
    hats = [
        _combine([(1.0, pieces[3 * j]), (-2.0, pieces[3 * j + 1]), (1.0, pieces[3 * j + 2])])
        for j in range(bid.dimension)
    ]
    out = b.tree_exprs(hats, R) if bid.dimension > 1 else hats[0]
    return b.finish(out)


def basis_network_complexity(d: int, R: int) -> ComplexityReport:
    """Depth/unit/weight counts of one basis-feature network.

    Counts what :func:`build_basis_network` would build without building
    it, walking the tree levels as ``_GraphBuilder.tree_exprs`` does (the
    counts depend only on ``d`` and ``R``).  Every connection count
    follows from the number of units a value references: 3 for a hat,
    2 for a clamped product, ``|u| + |v| + 9R`` for the pair product of
    ``u`` and ``v``.  A pair's first tooth layer reads ``u``, ``v`` and
    their midpoint (3 pieces each), its later ``R - 1`` layers read 3
    units per piece, and its clamp reads the product twice.
    """
    check_accuracy_level(R)
    basis_size(d, 0)  # refuses d < 1
    layers, units, connections = 1, 3 * d, 3 * d
    refs = [3] * d
    while len(refs) > 1:
        pairs = list(zip(refs[0::2], refs[1::2]))
        prods = [u + v + 9 * R for u, v in pairs]
        layers += R
        units += 9 * R * len(pairs)
        connections += sum(6 * (u + v) + 27 * (R - 1) for u, v in pairs)
        if len(refs) > 2:
            layers += 1
            units += 2 * len(prods)
            connections += 2 * sum(prods)
            prods = [2] * len(prods)
        if len(refs) % 2 == 1:
            prods.append(refs[-1])
        refs = prods
    # the output unit reads the root; depth counts it and the input layer
    units += 1
    connections += refs[0]
    return ComplexityReport(depth=layers + 2, units=units, weights=connections + units)
