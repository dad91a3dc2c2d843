r"""Hierarchical hat-function bases on sparse grids.

One-dimensional building block is the standard hat function
``phi(t) = max(0, 1 - |t|)``.  At refinement level ``l`` the grid has
spacing ``h = 2**-l`` and the basis functions are ``phi((x - s*h)/h)``
for admissible nodes ``s``.  Level 0 keeps both endpoint nodes
``s in {0, 1}`` (so constants on the boundary are representable); every
finer level keeps only the odd nodes, which makes the supports within a
level pairwise disjoint and the union over levels a hierarchy.

In ``d`` dimensions the basis functions are tensor products indexed by a
pair of integer vectors ``(level, node)``.  The sparse grid of order
``m`` keeps exactly the indices with ``sum(level) <= m``, which grows
like ``2**m * m**(d-1)`` instead of the full-grid ``(2**m + 1)**d``.
An enumerated basis holds them as two ``(k, d)`` integer arrays; a
single id is a :class:`BasisId`.

Every function with square-integrable mixed second derivatives has a
unique expansion in this basis.  Its coefficients (hierarchical
surpluses) equal a weighted integral of the mixed second derivative,
which bounds them (:meth:`SurplusSet.coefficient_bounds`); they are
computed here from the cheap nodal difference stencil
(:func:`surpluses`), and the tests check that stencil against a Gauss
quadrature of the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import DataError

DEFAULT_ID_CAP = 10_000_000


class BasisSizeError(DataError):
    """Requested enumeration would exceed the id cap, ``DEFAULT_ID_CAP``."""


@dataclass(frozen=True)
class BasisId:
    """Identifier ``(level, node)`` of one tensor-product hat function."""

    level: tuple[int, ...]
    node: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", tuple(int(l) for l in self.level))
        object.__setattr__(self, "node", tuple(int(s) for s in self.node))
        if len(self.level) != len(self.node):
            raise ValueError("level and node must have equal length")
        if len(self.level) == 0:
            raise ValueError("dimension must be >= 1")
        for l, s in zip(self.level, self.node):
            if l < 0:
                raise ValueError(f"negative level {l}")
            if not 0 <= s <= 2 ** l:
                raise ValueError(f"node {s} out of range for level {l}")
            if l >= 1 and s % 2 == 0:
                raise ValueError(f"node {s} must be odd at level {l}")

    @property
    def dimension(self) -> int:
        return len(self.level)


def hat_eval(level: int, node: int, x, out=None):
    """Evaluate the level-``level`` hat centred at ``node * 2**-level``.

    Accepts scalars or numpy arrays.  The formula
    ``max(0, 1 - |x * 2**level - node|)`` is returned for any real ``x``;
    outside the support (and in particular outside ``[0, 1]``) it is 0,
    so boundary-clamped data points are safe.  ``out``, if given, is the
    array every step writes to; it may be ``x`` itself.
    """
    z = np.multiply(np.asarray(x, dtype=float), 2.0 ** level, out=out)
    z = np.subtract(z, node, out=out)
    z = np.abs(z, out=out)
    z = np.subtract(1.0, z, out=out)
    return np.maximum(0.0, z, out=out)


def as_points(x, d: int) -> np.ndarray:
    """``x``, a single point of shape ``(d,)`` or a batch ``(n, d)``, as an ``(n, d)`` float array."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, need {d}")
    return pts


def tensor_hat_eval(bid: BasisId, x) -> np.ndarray:
    """Product of the one-dimensional hat values of ``bid`` at the points ``x`` (:func:`as_points`)."""
    out = _hat_product(bid.level, bid.node, as_points(x, bid.dimension))
    return out if np.ndim(x) == 2 else out[0]


def _hat_product(level, node, pts: np.ndarray) -> np.ndarray:
    """The product of one id's hat values at the ``(n, d)`` points, in coordinate order."""
    out = hat_eval(level[0], node[0], pts[:, 0])
    for j in range(1, len(level)):
        out *= hat_eval(level[j], node[j], pts[:, j])
    return out


def _level_vectors(d: int, total: int) -> list[tuple[int, ...]]:
    """Level vectors of length ``d`` summing to ``total``, lexicographic."""
    if d == 1:
        return [(total,)]
    return [(first, *rest) for first in range(total + 1) for rest in _level_vectors(d - 1, total - first)]


@dataclass(frozen=True, eq=False)
class SparseGridBasis:
    """Enumerated basis ``{(level, node) : sum(level) <= m}``.

    ``levels`` and ``nodes`` are ``(k, d)`` int32 arrays, one row per
    id, ordered lexicographically in ``(sum(level), level, node)``, which
    fixes the coefficient indexing across runs and serialisation.
    ``basis[i]`` is the ``i``-th id as a :class:`BasisId`, so iterating
    the basis yields its ids in that order.
    """

    dimension: int
    levels: np.ndarray
    nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> BasisId:
        return BasisId(tuple(self.levels[i].tolist()), tuple(self.nodes[i].tolist()))


def basis_size(d: int, m: int) -> int:
    """Cardinality of the sparse basis without enumerating it.

    A level carries 2 nodes at 0 and ``2**(l-1)`` above, so the number
    of ids per level sum is the ``d``-fold convolution of those counts;
    the size is its sum up to ``m``.  The power is taken by repeated
    squaring, truncated at degree ``m`` (exact integers,
    ``O(m**2 log d)`` products).
    """
    if d < 1:
        raise DataError(f"dimension must be >= 1, got {d}")
    if m < 0:
        raise DataError(f"max level sum must be >= 0, got {m}")

    def convolve(a: list[int], b: list[int]) -> list[int]:
        return [sum(a[k - l] * b[l] for l in range(k + 1)) for k in range(m + 1)]

    counts, power = [1] + [0] * m, [2] + [2 ** (l - 1) for l in range(1, m + 1)]
    while d:
        if d & 1:
            counts = convolve(counts, power)
        d >>= 1
        if d:
            power = convolve(power, power)
    return sum(counts)


def enumerate_basis(d: int, m: int) -> SparseGridBasis:
    """Enumerate all ids with ``sum(level) <= m`` in dimension ``d``.

    Raises ``BasisSizeError`` before allocating anything if the count
    would exceed ``DEFAULT_ID_CAP`` (10**7).  Each level vector fills one
    block of rows with the tensor grid of its node sets: ``[0, 1]`` at
    level 0 and the odd numbers below ``2**l`` at level ``l >= 1``.
    """
    cap = DEFAULT_ID_CAP
    if m >= 0 and max(d, m) >= cap.bit_length():  # before counting: 2**15000 has too many digits to print
        raise BasisSizeError(f"basis for d={d}, m={m} has at least 2**{d} (its level-0 corners) "
                             f"and over 2**{m} ids, exceeding cap {cap}")
    size = basis_size(d, m)
    if size > cap:
        raise BasisSizeError(f"basis for d={d}, m={m} has {size} ids, exceeding cap {cap}")
    # m <= 23 under the cap, so every level and node fits in int32
    levels = np.empty((size, d), dtype=np.int32)
    nodes = np.empty((size, d), dtype=np.int32)
    sets = [np.arange(2, dtype=np.int32)]
    sets += [np.arange(1, 2 ** l, 2, dtype=np.int32) for l in range(1, m + 1)]
    start = 0
    for k in range(m + 1):
        for lv in _level_vectors(d, k):
            shape = [len(sets[l]) for l in lv]
            stop = start + math.prod(shape)
            levels[start:stop] = lv
            block = nodes[start:stop].reshape(shape + [d])
            for j, l in enumerate(lv):  # coordinate j's nodes along axis j
                block[..., j] = sets[l].reshape([-1 if i == j else 1 for i in range(d)])
            start = stop
    return SparseGridBasis(dimension=d, levels=levels, nodes=nodes)


def cardinality_log_bounds(d: int, m: int) -> tuple[float, float]:
    """Natural logarithms of the two :func:`cardinality_bounds`.

    They are finite for every ``d >= 2`` and ``m >= 0``, including where
    the bounds themselves exceed the float range.
    """
    if d < 2:
        raise ValueError(f"cardinality bounds require d >= 2, got {d}")
    if m < 0:
        raise ValueError(f"max level sum must be >= 0, got {m}")
    ln2 = math.log(2.0)
    lower = (d - 1 + m) * ln2 + math.log1p(2.0 ** -m)
    upper = (
        math.log(2.0 * math.sqrt(2.0 / math.pi))
        + 0.5 * math.log(d - 1.0)
        - math.log(m + d)
        + m * ln2
        + (d - 1) * math.log(4.0 * math.e * (m + d) / (d - 1.0))
    )
    return lower, upper


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def cardinality_bounds(d: int, m: int) -> tuple[float, float]:
    """Closed-form lower and upper bounds on the sparse-basis size.

    Only defined for the multivariate case ``d >= 2``.  The lower bound
    is ``2**(d-1) * (2**m + 1)``; the upper bound is
    ``2*sqrt(2/pi) * sqrt(d-1)/(m+d) * 2**m * (4e(m+d)/(d-1))**(d-1)``.
    Both are decided in log space (:func:`cardinality_log_bounds`): a
    bound beyond the float range is ``inf``.  In range, the lower bound
    keeps its direct formula (at ``m = 0`` it equals the basis size) and
    the upper bound is the exponential of its logarithm.
    """
    log_lower, log_upper = cardinality_log_bounds(d, m)
    lower = math.ldexp(2.0 ** m + 1.0, d - 1) if log_lower < _LOG_FLOAT_MAX else math.inf
    upper = math.exp(log_upper) if log_upper < _LOG_FLOAT_MAX else math.inf
    return lower, upper


def surpluses(f: Callable[[np.ndarray], np.ndarray], levels: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Surplus of ``f`` at every id ``(levels[i], nodes[i])`` from the
    nodal difference stencil: per coordinate ``[-1/2, 1, -1/2]`` at
    ``(x - h, x, x + h)`` for levels >= 1 and plain evaluation at the
    endpoint node for level 0, combined as a tensor product (first
    coordinate slowest).  ``f`` (batched ``(n, d) -> (n,)``) is called
    once on the stencils of all ids, and each id sums in stencil order.
    """
    ids = np.arange(len(levels))
    steps = np.zeros((len(levels), 0), dtype=np.int64)
    for j in range(levels.shape[1]):
        # each stencil point splits into steps -1, 0, 1 (x - h, x, x + h) at a level >= 1
        count = np.where(levels[ids, j] == 0, 1, 3)
        ids, steps = np.repeat(ids, count), np.repeat(steps, count, axis=0)
        step = np.arange(len(ids)) - np.repeat(np.cumsum(count) - count + (count == 3), count)
        steps = np.column_stack([steps, step])
    weights = np.prod(np.where(steps == 0, 1.0, -0.5), axis=1)
    values = np.asarray(f((nodes[ids] + steps) * 2.0 ** -levels[ids]), dtype=float)
    return np.bincount(ids, weights=weights * values, minlength=len(levels))


@dataclass(frozen=True)
class SurplusSet:
    """A basis together with its surplus coefficients; callable as f_m."""

    basis: SparseGridBasis
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.basis):
            raise ValueError("coefficient count does not match basis size")

    def __call__(self, x) -> np.ndarray:
        """The sum over ids with ``gamma != 0``, in id order, of ``gamma * tensor_hat_eval(id, x)``."""
        pts = as_points(x, self.basis.dimension)
        levels, nodes = self.basis.levels, self.basis.nodes
        out = np.zeros(pts.shape[0])
        for i in np.flatnonzero(self.coefficients):
            out += self.coefficients[i] * _hat_product(levels[i], nodes[i], pts)
        return out if np.ndim(x) == 2 else out[0]

    def coefficient_bounds(self, norm_d2f: float) -> np.ndarray:
        """Per-id envelope ``6**(-d/2) * 2**(-1.5*sum(level)) * norm_d2f``.

        Valid for ids whose levels are all >= 1 (interior hats) when
        ``norm_d2f`` bounds the L2 norm of the mixed second derivative.
        """
        d = self.basis.dimension
        sums = self.basis.levels.sum(axis=1)
        return 6.0 ** (-d / 2.0) * 2.0 ** (-1.5 * sums) * norm_d2f


def interpolate(f: Callable[[np.ndarray], np.ndarray], d: int, m: int) -> SurplusSet:
    """Sparse-grid interpolant of ``f`` with level-sum budget ``m``.

    Coefficients come from the nodal stencil, so the result reproduces
    ``f`` exactly at every grid point of the basis.
    """
    basis = enumerate_basis(d, m)
    return SurplusSet(basis=basis, coefficients=surpluses(f, basis.levels, basis.nodes))


def approximation_bound(d: int, m: int, norm_d2f: float) -> float:
    """Closed-form L2 error bound for the truncated expansion f_m.

    For ``d == 2`` the bound is ``1/18 * 2**(-2m) * (m+3) * norm_d2f``;
    for ``d >= 3`` it is
    ``c_tilde * 2**(-2m) * sqrt(d-2) * ((e/3)*(m+d)/(d-2))**(d-1) * norm_d2f``
    with ``c_tilde = 1 / (6 * e * sqrt(2*pi))``.
    """
    if d < 2:
        raise ValueError(f"approximation bound requires d >= 2, got {d}")
    if norm_d2f < 0:
        raise ValueError("norm_d2f must be nonnegative")
    if d == 2:
        grid_term = 1.0 / 18.0 * 2.0 ** (-2 * m) * (m + 3)
    else:
        c_tilde = 0.5 / (3.0 * math.sqrt(2.0 * math.pi) * math.e)
        growth = (math.e / 3.0 * (m + d) / (d - 2.0)) ** (d - 1)
        grid_term = c_tilde * 2.0 ** (-2 * m) * math.sqrt(d - 2.0) * growth
    return grid_term * norm_d2f
