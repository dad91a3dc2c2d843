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
unique expansion in this basis; the coefficients (hierarchical
surpluses) can be obtained either from a weighted integral of the mixed
second derivative or from a cheap nodal difference stencil.  Both
routes are implemented here, the second serving as an independent
oracle for the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_ID_CAP = 10_000_000


class BasisSizeError(ValueError):
    """Requested enumeration would exceed the configured id cap."""


class QuadratureError(RuntimeError):
    """Successive quadrature orders disagree beyond the tolerance."""


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

    @property
    def level_sum(self) -> int:
        return sum(self.level)

    def grid_point(self) -> np.ndarray:
        """Coordinates ``node * 2**-level`` of the associated grid point."""
        return np.array([s * 2.0 ** -l for l, s in zip(self.level, self.node)])


def hat_eval(level: int, node: int, x):
    """Evaluate the level-``level`` hat centred at ``node * 2**-level``.

    Accepts scalars or numpy arrays.  The formula
    ``max(0, 1 - |x * 2**level - node|)`` is returned for any real ``x``;
    outside the support (and in particular outside ``[0, 1]``) it is 0,
    so boundary-clamped data points are safe.
    """
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float) * 2.0 ** level - node))


def tensor_hat_eval(bid: BasisId, x) -> np.ndarray:
    """Product of the one-dimensional hat values of ``bid`` at ``x``.

    ``x`` may be a single point of shape ``(d,)`` or a batch ``(n, d)``.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != bid.dimension:
        raise ValueError(f"point dimension {pts.shape[1]} != basis dimension {bid.dimension}")
    out = np.ones(pts.shape[0])
    for j, (l, s) in enumerate(zip(bid.level, bid.node)):
        out *= hat_eval(l, s, pts[:, j])
    return out if np.ndim(x) == 2 else out[0]


def _level_vectors(d: int, total: int) -> Iterator[tuple[int, ...]]:
    """Level vectors of length ``d`` summing to ``total``, lexicographic."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _level_vectors(d - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class SparseGridBasis:
    """Enumerated basis ``{(level, node) : sum(level) <= max_level_sum}``.

    ``levels`` and ``nodes`` are ``(k, d)`` int64 arrays, one row per
    id, ordered lexicographically in ``(sum(level), level, node)``, which
    fixes the coefficient indexing across runs and serialisation.
    ``basis[i]`` is the ``i``-th id as a :class:`BasisId`, so iterating
    the basis yields its ids in that order.
    """

    dimension: int
    max_level_sum: int
    levels: np.ndarray
    nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> BasisId:
        return BasisId(tuple(self.levels[i]), tuple(self.nodes[i]))


def basis_size(d: int, m: int) -> int:
    """Cardinality of the sparse basis without enumerating it.

    A level carries 2 nodes at 0 and ``2**(l-1)`` above, so the number
    of ids per level sum is the ``d``-fold convolution of those counts;
    the size is its sum up to ``m`` (exact integers, ``O(d m**2)``).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if m < 0:
        raise ValueError(f"max level sum must be >= 0, got {m}")
    per_level = [2] + [2 ** (l - 1) for l in range(1, m + 1)]
    counts = [1] + [0] * m
    for _ in range(d):
        counts = [sum(counts[k - l] * per_level[l] for l in range(k + 1)) for k in range(m + 1)]
    return sum(counts)


def enumerate_basis(d: int, m: int, id_cap: int = DEFAULT_ID_CAP) -> SparseGridBasis:
    """Enumerate all ids with ``sum(level) <= m`` in dimension ``d``.

    Raises ``BasisSizeError`` before allocating anything if the count
    would exceed ``id_cap`` (default 10**7).  Each level vector fills one
    block of rows with the tensor grid of its index sets.
    """
    size = basis_size(d, m)
    if size > id_cap:
        raise BasisSizeError(f"basis for d={d}, m={m} has {size} ids, exceeding cap {id_cap}")
    levels = np.empty((size, d), dtype=np.int64)
    nodes = np.empty((size, d), dtype=np.int64)
    start = 0
    for k in range(m + 1):
        for lv in _level_vectors(d, k):
            sets = [index_set(l) for l in lv]
            shape = [len(s) for s in sets]
            stop = start + math.prod(shape)
            levels[start:stop] = lv
            block = nodes[start:stop].reshape(shape + [d])
            for j, grid in enumerate(np.ix_(*sets)):
                block[..., j] = grid
            start = stop
    return SparseGridBasis(dimension=d, max_level_sum=m, levels=levels, nodes=nodes)


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


def _coefficient_integral(func: SmoothFunction, bid: BasisId, order: int) -> float:
    active = [j for j, l in enumerate(bid.level) if l >= 1]
    if not active:
        point = bid.grid_point()[None, :]
        return float(func.value(point)[0])
    axes = [_cell_quadrature(bid.level[j], bid.node[j], order) for j in active]
    grids = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    weights = np.meshgrid(*(w for _, w in axes), indexing="ij")
    pts = np.empty((grids[0].size, bid.dimension))
    pts[:, :] = bid.grid_point()[None, :]
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


def surplus_oracle(f: Callable[[np.ndarray], np.ndarray], bid: BasisId) -> float:
    """Surplus of ``f`` at ``bid`` from the nodal difference stencil.

    Per coordinate the stencil is ``[-1/2, 1, -1/2]`` at
    ``(x - h, x, x + h)`` for levels >= 1 and plain evaluation at the
    endpoint node for level 0; coordinates combine as a tensor product.
    Needs only point evaluations of ``f`` (batched ``(n, d) -> (n,)``).
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


@dataclass(frozen=True)
class SurplusSet:
    """A basis together with its surplus coefficients; callable as f_m."""

    basis: SparseGridBasis
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.basis):
            raise ValueError("coefficient count does not match basis size")

    def __call__(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(pts.shape[0])
        for gamma, bid in zip(self.coefficients, self.basis):
            if gamma != 0.0:
                out += gamma * tensor_hat_eval(bid, pts)
        return out if np.ndim(x) == 2 else out[0]

    def coefficient_bounds(self, norm_d2f: float) -> np.ndarray:
        """Per-id envelope ``6**(-d/2) * 2**(-1.5*sum(level)) * norm_d2f``.

        Valid for ids whose levels are all >= 1 (interior hats) when
        ``norm_d2f`` bounds the L2 norm of the mixed second derivative.
        """
        d = self.basis.dimension
        sums = self.basis.levels.sum(axis=1)
        return 6.0 ** (-d / 2.0) * 2.0 ** (-1.5 * sums) * norm_d2f


def interpolate(
    f: Callable[[np.ndarray], np.ndarray],
    d: int,
    m: int,
    id_cap: int = DEFAULT_ID_CAP,
) -> SurplusSet:
    """Sparse-grid interpolant of ``f`` with level-sum budget ``m``.

    Coefficients come from the nodal stencil, so the result reproduces
    ``f`` exactly at every grid point of the basis.
    """
    basis = enumerate_basis(d, m, id_cap=id_cap)
    coeffs = np.array([surplus_oracle(f, bid) for bid in basis])
    return SurplusSet(basis=basis, coefficients=coeffs)


def approximation_bound(
    d: int,
    m: int,
    norm_d2f: float,
    c_mu: float = 1.0,
    R: int | None = None,
) -> float:
    """Closed-form L2 error bound for the truncated expansion f_m.

    For ``d == 2`` the bound is ``c_mu/18 * 2**(-2m) * (m+3) * norm_d2f``;
    for ``d >= 3`` it is
    ``c_tilde * 2**(-2m) * sqrt(d-2) * ((e/3)*(m+d)/(d-2))**(d-1) * norm_d2f``
    with ``c_tilde = c_mu / (6 * e * sqrt(2*pi))``.

    When ``R`` is given, the additional ReLU product-approximation term
    ``sqrt(3/8) * 2**(-2R) * (d-1) * sqrt(2/3)**(d-1) * norm_d2f`` is
    added, bounding the full network approximator instead of f_m.
    """
    if d < 2:
        raise ValueError(f"approximation bound requires d >= 2, got {d}")
    if norm_d2f < 0:
        raise ValueError("norm_d2f must be nonnegative")
    if c_mu <= 0:
        raise ValueError("c_mu must be positive")
    if d == 2:
        grid_term = c_mu / 18.0 * 2.0 ** (-2 * m) * (m + 3)
    else:
        c_tilde = 0.5 * c_mu / (3.0 * math.sqrt(2.0 * math.pi) * math.e)
        grid_term = (
            c_tilde
            * 2.0 ** (-2 * m)
            * math.sqrt(d - 2.0)
            * (math.e / 3.0 * (m + d) / (d - 2.0)) ** (d - 1)
        )
    bound = grid_term * norm_d2f
    if R is not None:
        relu_term = math.sqrt(3.0 / 8.0) * 2.0 ** (-2 * R) * (d - 1) * math.sqrt(2.0 / 3.0) ** (d - 1)
        bound += relu_term * norm_d2f
    return bound
