import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QuadratureError,
    SmoothFunction,
    hierarchical_coefficient,
    index_set,
    random_product_function,
    surplus_oracle,
)
from sdrn import DataError
from sdrn import sparse_grid as sg


def test_index_set_levels():
    assert index_set(0) == [0, 1]
    assert index_set(1) == [1]
    assert index_set(2) == [1, 3]
    assert index_set(3) == [1, 3, 5, 7]
    with pytest.raises(ValueError):
        index_set(-1)


def test_basis_id_validation():
    sg.BasisId((0, 2), (1, 3))
    with pytest.raises(ValueError):
        sg.BasisId((1,), (2,))  # even node at level 1
    with pytest.raises(ValueError):
        sg.BasisId((2,), (5,))  # node > 2**level
    with pytest.raises(ValueError):
        sg.BasisId((0, 1), (0,))  # length mismatch
    with pytest.raises(ValueError):
        sg.BasisId((), ())


def test_enumerate_basis_counts():
    assert len(sg.enumerate_basis(2, 2)) == 17
    assert len(sg.enumerate_basis(5, 3)) == 1032
    basis = sg.enumerate_basis(3, 0)
    assert len(basis) == 8
    assert all(bid.level == (0, 0, 0) for bid in basis)
    count = sum(1 for _ in itertools.product([0, 1], repeat=3))
    assert len(basis) == count


def test_enumerate_basis_matches_size_helper():
    for d in (1, 2, 3, 4):
        for m in range(4):
            assert len(sg.enumerate_basis(d, m)) == sg.basis_size(d, m)


def test_basis_size_at_high_dimension():
    # sizes far beyond any enumerable basis, as exact integers
    assert sg.basis_size(15, 10) == 64737532320
    assert sg.basis_size(40, 30) == 98537441928628180503082655367168


def _brute_force_basis(d, m):
    levels, nodes = [], []
    for k in range(m + 1):
        for lv in itertools.product(range(k + 1), repeat=d):
            if sum(lv) == k:
                for node in itertools.product(*(index_set(l) for l in lv)):
                    levels.append(lv)
                    nodes.append(node)
    return levels, nodes


def test_enumerate_basis_arrays_match_brute_force(monkeypatch):
    # every (d, m) with d <= 5 and m <= 4, and the (d, m) of Models 2-4
    cases = list(itertools.product(range(1, 6), range(5))) + [(7, 3), (10, 2)]
    for d, m in cases:
        basis = sg.enumerate_basis(d, m)
        levels, nodes = _brute_force_basis(d, m)
        for array, expected in ((basis.levels, levels), (basis.nodes, nodes)):
            assert array.dtype == np.int32
            assert array.shape == (sg.basis_size(d, m), d)
            assert array.tolist() == [list(row) for row in expected]
        for i in range(len(basis)):
            assert basis[i] == sg.BasisId(levels[i], nodes[i])
            assert all(type(v) is int for v in basis[i].level + basis[i].node)
    # enumerating builds no BasisId; indexing builds one
    made = []
    post_init = sg.BasisId.__post_init__

    def counting_post_init(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(sg.BasisId, "__post_init__", counting_post_init)
    basis = sg.enumerate_basis(5, 4)
    assert made == []
    assert basis[-1] == made[0]


def test_basis_size_owns_the_dimension_and_budget_limits():
    with pytest.raises(DataError, match="dimension must be >= 1, got 0"):
        sg.basis_size(0, 1)
    for call in (sg.basis_size, sg.enumerate_basis):
        with pytest.raises(DataError, match="max level sum must be >= 0, got -1"):
            call(2, -1)


def test_enumerate_basis_int32_holds_every_enumerable_id(monkeypatch):
    # d = 1 at m = 20: the 2**20 + 1 ids end at the last odd node of level 20
    basis = sg.enumerate_basis(1, 20)
    assert len(basis) == 2 ** 20 + 1 and basis.nodes.dtype == np.int32
    assert basis.levels[-1, 0] == 20 and basis.nodes[-1, 0] == 2 ** 20 - 1
    # the cap admits m <= 23 (levels and nodes below 2**23), and refuses
    # m = 24 before allocating anything
    assert sg.basis_size(1, 23) <= sg.DEFAULT_ID_CAP < 2 ** 24

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(sg.np, "empty", no_allocation)
    with pytest.raises(sg.BasisSizeError):
        sg.enumerate_basis(1, 24)


def test_enumerate_basis_order_is_lexicographic():
    for d, m in ((2, 2), (7, 3), (10, 2)):
        basis = sg.enumerate_basis(d, m)
        ids = zip(map(tuple, basis.levels.tolist()), map(tuple, basis.nodes.tolist()))
        keys = [(sum(level), level, node) for level, node in ids]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(basis)


def test_enumerate_basis_rejections(monkeypatch):
    with pytest.raises(ValueError):
        sg.enumerate_basis(0, 1)
    monkeypatch.setattr(sg, "DEFAULT_ID_CAP", 100)
    with pytest.raises(sg.BasisSizeError):
        sg.enumerate_basis(4, 3)
    # refused from the lower bound 2**m, without the O(d m**2) exact count
    monkeypatch.setattr(sg, "DEFAULT_ID_CAP", 1000)
    with pytest.raises(sg.BasisSizeError, match="over 2\\*\\*10"):
        sg.enumerate_basis(2, 10)
    monkeypatch.undo()
    with pytest.raises(sg.BasisSizeError):
        sg.enumerate_basis(5, 10 ** 6)


def test_cardinality_bounds():
    lower, upper = sg.cardinality_bounds(2, 2)
    assert lower == 10.0
    assert lower <= 17 <= upper
    lower, upper = sg.cardinality_bounds(8, 4)
    assert lower <= 59744 <= upper
    with pytest.raises(ValueError):
        sg.cardinality_bounds(1, 2)


def test_cardinality_log_bounds():
    for d in range(2, 9):
        for m in range(0, 7):
            logs = sg.cardinality_log_bounds(d, m)
            for bound, log in zip(sg.cardinality_bounds(d, m), logs):
                assert abs(math.log(bound) - log) <= 1e-14 * abs(log)
    # beyond the float range the bounds are inf and their logarithms finite
    assert sg.cardinality_bounds(2000, 0) == (math.inf, math.inf)
    log_lower, log_upper = sg.cardinality_log_bounds(2000, 0)
    assert log_lower == pytest.approx(2000 * math.log(2.0), rel=1e-15)
    assert log_lower < math.log(2.0) * 2000 + 1e-9 < log_upper


def test_cardinality_lower_bound_is_tight_at_m0():
    # at m = 0 the lower-bound formula equals the enumerated count 2**d
    for d in range(2, 7):
        lower, _ = sg.cardinality_bounds(d, 0)
        assert lower == len(sg.enumerate_basis(d, 0)) == 2 ** d


def test_sandwich_for_positive_m():
    for d in range(2, 9):
        for m in range(1, 5):
            lower, upper = sg.cardinality_bounds(d, m)
            count = sg.basis_size(d, m)
            assert lower <= count <= upper


def test_hat_eval_examples():
    assert sg.hat_eval(0, 0, 0.25) == 0.75
    assert sg.hat_eval(2, 1, 0.25) == 1.0
    assert sg.hat_eval(2, 1, 0.30) == pytest.approx(0.8, abs=1e-15)
    # outside the unit interval the formula value is simply zero off support
    assert sg.hat_eval(1, 1, -0.3) == 0.0
    assert sg.hat_eval(1, 1, 1.7) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=8),
    pick=st.integers(min_value=0, max_value=10 ** 6),
    x=st.floats(min_value=0.0, max_value=1.0),
)
def test_hat_eval_range_property(level, pick, x):
    nodes = index_set(level)
    node = nodes[pick % len(nodes)]
    value = sg.hat_eval(level, node, x)
    assert 0.0 <= value <= 1.0


def test_tensor_hat_eval_examples():
    bid = sg.BasisId((1, 1), (1, 1))
    assert sg.tensor_hat_eval(bid, np.array([0.5, 0.5])) == 1.0
    assert sg.tensor_hat_eval(bid, np.array([0.25, 0.5])) == 0.5
    corner = sg.BasisId((0, 0), (0, 0))
    assert sg.tensor_hat_eval(corner, np.array([0.25, 0.25])) == 0.5625
    with pytest.raises(ValueError):
        sg.tensor_hat_eval(bid, np.array([0.5, 0.5, 0.5]))


def test_same_level_supports_are_disjoint():
    # within one level >= 1 the hats never overlap: products vanish on a grid
    xs = np.linspace(0.0, 1.0, 513)
    for level in (1, 2, 3, 4):
        nodes = index_set(level)
        for a, b in itertools.combinations(nodes, 2):
            prod = sg.hat_eval(level, a, xs) * sg.hat_eval(level, b, xs)
            assert np.all(prod == 0.0)


def _poly_1d():
    value = lambda X: X[:, 0] * (1.0 - X[:, 0])
    return SmoothFunction(
        dimension=1,
        value=value,
        mixed_second=lambda X, dims: np.full(X.shape[0], -2.0),
    )


def test_hierarchical_coefficient_examples():
    func = _poly_1d()
    got = hierarchical_coefficient(func, sg.BasisId((1,), (1,)))
    assert got == pytest.approx(0.25, abs=1e-12)

    def value2(X):
        return X[:, 0] * (1 - X[:, 0]) * X[:, 1] * (1 - X[:, 1])

    def mixed2(X, dims):
        out = np.ones(X.shape[0])
        for j in range(2):
            out *= -2.0 if j in dims else X[:, j] * (1 - X[:, j])
        return out

    func2 = SmoothFunction(dimension=2, value=value2, mixed_second=mixed2)
    got = hierarchical_coefficient(func2, sg.BasisId((1, 1), (1, 1)))
    assert got == pytest.approx(0.0625, abs=1e-12)

    linear = SmoothFunction(
        dimension=2,
        value=lambda X: 1.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1],
        mixed_second=lambda X, dims: np.zeros(X.shape[0]),
    )
    for bid in (sg.BasisId((1, 2), (1, 3)), sg.BasisId((3, 1), (5, 1))):
        assert hierarchical_coefficient(linear, bid) == 0.0


def test_hierarchical_coefficient_convergence_check():
    wiggly = SmoothFunction(
        dimension=1,
        value=lambda X: np.sin(40.0 * X[:, 0]),
        mixed_second=lambda X, dims: -1600.0 * np.sin(40.0 * X[:, 0]),
    )
    with pytest.raises(QuadratureError):
        hierarchical_coefficient(
            wiggly, sg.BasisId((1,), (1,)), order=2, convergence_tol=1e-12
        )
    # high order passes the same check
    hierarchical_coefficient(
        wiggly, sg.BasisId((1,), (1,)), order=20, convergence_tol=1e-9
    )
    with pytest.raises(ValueError):
        hierarchical_coefficient(wiggly, sg.BasisId((1,), (1,)), order=1)


def test_surplus_oracle_examples():
    examples = (
        (lambda X: X[:, 0] * (1 - X[:, 0]), sg.BasisId((1,), (1,)), 0.25),
        (lambda X: X[:, 0], sg.BasisId((0,), (1,)), 1.0),
        (
            lambda X: X[:, 0] * (1 - X[:, 0]) * X[:, 1] * (1 - X[:, 1]),
            sg.BasisId((1, 1), (1, 1)),
            0.0625,
        ),
    )
    for f, bid, expected in examples:
        assert surplus_oracle(f, bid) == expected
        assert sg.surpluses(f, np.array([bid.level]), np.array([bid.node])).tolist() == [expected]


def test_surpluses_match_per_id_stencil():
    # the array stencil against the per-id loop: the same exact terms, which
    # the loop's BLAS dot product sums in another order from 27 terms
    # (d = 3) on, so only d <= 2 is bitwise
    gen = np.random.default_rng(11)
    for d, m in ((1, 6), (2, 6), (3, 4), (5, 3), (7, 2)):
        basis = sg.enumerate_basis(d, m)
        func = random_product_function(gen, d)
        got = sg.surpluses(func.value, basis.levels, basis.nodes)
        want = np.array([surplus_oracle(func.value, bid) for bid in basis])
        if d <= 2:
            assert got.tolist() == want.tolist()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _random_id(gen, d, max_sum=5):
    levels = [0] * d
    for _ in range(int(gen.integers(0, max_sum + 1))):
        levels[int(gen.integers(0, d))] += 1
    nodes = [index_set(l)[int(gen.integers(0, len(index_set(l))))] for l in levels]
    return sg.BasisId(tuple(levels), tuple(nodes))


def test_coefficient_matches_oracle_on_random_ids():
    # derivative-integral route vs nodal stencil on 1000 random (f, id) draws
    gen = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        d = int(gen.integers(1, 4))
        func = random_product_function(gen, d)
        smooth = func.smooth()
        bids = [_random_id(gen, d) for _ in range(25)]
        stencil = sg.surpluses(
            func.value, np.array([b.level for b in bids]), np.array([b.node for b in bids])
        )
        for bid, b in zip(bids, stencil):
            a = hierarchical_coefficient(smooth, bid, order=8)
            assert abs(a - b) <= 1e-8, (bid, a, b)
            checked += 1


def test_coefficient_envelope_on_boundary_vanishing_family():
    # |surplus| <= 6**(-d/2) * 2**(-1.5 |level|) * ||mixed second||_L2
    gen = np.random.default_rng(99)
    for d, m in ((2, 4), (3, 3)):
        basis = sg.enumerate_basis(d, m)
        for _ in range(3):
            func = random_product_function(gen, d, boundary_vanishing=True)
            norm = func.l2_norm_d2f()
            coeffs = sg.surpluses(func.value, basis.levels, basis.nodes)
            surplus = sg.SurplusSet(basis=basis, coefficients=coeffs)
            bounds = surplus.coefficient_bounds(norm)
            assert np.all(np.abs(coeffs) <= bounds + 1e-12)


def test_surplus_set_sums_ids_in_order():
    # the per-id sum of tensor_hat_eval terms, in id order, is the
    # reference: bounds.csv keeps its bytes only while they agree bitwise
    gen = np.random.default_rng(17)
    for d, m in ((1, 4), (2, 4), (3, 3)):
        basis = sg.enumerate_basis(d, m)
        coeffs = gen.standard_normal(len(basis)) * (gen.random(len(basis)) < 0.7)
        pts = gen.uniform(-0.1, 1.1, (500, d))
        expected = np.zeros(len(pts))
        for gamma, bid in zip(coeffs, basis):
            if gamma != 0.0:
                expected += gamma * sg.tensor_hat_eval(bid, pts)
        surplus = sg.SurplusSet(basis=basis, coefficients=coeffs)
        assert surplus(pts).tobytes() == expected.tobytes()
        assert surplus(pts[0]) == expected[0]
        with pytest.raises(ValueError):
            surplus(np.zeros((2, d + 1)))


def test_interpolation_reproduces_grid_values():
    fm = sg.interpolate(lambda X: X[:, 0] * X[:, 1], 2, 2)
    assert fm(np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-15)
    gen = np.random.default_rng(5)
    coef = gen.uniform(-1, 1, 4)
    multilinear = lambda X: coef[0] + X @ coef[1:]
    for m in (0, 1, 3):
        fm = sg.interpolate(multilinear, 3, m)
        for bid in fm.basis:
            point = np.array(bid.node) * 2.0 ** -np.array(bid.level)
            assert abs(fm(point) - multilinear(point[None, :])[0]) <= 1e-12


def test_interpolation_error_below_closed_form_bound():
    def bump(X):
        return 16.0 * X[:, 0] * (1 - X[:, 0]) * X[:, 1] * (1 - X[:, 1])

    gen = np.random.default_rng(8)
    pts = gen.random((20000, 2))
    truth = bump(pts)
    fm = sg.interpolate(bump, 2, 3)
    err = float(np.sqrt(np.mean((fm(pts) - truth) ** 2)))
    assert err <= sg.approximation_bound(2, 3, 64.0)


def test_approximation_bound_values():
    assert sg.approximation_bound(2, 0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert sg.approximation_bound(3, 2, 0.0) == 0.0
    # frozen from an independent high-precision evaluation of the closed form
    assert sg.approximation_bound(3, 2, 1.0) == pytest.approx(0.031378401372084136, rel=1e-12)
    with pytest.raises(ValueError):
        sg.approximation_bound(1, 2, 1.0)
    with pytest.raises(ValueError):
        sg.approximation_bound(3, 2, -1.0)
