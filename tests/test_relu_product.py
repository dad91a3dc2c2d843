import math
import tracemalloc

import numpy as np
import pytest

from conftest import build_pair_network, build_square_network, capped_square_approx, stacked_triple_plan
from sdrn import DataError
from sdrn import relu_product as rp
from sdrn.sparse_grid import BasisId, enumerate_basis, hat_eval, tensor_hat_eval


def test_tooth_values():
    assert rp.tooth(0.25) == 0.5
    assert rp.tooth(0.5) == 1.0
    assert rp.tooth(0.75) == 0.5
    xs = np.linspace(0, 1, 101)
    piecewise = np.where(xs < 0.5, 2 * xs, 2 * (1 - xs))
    assert np.max(np.abs(rp.tooth(xs) - piecewise)) <= 1e-15
    # symmetric sawtooth, zero outside the unit interval
    assert rp.tooth(-0.1) == 0.0
    assert rp.tooth(1.1) == 0.0


def test_tooth_iter():
    # the r-fold iterates g_r of the tooth, by composition
    assert rp.tooth(rp.tooth(0.25)) == 1.0
    assert rp.tooth(rp.tooth(0.125)) == 0.5
    assert rp.tooth(rp.tooth(rp.tooth(0.5))) == 0.0


def test_square_approx_examples():
    assert rp.square_approx(1, 0.5) == 0.25
    assert rp.square_approx(1, 0.25) == 0.125
    assert abs(rp.square_approx(1, 0.25) - 0.25 ** 2) == 2.0 ** -4
    assert rp.square_approx(3, 0.0) == 0.0
    assert rp.square_approx(3, 1.0) == 1.0
    with pytest.raises(ValueError):
        rp.square_approx(0, 0.5)
    # k * k stays finite up to R = MAX_R and overflows from R = 512 on
    assert rp.MAX_R == 511
    assert rp.square_approx(rp.MAX_R, 1.0) == 1.0
    with pytest.raises(ValueError):
        rp.square_approx(rp.MAX_R + 1, 0.5)


def test_square_bound_sweep_and_attainment():
    xs = np.linspace(0.0, 1.0, 10_000)
    for R in range(1, 9):
        bound = 2.0 ** (-2 * R - 2)
        err = np.max(np.abs(rp.square_approx(R, xs) - xs ** 2))
        assert err <= bound
        peak = 2.0 ** (-R - 1)
        gap = abs(rp.square_approx(R, peak) - peak ** 2)
        assert abs(gap - bound) <= 1e-12


def _tooth_chain(R, x):
    """Yarotsky's f_R = x - sum_r g_r(x) / 4**r from composed teeth."""
    out = np.array(x, dtype=float)
    g = out
    for r in range(1, R + 1):
        g = rp.tooth(g)
        out = out - g / 4.0 ** r
    return out


def test_square_approx_matches_tooth_chain():
    gen = np.random.default_rng(8)
    xs = np.concatenate([np.linspace(0.0, 1.0, 10_001), gen.random(20_000)])
    for R in range(1, 21):
        assert np.max(np.abs(rp.square_approx(R, xs) - _tooth_chain(R, xs))) <= 1e-15
        # exact at every grid point k 2**-R, the endpoints included
        grid = np.arange(2 ** R + 1) * 2.0 ** -R
        assert np.array_equal(rp.square_approx(R, grid), grid ** 2)


def test_square_approx_is_the_capped_closed_form_at_every_r():
    # x 2**R is exact, so floor(x 2**R) is at most 2**R - 1 below x = 1, and
    # at x = 1 the uncapped index 2**R gives 1 as the capped one does
    gen = np.random.default_rng(20)
    for R in range(1, rp.MAX_R + 1):
        xs = np.concatenate([[0.0, 1.0, 1.0 - 2.0 ** -R], gen.random(64)])
        assert rp.square_approx(R, xs).tobytes() == capped_square_approx(R, xs).tobytes()


def test_square_approx_into_buffers():
    # given out and work, every step writes to them, and out may be x itself;
    # the bits are the plain call's, exact at 0, 1 and grid points up to MAX_R
    gen = np.random.default_rng(9)
    for R in (1, 6, 12, rp.MAX_R):
        grid = np.array([0.0, 1.0, 2.0 ** -R, 0.5, 1.0 - 2.0 ** -R])
        xs = np.concatenate([grid, gen.random(100)])
        out, k, odd = np.full((3, len(xs)), np.nan)
        assert rp.square_approx(R, xs, out, (k, odd)) is out
        assert out.tobytes() == rp.square_approx(R, xs).tobytes()
        assert np.array_equal(out[: len(grid)], grid ** 2)
        inplace = xs.copy()
        assert rp.square_approx(R, inplace, inplace, (k, odd)) is inplace
        assert inplace.tobytes() == out.tobytes()


def test_pair_product_examples():
    assert rp.pair_product(1, 0.5, 0.5) == 0.25
    # one zero factor leaves only the sawtooth remainder, below half the bound
    val = rp.pair_product(4, 0.0, 0.7)
    assert abs(val) <= 2.0 ** -9
    # clamping makes out-of-range inputs behave like their projections
    assert rp.pair_product(3, -0.5, 0.7) == rp.pair_product(3, 0.0, 0.7)
    assert rp.pair_product(3, 1.5, 0.7) == rp.pair_product(3, 1.0, 0.7)


def test_pair_bound_grid():
    g = np.linspace(0.0, 1.0, 201)
    GX, GY = np.meshgrid(g, g)
    for R in range(1, 7):
        err = np.max(np.abs(rp.pair_product(R, GX, GY) - GX * GY))
        assert err <= 3.0 * 2.0 ** (-2 * R - 2)
        # the inputs broadcast as numpy's do
        assert rp.pair_product(R, g, g[:, None]).tobytes() == rp.pair_product(R, GX, GY).tobytes()
    # R=1: the bound is not vacuous
    err1 = np.max(np.abs(rp.pair_product(1, GX, GY) - GX * GY))
    assert err1 <= 3.0 / 16.0
    assert err1 > 1.0 / 32.0


def test_pair_product_symmetry_exact():
    gen = np.random.default_rng(1)
    xs, ys = gen.random(500), gen.random(500)
    for R in (1, 3, 5):
        a = rp.pair_product(R, xs, ys)
        b = rp.pair_product(R, ys, xs)
        assert np.all(a == b)


def _tree_of(R, values):
    """The product tree over ``values`` in [0, 1], through level-0 hats:
    hat_{0,0}(1 - v) = v."""
    q = len(values)
    bid = BasisId((0,) * q, (0,) * q)
    return rp.approx_basis_eval(R, bid, 1.0 - np.asarray(values, dtype=float))


def test_tree_product():
    assert _tree_of(3, [0.75]) == 0.75
    val = _tree_of(3, [0.5] * 4)
    assert abs(val - 0.0625) <= 9.0 * 2.0 ** -8
    gen = np.random.default_rng(2)
    for q in (2, 3, 5, 7):
        vals = gen.random(q)
        vals[int(gen.integers(0, q))] = 0.0
        approx = _tree_of(5, vals)
        assert abs(approx) <= 3.0 * 2.0 ** -12 * (q - 1)
    # an id needs at least one factor
    with pytest.raises(ValueError):
        BasisId((), ())


def test_approx_basis_eval():
    bid1 = BasisId((2,), (3,))
    xs = np.random.default_rng(3).random((100, 1))
    assert np.all(rp.approx_basis_eval(4, bid1, xs) == tensor_hat_eval(bid1, xs))

    gen = np.random.default_rng(4)
    basis = enumerate_basis(4, 3)
    ids = [basis[int(gen.integers(0, len(basis)))] for _ in range(50)]
    bound = 3.0 * 2.0 ** -10 * 3
    for bid in ids:
        pts = gen.random((20, 4))
        dev = np.abs(rp.approx_basis_eval(4, bid, pts) - tensor_hat_eval(bid, pts))
        assert np.max(dev) <= bound

    # off-support points still obey the deviation bound
    bid = BasisId((3, 3), (1, 1))
    far = np.array([[0.9, 0.9]])
    assert tensor_hat_eval(bid, far) == 0.0
    assert abs(rp.approx_basis_eval(2, bid, far)[0]) <= 3.0 * 2.0 ** -6
    with pytest.raises(ValueError):
        rp.approx_basis_eval(2, bid, np.zeros((5, 3)))


def _random_pairs(gen, d, m, count):
    basis = enumerate_basis(d, m)
    pick = gen.integers(0, len(basis), count)
    return basis.levels[pick], basis.nodes[pick], gen.random((count, d))


def test_product_plan_shape():
    for d in range(1, 9):
        basis = enumerate_basis(d, 2)
        plan = rp.product_plan(basis.levels, basis.nodes)
        # distinct ids have distinct trees: one last-level row per id
        assert np.array_equal(np.sort(plan.top), np.arange(len(basis)))
        assert len(plan.pairs) == math.ceil(math.log2(d))
        if d > 1:
            # the root is the last level, and it forwards nothing
            assert len(plan.pairs[-1][2]) == 0


@pytest.mark.parametrize("d, m", [(1, 3), (2, 4), (5, 4), (7, 3), (8, 2), (10, 2)])
def test_product_plan_matches_the_stacked_triple_plan(d, m):
    basis = enumerate_basis(d, m)
    plan = rp.product_plan(basis.levels, basis.nodes)
    reference = stacked_triple_plan(basis.levels, basis.nodes)
    arrays = [(plan.leaves, reference.leaves), (plan.top, reference.top)]
    assert len(plan.pairs) == len(reference.pairs)
    for level, expected in zip(plan.pairs, reference.pairs):
        arrays += zip(level, expected)  # left, right, forwarded
    for array, expected in arrays:
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert np.array_equal(array, expected)
    assert plan.rows == reference.rows and plan.widest == reference.widest


def test_product_plan_of_the_d10_m3_basis():
    # Model 3's basis at c = 1 (109,824 ids): its 90 hats are every
    # (coordinate, level, node) with level <= 3, in that lexicographic order
    basis = enumerate_basis(10, 3)
    plan = rp.product_plan(basis.levels, basis.nodes)
    hats = [(j, l, s) for j in range(10) for l in range(4)
            for s in ([0, 1] if l == 0 else range(1, 2 ** l, 2))]
    assert plan.leaves.tolist() == [list(hat) for hat in hats]
    assert np.array_equal(np.sort(plan.top), np.arange(len(basis)))
    assert len(plan.pairs[-1][0]) == len(basis)  # one root pair per id
    X = np.random.default_rng(17).random((3, 10))
    exact = np.prod(hat_eval(basis.levels[None], basis.nodes[None], X[:, None, :]), axis=2)
    deviation = rp.product_features(6, plan, X) - exact
    assert np.max(np.abs(deviation)) <= 3.0 * 2.0 ** -14 * 9


def test_product_pairs_is_the_feature_diagonal():
    # d = 1 is leaf-only, d = 2 root-only, d = 3 and 5 forward a factor
    gen = np.random.default_rng(15)
    for d in (1, 2, 3, 5, 8):
        levels, nodes, X = _random_pairs(gen, d, 3, 200)
        for R in (1, 6, 12):
            pairs = rp.product_pairs(R, levels, nodes, X)
            diagonal = np.diagonal(rp.product_features(R, rp.product_plan(levels, nodes), X))
            assert pairs.shape == (200,) and pairs.tobytes() == diagonal.tobytes()


def test_product_pairs_matches_basis_network():
    gen = np.random.default_rng(16)
    for d, R in ((2, 3), (3, 4), (5, 2)):
        levels, nodes, X = _random_pairs(gen, d, 3, 5)
        pairs = rp.product_pairs(R, levels, nodes, X)
        for l, s, x, value in zip(levels, nodes, X, pairs):
            assert abs(rp.build_basis_network(R, BasisId(l, s)).eval(x) - value) <= 1e-12


def test_product_scores_match_features_times_coefficients():
    gen = np.random.default_rng(13)
    for d, m in ((1, 3), (2, 3), (3, 2), (5, 2), (8, 1)):
        basis = enumerate_basis(d, m)
        X = gen.random((300, d))
        plan = rp.product_plan(basis.levels, basis.nodes)
        Phi = rp.product_features(5, plan, X)
        for coef in (gen.standard_normal(len(basis)), gen.standard_normal((len(basis), 3))):
            scores = rp.product_scores(5, plan, X, coef)
            assert scores.shape == (300,) + coef.shape[1:]
            tol = 1e-13 * np.sum(np.abs(coef), axis=0)
            assert np.all(np.max(np.abs(scores - Phi @ coef), axis=0) <= tol)
        with pytest.raises(ValueError):
            rp.product_scores(5, plan, X, np.ones(len(basis) + 1))


def test_product_scores_across_row_blocks(monkeypatch):
    # at 1000 cells a level, the widest level (the root, one pair per id)
    # takes 1000 // 50 = 20 rows a block: these counts start, fill and
    # spill over blocks; a row's score does not depend on the block size
    gen = np.random.default_rng(14)
    basis = enumerate_basis(3, 2)
    coef = gen.standard_normal(len(basis))
    X = gen.random((257, 3))
    plan = rp.product_plan(basis.levels, basis.nodes)
    expected = rp.product_features(4, plan, X) @ coef
    whole = rp.product_scores(4, plan, X, coef)
    monkeypatch.setattr(rp, "_BLOCK_CELLS", 1000)
    plan = rp.product_plan(basis.levels, basis.nodes)  # planned at 1000 cells
    step = 1000 // len(basis)
    for n in (0, 1, step - 1, step, step + 1, 3 * step, 257):
        scores = rp.product_scores(4, plan, X[:n], coef)
        assert scores.shape == (n,)
        assert np.max(np.abs(scores - expected[:n]), initial=0.0) <= 1e-13 * np.sum(np.abs(coef))
        assert scores.tobytes() == whole[:n].tobytes()


@pytest.mark.parametrize("cells", [rp._BLOCK_CELLS, 1000])
def test_every_feature_column_is_its_one_hot_score(monkeypatch, cells):
    # product_scores with a one-hot coef gives the feature column bitwise;
    # at 1000 cells a level most of these bases end 257 rows on a partial block
    monkeypatch.setattr(rp, "_BLOCK_CELLS", cells)
    gen = np.random.default_rng(18)
    for d, m in ((1, 5), (2, 3), (3, 2), (5, 2), (8, 1)):
        basis = enumerate_basis(d, m)
        plan = rp.product_plan(basis.levels, basis.nodes)
        for R in (1, 6, 12):
            for n in (0, 1, 257):
                X = gen.random((n, d))
                Phi = rp.product_features(R, plan, X)
                for k in gen.choice(len(basis), 16, replace=False):
                    one_hot = np.zeros(len(basis))
                    one_hot[k] = 1.0
                    scores = rp.product_scores(R, plan, X, one_hot)
                    assert scores.tobytes() == Phi[:, k].tobytes()


def test_product_features_workspace_does_not_grow_with_n():
    # every row block runs in one workspace of six tables of the widest
    # level: a call's peak above its output is the same at 2 blocks and at
    # 40, to within the interpreter's own small objects (a block's start
    # index is a new int object from 257 on)
    basis = enumerate_basis(5, 2)
    plan = rp.product_plan(basis.levels, basis.nodes)
    widest = max(len(plan.leaves), len(plan.top), *(len(l) + len(f) for l, _, f in plan.pairs))
    assert plan.widest == widest
    table = plan.rows * widest * 8
    X = np.random.default_rng(19).random((40 * plan.rows, 5))
    rp.product_features(6, plan, X[:1])  # numpy's first-call caches
    peaks = []
    for blocks in (2, 40):
        tracemalloc.start()
        try:
            out = rp.product_features(6, plan, X[: blocks * plan.rows])
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1024
    assert peaks[1] < 7 * table


def test_square_network_complexity_formula():
    for R in range(1, 21):
        c = build_square_network(R).complexity()
        assert c.depth == R + 2
        assert c.units == 3 * R + 1
        assert c.weights == 15 * R - 4


def test_square_network_matches_recursion():
    assert build_square_network(1).eval(np.array([0.5])) == 0.25
    gen = np.random.default_rng(5)
    for R in (1, 4, 8):
        net = build_square_network(R)
        xs = gen.random(1000)
        diff = np.abs(net.eval(xs[:, None]) - rp.square_approx(R, xs))
        assert np.max(diff) <= 1e-12


def test_pair_network_matches_recursion():
    gen = np.random.default_rng(6)
    for R in (1, 4, 6):
        net = build_pair_network(R)
        pts = gen.random((1000, 2))
        diff = np.abs(net.eval(pts) - rp.pair_product(R, pts[:, 0], pts[:, 1]))
        assert np.max(diff) <= 1e-12


def test_pair_network_complexity_golden():
    # frozen from the implementation: three shared tooth stacks plus output
    for R in (1, 3, 6):
        c = build_pair_network(R).complexity()
        assert (c.depth, c.units, c.weights) == (R + 2, 9 * R + 1, 45 * R - 12)


def test_basis_network_matches_recursion():
    gen = np.random.default_rng(7)
    for d in (2, 3, 5, 8):
        basis = enumerate_basis(d, 2)
        for _ in range(5):
            bid = basis[int(gen.integers(0, len(basis)))]
            net = rp.build_basis_network(4, bid)
            pts = gen.random((200, d))
            diff = np.abs(net.eval(pts) - rp.approx_basis_eval(4, bid, pts))
            assert np.max(diff) <= 1e-12


def test_basis_network_depth_scales_with_r_log_d():
    # depth = R * ceil(log2 d) + (levels + 2): linear in R with slope ceil(log2 d)
    for d in (2, 3, 4, 8):
        levels = math.ceil(math.log2(d))
        depths = {R: rp.basis_network_complexity(d, R).depth for R in (2, 4, 6)}
        assert depths[4] - depths[2] == 2 * levels
        assert depths[6] - depths[4] == 2 * levels
        assert depths[2] == 2 * levels + levels + 2


def test_basis_network_complexity_goldens():
    # frozen counts for representative shapes
    golden = {
        (2, 4): (7, 43, 208),
        (3, 4): (12, 84, 446),
        (5, 4): (17, 166, 920),
        (8, 4): (17, 289, 1632),
    }
    for (d, R), expected in golden.items():
        c = rp.basis_network_complexity(d, R)
        assert (c.depth, c.units, c.weights) == expected


def test_basis_network_complexity_counts_what_the_graph_builds():
    # the counting walk against the built graph, odd and even tree levels alike
    for d in range(1, 34):
        bid = BasisId((0,) * d, (0,) * d)
        for R in range(1, 7):
            assert rp.basis_network_complexity(d, R) == rp.build_basis_network(R, bid).complexity()
    # both refuse the R that square_approx refuses
    for R in (0, rp.MAX_R + 1):
        with pytest.raises(DataError, match=f"^accuracy level R must be in 1..511, got {R}$"):
            rp.basis_network_complexity(2, R)
        with pytest.raises(DataError, match=f"^accuracy level R must be in 1..511, got {R}$"):
            rp.build_basis_network(R, BasisId((0, 0), (0, 0)))


def test_basis_network_complexity_builds_no_graph(monkeypatch):
    # d=100000 at R=511 would be a graph of about 4.6e8 units: 3d hat pieces,
    # 9R per pair of the d-1 pairs, a clamp of 2 below the root, one output
    def refuse(*args):
        raise AssertionError("the count built a graph")

    monkeypatch.setattr(rp, "build_basis_network", refuse)
    monkeypatch.setattr(rp, "ReluGraph", refuse)
    c = rp.basis_network_complexity(100_000, 511)
    assert c.units == 3 * 100_000 + 9 * 511 * 99_999 + 2 * 99_998 + 1
    assert c.depth == 511 * 17 + 17 + 2
    assert c.weights == 2761467795
    with pytest.raises(ValueError):
        rp.basis_network_complexity(2, 0)


def test_basis_network_complexity_is_id_independent():
    basis = enumerate_basis(3, 3)
    complexities = {
        rp.build_basis_network(3, basis[i]).complexity()
        for i in range(0, len(basis), len(basis) // 7)
    }
    assert len(complexities) == 1


def test_square_network_layout():
    net = build_square_network(2)
    assert net.input_arity == 1
    assert net.depth == 4 and net.unit_count == 7 and net.weight_count == 26
    assert len(net.layers) == 3
    assert net.layers[0][0].inputs == [(0, 0, 1.0)]
