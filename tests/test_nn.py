"""Neural core tests: forward/backward against independent oracles, policy
heads, and the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoidispatch import ContractViolation
from aoidispatch.nn import (
    LOGIT_CLAMP,
    Adam,
    DenseNet,
    PolicyHeads,
    _sigmoid,
    finite_difference_gradients,
    orthogonal_init,
)


def manual_forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Duplicate-implementation oracle: explicit loops, no shared code path.
    Reads member 0; tanh on every layer but the last."""
    h = list(x)
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        w, b = w[0], b[0]
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(acc if layer == len(net.weights) - 1 else np.tanh(acc))
        h = out
    return np.array(h)


class TestForward:
    def test_zero_weights_yield_biases(self):
        rng = np.random.default_rng(0)
        net = DenseNet((3, 4), rng)
        net.weights[0][:] = 0.0
        net.biases[0][:] = [1.0, -2.0, 0.5, 3.0]
        out = net.forward(np.array([5.0, -1.0, 2.0]))
        assert np.allclose(out, [1.0, -2.0, 0.5, 3.0])

    def test_identity_linear_layer(self):
        rng = np.random.default_rng(0)
        net = DenseNet((3, 3), rng)
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = 0.0
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(net.forward(x), x)

    def test_matches_independent_forward(self):
        rng = np.random.default_rng(7)
        net = DenseNet((4, 6, 3), rng, out_gain=1.0)
        x = rng.standard_normal(4)
        assert np.allclose(net.forward(x), manual_forward(net, x), atol=1e-12)

    def test_batching_consistency(self):
        rng = np.random.default_rng(8)
        net = DenseNet((5, 8, 2), rng)
        xs = rng.standard_normal((6, 5))
        batched = net.forward(xs)
        rows = np.vstack([net.forward(x) for x in xs])
        assert np.allclose(batched, rows, atol=1e-12)

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        net = DenseNet((3, 2), rng)
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))
        with pytest.raises(ValueError):
            DenseNet((3,), rng)

    def test_members_equal_single_nets_bitwise(self):
        # a 3-member net is three single nets drawn one after another from
        # the same rng, each seeing its own contiguous block of rows
        sizes, members, rows = (5, 8, 6, 4), 3, 7
        stacked = DenseNet(sizes, np.random.default_rng(3), out_gain=0.5, members=members)
        rng = np.random.default_rng(3)
        singles = [DenseNet(sizes, rng, out_gain=0.5) for _ in range(members)]
        data = np.random.default_rng(4)
        x = data.standard_normal((members * rows, sizes[0]))
        g_out = data.standard_normal((members * rows, sizes[-1]))
        out = stacked.forward(x)
        grads = stacked.backward(g_out)
        assert out.shape == (members * rows, sizes[-1])
        for m, net in enumerate(singles):
            block = slice(m * rows, (m + 1) * rows)
            assert all(np.array_equal(a[m], b[0]) for a, b in zip(stacked.params, net.params))
            assert np.array_equal(out[block], net.forward(x[block]))
            single_grads = net.backward(g_out[block])
            assert all(np.array_equal(a[m], b[0]) for a, b in zip(grads, single_grads))
        with pytest.raises(ValueError):
            stacked.forward(x[:-1])  # rows must split evenly over the members


class TestBackward:
    def test_linear_squared_loss_closed_form(self):
        # single linear unit, loss (out - y)^2: dW = 2 (out - y) x, db = 2 (out - y)
        rng = np.random.default_rng(1)
        net = DenseNet((3, 1), rng)
        x = np.array([[1.0, 2.0, -0.5]])
        y = 0.7
        out = float(net.forward(x)[0, 0])
        grads = net.backward(np.array([[2.0 * (out - y)]]))
        assert np.allclose(grads[0], 2.0 * (out - y) * x.T)
        assert np.allclose(grads[1], [2.0 * (out - y)])

    @pytest.mark.parametrize(
        "sizes, members",
        [((2, 3), 1), ((4, 8, 3), 1), ((5, 7, 6, 2), 1), ((4, 6, 3), 3)],
        ids=["sizes0", "sizes1", "sizes2", "members3"],
    )
    def test_matches_finite_differences(self, sizes, members):
        rng = np.random.default_rng(42)
        net = DenseNet(sizes, rng, out_gain=1.0, members=members)
        assert net.n_params <= 200
        x = rng.standard_normal((5 * members, sizes[0]))
        g_out = rng.standard_normal((5 * members, sizes[-1]))

        def loss() -> float:
            return float((net.forward(x) * g_out).sum())

        loss()
        analytic = net.backward(g_out)
        numeric = finite_difference_gradients(loss, net.params, h=1e-5)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            assert (np.abs(a - n) / scale).max() < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        net = DenseNet((3, 4, 2), rng)
        net.forward(np.ones((2, 3)))
        grads = net.backward(np.zeros((2, 2)))
        assert all(np.all(g == 0.0) for g in grads)

    def test_backward_without_forward_is_contract_error(self):
        net = DenseNet((2, 2), np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            net.backward(np.zeros((1, 2)))


class TestPolicyHeads:
    def test_uniform_dispatch_entropy_is_log_k(self):
        heads = PolicyHeads(np.zeros((1, 10)), n_servers=5)
        h_with = heads.entropy([True])[0]
        h_without = heads.entropy([False])[0]
        assert h_with - h_without == pytest.approx(np.log(5), abs=1e-12)

    def test_half_probability_query_log_prob(self):
        heads = PolicyHeads(np.zeros((1, 10)), n_servers=5)
        for bits in ([0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1, 0, 1]):
            lp = heads.log_prob([bits], [-1])[0]
            assert lp == pytest.approx(5 * np.log(0.5), abs=1e-12)

    def test_near_deterministic_head_entropy_vanishes(self):
        logits = np.concatenate([np.full(3, 30.0), np.zeros(3)])[None, :]
        heads = PolicyHeads(logits, n_servers=3)
        h = heads.entropy([False])[0]
        assert 0.0 <= h < 1e-9

    def test_entropy_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-100, 100, size=(50, 8))
        heads = PolicyHeads(logits, n_servers=4)
        assert (heads.entropy([True] * 50) >= 0.0).all()
        assert (heads.entropy([False] * 50) >= 0.0).all()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_categorical_normalization(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-30, 30, size=(8, 12))
        heads = PolicyHeads(logits, n_servers=6)
        assert np.abs(heads.dispatch_probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_dispatch_index_validation(self):
        heads = PolicyHeads(np.zeros((1, 4)), n_servers=2)
        with pytest.raises(ContractViolation):
            heads.log_prob(np.zeros((1, 2), dtype=np.int8), np.array([2]))
        with pytest.raises(ContractViolation):
            heads.log_prob([[0, 0]], [5])

    def test_no_dispatch_excludes_categorical_terms(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((1, 6))
        heads = PolicyHeads(logits, n_servers=3)
        lp_none, ent_none = heads.log_prob([[1, 0, 1]], [-1])[0], heads.entropy([False])[0]
        lp_disp, ent_disp = heads.log_prob([[1, 0, 1]], [0])[0], heads.entropy([True])[0]
        assert lp_disp < lp_none  # categorical log-prob is negative
        assert ent_disp > ent_none

    def test_sampling_respects_arrivals_and_determinism(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((3, 8))
        heads = PolicyHeads(logits, n_servers=4)
        bits1, disp1 = heads.sample(np.random.default_rng(9), [True, False, True])
        bits2, disp2 = heads.sample(np.random.default_rng(9), [True, False, True])
        assert np.array_equal(bits1, bits2) and np.array_equal(disp1, disp2)
        assert disp1[1] == -1 and disp1[0] >= 0 and disp1[2] >= 0

    def test_greedy_picks_modes(self):
        logits = np.array([[5.0, -5.0, 0.0, 3.0]])
        heads = PolicyHeads(logits, n_servers=2)
        bits, disp = heads.greedy_queries(), heads.greedy_dispatch([True])
        assert bits.tolist() == [[1, 0]]
        assert disp.tolist() == [1]
        disp_none = heads.greedy_dispatch([False])
        assert disp_none.tolist() == [-1]

    def test_dispatch_sampling_matches_per_row_draws(self):
        # reference: one inverse-CDF draw per row with an arrival, in row order
        rng = np.random.default_rng(8)
        heads = PolicyHeads(rng.normal(0.0, 3.0, size=(50, 10)), n_servers=5)
        arrivals = rng.random(50) < 0.7
        expected = np.full(50, -1)
        ref_rng = np.random.default_rng(9)
        for i in np.flatnonzero(arrivals):
            cdf = np.cumsum(heads.dispatch_probs[i])
            cdf[-1] = 1.0
            expected[i] = np.searchsorted(cdf, ref_rng.random(), side="right")
        got = heads.sample_dispatch(np.random.default_rng(9), arrivals)
        assert got.tolist() == expected.tolist()
        greedy = [int(np.argmax(p)) if a else -1 for p, a in zip(heads.dispatch_probs, arrivals)]
        assert heads.greedy_dispatch(arrivals).tolist() == greedy

    def test_extreme_sampled_frequencies(self):
        heads = PolicyHeads(np.array([[30.0, -30.0, 0.0, 0.0]]), n_servers=2)
        rng = np.random.default_rng(6)
        bits = np.vstack([heads.sample(rng, [False])[0] for _ in range(2000)])
        assert bits[:, 0].all() and not bits[:, 1].any()


class TestSigmoid:
    def test_bitwise_equal_to_two_branch_formula(self):
        # oracle: the formula that evaluates both branches, exp(-z) and exp(z)
        def two_branch(z):
            return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))

        rng = np.random.default_rng(12)
        uniform = rng.uniform(-LOGIT_CLAMP, LOGIT_CLAMP, 200_000)
        signs = rng.choice([-1.0, 1.0], 200_000)
        log_spaced = signs * 10.0 ** rng.uniform(-300, np.log10(LOGIT_CLAMP), 200_000)
        edges = [0.0, -0.0, LOGIT_CLAMP, -LOGIT_CLAMP, 1e-300, -1e-300]
        # the edges ten times, so the grid reshapes into rows of 10
        grid = np.concatenate([uniform, log_spaced, np.tile(edges, 10)])
        # contiguous, and a strided column block as the query head slices it
        for z in (grid, grid.reshape(-1, 10)[:, :5]):
            assert np.array_equal(_sigmoid(z).view(np.int64), two_branch(z).view(np.int64))


class TestHeadGradients:
    def _fd_check(self, seed: int, with_dispatch: bool):
        rng = np.random.default_rng(seed)
        k = 3
        net = DenseNet((4, 6, 2 * k), rng, out_gain=0.8)
        x = rng.standard_normal((5, 4))
        bits = (rng.random((5, k)) < 0.5).astype(np.int8)
        disp = np.where(
            rng.random(5) < (0.7 if with_dispatch else 0.0),
            rng.integers(0, k, size=5),
            -1,
        ).astype(np.int64)
        w = rng.standard_normal(5)
        c_e = 0.37

        def loss() -> float:
            heads = PolicyHeads(net.forward(x), k)
            lp = heads.log_prob(bits, disp)
            ent = heads.entropy(disp >= 0)
            return float((w * lp).sum() + c_e * ent.sum())

        loss()
        heads = PolicyHeads(net.forward(x), k)
        dlogits = w[:, None] * heads.grad_log_prob(bits, disp) + c_e * heads.grad_entropy(disp >= 0)
        analytic = net.backward(dlogits)
        numeric = finite_difference_gradients(loss, net.params, h=1e-5)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            assert (np.abs(a - n) / scale).max() < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_prob_and_entropy_gradients_vs_fd(self, seed):
        self._fd_check(seed, with_dispatch=True)

    def test_gradients_without_dispatch_vs_fd(self):
        self._fd_check(11, with_dispatch=False)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        opt = Adam(params, learning_rate=0.1)
        before = [p.copy() for p in params]
        assert opt.step(params, [np.zeros(2), np.zeros((1, 1))])
        assert all(np.array_equal(p, b) for p, b in zip(params, before))

    def test_descent_direction(self):
        params = [np.array([0.0])]
        opt = Adam(params, learning_rate=0.01)
        for _ in range(50):
            opt.step(params, [np.array([2.5])])  # constant positive gradient
        assert params[0][0] < 0.0

    def test_quadratic_convergence(self):
        # minimize (x - 3)^2; gradient is 2 (x - 3)
        params = [np.array([0.0])]
        opt = Adam(params, learning_rate=0.05)
        for _ in range(5000):
            opt.step(params, [2.0 * (params[0] - 3.0)])
        assert abs(params[0][0] - 3.0) < 1e-3

    def test_non_finite_gradient_skipped(self):
        params = [np.array([1.0])]
        opt = Adam(params, learning_rate=0.1)
        assert not opt.step(params, [np.array([np.nan])])
        assert params[0][0] == 1.0
        assert opt.t == 0

    def test_non_finite_member_skipped_others_step(self):
        rng = np.random.default_rng(5)
        params = [rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 2))]
        opt = Adam(params, learning_rate=0.1, max_grad_norm=1.0, members=3)
        # reference: members 0 and 2 as separate one-member optimizers
        refs = {m: [p[m].copy() for p in params] for m in (0, 2)}
        ref_opts = {m: Adam(refs[m], learning_rate=0.1, max_grad_norm=1.0) for m in refs}
        first = [rng.standard_normal(p.shape) for p in params]
        second = [rng.standard_normal(p.shape) * 10.0 for p in params]
        second[1][1, 0] = np.nan
        assert opt.step(params, first).all()
        before = [a.copy() for a in (*params, *opt.m, *opt.v)]
        assert opt.step(params, second).tolist() == [True, False, True]
        assert opt.t.tolist() == [2, 1, 2]
        for a, b in zip((*params, *opt.m, *opt.v), before):
            assert np.array_equal(a[1], b[1])
        for m, ref in ref_opts.items():
            for grads in (first, second):
                assert ref.step(refs[m], [g[m] for g in grads])
            assert all(np.array_equal(p[m], r) for p, r in zip(params, refs[m]))
            assert all(np.array_equal(a[m], r) for a, r in zip(opt.m + opt.v, ref.m + ref.v))

    def test_global_norm_clipping(self):
        params = [np.zeros(3), np.zeros(2)]
        opt = Adam(params, learning_rate=1.0, max_grad_norm=1.0)
        big = [np.full(3, 100.0), np.full(2, 100.0)]
        opt.step(params, big)
        # post-clip norm 1 spread over 5 entries; Adam first step is ~lr per coord
        assert np.isfinite(params[0]).all()
        assert float(np.abs(params[0]).max()) <= 1.0 + 1e-9


class TestInitialization:
    def test_orthogonal_columns(self):
        q = orthogonal_init(8, 4, gain=1.0, rng=np.random.default_rng(0))
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_seeded_init_reproducible(self):
        a = DenseNet((4, 8, 2), np.random.default_rng(123))
        b = DenseNet((4, 8, 2), np.random.default_rng(123))
        assert all(np.array_equal(x, y) for x, y in zip(a.params, b.params))

    def test_finite_params_after_updates(self):
        rng = np.random.default_rng(9)
        net = DenseNet((3, 8, 2), rng)
        opt = Adam(net.params, learning_rate=0.01, max_grad_norm=0.5)
        x = rng.standard_normal((16, 3))
        for _ in range(100):
            out = net.forward(x)
            grads = net.backward(2.0 * out / out.size)
            opt.step(net.params, grads)
        assert all(np.isfinite(p).all() for p in net.params)
