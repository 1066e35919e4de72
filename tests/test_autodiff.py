from dataclasses import dataclass

import numpy as np
import pytest

from helpers import (
    check_gradients,
    composite_layer_norm,
    composite_linear,
    composite_log_map,
    grad_cases,
    max_rel_err,
    numeric_grad,
    random_inball,
    reference_attention,
)
from rachain import autodiff as ad
from rachain.hyperbolic import BALL_MARGIN


@pytest.mark.parametrize("name,arrays,build",
                         grad_cases(np.random.default_rng(7)),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_gradients_match_finite_differences(name, arrays, build):
    check_gradients(build, arrays, tol=1e-4)


class TestEngine:
    def test_backward_requires_scalar(self):
        p = ad.Parameter(np.ones(3))
        out = ad.mul(p, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(out)

    def test_backward_accumulates_across_calls(self):
        p = ad.Parameter(np.array([1.0, 2.0]))
        out = ad.tensor_sum(ad.square(p))
        ad.backward(out)
        first = p.grad.copy()
        ad.backward(out)
        np.testing.assert_allclose(p.grad, 2.0 * first, atol=0)

    def test_diamond_graph_sums_both_paths(self):
        # y = x*x + x*x reuses the same intermediate twice
        p = ad.Parameter(np.array([3.0]))
        sq = ad.square(p)
        out = ad.tensor_sum(ad.add(sq, sq))
        ad.backward(out)
        np.testing.assert_allclose(p.grad, [12.0], atol=0)

    def test_no_grad_suppresses_tape(self):
        p = ad.Parameter(np.ones(3))
        with ad.no_grad():
            out = ad.tensor_sum(ad.square(p))
        assert not out.requires_grad
        ad.backward(out)
        assert p.grad is None

    def test_no_grad_restores_on_exception(self):
        p = ad.Parameter(np.ones(2))
        try:
            with ad.no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        out = ad.tensor_sum(p)
        assert out.requires_grad

    def test_constants_are_not_tracked(self):
        a = ad.Tensor(np.ones(3))
        out = ad.tensor_sum(ad.mul(a, 2.0))
        assert not out.requires_grad

    def test_seeded_backward_scales(self):
        p = ad.Parameter(np.array([2.0]))
        out = ad.tensor_sum(ad.square(p))
        ad.backward(out, seed=0.25)
        np.testing.assert_allclose(p.grad, [1.0], atol=0)


def _hand_out(t, given):
    """A test node on t whose backward hands the array `given` to t."""
    return ad._make(t.data, (t,), lambda g: ad._accumulate(t, given))


def _total(nodes):
    out = ad.tensor_sum(nodes[0])
    for node in nodes[1:]:
        out = ad.add(out, ad.tensor_sum(node))
    return out


def _ints(rng, shape):
    # small integers, so every sum and product below is exact in any order
    return rng.integers(-4, 5, size=shape).astype(np.float64)


class TestGradientOwnership:
    """Gradients from several consumers sum exactly, an array an op hands out
    is never written, and a leaf's `.grad` is its own array."""

    @pytest.mark.parametrize("through_op", [True, False], ids=["op", "leaf"])
    def test_transformer_layer_reads_sum_exactly(self, rng, through_op):
        # x feeds the q, k and v projections and the residual add, as in
        # encoder.transformer_stack
        p = ad.Parameter(_ints(rng, (3, 2, 4)))
        x = ad.mul(p, 1.0) if through_op else p
        ws = [ad.Parameter(_ints(rng, (4, 4))) for _ in range(3)]
        mixes = [_ints(rng, (3, 2, 4)) for _ in range(4)]
        res = ad.Parameter(_ints(rng, (3, 2, 4)))
        branches = [ad.linear(x, w) for w in ws] + [ad.add(x, res)]
        ad.backward(_total([ad.mul(b, m) for b, m in zip(branches, mixes)]))
        want = mixes[3] + sum(m @ w.data.T for m, w in zip(mixes, ws))
        np.testing.assert_array_equal(p.grad, want)
        np.testing.assert_array_equal(res.grad, mixes[3])

    def test_add_gradient_handed_to_both_parents_is_not_written(self, rng):
        p, q = ad.Parameter(_ints(rng, (3, 4))), ad.Parameter(_ints(rng, (3, 4)))
        x, z = ad.mul(p, 1.0), ad.mul(q, 1.0)
        given = _ints(rng, (3, 4))
        kept = given.copy()
        others = [_ints(rng, (3, 4)) for _ in range(4)]
        nodes = [_hand_out(ad.add(x, z), given)]
        nodes += [_hand_out(x, o) for o in others[:2]] + [_hand_out(z, o) for o in others[2:]]
        ad.backward(_total(nodes))
        np.testing.assert_array_equal(given, kept)
        np.testing.assert_array_equal(p.grad, given + others[0] + others[1])
        np.testing.assert_array_equal(q.grad, given + others[2] + others[3])

    def test_reshape_view_handed_out_is_not_written(self, rng):
        p = ad.Parameter(_ints(rng, (3, 4)))
        x = ad.mul(p, 1.0)
        given = _ints(rng, (12,))
        kept = given.copy()
        others = [_ints(rng, (3, 4)) for _ in range(3)]
        nodes = [_hand_out(ad.reshape(x, (12,)), given)] + [_hand_out(x, o) for o in others]
        ad.backward(_total(nodes))
        np.testing.assert_array_equal(given, kept)
        np.testing.assert_array_equal(p.grad, given.reshape(3, 4) + sum(others))

    def test_leaf_grad_does_not_alias_the_op_gradient(self, rng):
        # add hands one array to both leaves; each .grad is a copy of its own
        p, q = ad.Parameter(_ints(rng, (3, 4))), ad.Parameter(_ints(rng, (3, 4)))
        mix = _ints(rng, (3, 4))
        ad.backward(ad.tensor_sum(ad.mul(ad.add(p, q), mix)))
        assert not np.shares_memory(p.grad, q.grad)
        p.grad *= 2.0
        np.testing.assert_array_equal(q.grad, mix)
        given = _ints(rng, (3, 4))
        r = ad.Parameter(_ints(rng, (3, 4)))
        ad.backward(ad.tensor_sum(_hand_out(r, given)))
        assert not np.shares_memory(r.grad, given)


class TestOps:
    def test_take_rows_scatter_add(self):
        p = ad.Parameter(np.arange(6.0).reshape(3, 2))
        out = ad.tensor_sum(ad.take_rows(p, np.array([1, 1, 0])))
        ad.backward(out)
        np.testing.assert_allclose(p.grad, [[1, 1], [2, 2], [0, 0]], atol=0)

    @pytest.mark.parametrize("idx", [[4, 0, 4, 2, 0, 4, 1], [], [[3, 3], [0, 3], [1, 0]],
                                     [0, 1, 2, 3, 4, 5]],
                             ids=["unsorted_repeats", "empty", "2d", "each_once"])
    def test_take_rows_backward_matches_add_at(self, rng, idx):
        idx = np.array(idx, dtype=np.int64)
        p = ad.Parameter(rng.normal(size=(6, 3)))
        out = ad.take_rows(p, idx)
        g = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, g)))
        want = np.zeros_like(p.data)
        np.add.at(want, idx, g)
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)

    def test_take_rows_backward_adds_repeats_in_order(self, rng):
        # indices read once take their row as is, runs add up left to right
        idx = np.array([5, 2, 0, 5, 3, 5, 0])
        p = ad.Parameter(np.zeros((7, 3)))
        g = rng.normal(size=(len(idx), 3)) * 10.0 ** rng.integers(-8, 8, size=(len(idx), 1))
        ad.backward(ad.tensor_sum(ad.mul(ad.take_rows(p, idx), g)))
        want = np.zeros_like(p.data)
        for i, row in zip(idx, g):
            want[i] += row
        np.testing.assert_array_equal(p.grad, want)

    def test_softmax_rows_sum_to_one(self, rng):
        x = ad.Tensor(rng.standard_normal((4, 7)))
        p = ad.softmax(x)
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_masked_softmax_exact_zeros(self, rng):
        x = ad.Tensor(rng.standard_normal((2, 5)))
        mask = np.array([[True, False, True, True, False],
                         [False, True, True, True, True]])
        p = ad.softmax(x, mask=mask)
        assert np.all(p.data[~mask] == 0.0)
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(2), atol=1e-12)

    def test_masked_softmax_rejects_fully_masked_row(self):
        x = ad.Tensor(np.zeros((2, 3)))
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ValueError, match="every slot"):
            ad.softmax(x, mask=mask)

    def test_attention_rejects_fully_masked_row(self):
        q = ad.Tensor(np.zeros((2, 1, 3)))
        kv = ad.Tensor(np.zeros((2, 4, 3)))
        mask = np.array([[True, False, False, True], [False, False, False, False]])
        with pytest.raises(ValueError, match="every key"):
            ad.attention(q, kv, kv, 1, key_mask=mask)

    def test_masked_slots_get_zero_gradient(self):
        p = ad.Parameter(np.array([[1.0, 2.0, 3.0]]))
        mask = np.array([[True, False, True]])
        out = ad.tensor_sum(ad.mul(ad.softmax(p, mask=mask),
                                   np.array([[1.0, 5.0, 2.0]])))
        ad.backward(out)
        assert p.grad[0, 1] == 0.0
        assert p.grad[0, 0] != 0.0

    def test_clip_zeroes_gradient_outside(self):
        p = ad.Parameter(np.array([-0.5, 0.5, 1.5]))
        out = ad.tensor_sum(ad.clip(p, 0.0, 1.0))
        ad.backward(out)
        np.testing.assert_allclose(p.grad, [0.0, 1.0, 0.0], atol=0)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="2-D"):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_layer_norm_normalizes_rows(self, rng):
        x = ad.Tensor(rng.standard_normal((5, 16)) * 3 + 1)
        g = ad.Tensor(np.ones(16))
        b = ad.Tensor(np.zeros(16))
        out = ad.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-3)

    def test_getitem_negative_index(self):
        p = ad.Parameter(np.arange(12.0).reshape(3, 4))
        out = ad.tensor_sum(ad.getitem(p, np.s_[:, -1]))
        ad.backward(out)
        expected = np.zeros((3, 4))
        expected[:, -1] = 1.0
        np.testing.assert_allclose(p.grad, expected, atol=0)


def _values_and_grads(op, arrays, mix):
    params = {k: ad.Parameter(v.copy(), name=k) for k, v in arrays.items()}
    out = op(**params)
    ad.backward(ad.tensor_sum(ad.mul(out, mix)))
    return out.data, {k: p.grad for k, p in params.items()}


class TestFusedOps:
    """The fused linear, layer_norm, attention and log_map nodes against the
    primitive-op composites they replace."""

    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_linear_matches_composite(self, rng, x_shape, bias):
        arrays = {"x": rng.standard_normal(x_shape), "w": rng.standard_normal((4, 3))}
        if bias:
            arrays["b"] = rng.standard_normal(3)
        mix = rng.standard_normal(x_shape[:-1] + (3,))
        fused, fused_grads = _values_and_grads(ad.linear, arrays, mix)
        ref, ref_grads = _values_and_grads(composite_linear, arrays, mix)
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for name in arrays:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape", [(7, 1, 5), (4, 3, 5), (6, 5)],
                             ids=["m1n", "mLn", "2d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_linear_matches_per_row_dot(self, rng, x_shape, bias):
        # (m, 1, n) runs forward and backward as (m, n) GEMMs, (m, L, n) its
        # input gradient; every path against one np.dot per row
        x, w = rng.standard_normal(x_shape), rng.standard_normal((5, 3))
        b = rng.standard_normal(3) if bias else np.zeros(3)
        arrays = {"x": x, "w": w, **({"b": b} if bias else {})}
        mix = rng.standard_normal(x_shape[:-1] + (3,))
        out, grads = _values_and_grads(ad.linear, arrays, mix)
        rows, g_rows = x.reshape(-1, 5), mix.reshape(-1, 3)
        want = {"x": np.array([np.dot(g, w.T) for g in g_rows]).reshape(x_shape),
                "w": sum(np.outer(r, g) for r, g in zip(rows, g_rows)),
                "b": sum(g_rows)}
        np.testing.assert_allclose(
            out, np.array([np.dot(r, w) + b for r in rows]).reshape(mix.shape),
            rtol=0, atol=1e-12)
        for name in arrays:
            np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12)

    def test_linear_single_row_stack_against_finite_differences(self, rng):
        arrays = {"x": rng.standard_normal((4, 1, 5)), "w": rng.standard_normal((5, 3)),
                  "b": rng.standard_normal(3)}
        mix = rng.standard_normal((4, 1, 3))
        check_gradients(lambda p: ad.tensor_sum(ad.mul(ad.linear(p["x"], p["w"], p["b"]), mix)),
                        arrays)

    @pytest.mark.parametrize("x_shape", [(5, 6), (2, 3, 6)], ids=["2d", "3d"])
    def test_layer_norm_matches_composite(self, rng, x_shape):
        arrays = {"x": rng.standard_normal(x_shape) * 3 + 1,
                  "gain": rng.uniform(0.5, 1.5, 6), "bias": rng.standard_normal(6)}
        mix = rng.standard_normal(x_shape)
        fused, fused_grads = _values_and_grads(ad.layer_norm, arrays, mix)
        ref, ref_grads = _values_and_grads(composite_layer_norm, arrays, mix)
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for name in arrays:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lq", [5, 1], ids=["full", "last"])
    @pytest.mark.parametrize("masked", [True, False], ids=["mask", "no_mask"])
    def test_attention_matches_composite(self, rng, lq, masked):
        # two heads of width 3 over 5 keys; lq == 1 is the last_only layer
        arrays = {"q": rng.standard_normal((2, lq, 6)),
                  "k": rng.standard_normal((2, 5, 6)),
                  "v": rng.standard_normal((2, 5, 6))}
        mask = None
        if masked:
            mask = np.array([[True, False, True, True, True],
                             [False, True, True, False, True]])
        mix = rng.standard_normal((2, lq, 6))
        fused, fused_grads = _values_and_grads(
            lambda **p: ad.attention(**p, heads=2, key_mask=mask, scale=0.5), arrays, mix)
        ref, ref_grads = _values_and_grads(
            lambda **p: reference_attention(**p, heads=2, key_mask=mask, scale=0.5),
            arrays, mix)
        np.testing.assert_array_equal(fused, ref)
        for name in arrays:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=0, atol=1e-12)
        if masked:
            assert np.all(fused_grads["k"][0, 1] == 0.0)
            assert np.all(fused_grads["v"][1, 3] == 0.0)

    @pytest.mark.parametrize("curvature", [1.0, 0.6])
    def test_log_map_matches_composite(self, rng, curvature):
        # rows up to sqrt(c) |x| = 0.9, a tiny one and the all-zero origin row
        x = random_inball(rng, 6, 5, radius=0.9 / np.sqrt(curvature))
        x[1] *= 1e-9
        x[4] = 0.0
        arrays = {"x": x.reshape(2, 3, 5)}
        mix = rng.standard_normal((2, 3, 5))
        fused, fused_grads = _values_and_grads(
            lambda x: ad.log_map(x, curvature), arrays, mix)
        ref, ref_grads = _values_and_grads(
            lambda x: composite_log_map(x, curvature), arrays, mix)
        np.testing.assert_array_equal(fused, ref)
        assert np.all(fused[1, 1] == 0.0)
        np.testing.assert_allclose(fused_grads["x"], ref_grads["x"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused_grads["x"][1, 1], mix[1, 1], rtol=0, atol=1e-12)


class TestComposite:
    def test_deep_composition_against_finite_differences(self, rng):
        # a little network: linear -> relu -> layer_norm -> softmax mixing
        arrays = {
            "x": rng.standard_normal((3, 6)),
            "w": rng.standard_normal((6, 6)) * 0.5,
            "b": rng.standard_normal(6) * 0.1,
            "g": rng.uniform(0.8, 1.2, 6),
        }
        mix = rng.standard_normal((3, 6))

        def build(p):
            h = ad.relu(ad.linear(p["x"], p["w"], p["b"]))
            h = ad.layer_norm(h, p["g"], ad.Tensor(np.zeros(6)))
            return ad.tensor_sum(ad.mul(ad.softmax(h), mix))

        check_gradients(build, arrays, tol=1e-4)


class TestParameters:
    def test_depth_first_in_declaration_order(self):
        @dataclass
        class Leaf:
            w: ad.Parameter
            width: int
            b: ad.Parameter

        @dataclass
        class Tree:
            first: ad.Parameter
            leaves: list
            missing: ad.Parameter | None
            last: ad.Parameter
            scale: float = 1.0

        p = {name: ad.Parameter(np.zeros(1), name=name) for name in "abcdefg"}
        tree = Tree(first=p["a"], leaves=[Leaf(p["b"], 3, p["c"]), Leaf(p["d"], 4, p["e"])],
                    missing=None, last=p["f"])
        walked = ad.parameters(tree, None, 5, p["g"])
        assert [q.name for q in walked] == list("abcdefg")
        assert all(q is p[q.name] for q in walked)
        assert ad.parameters() == [] and ad.parameters(None, 2, 0.5) == []


class TestAdam:
    def test_matches_reference_implementation(self, rng):
        # hand-rolled Adam on the same quadratic, step by step
        x0 = rng.standard_normal(4)
        target = np.array([1.0, -2.0, 0.5, 3.0])
        p = ad.Parameter(x0.copy())
        opt = ad.Adam([p], lr=0.1)

        ref = x0.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            opt.zero_grad()
            loss = ad.tensor_sum(ad.square(ad.sub(p, target)))
            ad.backward(loss)
            g = 2.0 * (ref - target)
            np.testing.assert_allclose(p.grad, g, atol=1e-12)
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p.data, ref, atol=1e-12)

    def test_param_without_grad_is_untouched(self):
        p = ad.Parameter(np.ones(3))
        q = ad.Parameter(np.full(2, 5.0))
        opt = ad.Adam([p, q], lr=0.5)
        loss = ad.tensor_sum(ad.square(p))
        ad.backward(loss)
        opt.step()
        assert not np.allclose(p.data, np.ones(3))
        np.testing.assert_allclose(q.data, np.full(2, 5.0), atol=0)

    def test_ball_parameter_reprojected(self):
        p = ad.Parameter(np.array([[0.99, 0.0]]), ball=1.0)
        opt = ad.Adam([p], lr=0.5)
        loss = ad.tensor_sum(ad.mul(p, np.array([[-1.0, 0.0]])))
        ad.backward(loss)
        opt.step()  # gradient pushes the row outward, projection pulls it back
        assert np.linalg.norm(p.data[0]) <= 1.0 - BALL_MARGIN + 1e-12

    def test_zero_grad_clears(self):
        p = ad.Parameter(np.ones(2))
        opt = ad.Adam([p])
        ad.backward(ad.tensor_sum(p))
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None


class TestClipGlobalNorm:
    def test_norm_computation_and_rescale(self):
        p = ad.Parameter(np.zeros(2))
        q = ad.Parameter(np.zeros(1))
        p.grad = np.array([3.0, 0.0])
        q.grad = np.array([4.0])
        norm = ad.clip_global_norm([p, q], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.0], atol=1e-15)
        np.testing.assert_allclose(q.grad, [0.8], atol=1e-15)

    def test_small_gradients_untouched(self):
        p = ad.Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.2])
        ad.clip_global_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.2], atol=0)

    def test_skips_missing_grads(self):
        p = ad.Parameter(np.zeros(2))
        assert ad.clip_global_norm([p], max_norm=1.0) == 0.0


def test_finite_difference_helper_self_check(rng):
    # the oracle itself: gradient of sum(x^2) is 2x
    arrays = {"x": rng.standard_normal((2, 3))}
    num = numeric_grad(lambda a: float((a["x"] ** 2).sum()), arrays)
    assert max_rel_err(2 * arrays["x"], num["x"]) < 1e-8
