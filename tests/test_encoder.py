from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (chain_set, check_gradients, decode_value, encode_value, oracle_log_map,
                     random_inball, reference_affine_transfer, reference_chain_tokens,
                     reference_encode_chains)
from rachain import autodiff as ad
from rachain import encoder as E
from rachain.autodiff import Parameter, Tensor, parameters
from rachain.filter import FilterEmbeddings
from rachain.kg import Query
from rachain.reasoner import TreeformerParams, weight_chains
from rachain.retrieval import RAChain


def make_chain(src_attr, relations, value=1.0, path_start=100):
    path = tuple(range(path_start, path_start + len(relations) + 1))
    return RAChain(src_attr, tuple(relations), 0, value, path)


def tokens_of(chains, query_attribute, emb, params, **kw):
    """chain_tokens over hand-built chains, laid out as a chain set."""
    s = chain_set(Query(0, query_attribute), chains)
    return E.chain_tokens(s.source_attribute, s.relations, query_attribute, emb, params, **kw)


def encode_of(chains, query_attribute, emb, params):
    s = chain_set(Query(0, query_attribute), chains)
    return E.encode_chains(s.source_attribute, s.relations, query_attribute, emb, params)


@pytest.fixture
def attention_probs(monkeypatch):
    """The weight arrays (b, heads, lq, lk) of every attention the encoder
    runs, recomputed in numpy from the q and k rows each call is given."""
    seen = []
    attention = E.attention

    def recording(q, k, v, heads, key_mask=None, scale=1.0):
        def split(rows):
            b, length, dim = rows.shape
            return rows.data.reshape(b, length, heads, dim // heads).transpose(0, 2, 1, 3)

        scores = scale * (split(q) @ split(k).transpose(0, 1, 3, 2))
        if key_mask is not None:
            scores = np.where(key_mask[:, None, None, :], scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        seen.append(weights / weights.sum(axis=-1, keepdims=True))
        return attention(q, k, v, heads, key_mask, scale)

    monkeypatch.setattr(E, "attention", recording)
    return seen


def op_nodes(out: Tensor) -> int:
    """Tensors on the tape below `out` that an op recorded (leaves excluded)."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward_fn is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


class TestBits:
    def test_one_is_0x3ff0(self):
        bits = encode_value(1.0)
        expected = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] + [0] * 52
        assert bits.tolist() == expected

    def test_minus_two_is_0xc000(self):
        bits = encode_value(-2.0)
        expected = [1, 1] + [0] * 62
        assert bits.tolist() == expected

    def test_zero_is_all_zero_bits(self):
        assert encode_value(0.0).tolist() == [0.0] * 64

    def test_sign_bit_is_first(self):
        assert encode_value(-1.0)[0] == 1.0
        assert encode_value(1.0)[0] == 0.0

    def test_round_trip_exact(self, rng):
        values = np.concatenate([
            rng.standard_normal(500) * 10.0 ** rng.integers(-8, 9, 500),
            np.array([0.0, -0.0, 1.0, -1.0, np.pi, 2.0**-1030]),
        ])
        for v in values:
            assert decode_value(encode_value(v)) == v

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                encode_value(bad)

    def test_decode_validates_shape_and_values(self):
        with pytest.raises(ValueError, match="64 bits"):
            decode_value(np.zeros(63))
        bad = np.zeros(64)
        bad[5] = 2.0
        with pytest.raises(ValueError, match="0 or 1"):
            decode_value(bad)

    def test_encode_values_stacks(self):
        values = [1.0, -2.0, 0.5, -0.0, 5e-324, 1e308]
        out = E.encode_values(values)
        assert out.shape == (6, 64)
        for row, v in zip(out, values):
            assert row.tolist() == encode_value(v).tolist()
        with pytest.raises(ValueError, match="non-finite"):
            E.encode_values([1.0, float("inf")])


class TestLogMapTensor:
    """The fused `autodiff.log_map` node against the scalar oracle."""

    def test_matches_scalar_oracle(self, rng):
        x = random_inball(rng, 6, 4)
        out = ad.log_map(Tensor(x)).data
        for row, expect in zip(out, [oracle_log_map(r) for r in x]):
            np.testing.assert_allclose(row, expect, atol=1e-12)

    def test_origin_maps_to_origin(self):
        out = ad.log_map(Tensor(np.zeros((2, 3)))).data
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_curvature_scaling(self, rng):
        x = random_inball(rng, 4, 3, radius=0.5)
        out = ad.log_map(Tensor(x), curvature=0.25).data
        for row, expect in zip(out, [oracle_log_map(r, c=0.25) for r in x]):
            np.testing.assert_allclose(row, expect, atol=1e-12)


@pytest.fixture
def setup(rng):
    emb = FilterEmbeddings.create(rng, n_relations=6, n_attributes=4, dim=8)
    params = E.ChainEncoderParams.create(rng, filter_dim=8, dim=8, n_layers=2, heads=2)
    return emb, params


class TestTokens:
    def test_shape_with_and_without_end(self, setup):
        emb, params = setup
        chains = [make_chain(0, (1, 2)), make_chain(1, (3, 4), path_start=50)]
        assert tokens_of(chains, 2, emb, params)[0].shape == (2, 5, 8)
        assert tokens_of(chains, 2, emb, params,
                              include_end=False)[0].shape == (2, 4, 8)

    def test_token_order_source_reversed_relations_query_end(self, setup):
        emb, params = setup
        chain = make_chain(1, (4, 2))  # stored source->query
        tokens = tokens_of([chain], 3, emb, params)[0].data[0]
        lm = lambda row: np.array(oracle_log_map(row))
        np.testing.assert_allclose(tokens[0], lm(emb.attributes.data[1]), atol=1e-12)
        # the relation adjacent to the query leads; storage order is reversed
        np.testing.assert_allclose(tokens[1], lm(emb.relations.data[2]), atol=1e-12)
        np.testing.assert_allclose(tokens[2], lm(emb.relations.data[4]), atol=1e-12)
        np.testing.assert_allclose(tokens[3], lm(emb.attributes.data[3]), atol=1e-12)
        np.testing.assert_array_equal(tokens[4], params.end_token.data)

    def test_mixed_lengths_left_padded_and_masked(self, setup):
        emb, params = setup
        short, long = make_chain(0, (1,)), make_chain(2, (3, 4, 5), path_start=9)
        tokens, mask = tokens_of([short, long], 1, emb, params)
        assert tokens.shape == (2, 6, 8)
        np.testing.assert_array_equal(mask, [[False, False, True, True, True, True],
                                             [True] * 6])
        # pad slots lead, hold exact zeros, and leave the end token last
        np.testing.assert_array_equal(tokens.data[0, :2], np.zeros((2, 8)))
        np.testing.assert_array_equal(tokens.data[:, -1],
                                      np.stack([params.end_token.data] * 2))
        alone, alone_mask = tokens_of([short], 1, emb, params)
        np.testing.assert_array_equal(tokens.data[0, 2:], alone.data[0])
        assert alone_mask.all()
        pooled, pooled_mask = tokens_of([short, long], 1, emb, params,
                                             include_end=False)
        np.testing.assert_array_equal(pooled.data, tokens.data[:, :-1])
        np.testing.assert_array_equal(pooled_mask, mask[:, :-1])

    def test_lift_changes_width(self, rng):
        emb = FilterEmbeddings.create(rng, 6, 4, dim=4)
        params = E.ChainEncoderParams.create(rng, filter_dim=4, dim=8, n_layers=1, heads=2)
        assert params.lift is not None
        tokens, _ = tokens_of([make_chain(0, (1,))], 2, emb, params)
        assert tokens.shape == (1, 4, 8)
        raw = ad.log_map(Tensor(emb.attributes.data[[0]])).data
        np.testing.assert_allclose(tokens.data[0, 0], raw[0] @ params.lift.data,
                                   atol=1e-12)

    def test_no_lift_when_widths_match(self, setup):
        _, params = setup
        assert params.lift is None


class TestTokenTable:
    """chain_tokens embeds the vocabulary once and gathers every token from
    one table, against the per-token composite it replaced."""

    # lengths 3, 1, 2, two query attributes
    SOURCE = np.array([0, 1, 3])
    RELATIONS = np.array([[1, 2, 3], [4, -1, -1], [5, 0, -1]])
    QUERY = np.array([2, 2, 1])

    @pytest.mark.parametrize("include_end", [True, False], ids=["end", "no_end"])
    @pytest.mark.parametrize("filter_dim", [8, 4], ids=["no_lift", "lift"])
    def test_matches_per_token_reference(self, rng, filter_dim, include_end):
        emb = FilterEmbeddings.create(rng, n_relations=6, n_attributes=4, dim=filter_dim,
                                      curvature=0.7, init_radius=0.9)
        params = E.ChainEncoderParams.create(rng, filter_dim=filter_dim, dim=8,
                                             n_layers=1, heads=2)
        assert (params.lift is not None) == (filter_dim != 8)
        weights = [emb.relations, emb.attributes, params.end_token]
        weights += [params.lift] if params.lift is not None else []

        def run(tokens_fn):
            for w in weights:
                w.grad = None
            tokens, mask = tokens_fn(self.SOURCE, self.RELATIONS, self.QUERY, emb, params,
                                     include_end=include_end)
            ad.backward(ad.tensor_sum(ad.mul(tokens, mix)))
            return tokens.data, mask, [w.grad for w in weights]

        mix = rng.standard_normal((3, 5 + include_end, 8))
        got, got_mask, got_grads = run(E.chain_tokens)
        want, want_mask, want_grads = run(reference_chain_tokens)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_mask, want_mask)
        for w, g, h in zip(weights, got_grads, want_grads):
            if w is params.end_token and not include_end:
                assert g is None and h is None
                continue
            np.testing.assert_allclose(g, h, rtol=0.0, atol=1e-12, err_msg=w.name)

    @pytest.mark.parametrize("filter_dim,nodes", [(4, 6), (8, 5)], ids=["lift", "no_lift"])
    def test_one_gather_over_one_table(self, rng, filter_dim, nodes):
        # concat, log_map, (lift,) end-token reshape, table concat, take_rows
        emb = FilterEmbeddings.create(rng, n_relations=6, n_attributes=4, dim=filter_dim)
        params = E.ChainEncoderParams.create(rng, filter_dim=filter_dim, dim=8,
                                             n_layers=1, heads=2)
        tokens, _ = E.chain_tokens(self.SOURCE, self.RELATIONS, self.QUERY, emb, params)
        assert op_nodes(tokens) == nodes


class TestTransformer:
    def test_post_norm_output_statistics(self, setup, rng):
        emb, params = setup
        x = Tensor(rng.standard_normal((3, 5, 8)))
        out = E.transformer_stack(x, params.stack).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_attention_rows_are_distributions(self, setup, rng, attention_probs):
        emb, params = setup
        x = Tensor(rng.standard_normal((2, 4, 8)))
        E.transformer_stack(x, params.stack)
        assert len(attention_probs) == 2  # one per layer
        for probs in attention_probs:
            assert probs.shape == (2, 2, 4, 4)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(probs >= 0.0)

    def test_key_mask_zeroes_attention_exactly(self, setup, rng, attention_probs):
        emb, params = setup
        x = Tensor(rng.standard_normal((2, 4, 8)))
        mask = np.array([[True, True, False, True],
                         [True, False, True, True]])
        E.transformer_stack(x, params.stack, key_mask=mask)
        assert len(attention_probs) == 2
        for probs in attention_probs:
            assert np.all(probs[0, :, :, 2] == 0.0)
            assert np.all(probs[1, :, :, 1] == 0.0)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("last_only,nodes", [(False, 12), (True, 13)],
                             ids=["all_rows", "last_only"])
    def test_one_layer_is_twelve_tape_nodes(self, rng, last_only, nodes):
        # q, k, v, attention, wo; add, layer norm; two linears, relu; add,
        # layer norm; and the row slice of last_only
        stack = E.TransformerParams.create(rng, dim=8, n_layers=1, heads=2)
        x = Parameter(rng.standard_normal((2, 4, 8)))
        assert op_nodes(E.transformer_stack(x, stack, last_only=last_only)) == nodes

    def test_deterministic(self, setup, rng):
        emb, params = setup
        x = rng.standard_normal((2, 4, 8))
        a = E.transformer_stack(Tensor(x.copy()), params.stack).data
        b = E.transformer_stack(Tensor(x.copy()), params.stack).data
        np.testing.assert_array_equal(a, b)

    def test_head_divisibility_enforced(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            E.TransformerParams.create(rng, dim=8, n_layers=1, heads=3)

    def test_encode_chains_returns_end_token_output(self, setup):
        emb, params = setup
        chains = [make_chain(0, (1, 2)), make_chain(2, (3, 5), path_start=40)]
        reps = encode_of(chains, 1, emb, params)
        assert reps.shape == (2, 8)
        tokens, mask = tokens_of(chains, 1, emb, params)
        full = E.transformer_stack(tokens, params.stack, key_mask=mask).data
        np.testing.assert_array_equal(reps.data, full[:, -1])


class TestPaddedEncoding:
    @pytest.mark.parametrize("filter_dim", [8, 4], ids=["no_lift", "lift"])
    def test_padded_batch_matches_chains_encoded_alone(self, filter_dim, rng):
        """One masked pass over lengths 3, 1, 2 equals three unpadded passes,
        in values and in the gradients of a fixed mix of the rows."""
        emb = FilterEmbeddings.create(rng, n_relations=6, n_attributes=4, dim=filter_dim)
        params = E.ChainEncoderParams.create(rng, filter_dim=filter_dim, dim=8,
                                             n_layers=2, heads=2)
        assert (params.lift is not None) == (filter_dim != 8)
        chains = [make_chain(0, (1, 2, 3)), make_chain(1, (4,), path_start=20),
                  make_chain(3, (5, 0), path_start=40)]
        mix = rng.standard_normal((3, 8))
        weights = [emb.relations, emb.attributes, *parameters(params)]

        def grads(loss):
            for w in weights:
                w.grad = None
            ad.backward(loss)
            return [w.grad.copy() for w in weights]

        padded = encode_of(chains, 2, emb, params)
        padded_grads = grads(ad.tensor_sum(ad.mul(padded, mix)))
        alone = [encode_of([c], 2, emb, params) for c in chains]
        alone_loss = ad.tensor_sum(ad.mul(ad.concat(alone, axis=0), mix))
        alone_grads = grads(alone_loss)

        np.testing.assert_allclose(padded.data, np.concatenate([a.data for a in alone]),
                                   rtol=0.0, atol=1e-12)
        for w, got, want in zip(weights, padded_grads, alone_grads):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=w.name)


class TestEndTokenOnly:
    """encode_chains runs its last layer on the end token only."""

    # lengths 3, 1, 2, two query attributes
    SOURCE = np.array([0, 1, 3])
    RELATIONS = np.array([[1, 2, 3], [4, -1, -1], [5, 0, -1]])
    QUERY = np.array([2, 2, 1])

    def test_matches_full_stack(self, rng):
        """Values and every gradient equal the unfused stack that computes
        every token in every layer."""
        emb = FilterEmbeddings.create(rng, n_relations=6, n_attributes=4, dim=4)
        params = E.ChainEncoderParams.create(rng, filter_dim=4, dim=8, n_layers=2, heads=2)
        assert params.lift is not None
        mix = rng.standard_normal((3, 8))
        weights = [emb.relations, emb.attributes, *parameters(params)]

        def run(encode):
            for w in weights:
                w.grad = None
            out = encode(self.SOURCE, self.RELATIONS, self.QUERY, emb, params)
            ad.backward(ad.tensor_sum(ad.mul(out, mix)))
            return out.data, [w.grad.copy() for w in weights]

        got, got_grads = run(E.encode_chains)
        want, want_grads = run(reference_encode_chains)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        for w, g, h in zip(weights, got_grads, want_grads):
            np.testing.assert_allclose(g, h, rtol=0.0, atol=1e-12, err_msg=w.name)

    def test_only_keys_and_values_of_the_last_layer_see_every_slot(self, setup, rng,
                                                                   monkeypatch):
        emb, params = setup
        tree = TreeformerParams.create(rng, dim=8, n_layers=2, heads=2, max_hops=3)
        seen = []
        linear = E.linear

        def recording(x, w, b=None):
            seen.append((w.name, x.shape))
            return linear(x, w, b)

        monkeypatch.setattr(E, "linear", recording)
        E.encode_chains(self.SOURCE, self.RELATIONS, self.QUERY, emb, params)
        slots = self.RELATIONS.shape[1] + 3
        shapes = dict(seen)
        assert len(shapes) == len(seen) == 12  # six weights a layer, each used once
        for name, shape in seen:
            layer, weight = name.split(".")[1:]
            full = layer == "layer0" or weight in ("wk", "wv")
            assert shape[:2] == (3, slots if full else 1), name

        seen.clear()
        lengths = np.array([[1, 2, 3], [3, 1, 1]])
        mask = np.array([[True, True, True], [True, True, False]])
        weight_chains(Tensor(rng.standard_normal((2, 3, 8))), lengths, tree, mask)
        assert len(seen) == 12
        assert all(shape[:2] == (2, 3) for _, shape in seen)


class TestAffineTransfer:
    def test_identity_at_initialization(self, rng):
        nets = E.AffineNets.create(rng, dim=6, hidden=16)
        reps = Tensor(rng.standard_normal((4, 6)))
        out = E.affine_transfer(reps, np.arange(4), [0.3, -2.0, 1e6, 0.0], nets)
        np.testing.assert_array_equal(out.data, reps.data)

    def test_matches_hand_computed_affine_map(self, rng):
        d, hidden, m = 3, 5, 4
        nets = E.AffineNets.create(rng, dim=d, hidden=hidden)
        # break the zero-init so the map is a generic function of the bits
        nets.w2a.data[:] = rng.standard_normal((hidden, d * d)) * 0.1
        nets.b2a.data[:] = rng.standard_normal(d * d) * 0.1
        nets.w2b.data[:] = rng.standard_normal((hidden, d)) * 0.1
        nets.b2b.data[:] = rng.standard_normal(d) * 0.1
        reps = rng.standard_normal((m, d))
        values = [0.25, -7.5, 3.0, 0.125]

        bits = E.encode_values(values)
        ha = np.maximum(bits @ nets.w1a.data + nets.b1a.data, 0.0)
        ea = (ha @ nets.w2a.data + nets.b2a.data).reshape(m, d, d)
        hb = np.maximum(bits @ nets.w1b.data + nets.b1b.data, 0.0)
        eb = hb @ nets.w2b.data + nets.b2b.data
        expected = np.einsum("mk,mkj->mj", reps, ea) + eb

        out = E.affine_transfer(Tensor(reps), np.arange(m), values, nets)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_depends_on_value(self, rng):
        nets = E.AffineNets.create(rng, dim=4, hidden=8)
        nets.w2a.data[:] = rng.standard_normal((8, 16)) * 0.1
        reps = Tensor(rng.standard_normal((2, 4)))
        a = E.affine_transfer(reps, np.arange(2), [1.0, 1.0], nets).data
        b = E.affine_transfer(reps, np.arange(2), [1.0, 2.0], nets).data
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.allclose(a[1], b[1])

    def test_gradients_flow_to_reps_and_nets(self, rng):
        nets = E.AffineNets.create(rng, dim=3, hidden=4)
        reps = Parameter(rng.standard_normal((2, 3)), name="reps")
        out = E.affine_transfer(reps, np.arange(2), [0.5, -1.5], nets)
        ad.backward(ad.tensor_sum(ad.square(out)))
        assert reps.grad is not None and np.any(reps.grad != 0.0)
        assert nets.w2a.grad is not None and np.any(nets.w2a.grad != 0.0)
        assert nets.b2b.grad is not None and np.any(nets.b2b.grad != 0.0)


# values drawn from a small pool, so most lists repeat some of them
pooled_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 2024.0, 7.25]) | st.floats(
        -1e6, 1e6, allow_nan=False), min_size=1, max_size=60)


def value_groups(values):
    """key_groups of the values' float64 bits, the transfer's value side."""
    return E.key_groups(np.asarray(values, dtype=np.float64).view(np.int64))


class TestValueGroups:
    @given(pooled_values)
    @settings(max_examples=300, deadline=None)
    def test_layout(self, values):
        values = np.array(values)
        m = len(values)
        bits = values.view(np.int64)
        n = len(np.unique(bits))
        distinct, group_value, source, slot = value_groups(values)
        g, width = source.shape
        assert g == len(group_value)
        assert width == -(-m // n)
        assert len(np.unique(distinct.view(np.int64))) == len(distinct) == n
        # every row lands in exactly one slot of the (G, width) layout,
        # and that slot holds it
        assert len(np.unique(slot)) == m
        np.testing.assert_array_equal(source.reshape(-1)[slot], np.arange(m))
        assert source.min() >= 0 and source.max() < m  # pad slots read a real row
        # a group holds one bit pattern: its value's
        group = slot // width
        np.testing.assert_array_equal(distinct.view(np.int64)[group_value[group]], bits)
        # a value's rows fill its groups in row order
        for key in np.unique(bits):
            assert np.all(np.diff(slot[bits == key]) > 0)
        assert g <= 2 * n
        assert g * width < 3 * m

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=40, unique_by=lambda v: np.float64(v).view(np.int64)))
    @settings(max_examples=100, deadline=None)
    def test_all_distinct_is_one_row_per_group(self, values):
        if len(values) % 2:  # half the examples also hold both signed zeros
            seen = {np.float64(v).view(np.int64) for v in values}
            values = values + [z for z in (0.0, -0.0) if np.float64(z).view(np.int64) not in seen]
        distinct, group_value, source, slot = value_groups(values)
        m = len(values)
        assert source.shape == (m, 1) and len(group_value) == m
        np.testing.assert_array_equal(source[slot, 0], np.arange(m))
        np.testing.assert_array_equal(distinct[group_value[slot]].view(np.int64),
                                      np.array(values).view(np.int64))

    def test_signed_zeros_stay_apart(self):
        distinct, group_value, source, slot = value_groups([0.0, -0.0, 0.0, -0.0])
        assert len(distinct) == 2 and source.shape == (2, 2)
        assert slot[0] // 2 == slot[2] // 2 != slot[1] // 2 == slot[3] // 2


def generic_nets(rng, dim, hidden):
    """Affine nets with every layer random, so E_a and E_b vary with the bits."""
    nets = E.AffineNets.create(rng, dim=dim, hidden=hidden)
    for p in parameters(nets):
        p.data = p.data + rng.standard_normal(p.data.shape) * 0.1
    return nets


VALUE_SETS = pytest.mark.parametrize("values", [
    [0.25, -7.5, 3.0, 0.125, 1e6, -2.0],
    [0.75] * 7,
    [0.5] * 9 + [0.1, 0.2, 0.3, 0.4],
    [0.0, -0.0, 0.0, 0.3, -0.0, 0.0],
    [0.6, 0.2, 0.6, 0.9] + [0.0] * 5,  # one value on most rows, after distinct ones
], ids=["distinct", "equal", "dominant", "signed_zeros", "pad_zeros"])


def against_reference(rng, pattern, values, d: int = 4):
    """Assert that affine_transfer matches the per-row reference, in value and
    in the gradients of one representation per pattern (gathered to the
    rows by `pattern`) and of all 8 nets parameters."""
    pattern = np.asarray(pattern)
    nets = generic_nets(rng, d, 6)
    base = Parameter(rng.standard_normal((pattern.max() + 1, d)), name="patterns")
    mix = rng.standard_normal((len(pattern), d))
    results = []
    for transfer in (partial(E.affine_transfer, pattern=pattern), reference_affine_transfer):
        for p in [base] + parameters(nets):
            p.grad = None
        out = transfer(ad.take_rows(base, pattern), values=values, nets=nets)
        ad.backward(ad.tensor_sum(ad.mul(out, mix)))
        results.append([out.data] + [p.grad for p in [base] + parameters(nets)])
    names = ["out", "patterns"] + [p.name for p in parameters(nets)]
    for name, got, want in zip(names, *results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


class TestGroupedTransfer:
    @VALUE_SETS
    def test_matches_per_row_transfer(self, values, rng):
        against_reference(rng, np.arange(len(values)), values)

    def test_finite_differences_with_repeated_values(self, rng):
        import dataclasses

        d = 3
        nets_const = generic_nets(rng, d, 4)
        values = [0.5, -0.0, 0.5, 0.0, 0.5, 1.25, 0.5]
        mix = rng.standard_normal((len(values), d))

        def build(p):
            nets = dataclasses.replace(nets_const, w1a=p["w1a"], w2a=p["w2a"], b2a=p["b2a"],
                                       w1b=p["w1b"], w2b=p["w2b"])
            out = E.affine_transfer(p["reps"], np.arange(len(values)), values, nets)
            return ad.tensor_sum(ad.mul(out, mix))

        check_gradients(build, {
            "reps": rng.standard_normal((len(values), d)),
            "w1a": rng.standard_normal((64, 4)) * 0.1,
            "w2a": rng.standard_normal((4, d * d)) * 0.1,
            "b2a": rng.standard_normal(d * d) * 0.1,
            "w1b": rng.standard_normal((64, 4)) * 0.1,
            "w2b": rng.standard_normal((4, d)) * 0.1,
        }, tol=1e-4)

    @VALUE_SETS
    def test_e_a_is_built_per_group(self, values, rng, monkeypatch):
        nets = generic_nets(rng, 3, 4)
        rows = []
        linear = E.linear

        def recording(x, w, b=None):
            if w is nets.w1a:
                rows.append(x.shape[0])
            return linear(x, w, b)

        monkeypatch.setattr(E, "linear", recording)
        E.affine_transfer(Tensor(rng.standard_normal((len(values), 3))),
                          np.arange(len(values)), values, nets)
        n = len(np.unique(np.array(values).view(np.int64)))
        (seen,) = rows
        assert seen <= 2 * n


PATTERN_CASES = pytest.mark.parametrize("pattern,values", [
    ([0, 1, 2] * 8, np.linspace(-3.0, 3.0, 24)),
    ([3, 1, 0, 5, 2, 4], [0.25, -7.5, 3.0, 0.125, 1e6, -2.0]),
    ([0] * 7, [0.5, 1.5, -2.0, 0.5, 3.0, 7.25, 0.0]),
    ([0], [0.75]),
    ([1, 0, 1, 1, 0, 1, 0], [0.0, -0.0, 0.0, 0.3, -0.0, 0.0, 0.0]),
], ids=["few_patterns", "one_pattern_per_value", "one_pattern", "one_row", "signed_zeros"])


class TestPatternSide:
    @PATTERN_CASES
    def test_matches_per_row_transfer(self, pattern, values, rng, monkeypatch):
        monkeypatch.setattr(E, "GROUPS_PER_PATTERN", 0)  # the pattern side at any counts
        against_reference(rng, pattern, values)

    def test_finite_differences_with_repeated_patterns(self, rng, monkeypatch):
        import dataclasses

        monkeypatch.setattr(E, "GROUPS_PER_PATTERN", 0)
        d = 3
        nets_const = generic_nets(rng, d, 4)
        pattern = np.array([1, 0, 1, 2, 1, 0, 1])
        values = [0.5, -0.0, 0.5, 0.0, 0.75, 1.25, -3.0]
        mix = rng.standard_normal((len(values), d))

        def build(p):
            nets = dataclasses.replace(nets_const, **{k: p[k] for k in p if k != "patterns"})
            out = E.affine_transfer(ad.take_rows(p["patterns"], pattern), pattern, values, nets)
            return ad.tensor_sum(ad.mul(out, mix))

        check_gradients(build, {
            "patterns": rng.standard_normal((3, d)),
            "w1a": rng.standard_normal((64, 4)) * 0.1,
            "b1a": rng.standard_normal(4) * 0.1,
            "w2a": rng.standard_normal((4, d * d)) * 0.1,
            "b2a": rng.standard_normal(d * d) * 0.1,
            "w1b": rng.standard_normal((64, 4)) * 0.1,
            "b1b": rng.standard_normal(4) * 0.1,
            "w2b": rng.standard_normal((4, d)) * 0.1,
            "b2b": rng.standard_normal(d) * 0.1,
        }, tol=1e-4)

    def test_side_follows_value_groups_per_pattern(self, rng, monkeypatch):
        grouped = []
        key_groups = E.key_groups

        def recording(keys):
            grouped.append(keys)
            return key_groups(keys)

        monkeypatch.setattr(E, "key_groups", recording)
        nets = generic_nets(rng, 3, 4)

        def side(pattern, values):
            grouped.clear()
            E.affine_transfer(Tensor(rng.standard_normal((len(values), 3))), np.array(pattern),
                              values, nets)
            return ["value", "pattern"][len(grouped) - 1]  # the pattern side groups twice

        ratio = E.GROUPS_PER_PATTERN
        cases = [
            ([0, 1] * ratio, np.arange(2.0 * ratio)),  # ratio value groups per pattern
            ([0, 1] * ratio, np.r_[np.arange(2.0 * ratio - 1), 0.0]),  # one group fewer
            (np.arange(16) % 5, np.linspace(0.0, 1.0, 16)),  # a one-query forward's counts
            (np.arange(4), [0.1, 0.2, 0.3, 0.4]),  # a pattern per chain
        ]
        assert [side(*case) for case in cases] == ["pattern", "value", "value", "value"]


class TestEndToEndGradient:
    def test_finite_differences_through_encoder_and_transfer(self, rng):
        """FD check on a full encode -> transfer -> scalar pipeline, for a
        shared-length chain set and a left-padded mixed-length one."""
        import dataclasses

        dim, fdim, heads = 4, 3, 2
        chain_sets = [
            [make_chain(0, (1, 2)), make_chain(1, (0, 3), path_start=30)],
            [make_chain(0, (1, 2, 4)), make_chain(1, (3,), path_start=30),
             make_chain(2, (0, 3), path_start=60)],
        ]
        layer_const = E.LayerParams.create(rng, dim, 2 * dim, tag="c")
        nets_const = E.AffineNets.create(rng, dim=dim, hidden=4)
        for chains in chain_sets:
            mix = rng.standard_normal((len(chains), dim))
            values = [0.75, -0.25, 1.5][:len(chains)]

            def build(p):
                emb = FilterEmbeddings(relations=p["rel"], attributes=p["attr"])
                layer = dataclasses.replace(layer_const, ln1_gain=p["ln1_gain"])
                stack = E.TransformerParams(layers=[layer], heads=heads, dim=dim)
                params = E.ChainEncoderParams(stack=stack, end_token=p["end"],
                                              lift=p["lift"])
                nets = dataclasses.replace(nets_const, w2a=p["w2a"], b2b=p["b2b"])
                reps = encode_of(chains, 2, emb, params)
                out = E.affine_transfer(reps, np.arange(len(chains)), values, nets)
                return ad.tensor_sum(ad.mul(out, mix))

            arrays = {
                "rel": random_inball(rng, 5, fdim, radius=0.4),
                "attr": random_inball(rng, 3, fdim, radius=0.4),
                "end": rng.standard_normal(dim) * 0.5,
                "lift": rng.standard_normal((fdim, dim)) * 0.5,
                "ln1_gain": rng.uniform(0.8, 1.2, dim),
                "w2a": rng.standard_normal((4, dim * dim)) * 0.1,
                "b2b": rng.standard_normal(dim) * 0.1,
            }
            check_gradients(build, arrays, tol=1e-4)
