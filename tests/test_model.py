import itertools
import json
import tracemalloc

import numpy as np
import pytest

from helpers import (
    chain_set,
    force_transfer_plan,
    recorded_plans,
    reference_forward,
    reference_parameters,
    reference_top_patterns,
    reference_traces,
)
from perfbench.workloads import WORKLOADS, tiny
from rachain import autodiff as ad
from rachain import evaluation, reasoner, training
from rachain.config import PROJECTION_MODES, TrainConfig
from rachain.filter import chain_scores, select_random_k, select_top_k
from rachain.kg import (AttributeStats, DatasetSplit, Query, as_facts, attribute_means,
                        build_dataset)
from rachain.model import Model, load_checkpoint, save_checkpoint
from rachain.reasoner import ChainContribution, PredictionTrace
from rachain.retrieval import RAChain, TreeOfChains, sample_tree


def small_config(**kw):
    base = dict(walks=64, max_hops=3, top_k=8, dim=8, filter_dim=6, layers=1,
                heads=2, affine_hidden=16, epochs=2, batch_size=4, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def make_stats():
    # attribute 0 spans [0, 10], attribute 1 spans [5, 9], attribute 2 unseen
    triples = as_facts([(0, 0, 0.0), (1, 0, 10.0), (0, 1, 5.0), (1, 1, 9.0)])
    return AttributeStats.from_triples(triples, 3), attribute_means(triples, 3)


def make_model(**kw):
    stats, means = make_stats()
    config = small_config(**kw)
    return Model(n_relations=6, n_attributes=3, stats=stats, means=means,
                 config=config)


def make_chain(src_attr, relations, value, path_start, query_attr=1):
    path = tuple(range(path_start, path_start + len(relations) + 1))
    return RAChain(src_attr, tuple(relations), query_attr, value, path)


def mixed_etoc():
    chains = [
        make_chain(0, (1, 2), 2.5, 0),      # norm 0.25
        make_chain(1, (3,), 6.0, 10),       # norm 0.25
        make_chain(0, (0, 4, 2), 7.5, 20),  # norm 0.75
        make_chain(1, (2,), 8.0, 30),       # norm 0.75
    ]
    return chain_set(Query(99, 1), chains)


class TestForward:
    def test_contract_and_identity_opening(self):
        model = make_model(mode="scaling")
        etoc = mixed_etoc()
        result = model.forward(etoc)
        assert result is not None
        assert result.omega.shape == result.proposals.shape == (4,)
        assert result.omega.sum() == pytest.approx(1.0, abs=1e-12)
        # at initialization each proposal is exactly its normalized source value
        np.testing.assert_array_equal(result.proposals, [0.25, 0.25, 0.75, 0.75])
        assert result.prediction.data[0] == pytest.approx(
            float(result.omega @ result.proposals), abs=1e-12)

    def test_chain_order_preserved_across_length_groups(self):
        model = make_model(mode="translation")
        etoc = mixed_etoc()
        result = model.forward(etoc)
        assert result.chains.chains == etoc.chains
        # translation opens as the identity too, so order is observable
        np.testing.assert_array_equal(result.proposals, [0.25, 0.25, 0.75, 0.75])

    def test_unusable_sources_are_dropped(self):
        model = make_model()
        chains = [make_chain(0, (1,), 5.0, 0),
                  make_chain(2, (3,), 1.0, 10)]  # attribute 2 has no stats
        result = model.forward(chain_set(Query(99, 1), chains))
        assert result.chains.chains == [chains[0]]
        assert result.omega.shape == (1,)

    def test_none_when_nothing_usable(self):
        model = make_model()
        chains = [make_chain(2, (3,), 1.0, 10)]
        assert model.forward(chain_set(Query(99, 1), chains)) is None

    def test_mean_pooling_variant_runs(self):
        model = make_model(use_chain_encoder=False)
        result = model.forward(mixed_etoc())
        assert result is not None
        assert result.omega.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_pooling_matches_each_chain_pooled_alone(self, monkeypatch):
        # without the chain encoder a representation is the mean of the
        # chain's own tokens, so left-padding it into a batch changes nothing
        import rachain.model as model_module
        pooled = []
        transfer = model_module.affine_transfer

        def capture(reps, *args):
            pooled.append(reps.data.copy())
            return transfer(reps, *args)

        monkeypatch.setattr(model_module, "affine_transfer", capture)
        model = make_model(use_chain_encoder=False)
        etoc = mixed_etoc()
        model.forward(etoc)
        (batch,) = pooled
        for i, chain in enumerate(etoc.chains):
            model.forward(chain_set(etoc.queries[0], [chain]))
            np.testing.assert_allclose(batch[i], pooled[-1][0], rtol=0, atol=1e-12)

    def test_uniform_weights_without_chain_weighting(self):
        model = make_model(use_chain_weighting=False)
        result = model.forward(mixed_etoc())
        np.testing.assert_array_equal(result.omega, np.full(4, 0.25))


def _kick_zero_opens(model, rng):
    """Zero-initialized readout layers block upstream gradients on the very
    first step; nudge them so one backward pass reaches every parameter."""
    for p in model.parameters():
        if not np.any(p.data != 0.0) or p.name.endswith(("w2", "w2a", "w2b")):
            p.data = p.data + rng.normal(scale=0.01, size=p.data.shape)


VARIANTS = pytest.mark.parametrize("kw", [
    dict(mode="scaling"),
    dict(mode="translation"),
    dict(mode="combined"),
    dict(mode="direct"),
    dict(use_chain_encoder=False),
    dict(use_numerical_aware=False),
    dict(use_chain_weighting=False),
], ids=["scaling", "translation", "combined", "direct",
        "no_chain_encoder", "no_numerical_aware", "no_chain_weighting"])


def mixed_batch():
    """Five queries: chain counts 4, 0 usable, 2 of 3 usable, 1 and 6, of
    lengths 1 to 3, over both usable attributes."""
    full = mixed_etoc()
    unusable = chain_set(Query(98, 0), [make_chain(2, (3,), 1.0, 40)])
    part = chain_set(Query(97, 0), [make_chain(1, (2, 5), 7.0, 50, query_attr=0),
                                    make_chain(2, (1,), 4.0, 60, query_attr=0),
                                    make_chain(0, (4,), 9.0, 70, query_attr=0)])
    single = chain_set(Query(96, 1), [make_chain(0, (5, 1, 0), 1.0, 80)])
    many = chain_set(Query(95, 1), [make_chain(i % 2, (i % 6,) * (1 + i % 3),
                                               5.0 + 0.5 * i, 100 + 10 * i)
                                    for i in range(6)])
    return TreeOfChains.concatenate([full, unusable, part, single, many])


def pattern_batch():
    """Four queries whose chains repeat patterns: (0, (1, 2)) twice in the
    first query with different paths and values and again in the third, the
    relations (1, 2) under source attributes 0 and 1 and under query
    attributes 1 and 0, and pad slots in the treeformer's last three rows
    (k = 4)."""
    first = chain_set(Query(90, 1), [make_chain(0, (1, 2), 2.5, 0),
                                     make_chain(0, (1, 2), 7.5, 10),
                                     make_chain(1, (1, 2), 6.0, 20),
                                     make_chain(0, (3,), 1.0, 30)])
    second = chain_set(Query(91, 0), [make_chain(0, (1, 2), 5.0, 40, query_attr=0),
                                      make_chain(1, (1, 2), 8.0, 50, query_attr=0),
                                      make_chain(2, (4,), 1.0, 60, query_attr=0)])
    third = chain_set(Query(92, 1), [make_chain(0, (1, 2), 9.0, 70)])
    fourth = chain_set(Query(93, 0), [make_chain(1, (5,), 7.0, 80, query_attr=0)])
    return TreeOfChains.concatenate([first, second, third, fourth])


def assert_matches_reference(model, etoc, targets):
    """Model.forward over the batch's record against
    `helpers.reference_forward` per query: the queries predicted, chains,
    predictions, omega, proposals and the gradients of the 1/B-seeded squared
    loss, all within 1e-10. Returns the result."""
    result = model.forward(etoc)
    used = np.flatnonzero(result.chains.sizes)
    b = len(used)
    loss = ad.tensor_sum(ad.square(ad.sub(result.prediction, targets[used])))
    ad.backward(loss, seed=1.0 / b)
    batched = {p.name: p.grad.copy() for p in model.parameters()}

    for p in model.parameters():
        p.grad = None
    for i in range(len(etoc.queries)):
        if i not in used:
            assert reference_forward(model, etoc, i) is None
    for j, i in enumerate(used.tolist()):
        prediction, omega, proposals, chains = reference_forward(model, etoc, i)
        rows = slice(*result.chains.offsets[i:i + 2])
        assert result.chains.trees([i]).chains == chains
        np.testing.assert_allclose(result.prediction.data[j], prediction.data,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.omega[rows], omega.data, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.proposals[rows], proposals.data,
                                   rtol=0, atol=1e-10)
        ad.backward(ad.square(ad.sub(prediction, targets[i])), seed=1.0 / b)
    for p in model.parameters():
        np.testing.assert_allclose(batched[p.name], p.grad, rtol=0, atol=1e-10,
                                   err_msg=p.name)
    return result


class TestBatchedEquivalence:
    """The batched forward against the per-query forward it replaced
    (`helpers.reference_forward`), row by row and in the gradients."""

    @VARIANTS
    def test_matches_per_query_forward(self, kw, rng):
        model = make_model(**kw)
        _kick_zero_opens(model, rng)
        etoc = mixed_batch()
        result = assert_matches_reference(model, etoc, rng.uniform(0.0, 1.0, 5))
        assert result.chains.sizes.tolist() == [4, 0, 2, 1, 6]
        assert result.prediction.shape == (4,)

    @VARIANTS
    def test_pattern_side_transfer_matches_per_query_forward(self, kw, rng, monkeypatch):
        force_transfer_plan(monkeypatch, "pattern")
        model = make_model(**kw)
        _kick_zero_opens(model, rng)
        assert_matches_reference(model, pattern_batch(), rng.uniform(0.0, 1.0, 4))

    @VARIANTS
    def test_split_transfer_matches_per_query_forward(self, kw, rng, monkeypatch):
        force_transfer_plan(monkeypatch, "split")
        ran = recorded_plans(monkeypatch)
        model = make_model(**kw)
        _kick_zero_opens(model, rng)
        assert_matches_reference(model, pattern_batch(), rng.uniform(0.0, 1.0, 4))
        # the value 1.0 serves two patterns, and (0, (1, 2)) three values
        assert ran == (["split"] if kw.get("use_numerical_aware", True) else [])

    @VARIANTS
    def test_encodes_each_distinct_pattern_once(self, kw, rng, monkeypatch):
        import rachain.model as model_module
        # the mean-pool variant tokenizes the patterns without the encoder
        name = "encode_chains" if kw.get("use_chain_encoder", True) else "chain_tokens"
        inner = getattr(model_module, name)
        received = []

        def recording(source_attribute, relations, query_attributes, *args, **kwargs):
            qa = np.broadcast_to(query_attributes, source_attribute.shape)
            received.extend(zip(source_attribute.tolist(), map(tuple, relations.tolist()),
                                qa.tolist()))
            return inner(source_attribute, relations, query_attributes, *args, **kwargs)

        monkeypatch.setattr(model_module, name, recording)
        model = make_model(**kw)
        _kick_zero_opens(model, rng)
        assert_matches_reference(model, pattern_batch(), rng.uniform(0.0, 1.0, 4))

        expected = {(0, (1, 2, -1), 1), (1, (1, 2, -1), 1), (0, (3, -1, -1), 1),
                    (0, (1, 2, -1), 0), (1, (1, 2, -1), 0), (1, (5, -1, -1), 0)}
        assert sorted(received) == sorted(expected)

    @VARIANTS
    def test_per_chain_layers_see_only_the_used_chains(self, kw, monkeypatch):
        # 13 used chains in a (4, 6) slot layout: only the treeformer pads
        import rachain.model as model_module
        received = {}

        def recording(name):
            inner = getattr(model_module, name)

            def wrapper(reps, *args):
                received[name] = reps.shape
                return inner(reps, *args)
            monkeypatch.setattr(model_module, name, wrapper)

        recording("affine_transfer")
        recording("project_values")
        model = make_model(**kw)
        result = model.forward(mixed_batch())
        m, dim = len(result.chains), model.config.dim
        assert m == 13 and result.omega.shape == result.proposals.shape == (m,)
        want = {"project_values": (m, dim)}
        if model.config.use_numerical_aware:
            want["affine_transfer"] = (m, dim)
        assert received == want


class TestGradientCoverage:
    @VARIANTS
    def test_every_trainable_parameter_gets_gradient(self, kw, rng):
        model = make_model(**kw)
        _kick_zero_opens(model, rng)
        result = model.forward(mixed_etoc())
        loss = ad.square(ad.sub(result.prediction, 0.3))
        ad.backward(loss)
        for p in model.parameters():
            assert p.grad is not None, f"{p.name} missing gradient"
            assert np.any(p.grad != 0.0), f"{p.name} gradient identically zero"

    def test_ablations_shrink_the_trainable_set(self):
        full = {p.name for p in make_model().parameters()}
        no_enc = {p.name for p in make_model(use_chain_encoder=False).parameters()}
        no_num = {p.name for p in make_model(use_numerical_aware=False).parameters()}
        no_wgt = {p.name for p in make_model(use_chain_weighting=False).parameters()}
        assert {n for n in full - no_enc if n.startswith("enc.layer")}
        assert "enc.lift" in no_enc  # lift survives: widths still differ
        assert all(n.startswith("affine.") for n in full - no_num)
        assert all(n.startswith("tree.") for n in full - no_wgt)

    def test_all_parameters_superset_and_unique_names(self):
        model = make_model()
        names = [p.name for p in model.all_parameters()]
        assert len(names) == len(set(names))
        assert {p.name for p in model.parameters()} <= set(names)

    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    def test_walked_lists_match_hand_written_lists(self, mode):
        """Every switch setting, with and without the lift, at one and two
        layers: the same objects in the same order (clip_global_norm sums
        the squared gradients in this order)."""
        for enc, num, wgt, filter_dim, layers in itertools.product(
                (True, False), (True, False), (True, False), (6, 8), (1, 2)):
            model = make_model(mode=mode, use_chain_encoder=enc, use_numerical_aware=num,
                               use_chain_weighting=wgt, filter_dim=filter_dim,
                               layers=layers)
            assert (model.encoder.lift is None) == (filter_dim == model.config.dim)
            for trained, walked in ((True, model.parameters()),
                                    (False, model.all_parameters())):
                expected = reference_parameters(model, trained)
                assert len(walked) == len(expected)
                assert all(a is b for a, b in zip(walked, expected))


def tiny_graph():
    relational = [
        ("a", "r", "b"), ("b", "s", "q"), ("c", "t", "q"), ("d", "s", "q"),
        ("x", "r", "y"),  # separate component, no attributed entities
    ]
    train = [("a", "height", "10"), ("c", "height", "30"),
             ("d", "weight", "5"), ("q", "weight", "7")]
    return build_dataset(relational, train)


class TestPredict:
    def test_predict_builds_trace_from_chains(self):
        kg, split = tiny_graph()
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        model = Model(len(kg.relation_names), len(kg.attribute_names), stats,
                      means, small_config(top_k=4))
        q = Query(kg.entity_index["q"], kg.attribute_index["weight"])
        trace = model.predict(kg, q, seed=1)
        assert trace.fallback is None
        assert trace.contributions
        assert sum(c.weight for c in trace.contributions) == pytest.approx(1.0)
        lo = min(c.proposal_value for c in trace.contributions)
        hi = max(c.proposal_value for c in trace.contributions)
        assert lo - 1e-9 <= trace.predicted_value <= hi + 1e-9

    def test_predict_falls_back_to_attribute_mean(self):
        kg, split = tiny_graph()
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        model = Model(len(kg.relation_names), len(kg.attribute_names), stats,
                      means, small_config())
        q = Query(kg.entity_index["x"], kg.attribute_index["height"])
        trace = model.predict(kg, q, seed=1)
        assert trace.fallback == "attribute-mean"
        assert trace.predicted_value == pytest.approx(20.0)  # mean(10, 30)
        assert trace.contributions == []

    def test_predict_leaves_no_gradients_behind(self):
        kg, split = tiny_graph()
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        model = Model(len(kg.relation_names), len(kg.attribute_names), stats,
                      means, small_config(top_k=4))
        q = Query(kg.entity_index["q"], kg.attribute_index["weight"])
        model.predict(kg, q, seed=1)
        assert all(p.grad is None for p in model.all_parameters())


def random_dataset(rng, n=40):
    """A random graph with two attributes on about half of its entities, and
    an edge x -> y apart from it whose ends hold no fact."""
    relational = [(f"e{h}", f"r{int(rng.integers(3))}", f"e{t}")
                  for h, t in (rng.choice(n, size=2, replace=False) for _ in range(3 * n))]
    used = sorted({e for h, _, t in relational for e in (h, t)})
    train = [(e, f"a{a}", repr(float(rng.uniform(0, 10))))
             for e in used for a in range(2) if rng.random() < 0.5]
    return build_dataset(relational + [("x", "r0", "y")],
                         train + [(used[0], "a0", "0.0"), (used[1], "a0", "10.0"),
                                  (used[0], "a1", "0.0"), (used[1], "a1", "10.0")])


class TestPredictBatch:
    """Model.predict_batch against one Model.predict per query."""

    @pytest.mark.parametrize("kw", [dict(), dict(use_filter=False),
                                    dict(use_chain_weighting=False)],
                             ids=["filter", "no_filter", "no_weighting"])
    def test_matches_predict(self, kw, rng):
        kg, split = random_dataset(rng)
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        model = Model(len(kg.relation_names), len(kg.attribute_names), stats, means,
                      small_config(walks=32, top_k=6, batch_size=4, **kw))
        _kick_zero_opens(model, rng)
        isolated = Query(kg.entity_index["x"], kg.attribute_index["a1"])
        queries = [Query(int(rng.integers(40)), int(rng.integers(2))) for _ in range(9)]
        queries += [isolated, queries[0]]
        seeds = [int(s) for s in rng.integers(2 ** 32, size=len(queries))]
        seeds[-1] = seeds[0]
        batched = model.predict_batch(kg, queries, seeds)
        assert len(batched) == len(queries)
        fallbacks = 0
        for i, (query, seed) in enumerate(zip(queries, seeds)):
            got, want = batched.trace(i), model.predict(kg, query, seed)
            assert got.query == query and got.fallback == want.fallback
            fallbacks += got.fallback is not None
            assert got.predicted_norm == pytest.approx(want.predicted_norm, rel=0, abs=1e-10)
            assert got.predicted_value == pytest.approx(want.predicted_value, rel=1e-10)
            got_map = {c.chain: (c.weight, c.proposal_norm, c.proposal_value)
                       for c in got.contributions}
            want_map = {c.chain: (c.weight, c.proposal_norm, c.proposal_value)
                        for c in want.contributions}
            assert got_map.keys() == want_map.keys()
            for chain, values in got_map.items():
                np.testing.assert_allclose(values, want_map[chain], rtol=1e-10, atol=1e-10)
        assert 0 < fallbacks < len(queries)
        assert all(p.grad is None for p in model.all_parameters())

    def test_reports_the_prediction_the_forward_trains(self, bench_graph):
        # train_wide keeps up to 64 chains a query, so this chunk's 8 sets of
        # 11 to 32 chains pad most slot rows; a row summed over its own chains
        # alone can differ from the forward's padded sum in the last bits, as
        # it does in 2 of these 8 rows
        kg, split = bench_graph
        config = TrainConfig.from_dict(tiny(WORKLOADS["train_wide"]).config)
        model = nudged_model(kg, split, config, np.random.default_rng(61))
        queries = training.scoped_queries(kg, np.concatenate([split.test, split.valid]),
                                          model)
        seeds = list(range(len(queries)))
        got = model.predict_batch(kg, queries, seeds)
        want = []
        for c in model.chunks(len(queries)):
            with ad.no_grad():
                result = model.forward(model.select(
                    model.retrieve(kg, queries[c], seeds[c]), seeds[c]))
            sizes = result.chains.sizes
            assert sizes.min() >= 8 and sizes.min() < sizes.max()  # unequal: pad slots
            want.append(result.prediction.data)
        np.testing.assert_array_equal(got.predicted_norm[~got.fallback], np.concatenate(want))

    def test_memory_does_not_grow_with_the_chunks(self, bench_graph):
        # a chunk's trees are dropped before the next chunk is sampled, so
        # eight chunks peak about where one does
        kg, split = bench_graph
        config = TrainConfig.from_dict({**tiny(WORKLOADS["train_small"]).config,
                                        "walks": 128, "batch_size": 4, "top_k": 2,
                                        "dim": 8, "filter_dim": 8, "heads": 2,
                                        "affine_hidden": 8})
        stats = AttributeStats.from_triples(split.train, kg.n_attributes)
        model = Model(kg.n_relations, kg.n_attributes, stats,
                      attribute_means(split.train, kg.n_attributes), config)
        queries = training.scoped_queries(kg, split.train, model)[:32]
        assert len(queries) == 32

        def peak(n):
            tracemalloc.start()
            try:
                model.predict_batch(kg, queries[:n], list(range(n)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # warm-up: first-call allocations are not per chunk
        assert peak(32) <= 1.5 * peak(4)


def nudged_model(kg, split, config, rng):
    """An untrained model whose zero-opened readouts are nudged, so that
    weights and proposals differ from chain to chain."""
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    model = Model(kg.n_relations, kg.n_attributes, stats,
                  attribute_means(split.train, kg.n_attributes), config)
    _kick_zero_opens(model, rng)
    return model


def trace_key(trace):
    """A trace's fields with every float as hex, so that == is bit-equality."""
    return (trace.query, trace.fallback, trace.predicted_norm.hex(),
            trace.predicted_value.hex(),
            [(c.chain, c.weight.hex(), c.proposal_norm.hex(), c.proposal_value.hex())
             for c in trace.contributions])


def assert_predictions_match_reference(model, kg, queries, seeds):
    """predict_batch(...).trace(i), Model.predict and top_patterns against the
    per-query trace loop and the dict-accumulator ranking; returns the number
    of fallbacks."""
    got = model.predict_batch(kg, queries, seeds)
    size, cfg = model.config.batch_size, model.config
    want = [trace for lo in range(0, len(queries), size) for trace in reference_traces(
        model, model.select(model.retrieve(kg, queries[lo:lo + size], seeds[lo:lo + size]),
                            seeds[lo:lo + size]))]
    assert len(got) == len(want) == len(queries)
    assert [trace_key(got.trace(i)) for i in range(len(got))] == list(map(trace_key, want))
    assert reasoner.top_patterns(got) == reference_top_patterns(want)
    for query, seed in zip(queries, seeds):
        toc = sample_tree(kg, query, cfg.walks, cfg.max_hops, seed)
        toc = (select_top_k(toc, model.embeddings, cfg.top_k, cfg.lam) if cfg.use_filter
               else select_random_k(toc, cfg.top_k, [seed]))
        assert trace_key(model.predict(kg, query, seed)) == trace_key(
            reference_traces(model, toc)[0])
    return int(got.fallback.sum())


BENCH_CASES = [("train_small", {}), ("predict_dense", {}), ("train_wide", {}),
               ("train_small", {"use_filter": False}),
               ("train_small", {"use_chain_weighting": False}),
               ("train_small", {"mode": "direct"})]


class TestPredictionsMatchTraces:
    """The Predictions arrays against the per-query trace path they replaced,
    bit for bit."""

    @pytest.mark.parametrize("name, kw", BENCH_CASES,
                             ids=["train_small", "predict_dense", "train_wide",
                                  "no_filter", "no_weighting", "direct"])
    def test_bench_workload(self, bench_graph, name, kw):
        kg, split = bench_graph
        config = TrainConfig.from_dict({**tiny(WORKLOADS[name]).config, **kw})
        model = nudged_model(kg, split, config, np.random.default_rng(61))
        queries = training.scoped_queries(
            kg, np.concatenate([split.test, split.valid, split.train[:24]]), model)
        seeds = [training.seed_for(61, 3, 0, i) for i in range(len(queries))]
        assert len(queries) > 2 * config.batch_size
        assert assert_predictions_match_reference(model, kg, queries, seeds) == 0

    @pytest.mark.parametrize("kw", [dict(), dict(use_filter=False),
                                    dict(use_chain_weighting=False), dict(mode="direct")],
                             ids=["filter", "no_filter", "no_weighting", "direct"])
    def test_with_fallback_rows(self, kw, rng):
        kg, split = random_dataset(rng)
        model = nudged_model(kg, split, small_config(walks=32, top_k=6, batch_size=4,
                                                            **kw), rng)
        queries = [Query(int(rng.integers(40)), int(rng.integers(2))) for _ in range(9)]
        queries.insert(3, Query(kg.entity_index["x"], kg.attribute_index["a1"]))
        seeds = [int(s) for s in rng.integers(2 ** 32, size=len(queries))]
        assert assert_predictions_match_reference(model, kg, queries, seeds) > 0

    def test_no_queries(self):
        kg, split = tiny_graph()
        model = nudged_model(kg, split, small_config(), np.random.default_rng(0))
        predictions = model.predict_batch(kg, [], [])
        assert len(predictions) == 0 and predictions.chains.offsets.tolist() == [0]
        assert reasoner.top_patterns(predictions) == []


class TestTracesOnlyWhereShown:
    """Scoring, validation and explanation read the Predictions arrays and
    build no trace object; a single prediction still builds its trace. A
    chunk of queries travels as one TreeOfChains record, so the records a
    call builds do not grow with its queries."""

    TRACES = ("RAChain", "ChainContribution", "PredictionTrace")

    @pytest.fixture
    def built(self, monkeypatch):
        counts = dict.fromkeys(self.TRACES + ("TreeOfChains",), 0)

        def counting(cls, method, name):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, method, wrapper)

        counting(ChainContribution, "__init__", "ChainContribution")
        counting(PredictionTrace, "__init__", "PredictionTrace")
        counting(TreeOfChains, "__init__", "TreeOfChains")
        # RAChain objects come from TreeOfChains.chains, which skips __init__
        chains = TreeOfChains.chains.fget

        def counting_chains(toc):
            built = chains(toc)
            counts["RAChain"] += len(built)
            return built
        monkeypatch.setattr(TreeOfChains, "chains", property(counting_chains))
        return counts

    def test_scoring_builds_no_trace_object(self, bench_graph, built):
        kg, split = bench_graph
        config = TrainConfig.from_dict(tiny(WORKLOADS["train_small"]).config)
        model = nudged_model(kg, split, config, np.random.default_rng(61))
        triples = np.concatenate([split.test, split.valid])
        report = evaluation.evaluate(model, kg, triples, seed=3)
        queries = training.scoped_queries(kg, triples, model)
        seeds = list(range(len(queries)))
        mae = training.validation_mae(model, model.retrieve(kg, queries, seeds), seeds)
        patterns = evaluation.explain(model, kg, triples, seed=3)
        assert report.n_queries == len(queries) > 0 and np.isfinite(mae) and patterns
        traces = {name: built[name] for name in self.TRACES}
        assert traces == {"RAChain": 0, "ChainContribution": 0, "PredictionTrace": 0}
        trace = model.predict(kg, queries[0], seed=0)
        traces = {name: built[name] for name in self.TRACES}
        assert traces == {"RAChain": len(trace.contributions),
                          "ChainContribution": len(trace.contributions), "PredictionTrace": 1}
        assert trace.contributions

    @pytest.mark.parametrize("cache_toc", [False, True])
    def test_chain_set_records_do_not_grow_with_queries(self, bench_graph, built, cache_toc):
        kg, split = bench_graph
        # one chunk per call, so a count that grows with the queries is per query
        config = TrainConfig.from_dict({**tiny(WORKLOADS["train_small"]).config,
                                        "batch_size": 4096, "epochs": 1,
                                        "cache_toc": cache_toc})
        triples = np.concatenate([split.test, split.valid, split.train])

        def records(n):
            """The TreeOfChains records each call builds over n triples."""
            model = nudged_model(kg, split, config, np.random.default_rng(61))
            part = triples[:n]
            queries = training.scoped_queries(kg, part, model)
            seeds = list(range(len(queries)))
            toc = model.retrieve(kg, queries, seeds)
            calls = {
                "evaluate": lambda: evaluation.evaluate(model, kg, part, seed=3),
                "validation_mae": lambda: training.validation_mae(model, toc, seeds),
                "explain": lambda: evaluation.explain(model, kg, part, seed=3),
                "train": lambda: training.train(model, kg, DatasetSplit(
                    train=part, valid=part, test=part[:0])),
            }
            counts = {}
            for name, call in calls.items():
                before = built["TreeOfChains"]
                call()
                counts[name] = built["TreeOfChains"] - before
            return len(queries), counts

        (few, small), (many, large) = records(12), records(len(triples))
        assert 0 < few < many and min(small.values()) > 0
        assert small == large


class TestSelect:
    def test_filtered_selection_is_sorted_and_deterministic(self):
        model = make_model(top_k=2)
        toc = chain_set(Query(99, 1), mixed_etoc().chains)
        a = model.select(toc, [0])
        b = model.select(toc, [5])  # seed irrelevant when filtering
        assert [c.entity_path for c in a.chains] == [c.entity_path for c in b.chains]
        assert len(a) == 2
        scores = chain_scores(a.source_attribute, a.relations, 1, model.embeddings)
        assert np.all(np.diff(scores) >= 0)

    def test_unfiltered_selection_uses_seed(self):
        model = make_model(top_k=2, use_filter=False)
        toc = chain_set(Query(99, 1), mixed_etoc().chains)
        a = model.select(toc, [3])
        b = model.select(toc, [3])
        assert [c.entity_path for c in a.chains] == [c.entity_path for c in b.chains]
        assert len(a) == 2


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a, b = make_model(), make_model()
        for pa, pb in zip(a.all_parameters(), b.all_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_parameters(self):
        a, b = make_model(seed=7), make_model(seed=8)
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.all_parameters(), b.all_parameters()))


class TestState:
    def test_round_trip_copies_the_arrays(self):
        a, b = make_model(seed=7), make_model(seed=8)
        state = a.state()
        b.load_state(state)
        for arr in state.values():
            arr += 1.0  # neither model shares the arrays it gave or took
        for pa, pb in zip(a.all_parameters(), b.all_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert not np.array_equal(pa.data, state[pa.name])

    def test_mismatch_rejected_before_any_change(self):
        model = make_model()
        before = model.state()
        with pytest.raises(ValueError, match=r"missing \[\], surplus \['extra'\]"):
            model.load_state({**before, "extra": np.zeros(1)})
        moved = {name: arr + 1.0 for name, arr in before.items()}
        moved["tree.w_out"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch for tree.w_out"):
            model.load_state(moved)
        after = model.state()
        assert all(np.array_equal(after[name], arr) for name, arr in before.items())

    def test_duplicate_name_rejected(self):
        model = make_model()
        model.tree.w_out.name = model.tree.length_table.name
        with pytest.raises(ValueError, match="duplicate parameter name 'tree.lengths'"):
            model.state()


class TestCheckpoint:
    def roundtrip(self, tmp_path, **kw):
        model = make_model(**kw)
        rng = np.random.default_rng(0)
        for p in model.all_parameters():
            p.data = p.data + rng.normal(scale=0.01, size=p.data.shape)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, extra={"note": "hello"})
        return model, path

    def test_round_trip_restores_everything(self, tmp_path):
        model, path = self.roundtrip(tmp_path)
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "hello"}
        assert loaded.config == model.config
        orig = {p.name: p.data for p in model.all_parameters()}
        for p in loaded.all_parameters():
            np.testing.assert_array_equal(p.data, orig[p.name])
        np.testing.assert_array_equal(loaded.stats.mins, model.stats.mins)
        np.testing.assert_array_equal(loaded.stats.maxs, model.stats.maxs)
        np.testing.assert_array_equal(loaded.means, model.means)

    def test_round_trip_preserves_predictions(self, tmp_path):
        model, path = self.roundtrip(tmp_path, mode="combined")
        loaded, _ = load_checkpoint(path)
        etoc = mixed_etoc()
        with ad.no_grad():
            a = model.forward(etoc).prediction.data
            b = loaded.forward(etoc).prediction.data
        np.testing.assert_array_equal(a, b)

    def test_missing_parameter_detected(self, tmp_path):
        _, path = self.roundtrip(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        del arrays["param:tree.w_out"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="missing.*tree.w_out"):
            load_checkpoint(path)

    def test_shape_mismatch_detected(self, tmp_path):
        _, path = self.roundtrip(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["n_relations"] += 1
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(path)
