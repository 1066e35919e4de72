import numpy as np
import pytest

from helpers import (chainless_predictions, reference_sample_tree, reference_scoped_queries,
                     reference_select_top_k)
from perfbench.workloads import WORKLOADS, tiny
from rachain import training as T
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, DatasetSplit, Query, attribute_means, build_dataset
from rachain.model import Model
from rachain.reasoner import Predictions
from rachain.retrieval import TreeOfChains


def affine_task():
    """Single-hop graph where dst = 3*src + 2, with anchor dst facts at 0 and
    64 so the normalized-space relation is a genuine affine map (about
    0.469*n + 0.031), not the identity."""
    relational = []
    train = []
    valid = []
    n = 12
    for i in range(n):
        u = 10.0 * i / (n - 1)
        relational.append((f"s{i}", "p", f"t{i}"))
        train.append((f"s{i}", "src", repr(u)))
        train.append((f"t{i}", "dst", repr(3.0 * u + 2.0)))
    for j, u in enumerate((2.5, 7.5)):
        relational.append((f"vs{j}", "p", f"vt{j}"))
        train.append((f"vs{j}", "src", repr(u)))
        valid.append((f"vt{j}", "dst", repr(3.0 * u + 2.0)))
    relational += [("anchor_lo", "p", "z0"), ("anchor_hi", "p", "z1")]
    train += [("anchor_lo", "dst", "0.0"), ("anchor_hi", "dst", "64.0")]
    return build_dataset(relational, train, valid)


def task_model(kg, split, **kw):
    base = dict(walks=16, max_hops=2, top_k=4, dim=8, filter_dim=8, layers=1,
                heads=2, affine_hidden=16, mode="combined", epochs=20,
                batch_size=4, lr=0.03, patience=50, epsilon=1e-12, seed=11,
                attributes=("dst",))
    base.update(kw)
    config = TrainConfig(**base)
    stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
    means = attribute_means(split.train, len(kg.attribute_names))
    return Model(len(kg.relation_names), len(kg.attribute_names), stats, means,
                 config)


class TestSeeds:
    def test_seed_for_is_deterministic(self):
        assert T.seed_for(3, 1, 4, 5) == T.seed_for(3, 1, 4, 5)

    def test_seed_for_separates_channels(self):
        seeds = {T.seed_for(0, c, 2, 7) for c in range(6)}
        assert len(seeds) == 6

    def test_seed_for_separates_epochs_and_indices(self):
        assert T.seed_for(0, 0, 1, 0) != T.seed_for(0, 0, 2, 0)
        assert T.seed_for(0, 0, 1, 0) != T.seed_for(0, 0, 1, 1)

    def test_seed_for_an_array_matches_seed_sequence(self):
        # words below 2**32 take the numpy pass, any larger word SeedSequence
        indices = [0, 1, 5, 2 ** 31, 2 ** 32 - 1]
        for base in (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3):
            for channel in range(7):
                for epoch in range(301):
                    got = T.seed_for(base, channel, epoch, indices)
                    assert got.dtype == np.int64
                    assert got.tolist() == [
                        int(np.random.SeedSequence([base, channel, epoch, i]).generate_state(1)[0])
                        for i in indices]

    def test_seed_for_a_scalar_and_edge_arrays(self):
        want = int(np.random.SeedSequence([7, 2, 3, 9]).generate_state(1)[0])
        assert T.seed_for(7, 2, 3, 9) == want and type(T.seed_for(7, 2, 3, 9)) is int
        assert T.seed_for(7, 2, 3, np.int64(9)) == want
        assert T.seed_for(7, 2, 3, range(8, 11)).tolist()[1] == want
        assert T.seed_for(7, 2, 3, np.array([[9], [9]])).tolist() == [[want], [want]]
        assert T.seed_for(7, 2, 3, []).shape == (0,)
        # one index past 2**32 sends the whole array to SeedSequence
        big = [9, 2 ** 32]
        assert T.seed_for(7, 2, 3, big).tolist() == [want, T.seed_for(7, 2, 3, 2 ** 32)]
        with pytest.raises(ValueError):
            T.seed_for(7, 2, 3, [9, -1])


class TestLossTerm:
    def test_l2(self):
        from rachain.autodiff import Tensor
        assert T.loss_term(Tensor(np.array(0.7)), 0.2, "l2").data == pytest.approx(0.25)

    def test_l1(self):
        from rachain.autodiff import Tensor
        assert T.loss_term(Tensor(np.array(0.1)), 0.4, "l1").data == pytest.approx(0.3)


class TestScoping:
    def test_drops_unusable_attributes(self):
        kg, split = affine_task()
        model = task_model(kg, split, attributes=None)
        stats = model.stats
        stats.counts[kg.attribute_index["src"]] = 0  # pretend src has no scale
        queries = T.scoped_queries(kg, split.train, model)
        assert all(q.attribute == kg.attribute_index["dst"] for q in queries)

    def test_scope_restricts_to_named_attributes(self):
        kg, split = affine_task()
        model = task_model(kg, split)  # scoped to dst
        queries = T.scoped_queries(kg, split.train, model)
        assert len(queries) == 14  # 12 derived + 2 anchors
        assert {q.attribute for q in queries} == {kg.attribute_index["dst"]}

    def test_unknown_scope_name_raises(self):
        kg, split = affine_task()
        model = task_model(kg, split, attributes=("dst", "nope"))
        with pytest.raises(ValueError, match="unknown attribute 'nope'"):
            T.scoped_queries(kg, split.train, model)


def bench_model(kg, split, name, scope):
    config = TrainConfig.from_dict({**tiny(WORKLOADS[name]).config, "attributes": scope})
    return Model(kg.n_relations, kg.n_attributes,
                 AttributeStats.from_triples(split.train, kg.n_attributes),
                 attribute_means(split.train, kg.n_attributes), config)


def query_fields(queries):
    """Each query's fields with their types, the target as hex, so that ==
    is bit-equality and an int never passes for a float."""
    return [(type(q.entity), q.entity, type(q.attribute), q.attribute, type(q.target),
             q.target.hex()) for q in queries]


class TestScopedQueriesMatchTupleLoop:
    """The column mask against the per-tuple scoping it replaced."""

    @pytest.mark.parametrize("scope", [["val"], None], ids=["val", "unscoped"])
    @pytest.mark.parametrize("split_name", ["train", "valid", "test"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bench_graph(self, bench_graph, name, split_name, scope):
        # every workload's tiny() graph is the shared bench graph
        assert tiny(WORKLOADS[name]).spec == tiny(WORKLOADS["train_small"]).spec
        kg, split = bench_graph
        model = bench_model(kg, split, name, scope)
        triples = getattr(split, split_name)
        got = T.scoped_queries(kg, triples, model)
        assert query_fields(got) == query_fields(reference_scoped_queries(kg, triples, model))
        assert {type(v) for q in got for v in vars(q).values()} == {int, float}
        assert got
        if split_name == "train":  # held-out splits hold only val facts
            assert len({q.attribute for q in got}) == (1 if scope else kg.n_attributes)

    def test_unusable_attribute_dropped(self, bench_graph):
        kg, split = bench_graph
        model = bench_model(kg, split, "train_small", None)
        model.stats.counts[kg.attribute_index["aux"]] = 0  # pretend aux has no scale
        got = T.scoped_queries(kg, split.train, model)
        assert query_fields(got) == query_fields(
            reference_scoped_queries(kg, split.train, model))
        assert kg.attribute_index["aux"] not in {q.attribute for q in got}
        assert len(got) < len(split.train)


class TestValidationMae:
    def test_mean_absolute_error_in_normalized_space(self):
        kg, split = affine_task()
        model = task_model(kg, split)
        dst = kg.attribute_index["dst"]
        span = model.stats.maxs[dst] - model.stats.mins[dst]
        queries = [Query(0, dst, target=model.stats.denormalize(dst, 0.5)),
                   Query(1, dst, target=model.stats.denormalize(dst, 0.9))]
        seeds = [5, 6]
        toc = model.retrieve(kg, queries, seeds)
        model.predict_trees = lambda toc, seeds: chainless_predictions(
            toc.queries, np.zeros(len(toc.queries)), np.zeros(len(toc.queries)),
            model.stats, norm=0.7)
        mae = T.validation_mae(model, toc, seeds)
        assert mae == pytest.approx((0.2 + 0.2) / 2)

    def test_empty_validation_is_nan(self):
        kg, split = affine_task()
        model = task_model(kg, split)
        assert np.isnan(T.validation_mae(model, model.retrieve(kg, [], []), []))


class TestTrainLoop:
    def test_loss_decreases_on_learnable_task(self):
        kg, split = affine_task()
        model = task_model(kg, split)
        result = T.train(model, kg, split)
        first = result.history[0].train_loss
        last = min(h.train_loss for h in result.history)
        assert first > 0.01  # the task is not solved at initialization
        assert last < 0.35 * first
        assert result.best_epoch >= 0
        assert np.isfinite(result.best_val)

    def test_two_identical_runs_match_exactly(self):
        kg, split = affine_task()
        a = T.train(task_model(kg, split, epochs=3), kg, split)
        b = T.train(task_model(kg, split, epochs=3), kg, split)
        assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
        assert [h.val_mae for h in a.history] == [h.val_mae for h in b.history]
        for pa, pb in zip(a.model.all_parameters(), b.model.all_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_cached_retrieval_trains(self):
        kg, split = affine_task()
        model = task_model(kg, split, cache_toc=True, epochs=4)
        result = T.train(model, kg, split)
        assert len(result.history) == 4
        assert all(np.isfinite(h.train_loss) for h in result.history)

    def test_zero_learning_rate_stops_as_converged(self):
        kg, split = affine_task()
        model = task_model(kg, split, lr=0.0, epochs=10)
        no_val = DatasetSplit(train=split.train, valid=[], test=[])
        result = T.train(model, kg, no_val)
        assert result.stop_reason == "converged"
        assert len(result.history) == 2
        assert result.history[0].train_loss == result.history[1].train_loss

    def test_flat_validation_stops_on_patience(self):
        kg, split = affine_task()
        model = task_model(kg, split, lr=0.0, epochs=10, patience=1)
        result = T.train(model, kg, split)
        assert result.stop_reason == "patience"
        assert len(result.history) == 2
        assert result.best_epoch == 0

    def test_best_snapshot_is_restored(self):
        kg, split = affine_task()
        model = task_model(kg, split, epochs=6, patience=50)
        before = {p.name: p.data.copy() for p in model.all_parameters()}
        result = T.train(model, kg, split)
        # the restored parameters are not the initial ones (training moved)
        assert any(not np.array_equal(before[p.name], p.data)
                   for p in model.all_parameters())
        # and validation at the restored state, on trees sampled with the
        # seeds train used, reproduces the best MAE
        queries = T.scoped_queries(kg, split.valid, model)
        seeds = [T.seed_for(model.config.seed, 1, 0, i) for i in range(len(queries))]
        mae = T.validation_mae(model, model.retrieve(kg, queries, seeds), seeds)
        assert mae == pytest.approx(result.best_val, abs=1e-12)

    def test_no_trainable_queries_raises(self):
        relational = [("a", "p", "b")]
        train = [("a", "lonely", "3.0")]  # single value: no scale
        kg, split = build_dataset(relational, train)
        model = task_model(kg, split, attributes=None)
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        model.stats = stats
        with pytest.raises(ValueError, match="no trainable queries"):
            T.train(model, kg, split)

    def test_non_finite_loss_raises_training_fault(self):
        kg, split = affine_task()
        model = task_model(kg, split, epochs=1)
        model.encoder.end_token.data[:] = np.nan
        with pytest.raises(T.TrainingFault, match=r"non-finite loss .*entity="):
            T.train(model, kg, split)

    def test_non_finite_gradient_raises_before_the_step(self, monkeypatch):
        # a NaN gradient with a finite loss: the pre-clip norm is NaN, so
        # the first step must raise and leave every parameter as it was
        kg, split = affine_task()
        model = task_model(kg, split, epochs=1)
        before = {p.name: p.data.copy() for p in model.all_parameters()}
        backward = T.backward

        def poisoned(*args, **kwargs):
            backward(*args, **kwargs)
            model.encoder.end_token.grad.flat[0] = np.nan

        monkeypatch.setattr(T, "backward", poisoned)
        with pytest.raises(T.TrainingFault, match=r"non-finite gradient norm .*epoch 0"):
            T.train(model, kg, split)
        for p in model.all_parameters():
            np.testing.assert_array_equal(p.data, before[p.name], err_msg=p.name)


class TestValidationTrees:
    def test_each_tree_is_sampled_once_per_train_call(self, monkeypatch):
        import rachain.model as model_module
        kg, split = affine_task()
        sampled = []
        sample = model_module.sample_trees

        def counting(kg, queries, *args):
            sampled.extend(queries)
            return sample(kg, queries, *args)

        monkeypatch.setattr(model_module, "sample_trees", counting)
        cached = T.train(task_model(kg, split, epochs=3), kg, split)
        val_queries = T.scoped_queries(kg, split.valid, task_model(kg, split))
        assert len(cached.history) == 3
        assert [sampled.count(q) for q in val_queries] == [1, 1]

        # the same run re-sampling every validation tree every epoch
        sampled.clear()
        validate = T.validation_mae
        monkeypatch.setattr(T, "validation_mae", lambda model, toc, seeds: validate(
            model, model.retrieve(kg, toc.queries, seeds), seeds))
        fresh = T.train(task_model(kg, split, epochs=3), kg, split)
        assert [sampled.count(q) for q in val_queries] == [4, 4]  # 1 up front + 3 epochs
        assert ([(h.train_loss, h.val_mae) for h in cached.history]
                == [(h.train_loss, h.val_mae) for h in fresh.history])


class TestSelectionSeeds:
    """Selection seeds (channel 2) are derived only when the filter is off,
    the only case that reads them."""

    def count_channel_2(self, monkeypatch):
        calls = []
        seed_for = T.seed_for

        def counting(base, channel, epoch, index):
            calls.extend([channel] * np.size(index))  # one per seed derived
            return seed_for(base, channel, epoch, index)

        monkeypatch.setattr(T, "seed_for", counting)
        return lambda: calls.count(2)

    def test_filter_on_derives_no_selection_seed(self, monkeypatch):
        kg, split = affine_task()
        count = self.count_channel_2(monkeypatch)
        T.train(task_model(kg, split, epochs=3), kg, split)
        assert count() == 0

    def test_filter_off_selects_with_the_same_seeds(self, monkeypatch):
        # every batch's selection still gets seed_for(seed, 2, epoch, query
        # index), so a filter-off run is bit-identical to one that derived
        # the seeds whatever the filter setting
        kg, split = affine_task()
        no_val = DatasetSplit(train=split.train, valid=[], test=[])
        count = self.count_channel_2(monkeypatch)
        passed = []
        select = Model.select

        def recording(self, toc, seeds):
            passed.append(list(seeds))
            return select(self, toc, seeds)

        monkeypatch.setattr(Model, "select", recording)
        model = task_model(kg, split, epochs=3, use_filter=False)
        T.train(model, kg, no_val)
        cfg, n = model.config, len(T.scoped_queries(kg, split.train, model))
        assert count() == 3 * n
        shuffle = np.random.default_rng(cfg.seed)
        want = []
        for epoch in range(3):
            order = shuffle.permutation(n).tolist()
            want += [[T.seed_for(cfg.seed, 2, epoch, qi) for qi in order[lo:lo + cfg.batch_size]]
                     for lo in range(0, n, cfg.batch_size)]
        assert passed == want


class TestPerQueryEquivalence:
    """train against the per-query retrieval, selection and validation
    predictions that its chunked calls replaced."""

    @pytest.mark.parametrize("cache_toc", [False, True])
    def test_history_matches_per_query_path(self, cache_toc, monkeypatch):
        kg, split = affine_task()
        batched = T.train(task_model(kg, split, epochs=3, cache_toc=cache_toc), kg, split)

        def retrieve(self, kg, queries, seeds):
            cfg = self.config
            return TreeOfChains.concatenate([
                reference_sample_tree(kg, q, cfg.walks, cfg.max_hops, seed)
                for q, seed in zip(queries, seeds)])

        def select(self, toc, seeds):
            cfg = self.config
            return TreeOfChains.concatenate([
                reference_select_top_k(toc.trees([i]), self.embeddings, cfg.top_k, cfg.lam)
                for i in range(len(toc.queries))])

        predict_trees = Model.predict_trees
        monkeypatch.setattr(Model, "retrieve", retrieve)
        monkeypatch.setattr(Model, "select", select)
        monkeypatch.setattr(Model, "predict_trees", lambda self, toc, seeds: (
            Predictions.concatenate([predict_trees(self, toc.trees([i]), [seed])
                                     for i, seed in enumerate(seeds)])))
        per_query = T.train(task_model(kg, split, epochs=3, cache_toc=cache_toc), kg, split)
        assert len(batched.history) == 3
        assert ([h.train_loss for h in batched.history]
                == [h.train_loss for h in per_query.history])
        np.testing.assert_allclose([h.val_mae for h in batched.history],
                                   [h.val_mae for h in per_query.history], rtol=0, atol=1e-12)


class TestHistoryCsv:
    def test_csv_shape_and_header(self):
        history = [T.EpochStats(0, 0.5, 0.25, 1.5, 10, 2),
                   T.EpochStats(1, 0.25, 0.125, 1.4, 10, 2)]
        text = T.epochs_to_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_mae,seconds,queries_used,queries_empty"
        assert len(lines) == 3
        assert lines[1].startswith("0,0.50000000,0.25000000,")
        assert lines[1].endswith(",10,2")

    def test_epoch_line(self):
        row = T.EpochStats(3, 0.5, 0.25, 1.5, 10, 2)
        assert (T.format_epoch(row)
                == "epoch    3  loss 0.500000  val_mae 0.2500  (1.5s, 10 queries)")
        no_val = T.EpochStats(3, 0.5, float("nan"), 1.5, 10, 2)
        assert T.format_epoch(no_val) == "epoch    3  loss 0.500000  (1.5s, 10 queries)"
