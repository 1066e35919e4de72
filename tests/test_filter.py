import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    affinity_score,
    assert_same_tree,
    chain_set,
    embed_chain,
    fold_relations,
    oracle_distance,
    oracle_mobius,
    reference_chain_scores,
    reference_select_top_k,
    score_ranks,
    top_k_order,
    tree_arrays,
)
from perfbench.workloads import WORKLOADS, tiny
from rachain import filter as F
from rachain import training
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, Query, attribute_means
from rachain.model import Model
from rachain.retrieval import RAChain, TreeOfChains, sample_tree


def make_embeddings(rng, n_relations=6, n_attributes=4, dim=5):
    return F.FilterEmbeddings.create(rng, n_relations, n_attributes, dim)


def make_chain(src_attr, relations, value=1.0, path_start=100):
    path = tuple(range(path_start, path_start + len(relations) + 1))
    return RAChain(src_attr, tuple(relations), 0, value, path)


class TestFold:
    def test_fold_matches_scalar_oracle(self, rng):
        emb = make_embeddings(rng)
        rows = emb.relations.data[[0, 3, 1]]
        folded = fold_relations(rows[None])[0]
        expected = oracle_mobius(oracle_mobius(rows[0], rows[1]), rows[2])
        np.testing.assert_allclose(folded, expected, atol=1e-12)

    def test_single_relation_folds_to_itself(self, rng):
        emb = make_embeddings(rng)
        folded = fold_relations(emb.relations.data[[2]][None])[0]
        np.testing.assert_allclose(folded, emb.relations.data[2], atol=0)

    def test_embed_chain_uses_chain_relations(self, rng):
        emb = make_embeddings(rng)
        chain = make_chain(1, (4, 2))
        expected = oracle_mobius(emb.relations.data[4], emb.relations.data[2])
        np.testing.assert_allclose(embed_chain(chain, emb), expected, atol=1e-12)

    def test_fold_order_matters(self, rng):
        emb = make_embeddings(rng)
        ab = embed_chain(make_chain(0, (0, 1)), emb)
        ba = embed_chain(make_chain(0, (1, 0)), emb)
        assert not np.allclose(ab, ba)


class TestAffinity:
    def test_score_formula(self, rng):
        emb = make_embeddings(rng)
        chain = make_chain(2, (1, 5))
        lam = 0.3
        fold = oracle_mobius(emb.relations.data[1], emb.relations.data[5])
        expected = (lam * oracle_distance(emb.attributes.data[2], emb.attributes.data[3])
                    + (1 - lam) * oracle_distance(fold, emb.attributes.data[3]))
        assert affinity_score(chain, 3, emb, lam) == pytest.approx(expected, abs=1e-12)

    def test_identical_source_attribute_zeroes_first_term(self, rng):
        emb = make_embeddings(rng)
        chain = make_chain(3, (0,))
        full = affinity_score(chain, 3, emb, lam=1.0)
        assert full == pytest.approx(0.0, abs=1e-12)

    def test_chain_scores_match_single_scoring(self, rng):
        emb = make_embeddings(rng)
        chains = [make_chain(rng.integers(4), tuple(rng.integers(6, size=l)),
                             path_start=10 * i)
                  for i, l in enumerate([1, 2, 3, 2, 1, 3])]
        toc = chain_set(Query(0, 1), chains)
        scores = F.chain_scores(toc.source_attribute, toc.relations, 1, emb, lam=0.5)
        for ch, s in zip(chains, scores):
            assert s == pytest.approx(affinity_score(ch, 1, emb, 0.5), abs=1e-12)

    def test_shared_pattern_shares_score(self, rng):
        emb = make_embeddings(rng)
        a = make_chain(1, (2, 3), path_start=0)
        b = make_chain(1, (2, 3), path_start=50)
        toc = chain_set(Query(0, 2), [a, b])
        scores = F.chain_scores(toc.source_attribute, toc.relations, 2, emb)
        assert scores[0] == scores[1]


def random_rows(rng, n, n_relations, n_attributes, max_hops):
    """n pattern rows (source attribute, -1-padded relations, query
    attribute) whose lengths cycle through 1..max_hops."""
    relations = rng.integers(n_relations, size=(n, max_hops))
    relations[np.arange(max_hops) >= (np.arange(n) % max_hops + 1)[:, None]] = -1
    return rng.integers(n_attributes, size=n), relations, rng.integers(n_attributes, size=n)


def ball_embeddings(rng, curvature, radius, n_relations=7, n_attributes=4, dim=6):
    """Embeddings whose rows lie within sqrt(c) * ||row|| <= radius."""
    return F.FilterEmbeddings.create(rng, n_relations, n_attributes, dim, curvature,
                                     radius / np.sqrt(curvature))


def longdouble_scores(source_attribute, relations, query_attribute, emb, lam):
    """The vector-form scores in np.longdouble, and how much each score
    stretches a rounding of its distances' arctanh arguments: lam and 1 - lam
    times each distance's derivative in its argument, (2 / sqrt(c)) / (1 -
    c ||(-x) (+) y||^2)."""
    c = np.longdouble(emb.curvature)

    def mobius(x, y):
        xy, xx, yy = ((u * v).sum(-1, keepdims=True) for u, v in ((x, y), (x, x), (y, y)))
        cross = 1 + 2 * c * xy
        return ((cross + c * yy) * x + (1 - c * xx) * y) / (cross + c * c * xx * yy)

    def distance(x, y):
        sq = c * (mobius(-x, y) ** 2).sum(-1)
        return 2 / np.sqrt(c) * np.arctanh(np.sqrt(sq)), 2 / np.sqrt(c) / (1 - sq)

    rel = np.concatenate([emb.relations.data, np.zeros((1, emb.dim))]).astype(np.longdouble)
    att = emb.attributes.data.astype(np.longdouble)
    folded = rel[relations[:, 0]]
    for column in relations.T[1:]:
        folded = mobius(folded, rel[column])
    (d_attr, k_attr), (d_fold, k_fold) = (distance(x, att[query_attribute])
                                          for x in (att[source_attribute], folded))
    return lam * d_attr + (1 - lam) * d_fold, lam * k_attr + (1 - lam) * k_fold


class TestGramScores:
    """chain_scores from the vocabulary's Gram matrix against the vector
    form it replaced (reference_chain_scores) and a long-double one."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 1.0, 2.0]),
           st.floats(0.01, 0.9), st.integers(1, 4), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_vector_form(self, seed, curvature, radius, max_hops, lam):
        rng = np.random.default_rng(seed)
        emb = ball_embeddings(rng, curvature, radius)
        rows = random_rows(rng, 24, 7, 4, max_hops)
        got = F.chain_scores(*rows, emb, lam)
        want = reference_chain_scores(*rows, emb, lam)
        # near the boundary arctanh stretches either form's roundings, so
        # the bound grows with the stretch
        _, stretch = longdouble_scores(*rows, emb, lam)
        tolerance = np.maximum(1e-12, 16 * np.finfo(float).eps * stretch.astype(float))
        assert np.all(np.abs(got - want) <= tolerance)

    def test_a_nan_row_gives_nan_exactly_where_it_is_used(self, rng):
        emb = ball_embeddings(rng, 1.0, 0.5)
        source, relations, query = rows = random_rows(rng, 400, 7, 4, 3)
        for table, row, used in ((emb.relations, 3, (relations == 3).any(axis=1)),
                                 (emb.attributes, 1, (source == 1) | (query == 1))):
            saved = table.data[row].copy()
            table.data[row, 2] = np.nan
            try:
                assert 0 < used.sum() < len(used)
                for lam in (0.0, 0.5, 1.0):
                    assert np.array_equal(np.isnan(F.chain_scores(*rows, emb, lam)),
                                          np.isnan(reference_chain_scores(*rows, emb, lam)))
                assert np.array_equal(np.isnan(F.chain_scores(*rows, emb)), used)
            finally:
                table.data[row] = saved

    def test_rows_and_their_patterns_score_alike_bit_for_bit(self, rng):
        # reference_select_top_k scores rows and select_top_k_batch patterns
        emb = ball_embeddings(rng, 1.0, 0.9, dim=16)
        patterns = random_patterns(rng, 12)
        toc = TreeOfChains.concatenate([random_tree(rng, Query(i, i % 4), 150, patterns)
                                        for i in range(4)])
        (source, relations, query), inverse = toc.patterns()
        by_row = F.chain_scores(toc.source_attribute, toc.relations,
                                np.repeat(toc.query_attributes, toc.sizes), emb)
        assert np.array_equal(F.chain_scores(source, relations, query, emb)[inverse], by_row)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is float64 on this platform")
    @pytest.mark.parametrize("curvature", [0.5, 1.0, 2.0])
    def test_error_against_long_double(self, curvature):
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for radius in (0.1, 0.5, 0.9):
            emb = ball_embeddings(rng, curvature, radius, 12, 5, 16)
            rows = random_rows(rng, 3000, 12, 5, 3)
            exact, stretch = longdouble_scores(*rows, emb, 0.5)
            err = np.abs(F.chain_scores(*rows, emb) - exact).astype(float)
            assert np.all(err <= 4 * eps * stretch.astype(float))
            if radius <= 0.5:
                assert err.max() <= 1e-14

    def test_a_score_does_not_depend_on_the_calls_other_rows(self, rng):
        # each Gram entry is one einsum sum whichever vocabulary rows the
        # call uses; at 600 rows of 128 a BLAS GEMM blocks, and its entries
        # move with the rows it is given
        emb = ball_embeddings(rng, 1.0, 0.9, n_relations=500, n_attributes=100, dim=128)
        rows = random_rows(rng, 3000, 500, 100, 3)
        scores = F.chain_scores(*rows, emb)
        for part in (slice(0, 1), slice(5, 9), slice(100, 400)):
            assert np.array_equal(F.chain_scores(*(r[part] for r in rows), emb), scores[part])


def toc_with_scores(rng, n):
    """A tree plus independently generated scores, with deliberate ties."""
    chains = [make_chain(int(rng.integers(3)),
                         tuple(int(r) for r in rng.integers(6, size=rng.integers(1, 4))),
                         path_start=10 * i)
              for i in range(n)]
    scores = np.round(rng.random(n), 1)  # coarse grid forces ties
    return chain_set(Query(0, 0), chains), scores


class TestTopK:
    def sort_oracle(self, scores, chains, k):
        order = sorted(range(len(chains)),
                       key=lambda i: (scores[i], chains[i].length,
                                      chains[i].entity_path, chains[i].relations,
                                      chains[i].source_attribute))
        return order[:k]

    def test_matches_sort_oracle_with_ties(self, rng):
        for _ in range(30):
            toc, scores = toc_with_scores(rng, 20)
            k = int(rng.integers(1, 25))
            assert (top_k_order(scores, toc, k).tolist()
                    == self.sort_oracle(scores, toc.chains, k))

    def test_ties_reach_relations_then_source_attribute_then_row_order(self, rng):
        # equal scores, lengths and entity paths within each group, so the
        # later sort keys decide
        by_relations = [make_chain(2, rels, path_start=0)
                        for rels in [(3, 1), (1, 4), (1, 2), (0, 5)]]
        by_source = [make_chain(src, (5,), path_start=7) for src in [3, 0, 2, 1]]
        identical = [make_chain(0, (2,), value=v, path_start=20) for v in [1.0, 2.0, 3.0]]
        chains = by_relations + by_source + identical
        perm = rng.permutation(len(chains))
        toc = chain_set(Query(0, 0), [chains[i] for i in perm])
        scores = np.full(len(chains), 0.5)
        for k in range(1, len(chains) + 1):
            assert (top_k_order(scores, toc, k).tolist()
                    == self.sort_oracle(scores, toc.chains, k))
        kept = [toc.chains[i] for i in top_k_order(scores, toc, len(chains))]
        assert [c.source_attribute for c in kept[:4]] == [0, 1, 2, 3]
        assert [c.relations for c in kept[7:]] == [(0, 5), (1, 2), (1, 4), (3, 1)]
        # identical keys keep their input order, told apart by value only
        order_in = [toc.chains[i].source_value for i in range(len(chains))
                    if toc.chains[i].entity_path == (20, 21)]
        assert [c.source_value for c in kept[4:7]] == order_in

    def test_select_top_k_subset_and_sorted(self, rng):
        emb = make_embeddings(rng)
        chains = [make_chain(int(rng.integers(4)),
                             tuple(int(r) for r in rng.integers(6, size=2)),
                             path_start=10 * i) for i in range(15)]
        toc = chain_set(Query(0, 1), chains)
        chains = toc.chains
        etoc = F.select_top_k(toc, emb, k=6)
        assert len(etoc) == 6
        assert all(ch in chains for ch in etoc.chains)
        kept = F.chain_scores(etoc.source_attribute, etoc.relations, 1, emb)
        assert np.all(np.diff(kept) >= 0)
        full = F.chain_scores(toc.source_attribute, toc.relations, 1, emb)
        assert max(kept) <= min(
            full[i] for i in range(15) if chains[i] not in etoc.chains)

    def test_k_larger_than_tree_keeps_everything(self, rng):
        emb = make_embeddings(rng)
        toc = chain_set(Query(0, 1), [make_chain(0, (1,)), make_chain(1, (2,), path_start=10)])
        etoc = F.select_top_k(toc, emb, k=10)
        assert len(etoc) == 2

    def test_empty_tree(self, rng):
        emb = make_embeddings(rng)
        etoc = F.select_top_k(chain_set(Query(0, 0), []), emb, k=5)
        assert len(etoc) == 0


def random_patterns(rng, n):
    return [(int(rng.integers(4)), tuple(int(r) for r in rng.integers(6, size=rng.integers(1, 4))))
            for _ in range(n)]


def random_tree(rng, query, n, patterns):
    """n chains over a few patterns, so scores tie: shared patterns on
    different paths, and rows that differ only in value."""
    chains = []
    for _ in range(n):
        src, rels = patterns[int(rng.integers(len(patterns)))]
        start = 10 * int(rng.integers(max(n // 2, 1)))  # repeated paths too
        chains.append(make_chain(src, rels, value=float(rng.integers(3)), path_start=start))
    return chain_set(query, chains)


class TestBatchedSelection:
    """select_top_k_batch over a chunk of trees against the per-tree
    selection it replaced."""

    def test_matches_per_tree_selection(self, rng):
        emb = make_embeddings(rng)
        for _ in range(25):
            # two query attributes; the same patterns appear under both
            patterns = random_patterns(rng, 4)
            tocs = [random_tree(rng, Query(i, int(rng.integers(1, 3))),
                                int(rng.integers(0, 30)), patterns)
                    for i in range(int(rng.integers(1, 6)))]
            k = int(rng.integers(1, 12))
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            got = F.select_top_k_batch(TreeOfChains.concatenate(tocs), emb, k, lam)
            assert got.queries == [q for toc in tocs for q in toc.queries]
            for i, toc in enumerate(tocs):
                etoc, want = got.trees([i]), reference_select_top_k(toc, emb, k, lam)
                assert etoc.queries == toc.queries
                assert etoc.chains == want.chains
                np.testing.assert_array_equal(etoc.source_value, want.source_value)
                one = F.select_top_k(toc, emb, k, lam)
                assert one.chains == want.chains

    def test_same_pattern_under_two_query_attributes(self, rng, monkeypatch):
        emb = make_embeddings(rng)
        chains = [make_chain(0, (1, 2), path_start=0), make_chain(3, (4,), path_start=10)]
        tocs = [chain_set(Query(0, 1), chains), chain_set(Query(1, 2), chains)]
        scored = []
        score = F.chain_scores

        def recording(source_attribute, relations, query_attribute, *args):
            scored.extend(zip(source_attribute.tolist(), query_attribute.tolist()))
            return score(source_attribute, relations, query_attribute, *args)

        monkeypatch.setattr(F, "chain_scores", recording)
        got = F.select_top_k_batch(TreeOfChains.concatenate(tocs), emb, k=2)
        # each pattern is scored once under each query attribute
        assert sorted(scored) == [(0, 1), (0, 2), (3, 1), (3, 2)]
        for i, toc in enumerate(tocs):
            etoc, want = got.trees([i]), reference_select_top_k(toc, emb, 2)
            assert etoc.chains == want.chains

    def test_top_k_rows_matches_sort_oracle_per_tree(self, rng):
        oracle = TestTopK().sort_oracle
        for _ in range(30):
            parts = [toc_with_scores(rng, int(rng.integers(0, 15))) for _ in range(4)]
            offsets = np.cumsum([0] + [len(toc) for toc, _ in parts])
            cat = [np.concatenate([getattr(toc, name) for toc, _ in parts])
                   for name in ("source_attribute", "relations", "entity_path")]
            scores = np.concatenate([s for _, s in parts])
            k = int(rng.integers(0, 8))
            got = F.top_k_rows(score_ranks(scores), offsets, *cat, k)
            want = [offsets[t] + i for t, (toc, s) in enumerate(parts)
                    for i in oracle(s, toc.chains, k)]
            assert got.tolist() == want


def assert_selects_like_references(toc, emb, k, lam=0.5):
    """select_top_k_batch over the record, tree by tree, against
    reference_select_top_k, TestTopK.sort_oracle (a NaN score sorting after
    every number, as lexsort places it) and select_top_k on the tree alone."""
    got = F.select_top_k_batch(toc, emb, k, lam)
    assert got.queries == toc.queries
    assert got.sizes.tolist() == np.minimum(toc.sizes, k).tolist()
    oracle = TestTopK().sort_oracle
    for i in range(len(toc.queries)):
        tree, kept = toc.trees([i]), tree_arrays(got, i)
        scores = F.chain_scores(tree.source_attribute, tree.relations,
                                tree.queries[0].attribute, emb, lam)
        by_oracle = oracle(np.where(np.isnan(scores), np.inf, scores), tree.chains, k)
        for want in (reference_select_top_k(tree, emb, k, lam), tree.take(by_oracle),
                     F.select_top_k(tree, emb, k, lam)):
            assert_same_tree(kept, tree_arrays(want, 0))
    return got


class TestSelectionEdges:
    """Chunk selection where the k-th key read and the integer score ranks
    could go wrong: NaN scores, k = 0, empty trees and exact score ties."""

    def test_nan_scores_in_trees_larger_and_smaller_than_k(self, rng):
        emb = make_embeddings(rng)
        emb.relations.data[5] = np.nan  # every chain through relation 5 scores NaN
        patterns = [(0, (5,)), (2, (1,)), (1, (2, 5)), (3, (4, 0)), (1, (3,))]
        # tree i takes the patterns in turn, on paths that repeat every 7 chains
        toc = TreeOfChains.concatenate([chain_set(Query(i, 1 + i % 2), [
            make_chain(*patterns[j % 5], value=float(j % 3), path_start=10 * (j % 7))
            for j in range(n)]) for i, n in enumerate([30, 3, 0, 12, 5])])
        nan = np.isnan(F.chain_scores(toc.source_attribute, toc.relations,
                                      toc.query_attributes[toc.tree], emb))
        for i in (0, 1, 3, 4):  # trees above and below k = 6 hold NaN and numbers
            assert 0 < nan[toc.tree == i].sum() < toc.sizes[i]
        for k in (1, 2, 4, 6, 40):
            assert_selects_like_references(toc, emb, k)

    def test_k_zero_keeps_nothing(self, rng):
        emb = make_embeddings(rng)
        patterns = random_patterns(rng, 4)
        toc = TreeOfChains.concatenate([random_tree(rng, Query(i, 1), n, patterns)
                                        for i, n in enumerate([9, 0, 1])])
        got = assert_selects_like_references(toc, emb, 0)
        assert len(got) == 0 and got.sizes.tolist() == [0, 0, 0]

    def test_all_empty_record(self, rng):
        emb = make_embeddings(rng)
        toc = TreeOfChains.concatenate([chain_set(Query(i, 0), []) for i in range(3)])
        for k in (0, 1, 5):
            got = assert_selects_like_references(toc, emb, k)
            assert got.offsets.tolist() == [0, 0, 0, 0]

    def test_empty_trees_between_full_ones(self, rng):
        emb = make_embeddings(rng)
        patterns = random_patterns(rng, 5)
        toc = TreeOfChains.concatenate([random_tree(rng, Query(i, 1 + i % 2), n, patterns)
                                        for i, n in enumerate([0, 14, 0, 0, 9, 0, 20, 0])])
        for k in (1, 3, 9, 10, 25):
            assert_selects_like_references(toc, emb, k)

    def test_different_patterns_tie_exactly(self, rng):
        # lam = 1 scores only d(source attribute, query attribute), so every
        # pattern with one source attribute ties, whatever its relations
        emb = make_embeddings(rng)
        patterns = [(src, rels) for src in (0, 2) for rels in [(1,), (3, 4), (5, 0, 2)]]
        toc = TreeOfChains.concatenate([random_tree(rng, Query(i, 1), n, patterns)
                                        for i, n in enumerate([18, 7, 25])])
        scores = F.chain_scores(toc.source_attribute, toc.relations, 1, emb, lam=1.0)
        assert np.unique(scores).size == 2
        assert np.unique(toc.relations[scores == scores.min()], axis=0).shape[0] > 1
        for k in (1, 5, 8, 30):
            assert_selects_like_references(toc, emb, k, lam=1.0)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_chunk_matches_per_tree_on_bench_graphs(self, bench_graph, name):
        kg, split = bench_graph
        config = TrainConfig.from_dict(tiny(WORKLOADS[name]).config)
        model = Model(kg.n_relations, kg.n_attributes,
                      AttributeStats.from_triples(split.train, kg.n_attributes),
                      attribute_means(split.train, kg.n_attributes), config)
        queries = training.scoped_queries(
            kg, np.concatenate([split.test, split.valid, split.train[:24]]), model)
        seeds = list(range(len(queries)))
        toc = model.retrieve(kg, queries, seeds)
        assert len(queries) > config.batch_size and len(toc) > config.top_k
        got = model.select(toc, seeds)
        for i, (query, seed) in enumerate(zip(queries, seeds)):
            tree = sample_tree(kg, query, config.walks, config.max_hops, seed)
            one = F.select_top_k(tree, model.embeddings, config.top_k, config.lam)
            assert_same_tree(tree_arrays(got, i), tree_arrays(one, 0))
        assert_selects_like_references(toc, model.embeddings, config.top_k, config.lam)


class TestRandomK:
    def test_subset_size_and_determinism(self, rng):
        chains = [make_chain(0, (1,), path_start=10 * i) for i in range(9)]
        toc = chain_set(Query(0, 0), chains)
        a = F.select_random_k(toc, 4, seeds=[3])
        b = F.select_random_k(toc, 4, seeds=[3])
        assert len(a) == 4
        assert [c.entity_path for c in a.chains] == [c.entity_path for c in b.chains]
        assert all(c in chains for c in a.chains)

    def test_different_seeds_differ(self):
        chains = [make_chain(0, (1,), path_start=10 * i) for i in range(30)]
        toc = chain_set(Query(0, 0), chains)
        a = F.select_random_k(toc, 5, seeds=[1])
        b = F.select_random_k(toc, 5, seeds=[2])
        assert ([c.entity_path for c in a.chains]
                != [c.entity_path for c in b.chains])

    def test_each_tree_draws_with_its_own_seed(self):
        sets = [[make_chain(0, (1,), path_start=10 * i + 1000 * t) for i in range(n)]
                for t, n in enumerate([7, 0, 3, 12])]
        tocs = [chain_set(Query(t, 0), chains) for t, chains in enumerate(sets)]
        seeds = [5, 6, 7, 5]
        got = F.select_random_k(TreeOfChains.concatenate(tocs), 4, seeds)
        assert got.sizes.tolist() == [4, 0, 3, 4]
        for i, (toc, seed) in enumerate(zip(tocs, seeds)):
            rows = np.random.default_rng(seed).permutation(len(toc))[:4]
            assert got.trees([i]).chains == [toc.chains[r] for r in rows]


class TestEmbeddings:
    def test_rows_start_inside_init_radius(self, rng):
        emb = F.FilterEmbeddings.create(rng, 10, 5, 8, init_radius=0.1)
        assert np.all(np.linalg.norm(emb.relations.data, axis=-1) <= 0.1)
        assert np.all(np.linalg.norm(emb.attributes.data, axis=-1) <= 0.1)
        assert emb.relations.ball == 1.0
        assert emb.dim == 8
