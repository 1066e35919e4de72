import math

import numpy as np
import pytest

from helpers import (chain_is_valid, chain_set, enumerate_all_chains, facts, out_edges,
                     reference_check_rows, reference_distinct_rows, reference_sample_tree)
from rachain import kg as K
from rachain import retrieval as R


def build(rel_rows, train_rows):
    kg, split = K.build_dataset(rel_rows, train_rows)
    return kg


def line_graph():
    # a --r--> b --s--> c, values on a and b
    return build(
        [("a", "r", "b"), ("b", "s", "c")],
        [("a", "v", "10.0"), ("b", "w", "20.0")],
    )


class TestRAChain:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one relation"):
            R.RAChain(0, (), 0, 1.0, (0,))
        with pytest.raises(ValueError, match="does not fit"):
            R.RAChain(0, (1,), 0, 1.0, (0, 1, 2))
        with pytest.raises(ValueError, match="revisits"):
            R.RAChain(0, (1, 2), 0, 1.0, (0, 1, 0))

    def test_properties(self):
        ch = R.RAChain(3, (5, 6), 1, 2.5, (9, 8, 7))
        assert ch.length == 2
        assert ch.source_entity == 9


class TestChainSet:
    @pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
    def test_chains_round_trip_hand_built_sets(self, max_hops):
        query = K.Query(50, 2)
        chains = [R.RAChain(length % 3, tuple(range(length, 0, -1)), 2, 0.5 * length,
                            tuple(range(10 * length, 11 * length + 1)))
                  for length in range(1, max_hops + 1)]
        chains += chains[::-1]
        toc = chain_set(query, chains, max_hops)
        assert toc.chains == chains
        assert toc.lengths.tolist() == [c.length for c in chains]
        # one layout: source first, -1 pads after the chain's end
        assert toc.relations.shape == (len(chains), max_hops)
        for row, path, c in zip(toc.relations, toc.entity_path, chains):
            assert row.tolist() == list(c.relations) + [-1] * (max_hops - c.length)
            assert path.tolist() == list(c.entity_path) + [-1] * (max_hops - c.length)
        assert toc.take([1, 0]).chains == chains[1::-1]

    def test_row_checks(self):
        ok = chain_set(K.Query(9, 0), [R.RAChain(0, (1, 2), 0, 1.0, (5, 6, 9))])
        R._check_rows(ok.relations, ok.entity_path)
        bad = [
            (np.array([[-1, -1]]), np.array([[5, -1, -1]])),     # no relation
            (np.array([[1, -1]]), np.array([[5, 6, 9]])),        # path too long
            (np.array([[1, 2]]), np.array([[5, 6, 5]])),         # revisit
        ]
        for relations, entity_path in bad:
            with pytest.raises(ValueError, match="not a simple path"):
                R._check_rows(relations, entity_path)


class TestRowCheck:
    """`_check_rows` compares column pairs; the sort-based check it replaced
    is the oracle."""

    def test_rejects_a_revisit_at_every_column_pair(self):
        for length in (1, 2, 3):
            relations = np.array([[1] * length + [-1] * (3 - length)])
            for i in range(length + 1):
                for j in range(i + 1, length + 1):  # (0, length): source is the query
                    path = np.array([[10, 11, 12, 13][:length + 1] + [-1] * (3 - length)])
                    path[0, j] = path[0, i]
                    with pytest.raises(ValueError, match="not a simple path"):
                        R._check_rows(relations, path)

    def test_accepts_padded_simple_paths(self):
        relations = np.array([[4, -1, -1], [4, 5, -1], [4, 5, 6]])
        entity_path = np.array([[7, 0, -1, -1], [0, 7, 3, -1], [3, 0, 7, 9]])
        R._check_rows(relations, entity_path)
        R._check_rows(relations[:0], entity_path[:0])

    def test_agrees_with_the_sort_based_check_on_random_rows(self):
        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(3000):
            width = int(rng.integers(2, 6))
            length = int(rng.integers(0, width))
            relations = np.full((1, width - 1), -1)
            relations[0, :length] = rng.integers(0, 4, size=length)
            entity_path = np.full((1, width), -1)
            filled = length + 1 if rng.random() < 0.9 else int(rng.integers(0, width + 1))
            entity_path[0, :filled] = rng.integers(0, 6, size=filled)
            verdicts = []
            for check in (R._check_rows, reference_check_rows):
                try:
                    check(relations, entity_path)
                    verdicts.append(True)
                except ValueError:
                    verdicts.append(False)
            assert verdicts[0] == verdicts[1], (relations, entity_path)
            outcomes.add(verdicts[0])
        assert outcomes == {True, False}


class TestFirstOccurrences:
    """first_occurrences against np.unique(return_index, return_inverse)."""

    @pytest.mark.parametrize("keys", [
        [], [7], [3, 3, 3, 3], [5, 0, 9, 2, 7], [-4, 2, -4, -1, 0, -9, 2],
        [np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max],
        np.random.default_rng(4).integers(-30, 30, size=5000),
    ], ids=["empty", "one", "all_equal", "all_distinct", "negative", "extremes", "repeats"])
    def test_matches_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = R.first_occurrences(keys)
        want = np.unique(keys, return_index=True, return_inverse=True)[1:]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


class TestDistinctRows:
    """distinct_rows against np.unique(axis=0)."""

    @pytest.mark.parametrize("shape,low,high", [
        ((400, 5), -1, 3), ((400, 5), -1, 40), ((300, 1), -1, 6), ((1, 4), -1, 2),
        ((0, 5), -1, 3), ((0, 1), -1, 3),
    ])
    def test_matches_np_unique_rows(self, shape, low, high):
        keys = np.random.default_rng(shape[0] + high).integers(low, high, size=shape)
        for got, want in zip(R.distinct_rows(keys), reference_distinct_rows(keys)):
            np.testing.assert_array_equal(got, want)

    def test_pattern_rows_with_pads(self):
        # (source attribute, -1-padded relations, query attribute)
        keys = np.array([[0, 3, -1, -1, 1], [0, 3, 2, -1, 1], [0, 3, -1, -1, 1],
                         [2, -1, -1, -1, 1], [0, 3, 2, -1, 0], [2, -1, -1, -1, 1]])
        first, inverse = R.distinct_rows(keys)
        np.testing.assert_array_equal(keys[first][inverse], keys)
        assert first.tolist() == [0, 4, 1, 3]  # a pad sorts before every relation
        assert inverse.tolist() == [0, 2, 0, 3, 1, 3]

    def test_overflow_raises(self):
        # spans max + 2: 2**31 * (2**32 - 1) fits in int64, 2**31 * 2**32 does not
        first, inverse = R.distinct_rows(np.array([[2 ** 31 - 2, 2 ** 32 - 3]] * 2))
        assert first.tolist() == [0] and inverse.tolist() == [0, 0]
        with pytest.raises(OverflowError, match="overflow int64"):
            R.distinct_rows(np.array([[2 ** 31 - 2, 2 ** 32 - 2]]))


class TestEnumeration:
    def test_line_graph_chains(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        chains = enumerate_all_chains(kg, query, max_hops=3)
        keyed = {(c.source_attribute, c.entity_path, c.relations) for c in chains}
        a, b, c = (kg.entity_index[n] for n in "abc")
        r, s = kg.relation_index["r"], kg.relation_index["s"]
        v, w = kg.attribute_index["v"], kg.attribute_index["w"]
        # chains are stored source -> query with base-orientation edges
        assert (w, (b, c), (s,)) in keyed
        assert (v, (a, b, c), (r, s)) in keyed
        assert len(keyed) == 2
        for ch in chains:
            assert chain_is_valid(ch, kg, query)

    def test_source_is_never_the_query_entity(self):
        kg = build([("a", "r", "b")], [("a", "v", "1.0"), ("b", "v", "2.0")])
        query = K.Query(kg.entity_index["a"], kg.attribute_index["v"])
        chains = enumerate_all_chains(kg, query, max_hops=3)
        assert all(c.source_entity != query.entity for c in chains)

    def test_hop_limit(self):
        kg = build([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")],
                   [("a", "v", "1.0")])
        query = K.Query(kg.entity_index["d"], kg.attribute_index["v"])
        assert enumerate_all_chains(kg, query, max_hops=2) == []
        assert len(enumerate_all_chains(kg, query, max_hops=3)) == 1

    def test_guard_raises(self):
        rel = [(f"e{i}", "r", f"e{j}") for i in range(8) for j in range(8) if i != j]
        kg = build(rel, [("e0", "v", "1.0")])
        query = K.Query(kg.entity_index["e7"], kg.attribute_index["v"])
        with pytest.raises(RuntimeError, match="exceeded"):
            enumerate_all_chains(kg, query, max_hops=3, max_paths=10)


class TestSampling:
    def test_sampled_chains_are_valid_and_deduplicated(self):
        rng = np.random.default_rng(5)
        rel = [(f"e{rng.integers(12)}", f"r{rng.integers(3)}", f"e{rng.integers(12)}")
               for _ in range(30)]
        rel = [(h, r, t) for h, r, t in rel if h != t]
        train = [(f"e{i}", "val", str(float(i))) for i in range(0, 12, 2)]
        train = [(e, a, v) for e, a, v in train if any(e in (h, t) for h, _, t in rel)]
        kg = build(rel, train)
        query = K.Query(kg.entity_index["e1"], kg.attribute_index["val"])
        toc = R.sample_tree(kg, query, walks=200, max_hops=3, seed=11)
        keys = [(c.source_attribute, c.entity_path, c.relations) for c in toc.chains]
        assert len(keys) == len(set(keys))
        assert len(toc) <= 200
        for ch in toc.chains:
            assert chain_is_valid(ch, kg, query)

    def test_sampled_subset_of_enumerated(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        oracle = {(c.source_attribute, c.entity_path, c.relations)
                  for c in enumerate_all_chains(kg, query, max_hops=3)}
        toc = R.sample_tree(kg, query, walks=100, max_hops=3, seed=3)
        assert all((c.source_attribute, c.entity_path, c.relations) in oracle
                   for c in toc.chains)

    def test_prefix_harvesting_emits_nested_chains(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        toc = R.sample_tree(kg, query, walks=100, max_hops=3, seed=0)
        lengths = sorted(c.length for c in toc.chains)
        assert lengths == [1, 2]  # both the 1-hop and its 2-hop extension

    def test_walks_truncate_instead_of_revisiting(self):
        # triangle: every 3-step walk would revisit its start
        kg = build([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")],
                   [("a", "v", "1.0"), ("b", "v", "2.0"), ("c", "v", "3.0")])
        query = K.Query(kg.entity_index["a"], kg.attribute_index["v"])
        toc = R.sample_tree(kg, query, walks=300, max_hops=5, seed=1)
        for ch in toc.chains:
            assert len(set(ch.entity_path)) == len(ch.entity_path)
            assert ch.length <= 2

    def test_cap_respected(self):
        # the hub's only neighbour carries 20 facts, so every walk's first hop
        # lands there and the cap falls inside its fact list, whatever the seed
        train = [("x", f"v{i}", str(float(i))) for i in range(20)]
        kg = build([("hub", "r", "x")], train)
        query = K.Query(kg.entity_index["hub"], kg.attribute_index["v0"])
        toc = R.sample_tree(kg, query, walks=5, max_hops=2, seed=0)
        assert len(toc) == 5
        attrs, values = facts(kg, kg.entity_index["x"])
        assert [(c.source_attribute, c.source_value) for c in toc.chains] == \
            list(zip(attrs[:5].tolist(), values[:5].tolist()))

    def test_deterministic_by_seed(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        a = R.sample_tree(kg, query, walks=50, max_hops=3, seed=9)
        b = R.sample_tree(kg, query, walks=50, max_hops=3, seed=9)
        assert [c.entity_path for c in a.chains] == [c.entity_path for c in b.chains]

    def test_isolated_query_gives_empty_tree(self):
        kg = build([("a", "r", "b"), ("c", "r", "d")], [("a", "v", "1.0")])
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        toc = R.sample_tree(kg, query, walks=50, max_hops=3, seed=0)
        assert len(toc) == 0
        assert toc.relations.shape == (0, 3) and toc.entity_path.shape == (0, 4)

    def test_recovery_on_small_graph(self):
        rng = np.random.default_rng(77)
        n = 15
        rel = []
        for _ in range(25):
            h, t = rng.integers(n, size=2)
            if h != t:
                rel.append((f"e{h}", f"r{rng.integers(2)}", f"e{t}"))
        train = [(f"e{i}", "v", str(float(i)))
                 for i in range(n) if any(f"e{i}" in (h, t) for h, _, t in rel)]
        kg = build(rel, train)
        query = K.Query(kg.entity_index["e0"], kg.attribute_index["v"])
        oracle = {(c.source_attribute, c.entity_path, c.relations)
                  for c in enumerate_all_chains(kg, query, max_hops=3)}
        walks = max(50 * len(oracle), 50)
        toc = R.sample_tree(kg, query, walks=walks, max_hops=3, seed=123)
        sampled = {(c.source_attribute, c.entity_path, c.relations)
                   for c in toc.chains}
        assert sampled <= oracle
        assert len(sampled) >= 0.99 * len(oracle)


def raw_graph(n_entities, n_base, triples, facts):
    """A graph built straight from id triples: edges need not come with their
    inverses, so entities can be dead ends or fully isolated."""
    return K.KnowledgeGraph(
        entity_names=[f"e{i}" for i in range(n_entities)],
        relation_names=[f"r{i}" for i in range(n_base)]
        + [f"r{i}_inv" for i in range(n_base)],
        attribute_names=["a0", "a1", "a2"],
        edges=triples,
        train_facts=K.as_facts(facts),
        num_base_relations=n_base,
    )


def random_graph(rng):
    """Small random graph with parallel edges, repeated (entity, attribute)
    facts, a triangle and a dead end; some queries are isolated."""
    n = int(rng.integers(4, 16))
    n_base = int(rng.integers(1, 4))
    triples = []
    for _ in range(int(rng.integers(n, 3 * n))):
        h, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        r = int(rng.integers(2 * n_base))
        triples.append((h, r, t))
        if rng.random() < 0.6:
            triples.append((t, (r + n_base) % (2 * n_base), h))
    for i in rng.choice(len(triples), size=3):  # parallel edges
        h, r, t = triples[i]
        triples.insert(int(rng.integers(len(triples) + 1)), (h, r, t))
        triples.append((h, int(rng.integers(2 * n_base)), t))
    a, b, c = (int(x) for x in rng.choice(n, size=3, replace=False))
    triples += [(a, 0, b), (b, 0, c), (c, 0, a)]
    dead = int(rng.integers(n))
    triples = [tr for tr in triples if tr[0] != dead]
    query = int(rng.integers(n))
    if rng.random() < 0.15:
        triples = [tr for tr in triples if query not in (tr[0], tr[2])]
    facts = []
    for e in range(n):
        for attr in range(3):
            if rng.random() < 0.5:
                facts.append((e, attr, float(rng.uniform(-5, 5))))
                if rng.random() < 0.2:
                    facts.append((e, attr, float(rng.uniform(-5, 5))))
    order = rng.permutation(len(facts))
    kg = raw_graph(n, n_base, triples, [facts[i] for i in order])
    return kg, K.Query(query, int(rng.integers(3)))


class TestEquivalence:
    """The vectorised sampler against the sequential loop it replaced."""

    def test_matches_sequential_loop_on_random_graphs(self):
        rng = np.random.default_rng(2025)
        seen = dict.fromkeys(("parallel", "repeat_fact", "dead_end", "isolated",
                              "cap_hit", "nonempty"), 0)
        for _ in range(60):
            kg, query = random_graph(rng)
            walks = int(rng.choice([1, 3, 8, 40, 200]))
            max_hops = int(rng.integers(1, 5))
            seed = int(rng.integers(2 ** 32))
            got = R.sample_tree(kg, query, walks, max_hops, seed).chains
            want = reference_sample_tree(kg, query, walks, max_hops, seed).chains
            assert got == want
            heads = np.repeat(np.arange(kg.n_entities), np.diff(kg.edge_indptr))
            pairs = set(zip(heads.tolist(), kg.edge_tail.tolist()))
            seen["parallel"] += len(kg.edge_tail) > len(pairs)
            owners = np.repeat(np.arange(kg.n_entities), np.diff(kg.fact_indptr))
            ea = set(zip(owners.tolist(), kg.fact_attr.tolist()))
            seen["repeat_fact"] += len(kg.fact_attr) > len(ea)
            seen["dead_end"] += bool(np.any(np.diff(kg.edge_indptr) == 0))
            seen["isolated"] += out_edges(kg, query.entity)[0].size == 0
            seen["cap_hit"] += len(got) == walks
            seen["nonempty"] += len(got) > 0
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("case", ["parallel", "repeat_fact", "dead_end",
                                      "triangle", "isolated", "cap_mid_walk"])
    def test_matches_sequential_loop_on_edge_cases(self, case):
        # e0 is the query; attribute 0 on e1 and e2, attributes 0-2 on e3
        facts = [(1, 0, 1.0), (2, 0, 2.0), (3, 0, 3.0), (3, 1, 4.0), (3, 2, 5.0)]
        walks, max_hops = 50, 3
        if case == "parallel":
            triples = [(0, 0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 3), (2, 2, 3)]
        elif case == "repeat_fact":
            triples = [(0, 0, 3), (3, 1, 1)]
            facts = [(3, 1, 9.0), (3, 1, 8.0), (1, 0, 1.0), (1, 0, 2.0), (1, 2, 0.5)]
        elif case == "dead_end":
            triples = [(0, 0, 1), (0, 0, 2), (2, 0, 3)]  # e1 and e3 have no out-edges
        elif case == "triangle":
            triples = [(0, 0, 1), (1, 0, 2), (2, 0, 0), (1, 2, 0), (2, 2, 1), (0, 2, 2)]
        elif case == "isolated":
            triples = [(1, 0, 2), (2, 2, 1), (3, 0, 1)]
        else:  # e3 ends the first hop with three facts, and the walk could go on
            triples = [(0, 0, 3), (3, 0, 1), (1, 0, 2)]
            walks = 2
        kg = raw_graph(4, 2, triples, facts)
        query = K.Query(0, 0)
        for seed in range(5):
            got = R.sample_tree(kg, query, walks, max_hops, seed).chains
            assert got == reference_sample_tree(kg, query, walks, max_hops, seed).chains
        if case == "isolated":
            assert got == []
        if case == "cap_mid_walk":
            assert [(c.source_attribute, c.entity_path) for c in got] == \
                [(0, (3, 0)), (1, (3, 0))]

    def test_first_hop_is_uniform_over_edge_list(self):
        # the hub's edge list: (r, x0) twice, (s, x0), (r, x1), (r_inv, x2)
        kg = build([("hub", "r", "x0"), ("hub", "r", "x0"), ("hub", "s", "x0"),
                    ("hub", "r", "x1"), ("x2", "r", "hub")],
                   [(x, "v", "1.0") for x in ("x0", "x1", "x2")])
        hub = kg.entity_index["hub"]
        rels, tails = out_edges(kg, hub)
        assert len(rels) == 5
        query = K.Query(hub, kg.attribute_index["v"])
        n = 3000
        counts: dict[tuple, int] = {}
        for seed in range(n):
            (chain,) = R.sample_tree(kg, query, walks=1, max_hops=1, seed=seed).chains
            key = (kg.invert_relation(chain.relations[0]), chain.source_entity)
            counts[key] = counts.get(key, 0) + 1
        edges = list(zip(rels.tolist(), tails.tolist()))
        assert set(counts) == set(edges)
        for edge, count in counts.items():
            p = edges.count(edge) / len(edges)
            assert abs(count - n * p) < 4 * math.sqrt(n * p * (1 - p)), (edge, count)

    def test_packed_key_overflow_raises(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        with pytest.raises(OverflowError, match="overflow int64"):
            R.sample_tree(kg, query, walks=2 ** 62, max_hops=3, seed=0)


class TestBatchedSampling:
    """sample_trees over a chunk of queries against one sequential loop per
    query: a tree must not depend on the other queries of its chunk."""

    def test_matches_per_query_loop_on_random_graphs(self):
        rng = np.random.default_rng(7)
        seen = dict.fromkeys(("cap_hit", "isolated", "repeated", "repeated_seed",
                              "nonempty"), 0)
        for _ in range(50):
            kg, query = random_graph(rng)
            walks = int(rng.choice([1, 3, 8, 40]))
            max_hops = int(rng.integers(1, 5))
            queries = [query] + [K.Query(int(rng.integers(kg.n_entities)), int(rng.integers(3)))
                                 for _ in range(int(rng.integers(0, 5)))]
            seeds = [int(s) for s in rng.integers(2 ** 32, size=len(queries))]
            if rng.random() < 0.5:  # the same query again, half the time with its seed
                i = int(rng.integers(len(queries)))
                queries.append(queries[i])
                seeds.append(seeds[i] if rng.random() < 0.5 else int(rng.integers(2 ** 32)))
            trees = R.sample_trees(kg, queries, walks, max_hops, seeds)
            assert len(trees) == len(queries)
            for query, seed, tree in zip(queries, seeds, trees):
                assert tree.query == query
                assert tree.chains == reference_sample_tree(kg, query, walks, max_hops,
                                                            seed).chains
                seen["cap_hit"] += len(tree) == walks
                seen["isolated"] += out_edges(kg, query.entity)[0].size == 0
                seen["nonempty"] += len(tree) > 0
            seen["repeated"] += len(set(queries)) < len(queries)
            seen["repeated_seed"] += len(set(zip(queries, seeds))) < len(queries)
        assert min(seen.values()) > 0, seen

    def test_matches_per_query_loop_at_chunk_scale(self):
        # 20 queries x 256 walks on a 40-entity graph: prefix keys repeat
        # within every query, and queries share entities and repeat
        rng = np.random.default_rng(31)
        n, n_base = 40, 3
        triples = []
        for _ in range(120):
            h, t = (int(x) for x in rng.choice(n, size=2, replace=False))
            r = int(rng.integers(n_base))
            triples += [(h, r, t), (t, r + n_base, h)]
        facts = [(e, int(a), float(rng.uniform(-5, 5)))
                 for e in range(n) for a in range(3) if rng.random() < 0.4]
        kg = raw_graph(n, n_base, triples, facts)
        queries = [K.Query(int(rng.integers(n)), int(rng.integers(3))) for _ in range(20)]
        seeds = [int(s) for s in rng.integers(2 ** 32, size=len(queries))]
        walks, max_hops = 256, 3
        trees = R.sample_trees(kg, queries, walks, max_hops, seeds)
        for query, seed, tree in zip(queries, seeds, trees):
            assert tree.chains == reference_sample_tree(kg, query, walks, max_hops,
                                                        seed).chains
        assert len(set(queries)) < len(queries)
        assert sum(len(tree) for tree in trees) > 20 * len(queries)

    def test_repeated_and_isolated_queries_in_one_chunk(self):
        # e0 -> e3 -> e1 -> e2; e3 holds three facts, so two walks cap a tree
        kg = raw_graph(5, 1, [(0, 0, 3), (3, 0, 1), (1, 0, 2)],
                       [(1, 0, 1.0), (2, 0, 2.0), (3, 0, 3.0), (3, 1, 4.0), (3, 2, 5.0)])
        q, isolated = K.Query(0, 0), K.Query(4, 1)
        queries, seeds = [q, isolated, q, q], [3, 3, 3, 4]
        trees = R.sample_trees(kg, queries, 2, 3, seeds)
        for query, seed, tree in zip(queries, seeds, trees):
            assert tree.chains == reference_sample_tree(kg, query, 2, 3, seed).chains
        assert len(trees[0]) == len(trees[2]) == 2 and len(trees[1]) == 0
        assert trees[1].relations.shape == (0, 3)
        assert trees[1].entity_path.shape == (0, 4)
        assert R.sample_trees(kg, [], 2, 3, []) == []

    def test_sample_tree_is_the_one_query_case(self):
        kg, query = random_graph(np.random.default_rng(3))
        (tree,) = R.sample_trees(kg, [query], 40, 3, [5])
        assert R.sample_tree(kg, query, 40, 3, 5).chains == tree.chains

    def test_packed_key_overflow_counts_every_walk_of_the_chunk(self):
        kg = line_graph()
        query = K.Query(kg.entity_index["c"], kg.attribute_index["v"])
        walks = 2 ** 59  # one query's keys fit in int64; two queries' do not
        R._check_packable(walks, kg.n_relations, kg.n_entities)
        with pytest.raises(OverflowError, match="overflow int64"):
            R.sample_trees(kg, [query, query], walks, 3, [0, 1])
