import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    facts,
    out_edges,
    raw_graph,
    reference_attribute_stats,
    reference_csr,
    reference_edge_canon,
    reference_first_facts,
    reference_load_dataset,
)
from rachain import kg as K


def write_dataset(tmp_path, relational, train, valid=(), test=()):
    paths = {}
    for name, rows in (("relational", relational), ("train", train),
                       ("valid", valid), ("test", test)):
        p = tmp_path / f"{name}.tsv"
        p.write_text("".join("\t".join(str(c) for c in row) + "\n" for row in rows),
                     encoding="utf-8")
        paths[name] = p
    return paths


REL = [
    ("berlin", "capital_of", "germany"),
    ("munich", "located_in", "germany"),
    ("berlin", "twinned_with", "paris"),
    ("paris", "capital_of", "france"),
]
TRAIN = [
    ("berlin", "population", "3.7"),
    ("munich", "population", "1.5"),
    ("berlin", "latitude", "52.5"),
    ("paris", "latitude", "48.9"),
]


class TestLoading:
    def test_counts_and_interning(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN,
                              valid=[("paris", "population", "2.1")],
                              test=[("germany", "latitude", "51.0")])
        kg, split = K.load_dataset(paths["relational"], paths["train"],
                                   paths["valid"], paths["test"])
        assert kg.n_entities == 5
        assert kg.num_base_relations == 3
        assert kg.n_relations == 6
        assert kg.n_attributes == 2
        assert len(kg.edge_tail) == 2 * len(REL)
        assert len(kg.fact_attr) == len(TRAIN)
        assert len(split.train) == 4
        assert len(split.valid) == 1
        assert len(split.test) == 1
        # first-appearance interning keeps ids stable
        assert kg.entity_names[0] == "berlin"
        assert kg.relation_names[:3] == ["capital_of", "located_in", "twinned_with"]
        assert kg.relation_names[3] == "capital_of" + K.INVERSE_SUFFIX

    def test_every_base_triple_has_exactly_one_inverse(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN)
        kg, _ = K.load_dataset(paths["relational"], paths["train"])
        heads = np.repeat(np.arange(kg.n_entities), np.diff(kg.edge_indptr))
        triples = list(zip(heads.tolist(), kg.edge_rel.tolist(), kg.edge_tail.tolist()))
        base = [(h, r, t) for h, r, t in triples if r < kg.num_base_relations]
        for h, r, t in base:
            inv = (t, r + kg.num_base_relations, h)
            assert triples.count(inv) == 1
        assert len(base) * 2 == len(triples)

    def test_adjacency_matches_triples(self, tmp_path):
        # each entity's edges in input order: every row's edge, then its
        # inverse; a self-loop, a parallel edge and a repeated fact stay apart
        rel = REL + [("paris", "twinned_with", "paris"), ("berlin", "capital_of", "germany")]
        train = TRAIN + [("berlin", "population", "3.8")]
        paths = write_dataset(tmp_path, rel, train)
        kg, _ = K.load_dataset(paths["relational"], paths["train"])
        ent = kg.entity_index
        edges = [[] for _ in range(kg.n_entities)]
        for h, r, t in rel:
            r = kg.relation_index[r]
            edges[ent[h]].append((r, ent[t]))
            edges[ent[t]].append((r + kg.num_base_relations, ent[h]))
        entity_facts = [[] for _ in range(kg.n_entities)]
        for e, a, v in train:
            entity_facts[ent[e]].append((kg.attribute_index[a], float(v)))
        for e in range(kg.n_entities):
            assert list(zip(*(col.tolist() for col in out_edges(kg, e)))) == edges[e]
            assert list(zip(*(col.tolist() for col in facts(kg, e)))) == entity_facts[e]

    def test_invert_relation_is_involution(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN)
        kg, _ = K.load_dataset(paths["relational"], paths["train"])
        for r in range(kg.n_relations):
            assert kg.invert_relation(kg.invert_relation(r)) == r
            assert kg.invert_relation(r) != r

    def test_heldout_values_not_in_numerical_index(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN,
                              valid=[("paris", "population", "2.1")],
                              test=[("munich", "latitude", "48.1")])
        kg, _ = K.load_dataset(paths["relational"], paths["train"],
                               paths["valid"], paths["test"])
        paris = kg.entity_index["paris"]
        munich = kg.entity_index["munich"]
        pop = kg.attribute_index["population"]
        lat = kg.attribute_index["latitude"]

        def pairs(entity):
            return list(zip(*(col.tolist() for col in facts(kg, entity))))

        assert (pop, 2.1) not in pairs(paris)
        assert (lat, 48.1) not in pairs(munich)
        assert (lat, 52.5) in pairs(kg.entity_index["berlin"])

    def test_optional_splits(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN)
        kg, split = K.load_dataset(paths["relational"], paths["train"])
        assert len(split.valid) == len(split.test) == 0
        assert split.valid.dtype == split.test.dtype == K.FACT


class TestLoadErrors:
    def test_wrong_column_count_cites_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\tr\tb\nc\tr\n", encoding="utf-8")
        with pytest.raises(K.DatasetFormatError, match=r"bad\.tsv:2"):
            K.load_dataset(p, None)

    def test_unknown_entity_cites_file_and_line(self, tmp_path):
        paths = write_dataset(tmp_path, REL, [("atlantis", "population", "1.0")])
        with pytest.raises(K.DatasetFormatError, match=r"train\.tsv:1.*atlantis"):
            K.load_dataset(paths["relational"], paths["train"])

    def test_bad_value(self, tmp_path):
        paths = write_dataset(tmp_path, REL, [("berlin", "population", "many")])
        with pytest.raises(K.DatasetFormatError, match="bad value"):
            K.load_dataset(paths["relational"], paths["train"])

    def test_nonfinite_value(self, tmp_path):
        paths = write_dataset(tmp_path, REL, [("berlin", "population", "inf")])
        with pytest.raises(K.DatasetFormatError, match="non-finite"):
            K.load_dataset(paths["relational"], paths["train"])

    def test_empty_column(self, tmp_path):
        p = tmp_path / "rel.tsv"
        p.write_text("a\t\tb\n", encoding="utf-8")
        with pytest.raises(K.DatasetFormatError, match="empty column"):
            K.load_dataset(p, None)

    @pytest.mark.parametrize("order", [1, -1], ids=["base_first", "inverse_name_first"])
    def test_relation_named_like_an_inverse(self, tmp_path, order):
        rel = [("a", "x", "b"), ("b", "x" + K.INVERSE_SUFFIX, "c")][::order]
        train = [("a", "population", "1.0")]
        match = r"relation 'x_inv' .* inverse of relation 'x'"
        with pytest.raises(K.DatasetFormatError, match=match):
            K.build_dataset(rel, train)
        paths = write_dataset(tmp_path, rel, train)
        with pytest.raises(K.DatasetFormatError, match=match):
            K.load_dataset(paths["relational"], paths["train"])

    def test_inverse_suffix_in_a_free_name_is_kept(self):
        kg, _ = K.build_dataset([("a", "x_inv", "b")], [("a", "population", "1.0")])
        assert kg.relation_names == ["x_inv", "x_inv_inv"]
        assert kg.relation_index == {"x_inv": 0, "x_inv_inv": 1}


def write_raw(directory, **texts):
    """Each keyword's text written byte for byte (CRLF kept) to <name>.tsv."""
    directory.mkdir(exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.tsv"
        paths[name].write_bytes(text.encode("utf-8"))
    return paths


REL_TEXT = "berlin\tcapital_of\tgermany\nparis\tcapital_of\tfrance\n"


class TestLoadErrorMessages:
    """Every DatasetFormatError message, compared whole."""

    def check(self, expected, *paths):
        with pytest.raises(K.DatasetFormatError) as info:
            K.load_dataset(*paths)
        assert str(info.value) == expected.format(*map(str, paths))

    @pytest.mark.parametrize("text, expected", [
        ("a\tr\tb\nc\tr\n", "{0}:2: expected 3 tab-separated columns, got 2"),
        ("a\tr\tb\nc\tr\td\te", "{0}:2: expected 3 tab-separated columns, got 4"),
        ("a\tr\tb\n   \n", "{0}:2: expected 3 tab-separated columns, got 1"),
        ("a\tr\tb\r\n\r\nc\tr\r\n", "{0}:3: expected 3 tab-separated columns, got 2"),
        ("a\tr\tb\n\n\na\t\tb\n", "{0}:4: empty column"),
        ("\t\t\n", "{0}:1: empty column"),
        ("a\tr\tb\r\nc\tr\t\r\n", "{0}:2: empty column"),
    ], ids=["short", "long_no_final_newline", "whitespace_only", "crlf_after_blank",
            "empty_after_blanks", "all_empty", "crlf_empty_last"])
    def test_relational_rows(self, tmp_path, text, expected):
        paths = write_raw(tmp_path, rel=text)
        self.check(expected, paths["rel"], None)

    @pytest.mark.parametrize("text, expected", [
        ("berlin\tpopulation\t3.7\r\n\r\natlantis\tpopulation\t1.0",
         "{1}:3: entity 'atlantis' does not appear in the relational graph"),
        ("berlin\tpopulation\tmany\n", "{1}:1: bad value 'many'"),
        ("berlin\tpopulation\t\n", "{1}:1: empty column"),
        ("berlin\tpopulation\n", "{1}:1: expected 3 tab-separated columns, got 2"),
        ("\nberlin\tpopulation\tnan\n", "{1}:2: non-finite value 'nan'"),
        ("berlin\tpopulation\tinf\n", "{1}:1: non-finite value 'inf'"),
        ("berlin\tpopulation\t-inf\n", "{1}:1: non-finite value '-inf'"),
    ], ids=["unknown_entity_crlf", "bad_value", "empty_value", "short", "nan", "inf",
            "minus_inf"])
    def test_train_rows(self, tmp_path, text, expected):
        paths = write_raw(tmp_path, rel=REL_TEXT, train=text)
        self.check(expected, paths["rel"], paths["train"])

    def test_heldout_rows_cite_their_own_file(self, tmp_path):
        paths = write_raw(tmp_path, rel=REL_TEXT, train="berlin\tpopulation\t3.7\n",
                          valid="paris\tpopulation\t2.1\n\nrome\tpopulation\t2.8\n",
                          test="paris\tlatitude\t48.9\r\nparis\tlatitude\t-nan")
        self.check("{2}:3: entity 'rome' does not appear in the relational graph",
                   paths["rel"], paths["train"], paths["valid"])
        self.check("{2}:2: non-finite value '-nan'",
                   paths["rel"], paths["train"], paths["test"])

    def test_first_error_in_reading_order_wins(self, tmp_path):
        bad = write_raw(tmp_path, rel="a\tr\tb\nc\tr\n", train="a\tp\n", valid="a\tp\tx\n")
        good = write_raw(tmp_path / "good", rel="a\tr\tb\n", train="a\tp\t1\n")
        self.check("{0}:2: expected 3 tab-separated columns, got 2",
                   bad["rel"], bad["train"], bad["valid"])
        self.check("{1}:1: expected 3 tab-separated columns, got 2",
                   good["rel"], bad["train"], bad["valid"])
        # a file is opened only when reading reaches it
        self.check("{2}:1: bad value 'x'", good["rel"], good["train"], bad["valid"],
                   tmp_path / "missing.tsv")

    def test_inverse_name_collision(self, tmp_path):
        paths = write_raw(tmp_path, rel="a\tx_inv\tb\r\nb\tx\tc", train="a\tp\t1.0\n")
        self.check("relation 'x_inv' has the name of the inverse of relation 'x'",
                   paths["rel"], paths["train"])

    @pytest.mark.parametrize("row, expected", [
        (("atlantis", "population", "1.0"),
         "<train>:?: entity 'atlantis' does not appear in the relational graph"),
        ((7, "berlin", "population", "x"), "<train>:7: bad value 'x'"),
        ((7, "berlin", "population", "1e999"), "<train>:7: non-finite value '1e999'"),
    ], ids=["unknown_entity", "bad_value_numbered", "overflow_numbered"])
    def test_build_dataset_rows(self, row, expected):
        with pytest.raises(K.DatasetFormatError) as info:
            K.build_dataset(REL, [row])
        assert str(info.value) == expected

    def test_crlf_blank_lines_and_no_final_newline_load_like_lf(self, tmp_path):
        lf = write_raw(tmp_path / "lf", rel=REL_TEXT,
                       train="berlin\tpopulation\t3.7\nparis\tpopulation\t2.1\n")
        crlf = write_raw(tmp_path / "crlf",
                         rel=REL_TEXT.replace("\n", "\r\n\r\n").rstrip("\r\n"),
                         train="\r\nberlin\tpopulation\t3.7\r\n\nparis\tpopulation\t2.1")
        (kg_a, split_a), (kg_b, split_b) = (K.load_dataset(p["rel"], p["train"])
                                            for p in (lf, crlf))
        assert kg_a.entity_names == kg_b.entity_names == ["berlin", "germany", "paris",
                                                          "france"]
        assert kg_a.relation_names == kg_b.relation_names
        assert np.array_equal(kg_a.edge_tail, kg_b.edge_tail)
        assert split_a.train.tobytes() == split_b.train.tobytes()


def random_graph_files(directory, rng):
    """TSVs of a random graph with parallel edges, self-loops, repeated facts,
    attributes that first appear in `valid` or `test`, blank lines and CRLF."""
    names = [f"e{i}" for i in range(40)]
    rel = [(names[h], f"r{r}", names[t]) for h, r, t
           in zip(rng.integers(0, 30, 400), rng.integers(0, 6, 400), rng.integers(0, 30, 400))]
    rel += rel[::7] + [(names[3], "r2", names[3]), (names[5], "r0", names[5])]
    rng.shuffle(rel)
    numeric = [(names[e], f"a{a}", repr(float(v))) for e, a, v
              in zip(rng.integers(0, 30, 300), rng.integers(0, 4, 300), rng.normal(0, 50, 300))]
    train = numeric[:200] + numeric[:200:9]
    valid = numeric[200:250] + [(names[1], "a_valid_only", "1.5")]
    test = numeric[250:] + [(names[2], "a_test_only", "-2e-3"), (names[2], "a_valid_only", "7")]

    def text(rows, newline):
        lines = ["\t".join(row) for row in rows]
        lines.insert(len(lines) // 2, "")
        return newline.join(lines)

    return list(write_raw(directory, rel=text(rel, "\n"), train=text(train, "\r\n"),
                          valid=text(valid, "\n") + "\n", test=text(test, "\r\n")).values())


class TestLoadMatchesReference:
    """`load_dataset` against the row-generator loader of `helpers`."""

    def check(self, paths):
        kg, split = K.load_dataset(*paths)
        ref, ref_split = reference_load_dataset(*paths)
        for name in ("entity_names", "relation_names", "attribute_names",
                     "num_base_relations"):
            assert getattr(kg, name) == getattr(ref, name)
        for name in ("entity_index", "relation_index", "attribute_index"):
            index = getattr(kg, name)
            assert type(index) is dict and index == getattr(ref, name)
            with pytest.raises(KeyError):
                index["no such name"]
            assert "no such name" not in index
        for name in ("edge_indptr", "edge_rel", "edge_tail", "fact_indptr", "fact_attr",
                     "fact_value", "edge_canon", "first_fact_indptr", "first_fact"):
            got, want = getattr(kg, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for got, want in zip((split.train, split.valid, split.test),
                             (ref_split.train, ref_split.valid, ref_split.test)):
            assert got.dtype == want.dtype == K.FACT and got.tobytes() == want.tobytes()

    def test_bench_graph(self, bench_files):
        self.check(bench_files)

    def test_random_graph(self, tmp_path, rng):
        paths = random_graph_files(tmp_path, rng)
        self.check(paths)
        kg, split = K.load_dataset(*paths)
        assert {"a_valid_only", "a_test_only"} <= set(kg.attribute_names)
        e3 = kg.entity_index["e3"]  # a self-loop
        assert e3 in kg.edge_tail[kg.edge_indptr[e3]:kg.edge_indptr[e3 + 1]]

    def test_optional_splits_absent(self, tmp_path, rng):
        self.check(random_graph_files(tmp_path, rng)[:2])


class TestCsr:
    @pytest.mark.parametrize("rows", [[], [0], [1, 1], [2, 0], [0, 2, 2, 0, 2, 1, 0, 2, 2]],
                             ids=["n0", "n1", "n2_ties", "n2", "ties"])
    def test_matches_stable_argsort(self, rows):
        rows = np.array(rows, dtype=np.int64)
        n_rows = 4  # row 3 never appears
        values = np.arange(len(rows), dtype=np.float64) * 1.5
        got = K._csr(rows, n_rows, rows * 10, values)
        want = reference_csr(rows, n_rows, rows * 10, values)
        assert got[0].tobytes() == want[0].tobytes()
        for a, b in zip(got[1], want[1]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_many_rows(self, rng):
        rows = rng.integers(0, 1000, size=20_000)
        rows[rows == 500] = 501  # an entity with no rows
        got = K._csr(rows, 1200, np.arange(len(rows)))
        want = reference_csr(rows, 1200, np.arange(len(rows)))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1][0].tobytes() == want[1][0].tobytes()


class TestDerivedTables:
    """`edge_canon` and the first facts against per-entity loops."""

    @staticmethod
    def check(kg):
        canon = reference_edge_canon(kg)
        indptr, first = reference_first_facts(kg)
        for got, want in ((kg.edge_canon, canon), (kg.first_fact_indptr, indptr),
                          (kg.first_fact, first)):
            assert got.dtype == want.dtype == np.int64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("parallel", [False, True], ids=["simple", "parallel"])
    @pytest.mark.parametrize("repeat", [False, True], ids=["distinct_facts", "repeat_facts"])
    def test_matches_per_entity_loops_on_random_graphs(self, monkeypatch, parallel, repeat):
        rng = np.random.default_rng(10 * parallel + repeat)
        seen_parallel = seen_repeat = 0
        for case in range(40):
            # the dense table and the sort it falls back to, case by case
            monkeypatch.setattr(K, "TABLE_PER_KEY", (0, 10 ** 9)[case % 2])
            n, n_base = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            pairs = {(int(h), int(r), int(t)) for h, r, t in zip(
                rng.integers(0, n, 60), rng.integers(0, 2 * n_base, 60), rng.integers(0, n, 60))}
            triples = list(pairs)
            if parallel:  # repeats of some edges, anywhere in the input
                triples += [triples[i] for i in rng.integers(0, len(triples), 8)]
                rng.shuffle(triples)
            facts = {(int(e), int(a)): float(v) for e, a, v in zip(
                rng.integers(0, n, 40), rng.integers(0, 3, 40), rng.normal(size=40))}
            facts = [(e, a, v) for (e, a), v in facts.items()]
            if repeat:  # the same (entity, attribute) again, with another value
                facts += [(e, a, v + 1.0) for e, a, v in facts[::3]]
                rng.shuffle(facts)
            kg = raw_graph(n, n_base, triples, facts)
            self.check(kg)
            seen_parallel += bool(np.any(kg.edge_canon != np.arange(len(kg.edge_canon))))
            seen_repeat += len(kg.first_fact) < len(kg.fact_attr)
        assert bool(seen_parallel) == parallel and bool(seen_repeat) == repeat

    def test_canonical_edge_is_the_first_of_its_head(self):
        # e0's edges, in CSR order: (r0, e1), (r1, e1), (r0, e1), (r0, e1);
        # e1's (r0, e1) is its own, a different head's
        kg = raw_graph(2, 1, [(0, 0, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1), (0, 0, 1)],
                       [(1, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (1, 0, 4.0)])
        assert kg.edge_canon.tolist() == [0, 1, 0, 0, 4]
        assert kg.first_fact_indptr.tolist() == [0, 1, 3]
        assert kg.fact_attr[kg.first_fact].tolist() == [1, 0, 1]
        assert kg.fact_value[kg.first_fact].tolist() == [2.0, 1.0, 3.0]

    @pytest.mark.parametrize("n_entities", [0, 3])
    def test_empty_graphs(self, n_entities):
        kg = raw_graph(n_entities, 1, [], [])
        self.check(kg)
        assert kg.edge_canon.shape == kg.first_fact.shape == (0,)
        assert kg.first_fact_indptr.tolist() == [0] * (n_entities + 1)

    def test_bench_graph(self, bench_graph):
        self.check(bench_graph[0])


class TestFacts:
    def test_split_rows_become_fact_arrays(self):
        split = K.DatasetSplit(train=[(0, 1, 2.5), (2, 0, -1.0)], valid=[],
                               test=K.as_facts([(3, 0, 4.0)]))
        for facts in (split.train, split.valid, split.test):
            assert facts.dtype == K.FACT and facts.ndim == 1
        assert split.train.tolist() == [(0, 1, 2.5), (2, 0, -1.0)]
        assert len(split.valid) == 0 and split.test.tolist() == [(3, 0, 4.0)]

    @pytest.mark.parametrize("rows", [[[0, 1, 2.5], [2, 0, -1.0]], (0, 1, 2.5)],
                             ids=["lists", "one_tuple"])
    def test_rows_that_are_not_tuples_rejected(self, rows):
        # a list of lists would broadcast each number into all three fields
        with pytest.raises(ValueError, match=r"\(entity, attribute, value\) tuples"):
            K.as_facts(rows)
        with pytest.raises(ValueError, match=r"\(entity, attribute, value\) tuples"):
            K.DatasetSplit(train=rows, valid=[], test=[])

    def test_load_matches_line_by_line_parse(self, bench_files):
        kg, split = K.load_dataset(*bench_files)
        relational, *numerical = bench_files
        entities, attributes = [], []
        for line in relational.read_text(encoding="utf-8").splitlines():
            for name in line.split("\t")[::2]:
                if name not in entities:
                    entities.append(name)
        assert kg.entity_names == entities
        for path, facts in zip(numerical, (split.train, split.valid, split.test)):
            rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
            for _, name, _ in rows:
                if name not in attributes:
                    attributes.append(name)
            assert facts.dtype == K.FACT and len(facts) == len(rows) > 0
            assert facts["entity"].tolist() == [entities.index(e) for e, _, _ in rows]
            assert facts["attribute"].tolist() == [attributes.index(a) for _, a, _ in rows]
            assert facts["value"].tobytes() == np.array([float(v) for *_, v in rows]).tobytes()
        assert kg.attribute_names == attributes


class TestStats:
    def make_stats(self):
        triples = K.as_facts([(0, 0, 354.9), (1, 0, 2014.0), (2, 0, 1000.0),
                              (0, 1, 5.0), (1, 1, 5.0)])
        return K.AttributeStats.from_triples(triples, 3)

    def test_min_max_counts(self):
        s = self.make_stats()
        assert s.mins[0] == 354.9 and s.maxs[0] == 2014.0 and s.counts[0] == 3
        assert s.counts[2] == 0

    def test_normalize_endpoints_and_midpoint(self):
        s = self.make_stats()
        assert s.normalize(0, 354.9) == 0.0
        assert s.normalize(0, 2014.0) == 1.0
        assert s.normalize(0, 1184.45) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(354.9, 2014.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, v):
        s = self.make_stats()
        assert s.denormalize(0, s.normalize(0, v)) == pytest.approx(v, rel=1e-12)

    def test_degenerate_attribute_flagged_and_rejected(self):
        s = self.make_stats()
        assert not s.usable(1)
        with pytest.raises(K.DegenerateAttributeError):
            s.normalize(1, 5.0)

    def test_missing_stats_rejected(self):
        s = self.make_stats()
        assert not s.usable(2)
        with pytest.raises(K.StatsUnavailableError):
            s.normalize(2, 1.0)
        with pytest.raises(K.StatsUnavailableError):
            s.denormalize(2, 0.5)

    def test_stats_cover_train_split_only(self, tmp_path):
        paths = write_dataset(tmp_path, REL, TRAIN,
                              valid=[("paris", "population", "99.0")])
        _, split = K.load_dataset(paths["relational"], paths["train"], paths["valid"])
        s = K.AttributeStats.from_triples(split.train, 2)
        assert s.maxs[0] == 3.7  # the out-of-range validation value is excluded


class TestStatsMatchPerTripleLoop:
    def check(self, triples, n_attributes):
        mins, maxs, counts, means = reference_attribute_stats(triples, n_attributes)
        s = K.AttributeStats.from_triples(triples, n_attributes)
        assert s.mins.tobytes() == mins.tobytes()
        assert s.maxs.tobytes() == maxs.tobytes()
        assert s.counts.dtype == counts.dtype and np.array_equal(s.counts, counts)
        assert K.attribute_means(triples, n_attributes).tobytes() == means.tobytes()

    def test_random_facts_with_an_empty_attribute(self, rng):
        attrs = rng.choice([0, 1, 3, 4], size=500)  # attribute 2 has no value
        values = rng.normal(0.0, 1e3, size=500) * 10.0 ** rng.integers(-6, 6, size=500)
        triples = K.as_facts([(int(i), int(a), float(v))
                              for i, (a, v) in enumerate(zip(attrs, values))])
        self.check(triples, 5)
        assert np.isnan(K.attribute_means(triples, 5)[2])

    def test_empty_triples(self):
        self.check(K.as_facts([]), 3)

    @pytest.mark.parametrize("attribute", [-1, 3])
    def test_out_of_range_attribute_rejected(self, attribute):
        triples = K.as_facts([(0, 0, 1.0), (1, attribute, 2.0)])
        with pytest.raises(ValueError, match=r"attribute ids must lie in \[0, 3\)"):
            K.AttributeStats.from_triples(triples, 3)
        with pytest.raises(ValueError, match=r"attribute ids must lie in \[0, 3\)"):
            K.attribute_means(triples, 3)


class TestHelpers:
    def test_attribute_means(self):
        means = K.attribute_means(K.as_facts([(0, 0, 2.0), (1, 0, 4.0), (2, 1, 7.0)]), 3)
        assert means[0] == 3.0 and means[1] == 7.0
        assert np.isnan(means[2])

    def test_queries_from_triples(self):
        qs = K.queries_from_triples(K.as_facts([(3, 1, 9.5)]))
        assert qs == [K.Query(entity=3, attribute=1, target=9.5)]
        assert [type(f) for f in vars(qs[0]).values()] == [int, int, float]

    def test_stats_report_mentions_degenerate(self, tmp_path):
        paths = write_dataset(tmp_path, REL,
                              [("berlin", "population", "2.0"),
                               ("munich", "population", "2.0")])
        kg, split = K.load_dataset(paths["relational"], paths["train"])
        report = K.format_stats_report(
            kg, K.AttributeStats.from_triples(split.train, kg.n_attributes))
        assert "degenerate" in report
        assert "population" in report
