import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import facts, out_edges
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
        assert split.valid == [] and split.test == []


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


class TestStats:
    def make_stats(self):
        triples = [(0, 0, 354.9), (1, 0, 2014.0), (2, 0, 1000.0),
                   (0, 1, 5.0), (1, 1, 5.0)]
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


class TestHelpers:
    def test_attribute_means(self):
        means = K.attribute_means([(0, 0, 2.0), (1, 0, 4.0), (2, 1, 7.0)], 3)
        assert means[0] == 3.0 and means[1] == 7.0
        assert np.isnan(means[2])

    def test_queries_from_triples(self):
        qs = K.queries_from_triples([(3, 1, 9.5)])
        assert qs == [K.Query(entity=3, attribute=1, target=9.5)]

    def test_stats_report_mentions_degenerate(self, tmp_path):
        paths = write_dataset(tmp_path, REL,
                              [("berlin", "population", "2.0"),
                               ("munich", "population", "2.0")])
        kg, split = K.load_dataset(paths["relational"], paths["train"])
        report = K.format_stats_report(
            kg, K.AttributeStats.from_triples(split.train, kg.n_attributes))
        assert "degenerate" in report
        assert "population" in report
