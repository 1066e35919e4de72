import json

import pytest

from helpers import out_edges
from rachain import synth
from rachain.kg import load_dataset


def base_spec(**kw):
    data = dict(
        rules=[synth.ValueRule(target_attribute="dst", source_attribute="src",
                               path=("p", "q"), alpha=2.0, beta=1.0,
                               instances=8, source_range=(0.0, 5.0))],
        split=(0.5, 0.25, 0.25),
    )
    data.update(kw)
    return synth.SynthSpec(**data)


class TestSpecValidation:
    def test_rule_needs_a_path(self):
        with pytest.raises(ValueError, match="at least one relation"):
            synth.ValueRule("dst", "src", path=())

    def test_rule_needs_instances(self):
        with pytest.raises(ValueError, match="at least one instance"):
            synth.ValueRule("dst", "src", path=("p",), instances=0)

    def test_rule_range_ordering(self):
        with pytest.raises(ValueError, match="source_range"):
            synth.ValueRule("dst", "src", path=("p",), source_range=(2.0, 2.0))

    def test_standalone_needs_pairs(self):
        with pytest.raises(ValueError, match="count >= 2"):
            synth.StandaloneValues("a", count=1, value_range=(0, 1))

    def test_spec_needs_rules(self):
        with pytest.raises(ValueError, match="at least one rule"):
            synth.SynthSpec(rules=[])

    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            base_spec(split=(0.5, 0.2, 0.2))

    def test_split_needs_training_mass(self):
        with pytest.raises(ValueError, match="training fraction"):
            base_spec(split=(0.0, 0.5, 0.5))

    def test_from_dict_round_trip(self):
        data = {
            "rules": [{"target_attribute": "dst", "source_attribute": "src",
                       "path": ["p"], "alpha": 3.0, "instances": 4,
                       "source_range": [0.0, 2.0]}],
            "noise_relations": 2,
            "noise_edges": 0,
            "standalone": [{"attribute": "dst", "count": 3,
                            "value_range": [0.0, 9.0]}],
            "split": [0.5, 0.25, 0.25],
        }
        spec = synth.SynthSpec.from_dict(data)
        assert spec.rules[0].alpha == 3.0
        assert spec.rules[0].path == ("p",)
        assert spec.standalone[0].count == 3
        assert spec.split == (0.5, 0.25, 0.25)


class TestGenerate:
    def test_values_follow_the_rule(self, tmp_path):
        meta = synth.generate(base_spec(), seed=7, out_dir=tmp_path)
        rows = {}
        for name in ("train", "valid", "test"):
            for line in (tmp_path / f"{name}.tsv").read_text().splitlines():
                entity, attr, value = line.split("\t")
                rows[(entity, attr)] = float(value)
        for i in range(8):
            u = rows[(f"r0_s{i}", "src")]
            assert 0.0 <= u <= 5.0
            assert rows[(f"r0_t{i}", "dst")] == pytest.approx(2.0 * u + 1.0, abs=0)
        assert meta["rules"][0]["alpha"] == 2.0

    def test_split_sizes_and_sources_always_train(self, tmp_path):
        synth.generate(base_spec(), seed=7, out_dir=tmp_path)
        train = (tmp_path / "train.tsv").read_text().splitlines()
        valid = (tmp_path / "valid.tsv").read_text().splitlines()
        test = (tmp_path / "test.tsv").read_text().splitlines()
        # 8 sources + 4 of 8 targets in train; 2 valid, 2 test
        assert len(train) == 12 and len(valid) == 2 and len(test) == 2
        src_rows = [r for r in train if "\tsrc\t" in r]
        assert len(src_rows) == 8

    def test_loadable_and_counts_match_meta(self, tmp_path):
        meta = synth.generate(base_spec(), seed=3, out_dir=tmp_path)
        kg, split = load_dataset(tmp_path / "relational.tsv", tmp_path / "train.tsv",
                                 tmp_path / "valid.tsv", tmp_path / "test.tsv")
        assert kg.n_entities == meta["entities"]
        assert len(kg.edge_tail) == 2 * meta["relational_rows"]
        assert len(split.train) == meta["numerical"]["train"]
        assert len(split.test) == meta["numerical"]["test"]
        # two-hop rule: source, one mid, target per instance
        assert kg.n_entities == 3 * 8

    def test_noise_edges_connect_mids_only(self, tmp_path):
        spec = base_spec(noise_relations=2, noise_edges=10)
        synth.generate(spec, seed=5, out_dir=tmp_path)
        noise_rows = [line.split("\t")
                      for line in (tmp_path / "relational.tsv").read_text().splitlines()
                      if line.split("\t")[1].startswith("noise")]
        assert len(noise_rows) == 10
        for h, rel, t in noise_rows:
            assert "_m" in h and "_m" in t
            assert rel in ("noise0", "noise1")

    def test_noise_requires_relations_and_mids(self, tmp_path):
        with pytest.raises(ValueError, match="noise_relations >= 1"):
            synth.generate(base_spec(noise_edges=5), seed=0, out_dir=tmp_path)
        one_hop = synth.SynthSpec(
            rules=[synth.ValueRule("dst", "src", path=("p",), instances=4)],
            noise_relations=1, noise_edges=2)
        with pytest.raises(ValueError, match="two mid entities"):
            synth.generate(one_hop, seed=0, out_dir=tmp_path)

    def test_standalone_entities_are_disconnected_extra_range(self, tmp_path):
        spec = base_spec(standalone=[synth.StandaloneValues("dst", 4, (50.0, 60.0))])
        synth.generate(spec, seed=2, out_dir=tmp_path)
        kg, split = load_dataset(tmp_path / "relational.tsv", tmp_path / "train.tsv",
                                 tmp_path / "valid.tsv", tmp_path / "test.tsv")
        names = [kg.entity_names[e] for e, a, v in split.train
                 if kg.attribute_names[a] == "dst" and v >= 50.0]
        assert len(names) == 4
        rule_entities = {e for e in kg.entity_names if e.startswith("r0_")}
        for name in names:
            eid = kg.entity_index[name]
            neighbors = {kg.entity_names[t] for t in out_edges(kg, eid)[1].tolist()}
            assert neighbors.isdisjoint(rule_entities)

    def test_mid_attribute_stamps_every_intermediate(self, tmp_path):
        rule = synth.ValueRule(target_attribute="dst", source_attribute="src",
                               path=("p", "q", "r"), instances=5,
                               mid_attribute="aux", mid_range=(3.0, 4.0))
        spec = base_spec(rules=[rule])
        meta = synth.generate(spec, seed=6, out_dir=tmp_path)
        rows = [line.split("\t") for line in
                (tmp_path / "train.tsv").read_text().splitlines()]
        aux = {e: float(v) for e, a, v in rows if a == "aux"}
        # two intermediates per instance, values inside the stated range
        assert len(aux) == 10
        assert all("_m" in name for name in aux)
        assert all(3.0 <= v <= 4.0 for v in aux.values())
        assert meta["numerical"]["train"] >= 5 + 10

    def test_mid_attribute_requires_an_intermediate(self):
        with pytest.raises(ValueError, match="path of >= 2"):
            synth.ValueRule("dst", "src", path=("p",), mid_attribute="aux")

    def test_same_seed_reproduces_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.generate(base_spec(), seed=9, out_dir=a)
        synth.generate(base_spec(), seed=9, out_dir=b)
        for name in ("relational.tsv", "train.tsv", "valid.tsv", "test.tsv"):
            assert (a / name).read_text() == (b / name).read_text()

    def test_different_seed_changes_values(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.generate(base_spec(), seed=1, out_dir=a)
        synth.generate(base_spec(), seed=2, out_dir=b)
        assert (a / "train.tsv").read_text() != (b / "train.tsv").read_text()

    def test_meta_json_written(self, tmp_path):
        meta = synth.generate(base_spec(), seed=4, out_dir=tmp_path)
        on_disk = json.loads((tmp_path / "meta.json").read_text())
        assert on_disk == meta
