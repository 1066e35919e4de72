import numpy as np
import pytest

from helpers import (
    chain_set,
    chainless_predictions,
    reference_evaluate,
    reference_filter_composition,
    reference_train_mean_baseline,
)
from rachain import evaluation as EV
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, as_facts, attribute_means, build_dataset
from rachain.model import Model
from rachain.retrieval import RAChain


def metrics_fixture():
    """Two scored attributes with hand-picked spans plus one unusable one."""
    relational = [("e1", "p", "e2"), ("e2", "p", "e3"), ("e3", "p", "e4")]
    train = [("e1", "a1", "0.0"), ("e2", "a1", "10.0"),
             ("e1", "a2", "0.0"), ("e2", "a2", "2.0")]
    test = [("e1", "a1", "5.0"), ("e2", "a1", "5.0"),
            ("e3", "a2", "1.0"), ("e4", "a3", "9.0")]
    kg, split = build_dataset(relational, train, (), test)
    config = TrainConfig(walks=8, max_hops=2, top_k=4, dim=8, filter_dim=8,
                         layers=1, heads=2, affine_hidden=16, seed=3)
    stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
    means = attribute_means(split.train, len(kg.attribute_names))
    model = Model(len(kg.relation_names), len(kg.attribute_names), stats, means,
                  config)
    return kg, split, model


def stub_predictions(model, predict_one):
    """Replace the model's batched entry with predictions that used no chain,
    `predict_one` giving each query's (predicted value, fallback flag)."""
    def predict_batch(kg_, queries, seeds):
        outcomes = [predict_one(kg_, q, seed) for q, seed in zip(queries, seeds)]
        return chainless_predictions(queries, [v for v, _ in outcomes],
                                     [f for _, f in outcomes], model.stats)
    model.predict_batch = predict_batch


class TestEvaluate:
    def test_known_errors_give_known_metrics(self):
        kg, split, model = metrics_fixture()
        errors = {"e1": 1.0, "e2": 7.0, "e3": 0.5}

        def fake_predict(kg_, q, seed=0):
            return q.target + errors[kg.entity_names[q.entity]], False

        stub_predictions(model, fake_predict)
        report = EV.evaluate(model, kg, split.test)
        by_name = {r.name: r for r in report.rows}

        a1 = by_name["a1"]  # errors 1 and 7 over span 10
        assert a1.count == 2
        assert a1.mae == pytest.approx(4.0)
        assert a1.rmse == pytest.approx(5.0)
        assert a1.mae_norm == pytest.approx(0.4)
        assert a1.rmse_norm == pytest.approx(0.5)

        a2 = by_name["a2"]  # error 0.5 over span 2
        assert a2.mae == pytest.approx(0.5)
        assert a2.mae_norm == pytest.approx(0.25)

        # attributes weigh equally regardless of query counts
        assert report.average_mae_norm == pytest.approx((0.4 + 0.25) / 2)
        assert report.average_rmse_norm == pytest.approx((0.5 + 0.25) / 2)
        assert report.n_queries == 3

    def test_unusable_attribute_is_skipped_not_scored(self):
        kg, split, model = metrics_fixture()
        stub_predictions(model, lambda kg_, q, seed=0: (q.target, False))
        report = EV.evaluate(model, kg, split.test)
        assert report.skipped_attributes == ["a3"]
        assert "a3" not in {r.name for r in report.rows}

    def test_fallbacks_are_counted(self):
        kg, split, model = metrics_fixture()

        def fake_predict(kg_, q, seed=0):
            return q.target, kg.entity_names[q.entity] == "e2"

        stub_predictions(model, fake_predict)
        report = EV.evaluate(model, kg, split.test)
        by_name = {r.name: r for r in report.rows}
        assert by_name["a1"].fallbacks == 1
        assert by_name["a2"].fallbacks == 0


class TestBaseline:
    def test_train_mean_predictor(self):
        kg, split, model = metrics_fixture()
        report = EV.train_mean_baseline(model, kg, split.test)
        by_name = {r.name: r for r in report.rows}
        # a1 mean is 5 -> errors 0, 0; a2 mean is 1 -> error 0
        assert by_name["a1"].mae == pytest.approx(0.0)
        assert by_name["a2"].mae == pytest.approx(0.0)

    def test_baseline_error_scales_with_distance_from_mean(self):
        kg, split, model = metrics_fixture()
        test = [("e3", "a1", "9.0")]  # a1 mean is 5 -> error 4
        kg2, split2 = build_dataset(
            [("e1", "p", "e2"), ("e2", "p", "e3"), ("e3", "p", "e4")],
            split_rows(split.train, kg), (), test)
        stats = AttributeStats.from_triples(split2.train, len(kg2.attribute_names))
        means = attribute_means(split2.train, len(kg2.attribute_names))
        model2 = Model(len(kg2.relation_names), len(kg2.attribute_names),
                       stats, means, model.config)
        report = EV.train_mean_baseline(model2, kg2, split2.test)
        assert report.rows[0].mae == pytest.approx(4.0)
        assert report.rows[0].mae_norm == pytest.approx(0.4)


def split_rows(triples, kg):
    return [(kg.entity_names[e], kg.attribute_names[a], repr(v))
            for e, a, v in triples.tolist()]


class TestFormatting:
    def report(self):
        kg, split, model = metrics_fixture()
        stub_predictions(model, lambda kg_, q, seed=0: (q.target + 1.0, False))
        return EV.evaluate(model, kg, split.test)

    def test_text_table_mentions_every_attribute(self):
        text = EV.format_metrics(self.report())
        assert "a1" in text and "a2" in text
        assert "average normalized MAE" in text
        assert "skipped a3" in text

    def test_csv_has_header_rows_and_average(self):
        lines = EV.metrics_to_csv(self.report()).strip().split("\n")
        assert lines[0] == "attribute,count,mae,rmse,mae_norm,rmse_norm,fallbacks"
        assert lines[1].startswith("a1,2,1.00000000,")
        assert lines[-1].startswith("AVERAGE,3,")


def ablation_task():
    relational = []
    train, valid, test = [], [], []
    n = 10
    for i in range(n):
        u = 10.0 * i / (n - 1)
        relational.append((f"s{i}", "p", f"t{i}"))
        train.append((f"s{i}", "src", repr(u)))
        train.append((f"t{i}", "dst", repr(3.0 * u + 2.0)))
    for j, u in enumerate((2.5, 7.5)):
        relational.append((f"vs{j}", "p", f"vt{j}"))
        train.append((f"vs{j}", "src", repr(u)))
        (valid if j == 0 else test).append((f"vt{j}", "dst", repr(3.0 * u + 2.0)))
    relational += [("anchor_lo", "p", "z0"), ("anchor_hi", "p", "z1")]
    train += [("anchor_lo", "dst", "0.0"), ("anchor_hi", "dst", "64.0")]
    return build_dataset(relational, train, valid, test)


class TestAblations:
    def test_known_variants_and_overrides(self):
        assert set(EV.ABLATIONS) == {"full", "no_projection", "no_weighting",
                                     "no_filter", "no_chain_encoder",
                                     "no_numerical_aware"}
        assert EV.ABLATIONS["full"] == {}
        assert EV.ABLATIONS["no_projection"] == {"mode": "direct"}

    def test_run_ablations_trains_each_variant(self):
        kg, split = ablation_task()
        config = TrainConfig(walks=8, max_hops=2, top_k=4, dim=8, filter_dim=8,
                             layers=1, heads=2, affine_hidden=16, epochs=2,
                             batch_size=4, lr=0.01, seed=5, attributes=("dst",))
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        outcomes = EV.run_ablations(kg, split, config, stats, means,
                                    variants=("full", "no_weighting"))
        assert set(outcomes) == {"full", "no_weighting"}
        for out in outcomes.values():
            assert out.report.n_queries == 1  # the single dst test query
            assert np.isfinite(out.report.average_mae_norm)
            assert len(out.result.history) == 2
        assert outcomes["no_weighting"].result.model.config.use_chain_weighting is False
        assert outcomes["full"].result.model.config.use_chain_weighting is True

    def test_unknown_variant_rejected(self):
        kg, split = ablation_task()
        config = TrainConfig(dim=8, filter_dim=8, layers=1, heads=2,
                             affine_hidden=16)
        stats = AttributeStats.from_triples(split.train, len(kg.attribute_names))
        means = attribute_means(split.train, len(kg.attribute_names))
        with pytest.raises(ValueError, match="unknown ablation"):
            EV.run_ablations(kg, split, config, stats, means, variants=("nope",))


class TestFilterAudit:
    def test_same_attribute_fractions(self):
        kg, split, model = metrics_fixture()
        a1 = kg.attribute_index["a1"]
        a2 = kg.attribute_index["a2"]

        def chain(attr, start):
            return RAChain(attr, (0,), a1, 1.0, (start, start + 1))

        tree = [chain(a1, 0), chain(a1, 10), chain(a1, 20), chain(a2, 30)]
        kept = [chain(a1, 0), chain(a1, 10)]
        model.retrieve = lambda kg_, queries, seeds: [chain_set(q, tree) for q in queries]
        model.select = lambda tocs, seeds: [
            chain_set(toc.query, kept, scores=np.zeros(len(kept))) for toc in tocs]
        audits = EV.filter_composition(model, kg, as_facts([(0, a1, 5.0), (1, a1, 5.0)]))
        assert len(audits) == 1
        audit = audits[0]
        assert audit.name == "a1"
        assert audit.queries == 2
        assert audit.tree_chains == 8
        assert audit.kept_chains == 4
        assert audit.tree_same_attribute == pytest.approx(0.75)
        assert audit.kept_same_attribute == pytest.approx(1.0)

    def test_report_format(self):
        audit = EV.FilterAudit(0, "height", 4, 100, 20, 0.35, 0.9)
        text = EV.format_filter_audit([audit])
        assert "height" in text
        assert "0.350" in text and "0.900" in text


def mixed_fixture(scope):
    """Interleaved test rows over two scored attributes, a degenerate one
    (a3), one with no training value (a5) and a usable one (a4) that
    `scope` may leave out."""
    relational = [(f"e{i}", "p", f"e{i + 1}") for i in range(1, 6)]
    relational += [("e1", "q", "e4"), ("e5", "q", "e2")]
    train = [("e1", "a1", "0.0"), ("e2", "a1", "10.0"), ("e5", "a1", "4.0"),
             ("e1", "a2", "0.0"), ("e2", "a2", "2.0"), ("e4", "a3", "9.0"),
             ("e1", "a4", "1.0"), ("e3", "a4", "3.0")]
    test = [("e3", "a2", "1.0"), ("e1", "a1", "5.0"), ("e4", "a3", "9.0"),
            ("e2", "a1", "5.0"), ("e6", "a2", "1.5"), ("e5", "a4", "2.0"),
            ("e6", "a1", "3.0"), ("e4", "a5", "7.0"), ("e3", "a1", "8.0")]
    kg, split = build_dataset(relational, train, (), test)
    config = TrainConfig(walks=32, max_hops=3, top_k=2, dim=8, filter_dim=8,
                         layers=1, heads=2, affine_hidden=16, batch_size=3,
                         seed=3, attributes=scope)
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    return kg, split, Model(kg.n_relations, kg.n_attributes, stats, means, config)


def assert_same(report, reference):
    # dataclass == is false on NaN (an empty report's averages); repr still
    # tells apart every other float bit pattern
    assert repr(report) == repr(reference)
    if "nan" not in repr(report):
        assert report == reference


SCOPES = [None, ("a1", "a2", "a3")]
SPLITS = ["test", "empty"]


@pytest.mark.parametrize("scope", SCOPES, ids=["unscoped", "a4_out_of_scope"])
@pytest.mark.parametrize("split_name", SPLITS)
class TestMatchesDictAccumulators:
    def triples(self, split, split_name):
        return split.test if split_name == "test" else as_facts([])

    def test_evaluate_with_model(self, scope, split_name):
        kg, split, model = mixed_fixture(scope)
        triples = self.triples(split, split_name)
        assert_same(EV.evaluate(model, kg, triples, seed=11),
                    reference_evaluate(model, kg, triples, seed=11))

    def test_evaluate_with_fallbacks(self, scope, split_name):
        kg, split, model = mixed_fixture(scope)
        triples = self.triples(split, split_name)

        def fake_predict(kg_, q, seed=0):
            return q.target + (q.entity - 2.6) / 3.0, bool(q.entity % 2)

        stub_predictions(model, fake_predict)
        report = EV.evaluate(model, kg, triples)
        assert_same(report, reference_evaluate(model, kg, triples))
        if len(triples):
            assert sum(r.fallbacks for r in report.rows) > 0
            assert report.skipped_attributes == ["a3", "a5"]
            assert ("a4" in {r.name for r in report.rows}) == (scope is None)

    def test_train_mean_baseline(self, scope, split_name):
        kg, split, model = mixed_fixture(scope)
        triples = self.triples(split, split_name)
        assert_same(EV.train_mean_baseline(model, kg, triples),
                    reference_train_mean_baseline(model, kg, triples))

    def test_filter_composition(self, scope, split_name):
        kg, split, model = mixed_fixture(scope)
        triples = self.triples(split, split_name)
        assert_same(EV.filter_composition(model, kg, triples, seed=5),
                    reference_filter_composition(model, kg, triples, seed=5))


class TestExplain:
    def test_ranks_patterns_of_scoped_queries(self):
        kg, split, model = mixed_fixture(("a1", "a2", "a3"))
        weights = [w for _, w, _ in EV.explain(model, kg, split.test, seed=2)]
        assert weights and weights == sorted(weights, reverse=True)
        # a3, a4 and a5 queries are not predicted at all
        seen = []
        stub_predictions(model, lambda kg_, q, seed=0: seen.append(q) or (0.0, False))
        assert EV.explain(model, kg, split.test) == []
        assert {kg.attribute_names[q.attribute] for q in seen} == {"a1", "a2"}

    @pytest.mark.parametrize("attribute", ["a3", "a4", "a5"])
    def test_no_scoped_query_raises(self, attribute):
        kg, split, model = mixed_fixture(("a1", "a2", "a3"))
        aid = kg.attribute_index[attribute]
        triples = split.test[split.test["attribute"] == aid]
        assert len(triples)
        with pytest.raises(ValueError, match="no queries to explain"):
            EV.explain(model, kg, triples)
