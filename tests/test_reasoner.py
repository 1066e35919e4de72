import numpy as np
import pytest

from helpers import chain_sets, reference_top_patterns, reference_trace
from rachain import autodiff as ad
from rachain import reasoner as R
from rachain.autodiff import Tensor, parameters
from rachain.kg import AttributeStats, Query, as_facts
from rachain.retrieval import RAChain


def make_chain(src_attr, relations, value=1.0, path_start=100):
    path = tuple(range(path_start, path_start + len(relations) + 1))
    return RAChain(src_attr, tuple(relations), 0, value, path)


class TestHeads:
    def test_opens_at_bias_constant(self, rng):
        head = R.HeadParams.create(rng, dim=6, tag="h", bias_init=1.25)
        x = Tensor(rng.standard_normal((5, 6)))
        np.testing.assert_array_equal(head(x).data, np.full(5, 1.25))

    def test_gradients_reach_all_layers(self, rng):
        head = R.HeadParams.create(rng, dim=4, tag="h", bias_init=0.0)
        x = Tensor(rng.standard_normal((3, 4)))
        ad.backward(ad.tensor_sum(ad.square(ad.add(head(x), 1.0))))
        for p in parameters(head):
            assert p.grad is not None

    def test_create_heads_per_mode(self, rng):
        present = {
            "direct": ("direct",),
            "translation": ("beta",),
            "scaling": ("alpha",),
            "combined": ("alpha", "beta"),
        }
        for mode, names in present.items():
            heads = R.ProjectionHeads.create(rng, 4, mode)
            for name in ("alpha", "beta", "direct"):
                assert (getattr(heads, name) is not None) == (name in names)
            assert len(parameters(heads)) == 4 * len(names)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown projection mode"):
            R.ProjectionHeads.create(rng, 4, "ratio")


class TestProjection:
    def project(self, rng, mode, source_norm):
        heads = R.ProjectionHeads.create(rng, 6, mode)
        reps = Tensor(rng.standard_normal((len(source_norm), 6)))
        return R.project_values(reps, np.asarray(source_norm), heads), heads

    def test_translation_opens_as_identity(self, rng):
        out, _ = self.project(rng, "translation", [0.2, 0.8, 0.5])
        np.testing.assert_array_equal(out.data, [0.2, 0.8, 0.5])

    def test_scaling_opens_as_identity(self, rng):
        out, _ = self.project(rng, "scaling", [0.1, 0.9])
        np.testing.assert_array_equal(out.data, [0.1, 0.9])

    def test_combined_opens_as_identity(self, rng):
        out, _ = self.project(rng, "combined", [0.3, 0.6])
        np.testing.assert_array_equal(out.data, [0.3, 0.6])

    def test_direct_opens_at_midpoint_ignoring_source(self, rng):
        out, _ = self.project(rng, "direct", [0.0, 1.0, 0.4])
        np.testing.assert_array_equal(out.data, [0.5, 0.5, 0.5])

    def test_proposals_clamped_to_unit_interval(self, rng):
        heads = R.ProjectionHeads.create(rng, 6, "translation")
        heads.beta.b2.data[:] = 0.7
        reps = Tensor(rng.standard_normal((2, 6)))
        out = R.project_values(reps, np.array([0.9, -0.9]), heads)
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_scaling_head_recovers_known_multiplier(self, rng):
        heads = R.ProjectionHeads.create(rng, 6, "scaling")
        heads.alpha.b2.data[:] = 2.0
        reps = Tensor(rng.standard_normal((3, 6)))
        out = R.project_values(reps, np.array([0.1, 0.3, 0.45]), heads)
        np.testing.assert_allclose(out.data, [0.2, 0.6, 0.9], atol=1e-12)


@pytest.fixture
def tree_params(rng):
    return R.TreeformerParams.create(rng, dim=8, n_layers=2, heads=2, max_hops=3)


class TestWeighting:
    def test_weights_form_a_distribution(self, tree_params, rng):
        reps = Tensor(rng.standard_normal((7, 8)))
        lengths = rng.integers(1, 4, size=7)
        omega = R.weight_chains(reps, lengths, tree_params)
        assert omega.shape == (7,)
        assert np.all(omega.data >= 0.0)
        assert omega.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_singleton_gets_full_weight(self, tree_params, rng):
        omega = R.weight_chains(Tensor(rng.standard_normal((1, 8))),
                                np.array([2]), tree_params)
        np.testing.assert_array_equal(omega.data, [1.0])

    def test_permutation_equivariance(self, tree_params, rng):
        reps = rng.standard_normal((6, 8))
        lengths = rng.integers(1, 4, size=6)
        base = R.weight_chains(Tensor(reps.copy()), lengths, tree_params).data
        perm = rng.permutation(6)
        shuffled = R.weight_chains(Tensor(reps[perm].copy()), lengths[perm],
                                   tree_params).data
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-9)

    def test_length_embedding_differentiates_equal_reps(self, tree_params, rng):
        row = rng.standard_normal(8)
        reps = Tensor(np.stack([row, row]))
        omega = R.weight_chains(reps, np.array([1, 3]), tree_params).data
        assert omega[0] != omega[1]

    def test_length_table_receives_gradient(self, tree_params, rng):
        reps = Tensor(rng.standard_normal((4, 8)))
        omega = R.weight_chains(reps, np.array([1, 2, 3, 1]), tree_params)
        ad.backward(ad.tensor_sum(ad.square(omega)))
        assert tree_params.length_table.grad is not None
        assert np.any(tree_params.length_table.grad != 0.0)

    def test_masked_slots_get_zero_weight_and_zero_gradient(self, tree_params, rng):
        # sets of 2 and 4 chains in (2, 4) slots, random values in the pad slots
        reps = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
        lengths = rng.integers(1, 4, size=(2, 4))
        mask = np.arange(4) < np.array([[2], [4]])
        omega = R.weight_chains(reps, lengths, tree_params, mask)
        ad.backward(ad.tensor_sum(ad.mul(omega, Tensor(rng.uniform(size=(2, 4))))))
        assert np.all(omega.data[~mask] == 0.0)
        assert np.all(reps.grad[~mask] == 0.0) and np.all(reps.grad[mask] != 0.0)
        np.testing.assert_allclose(omega.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        alone = R.weight_chains(Tensor(reps.data[0, :2]), lengths[0, :2], tree_params)
        np.testing.assert_allclose(omega.data[0, :2], alone.data, rtol=0, atol=1e-12)


class TestAggregate:
    def test_matches_dot_product(self, rng):
        omega = rng.dirichlet(np.ones(5))
        proposals = rng.random(5)
        out = R.aggregate(Tensor(omega), Tensor(proposals))
        assert out.data == pytest.approx(float(omega @ proposals), abs=1e-12)

    def test_convexity(self, rng):
        for _ in range(20):
            omega = rng.dirichlet(np.ones(6))
            proposals = rng.random(6)
            value = float(R.aggregate(Tensor(omega), Tensor(proposals)).data)
            assert proposals.min() - 1e-12 <= value <= proposals.max() + 1e-12


class TestTrace:
    def stats(self):
        # attribute 0 spans [10, 20]
        return AttributeStats.from_triples(as_facts([(0, 0, 10.0), (1, 0, 20.0)]), 1)

    def predictions(self, sets, omega, proposals, norm, value):
        """Predictions for (query, chains) sets with weights and proposals
        over all their chains, set after set."""
        return R.Predictions(chain_sets(*zip(*sets)), np.array(norm),
                             np.array(value), np.zeros(len(sets), dtype=bool),
                             np.array(omega), np.array(proposals), self.stats())

    def test_contributions_sorted_and_denormalized(self):
        chains = [make_chain(0, (1,), path_start=0),
                  make_chain(0, (2,), path_start=10),
                  make_chain(0, (3,), path_start=20)]
        predictions = self.predictions([(Query(0, 0), chains)], [0.2, 0.5, 0.3],
                                       [0.0, 1.0, 0.5], [0.65], [16.5])
        trace = predictions.trace(0)
        assert [c.weight for c in trace.contributions] == [0.5, 0.3, 0.2]
        assert [c.chain for c in trace.contributions] == [chains[1], chains[2], chains[0]]
        assert trace.contributions[0].proposal_value == pytest.approx(20.0)
        assert trace.predicted_norm == pytest.approx(0.65)
        assert trace.predicted_value == pytest.approx(16.5)
        assert trace.fallback is None

    def test_top_patterns_totals_and_order(self):
        a = make_chain(0, (1, 2), path_start=0)
        b = make_chain(0, (1, 2), path_start=10)  # same pattern as a
        c = make_chain(1, (3,), path_start=20)
        predictions = self.predictions([(Query(0, 0), [a, c]), (Query(1, 0), [b])],
                                       [0.4, 0.6, 1.0], [0.5, 0.5, 0.5],
                                       [0.5, 0.5], [15.0, 15.0])
        ranked = R.top_patterns(predictions)
        assert ranked[0] == ((0, (1, 2)), pytest.approx(1.4), 2)
        assert ranked[1] == ((1, (3,)), pytest.approx(0.6), 1)

    def test_top_patterns_against_dict_accumulators(self, rng):
        """Patterns repeat across queries, weights tie exactly within a query
        and totals tie across patterns: the totals are bit-equal and ties
        keep first-seen order."""
        stats = self.stats()
        patterns = [(0, (1,)), (0, (1, 2)), (1, (3,)), (1, (1, 2)), (0, (2, 1))]
        # tied totals of 1.0; (2, (4,)) is seen first but sorts after (2, (3, 4))
        tie = [make_chain(2, (4,), path_start=0), make_chain(2, (3, 4), path_start=10)]
        sets, omega = [(Query(0, 0), tie)], [0.5, 0.5]
        for q in range(1, 40):
            picks = rng.integers(len(patterns), size=int(rng.integers(0, 7)))
            sets.append((Query(q, 0), [make_chain(*patterns[p], path_start=10 * j)
                                       for j, p in enumerate(picks)]))
            w = rng.dirichlet(np.ones(len(picks))) if len(picks) else np.empty(0)
            if len(w) >= 3:
                w[2] = w[1]  # an exact tie within the query
            omega += w.tolist()
        sets.append((Query(40, 0), tie[::-1]))
        omega += [0.5, 0.5]
        proposals = rng.uniform(0.0, 1.0, len(omega))
        predictions = self.predictions(sets, omega, proposals, np.zeros(len(sets)),
                                       np.zeros(len(sets)))
        traces, lo = [], 0
        for q, chains in sets:
            hi = lo + len(chains)
            traces.append(reference_trace(q, chains, np.array(omega[lo:hi]),
                                          proposals[lo:hi], stats))
            lo = hi
        got, want = R.top_patterns(predictions), reference_top_patterns(traces)
        assert [(p, w.hex(), n) for p, w, n in got] == [(p, w.hex(), n) for p, w, n in want]
        assert sum(n for _, _, n in got) == len(omega)
        assert [p for p, w, _ in got if w == 1.0] == [(2, (4,)), (2, (3, 4))]

    def test_pattern_report_names_and_limit(self):
        patterns = [((0, (1, 0)), 1.4, 2), ((1, (2,)), 0.6, 1)]
        text = R.format_pattern_report(patterns, ["likes", "knows", "owns"],
                                       ["height", "age"], limit=1)
        assert "[height] knows -> likes" in text
        assert "age" not in text
