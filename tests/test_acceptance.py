"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Criteria 1-6 are oracle and contract checks on the numerical core; criteria
7, 8, and 10 share a single synthetic-graph experiment whose trained models
live in module-scoped fixtures; criterion 9 runs against a prepared
real-world dataset and skips honestly when the data is not present. The
experiments' specs and configs are the files under scripts/experiments/ that
scripts/run_synthetic.py and scripts/run_yago_desk.py run.
"""

import dataclasses
import json
import struct
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rachain.autodiff as ad
import rachain.encoder as E
import rachain.reasoner as R
from helpers import (affinity_score, chain_set, check_gradients, decode_value,
                     distance_arcosh_raw, enumerate_all_chains, log_map_origin_raw,
                     random_inball, top_k_order)
from rachain import hyperbolic as H
from rachain import synth
from rachain.config import TrainConfig
from rachain.evaluation import evaluate, explain, run_ablations, train_mean_baseline
from rachain.filter import FilterEmbeddings, select_top_k
from rachain.kg import (AttributeStats, Query, attribute_means, build_dataset,
                        load_dataset)
from rachain.model import Model
from rachain.retrieval import RAChain, sample_tree
from rachain.training import train
from scripts.run_yago_desk import data_dir as yago_data_dir


# ---------------------------------------------------------------------------
# 1. hyperbolic geometry


def test_criterion_01_hyperbolic_geometry():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    x = random_inball(rng, 1000, 8)
    y = random_inball(rng, 1000, 8)

    # identity element
    assert np.array_equal(H.mobius_add_raw(x, np.zeros_like(x)), x)

    # symmetry, positivity, self-distance
    d_xy = H.distance_raw(x, y)
    d_yx = H.distance_raw(y, x)
    assert np.max(np.abs(d_xy - d_yx)) <= 1e-9
    assert np.all(d_xy > 0.0)
    assert np.max(H.distance_raw(x, x)) <= 1e-9

    # the two closed forms agree at unit curvature
    assert np.max(np.abs(d_xy - distance_arcosh_raw(x, y))) <= 1e-9

    # origin log map has norm arctanh(|x|)
    lm = log_map_origin_raw(x)
    assert np.max(np.abs(np.linalg.norm(lm, axis=1)
                         - np.arctanh(np.linalg.norm(x, axis=1)))) <= 1e-9

    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 2. analytic gradients vs central finite differences, block by block


def _fd_chain(src_attr, relations, value=1.0, path_start=100):
    path = tuple(range(path_start, path_start + len(relations) + 1))
    return RAChain(src_attr, tuple(relations), 0, value, path)


def test_criterion_02_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    dim, fdim, heads = 8, 6, 2

    # attention layer inside the chain encoder
    chains = chain_set(Query(0, 2), [_fd_chain(0, (1, 2)), _fd_chain(1, (0, 3), path_start=30),
                                      _fd_chain(2, (4, 0), path_start=60)])
    layer_const = E.LayerParams.create(rng, dim, 2 * dim, tag="fd")
    mix_enc = rng.standard_normal((3, dim))

    def build_attention(p):
        emb = FilterEmbeddings(relations=p["rel"], attributes=p["attr"])
        layer = dataclasses.replace(layer_const, wq=p["wq"], wk=p["wk"],
                                    wv=p["wv"], wo=p["wo"])
        stack = E.TransformerParams(layers=[layer], heads=heads, dim=dim)
        params = E.ChainEncoderParams(stack=stack, end_token=p["end"],
                                      lift=p["lift"])
        reps = E.encode_chains(chains.source_attribute, chains.relations, 2, emb, params)
        return ad.tensor_sum(ad.mul(reps, mix_enc))

    check_gradients(build_attention, {
        "rel": random_inball(rng, 5, fdim, radius=0.4),
        "attr": random_inball(rng, 3, fdim, radius=0.4),
        "end": rng.standard_normal(dim) * 0.5,
        "lift": rng.standard_normal((fdim, dim)) * 0.5,
        "wq": rng.standard_normal((dim, dim)) * 0.1,
        "wk": rng.standard_normal((dim, dim)) * 0.1,
        "wv": rng.standard_normal((dim, dim)) * 0.1,
        "wo": rng.standard_normal((dim, dim)) * 0.1,
    }, tol=1e-4)

    # bit-stream-conditioned affine transfer
    nets_const = E.AffineNets.create(rng, dim=dim, hidden=4)
    mix_aff = rng.standard_normal((2, dim))

    def build_affine(p):
        nets = dataclasses.replace(nets_const, w1a=p["w1a"], w2a=p["w2a"],
                                   b2a=p["b2a"], w2b=p["w2b"], b2b=p["b2b"])
        out = E.affine_transfer(p["reps"], np.arange(2), [0.6, -0.3], nets)
        return ad.tensor_sum(ad.mul(out, mix_aff))

    check_gradients(build_affine, {
        "reps": rng.standard_normal((2, dim)) * 0.5,
        "w1a": rng.standard_normal((64, 4)) * 0.05,
        "w2a": rng.standard_normal((4, dim * dim)) * 0.05,
        "b2a": np.eye(dim).reshape(-1) + rng.standard_normal(dim * dim) * 0.05,
        "w2b": rng.standard_normal((4, dim)) * 0.05,
        "b2b": rng.standard_normal(dim) * 0.05,
    }, tol=1e-4)

    # every projection head, away from the clamp boundaries
    reps_const = rng.standard_normal((3, dim)) * 0.3
    values = np.array([0.35, 0.5, 0.45])
    mix_head = rng.standard_normal(3)
    for mode in ("translation", "scaling", "combined", "direct"):
        tags = {"translation": ("b",), "scaling": ("a",),
                "combined": ("a", "b"), "direct": ("d",)}[mode]

        def build_heads(p, tags=tags):
            def head(t):
                return R.HeadParams(w1=p[f"{t}.w1"], b1=p[f"{t}.b1"],
                                    w2=p[f"{t}.w2"], b2=p[f"{t}.b2"])
            heads = R.ProjectionHeads(
                alpha=head("a") if "a" in tags else None,
                beta=head("b") if "b" in tags else None,
                direct=head("d") if "d" in tags else None)
            out = R.project_values(ad.Tensor(reps_const), values, heads)
            return ad.tensor_sum(ad.mul(out, mix_head))

        arrays = {}
        centers = {"a": 1.0, "b": 0.0, "d": 0.5}
        for t in tags:
            arrays[f"{t}.w1"] = rng.standard_normal((dim, 4)) * 0.3
            arrays[f"{t}.b1"] = rng.standard_normal(4) * 0.3
            arrays[f"{t}.w2"] = rng.standard_normal((4, 1)) * 0.05
            arrays[f"{t}.b2"] = np.array([centers[t]]) + rng.standard_normal(1) * 0.02
        check_gradients(build_heads, arrays, tol=1e-4)

    # attention weighting over the chain set
    tree_const = R.TreeformerParams.create(rng, dim, 1, heads, max_hops=4)
    tree_layer = tree_const.stack.layers[0]
    lengths = np.array([1, 2, 3, 2])
    mix_tree = rng.standard_normal(4)

    def build_weighting(p):
        layer = dataclasses.replace(tree_layer, wq=p["wq"], ffn_w2=p["ffn_w2"])
        stack = E.TransformerParams(layers=[layer], heads=heads, dim=dim)
        tree = dataclasses.replace(tree_const, stack=stack,
                                   length_table=p["lengths"], w_out=p["w_out"])
        omega = R.weight_chains(p["reps"], lengths, tree)
        return ad.tensor_sum(ad.mul(omega, mix_tree))

    check_gradients(build_weighting, {
        "reps": rng.standard_normal((4, dim)) * 0.5,
        "wq": rng.standard_normal((dim, dim)) * 0.1,
        "ffn_w2": rng.standard_normal((tree_layer.ffn_w2.data.shape[0], dim)) * 0.1,
        "lengths": rng.standard_normal((4, dim)) * 0.3,
        "w_out": rng.standard_normal((dim, 1)) * 0.3,
    }, tol=1e-4)

    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 3. random-walk retrieval vs exhaustive enumeration


def test_criterion_03_retrieval_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    chain_key = lambda ch: (ch.source_attribute, ch.relations, ch.entity_path)
    total_enumerated = 0
    total_recovered = 0

    for _ in range(50):
        n_e = int(rng.integers(4, 31))
        n_r = int(rng.integers(1, 4))
        n_edges = int(rng.integers(n_e, 2 * n_e + 1))
        ents = [f"e{i}" for i in range(n_e)]
        rel_rows = []
        for _ in range(n_edges):
            a, b = rng.choice(n_e, size=2, replace=False)
            rel_rows.append((ents[a], f"r{int(rng.integers(n_r))}", ents[b]))
        used = sorted({n for h, _, t in rel_rows for n in (h, t)})
        num_rows = [(name, f"a{a}", repr(float(rng.uniform(-5, 5))))
                    for name in used for a in range(3) if rng.random() < 0.4]
        kg, _ = build_dataset(rel_rows, num_rows)

        query = Query(entity=kg.entity_index[used[int(rng.integers(len(used)))]],
                      attribute=0, target=0.0)
        enumerated = {chain_key(c)
                      for c in enumerate_all_chains(kg, query, max_hops=3)}
        walks = 50 * max(len(enumerated), 1)
        sampled = {chain_key(c)
                   for c in sample_tree(kg, query, walks, max_hops=3,
                                        seed=int(rng.integers(2 ** 32))).chains}

        assert sampled <= enumerated  # soundness: nothing invented
        total_enumerated += len(enumerated)
        total_recovered += len(enumerated & sampled)

    assert total_enumerated > 0
    assert total_recovered / total_enumerated >= 0.99
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 4. top-k selection vs a sort oracle, ties included


def test_criterion_04_filter_oracle():
    rng = np.random.default_rng(5)

    def sort_oracle(scores, chains, k):
        keys = sorted(range(len(chains)),
                      key=lambda i: (scores[i], chains[i].length,
                                     chains[i].entity_path, chains[i].relations,
                                     chains[i].source_attribute))
        return keys[:k]

    def random_chain(i):
        rels = tuple(int(r) for r in rng.integers(0, 6, int(rng.integers(1, 4))))
        return _fd_chain(int(rng.integers(0, 4)), rels, path_start=10 * (i + 1))

    for _ in range(100):
        n = int(rng.integers(1, 41))
        k = int(rng.integers(1, n + 5))
        scores = np.round(rng.random(n), 1)  # quantized: many exact ties
        chains = [random_chain(i) for i in range(n)]
        toc = chain_set(Query(entity=0, attribute=0), chains)
        got = top_k_order(scores, toc, k).tolist()
        assert got == sort_oracle(scores, chains, k)
        assert got == top_k_order(scores, toc, k).tolist()  # deterministic rerun

    # the full selection path agrees with independently recomputed scores
    emb = FilterEmbeddings.create(rng, n_relations=8, n_attributes=4, dim=5)
    for trial in range(10):
        chains = [random_chain(i) for i in range(20)]
        query = Query(entity=0, attribute=int(rng.integers(0, 4)), target=0.0)
        toc = chain_set(query, chains)
        kept = select_top_k(toc, emb, k=7, lam=0.5)
        scores = np.array([affinity_score(c, query.attribute, emb, 0.5)
                           for c in chains])
        expected = [toc.chains[i] for i in sort_oracle(scores, chains, 7)]
        assert kept.chains == expected


# ---------------------------------------------------------------------------
# 5. attention-weighting contracts


def test_criterion_05_weighting_contracts():
    rng = np.random.default_rng(3)
    dim, heads = 8, 2
    for _ in range(20):
        params = R.TreeformerParams.create(rng, dim, 1, heads, max_hops=4)
        m = int(rng.integers(2, 9))
        reps = rng.standard_normal((m, dim))
        lengths = rng.integers(1, 5, m)

        omega = R.weight_chains(ad.Tensor(reps), lengths, params)
        assert abs(float(np.sum(omega.data)) - 1.0) <= 1e-6
        assert np.all(omega.data >= 0.0)

        perm = rng.permutation(m)
        permuted = R.weight_chains(ad.Tensor(reps[perm]), lengths[perm], params)
        assert np.max(np.abs(permuted.data - omega.data[perm])) <= 1e-9

        proposals = rng.uniform(0.0, 1.0, m)
        agg = float(R.aggregate(omega, ad.Tensor(proposals)).data)
        assert proposals.min() - 1e-12 <= agg <= proposals.max() + 1e-12

    params = R.TreeformerParams.create(rng, dim, 1, heads, max_hops=4)
    single = R.weight_chains(ad.Tensor(rng.standard_normal((1, dim))),
                             np.array([2]), params)
    assert np.array_equal(single.data, np.array([1.0]))


# ---------------------------------------------------------------------------
# 6. IEEE-754 bit-stream codec


def test_criterion_06_value_bitstream():
    def struct_oracle(v):
        return np.unpackbits(np.frombuffer(struct.pack(">d", v), dtype=np.uint8))

    def encode_value(v):
        return E.encode_values([v])[0]

    assert np.array_equal(encode_value(0.0), np.zeros(64))
    one = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] + [0] * 52
    minus_two = [1, 1] + [0] * 62
    assert np.array_equal(encode_value(1.0), np.array(one))
    assert np.array_equal(encode_value(-2.0), np.array(minus_two))
    assert np.array_equal(encode_value(1.0), struct_oracle(1.0))
    assert np.array_equal(encode_value(-2.0), struct_oracle(-2.0))

    rng = np.random.default_rng(17)
    values = np.ldexp(rng.uniform(-1.0, 1.0, 10_000),
                      rng.integers(-1022, 1023, 10_000))
    specials = [0.0, -0.0, 1.0, -2.0, np.pi, 2.0 ** -1074, -(2.0 ** -1050)]
    for v in list(values) + specials:
        v = float(v)
        back = decode_value(encode_value(v))
        assert struct.pack(">d", back) == struct.pack(">d", v)  # bit-exact


# ---------------------------------------------------------------------------
# shared synthetic experiment (criteria 7, 8, 10)
#
# The graph of scripts/experiments/acceptance.spec.json, trained with
# acceptance.config.json. 500 entities: 160 instances of "value doubles
# along the path p -> q" (source, intermediate, target) plus 20 padding
# entities; the 160 intermediates carry an unrelated attribute and are
# wired together by 600 noise edges over 10 distractor relations, so
# sampled trees mix the generative chain with wrong-pattern and
# wrong-attribute ones.

DATASET_SEED = 101
EXPERIMENTS = Path(__file__).resolve().parent.parent / "scripts" / "experiments"


def _experiment_config(name="acceptance", **overrides):
    """scripts/experiments/<name>.config.json with `overrides` on top."""
    path = EXPERIMENTS / f"{name}.config.json"
    return TrainConfig.from_dict({**json.loads(path.read_text("utf-8")), **overrides})


@pytest.fixture(scope="module")
def synthetic_task(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-synth")
    spec = synth.SynthSpec.from_file(EXPERIMENTS / "acceptance.spec.json")
    meta = synth.generate(spec, seed=DATASET_SEED, out_dir=out)
    kg, split = load_dataset(out / "relational.tsv", out / "train.tsv",
                             out / "valid.tsv", out / "test.tsv")
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    return SimpleNamespace(kg=kg, split=split, stats=stats, means=means,
                           meta=meta)


@pytest.fixture(scope="module")
def full_run(synthetic_task):
    t = synthetic_task
    config = _experiment_config()
    model = Model(t.kg.n_relations, t.kg.n_attributes, t.stats, t.means, config)
    started = time.perf_counter()
    result = train(model, t.kg, t.split)
    elapsed = time.perf_counter() - started
    report = evaluate(model, t.kg, t.split.test, seed=config.seed)
    return SimpleNamespace(model=model, result=result, report=report,
                           elapsed=elapsed, config=config)


@pytest.fixture(scope="module")
def ablation_runs(synthetic_task):
    t = synthetic_task
    return run_ablations(t.kg, t.split, _experiment_config(), t.stats, t.means,
                         variants=("no_projection", "no_weighting", "no_filter"))


@pytest.fixture(scope="module")
def translation_run(synthetic_task):
    t = synthetic_task
    config = _experiment_config(mode="translation")
    model = Model(t.kg.n_relations, t.kg.n_attributes, t.stats, t.means, config)
    result = train(model, t.kg, t.split)
    report = evaluate(model, t.kg, t.split.test, seed=config.seed)
    return SimpleNamespace(result=result, report=report)


# ---------------------------------------------------------------------------
# 7. synthetic end-to-end


def test_criterion_07_synthetic_end_to_end(synthetic_task, full_run):
    t = synthetic_task
    assert t.meta["entities"] == 500
    base_names = t.kg.relation_names[:t.kg.num_base_relations]
    assert sum(1 for r in base_names if r.startswith("noise")) == 10

    assert len(full_run.result.history) <= 50
    assert full_run.elapsed < 600.0
    assert full_run.report.average_mae_norm < 0.02

    # the explanation report ranks the generative pattern first
    model, kg = full_run.model, t.kg
    patterns = explain(model, kg, t.split.test, seed=full_run.config.seed)
    generative = (kg.attribute_index["val"],
                  (kg.relation_index["p"], kg.relation_index["q"]))
    assert patterns[0][0] == generative


# ---------------------------------------------------------------------------
# 8. ablation directions


def test_criterion_08_ablation_directions(full_run, ablation_runs):
    full_mae = full_run.report.average_mae_norm
    for name in ("no_projection", "no_weighting", "no_filter"):
        outcome = ablation_runs[name]
        history = outcome.result.history
        assert history[0].train_loss != history[-1].train_loss  # it trained
        assert full_mae < outcome.report.average_mae_norm, (
            f"full {full_mae:.4f} not better than {name} "
            f"{outcome.report.average_mae_norm:.4f}")


# ---------------------------------------------------------------------------
# 9. desk-scale real-data check


_YAGO_DIR = yago_data_dir()
_YAGO_FILES = ("relational.tsv", "train.tsv", "valid.tsv", "test.tsv")
_YAGO_READY = all((_YAGO_DIR / name).exists() for name in _YAGO_FILES)


@pytest.mark.skipif(not _YAGO_READY, reason=(
    "prepared YAGO15K dataset not found; set RACHAIN_YAGO_DIR or run "
    "scripts/prepare_yago15k.py into data/yago15k"))
def test_criterion_09_real_data_desk_check():
    started = time.perf_counter()
    kg, split = load_dataset(*(_YAGO_DIR / name for name in _YAGO_FILES))

    assert kg.n_entities == 15404
    assert kg.num_base_relations == 32
    assert kg.n_attributes == 7
    assert len(kg.edge_tail) == 2 * 122886
    assert len(split.train) + len(split.valid) + len(split.test) == 23520

    config = _experiment_config("yago_desk")
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    model = Model(kg.n_relations, kg.n_attributes, stats, means, config)
    train(model, kg, split)

    report = evaluate(model, kg, split.test, seed=config.seed)
    baseline = train_mean_baseline(model, kg, split.test)
    assert report.average_mae_norm <= 0.8 * baseline.average_mae_norm, (
        f"model {report.average_mae_norm:.4f} vs "
        f"baseline {baseline.average_mae_norm:.4f}")
    assert time.perf_counter() - started <= 7200.0


# ---------------------------------------------------------------------------
# 10. projection-mode comparison on the multiplicative task


def test_criterion_10_projection_mode_comparison(full_run, translation_run):
    history = translation_run.result.history
    assert history[0].train_loss != history[-1].train_loss  # it trained
    assert (full_run.report.average_mae_norm
            < translation_run.report.average_mae_norm), (
        f"scaling {full_run.report.average_mae_norm:.4f} not better than "
        f"translation {translation_run.report.average_mae_norm:.4f}")
