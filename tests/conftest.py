import numpy as np
import pytest

from perfbench.workloads import WORKLOADS, tiny
from rachain import synth
from rachain.kg import load_dataset


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def bench_files(tmp_path_factory):
    """The relational, train, valid and test TSVs of the graph the
    benchmark's tiny() workloads share, with seed 61."""
    out = tmp_path_factory.mktemp("bench-graph")
    synth.generate(synth.SynthSpec.from_dict(tiny(WORKLOADS["train_small"]).spec), 61, out)
    return [out / f"{name}.tsv" for name in ("relational", "train", "valid", "test")]


@pytest.fixture(scope="module")
def bench_graph(bench_files):
    """The (graph, split) loaded from `bench_files`."""
    return load_dataset(*bench_files)
