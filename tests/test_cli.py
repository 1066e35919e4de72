import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rachain
from rachain.cli import _config_from_args, build_parser, main
from rachain.config import TrainConfig
from rachain.model import load_checkpoint


# src spans [0, 10] thanks to the standalone facts while rule sources stay in
# [0, 5], so the normalized-space relation is a genuine doubling, not the
# identity that min-max scaling would absorb.
SPEC = {
    "rules": [{"target_attribute": "dst", "source_attribute": "src",
               "path": ["p"], "alpha": 2.0, "beta": 0.0,
               "instances": 16, "source_range": [0.0, 5.0]}],
    "standalone": [{"attribute": "src", "count": 4, "value_range": [9.0, 10.0]}],
    "split": [0.7, 0.15, 0.15],
}

CONFIG = {
    "walks": 8, "max_hops": 2, "top_k": 4, "dim": 8, "filter_dim": 8,
    "layers": 1, "heads": 2, "affine_hidden": 16, "epochs": 50,
    "batch_size": 4, "lr": 0.02, "patience": 50, "epsilon": 1e-12,
    "seed": 9, "mode": "scaling", "attributes": ["dst"],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; later tests reuse the checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    data = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--seed", "1",
                 "--out", str(data)]) == 0

    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    run = root / "run"
    code = main(["train",
                 "--relational", str(data / "relational.tsv"),
                 "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--config", str(config_path),
                 "--epochs", "20",  # the flag must override the file's 50
                 "--out", str(run)])
    assert code == 0
    return root


def dataset_args(root):
    data = root / "data"
    return ["--relational", str(data / "relational.tsv"),
            "--train", str(data / "train.tsv"),
            "--valid", str(data / "valid.tsv"),
            "--test", str(data / "test.tsv")]


class TestSynthAndIngest:
    def test_synth_writes_dataset(self, workspace, capsys):
        data = workspace / "data"
        for name in ("relational.tsv", "train.tsv", "valid.tsv", "test.tsv",
                     "meta.json"):
            assert (data / name).exists()

    def test_ingest_reports_and_dumps(self, workspace, capsys):
        out = workspace / "ingest"
        code = main(["ingest", *dataset_args(workspace), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "entities" in captured.out
        assert (out / "stats.txt").exists()
        summary = json.loads((out / "summary.json").read_text())
        # 16 instances x (source, target) + 4 standalone entities
        assert summary["entities"] == 36
        # 16 sources + 4 standalone + 12 of 16 targets
        assert summary["numerical_facts"]["train"] == 32
        assert (out / "attributes.txt").read_text().splitlines() == ["src", "dst"]


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.npz").exists()
        assert (run / "epochs.csv").exists()
        assert (run / "config.json").exists()

    def test_flag_overrides_config_file(self, workspace):
        saved = json.loads((workspace / "run" / "config.json").read_text())
        assert saved["epochs"] == 20      # flag
        assert saved["lr"] == 0.02        # file
        assert saved["attributes"] == ["dst"]
        rows = (workspace / "run" / "epochs.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 20

    def test_ablation_switch_lands_in_config(self, workspace):
        out = workspace / "run_nofilter"
        config_path = workspace / "config.json"
        code = main(["train", *dataset_args(workspace),
                     "--config", str(config_path), "--epochs", "1",
                     "--no-filter", "--cache-toc", "--out", str(out)])
        assert code == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["use_filter"] is False
        assert saved["cache_toc"] is True

    def test_unknown_config_key_fails_cleanly(self, workspace, capsys):
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps({"walks": 8, "wheels": 3}))
        code = main(["train", *dataset_args(workspace), "--config", str(bad),
                     "--out", str(workspace / "never")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "wheels" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_wrongly_typed_config_value_fails_cleanly(self, workspace, capsys):
        bad = workspace / "float_epochs.json"
        bad.write_text(json.dumps({**CONFIG, "epochs": 3.0}))
        code = main(["train", *dataset_args(workspace), "--config", str(bad),
                     "--out", str(workspace / "never")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: epochs must be int, got 3.0\n"
        assert not (workspace / "never").exists()


class TestEval:
    def test_eval_uses_stored_dataset_paths(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        out = workspace / "metrics"
        code = main(["eval", "--checkpoint", str(ckpt), "--split", "test",
                     "--baseline", "--filter-audit", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "average normalized MAE" in captured.out
        assert "train-mean baseline" in captured.out
        assert "filter composition" in captured.out
        assert (out / "metrics.csv").exists()
        assert (out / "baseline.csv").exists()

    def test_eval_empty_split_fails_cleanly(self, workspace, capsys, tmp_path):
        data = workspace / "data"
        ckpt = workspace / "run" / "checkpoint.npz"
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--relational", str(data / "relational.tsv"),
                     "--train", str(data / "train.tsv"),
                     "--valid", str(empty),
                     "--split", "valid"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "empty" in captured.err

    @pytest.mark.parametrize("table, counts", [("relational", "relations"),
                                               ("train", "attributes")])
    def test_eval_on_a_graph_of_another_size_fails_cleanly(self, workspace, capsys,
                                                           tmp_path, table, counts):
        # each relation renamed per row, or one more attribute, than the
        # checkpoint's graph has
        data = workspace / "data"
        rows = (data / f"{table}.tsv").read_text().splitlines()
        if table == "relational":
            rows = [f"{h}\t{r}{i}\t{t}" for i, (h, r, t) in
                    enumerate(row.split("\t") for row in rows)]
        else:
            rows.append(rows[0].split("\t")[0] + "\textra\t1.0")
        (tmp_path / f"{table}.tsv").write_text("\n".join(rows) + "\n")
        paths = {name: str(data / f"{name}.tsv") for name in ("relational", "train", "test")}
        paths[table] = str(tmp_path / f"{table}.tsv")
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["eval", "--checkpoint", str(ckpt),
                     *(arg for name, path in paths.items() for arg in (f"--{name}", path))])
        captured = capsys.readouterr()
        stored = getattr(load_checkpoint(ckpt)[0], f"n_{counts}")
        assert code == 1
        assert f"but the checkpoint was trained with {stored}" in captured.err
        assert f" {counts} " in captured.err


class TestPredict:
    def test_predict_prints_value_and_writes_trace(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        trace_path = workspace / "trace.json"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--entity", "r0_t0", "--attribute", "dst",
                     "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("r0_t0 / dst:")
        trace = json.loads(trace_path.read_text())
        assert trace["entity"] == "r0_t0"
        assert trace["attribute"] == "dst"
        assert np.isfinite(trace["predicted_value"])
        assert trace["contributions"]
        first = trace["contributions"][0]
        assert first["source_attribute"] == "src"
        assert first["relations"] == ["p"]

    def test_prediction_tracks_the_generating_rule(self, workspace):
        """After training, predictions on held-out targets beat the mean."""
        ckpt = workspace / "run" / "checkpoint.npz"
        data = workspace / "data"
        test_rows = [line.split("\t")
                     for line in (data / "test.tsv").read_text().splitlines()]
        from rachain.model import load_checkpoint
        from rachain.kg import load_dataset, Query
        model, _ = load_checkpoint(ckpt)
        kg, _ = load_dataset(data / "relational.tsv", data / "train.tsv",
                             data / "valid.tsv", data / "test.tsv")
        for entity, attr, value in test_rows:
            q = Query(kg.entity_index[entity], kg.attribute_index[attr])
            trace = model.predict(kg, q, seed=0)
            assert trace.fallback is None
            assert abs(trace.predicted_value - float(value)) < 2.0

    def test_unknown_entity_fails_cleanly(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--entity", "atlantis", "--attribute", "dst"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: unknown entity 'atlantis'")
        assert len(captured.err.strip().splitlines()) == 1

    def test_unknown_attribute_fails_cleanly(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--entity", "r0_t0", "--attribute", "mass"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown attribute 'mass'" in captured.err

    def test_negative_top_fails_cleanly(self, workspace, capsys):
        # a negative slice bound would drop the last contributions silently
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--entity", "r0_t0", "--attribute", "dst", "--top", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --top must be non-negative, got -1\n"


class TestExplain:
    def test_explain_ranks_the_generating_pattern(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        out = workspace / "patterns.txt"
        code = main(["explain", "--checkpoint", str(ckpt), "--split", "test",
                     "--attribute", "dst", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "pattern" in captured.out
        assert "[src] p" in captured.out
        assert out.read_text() == captured.out

    def test_negative_limit_fails_cleanly(self, workspace, capsys):
        # a negative slice bound would drop the last patterns silently
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["explain", "--checkpoint", str(ckpt), "--split", "test",
                     "--limit", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --limit must be non-negative, got -1\n"

    def test_explain_without_queries_fails_cleanly(self, workspace, capsys):
        ckpt = workspace / "run" / "checkpoint.npz"
        code = main(["explain", "--checkpoint", str(ckpt), "--split", "test",
                     "--attribute", "src"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no queries to explain" in captured.err

    @pytest.mark.parametrize("attribute", ["b", "c"], ids=["unusable", "out_of_scope"])
    def test_explain_without_scoped_queries_fails_cleanly(self, tmp_path, capsys,
                                                          attribute):
        # b has test rows but a single training value; c is usable but outside
        # the checkpoint's attribute scope
        rows = {
            "relational": [("e1", "p", "e2"), ("e2", "p", "e3"), ("e3", "p", "e4")],
            "train": [("e1", "a", "0.0"), ("e2", "a", "10.0"), ("e1", "b", "3.0"),
                      ("e1", "c", "1.0"), ("e2", "c", "5.0")],
            "test": [("e3", "a", "4.0"), ("e3", "b", "4.0"), ("e3", "c", "2.0")],
        }
        paths = []
        for name, table in rows.items():
            path = tmp_path / f"{name}.tsv"
            path.write_text("".join("\t".join(r) + "\n" for r in table))
            paths += [f"--{name}", str(path)]
        assert main(["train", *paths, "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--walks", "4", "--dim", "8", "--filter-dim", "8", "--heads", "2",
                     "--affine-hidden", "8", "--attributes", "a"]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.npz")
        capsys.readouterr()
        assert main(["explain", "--checkpoint", ckpt, "--attribute", "a"]) == 0
        code = main(["explain", "--checkpoint", ckpt, "--attribute", attribute])
        captured = capsys.readouterr()
        assert code == 1
        assert "no queries to explain" in captured.err


class TestEntryPoint:
    def test_module_invocation_shows_help(self):
        # the child must import the rachain this suite imports, whether it
        # comes from an install or from a path pytest set up
        package_root = str(Path(rachain.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "rachain.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "explain" in proc.stdout

    def test_missing_file_is_a_single_error_line(self, workspace, capsys):
        code = main(["ingest", "--relational", "/nonexistent/rel.tsv",
                     "--train", "/nonexistent/train.tsv"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1


NUMERIC_FIELDS = [f for f in dataclasses.fields(TrainConfig)
                  if type(f.default) in (int, float)]


@pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=[f.name for f in NUMERIC_FIELDS])
def test_numeric_config_field_round_trips_through_its_flag(field):
    # a valid value that differs from the default (dim and heads stay divisible)
    if type(field.default) is int:
        value = 2 * field.default or 3
    else:
        value = field.default / 2
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(["train", "--relational", "r.tsv", "--train", "t.tsv",
                                      "--out", "run", flag, str(value)])
    config = _config_from_args(args)
    assert getattr(config, field.name) == value != field.default
    assert type(getattr(config, field.name)) is type(field.default)


def _other_field_cases():
    """(field, flag arguments, expected value) for every field that is not a
    number: both spellings of each bool, a non-default choice, and a list."""
    cases = []
    for f in dataclasses.fields(TrainConfig):
        if f in NUMERIC_FIELDS:
            continue
        flag = "--" + f.name.removeprefix("use_").replace("_", "-")
        if type(f.default) is bool:
            cases += [(f.name, [flag], True), (f.name, ["--no-" + flag[2:]], False)]
        elif f.name == "attributes":
            cases.append((f.name, [flag, "a,b"], ("a", "b")))
        else:
            value = {"mode": "direct", "loss": "l1"}[f.name]
            assert value != f.default
            cases.append((f.name, [flag, value], value))
    return cases


OTHER_CASES = _other_field_cases()


@pytest.mark.parametrize("name,argv,expected", OTHER_CASES,
                         ids=[" ".join(argv) for _, argv, _ in OTHER_CASES])
def test_other_config_field_round_trips_through_its_flag(name, argv, expected):
    args = build_parser().parse_args(["train", "--relational", "r.tsv", "--train", "t.tsv",
                                      "--out", "run", *argv])
    config = _config_from_args(args)
    assert getattr(config, name) == expected
    assert type(getattr(config, name)) is type(expected)
    # the other fields keep their defaults
    assert ({k: v for k, v in config.to_dict().items() if k != name}
            == {k: v for k, v in TrainConfig().to_dict().items() if k != name})

