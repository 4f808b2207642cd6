"""CLI surface: commands, outputs, exit codes."""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from maas import checkpoint as ckpt
from maas import sampler
from maas.cli import PROBE_QUERIES, main
from maas.controller import init_params
from maas.data import load_dataset
from maas.datagen import _profile_dicts, default_env, default_profiles, make_mixed_dataset
from maas.harness import run_eval
from maas.optimizer import TrainConfig, Trainer
from maas.registry import builtin_registry
from maas.sampler import MODE_EVAL, sample_architecture


ROOT = Path(__file__).resolve().parent.parent
# `maas train` on the shipped data, 3 iterations at seed 7, and where the
# checkpoint's hash was recorded: its floats come from numpy's kernels, which
# differ between numpy versions and between the SIMD targets a CPU runs.
GOLDEN_CHECKPOINT = {
    "sha256": "88f0a238fb3bb74e966166b968ef8a1f0b82ed03dada509f4787c155584446d1",
    "numpy": "2.4.6",
    "platform": "linux-x86_64",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


@pytest.fixture
def workdir(tmp_path):
    data = tmp_path / "mix.jsonl"
    with open(data, "w") as fh:
        for rec in make_mixed_dataset(10, 10):
            fh.write(json.dumps(rec) + "\n")
    profile = tmp_path / "profiles.json"
    profile.write_text(json.dumps(_profile_dicts(default_profiles())))
    return tmp_path


def train_args(workdir, extra=()):
    return [
        "train",
        "--dataset", str(workdir / "mix.jsonl"),
        "--env", "synthetic",
        "--env-profile", str(workdir / "profiles.json"),
        "--layers", "2",
        "--iterations", "2",
        "--checkpoint", str(workdir / "ckpt.json"),
        *extra,
    ]


class TestTrainCommand:
    def test_trains_and_writes_checkpoint(self, workdir):
        result = CliRunner().invoke(main, train_args(workdir))
        assert result.exit_code == 0, result.output
        assert (workdir / "ckpt.json").exists()
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["steps"] == 8  # 2 iterations x 4 train records

    def test_metrics_out(self, workdir):
        result = CliRunner().invoke(
            main, train_args(workdir, ["--metrics-out", str(workdir / "m.jsonl")])
        )
        assert result.exit_code == 0
        assert len((workdir / "m.jsonl").read_text().splitlines()) == 8

    def test_missing_dataset_is_usage_error(self, workdir):
        result = CliRunner().invoke(main, [
            "train", "--dataset", str(workdir / "nope.jsonl"),
            "--checkpoint", str(workdir / "c.json"),
        ])
        assert result.exit_code == 2

    def test_synthetic_without_profile_is_data_error(self, workdir):
        result = CliRunner().invoke(main, [
            "train", "--dataset", str(workdir / "mix.jsonl"),
            "--env", "synthetic",
            "--checkpoint", str(workdir / "c.json"),
        ])
        assert result.exit_code == 3

    def test_corrupt_dataset_is_data_error(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text("{broken\n")
        args = train_args(workdir)
        args[2] = str(bad)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3

    def test_llm_mutator_without_url_fails_before_training(self, workdir,
                                                           monkeypatch):
        monkeypatch.delenv("MAAS_BASE_URL", raising=False)
        result = CliRunner().invoke(main, train_args(workdir, ["--mutator", "llm"]))
        assert result.exit_code == 4
        assert "base URL" in result.output
        assert not (workdir / "ckpt.json").exists()


class TestEvalCommand:
    def test_eval_report(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        result = runner.invoke(main, [
            "eval",
            "--checkpoint", str(workdir / "ckpt.json"),
            "--dataset", str(workdir / "mix.jsonl"),
            "--env-profile", str(workdir / "profiles.json"),
            "--report-out", str(workdir / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["n_records"] == 20
        assert json.loads((workdir / "report.json").read_text()) == report


class TestSampleCommand:
    def test_sample_plain_and_explain(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        base = [
            "sample", "--checkpoint", str(workdir / "ckpt.json"),
            "--query", "add 2 and 3",
        ]
        plain = runner.invoke(main, base)
        assert plain.exit_code == 0, plain.output
        out = json.loads(plain.output)
        assert "layers" in out and "edges" in out
        assert "per_layer_scores" not in out
        explained = runner.invoke(main, base + ["--explain"])
        scored = json.loads(explained.output)
        assert scored["per_layer_scores"]
        assert len(scored["per_layer_scores"][0]) == 9

    def test_explain_scores_are_the_forward_pass(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        query = "what is 14 plus 9"
        result = runner.invoke(main, [
            "sample", "--checkpoint", str(workdir / "ckpt.json"),
            "--query", query, "--explain",
        ])
        assert result.exit_code == 0, result.output
        arch = sample_from(workdir, query)
        assert json.loads(result.output)["per_layer_scores"] == [
            sv.scores.tolist() for sv in arch.forward
        ]

    def test_deterministic_across_calls(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        args = ["sample", "--checkpoint", str(workdir / "ckpt.json"),
                "--query", "q"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestInspectCommand:
    def test_inspect_shape(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        result = runner.invoke(main, [
            "inspect", "--checkpoint", str(workdir / "ckpt.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["operator_ids"][-1] == "direct_io"
        scores = report["mean_scores_by_layer"]
        assert "1" in scores
        assert len(scores["1"]) == 9
        assert abs(sum(scores["1"]) - 1.0) < 1e-9

    def test_inspect_means_the_probe_scores(self, workdir):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        result = runner.invoke(main, [
            "inspect", "--checkpoint", str(workdir / "ckpt.json"),
        ])
        assert result.exit_code == 0, result.output
        by_layer = {}
        for q in PROBE_QUERIES:
            for ell, sv in enumerate(sample_from(workdir, q).forward, start=1):
                by_layer.setdefault(str(ell), []).append(sv.scores)
        means = json.loads(result.output)["mean_scores_by_layer"]
        assert sorted(means) == sorted(by_layer)
        for ell, rows in by_layer.items():
            np.testing.assert_allclose(means[ell], np.mean(rows, axis=0),
                                       rtol=1e-12, atol=0)


def sample_from(workdir, query):
    """The eval-mode architecture the trained checkpoint selects for `query`."""
    state, registry, config = ckpt.restore(ckpt.load(str(workdir / "ckpt.json")))
    return sample_architecture(state, registry, query, config.thres, MODE_EVAL)


class TestDagOnlyWhenPrinted:
    """`sampler.build_dag` runs once per architecture `maas sample` prints
    and never while training, evaluating or inspecting."""

    @pytest.fixture
    def dag_calls(self, monkeypatch):
        calls = []
        build = sampler.build_dag

        def counting(arch):
            calls.append(build(arch))
            return calls[-1]

        monkeypatch.setattr(sampler, "build_dag", counting)
        return calls

    def test_training_steps_and_eval_build_no_dag(self, workdir, dag_calls):
        registry = builtin_registry()
        cfg = TrainConfig(num_layers=3, embed_dim=16, hidden_dim=16, patch_every=2)
        state = init_params(0, 16, 16, 3, len(registry))
        trainer = Trainer(state, registry, default_env(), cfg, np.random.default_rng(0))
        records = load_dataset(workdir / "mix.jsonl")
        for record in records[:6]:
            trainer.step(record)
        assert trainer.step_count == 6
        report = run_eval(ckpt.build_checkpoint(state, registry, cfg),
                          workdir / "mix.jsonl", default_env())
        assert report["n_records"] == len(records)
        assert dag_calls == []

    def test_sample_builds_one_dag_per_printed_architecture(self, workdir, dag_calls):
        runner = CliRunner()
        assert runner.invoke(main, train_args(workdir)).exit_code == 0
        path = str(workdir / "ckpt.json")
        assert runner.invoke(main, ["inspect", "--checkpoint", path]).exit_code == 0
        assert dag_calls == []
        printed = []
        for query in ("add 2 and 3", "what is 14 plus 9"):
            for extra in ([], ["--explain"]):
                result = runner.invoke(
                    main, ["sample", "--checkpoint", path, "--query", query, *extra])
                assert result.exit_code == 0, result.output
                printed.append(json.loads(result.output)["edges"])
        assert printed == [[list(e) for e in edges] for edges in dag_calls]


def numpy_simd_targets():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def test_seed7_checkpoint_is_byte_identical(tmp_path):
    """Pins the RNG stream and every float operation of training: a change
    to either changes this hash."""
    here = f"{sys.platform}-{platform.machine()}"
    if np.__version__ != GOLDEN_CHECKPOINT["numpy"] or here != GOLDEN_CHECKPOINT["platform"]:
        pytest.skip(f"hash recorded on numpy {GOLDEN_CHECKPOINT['numpy']},"
                    f" {GOLDEN_CHECKPOINT['platform']}; this is numpy"
                    f" {np.__version__}, {here}")
    if numpy_simd_targets() != GOLDEN_CHECKPOINT["simd"]:
        pytest.skip(f"hash recorded with numpy SIMD targets {GOLDEN_CHECKPOINT['simd']};"
                    f" this CPU runs {numpy_simd_targets()}")
    path = tmp_path / "ckpt.json"
    result = CliRunner().invoke(main, [
        "train",
        "--dataset", str(ROOT / "data" / "synthetic_mix.jsonl"),
        "--env", "synthetic",
        "--env-profile", str(ROOT / "data" / "synthetic_profiles.json"),
        "--iterations", "3",
        "--seed", "7",
        "--checkpoint", str(path),
    ])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT["sha256"]
