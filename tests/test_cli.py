"""CLI surface: commands, outputs, exit codes."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from maas import checkpoint as ckpt
from maas import cli, controller, executor, sampler
from maas.cli import PROBE_QUERIES, main
from maas.controller import init_params
from maas.data import load_dataset
from maas.datagen import default_env
from maas.embedding import HashingEmbedder
from maas.harness import run_eval
from maas.optimizer import TrainConfig
from maas.registry import builtin_registry
from maas.sampler import MODE_EVAL, sample_architecture
from tests.helpers import (BAD_CHECKPOINTS, make_trainer, small_mix, train_args,
                           with_config_field, with_state, without_operator_entry,
                           write_jsonl)


ROOT = Path(__file__).resolve().parent.parent
# `maas train` on the shipped data, 3 iterations at seed 7, and where the
# checkpoint's hash was recorded: its floats come from numpy's kernels, which
# differ between numpy versions and between the SIMD targets a CPU runs.
# "simd" lists each set of targets on which both pinned hashes were checked.
GOLDEN_CHECKPOINT = {
    "sha256": "8b249cea1867296c5098dfbbae3e0ce04586609a389b945396c6d11c098f372e",
    "numpy": "2.4.6",
    "platform": "linux-x86_64",
    "simd": [
        ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
        ["X86_V3", "X86_V4", "AVX512_ICL"],
    ],
}
# `maas train` on the shipped data, 100 iterations at seed 3, with its
# metrics and the stdout of `maas eval` on the same data; recorded where
# GOLDEN_CHECKPOINT was
GOLDEN_SEED3 = {
    "checkpoint": "d4acc2adc37a53f7dc07e6363e193196f9fb154e857b231659589ec6655441e5",
    "metrics": "876f935f499d9421ae9b9e99fce58e9809b1fa7b88ac5dc64dcbbb58597db4b6",
    "eval": "de4eef2a11c9a68809bcee6e35172ceb3b5da07a01fbbd7af8d2c835ea2f8e77",
    # the stdout of `maas sample --explain` of that checkpoint, per query: an
    # easy one that exits at layer 1 and a hard one that exits at layer 4
    "sample": {
        "what is 15 plus 29":
            "40b1c03b40b7081e94eab45e375d8ffe41134a328abe500e531d68b0a4cbf3c8",
        "evaluate the contour integral of z^3 over the unit circle times 1":
            "dec34393d4cf3e45692202f7e5660546a2cb740bdb84a1b4b56a1af033102a4f",
    },
    # the stdout of `maas inspect` of that checkpoint
    "inspect": "5a22e80366c179b615d605218d6a94f50435b13c790f0e9fc8624c315cbb44ad",
}


class TestTrainCommand:
    def test_trains_and_writes_checkpoint(self, workdir):
        result = CliRunner().invoke(main, train_args(workdir))
        assert result.exit_code == 0, result.output
        assert (workdir / "ckpt.json").exists()
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["steps"] == 8  # 2 iterations x 4 train records

    def test_shared_checkpoint_is_the_one_train_writes_here(self, workdir,
                                                            trained_checkpoint):
        """The checkpoint `trained` copies into each test's workdir is the
        file `maas train` writes there."""
        assert CliRunner().invoke(main, train_args(workdir)).exit_code == 0
        assert (hashlib.sha256((workdir / "ckpt.json").read_bytes()).hexdigest()
                == hashlib.sha256(trained_checkpoint).hexdigest())

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

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_not_utf8_is_data_error(self, workdir, command, request):
        bad = workdir / "bad.jsonl"
        bad.write_bytes(b'{"id": "q1", "query": "\xff"}\n')
        if command == "train":
            args = train_args(workdir)
            args[2] = str(bad)
        else:
            request.getfixturevalue("trained")
            args = ["eval", "--checkpoint", str(workdir / "ckpt.json"),
                    "--dataset", str(bad),
                    "--env-profile", str(workdir / "profiles.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output.startswith(f"data error: dataset {bad} is not text: ")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("unit_cost", float("inf")), ("unit_cost", float("nan")),
        ("base_success", True), ("difficulty_slope", "0.5"),
    ])
    def test_profile_value_not_a_finite_number_is_data_error(self, workdir, field,
                                                              value):
        profiles = json.loads((workdir / "profiles.json").read_text())
        profiles["profiles"][0][field] = value
        (workdir / "profiles.json").write_text(json.dumps(profiles))
        result = CliRunner().invoke(main, train_args(workdir))
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: malformed profile file ")
        assert result.output.count("\n") == 1
        assert not (workdir / "ckpt.json").exists()

    def test_llm_mutator_without_url_fails_before_training(self, workdir,
                                                           monkeypatch):
        monkeypatch.delenv("MAAS_BASE_URL", raising=False)
        result = CliRunner().invoke(main, train_args(workdir, ["--mutator", "llm"]))
        assert result.exit_code == 4
        assert "base URL" in result.output
        assert not (workdir / "ckpt.json").exists()

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_live_env_without_url_fails_before_any_call(self, workdir, monkeypatch,
                                                        command):
        monkeypatch.delenv("MAAS_BASE_URL", raising=False)

        def forbidden(*args):
            pytest.fail("a chat request or a retry sleep ran")

        monkeypatch.setattr(executor, "_urllib_transport", forbidden)
        for fn in (executor.LiveEnv.__init__, executor.resolve_endpoint):
            *others, sleep = fn.__defaults__
            assert sleep is time.sleep
            monkeypatch.setattr(fn, "__defaults__", (*others, forbidden))
        args = {
            "train": train_args(workdir, ["--env", "live",
                                          "--checkpoint", str(workdir / "live.json")]),
            "eval": ["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--dataset", str(workdir / "mix.jsonl"), "--env", "live"],
        }[command]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.output.startswith("backend error: no base URL")
        assert result.output.count("\n") == 1
        assert not (workdir / "live.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--env", "live"], ["--mutator", "llm", "--patch-every", "1"],
    ], ids=["live_env", "llm_mutator"])
    def test_null_chat_content_is_backend_error(self, workdir, monkeypatch, flags):
        def transport(url, payload, headers):
            return 200, {"choices": [{"message": {"content": None}}],
                         "usage": {"prompt_tokens": 3, "completion_tokens": 2}}

        monkeypatch.setattr(executor, "_urllib_transport", transport)
        monkeypatch.setenv("MAAS_BASE_URL", "http://stub")
        result = CliRunner().invoke(main, train_args(workdir, flags))
        assert result.exit_code == 4, result.output
        assert result.output == ("backend error: bad chat completion payload:"
                                 " content is NoneType, not str\n")
        assert not (workdir / "ckpt.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--thres", "2"), ("--samples-k", "1"), ("--patch-every", "-3"),
        ("--patch-every", "0"),
        ("--seed", "-1"), ("--iterations", "-2"), ("--lr", "inf"), ("--lambda", "nan"),
    ])
    def test_out_of_range_hyperparameter_is_usage_error(self, workdir, flag, value):
        result = CliRunner().invoke(main, train_args(workdir, [flag, value]))
        assert result.exit_code == 2, result.output
        assert not (workdir / "ckpt.json").exists()

    def test_hyperparameter_defaults_are_train_config_defaults(self):
        """Each option that sets a `TrainConfig` field defaults to it."""
        defaults = TrainConfig()
        fields = set(asdict(defaults))
        options = {p.name: p.default for p in main.commands["train"].params
                   if p.name in fields}
        assert set(options) == fields - {"embed_dim", "hidden_dim"}
        for name, default in options.items():
            assert default == getattr(defaults, name), name


@pytest.mark.usefixtures("trained")
class TestEvalCommand:
    def test_eval_report(self, workdir):
        runner = CliRunner()
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

    @pytest.mark.parametrize("text", [
        "{broken\n", "[]\n", '{"profiles": [{"operator_id": "cot"}]}\n',
    ], ids=["not_json", "bare_list", "missing_field"])
    def test_malformed_profile_file_is_data_error(self, workdir, text):
        runner = CliRunner()
        bad = workdir / "bad_profiles.json"
        bad.write_text(text)
        result = runner.invoke(main, [
            "eval",
            "--checkpoint", str(workdir / "ckpt.json"),
            "--dataset", str(workdir / "mix.jsonl"),
            "--env-profile", str(bad),
        ])
        assert result.exit_code == 3, result.output
        assert f"data error: malformed profile file {bad}" in result.output

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_misspelled_profile_key_exits_3(self, workdir, command):
        """A file whose `profiles` key is misspelled exits 3 naming the key."""
        bad = workdir / "bad_profiles.json"
        profiles = json.loads((ROOT / "data" / "sabotaged_profiles.json").read_text())
        profiles["profile"] = profiles.pop("profiles")
        bad.write_text(json.dumps(profiles))
        result = CliRunner().invoke(main, with_env_profile(workdir, command, bad))
        assert result.exit_code == 3, result.output
        assert result.output == (f"data error: malformed profile file {bad}: DataError:"
                                 " unknown key 'profile' at the top level\n")
        assert not (workdir / "new.json").exists()

    @pytest.mark.parametrize("fault,message", [
        ("second_cot", "second profile for operator 'cot'"),
        ("override_list", "unknown key 'prompt_success_overrides' at the top level"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_profile_file_of_another_shape_exits_3(self, workdir, command, fault, message):
        """The shipped profiles with a second `cot` at base success 0.99,
        which keying by operator id would read as cot's only profile, and the
        shipped sabotaged profiles in the shape that kept cot's marker in a
        `prompt_success_overrides` list: each exits 3 naming the file and the
        fault, and no checkpoint is written."""
        bad = workdir / "bad_profiles.json"
        if fault == "second_cot":
            profiles = json.loads((ROOT / "data" / "synthetic_profiles.json").read_text())
            cot = next(p for p in profiles["profiles"] if p["operator_id"] == "cot")
            profiles["profiles"].append({**cot, "base_success": 0.99})
        else:
            profiles = json.loads((ROOT / "data" / "sabotaged_profiles.json").read_text())
            cot = next(p for p in profiles["profiles"] if p["operator_id"] == "cot")
            profiles["prompt_success_overrides"] = [{
                "operator_id": "cot", "substring": cot.pop("marker"),
                "base_success": cot.pop("marker_success")}]
        bad.write_text(json.dumps(profiles))
        result = CliRunner().invoke(main, with_env_profile(workdir, command, bad))
        assert result.exit_code == 3, result.output
        assert result.output == (f"data error: malformed profile file {bad}: DataError:"
                                 f" {message}\n")
        assert not (workdir / "new.json").exists()

    @pytest.mark.parametrize("override", [
        {"marker": 5},
        {"operator_id": ["cot"]},
        {"marker_success": 1.5},
    ], ids=["int_substring", "list_operator", "base_success_above_1"])
    def test_malformed_prompt_override_is_data_error(self, workdir, override):
        """The sabotaged profiles with cot's marker an int, its operator id a
        list, or its marker's success rate above 1."""
        runner = CliRunner()
        bad = workdir / "bad_profiles.json"
        profiles = json.loads((ROOT / "data" / "sabotaged_profiles.json").read_text())
        profiles["profiles"] = [{**p, **override} if p["operator_id"] == "cot" else p
                                for p in profiles["profiles"]]
        bad.write_text(json.dumps(profiles))
        result = runner.invoke(main, [
            "eval",
            "--checkpoint", str(workdir / "ckpt.json"),
            "--dataset", str(workdir / "mix.jsonl"),
            "--env-profile", str(bad),
        ])
        assert result.exit_code == 3, result.output
        assert "data error: " in result.output

    def test_checker_reaches_the_synthetic_env(self, workdir):
        runner = CliRunner()
        yes = write_jsonl(workdir / "yes.jsonl",
                          [{**rec, "answer": "yes"} for rec in small_mix(5)])
        accuracy = {}
        for checker in ("exact_match", "numeric"):
            result = runner.invoke(main, [
                "eval",
                "--checkpoint", str(workdir / "ckpt.json"),
                "--dataset", str(yes),
                "--env-profile", str(workdir / "profiles.json"),
                "--checker", checker,
            ])
            assert result.exit_code == 0, result.output
            accuracy[checker] = json.loads(result.output)["accuracy"]
        # the synthetic env answers "yes" when it succeeds: no number to parse
        assert accuracy["exact_match"] > 0.0
        assert accuracy["numeric"] == 0.0


@pytest.mark.usefixtures("trained")
class TestBadCheckpoint:
    # each case maps the checkpoint `maas train` writes to the text of a bad one
    @pytest.mark.parametrize("corrupt", [
        lambda trained: "{broken\n",
        *(lambda trained, corrupt=corrupt: json.dumps(corrupt(trained))
          for corrupt in (without_operator_entry("react"),
                          with_config_field("num_layers", 1),
                          *(corrupt for corrupt, _ in BAD_CHECKPOINTS.values()))),
    ], ids=["not_json", "registry_without_react", "fewer_layers_than_controllers",
            *BAD_CHECKPOINTS])
    @pytest.mark.parametrize("command", ["eval", "sample", "inspect"])
    def test_is_data_error(self, workdir, command, corrupt):
        path = workdir / "bad.json"
        path.write_text(corrupt(json.loads((workdir / "ckpt.json").read_text())))
        extra = {
            "eval": ["--dataset", str(workdir / "mix.jsonl"),
                     "--env-profile", str(workdir / "profiles.json")],
            "sample": ["--query", "add 2 and 3"],
            "inspect": [],
        }[command]
        result = CliRunner().invoke(main, [command, "--checkpoint", str(path), *extra])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: ") and result.output.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "sample", "inspect"])
    def test_overflowing_forward_pass_exits_1_in_one_line(self, workdir, command):
        """Parameters alternating +-1e308 are finite, so `restore` takes them,
        but the forward pass overflows into NaN scores: a broken contract,
        reported in one line, with neither a traceback nor numpy's
        floating-point warnings on stderr."""
        def alternate_extremes(state):
            state.params[0::2], state.params[1::2] = 1e308, -1e308

        path = workdir / "ckpt.json"
        overflowing = with_state(alternate_extremes)(json.loads(path.read_text()))
        path.write_text(json.dumps(overflowing))
        proc = run_cli(valid_args(workdir, command))
        assert proc.returncode == 1, proc.stderr
        assert (proc.stdout, proc.stderr) == ("", "error: selection scores are NaN\n")

    @pytest.mark.parametrize("command", ["eval", "sample", "inspect"])
    def test_format_1_exits_3_saying_how_to_convert(self, workdir, command):
        path = workdir / "ckpt.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 1}))
        result = CliRunner().invoke(main, valid_args(workdir, command))
        assert result.exit_code == 3, result.output
        assert result.output == ("data error: checkpoint format 1, expected one of [2, 3];"
                                 " load and save it with an earlier maas to convert it to"
                                 " format 2\n")


def with_env_profile(workdir, command, profile):
    """Arguments of `train` (writing `new.json`) or `eval` under `workdir`
    that run the synthetic env of the file `profile`."""
    return {
        "train": train_args(workdir, ["--env-profile", str(profile),
                                      "--checkpoint", str(workdir / "new.json")]),
        "eval": ["eval", "--checkpoint", str(workdir / "ckpt.json"),
                 "--dataset", str(workdir / "mix.jsonl"), "--env-profile", str(profile)],
    }[command]


def valid_args(workdir, command):
    """Arguments on which `command` runs, its outputs under `workdir`; all
    but train read the checkpoint `train_args` writes."""
    checkpoint = str(workdir / "ckpt.json")
    return {
        "train": train_args(workdir, ["--metrics-out", str(workdir / "m.jsonl")]),
        "eval": ["eval", "--checkpoint", checkpoint,
                 "--dataset", str(workdir / "mix.jsonl"),
                 "--env-profile", str(workdir / "profiles.json"),
                 "--report-out", str(workdir / "report.json")],
        "sample": ["sample", "--checkpoint", checkpoint, "--query", "add 2 and 3"],
        "inspect": ["inspect", "--checkpoint", checkpoint],
    }[command]


class TestUsageErrors:
    @pytest.mark.parametrize("command,option", [
        ("train", "--dataset"), ("train", "--env-profile"), ("train", "--checkpoint"),
        ("train", "--metrics-out"), ("eval", "--checkpoint"), ("eval", "--dataset"),
        ("eval", "--env-profile"), ("eval", "--report-out"), ("sample", "--checkpoint"),
        ("inspect", "--checkpoint"),
    ])
    def test_directory_path_fails_before_any_work(self, workdir, command, option,
                                                  request):
        if command != "train":
            request.getfixturevalue("trained")
        args = valid_args(workdir, command)
        directory = workdir / "a_directory"
        directory.mkdir()
        args[args.index(option) + 1] = str(directory)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "is a directory" in result.output
        assert not (workdir / "report.json").exists()
        if command == "train":
            assert not (workdir / "ckpt.json").exists()
            assert not (workdir / "m.jsonl").exists()

    @pytest.mark.parametrize("command,option", [
        ("train", "--checkpoint"), ("train", "--metrics-out"), ("eval", "--report-out"),
    ])
    def test_output_in_a_missing_directory_fails_before_any_work(
            self, workdir, monkeypatch, command, option, request):
        if command != "train":
            request.getfixturevalue("trained")
        runs = []
        monkeypatch.setattr(cli, "run_train", lambda *args, **kwargs: runs.append(args))
        monkeypatch.setattr(cli, "run_eval", lambda *args, **kwargs: runs.append(args))
        args = valid_args(workdir, command)
        args[args.index(option) + 1] = str(workdir / "nodir" / "out.json")
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"Invalid value for '{option}'" in result.output
        assert "out.json' does not exist" in result.output
        assert runs == []
        assert not (workdir / "nodir").exists() and not (workdir / "report.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unknown_env(self, workdir, command, request):
        """`click.Choice` is the one check on `--env`."""
        if command != "train":
            request.getfixturevalue("trained")
        result = CliRunner().invoke(main, valid_args(workdir, command)
                                    + ["--env", "bogus"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "'bogus' is not one of 'synthetic', 'live'" in result.output


@pytest.mark.usefixtures("trained")
class TestSampleCommand:
    def test_sample_plain_and_explain(self, workdir):
        runner = CliRunner()
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
        args = ["sample", "--checkpoint", str(workdir / "ckpt.json"),
                "--query", "q"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


@pytest.mark.usefixtures("trained")
class TestInspectCommand:
    def test_inspect_shape(self, workdir):
        runner = CliRunner()
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

    def test_inspect_embeds_each_profile_text_once(self, workdir, monkeypatch):
        texts = []
        embed = HashingEmbedder.embed

        def recording_embed(self, text):
            texts.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "embed", recording_embed)
        result = CliRunner().invoke(main, [
            "inspect", "--checkpoint", str(workdir / "ckpt.json"),
        ])
        assert result.exit_code == 0, result.output
        assert [t for t in texts if t in PROBE_QUERIES] == PROBE_QUERIES
        profile_embeds = [t for t in texts if t not in PROBE_QUERIES]
        assert profile_embeds and len(profile_embeds) == len(set(profile_embeds))


def sample_from(workdir, query):
    """The eval-mode architecture the trained checkpoint selects for `query`."""
    state, registry, config = ckpt.restore(ckpt.load(str(workdir / "ckpt.json")))
    return sample_architecture(state, registry, query, config.thres, MODE_EVAL)


def train_six_steps_then_eval(workdir):
    """Six training steps, patching every two, then an eval of the
    checkpoint over the workdir's dataset."""
    trainer = make_trainer(default_env(), num_layers=3, embed_dim=16, hidden_dim=16,
                           patch_every=2)
    records = load_dataset(workdir / "mix.jsonl")
    for record in records[:6]:
        trainer.step(record)
    assert trainer.step_count == 6
    report = run_eval(ckpt.build_checkpoint(trainer.state, trainer.registry, trainer.config),
                      workdir / "mix.jsonl", default_env())
    assert report["n_records"] == len(records)


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
        train_six_steps_then_eval(workdir)
        assert dag_calls == []

    @pytest.mark.usefixtures("trained")
    def test_sample_builds_one_dag_per_printed_architecture(self, workdir, dag_calls):
        runner = CliRunner()
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


class TestLogProbOnlyWhenRead:
    """`controller.selection_log_prob` runs once per layer when
    `Architecture.log_prob` is read, and never while training or
    evaluating, which do not read it."""

    @pytest.fixture
    def log_prob_calls(self, monkeypatch):
        calls = []
        selection_log_prob = controller.selection_log_prob

        def counting(scores, selected):
            calls.append(selected)
            return selection_log_prob(scores, selected)

        monkeypatch.setattr(controller, "selection_log_prob", counting)
        return calls

    def test_training_steps_and_eval_compute_no_log_prob(self, workdir, log_prob_calls):
        train_six_steps_then_eval(workdir)
        assert log_prob_calls == []

    @pytest.mark.parametrize("mode", [sampler.MODE_TRAIN, MODE_EVAL])
    def test_reading_log_prob_runs_one_per_layer(self, log_prob_calls, mode):
        registry = builtin_registry()
        state = init_params(0, 16, 16, 4, len(registry))
        rng = np.random.default_rng(0)
        for text in ("add 2 and 3", "what is 14 plus 9", "prove the lemma"):
            arch = sample_architecture(state, registry, text, 0.3, mode, rng)
            assert log_prob_calls == []
            assert isinstance(arch.log_prob, float)
            assert log_prob_calls == arch.selections
            log_prob_calls.clear()


def test_utf8_dataset_trains_and_evals_under_the_c_locale(workdir):
    """Every file is read as UTF-8, whatever the locale: under `LC_ALL=C`,
    with UTF-8 mode and locale coercion off, a dataset whose queries hold
    "café" trains and evaluates."""
    rows = [{**rec, "query": rec["query"] + " café"} for rec in small_mix(10)]
    (workdir / "mix.jsonl").write_bytes(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8"))
    eval_args = ["eval", "--checkpoint", str(workdir / "ckpt.json"),
                 "--dataset", str(workdir / "mix.jsonl"),
                 "--env-profile", str(workdir / "profiles.json")]
    for args in (train_args(workdir), eval_args):
        proc = run_cli(args, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_records"] == 20


def run_cli(args, **env):
    """`python -m maas.cli *args` in a subprocess, with `src` on its path and
    `env` added to its environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "maas.cli", *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True)


class TestDeeplyNestedJson:
    """A JSON file nested past the parser's recursion limit is a data error
    that names the file, from each loader."""

    @pytest.mark.parametrize("option", ["--checkpoint", "--dataset", "--env-profile"],
                             ids=["checkpoint", "dataset", "profile"])
    def test_is_data_error(self, workdir, option):
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        if option == "--checkpoint":
            args = ["inspect", "--checkpoint", str(deep)]
        else:
            args = train_args(workdir)
            args[args.index(option) + 1] = str(deep)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: ") and result.output.count("\n") == 1
        assert str(deep) in result.output


def numpy_simd_targets():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def skip_unless_golden_numpy():
    """Skip, with the reason, unless numpy, the platform and the SIMD
    targets are those the golden hashes were recorded with."""
    here = f"{sys.platform}-{platform.machine()}"
    if np.__version__ != GOLDEN_CHECKPOINT["numpy"] or here != GOLDEN_CHECKPOINT["platform"]:
        pytest.skip(f"hash recorded on numpy {GOLDEN_CHECKPOINT['numpy']},"
                    f" {GOLDEN_CHECKPOINT['platform']}; this is numpy"
                    f" {np.__version__}, {here}")
    if numpy_simd_targets() not in GOLDEN_CHECKPOINT["simd"]:
        pytest.skip(f"hashes checked on numpy SIMD targets {GOLDEN_CHECKPOINT['simd']};"
                    f" this CPU runs {numpy_simd_targets()}")


def test_seed7_checkpoint_is_byte_identical(tmp_path):
    """Pins the RNG stream and every float operation of training: a change
    to either changes this hash."""
    skip_unless_golden_numpy()
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


@pytest.fixture(scope="module")
def seed3_run(tmp_path_factory):
    """The checkpoint and the metrics file `maas train` writes on the shipped
    data, 100 iterations at seed 3: trained once for the tests that read
    them, and skipped where the golden hashes were not recorded."""
    skip_unless_golden_numpy()
    tmp = tmp_path_factory.mktemp("seed3")
    path, metrics = tmp / "ckpt.json", tmp / "metrics.jsonl"
    result = CliRunner().invoke(main, [
        "train",
        "--dataset", str(ROOT / "data" / "synthetic_mix.jsonl"),
        "--env", "synthetic",
        "--env-profile", str(ROOT / "data" / "synthetic_profiles.json"),
        "--iterations", "100",
        "--seed", "3",
        "--checkpoint", str(path),
        "--metrics-out", str(metrics),
    ])
    assert result.exit_code == 0, result.output
    return path, metrics


def test_seed3_checkpoint_and_metrics_are_byte_identical(seed3_run):
    """1,000 steps with 100 patch rounds, and many layers reached by one
    sample only: pins the one-row backward, the update and the patch
    rounds over a longer run than the seed-7 pin; then `maas eval` of the
    checkpoint on the same data, whose architectures exit at layers 1 and
    4, pins every figure of the eval report."""
    path, metrics = seed3_run
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SEED3["checkpoint"]
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == GOLDEN_SEED3["metrics"]
    result = CliRunner().invoke(main, [
        "eval",
        "--checkpoint", str(path),
        "--dataset", str(ROOT / "data" / "synthetic_mix.jsonl"),
        "--env-profile", str(ROOT / "data" / "synthetic_profiles.json"),
    ])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_SEED3["eval"]


def test_seed3_sample_and_inspect_output_is_byte_identical(seed3_run):
    """Pins what `maas sample --explain` and `maas inspect` print for the
    seed-3 checkpoint: each selected architecture, its per-layer scores and
    the probe set's mean scores."""
    path, _ = seed3_run
    for query, sha256 in GOLDEN_SEED3["sample"].items():
        result = CliRunner().invoke(main, ["sample", "--checkpoint", str(path),
                                           "--query", query, "--explain"])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == sha256, query
    result = CliRunner().invoke(main, ["inspect", "--checkpoint", str(path)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_SEED3["inspect"]
