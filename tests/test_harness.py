"""Data loading, split protocol, checkpointing, train/eval loops."""

import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maas import checkpoint as ckpt
from maas import sampler
from maas.controller import init_params
from maas.data import load_dataset, split_dataset
from maas.datagen import default_env
from maas.embedding import HashingEmbedder
from maas.errors import DataError
from maas.executor import SyntheticEnv, SyntheticOperatorProfile, execute
from maas.harness import EVAL_RNG_OFFSET, Evaluator, run_eval, run_train
from maas.optimizer import TrainConfig
from maas.registry import OperatorPatch, builtin_registry
from tests.helpers import (BAD_CHECKPOINTS, any_value_anywhere, as_format2, decoded,
                           encoded, fill_workdir, small_checkpoint, write_jsonl)


SHIPPED_MIX = str(Path(__file__).resolve().parent.parent / "data" / "synthetic_mix.jsonl")


def rows(n, difficulty=0.1, domain="easy"):
    return [
        {"id": f"r{i}", "query": f"add {i} and {i}", "answer": str(2 * i),
         "domain": domain, "difficulty": difficulty}
        for i in range(n)
    ]


class TestLoadDataset:
    def test_valid_file_preserves_order(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", rows(3))
        records = load_dataset(path)
        assert [r.id for r in records] == ["r0", "r1", "r2"]
        assert records[1].answer == "2"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(rows(1)[0]) + "\n\n" + json.dumps(rows(2)[1]) + "\n"
        )
        assert len(load_dataset(path)) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(rows(1)[0]) + "\n{not json\n")
        with pytest.raises(DataError, match=rf"^dataset {re.escape(str(path))} line 2: invalid"
                           r" JSON: .*$"):
            load_dataset(path)

    def test_int_of_too_many_digits_is_invalid_json(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("1" * 5000 + "\n")
        with pytest.raises(DataError, match=rf"^dataset {re.escape(str(path))} line 1: invalid"
                           r" JSON: .*$"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        bad = rows(1)[0]
        del bad["answer"]
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match=rf"^dataset {re.escape(path)} line 1: missing field"
                           r" 'answer'$"):
            load_dataset(path)

    def test_difficulty_out_of_range(self, tmp_path):
        bad = rows(1)[0]
        bad["difficulty"] = 1.5
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match=rf"^dataset {re.escape(path)} line 1: difficulty"
                           r" 1\.5 outside \[0, 1\] for 'r0'$"):
            load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", rows(1) + rows(1))
        with pytest.raises(DataError, match=rf"^dataset {re.escape(path)} line 2: duplicate"
                           r" query id 'r0'$"):
            load_dataset(path)

    def test_text_fields_of_any_value_load_as_text(self, tmp_path):
        row = {**rows(1)[0], "answer": 4, "domain": None}
        record, = load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        assert (record.answer, record.domain) == ("4", "None")

    @pytest.mark.parametrize("difficulty", ["0.5", True, None, [0.5], float("nan"),
                                            float("inf"), 10**400],
                             ids=["string", "bool", "null", "list", "nan", "inf",
                                  "huge_int"])
    def test_difficulty_not_a_finite_number(self, tmp_path, difficulty):
        bad = {**rows(1)[0], "difficulty": difficulty}
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match=rf"^dataset {re.escape(path)} line 1: difficulty"
                           r" .* is not .*$"):
            load_dataset(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=any_value_anywhere(rows(1)[0]))
    def test_any_line_loads_or_is_a_data_error(self, tmp_path, line):
        """Any JSON value as the line or in one of its fields: `load_dataset`
        returns the record, with a float difficulty, or raises `DataError`."""
        path = write_jsonl(tmp_path / "d.jsonl", [line])
        try:
            record, = load_dataset(path)
        except DataError:
            return
        assert type(record.difficulty) is float


class TestSplitDataset:
    def test_hundred_records_splits_20_80(self, tmp_path):
        records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows(100)))
        train, test = split_dataset(records, 0)
        assert (len(train), len(test)) == (20, 80)

    def test_five_records_splits_1_4(self, tmp_path):
        records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows(5)))
        train, test = split_dataset(records, 0)
        assert (len(train), len(test)) == (1, 4)

    def test_deterministic_and_partition(self, tmp_path):
        records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows(23)))
        t1 = split_dataset(records, 3)
        t2 = split_dataset(records, 3)
        assert [r.id for r in t1[0]] == [r.id for r in t2[0]]
        ids = {r.id for r in t1[0]} | {r.id for r in t1[1]}
        assert len(ids) == 23

    def test_too_few(self):
        with pytest.raises(DataError, match="need at least 5 records, got 0"):
            split_dataset([], 0)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """`run_train` at 2 layers and 8 dims on the mix `mix_path` holds, run
    once per iteration count in this module: `tiny_run(k)` returns a deep
    copy of (checkpoint, metrics) at k iterations, as some tests edit it."""
    mix = str(fill_workdir(tmp_path_factory.mktemp("tiny")) / "mix.jsonl")
    runs = {}

    def run(iterations):
        if iterations not in runs:
            cfg = TrainConfig(iterations=iterations, num_layers=2, embed_dim=8,
                              hidden_dim=8)
            runs[iterations] = run_train(cfg, mix, default_env())
        return copy.deepcopy(runs[iterations])

    return run


# the patches of a round-trip sequence: a split of `cot`, a merge of `cot`
# with its last clone (the test names which), and prompt and temperature
# patches of any operator but the early exit
PATCHES = st.one_of(
    st.just(OperatorPatch("cot", structure_action="split")),
    st.just(OperatorPatch("cot", structure_action="merge", merge_with_id="cot-b")),
    st.builds(OperatorPatch, st.sampled_from(["cot", "debate", "react", "direct_io"]),
              new_prompt=st.text(st.characters(exclude_characters="{}"), max_size=12)
              .map(lambda text: text + "{input}")),
    st.builds(OperatorPatch, st.sampled_from(["cot", "self_refine", "direct_io"]),
              new_temperature=st.integers(0, 2) | st.floats(0.0, 2.0)),
)


class TestCheckpoint:
    def test_byte_identical_round_trip(self, tmp_path, tiny_run):
        checkpoint, _ = tiny_run(2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        ckpt.save(checkpoint, p1)
        ckpt.save(ckpt.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(patches=st.lists(PATCHES, max_size=8))
    def test_int_temperature_patch_round_trips_byte_equal(self, tmp_path, patches):
        """An int temperature patch, then any sequence of splits of `cot`
        (to `cot-b`, `cot-b2`, ...), merges back of its last clone, prompt
        and temperature patches, each applied to the registry and its
        controller rows: save, load, restore and save gives the same
        bytes."""
        registry = builtin_registry()
        state = init_params(0, 3, 2, 2, len(registry))
        rng = np.random.default_rng(0)
        for patch in [OperatorPatch("cot", new_temperature=1), *patches]:
            clones = [op_id for op_id in registry.ids() if op_id.startswith("cot-")]
            if patch.merge_with_id and not clones:
                continue
            if patch.merge_with_id:
                patch = replace(patch, merge_with_id=clones[-1])
            row = registry.apply_patch(patch)
            if patch.structure_action == "split":
                state.split_output(row, rng)
            elif patch.structure_action == "merge":
                state.merge_output(row)
        config = TrainConfig(num_layers=2, embed_dim=3, hidden_dim=2)
        path = tmp_path / "c.json"
        ckpt.save(ckpt.build_checkpoint(state, registry, config), path)
        saved = path.read_bytes()
        ckpt.save(ckpt.build_checkpoint(*ckpt.restore(ckpt.load(path))), path)
        assert path.read_bytes() == saved

    def test_restore_reproduces_state(self, tiny_run):
        checkpoint, _ = tiny_run(1)
        state, registry, config = ckpt.restore(checkpoint)
        assert state.num_layers == 2
        assert len(registry) >= 9
        assert config.embed_dim == 8

    def test_eval_identical_after_round_trip(self, mix_path, tmp_path, tiny_run):
        checkpoint, _ = tiny_run(2)
        path = tmp_path / "c.json"
        ckpt.save(checkpoint, path)
        r1 = run_eval(checkpoint, mix_path, default_env())
        r2 = run_eval(ckpt.load(path), mix_path, default_env())
        assert r1 == r2

    def test_format2_of_a_trained_checkpoint_restores_the_same(self, tiny_run):
        """A trained checkpoint in the form format 2 wrote, with its counts
        and an empty `tools` list per operator, restores to the same
        parameter bytes, registry and config."""
        checkpoint, _ = tiny_run(2)
        state, registry, config = ckpt.restore(checkpoint)
        old_state, old_registry, old_config = ckpt.restore(
            as_format2(json.loads(ckpt.dumps(checkpoint))))
        assert old_state.params.tobytes() == state.params.tobytes()
        assert old_registry.to_dict() == registry.to_dict()
        assert old_config == config

    def test_old_rewire_ids_key_restores(self, tiny_run):
        checkpoint, _ = tiny_run(1)
        old = json.loads(ckpt.dumps(checkpoint))
        old["registry"]["rewire_ids"] = ["react"]
        state, registry, config = ckpt.restore(old)
        rebuilt = ckpt.build_checkpoint(state, registry, config,
                                        checkpoint["metrics_summary"])
        assert ckpt.dumps(rebuilt) == ckpt.dumps(checkpoint)


class TestRestore:
    @pytest.mark.parametrize("name", BAD_CHECKPOINTS)
    def test_bad_checkpoint_is_data_error(self, name):
        corrupt, message = BAD_CHECKPOINTS[name]
        bad = corrupt(small_checkpoint())
        with pytest.raises(DataError, match=message):
            ckpt.restore(bad)

    @settings(max_examples=300, deadline=None)
    @given(checkpoint=any_value_anywhere(small_checkpoint()))
    def test_any_checkpoint_restores_or_is_a_data_error(self, checkpoint):
        """Any JSON value in the config, an operator spec, the controllers
        or anywhere else: `restore` returns or raises `DataError`."""
        try:
            ckpt.restore(checkpoint)
        except DataError:
            pass

    @pytest.mark.parametrize("version", [0, 1, 4, 99, True, 2.0, "2", None])
    def test_unknown_format_is_data_error(self, version):
        """Only an integer below the oldest format read gets told how to
        convert the file."""
        expected = r"^checkpoint format .*, expected one of \[2, 3\]"
        with pytest.raises(DataError, match=expected) as raised:
            ckpt.restore({**small_checkpoint(), "format_version": version})
        assert ("earlier maas" in str(raised.value)) == (type(version) is int and version < 2)


class TestCheckpointFormats:
    @pytest.fixture
    def planted(self):
        """A checkpoint whose parameters hold -0.0, the smallest subnormal, a
        subnormal with many digits, the largest finite float and the
        negative smallest normal one."""
        registry, config = builtin_registry(), TrainConfig(num_layers=2, embed_dim=4,
                                                           hidden_dim=4)
        state = init_params(5, 4, 4, 2, len(registry))
        state.params[:4] = [-0.0, 5e-324, 2.2250738585072014e-309, np.finfo(float).max]
        state.params[-1] = -np.finfo(float).tiny
        return ckpt.build_checkpoint(state, registry, config, {"steps": 0})

    def test_a_saved_file_restores_the_same_bits(self, planted, tmp_path):
        want = decoded(planted).params
        assert np.signbit(want[0]) and want[1] == 5e-324
        ckpt.save(planted, tmp_path / "c.json")
        state, _, _ = ckpt.restore(ckpt.load(tmp_path / "c.json"))
        assert state.params.flags.writeable and state.params.dtype == np.float64
        assert np.array_equal(state.params.view(np.uint64), want.view(np.uint64))

    def test_a_new_checkpoint_holds_each_fact_once(self, planted, tmp_path):
        """Format 3: the controllers hold their version and parameters only,
        as the config and registry give their layout, and no operator
        names tools."""
        ckpt.save(planted, tmp_path / "c.json")
        loaded = ckpt.load(tmp_path / "c.json")
        assert set(loaded) == {"format_version", "config", "registry", "controllers",
                               "metrics_summary"}
        assert loaded["format_version"] == 3
        assert set(loaded["controllers"]) == {"version", "params"}
        assert isinstance(loaded["controllers"]["params"], str)
        assert '"tools"' not in (tmp_path / "c.json").read_text()

    def test_format2_round_trip_is_byte_identical(self, planted, tmp_path):
        """A format-2 file, loaded, restored and saved, is the format-3
        file of the same checkpoint, byte for byte."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        ckpt.save(planted, first)
        old = as_format2(ckpt.load(first))
        old["registry"]["operators"][0]["tools"] = ["code_interpreter", "web_search"]
        ckpt.save(old, second)
        loaded = ckpt.load(second)
        ckpt.save(ckpt.build_checkpoint(*ckpt.restore(loaded), loaded["metrics_summary"]),
                  second)
        assert first.read_bytes() == second.read_bytes()

    def test_restored_params_are_a_vector_of_their_own(self, planted):
        state, _, _ = ckpt.restore(planted)
        before = state.params.tobytes()
        state.params[:] = 0.0
        assert ckpt.restore(planted)[0].params.tobytes() == before


class TestRunTrain:
    def test_iterations_zero_keeps_initial_state(self, tiny_run):
        cfg = TrainConfig(iterations=0, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, metrics = tiny_run(0)
        assert metrics == []
        assert checkpoint["metrics_summary"] == {"steps": 0}
        fresh = init_params(cfg.seed, 8, 8, 2, len(builtin_registry()))
        assert checkpoint["controllers"] == encoded(fresh)["controllers"]

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed 1.5 is not an integer"),
        ("num_layers", 2.0, "num_layers 2.0 is not an integer"),
    ])
    def test_bad_config_is_data_error_before_the_dataset_is_read(
            self, tmp_path, field, value, message):
        with pytest.raises(DataError, match=message):
            run_train(TrainConfig(**{field: value}), tmp_path / "missing.jsonl",
                      default_env())

    def test_reruns_byte_identical(self, mix_path, tmp_path):
        cfg = TrainConfig(iterations=2, num_layers=2, embed_dim=8, hidden_dim=8)
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_train(cfg, mix_path, default_env(), checkpoint_path=path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_metrics_line_count(self, mix_path, tmp_path):
        cfg = TrainConfig(iterations=3, num_layers=2, embed_dim=8, hidden_dim=8)
        mpath = tmp_path / "m.jsonl"
        _, metrics = run_train(cfg, mix_path, default_env(), metrics_path=mpath)
        n_train = 4  # ceil(20 / 5)
        assert len(metrics) == 3 * n_train
        lines = mpath.read_text().splitlines()
        assert len(lines) == 3 * n_train
        assert json.loads(lines[0])["step"] == 1


class TestRunEval:
    def test_all_success_profiles_give_accuracy_one(self, mix_path, tiny_run):
        checkpoint, _ = tiny_run(0)
        perfect = SyntheticEnv([
            SyntheticOperatorProfile(s.id, 1.0, 0.0, 1.0)
            for s in builtin_registry().specs() if s.id != "early_exit"
        ])
        report = run_eval(checkpoint, mix_path, perfect)
        assert report["accuracy"] == 1.0
        assert report["n_records"] == 20

    def test_report_structure(self, mix_path, tiny_run):
        checkpoint, _ = tiny_run(1)
        report = run_eval(checkpoint, mix_path, default_env())
        assert set(report) == {
            "n_records", "accuracy", "mean_cost", "mean_llm_calls",
            "exit_histogram", "by_domain",
        }
        assert set(report["by_domain"]) == {"easy", "hard"}
        assert sum(report["exit_histogram"].values()) == 20

    def test_figures_are_means_over_each_records_trace(self, mix_path):
        """Every figure equals its mean over each record's own sample and
        execution, with an architecture that never exits at depth
        num_layers + 1."""
        cfg = TrainConfig(iterations=0, num_layers=2, embed_dim=8, hidden_dim=8,
                          thres=0.1, seed=2)  # 9 of the 20 never exit
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        env = default_env()
        report = run_eval(checkpoint, mix_path, env)
        state, reg, config = ckpt.restore(checkpoint)
        rng = np.random.default_rng(config.seed + EVAL_RNG_OFFSET)
        rows_by_domain, exits = {}, []
        for rec in load_dataset(mix_path):
            arch = sampler.sample_architecture(state, reg, rec.query, config.thres,
                                               sampler.MODE_EVAL)
            trace = execute(arch, rec, env, reg, rng)
            exits.append("none" if arch.exit_layer is None else str(arch.exit_layer))
            depth = 3 if arch.exit_layer is None else arch.exit_layer
            rows_by_domain.setdefault(rec.domain, []).append(
                (trace.utility, trace.cost, trace.llm_calls, depth))
        assert "none" in exits  # the never-exited depth is exercised

        def means(rows):
            return [pytest.approx(float(np.mean(col)), rel=1e-12) for col in zip(*rows)]

        accuracy, cost, calls, _ = means(
            [row for rows in rows_by_domain.values() for row in rows])
        assert (report["n_records"], report["accuracy"], report["mean_cost"],
                report["mean_llm_calls"]) == (len(exits), accuracy, cost, calls)
        assert report["exit_histogram"] == {k: exits.count(k) for k in set(exits)}
        assert set(report["by_domain"]) == set(rows_by_domain)
        for domain, rows in rows_by_domain.items():
            accuracy, cost, _, depth = means(rows)
            assert report["by_domain"][domain] == {
                "n": len(rows), "accuracy": accuracy, "mean_cost": cost,
                "mean_exit_depth": depth,
            }

    def test_evaluator_runs_each_selection_on_one_eval_generator(self, mix_path, tiny_run):
        """`select` is the eval-mode sample of the restored checkpoint, and
        `query` executes it drawing from one generator seeded `config.seed +
        EVAL_RNG_OFFSET`, query after query."""
        checkpoint, _ = tiny_run(1)
        evaluator = Evaluator(checkpoint)
        state, reg, config = ckpt.restore(checkpoint)
        rng = np.random.default_rng(config.seed + EVAL_RNG_OFFSET)
        env = default_env()
        for rec in load_dataset(mix_path):
            arch = sampler.sample_architecture(state, reg, rec.query, config.thres,
                                               sampler.MODE_EVAL)
            assert evaluator.select(rec.query).to_dict() == arch.to_dict()
            trace, expected = evaluator.query(rec, env), execute(arch, rec, env, reg, rng)
            assert ((trace.final_answer, trace.utility, trace.cost, trace.llm_calls)
                    == (expected.final_answer, expected.utility, expected.cost,
                        expected.llm_calls))

    def test_embeds_each_query_once_and_memoizes_only_profiles(self, monkeypatch):
        """`run_eval` embeds each record's query once, by plain `embed`, and
        each distinct profile text at most once; its embedder's memo holds
        profile texts only."""
        cfg = TrainConfig(iterations=0, num_layers=3, embed_dim=8, hidden_dim=8,
                          thres=0.1, seed=2)  # deep architectures sum profiles
        checkpoint, _ = run_train(cfg, SHIPPED_MIX, default_env())
        embedders, texts = [], []
        init, embed = HashingEmbedder.__init__, HashingEmbedder.embed

        def recording_init(self, dim):
            init(self, dim)
            embedders.append(self)

        def recording_embed(self, text):
            texts.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "__init__", recording_init)
        monkeypatch.setattr(HashingEmbedder, "embed", recording_embed)
        run_eval(checkpoint, SHIPPED_MIX, default_env())
        _, reg, _ = ckpt.restore(checkpoint)
        profiles = {s.profile_text for s in reg.specs()}
        queries = [rec.query for rec in load_dataset(SHIPPED_MIX)]
        assert not profiles & set(queries)
        assert [t for t in texts if t not in profiles] == queries
        profile_embeds = [t for t in texts if t in profiles]
        assert profile_embeds and len(profile_embeds) == len(set(profile_embeds))
        (embedder,) = embedders
        assert set(embedder.memo) == set(profile_embeds)

    def test_eval_does_not_mutate_checkpoint(self, mix_path, tiny_run):
        checkpoint, _ = tiny_run(1)
        before = ckpt.dumps(checkpoint)
        run_eval(checkpoint, mix_path, default_env())
        assert ckpt.dumps(checkpoint) == before

    def test_hand_built_accuracy(self, tmp_path):
        """Deterministic single-op environment: accuracy is the exact fraction
        of queries whose lone node succeeds (p is 0 or 1 everywhere)."""
        data = write_jsonl(tmp_path / "d.jsonl", rows(6, difficulty=0.0))
        # direct_io succeeds at difficulty 0; every other op fails
        env = SyntheticEnv([
            SyntheticOperatorProfile(s.id, 1.0 if s.id == "direct_io" else 0.0,
                                     0.0, 1.0)
            for s in builtin_registry().specs() if s.id != "early_exit"
        ])
        cfg = TrainConfig(iterations=0, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, data, env)
        report = run_eval(checkpoint, data, env)
        state, reg, config = ckpt.restore(checkpoint)
        from maas import sampler

        expected_hits = 0
        for rec in load_dataset(data):
            arch = sampler.sample_architecture(
                state, reg, rec.query, config.thres, sampler.MODE_EVAL
            )
            # success iff the final layer contains direct_io (its correct
            # answer wins the vote since all wrong outputs are distinct)
            expected_hits += "direct_io" in arch.layers[-1]
        assert report["accuracy"] == expected_hits / 6
