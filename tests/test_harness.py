"""Data loading, split protocol, checkpointing, train/eval loops."""

import json

import pytest

from maas import checkpoint as ckpt
from maas.data import load_dataset, split_dataset
from maas.datagen import default_env, make_mixed_dataset
from maas.errors import DuplicateQueryId, ParseError, TooFewRecords
from maas.executor import SyntheticEnv, SyntheticOperatorProfile
from maas.harness import run_eval, run_train
from maas.optimizer import TrainConfig
from maas.registry import builtin_registry


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


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
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 2

    def test_missing_field(self, tmp_path):
        bad = rows(1)[0]
        del bad["answer"]
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_difficulty_out_of_range(self, tmp_path):
        bad = rows(1)[0]
        bad["difficulty"] = 1.5
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", rows(1) + rows(1))
        with pytest.raises(DuplicateQueryId):
            load_dataset(path)


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
        with pytest.raises(TooFewRecords):
            split_dataset([], 0)


@pytest.fixture
def mix_path(tmp_path):
    return write_jsonl(tmp_path / "mix.jsonl",
                       [dict(r) for r in make_mixed_dataset(10, 10)])


class TestCheckpoint:
    def test_byte_identical_round_trip(self, mix_path, tmp_path):
        cfg = TrainConfig(iterations=2, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        ckpt.save(checkpoint, p1)
        ckpt.save(ckpt.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restore_reproduces_state(self, mix_path):
        cfg = TrainConfig(iterations=1, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        state, registry, config = ckpt.restore(checkpoint)
        assert state.num_layers == 2
        assert len(registry) >= 9
        assert config.embed_dim == 8

    def test_eval_identical_after_round_trip(self, mix_path, tmp_path):
        cfg = TrainConfig(iterations=2, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        path = tmp_path / "c.json"
        ckpt.save(checkpoint, path)
        r1 = run_eval(checkpoint, mix_path, default_env())
        r2 = run_eval(ckpt.load(path), mix_path, default_env())
        assert r1 == r2


class TestRunTrain:
    def test_iterations_zero_keeps_initial_state(self, mix_path):
        cfg = TrainConfig(iterations=0, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, metrics = run_train(cfg, mix_path, default_env())
        assert metrics == []
        assert checkpoint["metrics_summary"] == {"steps": 0}
        from maas.controller import init_params

        fresh = init_params(cfg.seed, 8, 8, 2, len(builtin_registry()))
        assert checkpoint["controllers"] == fresh.to_dict()

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
    def test_all_success_profiles_give_accuracy_one(self, mix_path):
        cfg = TrainConfig(iterations=0, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        perfect = SyntheticEnv([
            SyntheticOperatorProfile(s.id, 1.0, 0.0, 1.0)
            for s in builtin_registry().specs() if s.id != "early_exit"
        ])
        report = run_eval(checkpoint, mix_path, perfect)
        assert report["accuracy"] == 1.0
        assert report["n_records"] == 20

    def test_report_structure(self, mix_path):
        cfg = TrainConfig(iterations=1, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
        report = run_eval(checkpoint, mix_path, default_env())
        assert set(report) == {
            "n_records", "accuracy", "mean_cost", "mean_llm_calls",
            "exit_histogram", "by_domain",
        }
        assert set(report["by_domain"]) == {"easy", "hard"}
        assert sum(report["exit_histogram"].values()) == 20

    def test_eval_does_not_mutate_checkpoint(self, mix_path):
        cfg = TrainConfig(iterations=1, num_layers=2, embed_dim=8, hidden_dim=8)
        checkpoint, _ = run_train(cfg, mix_path, default_env())
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
