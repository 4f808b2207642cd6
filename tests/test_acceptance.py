"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line. Criteria 1-3 and 6-7 are exact or
tolerance-based oracle checks; 4, 5, and 8 are statistical desk-scale
training-behavior checks over seeded runs (fully deterministic, so their
outcomes are stable). Criterion 9 needs a live endpoint and is skipped
without credentials.
"""

import os
import time

import numpy as np
import pytest

from maas import checkpoint as ckpt
from maas import sampler
from maas.controller import (
    init_params,
    sample_selection,
    score_layer,
    select_deterministic,
    selection_log_prob,
)
from maas.datagen import default_env, sabotaged_profiles
from maas.embedding import HashingEmbedder
from maas.executor import SyntheticEnv
from maas.harness import run_eval, run_train
from maas.optimizer import TrainConfig, importance_weights
from maas.registry import builtin_registry
from tests.helpers import tiny_registry, two_layer_table

DATASET = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic_mix.jsonl")


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok


class TestCriterion1GradientCorrectness:
    def test_grad_matches_finite_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(101)
        from maas.controller import grad_log_prob

        worst = 0.0
        eps = 1e-5
        for i in range(50):
            ell = int(rng.integers(1, 5))
            n_ops = int(rng.integers(2, 7))
            d = int(rng.integers(3, 7))
            h = int(rng.integers(3, 7))
            state = init_params(int(rng.integers(0, 10**6)), d, h, ell, n_ops)
            feature = rng.normal(size=d * ell)
            selected = sample_selection(score_layer(state, ell, feature).scores, 0.3, rng)
            g = grad_log_prob(state, ell, feature, selected)
            ctrl = state.layer(ell)
            for arr, g_arr in zip(ctrl.param_arrays(), (g.W1, g.b1, g.W2, g.b2)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    lp_p = selection_log_prob(
                        score_layer(state, ell, feature).scores, selected
                    )
                    arr[idx] = orig - eps
                    lp_m = selection_log_prob(
                        score_layer(state, ell, feature).scores, selected
                    )
                    arr[idx] = orig
                    fd = (lp_p - lp_m) / (2 * eps)
                    rel = abs(g_arr[idx] - fd) / max(abs(fd), 1e-8)
                    worst = max(worst, rel)
        elapsed = time.time() - t0
        ok = worst < 1e-4 and elapsed < 10.0
        report(1, ok, f"max rel err {worst:.3e} over 50 instances, {elapsed:.1f}s")


class TestCriterion2DistributionNormalization:
    def test_enumeration_and_empirical_frequencies(self):
        t0 = time.time()
        reg = tiny_registry()
        state = init_params(7, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        query = "normalize me"
        table = two_layer_table(state, reg, emb, query, 0.3)
        total = sum(table.values())

        n = 100_000
        rng = np.random.default_rng(202)
        counts = {}
        for _ in range(n):
            arch = sampler.sample_architecture(
                state, reg, query, 0.3, sampler.MODE_TRAIN, rng, emb
            )
            key = tuple(tuple(s) for s in arch.selections)
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * (
            sum(abs(counts.get(k, 0) / n - p) for k, p in table.items())
            + sum(c / n for k, c in counts.items() if k not in table)
        )
        elapsed = time.time() - t0
        ok = abs(total - 1.0) < 1e-9 and tv < 0.01 and elapsed < 60.0
        report(2, ok,
               f"sum of probs {total:.12f}, TV {tv:.4f} over {n} samples,"
               f" {elapsed:.1f}s")


class TestCriterion3SelectionRuleOracle:
    def test_agrees_with_exhaustive_prefix_scan(self):
        rng = np.random.default_rng(303)
        mismatches = 0
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            raw = rng.random(n) + 1e-9
            scores = raw / raw.sum()
            for thres in (0.1, 0.3, 0.7):
                order = np.argsort(-scores, kind="stable")
                expected = None
                for k in range(1, n + 1):
                    if scores[order[:k]].sum() > thres:
                        expected = [int(i) for i in order[:k]]
                        break
                if select_deterministic(scores, thres) != expected:
                    mismatches += 1
        report(3, mismatches == 0,
               f"{mismatches} mismatches over 10,000 vectors x 3 thresholds")


def domain_stats(checkpoint, env):
    rep = run_eval(checkpoint, DATASET, env)
    return rep["by_domain"]["easy"], rep["by_domain"]["hard"]


class TestCriterion4QueryDependentAllocation:
    def test_easy_queries_exit_earlier_and_cheaper(self):
        t0 = time.time()
        good_depth = good_cost = 0
        lines = []
        for seed in range(5):
            cfg = TrainConfig(iterations=200, seed=seed)
            checkpoint, _ = run_train(cfg, DATASET, default_env())
            easy, hard = domain_stats(checkpoint, default_env())
            good_depth += easy["mean_exit_depth"] < hard["mean_exit_depth"]
            good_cost += easy["mean_cost"] < hard["mean_cost"]
            lines.append(
                f"seed {seed}: depth {easy['mean_exit_depth']:.2f}"
                f"/{hard['mean_exit_depth']:.2f}"
                f" cost {easy['mean_cost']:.1f}/{hard['mean_cost']:.1f}"
            )
        elapsed = time.time() - t0
        ok = good_depth >= 4 and good_cost >= 4 and elapsed < 300.0
        report(4, ok,
               f"depth easy<hard in {good_depth}/5, cost easy<hard in"
               f" {good_cost}/5 seeds, {elapsed:.0f}s ({'; '.join(lines)})")


class TestCriterion5LambdaSensitivity:
    def test_larger_lambda_lowers_eval_cost(self):
        wins = 0
        details = []
        for seed in range(5):
            costs = {}
            for lam in (1e-3, 1e-2):
                cfg = TrainConfig(iterations=100, seed=seed, cost_lambda=lam)
                checkpoint, _ = run_train(cfg, DATASET, default_env())
                costs[lam] = run_eval(checkpoint, DATASET, default_env())["mean_cost"]
            wins += costs[1e-2] < costs[1e-3]
            details.append(f"seed {seed}: {costs[1e-3]:.1f} vs {costs[1e-2]:.1f}")
        report(5, wins >= 4,
               f"lambda=1e-2 cheaper in {wins}/5 paired seeds"
               f" ({'; '.join(details)})")


class TestCriterion6ImportanceWeightIdentities:
    def test_sum_and_scale_invariance(self):
        rng = np.random.default_rng(606)
        worst_sum = 0.0
        worst_scale = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            utils = rng.integers(0, 2, size=k).astype(float)
            costs = (rng.random(k) + 0.1).tolist()
            lam = float(rng.choice([1e-3, 5e-3, 1e-2]))
            m = importance_weights(utils.tolist(), costs, lam)
            worst_sum = max(worst_sum, abs(sum(m) - (1.0 - lam)))
            scale = float(rng.random() * 99 + 0.01)
            m2 = importance_weights(utils.tolist(),
                                    [c * scale for c in costs], lam)
            worst_scale = max(
                worst_scale, max(abs(a - b) for a, b in zip(m, m2))
            )
        ok = worst_sum < 1e-12 and worst_scale < 1e-12
        report(6, ok,
               f"max |sum(m)-(1-lambda)| {worst_sum:.2e}, max cost-scale"
               f" deviation {worst_scale:.2e} over 1000 batches")


class TestCriterion7CheckpointRoundTrip:
    def test_byte_identical_and_same_report(self, tmp_path):
        cfg = TrainConfig(iterations=5, seed=3)
        checkpoint, _ = run_train(cfg, DATASET, default_env())
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        ckpt.save(checkpoint, p1)
        ckpt.save(ckpt.load(p1), p2)
        bytes_equal = p1.read_bytes() == p2.read_bytes()
        r1 = run_eval(checkpoint, DATASET, default_env())
        r2 = run_eval(ckpt.load(p2), DATASET, default_env())
        ok = bytes_equal and r1 == r2
        report(7, ok,
               f"save/load/save byte-identical: {bytes_equal},"
               f" eval reports identical: {r1 == r2}")


class TestCriterion8MockMutatorAblation:
    def test_mutator_beats_no_mutator_on_sabotaged_env(self):
        wins = 0
        details = []
        for seed in range(5):
            finals = {}
            for mut in ("mock", "none"):
                cfg = TrainConfig(iterations=50, seed=seed, mutator=mut)
                env = SyntheticEnv(*sabotaged_profiles())
                checkpoint, _ = run_train(cfg, DATASET, env)
                finals[mut] = checkpoint["metrics_summary"]["final_mean_utility"]
            wins += finals["mock"] > finals["none"]
            details.append(
                f"seed {seed}: {finals['mock']:.3f} vs {finals['none']:.3f}"
            )
        report(8, wins >= 4,
               f"mutator wins in {wins}/5 seeds ({'; '.join(details)})")


@pytest.mark.skipif(
    not (os.environ.get("MAAS_API_KEY") and os.environ.get("MAAS_BASE_URL")),
    reason="live smoke test needs MAAS_API_KEY and MAAS_BASE_URL (manual)",
)
class TestCriterion9LiveSmoke:
    def test_train_and_eval_beat_direct_io_baseline(self, tmp_path):
        import json

        from maas.executor import LiveEnv, QueryRecord, execute

        records = [
            {"id": f"g{i}", "query": f"What is {3 + i} + {4 + 2 * i}?"
                             f" Answer with just the number.",
             "answer": str(7 + 3 * i), "domain": "arith", "difficulty": 0.2}
            for i in range(20)
        ]
        path = tmp_path / "gsm_style.jsonl"
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

        env = LiveEnv(checker="numeric")
        cfg = TrainConfig(iterations=1, seed=0, num_layers=2, mutator="none")
        checkpoint, _ = run_train(cfg, path, env)
        accuracy = run_eval(checkpoint, path, env)["accuracy"]

        reg = builtin_registry()
        state, _, config = ckpt.restore(checkpoint)
        baseline_hits = 0
        rng = np.random.default_rng(0)
        for rec in records:
            arch = sampler.Architecture(
                layers=[["direct_io"]], selections=[], exit_layer=1,
                params_version=state.version,
            )
            q = QueryRecord(rec["id"], rec["query"], rec["answer"],
                            rec["domain"], rec["difficulty"])
            baseline_hits += execute(arch, q, env, reg, rng).utility
        baseline = baseline_hits / len(records)
        report(9, accuracy >= baseline,
               f"live accuracy {accuracy:.2f} vs direct_io baseline {baseline:.2f}")
