"""Optimizer: importance weights, distribution updates, textual gradients."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maas import kernels, sampler
from maas.controller import grad_log_prob, init_params, score_layer
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import (
    MutatorUnavailable,
    NonpositiveCost,
    ShapeMismatch,
    StaleArchitecture,
    UnparseableMutation,
)
from maas.executor import ExecutionTrace, QueryRecord, SyntheticEnv, \
    SyntheticOperatorProfile
from maas.optimizer import (
    MOCK_PATCH_SENTENCE,
    TrainConfig,
    Trainer,
    importance_weights,
    mock_mutator,
    parse_mutation,
    textual_gradient,
    trace_gradients,
    update_distribution,
)
from maas.registry import OperatorPatch, builtin_registry
from maas.sampler import (
    MODE_TRAIN,
    Architecture,
    architecture_log_prob,
    sample_architecture,
)


class TestImportanceWeights:
    def test_worked_example(self):
        m = importance_weights([1, 1, 0, 0], [2, 2, 1, 1], 0.01)
        expected = [0.5 - 0.01 / 3, 0.5 - 0.01 / 3, -0.01 / 6, -0.01 / 6]
        np.testing.assert_allclose(m, expected, atol=1e-12)
        np.testing.assert_allclose(m, [0.496667, 0.496667, -0.001667, -0.001667],
                                   atol=1e-6)

    def test_lambda_zero_pure_normalization(self):
        np.testing.assert_allclose(
            importance_weights([2, 1, 1, 0], [1, 1, 1, 1], 0.0),
            [0.5, 0.25, 0.25, 0.0], atol=1e-12,
        )

    def test_all_failure_fallback(self):
        np.testing.assert_allclose(
            importance_weights([0, 0], [1, 1], 0.01), [0.495, 0.495], atol=1e-12
        )

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(NonpositiveCost):
            importance_weights([1, 0], [1, 0], 0.01)

    @given(
        st.lists(st.floats(0, 10), min_size=2, max_size=8),
        st.floats(1e-6, 0.1),
        st.floats(0.1, 100.0),
    )
    def test_sum_identity_and_cost_scale_invariance(self, utils, lam, scale):
        costs = [1.0 + i for i in range(len(utils))]
        m = importance_weights(utils, costs, lam)
        assert abs(sum(m) - (1.0 - lam)) < 1e-12
        m_scaled = importance_weights(utils, [c * scale for c in costs], lam)
        np.testing.assert_allclose(m, m_scaled, atol=1e-12)

    def test_utility_scale_invariance(self):
        a = importance_weights([2, 1, 1], [1, 1, 1], 0.0)
        b = importance_weights([20, 10, 10], [1, 1, 1], 0.0)
        np.testing.assert_allclose(a, b, atol=1e-12)


def scratch_features(registry, embedder, query_text, arch):
    """Each sampled layer's feature, rebuilt from the query and profile texts."""
    q = embedder.embed(query_text)
    executed = arch.layers if arch.exit_layer != 1 else []
    features = []
    for ell in range(1, len(arch.selections) + 1):
        sums = []
        for ids in executed[: ell - 1]:
            total = np.zeros(embedder.dim)
            for op_id in ids:
                total += embedder.embed(registry.get(op_id).profile_text)
            sums.append(total)
        features.append(layer_feature(q, sums))
    return features


def replayed(state, registry, query_text, arch, embedder):
    """The architecture with its forward passes re-run at the current
    parameters, as if it had been sampled now."""
    features = scratch_features(registry, embedder, query_text, arch)
    return replace(
        arch,
        params_version=state.version,
        forward=[score_layer(state, ell, f) for ell, f in enumerate(features, start=1)],
    )


class TestTraceGradients:
    def test_bitwise_equal_to_grad_log_prob_on_scratch_features(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        for seed in range(4):
            state = init_params(seed, 16, 8, 4, len(reg))
            rng = np.random.default_rng(seed)
            for text in ("add 1 and 2", "prove the lemma", ""):
                arch = sample_architecture(state, reg, text, 0.3, MODE_TRAIN, rng, emb)
                grads = trace_gradients(state, arch)
                features = scratch_features(reg, emb, text, arch)
                assert len(grads) == len(arch.selections) == len(features)
                for ell, (g, f, sel) in enumerate(
                        zip(grads, features, arch.selections), start=1):
                    ref = grad_log_prob(state, ell, f, sel)
                    assert g.layer_index == ell
                    for a, b in zip((g.W1, g.b1, g.W2, g.b2),
                                    (ref.W1, ref.b1, ref.W2, ref.b2)):
                        assert np.array_equal(a, b)

    def test_stale_architecture_rejected(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 2, len(reg))
        arch = sample_architecture(state, reg, "q", 0.3, MODE_TRAIN,
                                   np.random.default_rng(0), HashingEmbedder(8))
        state.bump_version()
        with pytest.raises(StaleArchitecture):
            trace_gradients(state, arch)

    def test_architecture_without_forward_pass_rejected(self):
        state = init_params(0, 8, 8, 2, 9)
        arch = Architecture(layers=[["cot"]], selections=[[0], [7]], exit_layer=2,
                            edges=[], log_prob=0.0, params_version=state.version)
        with pytest.raises(ValueError):
            trace_gradients(state, arch)


def sampled_grads(state, registry, query_text, k, rng, embedder):
    grads = []
    for _ in range(k):
        arch = sample_architecture(state, registry, query_text, 0.3, MODE_TRAIN,
                                   rng, embedder)
        grads.append(trace_gradients(state, arch))
    return grads


class TestUpdateDistribution:
    def test_zero_weights_leave_parameters(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(0)
        grads = sampled_grads(state, reg, "q", 3, rng, emb)
        before = state.to_dict()
        v0 = state.version
        update_distribution(state, grads, [0.0, 0.0, 0.0], 0.1)
        after = state.to_dict()
        assert after["layers"] == before["layers"]
        assert state.version == v0 + 1

    def test_single_trace_reinforcement_monotone(self):
        reg = builtin_registry()
        state = init_params(1, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(1)
        arch = sample_architecture(state, reg, "boost me", 0.3, MODE_TRAIN, rng, emb)
        prev = arch.log_prob
        for _ in range(100):
            grads = trace_gradients(state, arch)
            update_distribution(state, [grads], [1.0], 0.05)
            arch = replayed(state, reg, "boost me", arch, emb)
            lp = architecture_log_prob(state, reg, "boost me", arch, emb)
            assert lp >= prev - 1e-12
            prev = lp

    def test_opposed_pair_gap_grows(self):
        reg = builtin_registry()
        state = init_params(2, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(2)
        a1 = sample_architecture(state, reg, "pair", 0.3, MODE_TRAIN, rng, emb)
        a2 = sample_architecture(state, reg, "pair", 0.3, MODE_TRAIN, rng, emb)
        if a1.selections == a2.selections:
            pytest.skip("rng drew identical architectures")
        gap_before = a1.log_prob - a2.log_prob
        g1 = trace_gradients(state, a1)
        g2 = trace_gradients(state, a2)
        update_distribution(state, [g1, g2], [1.0, -1.0], 0.05)
        a1.params_version = a2.params_version = state.version
        gap_after = architecture_log_prob(state, reg, "pair", a1, emb) \
            - architecture_log_prob(state, reg, "pair", a2, emb)
        assert gap_after > gap_before

    def test_first_order_step_size(self):
        reg = builtin_registry()
        state = init_params(3, 8, 8, 1, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(3)
        grads = sampled_grads(state, reg, "q", 2, rng, emb)
        lr = 1e-4
        grad_norm = sum(
            max(float(np.abs(arr).max()) for arr in (g.W1, g.b1, g.W2, g.b2))
            for sample in grads for g in sample
        )
        bound = (lr / 2) * grad_norm  # m_k = 1 for both samples

        def flatten(d):
            return {
                (i, k): np.array(v["values"])
                for i, ctrl in enumerate(d["layers"])
                for k, v in ctrl.items() if isinstance(v, dict)
            }

        before = flatten(state.to_dict())
        update_distribution(state, grads, [1.0, 1.0], lr)
        after = flatten(state.to_dict())
        for k in before:
            assert np.abs(after[k] - before[k]).max() <= bound + 1e-15

    def test_length_mismatch(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        grads = sampled_grads(state, reg, "q", 2, np.random.default_rng(0),
                              HashingEmbedder(8))
        with pytest.raises(ShapeMismatch):
            update_distribution(state, grads, [1.0], 0.05)


def trace_for(layers, utility):
    from maas.sampler import Architecture

    arch = Architecture(layers=layers, selections=[], exit_layer=None, edges=[],
                        log_prob=0.0, params_version=0)
    return ExecutionTrace(arch, {}, "", utility, 1.0, 1)


class TestMockMutator:
    def test_targets_lowest_success_rate(self):
        reg = builtin_registry()
        traces = [trace_for([["cot"]], 0.0)] * 3 + [
            trace_for([["react"]], 0.0), trace_for([["react"]], 1.0),
            trace_for([["react"]], 1.0),
        ]
        patches = mock_mutator(reg, traces)
        assert len(patches) == 1
        assert patches[0].target_id == "cot"
        assert patches[0].new_prompt.endswith(MOCK_PATCH_SENTENCE)

    def test_tie_break_lowest_index(self):
        reg = builtin_registry()
        traces = [trace_for([["debate"]], 0.0), trace_for([["testing"]], 0.0)]
        patches = mock_mutator(reg, traces)
        assert patches[0].target_id == "debate"  # index 1 < index 5

    def test_temperature_steps_toward_half(self):
        reg = builtin_registry()
        patches = mock_mutator(reg, [trace_for([["cot"]], 0.0)])
        assert patches[0].new_temperature == pytest.approx(0.9)

    def test_idempotent_when_fully_patched(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch(
            "cot",
            new_prompt=reg.get("cot").prompt + MOCK_PATCH_SENTENCE,
            new_temperature=0.5,
        ))
        assert mock_mutator(reg, [trace_for([["cot"]], 0.0)]) == []

    def test_no_traces_no_patches(self):
        assert textual_gradient(builtin_registry(), [], "mock") == []

    def test_unknown_mutator(self):
        with pytest.raises(MutatorUnavailable):
            textual_gradient(builtin_registry(), [trace_for([["cot"]], 0.0)], "llm2")


class TestParseMutation:
    def test_valid_reply(self):
        patch = parse_mutation(
            '{"thought": "weak prompt", "target_id": "cot",'
            ' "new_prompt": "better {input}", "new_temperature": 0.4}'
        )
        assert patch.target_id == "cot"
        assert patch.new_prompt == "better {input}"
        assert patch.new_temperature == 0.4
        assert patch.rationale == "weak prompt"

    def test_structure_fields(self):
        patch = parse_mutation(
            '{"target_id": "cot", "structure_action": "merge",'
            ' "merge_with_id": "testing"}'
        )
        assert patch.structure_action == "merge"
        assert patch.merge_with_id == "testing"

    def test_not_json(self):
        with pytest.raises(UnparseableMutation):
            parse_mutation("I think cot is weak")

    def test_missing_target(self):
        with pytest.raises(UnparseableMutation):
            parse_mutation('{"new_prompt": "x"}')

    def test_empty_patch_body(self):
        with pytest.raises(UnparseableMutation):
            parse_mutation('{"target_id": "cot"}')

    def test_bad_temperature(self):
        with pytest.raises(UnparseableMutation):
            parse_mutation('{"target_id": "cot", "new_temperature": 5.0}')


def query(qid="q1", difficulty=0.1):
    return QueryRecord(id=qid, query="add 1 and 2", answer="3", domain="easy",
                       difficulty=difficulty)


def simple_env():
    return SyntheticEnv([
        SyntheticOperatorProfile(s.id, 0.6, 0.0, 1.0)
        for s in builtin_registry().specs() if s.id != "early_exit"
    ])


class TestTrainer:
    def test_step_metrics_shape(self):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8)
        state = init_params(0, 8, 8, 2, len(reg))
        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8))
        metrics = trainer.step(query())
        assert metrics["step"] == 1
        assert metrics["query_id"] == "q1"
        assert 0.0 <= metrics["mean_utility"] <= 1.0
        assert metrics["mean_cost"] > 0.0
        assert sum(metrics["exit_histogram"].values()) == cfg.samples_k

    def test_seeded_determinism(self):
        def run():
            reg = builtin_registry()
            cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8)
            state = init_params(0, 8, 8, 2, len(reg))
            trainer = Trainer(state, reg, simple_env(), cfg,
                              np.random.default_rng(0),
                              embedder=HashingEmbedder(8))
            return [trainer.step(query(f"q{i}")) for i in range(12)]

        assert run() == run()

    def test_mutator_none_never_patches(self):
        reg = builtin_registry()
        before = reg.to_json()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, mutator="none",
                          patch_every=2)
        state = init_params(0, 8, 8, 2, len(reg))
        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8))
        for i in range(6):
            assert trainer.step(query(f"q{i}"))["patches_applied"] == 0
        assert reg.to_json() == before

    def test_patch_cadence(self):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=3)
        state = init_params(0, 8, 8, 2, len(reg))
        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8))
        patched_steps = [
            i for i in range(1, 7)
            if trainer.step(query(f"q{i}"))["patches_applied"] > 0
        ]
        assert all(step % 3 == 0 for step in patched_steps)
        assert patched_steps  # the mock mutator fires on a lossy env

    def test_one_forward_pass_per_sampled_layer_and_one_query_embed(
            self, monkeypatch):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=4, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 4, len(reg))

        def split_cot_once(registry, traces):
            if "cot-b" in registry:
                return []
            return [OperatorPatch("cot", structure_action="split")]

        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8), mutator=split_cot_once)
        forward_calls, texts, archs = [], [], []
        ffn_forward = kernels.ffn_forward
        embed = HashingEmbedder.embed
        sample = sampler.sample_architecture

        def counting_forward(*args):
            forward_calls.append(1)
            return ffn_forward(*args)

        def recording_embed(self, text):
            texts.append(text)
            return embed(self, text)

        def recording_sample(*args, **kwargs):
            archs.append(sample(*args, **kwargs))
            return archs[-1]

        monkeypatch.setattr(kernels, "ffn_forward", counting_forward)
        monkeypatch.setattr(HashingEmbedder, "embed", recording_embed)
        monkeypatch.setattr(sampler, "sample_architecture", recording_sample)
        profile_embeds = []
        summed_ops = set()  # operators whose profile fed a later layer
        for i in range(30):
            q = query(f"q{i}")
            forward_calls.clear()
            texts.clear()
            archs.clear()
            trainer.step(q)
            assert len(archs) == cfg.samples_k
            assert len(forward_calls) == sum(len(a.selections) for a in archs)
            assert texts.count(q.query) == 1
            profile_embeds += [t for t in texts if t != q.query]
            summed_ops.update(op_id for a in archs
                              for ids in a.layers[: len(a.selections) - 1]
                              for op_id in ids)
        # each distinct profile text is embedded at most once over the run
        assert len(profile_embeds) == len(set(profile_embeds))
        assert set(profile_embeds) == set(trainer.profile_cache)
        assert {reg.get(op_id).profile_text for op_id in summed_ops} \
            == set(trainer.profile_cache)
        # the split clone was summed into a layer feature, on its parent's text
        assert "cot-b" in summed_ops
        assert reg.get("cot-b").profile_text == reg.get("cot").profile_text

    @pytest.mark.parametrize("mutator,patch_every", [
        ("none", 2), ("mock", None),
    ])
    def test_window_stays_empty_without_patching(self, mutator, patch_every):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, mutator=mutator,
                          patch_every=patch_every)
        state = init_params(0, 8, 8, 2, len(reg))
        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8))
        for i in range(5):
            trainer.step(query(f"q{i}"))
        assert trainer.window == []

    @pytest.mark.parametrize("bad_patch", [
        OperatorPatch("nope", new_prompt="x {input}"),  # UnknownTarget
        OperatorPatch("early_exit", new_prompt="x {input}"),  # PatchOnExitOperator
        OperatorPatch("direct_io", new_prompt="x {input}",
                      structure_action="split"),  # ProtectedOperator
        OperatorPatch("cot"),  # InvalidPatch: sets nothing
    ])
    def test_rejected_patch_is_skipped_not_fatal(self, bad_patch):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 2, len(reg))
        good = OperatorPatch("react", new_temperature=0.5)

        def mutator(registry, traces):
            return [bad_patch, good]

        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8), mutator=mutator)
        before = reg.to_json()
        assert trainer.step(query())["patches_applied"] == 1
        after = builtin_registry()
        after.apply_patch(OperatorPatch("cot", structure_action="split"))
        after.apply_patch(good)
        assert reg.to_json() == after.to_json() != before
        assert state.n_ops == len(reg)
        trainer.step(query("q2"))

    def test_unparseable_proposal_is_skipped_not_fatal(self):
        reg = builtin_registry()
        before = reg.to_json()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 2, len(reg))

        def mutator(registry, traces):
            return [parse_mutation("not json")]

        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8), mutator=mutator)
        assert trainer.step(query())["patches_applied"] == 0
        assert reg.to_json() == before

    def test_structural_patch_remaps_controller(self):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 2, len(reg))

        def splitting_mutator(registry, traces):
            if "cot-b" in registry:
                return []
            return [OperatorPatch("cot", structure_action="split")]

        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8), mutator=splitting_mutator)
        trainer.step(query())
        assert len(reg) == 10
        assert state.n_ops == 10
        # next step samples fine with the widened controller
        trainer.step(query("q2"))


    def test_operator_split_twice(self):
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 2, len(reg))
        env = simple_env()

        def split_cot_twice(registry, traces):
            if "cot-b2" in registry:
                return []
            return [OperatorPatch("cot", structure_action="split")]

        trainer = Trainer(state, reg, env, cfg, np.random.default_rng(0),
                          embedder=HashingEmbedder(8), mutator=split_cot_twice)
        ran = []
        run_node = env.run_node

        def recording_run_node(spec, *args):
            ran.append(spec.id)
            return run_node(spec, *args)

        env.run_node = recording_run_node
        assert [trainer.step(query(f"q{i}"))["patches_applied"]
                for i in range(3)] == [1, 1, 0]
        assert reg.ids()[-2:] == ["cot-b", "cot-b2"]
        assert state.n_ops == len(reg) == 11
        assert all(ctrl.W2.shape[0] == ctrl.b2.shape[0] == len(reg)
                   for ctrl in state.layers)
        for clone_id in ("cot-b", "cot-b2"):
            assert env.profile_for(reg.get(clone_id)) is env.profile_for(reg.get("cot"))
        for i in range(3, 60):
            trainer.step(query(f"q{i}"))
        assert {"cot-b", "cot-b2"} <= set(ran)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.num_layers, cfg.thres, cfg.samples_k, cfg.cost_lambda) \
            == (4, 0.3, 4, 5e-3)

    def test_round_trip(self):
        cfg = TrainConfig(lr=0.1, seed=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value", [
        ("num_layers", 0), ("thres", 0.0), ("thres", 1.0),
        ("cost_lambda", -1.0), ("samples_k", 1), ("lr", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value}).validate()
