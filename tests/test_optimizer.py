"""Optimizer: importance weights, distribution updates, textual gradients."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maas import checkpoint as ckpt
from maas import kernels, sampler
from maas import optimizer as optimizer_module
from maas.controller import grad_log_prob, init_params, score_layer, \
    selection_log_prob
from maas.data import load_dataset
from maas.datagen import default_env, sabotaged_profiles
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import BackendError, DataError, MaasError
from maas.executor import QueryRecord, SyntheticEnv
from maas.optimizer import (
    MOCK_PATCH_SENTENCE,
    MUTATOR_PROMPT,
    LLMMutator,
    TrainConfig,
    Trainer,
    importance_weights,
    mock_mutator,
    parse_mutation,
    textual_gradient,
    trace_gradients,
    update_distribution,
)
from maas.registry import MAX_PROMPT_CHARS, OperatorPatch, builtin_registry
from maas.sampler import (
    MODE_TRAIN,
    Architecture,
    architecture_log_prob,
    sample_architecture,
)
from tests.helpers import (JSON_VALUES, bitwise_equal, central_differences, encoded,
                           flat_layout_faults, make_trainer, registry_json, simple_env)

ROOT = Path(__file__).resolve().parent.parent


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
        with pytest.raises(MaasError, match="all costs must be positive"):
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
                grads = trace_gradients(state, [arch], [1.0])
                features = scratch_features(reg, emb, text, arch)
                assert len(grads) == len(arch.selections) == len(features)
                for ell, (g, f, sel) in enumerate(
                        zip(grads, features, arch.selections), start=1):
                    ref = grad_log_prob(state, ell, f, sel)
                    for a, b in zip((g.W1, g.b1, g.W2, g.b2),
                                    (ref.W1, ref.b1, ref.W2, ref.b2)):
                        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_finite_differences_over_samples_and_layers(self, k):
        """The multi-row backward that training runs is the gradient of
        sum_k m_k log p(arch_k), by central differences over every parameter,
        for K samples of which one exits at layer 1 and one runs deeper."""
        reg = builtin_registry()
        state = init_params(k, 2, 3, 3, len(reg))
        emb, rng = HashingEmbedder(2), np.random.default_rng(k)
        pool = [sample_architecture(state, reg, "add 2 and 3", 0.3, MODE_TRAIN, rng,
                                    emb) for _ in range(40)]
        shallow = next(a for a in pool if len(a.selections) == 1)
        deep = [a for a in pool if len(a.selections) > 1][:k - 1]
        archs, weights = [shallow, *deep], [0.7, -0.45, 0.3, -0.2][:k]
        assert len(archs) == k

        def objective():
            return sum(m_k * selection_log_prob(
                score_layer(state, ell, score_vec.feature).scores, selected)
                for arch, m_k in zip(archs, weights)
                for ell, (score_vec, selected) in enumerate(
                    zip(arch.forward, arch.selections), start=1))

        grads = dict(enumerate(trace_gradients(state, archs, weights), start=1))
        assert max(grads) > 1
        for ell, ctrl in enumerate(state.layers, start=1):
            analytic = grads[ell].param_arrays() if ell in grads else [
                np.zeros_like(a) for a in ctrl.param_arrays()]
            numeric = central_differences(ctrl.param_arrays(), objective, 1e-6)
            for grad, fd in zip(analytic, numeric):
                np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_stale_architecture_rejected(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 2, len(reg))
        arch = sample_architecture(state, reg, "q", 0.3, MODE_TRAIN,
                                   np.random.default_rng(0), HashingEmbedder(8))
        state.bump_version()
        with pytest.raises(MaasError, match="parameters changed since sampling"):
            trace_gradients(state, [arch], [1.0])
        with pytest.raises(MaasError, match="parameters changed since sampling"):
            update_distribution(state, [arch], [1.0], 0.05)

    def test_architecture_without_forward_pass_rejected(self):
        state = init_params(0, 8, 8, 2, 9)
        arch = Architecture(layers=[["cot"]], selections=[[0], [7]], exit_layer=2,
                            params_version=state.version)
        with pytest.raises(MaasError):
            trace_gradients(state, [arch], [1.0])


def sampled_archs(state, registry, query_text, k, rng, embedder):
    return [
        sample_architecture(state, registry, query_text, 0.3, MODE_TRAIN, rng,
                            embedder)
        for _ in range(k)
    ]


class TestUpdateDistribution:
    def test_zero_weights_leave_parameters(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(0)
        archs = sampled_archs(state, reg, "q", 3, rng, emb)
        before = state.params.tobytes()
        v0 = state.version
        update_distribution(state, archs, [0.0, 0.0, 0.0], 0.1)
        assert state.params.tobytes() == before
        assert state.version == v0 + 1

    def test_single_trace_reinforcement_monotone(self):
        reg = builtin_registry()
        state = init_params(1, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(1)
        arch = sample_architecture(state, reg, "boost me", 0.3, MODE_TRAIN, rng, emb)
        prev = arch.log_prob
        for _ in range(100):
            update_distribution(state, [arch], [1.0], 0.05)
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
        update_distribution(state, [a1, a2], [1.0, -1.0], 0.05)
        a1.params_version = a2.params_version = state.version
        gap_after = architecture_log_prob(state, reg, "pair", a1, emb) \
            - architecture_log_prob(state, reg, "pair", a2, emb)
        assert gap_after > gap_before

    def test_first_order_step_size(self):
        reg = builtin_registry()
        state = init_params(3, 8, 8, 1, len(reg))
        emb = HashingEmbedder(8)
        rng = np.random.default_rng(3)
        archs = sampled_archs(state, reg, "q", 2, rng, emb)
        lr = 1e-4
        grad_norm = sum(
            max(float(np.abs(arr).max()) for arr in (g.W1, g.b1, g.W2, g.b2))
            for arch in archs for g in trace_gradients(state, [arch], [1.0])
        )
        bound = (lr / 2) * grad_norm  # m_k = 1 for both samples

        before = state.params.copy()
        update_distribution(state, archs, [1.0, 1.0], lr)
        assert np.abs(state.params - before).max() <= bound + 1e-15

    def test_length_mismatch(self):
        reg = builtin_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        archs = sampled_archs(state, reg, "q", 2, np.random.default_rng(0),
                              HashingEmbedder(8))
        with pytest.raises(MaasError, match="weights / architectures length mismatch"):
            update_distribution(state, archs, [1.0], 0.05)


def split_then_merge(registry, window):
    """A mutator that splits "cot" while it has no clone, and else merges
    the clone into "debate"."""
    if "cot-b" in registry:
        return OperatorPatch("debate", structure_action="merge", merge_with_id="cot-b")
    return OperatorPatch("cot", structure_action="split")


class TestFlatUpdate:
    """The update runs on `state.params` and `state.grad` as flat vectors."""

    def test_gradients_are_views_of_state_grad_over_a_prefix(self):
        reg = builtin_registry()
        state = init_params(5, 8, 8, 4, len(reg))
        archs = sampled_archs(state, reg, "q", 6, np.random.default_rng(5),
                              HashingEmbedder(8))
        grads = trace_gradients(state, archs, [0.5, -0.25, 1.0, 0.0, 0.3, -0.1])
        assert len(grads) == max(len(a.selections) for a in archs)
        for g, layer in zip(grads, state.grads):  # layer 1 first
            for got, view in zip(g.param_arrays(), layer.param_arrays()):
                assert got is view and np.shares_memory(got, state.grad)

    def test_layers_past_the_reached_prefix_keep_every_bit(self):
        """Every sample exits by layer 2, so layers 3 and 4 keep their bytes,
        a -0.0 among them, though `state.grad` holds NaN there."""
        reg = builtin_registry()
        state = init_params(1, 8, 8, 4, len(reg))
        state.layer(2).b2[reg.early_exit_index] = 50.0  # layer 2 always exits
        state.layer(3).b1[0] = -0.0
        state.layer(4).W2[2, 3] = -0.0
        state.grad[:] = np.nan
        archs = sampled_archs(state, reg, "q", 4, np.random.default_rng(1),
                              HashingEmbedder(8))
        assert {len(a.selections) for a in archs} <= {1, 2} and any(
            len(a.selections) == 2 for a in archs)
        reached, rest = state.offsets[2], state.params[state.offsets[2]:].copy()
        before = state.params[:reached].copy()
        update_distribution(state, archs, [1.0, -0.5, 0.25, 0.75], 0.05)
        assert bitwise_equal(state.params[reached:], rest)
        assert np.signbit(state.layer(3).b1[0]) and np.signbit(state.layer(4).W2[2, 3])
        assert not np.isnan(state.params).any()
        assert not np.array_equal(state.params[:reached], before)

    def test_deep_copy_trains_like_the_original(self):
        """Splits and merges included; training the copy leaves the
        original's parameters alone."""
        reg = builtin_registry()
        cfg = TrainConfig(num_layers=3, embed_dim=8, hidden_dim=8, patch_every=2)
        state = init_params(2, 8, 8, 3, len(reg))
        twin, twin_reg = copy.deepcopy(state), copy.deepcopy(reg)
        snapshot = state.params.copy()
        trainers = [Trainer(s, r, simple_env(), cfg, np.random.default_rng(2),
                            mutator=split_then_merge)
                    for s, r in ((twin, twin_reg), (state, reg))]
        for i in range(10):
            trainers[0].step(query(f"q{i}"))
        assert state.params.tobytes() == snapshot.tobytes()
        for i in range(10):
            trainers[1].step(query(f"q{i}"))
        assert twin.version == state.version > 10  # the steps and the edits
        assert flat_layout_faults(twin) == flat_layout_faults(state) == []
        assert encoded(twin) == encoded(state)
        assert registry_json(twin_reg) == registry_json(reg)


class TestBatchedUpdate:
    """The one-backward-per-layer update against a per-sample reference:
    sum_k m_k * grad_log_prob on from-scratch features, scaled by lr / K."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_equals_per_sample_reference(self, k):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        lr = 0.05
        depths = set()
        for seed in range(6):
            state = init_params(seed, 16, 8, 4, len(reg))
            rng = np.random.default_rng(seed)
            text = ("add 1 and 2", "prove the lemma", "")[seed % 3]
            first = score_layer(state, 1, emb.embed(text))
            archs = [sample_architecture(state, reg, text, 0.3, MODE_TRAIN, rng,
                                         emb, first=first) for _ in range(k)]
            depths.update(a.exit_layer for a in archs)
            weights = rng.normal(size=k).tolist()
            weights[0] = 0.0
            weights[1] = -abs(weights[1])
            ref = {}
            for arch, m_k in zip(archs, weights):
                features = scratch_features(reg, emb, text, arch)
                for ell, (f, sel) in enumerate(zip(features, arch.selections),
                                               start=1):
                    g = grad_log_prob(state, ell, f, sel)
                    acc = ref.setdefault(ell, [np.zeros_like(a) for a in
                                               (g.W1, g.b1, g.W2, g.b2)])
                    for a, b in zip(acc, (g.W1, g.b1, g.W2, g.b2)):
                        a += m_k * b
            grads = trace_gradients(state, archs, weights)
            assert list(range(1, len(grads) + 1)) == sorted(ref)  # layer 1 first
            for ell, g in enumerate(grads, start=1):
                for got, want in zip((g.W1, g.b1, g.W2, g.b2), ref[ell]):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
            before = [[a.copy() for a in ctrl.param_arrays()] for ctrl in state.layers]
            update_distribution(state, archs, weights, lr)
            for ell, (ctrl, old) in enumerate(zip(state.layers, before), start=1):
                deltas = ref.get(ell, [np.zeros_like(a) for a in old])
                for got, o, d in zip(ctrl.param_arrays(), old, deltas):
                    np.testing.assert_allclose(got, o + (lr / k) * d,
                                               rtol=1e-12, atol=1e-15)
        # mixed depths, including samples that exit at layer 1
        assert 1 in depths and len(depths) >= 3

    def test_one_backward_per_layer_and_one_layer1_forward_per_step(
            self, monkeypatch):
        trainer = make_trainer(num_layers=4, samples_k=6)
        cfg = trainer.config
        backward_calls, layer1_forwards, archs = [], [], []
        ffn_forward, ffn_backward = kernels.ffn_forward, kernels.ffn_backward
        update = optimizer_module.update_distribution

        def counting_forward(W1, *args):
            if W1.shape[1] == cfg.embed_dim:
                layer1_forwards.append(1)
            return ffn_forward(W1, *args)

        def counting_backward(*args, **kwargs):
            backward_calls.append(1)
            return ffn_backward(*args, **kwargs)

        def recording_update(state, step_archs, weights, lr):
            archs.extend(step_archs)
            return update(state, step_archs, weights, lr)

        monkeypatch.setattr(kernels, "ffn_forward", counting_forward)
        monkeypatch.setattr(kernels, "ffn_backward", counting_backward)
        monkeypatch.setattr(optimizer_module, "update_distribution",
                            recording_update)
        for i in range(20):
            backward_calls.clear()
            layer1_forwards.clear()
            archs.clear()
            trainer.step(query(f"q{i}"))
            assert len(archs) == cfg.samples_k
            assert len(layer1_forwards) == 1
            assert len(backward_calls) == max(len(a.selections) for a in archs)


def numpy_rows_trace_gradients(state, archs, weights):
    """`trace_gradients` on numpy rows, as it was: `m_k * np.array(...)` of
    each logit gradient and the backward pass with `@`. Layer index -> the
    gradients (W1, b1, W2, b2)."""
    rows = {}
    for arch, m_k in zip(archs, weights):
        for ell, (score_vec, selected) in enumerate(
                zip(arch.forward, arch.selections), start=1):
            g_logits = m_k * np.array(kernels.pl_grad_logits(score_vec.scores, selected))
            rows.setdefault(ell, []).append((score_vec.feature, score_vec.hidden, g_logits))
    grads = {}
    for ell, layer_rows in rows.items():
        X, H, G = (np.array(col) for col in zip(*layer_rows))
        g_z1 = (G @ state.layer(ell).W2) * (1.0 - H * H)
        grads[ell] = (g_z1.T @ X, g_z1.sum(axis=0), G.T @ H, G.sum(axis=0))
    return grads


class TestFloatRowsAndInPlaceUpdate:
    def test_recorded_steps_equal_numpy_rows_and_temporary_update(self, monkeypatch):
        """On recorded training steps, the gradients equal the numpy-row form
        bitwise, and the in-place update leaves every parameter as
        `param + (lr / K) * grad` does."""
        # K = 3, so that lr / K is no power of two
        trainer = make_trainer(default_env(), num_layers=4, embed_dim=16, hidden_dim=16,
                               patch_every=5, samples_k=3)
        update = optimizer_module.update_distribution
        single_rows = set()  # layers some step reached with one sample only

        def checked_update(state, archs, weights, lr):
            want = numpy_rows_trace_gradients(state, archs, weights)
            got = trace_gradients(state, archs, weights)
            assert list(range(1, len(got) + 1)) == list(want)  # layer 1 first
            for ell, g in enumerate(got, start=1):
                for a, b in zip((g.W1, g.b1, g.W2, g.b2), want[ell]):
                    assert bitwise_equal(a, b)
            single_rows.update(ell for ell in want
                               if sum(len(a.selections) >= ell for a in archs) == 1)
            scale = lr / len(weights)
            expected = [[p + scale * d for p, d in zip(ctrl.param_arrays(), want[ell])]
                        if ell in want else [p.copy() for p in ctrl.param_arrays()]
                        for ell, ctrl in enumerate(state.layers, start=1)]
            result = update(state, archs, weights, lr)
            for ctrl, params in zip(state.layers, expected):
                for a, b in zip(ctrl.param_arrays(), params):
                    assert bitwise_equal(a, b)
            return result

        monkeypatch.setattr(optimizer_module, "update_distribution", checked_update)
        records = load_dataset(ROOT / "data" / "synthetic_mix.jsonl")
        for record in records[:40]:
            trainer.step(record)
        assert trainer.step_count == 40
        assert {3, 4} <= single_rows


class TestQueryCache:
    def test_repeated_query_embedded_once_and_read_only(self, monkeypatch):
        trainer = make_trainer()
        texts = []
        embed = HashingEmbedder.embed

        def recording_embed(self, text):
            texts.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "embed", recording_embed)
        q = query()
        trainer.step(q)
        trainer.step(q)
        assert texts.count(q.query) == 1
        vec = trainer.embedder.memo[q.query]
        assert np.array_equal(vec, embed(trainer.embedder, q.query))
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0


class TestMockMutator:
    def test_targets_lowest_success_rate(self):
        reg = builtin_registry()
        window = [([["cot"]], 0.0)] * 3 + [
            ([["react"]], 0.0), ([["react"]], 1.0), ([["react"]], 1.0)]
        patch = mock_mutator(reg, window)
        assert patch.target_id == "cot"
        assert patch.new_prompt.endswith(MOCK_PATCH_SENTENCE)
        assert patch.rationale.endswith("over 6 recent traces")

    def test_tie_break_lowest_index(self):
        reg = builtin_registry()
        window = [([["debate"]], 0.0), ([["testing"]], 0.0)]
        assert mock_mutator(reg, window).target_id == "debate"  # index 1 < index 5

    def test_temperature_steps_toward_half(self):
        reg = builtin_registry()
        patch = mock_mutator(reg, [([["cot"]], 0.0)])
        assert patch.new_temperature == pytest.approx(0.9)

    def test_idempotent_when_fully_patched(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch(
            "cot",
            new_prompt=reg.get("cot").prompt + MOCK_PATCH_SENTENCE,
            new_temperature=0.5,
        ))
        assert mock_mutator(reg, [([["cot"]], 0.0)]) is None

    def test_no_traces_no_patches(self):
        def asked(registry, window):
            pytest.fail("the mutator was asked about an empty window")

        assert textual_gradient(builtin_registry(), [], asked) is None


OPERATOR_IDS = st.sampled_from([*builtin_registry().ids(), "cot-b", "ghost"])
# each key `MUTATOR_PROMPT` asks for, absent, any JSON value or a plausible one
REPLIES = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "thought": JSON_VALUES,
    "target_id": OPERATOR_IDS | JSON_VALUES,
    "new_prompt": st.text(max_size=8).filter(lambda text: "{input}" not in text)
                  .map(lambda text: text + "{input}")
                  | st.text(max_size=8) | JSON_VALUES,
    "new_temperature": st.floats(0.0, 2.0) | st.integers(0, 2) | JSON_VALUES,
    "structure_action": st.sampled_from(["none", "split", "merge", "rewire"]) | JSON_VALUES,
    "merge_with_id": OPERATOR_IDS | JSON_VALUES,
})


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
        with pytest.raises(DataError, match="reply is not JSON"):
            parse_mutation("I think cot is weak")

    def test_int_of_too_many_digits_is_not_json(self):
        """`json.loads` raises a plain `ValueError` for an int literal of
        more than 4,300 digits, not a `JSONDecodeError`."""
        with pytest.raises(DataError, match="reply is not JSON"):
            parse_mutation('{"target_id": "cot", "new_temperature": 1' + "0" * 5000 + "}")

    def test_missing_target(self):
        with pytest.raises(DataError, match="^target_id None is not a string"):
            parse_mutation('{"new_prompt": "x"}')

    @pytest.mark.parametrize("target", ["null", '""', "0", "false"])
    def test_target_not_a_nonempty_string(self, target):
        """`OperatorPatch` is the one check on the target."""
        with pytest.raises(DataError, match="target_id"):
            parse_mutation(f'{{"target_id": {target}, "new_prompt": "x"}}')

    def test_empty_patch_body(self):
        with pytest.raises(DataError, match="patch sets nothing"):
            parse_mutation('{"target_id": "cot"}')

    def test_bad_temperature(self):
        with pytest.raises(DataError, match=r"patch temperature 5\.0 outside \[0, 2\]"):
            parse_mutation('{"target_id": "cot", "new_temperature": 5.0}')

    @pytest.mark.parametrize("temperature", ['"hot"', "[1]", "true", str(10**400)],
                             ids=["string", "list", "bool", "huge_int"])
    def test_temperature_not_a_number_in_range(self, temperature):
        with pytest.raises(DataError, match="^new_temperature "):
            parse_mutation(f'{{"target_id": "cot", "new_temperature": {temperature}}}')

    def test_integer_temperature_becomes_float(self):
        patch = parse_mutation('{"target_id": "cot", "new_temperature": 1}')
        assert type(patch.new_temperature) is float and patch.new_temperature == 1.0

    @settings(max_examples=300, deadline=None)
    @given(reply=REPLIES)
    def test_any_reply_is_a_patch_or_a_data_error(self, reply):
        """Whatever JSON a mutator replies with, parsing and applying it
        raises nothing but `DataError`, and what applies keeps the registry
        well-typed."""
        reg = builtin_registry()
        try:
            reg.apply_patch(parse_mutation(json.dumps(reply)))
        except DataError:
            return
        for spec in reg.specs():
            assert isinstance(spec.prompt, str) and type(spec.temperature) is float


MALFORMED_REPLIES = [
    '{"target_id": "cot", "new_temperature": "hot"}',
    '{"target_id": "cot", "new_temperature": [1]}',
    '{"target_id": "cot", "structure_action": "merge", "merge_with_id": ["debate"]}',
    '{"target_id": "cot", "new_prompt": 5}',
    '{"target_id": "cot", "new_prompt": ["x"]}',
    "[" * 100_000,  # nested past the parser's recursion limit
]


def query(qid="q1", difficulty=0.1):
    return QueryRecord(id=qid, query="add 1 and 2", answer="3", domain="easy",
                       difficulty=difficulty)


class TestTrainer:
    def test_step_metrics_shape(self):
        trainer = make_trainer()
        cfg = trainer.config
        metrics = trainer.step(query())
        assert metrics["step"] == 1
        assert metrics["query_id"] == "q1"
        assert 0.0 <= metrics["mean_utility"] <= 1.0
        assert metrics["mean_cost"] > 0.0
        assert sum(metrics["exit_histogram"].values()) == cfg.samples_k

    def test_seeded_determinism(self):
        def run():
            trainer = make_trainer()
            return [trainer.step(query(f"q{i}")) for i in range(12)]

        assert run() == run()

    def test_run_orders_each_pass_by_a_generator_seeded_at_the_config(self):
        """`run` steps through one permutation of the records per pass, each
        drawn in turn from a fresh generator seeded `config.seed`."""
        train = [query(f"q{i}") for i in range(5)]
        trainer = make_trainer(seed=4)
        metrics = trainer.run(train, 3)
        order_rng = np.random.default_rng(4)
        assert [m["query_id"] for m in metrics] == [
            train[i].id for _ in range(3) for i in order_rng.permutation(5)]
        assert [m["step"] for m in metrics] == list(range(1, 16))
        assert trainer.run(train, 0) == []

    def test_mutator_none_never_patches(self):
        trainer = make_trainer(mutator="none", patch_every=2)
        reg = trainer.registry
        before = registry_json(reg)
        for i in range(6):
            assert trainer.step(query(f"q{i}"))["patches_applied"] == 0
        assert registry_json(reg) == before

    def test_patch_cadence(self):
        trainer = make_trainer(patch_every=3)
        patched_steps = [
            i for i in range(1, 7)
            if trainer.step(query(f"q{i}"))["patches_applied"] > 0
        ]
        assert all(step % 3 == 0 for step in patched_steps)
        assert patched_steps  # the mock mutator fires on a lossy env

    def test_one_forward_pass_per_sampled_layer_and_one_query_embed(
            self, monkeypatch):
        def split_cot_once(registry, window):
            if "cot-b" in registry:
                return None
            return OperatorPatch("cot", structure_action="split")

        trainer = make_trainer(proposer=split_cot_once, num_layers=4, patch_every=1)
        reg, cfg = trainer.registry, trainer.config
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
        query_embeds, profile_embeds = [], []
        summed_ops = set()  # operators whose profile fed a later layer
        for i in range(30):
            q = query(f"q{i}")
            forward_calls.clear()
            texts.clear()
            archs.clear()
            trainer.step(q)
            assert len(archs) == cfg.samples_k
            # layer 1 once per step, every later sampled layer once
            assert len(forward_calls) == 1 + sum(len(a.selections) - 1 for a in archs)
            query_embeds += [t for t in texts if t == q.query]
            profile_embeds += [t for t in texts if t != q.query]
            summed_ops.update(op_id for a in archs
                              for ids in a.layers[: len(a.selections) - 1]
                              for op_id in ids)
        # the query text, repeated every step, is embedded once over the run
        assert query_embeds == [query().query]
        # each distinct profile text is embedded at most once over the run
        assert len(profile_embeds) == len(set(profile_embeds))
        # the embedder's one memo holds the query text and the profile texts
        cached = set(trainer.embedder.memo)
        assert set(profile_embeds) | {query().query} == cached
        assert {reg.get(op_id).profile_text for op_id in summed_ops} | {query().query} \
            == cached
        # the split clone was summed into a layer feature, on its parent's text
        assert "cot-b" in summed_ops
        assert reg.get("cot-b").profile_text == reg.get("cot").profile_text

    @pytest.mark.parametrize("mutator,patch_every", [("none", 2)])
    def test_window_stays_empty_without_patching(self, mutator, patch_every):
        trainer = make_trainer(mutator=mutator, patch_every=patch_every)
        assert trainer.mutator is None
        for i in range(5):
            trainer.step(query(f"q{i}"))
        assert trainer.window == []

    def test_window_holds_the_pairs_of_the_traces_since_the_last_round(
            self, monkeypatch):
        """After each step the window holds the `(layers, utility)` pair of
        every trace since the last round, K a step in execution order; the
        mutator is asked about all of them, and a round empties it."""
        executed, asked = [], []
        execute = optimizer_module.execute

        def recording_execute(*args):
            executed.append(execute(*args))
            return executed[-1]

        def asking_mock(registry, window):
            asked.append(list(window))
            return mock_mutator(registry, window)

        monkeypatch.setattr(optimizer_module, "execute", recording_execute)
        trainer = make_trainer(proposer=asking_mock, patch_every=3)
        k = trainer.config.samples_k
        for i in range(1, 7):
            trainer.step(query(f"q{i}"))
            since = executed[-k * (3 if i % 3 == 0 else i % 3):]
            pairs = [(t.architecture.layers, t.utility) for t in since]
            if i % 3 == 0:
                assert trainer.window == [] and asked[-1] == pairs
            else:
                assert trainer.window == pairs
            assert all(type(pair) is tuple for pair in trainer.window)
        assert len(asked) == 2 and len(executed) == 6 * k

    def test_a_mutator_proposing_none_applies_nothing(self):
        trainer = make_trainer(proposer=lambda registry, window: None, patch_every=1)
        reg, state = trainer.registry, trainer.state
        before = registry_json(reg)
        for i in range(3):
            assert trainer.step(query(f"q{i}"))["patches_applied"] == 0
        assert registry_json(reg) == before
        assert state.n_ops == len(reg) and state.version == 3  # the 3 updates alone

    def test_mock_resolves_to_mock_mutator(self):
        trainer = make_trainer(mutator="mock", patch_every=2)
        assert trainer.mutator is mock_mutator

    @pytest.mark.parametrize("bad_patch", [
        OperatorPatch("nope", new_prompt="x {input}"),  # no operator 'nope'
        OperatorPatch("early_exit", new_prompt="x {input}"),  # cannot patch the early-exit
        OperatorPatch("direct_io", new_prompt="x {input}",
                      structure_action="split"),  # cannot split the direct-io
        OperatorPatch("cot", structure_action="merge",
                      merge_with_id="nope"),  # no merge partner 'nope'
    ])
    def test_rejected_patch_is_skipped_not_fatal(self, bad_patch):
        """A round whose patch is rejected applies nothing and the run goes
        on; the next round's patch is applied."""
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        cfg = TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, patch_every=1)
        state = init_params(0, 8, 8, 2, len(reg))
        good = OperatorPatch("react", new_temperature=0.5)
        proposals = iter([bad_patch, good])

        def mutator(registry, window):
            return next(proposals)

        trainer = Trainer(state, reg, simple_env(), cfg, np.random.default_rng(0),
                          mutator=mutator)
        before = registry_json(reg)
        assert trainer.step(query())["patches_applied"] == 0
        assert registry_json(reg) == before
        assert trainer.step(query("q2"))["patches_applied"] == 1
        after = builtin_registry()
        after.apply_patch(OperatorPatch("cot", structure_action="split"))
        after.apply_patch(good)
        assert registry_json(reg) == registry_json(after) != before
        assert state.n_ops == len(reg)

    def test_prompt_doubling_ends_in_a_skipped_patch(self):
        """Splitting "cot", giving the clone a stricter variant of the
        parent's prompt and merging it back about doubles the prompt; the
        merge that would take it past `MAX_PROMPT_CHARS` is skipped and
        leaves the registry as it was."""
        def split_edit_and_merge_back(registry, window):
            if "cot-b" not in registry:
                return OperatorPatch("cot", structure_action="split")
            clone = registry.get("cot-b").prompt
            if clone == registry.get("cot").prompt:
                return OperatorPatch("cot-b", new_prompt="Check every step twice.\n"
                                     + clone)
            return OperatorPatch("cot", structure_action="merge", merge_with_id="cot-b")

        trainer = make_trainer(proposer=split_edit_and_merge_back, patch_every=1)
        reg, state = trainer.registry, trainer.state
        for i in range(40):
            before = registry_json(reg)
            if trainer.step(query(f"q{i}"))["patches_applied"] == 0:
                break
        else:
            pytest.fail("no patch was skipped")
        assert i > 10  # six split/edit/merge-back cycles ran first
        assert registry_json(reg) == before
        prompt, clone = reg.get("cot").prompt, reg.get("cot-b").prompt
        assert clone != prompt and prompt.count("{input}") == clone.count("{input}") == 1
        merged = len(prompt) + len("\n" + clone.replace("{input}", ""))
        assert len(prompt) <= MAX_PROMPT_CHARS < merged
        assert state.n_ops == len(reg)

    def test_unparseable_proposal_is_skipped_not_fatal(self):
        def mutator(registry, window):
            return parse_mutation("not json")

        trainer = make_trainer(proposer=mutator, patch_every=1)
        reg = trainer.registry
        before = registry_json(reg)
        assert trainer.step(query())["patches_applied"] == 0
        assert registry_json(reg) == before

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES)
    def test_malformed_reply_neither_raises_nor_corrupts(self, reply):
        def mutator(registry, window):
            return parse_mutation(reply)

        trainer = make_trainer(SyntheticEnv(sabotaged_profiles()), proposer=mutator,
                               patch_every=1)
        reg, state = trainer.registry, trainer.state
        before = registry_json(reg)
        for i in range(3):
            assert trainer.step(query(f"q{i}"))["patches_applied"] == 0
        assert all(isinstance(spec.prompt, str) for spec in reg.specs())
        assert state.n_ops == len(reg)
        assert registry_json(reg) == before

    def test_prompt_without_input_is_skipped(self):
        """A proposed prompt without `{input}` would leave an operator that
        never sees its question: the trainer skips it, and the registry, the
        parameters and the sampling generator stay as the reply found them."""
        self.assert_prompt_reply_skipped("Solve it.")

    def test_prompt_with_a_second_input_is_skipped(self):
        """A proposed prompt holding `{input}` twice would send its question
        twice: the trainer skips it as it skips one without `{input}`."""
        self.assert_prompt_reply_skipped("{input}\nAgain: {input}")

    @staticmethod
    def assert_prompt_reply_skipped(new_prompt):
        at_reply = []

        def mutator(registry, window):
            at_reply.append(snapshot())
            return parse_mutation(json.dumps({"target_id": "cot",
                                              "new_prompt": new_prompt}))

        def snapshot():
            return (registry_json(trainer.registry), trainer.state.params.tobytes(),
                    trainer.rng.bit_generator.state)

        trainer = make_trainer(proposer=mutator, patch_every=1)
        assert trainer.step(query())["patches_applied"] == 0
        assert at_reply == [snapshot()]

    def test_rewire_reply_is_skipped(self):
        mutator = LLMMutator(base_url="http://stub", transport=chat_reply(
            '{"target_id": "react", "structure_action": "rewire"}'))
        trainer = make_trainer(proposer=mutator, patch_every=1)
        reg, state = trainer.registry, trainer.state
        before = registry_json(reg)
        assert trainer.step(query())["patches_applied"] == 0
        assert registry_json(reg) == before
        assert state.n_ops == len(reg)

    @pytest.mark.parametrize("mutator", ["llm", "mock2", 3])
    def test_unusable_mutator_fails_before_first_step(self, mutator):
        """`Trainer(mutator=)` takes None or a callable; a name is not one,
        even a name the config accepts, and neither is anything else. No
        backend is involved, so it is a plain `MaasError`."""
        with pytest.raises(MaasError, match="is not callable$") as info:
            make_trainer(proposer=mutator)
        assert type(info.value) is MaasError

    @pytest.mark.parametrize("name", ["mock2", 3, None, mock_mutator])
    def test_config_names_only_a_known_mutator(self, name):
        with pytest.raises(DataError, match="^mutator "):
            TrainConfig(num_layers=2, embed_dim=8, hidden_dim=8, mutator=name)

    def test_llm_config_builds_llm_mutator(self, monkeypatch):
        monkeypatch.setenv("MAAS_BASE_URL", "http://env/")
        trainer = make_trainer(mutator="llm")
        assert isinstance(trainer.mutator, LLMMutator)
        assert trainer.mutator.endpoint.url == "http://env/v1/chat/completions"
        monkeypatch.delenv("MAAS_BASE_URL")
        with pytest.raises(BackendError, match="no base URL"):
            make_trainer(mutator="llm")

    @pytest.mark.parametrize("mutator,patch_every", [("none", 1)])
    def test_patching_off_ignores_a_passed_mutator(self, mutator, patch_every):
        def split_cot(registry, window):
            return OperatorPatch("cot", structure_action="split")

        trainer = make_trainer(proposer=split_cot, mutator=mutator,
                               patch_every=patch_every)
        reg = trainer.registry
        before = registry_json(reg)
        assert trainer.mutator is None
        for i in range(3):
            assert trainer.step(query(f"q{i}"))["patches_applied"] == 0
        assert registry_json(reg) == before

    def test_structural_patch_remaps_controller(self):
        def splitting_mutator(registry, window):
            if "cot-b" in registry:
                return None
            return OperatorPatch("cot", structure_action="split")

        trainer = make_trainer(proposer=splitting_mutator, patch_every=1)
        reg, state = trainer.registry, trainer.state
        trainer.step(query())
        assert len(reg) == 10
        assert state.n_ops == 10
        # next step samples fine with the widened controller
        trainer.step(query("q2"))


    def test_operator_split_twice(self):
        def split_cot_twice(registry, window):
            if "cot-b2" in registry:
                return None
            return OperatorPatch("cot", structure_action="split")

        trainer = make_trainer(proposer=split_cot_twice, patch_every=1)
        reg, state, env = trainer.registry, trainer.state, trainer.env
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


def chat_reply(content):
    """A stub transport that answers every chat completion with `content`."""
    calls = []

    def transport(url, payload, headers):
        calls.append((url, payload))
        return 200, {"choices": [{"message": {"content": content}}],
                     "usage": {"prompt_tokens": 3, "completion_tokens": 2}}

    transport.calls = calls
    return transport


class TestLLMMutator:
    def test_reply_becomes_one_patch(self):
        transport = chat_reply(
            '{"thought": "too hot", "target_id": "react", "new_temperature": 0.4}'
        )
        mutator = LLMMutator(model="m", base_url="http://stub/", transport=transport)
        patch = mutator(builtin_registry(), [([["react"]], 0.0)])
        assert patch == OperatorPatch("react", new_temperature=0.4, rationale="too hot")
        (url, payload), = transport.calls
        assert url == "http://stub/v1/chat/completions"
        assert payload["model"] == "m"
        assert '"id": "react"' in payload["messages"][0]["content"]
        assert '"tools"' not in payload["messages"][0]["content"]

    def test_non_json_reply_unparseable(self):
        mutator = LLMMutator(base_url="http://stub", transport=chat_reply("cot is weak"))
        with pytest.raises(DataError, match="reply is not JSON"):
            mutator(builtin_registry(), [([["cot"]], 0.0)])

    def test_prompt_does_not_depend_on_the_hash_seed(self):
        """The failure summary of operators with tied rates is the same in
        processes with different `PYTHONHASHSEED`s."""
        code = textwrap.dedent("""\
            import sys
            from maas.errors import DataError
            from maas.optimizer import LLMMutator
            from maas.registry import builtin_registry

            def transport(url, payload, headers):
                sys.stdout.write(payload["messages"][0]["content"])
                return 200, {"choices": [{"message": {"content": "{}"}}]}

            registry = builtin_registry()
            ids = [spec.id for spec in registry.specs()]
            mutator = LLMMutator(base_url="http://stub", transport=transport)
            try:
                mutator(registry, [([ids[:4], ids[4:]], 0.0)])
            except DataError:
                pass  # the reply "{}" lacks target_id
            """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        prompts = [
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            ).stdout
            for seed in ("1", "2")
        ]
        assert b'"success_rate": 0.0' in prompts[0]
        assert prompts[0] == prompts[1]

    def test_null_content_ends_the_run(self):
        """A reply whose content is null is a malformed payload: it ends the
        run with `BackendError`, as any other malformed payload does, and is
        not skipped as a proposal that does not parse."""
        transport = chat_reply(None)
        trainer = make_trainer(proposer=LLMMutator(base_url="http://stub",
                                                   transport=transport), patch_every=1)
        reg, state = trainer.registry, trainer.state
        before = registry_json(reg)
        with pytest.raises(BackendError, match="content is NoneType, not str$"):
            trainer.step(query())
        assert len(transport.calls) == 1
        assert registry_json(reg) == before
        assert state.n_ops == len(reg)

    def test_missing_url_raises_at_construction(self, monkeypatch):
        monkeypatch.delenv("MAAS_BASE_URL", raising=False)
        with pytest.raises(BackendError, match="no base URL configured"):
            LLMMutator()

    def test_url_from_environment(self, monkeypatch):
        monkeypatch.setenv("MAAS_BASE_URL", "http://env/")
        assert LLMMutator().endpoint.url == "http://env/v1/chat/completions"


class TestMutatorArchive:
    def test_trainer_sends_the_parent_prompt_every_round(self):
        """Every prompt a training run sends equals `MUTATOR_PROMPT` filled
        with one `json.dumps` of the registry and of the failure summary,
        recomputed when the call is made."""
        replies = [
            {"target_id": "cot", "new_prompt": 'Say "ok" \\ then\nanswer é {input}'},
            {"target_id": "react", "new_temperature": 1},
            {"target_id": "debate", "structure_action": "split"},
            {"target_id": "cot", "structure_action": "merge", "merge_with_id": "debate-b"},
            {"target_id": "testing", "new_temperature": 0.7},
            {"target_id": "direct_io", "new_prompt": "Answer: {input}"},
        ]
        sent, expected = [], []

        def transport(url, payload, headers):
            sent.append(payload["messages"][0]["content"])
            rates = optimizer_module._success_rates(reg, trainer.window)
            failures = [{"operator_id": op_id, "success_rate": round(rate, 4)}
                        for op_id, rate in sorted(rates.items(), key=lambda kv: kv[1])]
            expected.append(MUTATOR_PROMPT.format(
                archive=json.dumps([s.to_dict() for s in reg.specs()]),
                failures=json.dumps(failures)))
            reply = json.dumps(replies[(len(sent) - 1) % len(replies)])
            return 200, {"choices": [{"message": {"content": reply}}],
                         "usage": {"prompt_tokens": 3, "completion_tokens": 2}}

        mutator = LLMMutator(base_url="http://stub", transport=transport)
        trainer = make_trainer(proposer=mutator, patch_every=1)
        reg = trainer.registry
        applied = sum(trainer.step(query(f"q{i}"))["patches_applied"] for i in range(12))
        assert len(sent) == 12 and applied >= 8
        assert sent == expected


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.num_layers, cfg.thres, cfg.samples_k, cfg.cost_lambda) \
            == (4, 0.3, 4, 5e-3)

    def test_round_trip(self):
        cfg = TrainConfig(lr=0.1, seed=7)
        reg = builtin_registry()
        state = init_params(0, cfg.embed_dim, cfg.hidden_dim, cfg.num_layers, len(reg))
        _, _, restored = ckpt.restore(ckpt.build_checkpoint(state, reg, cfg))
        assert restored == cfg

    @pytest.mark.parametrize("field,value", [
        ("num_layers", 0), ("thres", 0.0), ("thres", 1.0),
        ("cost_lambda", -1.0), ("samples_k", 1), ("lr", 0.0),
        ("patch_every", 0), ("patch_every", -3), ("patch_every", None),
        ("embed_dim", 0), ("hidden_dim", 0),
        ("seed", -1), ("iterations", -2), ("mutator", "mock2"),
        ("embed_dim", 64.0), ("seed", 1.5), ("num_layers", True),
        ("patch_every", 2.0), ("samples_k", "4"), ("hidden_dim", None),
        ("iterations", 1.0), ("thres", "0.3"), ("lr", True), ("cost_lambda", None),
        ("thres", float("nan")), ("lr", float("inf")), ("lr", float("nan")),
        ("cost_lambda", float("inf")), ("cost_lambda", float("nan")),
    ])
    def test_validation(self, field, value):
        with pytest.raises(DataError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("thres", 0.5), ("lr", 1), ("cost_lambda", 0), ("iterations", 0),
        ("mutator", "llm"), ("mutator", "none"),
    ])
    def test_validation_accepts(self, field, value):
        TrainConfig(**{field: value})
