"""Sampler: exit semantics, DAG shape/acyclicity, log-prob bookkeeping,
profile sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maas.controller import init_params, score_layer, select_deterministic
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import MaasError
from maas.registry import builtin_registry
from maas.sampler import (
    SINK,
    SOURCE,
    Architecture,
    MODE_EVAL,
    MODE_TRAIN,
    _profile_sum,
    architecture_log_prob,
    build_dag,
    sample_architecture,
)
from tests.helpers import tiny_registry, two_layer_table


def force_logits(state, per_layer_logits):
    """Zero all parameters and pin each layer's output bias to fixed logits."""
    for ctrl, logits in zip(state.layers, per_layer_logits):
        for arr in ctrl.param_arrays():
            arr[...] = 0.0
        ctrl.b2[...] = np.asarray(logits, dtype=np.float64)


class TestSampleArchitecture:
    def test_exit_at_layer_one_degenerates_to_direct_io(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 3, len(reg))
        force_logits(state, [[0.0, 50.0, 0.0]] * 3)  # exit dominates
        arch = sample_architecture(state, reg, "q", 0.3, MODE_EVAL)
        assert arch.exit_layer == 1
        assert arch.layers == [["io"]]
        assert arch.to_dict()["edges"] == [[SOURCE, "L1:io"], ["L1:io", SINK]]

    def test_exit_never_selected_runs_full_depth(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 3, len(reg))
        force_logits(state, [[50.0, -50.0, 0.0]] * 3)  # solver dominates
        arch = sample_architecture(state, reg, "q", 0.3, MODE_EVAL)
        assert arch.exit_layer is None
        assert arch.layers == [["solver"]] * 3

    def test_exit_mid_depth_discards_siblings(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 3, len(reg))
        # layer 1: solver; layer 2: exit tied with solver but selection needs
        # both (uniform-ish) and exit presence truncates
        force_logits(state, [[50.0, -50.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        arch = sample_architecture(state, reg, "q", 0.6, MODE_EVAL)
        assert arch.exit_layer == 2
        assert arch.layers == [["solver"]]  # layer-2 siblings discarded
        assert len(arch.selections) == 2

    def test_no_layer_contains_exit_id(self):
        reg = builtin_registry()
        state = init_params(2, 16, 8, 4, len(reg))
        rng = np.random.default_rng(0)
        for _ in range(200):
            arch = sample_architecture(
                state, reg, "some query", 0.3, MODE_TRAIN, rng,
                embedder=HashingEmbedder(16),
            )
            for layer in arch.layers:
                assert "early_exit" not in layer
                assert layer  # non-empty

    def test_eval_mode_pure_function(self):
        reg = builtin_registry()
        state = init_params(4, 16, 8, 2, len(reg))
        emb = HashingEmbedder(16)
        a = sample_architecture(state, reg, "what is 2 plus 2", 0.3, MODE_EVAL,
                                embedder=emb)
        b = sample_architecture(state, reg, "what is 2 plus 2", 0.3, MODE_EVAL,
                                embedder=emb)
        assert a.to_dict() == b.to_dict()

    def test_eval_matches_manual_layer_trace(self):
        reg = tiny_registry()
        state = init_params(7, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        arch = sample_architecture(state, reg, "trace me", 0.3, MODE_EVAL,
                                   embedder=emb)
        # hand-run the two layers
        q = emb.embed("trace me")
        ids = reg.ids()
        sv1 = score_layer(state, 1, layer_feature(q, []))
        sel1 = select_deterministic(sv1.scores, 0.3)
        assert arch.selections[0] == sel1
        exit_idx = reg.index_of("exit")
        if exit_idx not in sel1:
            expected_layer1 = [ids[i] for i in sel1]
            assert arch.layers[0] == expected_layer1
            sums = [sum(emb.embed(reg.get(i).profile_text) for i in expected_layer1)]
            sv2 = score_layer(state, 2, layer_feature(q, sums))
            assert arch.selections[1] == select_deterministic(sv2.scores, 0.3)

    def test_train_mode_requires_rng(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        with pytest.raises(MaasError):
            sample_architecture(state, reg, "q", 0.3, MODE_TRAIN)

    def test_unknown_mode(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        with pytest.raises(MaasError):
            sample_architecture(state, reg, "q", 0.3, "test")

    def test_given_first_is_bitwise_equal_to_own(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(4, 16, 8, 4, len(reg))
        for seed in range(20):
            first = score_layer(state, 1, emb.embed("add 1 and 2"))
            given = sample_architecture(state, reg, "add 1 and 2", 0.3, MODE_TRAIN,
                                        np.random.default_rng(seed), emb,
                                        first=first)
            own = sample_architecture(state, reg, "add 1 and 2", 0.3, MODE_TRAIN,
                                      np.random.default_rng(seed), emb)
            assert given.forward[0] is first
            assert given.selections == own.selections
            assert given.log_prob.hex() == own.log_prob.hex()
            for a, b in zip(given.forward, own.forward):
                assert np.array_equal(a.feature, b.feature)
                assert np.array_equal(a.scores, b.scores)

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_first_with_wrong_length_feature_rejected(self, num_layers):
        reg = tiny_registry()
        state = init_params(0, 8, 8, num_layers, len(reg))
        wide = init_params(0, 16, 8, 1, len(reg))
        first = score_layer(wide, 1, HashingEmbedder(16).embed("q"))
        with pytest.raises(MaasError, match=r"layer 1 feature has shape \(16,\), expected \(8,\)"):
            sample_architecture(state, reg, "q", 0.3, MODE_TRAIN,
                                np.random.default_rng(0), HashingEmbedder(8),
                                first=first)


class TestProfileCache:
    """Profile embeddings come from the embedder's memo."""

    def test_warm_cache_is_bitwise_equal_to_no_cache(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(5, 16, 8, 4, len(reg))
        warm_rng = np.random.default_rng(99)
        for _ in range(20):
            sample_architecture(state, reg, "warm up", 0.3, MODE_TRAIN, warm_rng, emb)
        assert emb.memo
        for mode in (MODE_TRAIN, MODE_EVAL):
            for seed in range(30):
                for text in ("add 1 and 2", "prove the lemma"):
                    warm = sample_architecture(
                        state, reg, text, 0.3, mode, np.random.default_rng(seed), emb)
                    fresh = sample_architecture(
                        state, reg, text, 0.3, mode, np.random.default_rng(seed),
                        HashingEmbedder(16))
                    assert warm.selections == fresh.selections
                    assert warm.layers == fresh.layers
                    assert warm.log_prob.hex() == fresh.log_prob.hex()
                    assert len(warm.forward) == len(fresh.forward)
                    for a, b in zip(warm.forward, fresh.forward):
                        assert np.array_equal(a.feature, b.feature)
                        assert np.array_equal(a.hidden, b.hidden)
                        assert np.array_equal(a.scores, b.scores)

    def test_cached_vectors_are_read_only_embeddings_keyed_by_text(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(5, 16, 8, 4, len(reg))
        rng = np.random.default_rng(0)
        for _ in range(20):
            sample_architecture(state, reg, "q", 0.3, MODE_TRAIN, rng, emb)
        profiles = {s.profile_text for s in reg.specs()}
        assert emb.memo and set(emb.memo) <= profiles
        for text, vec in emb.memo.items():
            assert np.array_equal(vec, emb.embed(text))
            assert emb.embed_memo(text) is vec
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0

    def test_memo_never_holds_an_eval_query(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(5, 16, 8, 4, len(reg))
        force_logits(state, [[0.0] * len(reg)] * 4)  # never exits: every layer runs
        profiles = {s.profile_text for s in reg.specs()}
        queries = [f"add {i} and {i + 7}" for i in range(200)]
        for q in queries:
            sample_architecture(state, reg, q, 0.3, MODE_EVAL, embedder=emb)
        assert emb.memo and set(emb.memo) <= profiles
        assert not set(emb.memo) & set(queries)


BUILTIN_IDS = builtin_registry().ids()
# words that recur, so that at a small dim many counts cancel to zero
WORDS = st.sampled_from(["add", "two", "numbers", "x1", "42", "step", "lemma", "prove"])


class TestProfileSum:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(BUILTIN_IDS), max_size=4), st.sampled_from([1, 2, 8, 16]))
    def test_equals_the_zeros_then_add_form_bitwise(self, op_ids, dim):
        reg, emb = builtin_registry(), HashingEmbedder(dim)
        want = np.zeros(dim)
        for op_id in op_ids:
            want += emb.embed(reg.get(op_id).profile_text)
        got = _profile_sum(reg, emb, op_ids)
        assert got.tobytes() == want.tobytes()
        # a lone operator's memo vector comes back as it is; no sum writes one
        if len(op_ids) == 1:
            assert got is emb.memo[reg.get(op_ids[0]).profile_text]
        else:
            assert all(got is not vec for vec in emb.memo.values())
        for text, vec in emb.memo.items():
            assert vec.tobytes() == emb.embed(text).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.lists(WORDS, max_size=40).map(" ".join), st.text(max_size=200)),
           st.sampled_from([1, 2, 3, 8, 64]))
    def test_embeddings_hold_no_negative_zero(self, text, dim):
        """What lets the sum start from the first vector: `0.0 + v` is `v`
        bitwise unless `v` holds -0.0."""
        vec = HashingEmbedder(dim).embed(text)
        assert not np.signbit(vec[vec == 0.0]).any()


def running_sum_log_prob(arch):
    """The log-probability as the sampler summed it while drawing: each
    layer's prefix log-probability on numpy scalars, added in layer order."""
    log_prob = 0.0
    for score_vec, selected in zip(arch.forward, arch.selections):
        scores = score_vec.scores
        layer_lp = 0.0
        rem = 1.0
        for idx in selected:
            layer_lp += float(np.log(scores[idx] / rem))
            rem -= scores[idx]
        log_prob += layer_lp
    return log_prob


class TestArchitectureLogProb:
    @pytest.mark.parametrize("mode", [MODE_TRAIN, MODE_EVAL])
    def test_derived_on_read_equals_running_sum_bitwise(self, mode):
        """`log_prob` read off the forward passes has the bits of the running
        sum, and each layer's feature, built by appending one profile sum to
        the last, has the bits of `layer_feature` over all of them."""
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        depths = set()
        for seed in range(40):
            state = init_params(seed, 16, 8, 4, len(reg))
            rng = np.random.default_rng(seed)
            text = ("add 1 and 2", "prove the lemma", "", "count the words")[seed % 4]
            arch = sample_architecture(state, reg, text, 0.3, mode, rng, emb)
            depths.add(len(arch.selections))
            assert arch.log_prob.hex() == running_sum_log_prob(arch).hex()
            sums = []
            for ids in arch.layers:
                total = np.zeros(16)
                for op_id in ids:
                    total += emb.embed(reg.get(op_id).profile_text)
                sums.append(total)
            for ell, score_vec in enumerate(arch.forward[1:], start=1):
                want = layer_feature(emb.embed(text), sums[:ell])
                assert np.array_equal(score_vec.feature, want)
        assert depths >= {1, 2, 3}

    def test_recompute_matches_stored(self):
        reg = builtin_registry()
        state = init_params(3, 16, 8, 3, len(reg))
        emb = HashingEmbedder(16)
        rng = np.random.default_rng(1)
        for _ in range(50):
            arch = sample_architecture(state, reg, "check", 0.3, MODE_TRAIN, rng,
                                       embedder=emb)
            lp = architecture_log_prob(state, reg, "check", arch, embedder=emb)
            assert abs(lp - arch.log_prob) < 1e-12

    def test_stale_architecture_detected(self):
        reg = builtin_registry()
        state = init_params(3, 16, 8, 2, len(reg))
        emb = HashingEmbedder(16)
        arch = sample_architecture(state, reg, "q", 0.3, MODE_EVAL, embedder=emb)
        state.bump_version()
        with pytest.raises(MaasError, match="architecture sampled at version 0"):
            architecture_log_prob(state, reg, "q", arch, embedder=emb)

    def test_enumeration_sums_to_one(self):
        """L=2, N_ops=3 incl. exit: total probability over every reachable
        selection-sequence tuple is exactly 1."""
        reg = tiny_registry()
        state = init_params(5, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        total = sum(two_layer_table(state, reg, emb, "enumerate", 0.3).values())
        assert abs(total - 1.0) < 1e-9


def topological_sort_succeeds(edges):
    nodes = {n for e in edges for n in e}
    indeg = {n: 0 for n in nodes}
    succ = {n: [] for n in nodes}
    for a, b in edges:
        indeg[b] += 1
        succ[a].append(b)
    queue = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return seen == len(nodes)


class TestBuildDag:
    def _arch(self, layers, exit_layer=None):
        return Architecture(layers=layers, selections=[], exit_layer=exit_layer,
                            params_version=0)

    def test_single_chain(self):
        edges = build_dag(self._arch([["a"], ["b"]]))
        assert edges == [(SOURCE, "L1:a"), ("L1:a", "L2:b"), ("L2:b", SINK)]

    def test_bipartite(self):
        edges = build_dag(self._arch([["a", "b"], ["c"]]))
        assert set(edges) == {
            (SOURCE, "L1:a"), (SOURCE, "L1:b"),
            ("L1:a", "L2:c"), ("L1:b", "L2:c"), ("L2:c", SINK),
        }

    def test_edge_count_formula(self):
        edges = build_dag(self._arch([["a"], ["b", "c"]]))
        assert len(edges) == 1 + 2 + 2

    def test_random_architectures_acyclic(self):
        rng = np.random.default_rng(0)
        ops = ["a", "b", "c", "d", "e"]
        for _ in range(10_000):
            depth = int(rng.integers(1, 5))
            layers = [
                list(rng.choice(ops, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(depth)
            ]
            edges = build_dag(self._arch(layers))
            assert topological_sort_succeeds(edges)

    def test_empty_architecture_no_edges(self):
        assert build_dag(self._arch([])) == []
