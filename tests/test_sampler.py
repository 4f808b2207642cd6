"""Sampler: exit semantics, DAG shape/acyclicity, log-prob bookkeeping."""

import numpy as np
import pytest

from maas.controller import init_params, score_layer, select_deterministic
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import StaleArchitecture
from maas.registry import (
    KIND_DIRECT_IO,
    KIND_EARLY_EXIT,
    OperatorRegistry,
    builtin_registry,
)
from maas.sampler import (
    SINK,
    SOURCE,
    Architecture,
    MODE_EVAL,
    MODE_TRAIN,
    architecture_log_prob,
    build_dag,
    sample_architecture,
)
from tests.test_registry import make_spec


def tiny_registry():
    """direct_io + early_exit + one generative op."""
    reg = OperatorRegistry()
    reg.register(make_spec("solver"))
    reg.register(make_spec("exit", KIND_EARLY_EXIT))
    reg.register(make_spec("io", KIND_DIRECT_IO))
    return reg


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
        assert arch.edges == [(SOURCE, "L1:io"), ("L1:io", SINK)]

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
        sel1 = select_deterministic(sv1, 0.3)
        assert arch.selections[0] == sel1
        exit_idx = reg.index_of("exit")
        if exit_idx not in sel1:
            expected_layer1 = [ids[i] for i in sel1]
            assert arch.layers[0] == expected_layer1
            sums = [sum(emb.embed(reg.get(i).profile_text) for i in expected_layer1)]
            sv2 = score_layer(state, 2, layer_feature(q, sums))
            assert arch.selections[1] == select_deterministic(sv2, 0.3)

    def test_train_mode_requires_rng(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        with pytest.raises(ValueError):
            sample_architecture(state, reg, "q", 0.3, MODE_TRAIN)

    def test_unknown_mode(self):
        reg = tiny_registry()
        state = init_params(0, 8, 8, 1, len(reg))
        with pytest.raises(ValueError):
            sample_architecture(state, reg, "q", 0.3, "test")


class TestProfileCache:
    def test_warm_cache_is_bitwise_equal_to_no_cache(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(5, 16, 8, 4, len(reg))
        cache = {}
        warm_rng = np.random.default_rng(99)
        for _ in range(20):
            sample_architecture(state, reg, "warm up", 0.3, MODE_TRAIN, warm_rng,
                                emb, profile_cache=cache)
        assert cache
        for seed in range(30):
            for text in ("add 1 and 2", "prove the lemma"):
                cached = sample_architecture(
                    state, reg, text, 0.3, MODE_TRAIN, np.random.default_rng(seed),
                    emb, profile_cache=cache)
                fresh = sample_architecture(
                    state, reg, text, 0.3, MODE_TRAIN, np.random.default_rng(seed),
                    emb)
                assert cached.selections == fresh.selections
                assert cached.layers == fresh.layers
                assert cached.log_prob.hex() == fresh.log_prob.hex()
                assert len(cached.forward) == len(fresh.forward)
                for a, b in zip(cached.forward, fresh.forward):
                    assert np.array_equal(a.feature, b.feature)
                    assert np.array_equal(a.hidden, b.hidden)
                    assert np.array_equal(a.scores, b.scores)

    def test_cached_vectors_are_read_only_embeddings_keyed_by_text(self):
        reg = builtin_registry()
        emb = HashingEmbedder(16)
        state = init_params(5, 16, 8, 4, len(reg))
        cache = {}
        rng = np.random.default_rng(0)
        for _ in range(20):
            sample_architecture(state, reg, "q", 0.3, MODE_TRAIN, rng, emb,
                                profile_cache=cache)
        profiles = {s.profile_text for s in reg.specs()}
        assert cache and set(cache) <= profiles
        for text, vec in cache.items():
            assert np.array_equal(vec, emb.embed(text))
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0


class TestArchitectureLogProb:
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
        with pytest.raises(StaleArchitecture):
            architecture_log_prob(state, reg, "q", arch, embedder=emb)

    def test_enumeration_sums_to_one(self):
        """L=2, N_ops=3 incl. exit: total probability over every reachable
        selection-sequence tuple is exactly 1."""
        reg = tiny_registry()
        state = init_params(5, 8, 8, 2, len(reg))
        emb = HashingEmbedder(8)
        q = emb.embed("enumerate")
        exit_idx = reg.index_of("exit")
        ids = reg.ids()
        thres = 0.3

        def layer_sequences(scores):
            out = []

            def rec(prefix, cum, rem, lp):
                if cum > thres:
                    out.append((tuple(prefix), lp))
                    return
                for i in range(len(scores)):
                    if i in prefix:
                        continue
                    rec(prefix + [i], cum + scores[i], rem - scores[i],
                        lp + np.log(scores[i] / rem))

            rec([], 0.0, 1.0, 0.0)
            return out

        total = 0.0
        sv1 = score_layer(state, 1, layer_feature(q, []))
        for seq1, lp1 in layer_sequences(sv1.scores):
            if exit_idx in seq1:
                total += np.exp(lp1)
                continue
            layer1 = [ids[i] for i in seq1]
            sums = [sum(emb.embed(reg.get(i).profile_text) for i in layer1)]
            sv2 = score_layer(state, 2, layer_feature(q, sums))
            for _, lp2 in layer_sequences(sv2.scores):
                total += np.exp(lp1 + lp2)
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
                            edges=[], log_prob=0.0, params_version=0)

    def test_single_chain(self):
        edges = build_dag(self._arch([["a"], ["b"]]), builtin_registry())
        assert edges == [(SOURCE, "L1:a"), ("L1:a", "L2:b"), ("L2:b", SINK)]

    def test_bipartite(self):
        edges = build_dag(self._arch([["a", "b"], ["c"]]), builtin_registry())
        assert set(edges) == {
            (SOURCE, "L1:a"), (SOURCE, "L1:b"),
            ("L1:a", "L2:c"), ("L1:b", "L2:c"), ("L2:c", SINK),
        }

    def test_edge_count_formula(self):
        edges = build_dag(self._arch([["a"], ["b", "c"]]), builtin_registry())
        assert len(edges) == 1 + 2 + 2

    def test_rewire_adds_skip_edges(self):
        reg = builtin_registry()
        reg.rewire_ids.add("react")
        edges = build_dag(self._arch([["cot"], ["react"]]), reg)
        assert (SOURCE, "L2:react") in edges

    def test_random_architectures_acyclic(self):
        rng = np.random.default_rng(0)
        ops = ["a", "b", "c", "d", "e"]
        reg = builtin_registry()
        for _ in range(10_000):
            depth = int(rng.integers(1, 5))
            layers = [
                list(rng.choice(ops, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(depth)
            ]
            edges = build_dag(self._arch(layers), reg)
            assert topological_sort_succeeds(edges)

    def test_empty_architecture_no_edges(self):
        assert build_dag(self._arch([]), builtin_registry()) == []
