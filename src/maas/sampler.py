"""Per-query architecture sampling and DAG construction.

Layer by layer, the controller scores every operator against the query and
the previously selected layers, then selects a subset (stochastic in train
mode, deterministic in eval mode). Selecting the early-exit operator stops
sampling at that layer: co-selected operators are discarded and, when the
exit fires at the very first layer, the architecture degenerates to a single
direct-io call so the query still gets answered.

Sampling records each layer's forward pass (feature, tanh hidden state and
scores) on the architecture, so the policy gradient reuses it instead of
running the layer again. Each layer's profile sum is built once, when the
next layer needs it, from operator profile embeddings looked up by text in
a `profile_cache`: a caller that passes one dict to every call (as
`Trainer` does) embeds each distinct profile text once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from .embedding import layer_feature
from .errors import StaleArchitecture

SOURCE = "__source__"
SINK = "__sink__"

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass
class Architecture:
    layers: list  # list of lists of operator ids, in drawn order
    selections: list  # raw per-layer drawn index sequences (incl. exit draws)
    exit_layer: int | None
    edges: list  # (from node, to node) pairs; nodes are "L{layer}:{op_id}"
    log_prob: float
    params_version: int
    # one controller.ScoreVector per entry of `selections`; not serialized
    forward: list = field(default_factory=list, repr=False, compare=False)

    def node_name(self, layer_number: int, op_id: str) -> str:
        return f"L{layer_number}:{op_id}"

    def to_dict(self):
        return {
            "layers": self.layers,
            "selections": self.selections,
            "exit_layer": self.exit_layer,
            "edges": [list(e) for e in self.edges],
            "log_prob": self.log_prob,
            "params_version": self.params_version,
        }


def _profile_sum(registry, embedder, op_ids, profile_cache):
    """Sum of the operators' profile embeddings, added in drawn order. Each
    embedding is taken from `profile_cache` (profile text -> read-only
    vector), and embedded and stored there on a miss."""
    total = np.zeros(embedder.dim, dtype=np.float64)
    for op_id in op_ids:
        text = registry.get(op_id).profile_text
        vec = profile_cache.get(text)
        if vec is None:
            vec = embedder.embed(text)
            vec.setflags(write=False)
            profile_cache[text] = vec
        total += vec
    return total


def sample_architecture(
    state: ctl.SupernetState,
    registry,
    query: str,
    thres: float,
    mode: str,
    rng: np.random.Generator | None = None,
    embedder=None,
    query_vec: np.ndarray | None = None,
    profile_cache: dict | None = None,
) -> Architecture:
    """Sample (train) or select (eval) one architecture for the query.
    `query_vec`, when given, is the query's embedding, so callers drawing
    several samples for one query embed it once. `profile_cache` maps
    profile text to its read-only embedding; pass the same dict to every
    call to embed each profile text once, or None to use a fresh dict for
    this call only. Keyed on text, it needs no invalidation when operators
    are patched, split or merged."""
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_TRAIN and rng is None:
        raise ValueError("train mode needs an rng")
    if embedder is None:
        from .embedding import HashingEmbedder

        embedder = HashingEmbedder(state.embed_dim)

    ids = registry.ids()
    exit_idx = registry.index_of(registry.early_exit_id)
    if query_vec is None:
        query_vec = embedder.embed(query)
    if profile_cache is None:
        profile_cache = {}

    layers: list[list[str]] = []
    layer_sums: list[np.ndarray] = []
    selections: list[list[int]] = []
    forward: list[ctl.ScoreVector] = []
    exit_layer = None
    log_prob = 0.0

    for ell in range(1, state.num_layers + 1):
        if layers:
            layer_sums.append(
                _profile_sum(registry, embedder, layers[-1], profile_cache)
            )
        feature = layer_feature(query_vec, layer_sums)
        score_vec = ctl.score_layer(state, ell, feature)
        forward.append(score_vec)
        if mode == MODE_TRAIN:
            selected, lp = ctl.sample_selection(score_vec, thres, rng)
        else:
            selected = ctl.select_deterministic(score_vec, thres)
            lp = ctl.selection_log_prob(score_vec, selected)
        selections.append(list(selected))
        log_prob += lp
        if exit_idx in selected:
            exit_layer = ell
            if ell == 1:
                layers.append([registry.direct_io_id])
            break
        layers.append([ids[i] for i in selected])

    arch = Architecture(
        layers=layers,
        selections=selections,
        exit_layer=exit_layer,
        edges=[],
        log_prob=log_prob,
        params_version=state.version,
        forward=forward,
    )
    arch.edges = build_dag(arch, registry)
    return arch


def architecture_log_prob(
    state: ctl.SupernetState, registry, query: str, arch: Architecture, embedder=None
) -> float:
    """Recompute the architecture's selection log-probability from scratch."""
    if arch.params_version != state.version:
        raise StaleArchitecture(
            f"architecture sampled at version {arch.params_version},"
            f" parameters now at {state.version}"
        )
    if embedder is None:
        from .embedding import HashingEmbedder

        embedder = HashingEmbedder(state.embed_dim)
    query_vec = embedder.embed(query)
    executed = arch.layers if arch.exit_layer != 1 else []
    log_prob = 0.0
    for ell, selected in enumerate(arch.selections, start=1):
        feature = layer_feature(
            query_vec,
            [_profile_sum(registry, embedder, ids, {}) for ids in executed[: ell - 1]],
        )
        score_vec = ctl.score_layer(state, ell, feature)
        log_prob += ctl.selection_log_prob(score_vec, selected)
    return log_prob


def build_dag(arch: Architecture, registry) -> list:
    """Source into layer 1, complete bipartite between consecutive layers,
    final layer into the sink; rewire-flagged operators get an extra skip
    edge from the source."""
    edges = []
    if not arch.layers:
        return edges
    numbered = list(enumerate(arch.layers, start=1))
    for op_id in arch.layers[0]:
        edges.append((SOURCE, arch.node_name(1, op_id)))
    for (num_a, layer_a), (num_b, layer_b) in zip(numbered, numbered[1:]):
        for a in layer_a:
            for b in layer_b:
                edges.append((arch.node_name(num_a, a), arch.node_name(num_b, b)))
    last_num, last_layer = numbered[-1]
    for op_id in last_layer:
        edges.append((arch.node_name(last_num, op_id), SINK))
    if registry.rewire_ids:
        for num, layer in numbered[1:]:
            for op_id in layer:
                if op_id in registry.rewire_ids:
                    edges.append((SOURCE, arch.node_name(num, op_id)))
    return edges
