"""Per-query architecture sampling.

An architecture is its layered operator selection: `execute` runs it layer
by layer, and `build_dag` derives the paper's DAG wiring from it only for
`maas sample` to print. Layer by layer, the controller scores every
operator against the query and the previously selected layers, then
selects a subset (stochastic in train mode, deterministic in eval mode).
Selecting the early-exit operator stops sampling at that layer: co-selected
operators are discarded and, when the exit fires at the very first layer,
the architecture degenerates to a single direct-io call so the query still
gets answered.

Sampling records each layer's forward pass (feature, tanh hidden state and
scores) on the architecture, so the policy gradient reuses it instead of
running the layer again. The selection log-probability is derived from
those forward passes when `Architecture.log_prob` is read; training and
eval do not read it. Layer 1's forward pass depends on the query alone,
so a caller drawing K samples at the same parameters can score it once and
pass it in as `first`; `Trainer` does. Each next layer's feature is the
previous feature with the selected operators' profile sum appended, from
the embedder's memo (`embed_memo`) of profile embeddings. The sum starts
from the first operator's vector, not from zeros: an embedding holds no
-0.0, so `0.0 + v` is `v` bitwise, and a lone operator's vector is appended
as it is (the concatenation copies it). The query goes through plain
`embed`: eval queries are new texts, which the memo must not hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from .embedding import HashingEmbedder, layer_feature
from .errors import MaasError

SOURCE = "__source__"
SINK = "__sink__"

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass
class Architecture:
    layers: list  # list of lists of operator ids, in drawn order
    selections: list  # raw per-layer drawn index sequences (incl. exit draws)
    exit_layer: int | None
    params_version: int
    # one controller.ScoreVector per entry of `selections`; not serialized
    forward: list = field(default_factory=list, repr=False, compare=False)

    @property
    def log_prob(self):
        """The selections' log-probability under the recorded forward
        passes: each layer's `selection_log_prob` added in layer order."""
        log_prob = 0.0
        for score_vec, selected in zip(self.forward, self.selections):
            log_prob += ctl.selection_log_prob(score_vec.scores, selected)
        return log_prob

    def to_dict(self):
        return {
            "layers": self.layers,
            "selections": self.selections,
            "exit_layer": self.exit_layer,
            "edges": [list(e) for e in build_dag(self)],
            "log_prob": self.log_prob,
            "params_version": self.params_version,
        }


def exit_histogram(archs) -> dict:
    """How many architectures exit at each layer, keyed by the layer as a
    string or "none" for those that never exit, in first-seen order."""
    keys = ["none" if arch.exit_layer is None else str(arch.exit_layer) for arch in archs]
    return {key: keys.count(key) for key in dict.fromkeys(keys)}


def _profile_sum(registry, embedder, op_ids):
    """Sum of the operators' profile embeddings from the embedder's memo,
    added in drawn order; a lone operator's read-only memo vector itself."""
    vecs = [embedder.embed_memo(registry.get(op_id).profile_text) for op_id in op_ids]
    return sum(vecs[1:], vecs[0]) if vecs else np.zeros(embedder.dim)


def sample_architecture(
    state: ctl.SupernetState,
    registry,
    query: str,
    thres: float,
    mode: str,
    rng: np.random.Generator | None = None,
    embedder=None,
    first: ctl.ScoreVector | None = None,
) -> Architecture:
    """Sample (train) or select (eval) one architecture for the query.
    `first`, when given, is layer 1's forward pass (`score_layer` on the
    query embedding, its `.feature`), so callers drawing several samples
    for one query at the same parameters embed and score it once; a
    feature of the wrong length raises `MaasError`. Profile embeddings come
    from `embedder`'s memo: pass the same embedder to every call to embed
    each profile text once. Keyed on text, the memo needs no invalidation
    when operators are patched, split or merged."""
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_TRAIN and rng is None:
        raise ValueError("train mode needs an rng")
    if embedder is None:
        embedder = HashingEmbedder(state.embed_dim)

    ids = registry.ids()
    exit_idx = registry.early_exit_index
    if first is None:
        first = ctl.score_layer(state, 1, embedder.embed(query))
    elif first.feature.shape != (state.embed_dim,):
        raise MaasError(
            f"layer 1 feature has shape {first.feature.shape},"
            f" expected ({state.embed_dim},)"
        )

    layers: list[list[str]] = []
    selections: list[list[int]] = []
    forward: list[ctl.ScoreVector] = []
    exit_layer = None

    for ell in range(1, state.num_layers + 1):
        if ell == 1:
            score_vec = first
        else:
            profile_sum = _profile_sum(registry, embedder, layers[-1])
            score_vec = ctl.score_layer(
                state, ell, np.concatenate([score_vec.feature, profile_sum]))
        forward.append(score_vec)
        if mode == MODE_TRAIN:
            selected = ctl.sample_selection(score_vec.scores, thres, rng)
        else:
            selected = ctl.select_deterministic(score_vec.scores, thres)
        selections.append(selected)
        if exit_idx in selected:
            exit_layer = ell
            if ell == 1:
                layers.append([registry.direct_io_id])
            break
        layers.append([ids[i] for i in selected])

    return Architecture(
        layers=layers,
        selections=selections,
        exit_layer=exit_layer,
        params_version=state.version,
        forward=forward,
    )


def architecture_log_prob(
    state: ctl.SupernetState, registry, query: str, arch: Architecture, embedder=None
) -> float:
    """Recompute the architecture's selection log-probability from scratch."""
    if arch.params_version != state.version:
        raise MaasError(
            f"architecture sampled at version {arch.params_version},"
            f" parameters now at {state.version}"
        )
    if embedder is None:
        embedder = HashingEmbedder(state.embed_dim)
    query_vec = embedder.embed(query)
    executed = arch.layers if arch.exit_layer != 1 else []
    log_prob = 0.0
    for ell, selected in enumerate(arch.selections, start=1):
        feature = layer_feature(
            query_vec,
            [_profile_sum(registry, embedder, ids) for ids in executed[: ell - 1]],
        )
        log_prob += ctl.selection_log_prob(
            ctl.score_layer(state, ell, feature).scores, selected)
    return log_prob


def build_dag(arch: Architecture) -> list:
    """The architecture's DAG as (from, to) node pairs, nodes named
    "L{layer}:{op_id}": source into layer 1, complete bipartite between
    consecutive layers, final layer into the sink. Only `maas sample`
    prints it; `execute` follows the same wiring straight from
    `arch.layers`."""
    edges = []
    if not arch.layers:
        return edges
    numbered = list(enumerate(arch.layers, start=1))
    for op_id in arch.layers[0]:
        edges.append((SOURCE, f"L1:{op_id}"))
    for (num_a, layer_a), (num_b, layer_b) in zip(numbered, numbered[1:]):
        for a in layer_a:
            for b in layer_b:
                edges.append((f"L{num_a}:{a}", f"L{num_b}:{b}"))
    last_num, last_layer = numbered[-1]
    for op_id in last_layer:
        edges.append((f"L{last_num}:{op_id}", SINK))
    return edges
