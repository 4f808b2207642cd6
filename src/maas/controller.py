"""Per-layer scoring networks and the threshold selection rule.

Each supernet layer owns an independent two-layer tanh network mapping the
concatenated (query, previous-layer) embedding feature to one logit per
operator. Softmax turns logits into a score vector; operators are selected
greedily by descending score until the cumulative mass strictly exceeds the
threshold (deterministic rule), or drawn sequentially without replacement
in proportion to their scores with the same cumulative-mass stopping rule
(stochastic rule, with closed-form log-probability and exact gradients).
Both rules walk about one score per operator, so they run on Python floats
from one `tolist()` per score vector, with the float operations and RNG
calls of their numpy form in the same order: bitwise the same results.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, ShapeMismatch

INIT_SCALE = 0.1
SPLIT_NOISE_SCALE = 0.01
# the tolerance `Generator.choice` allows on the sum of its probabilities
_CDF_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass
class LayerController:
    W1: np.ndarray  # (h, d*layer)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (n_ops, h)
    b2: np.ndarray  # (n_ops,)
    layer_index: int

    def param_arrays(self):
        return (self.W1, self.b1, self.W2, self.b2)

    def to_dict(self):
        return {
            "layer_index": self.layer_index,
            "W1": {"shape": list(self.W1.shape), "values": self.W1.ravel().tolist()},
            "b1": {"shape": list(self.b1.shape), "values": self.b1.tolist()},
            "W2": {"shape": list(self.W2.shape), "values": self.W2.ravel().tolist()},
            "b2": {"shape": list(self.b2.shape), "values": self.b2.tolist()},
        }

    @classmethod
    def from_dict(cls, d):
        def arr(entry):
            return np.asarray(entry["values"], dtype=np.float64).reshape(
                entry["shape"]
            )

        return cls(
            W1=arr(d["W1"]),
            b1=arr(d["b1"]),
            W2=arr(d["W2"]),
            b2=arr(d["b2"]),
            layer_index=int(d["layer_index"]),
        )


@dataclass
class SupernetState:
    layers: list
    embed_dim: int
    hidden_dim: int
    version: int = 0

    @property
    def num_layers(self):
        return len(self.layers)

    @property
    def n_ops(self):
        return self.layers[0].W2.shape[0]

    def layer(self, layer_index: int) -> LayerController:
        if not 1 <= layer_index <= len(self.layers):
            raise DimensionMismatch(f"no layer {layer_index}")
        return self.layers[layer_index - 1]

    def bump_version(self):
        self.version += 1

    # -- structural remapping after registry edits -------------------------

    def split_output(self, parent_index: int, rng: np.random.Generator):
        """Append one output row per layer, cloned from the parent with small
        uniform noise. Mirrors a registry split (new operator at the end)."""
        for ctrl in self.layers:
            h = ctrl.W2.shape[1]
            row = ctrl.W2[parent_index] + rng.uniform(
                -SPLIT_NOISE_SCALE, SPLIT_NOISE_SCALE, h
            )
            bias = ctrl.b2[parent_index] + rng.uniform(
                -SPLIT_NOISE_SCALE, SPLIT_NOISE_SCALE
            )
            ctrl.W2 = np.vstack([ctrl.W2, row[None, :]])
            ctrl.b2 = np.append(ctrl.b2, bias)
        self.bump_version()

    def merge_output(self, removed_index: int):
        """Delete the output row of a merged-away operator in every layer."""
        for ctrl in self.layers:
            ctrl.W2 = np.delete(ctrl.W2, removed_index, axis=0)
            ctrl.b2 = np.delete(ctrl.b2, removed_index)
        self.bump_version()

    def to_dict(self):
        return {
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "version": self.version,
            "layers": [ctrl.to_dict() for ctrl in self.layers],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            layers=[LayerController.from_dict(x) for x in d["layers"]],
            embed_dim=int(d["embed_dim"]),
            hidden_dim=int(d["hidden_dim"]),
            version=int(d["version"]),
        )


@dataclass
class ScoreVector:
    """One layer's forward pass: scores from logits, plus the input feature
    and tanh hidden state the gradient backpropagates through."""

    logits: np.ndarray
    scores: np.ndarray
    hidden: np.ndarray | None = None
    feature: np.ndarray | None = None


@dataclass
class LayerGrad:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    layer_index: int


def init_params(seed, d, h, num_layers, n_ops) -> SupernetState:
    """Initialize all layer controllers i.i.d. uniform in [-0.1, 0.1]."""
    if min(d, h, num_layers, n_ops) < 1:
        raise ValueError("all dims must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for ell in range(1, num_layers + 1):
        layers.append(
            LayerController(
                W1=rng.uniform(-INIT_SCALE, INIT_SCALE, (h, d * ell)),
                b1=rng.uniform(-INIT_SCALE, INIT_SCALE, h),
                W2=rng.uniform(-INIT_SCALE, INIT_SCALE, (n_ops, h)),
                b2=rng.uniform(-INIT_SCALE, INIT_SCALE, n_ops),
                layer_index=ell,
            )
        )
    return SupernetState(layers=layers, embed_dim=d, hidden_dim=h)


def score_layer(state: SupernetState, layer_index: int, feature: np.ndarray) -> ScoreVector:
    ctrl = state.layer(layer_index)
    expected = ctrl.W1.shape[1]
    feature = np.ascontiguousarray(feature, dtype=np.float64)
    if feature.shape != (expected,):
        raise DimensionMismatch(
            f"layer {layer_index} expects feature of length {expected},"
            f" got {feature.shape}"
        )
    hidden, logits = kernels.ffn_forward(ctrl.W1, ctrl.b1, ctrl.W2, ctrl.b2, feature)
    return ScoreVector(
        logits=logits, scores=kernels.softmax(logits), hidden=hidden, feature=feature
    )


def select_deterministic(score_vec: ScoreVector, thres: float) -> list[int]:
    """Minimal descending-score prefix whose cumulative mass strictly exceeds
    thres; ties broken by ascending operator index. Raises ValueError when a
    NaN score enters the prefix (NaN sorts last)."""
    scores = score_vec.scores
    values = scores.tolist()
    cum = 0.0
    chosen = []
    for idx in np.argsort(-scores, kind="stable").tolist():
        chosen.append(idx)
        cum += values[idx]
        if cum > thres:
            return chosen
    if math.isnan(cum):
        raise ValueError("selection scores are NaN")
    return chosen


def _pairwise_sum(values):
    """`np.add.reduce` of a float64 vector, bitwise, on a list of Python
    floats: numpy adds to its 0.0 identity, in pairwise order, eight
    accumulators over the leading multiple of 8 (up to 128 values), then a
    running sum of the rest; longer vectors split at a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total = 0.0
    tail = 0
    if n >= 8:
        r = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[tail:]:
        total += v
    return total


def _prefix_log_prob(scores, selected) -> float:
    """sum_j log(s_{i_j} / (1 - sum_{t<j} s_{i_t})) for a list of scores, in
    draw order. `np.log`, since `math.log` differs in the last bit on about
    one value in a thousand."""
    log_prob = 0.0
    rem = 1.0
    for idx in selected:
        log_prob += float(np.log(kernels.divide(scores[idx], rem)))
        rem -= scores[idx]
    return log_prob


def sample_selection(score_vec: ScoreVector, thres: float, rng: np.random.Generator):
    """Draw operators sequentially without replacement in proportion to their
    scores; stop once the drawn set's original score mass strictly exceeds
    thres. Returns (index sequence, prefix log-probability).

    Each draw is the one `rng.choice(n, p=weights / total)` makes (inverse
    CDF of one `rng.random()`), inlined without its argument handling and
    run on Python floats: numpy's pairwise sum, a running cumsum and
    `bisect_right` for `searchsorted`, so the same indices and the same
    generator state afterwards. One weight list serves every draw, with
    each drawn operator's weight zeroed. Raises ValueError when no mass is
    left or the normalized weights are NaN or do not sum to 1."""
    scores = score_vec.scores.tolist()
    weights = scores.copy()  # drawn operators zeroed
    drawn = []
    cum = 0.0
    while cum <= thres:
        total = _pairwise_sum(weights)
        if total == 0.0:  # numpy divides 0 / 0 into NaN weights
            raise ValueError("no selection mass left to draw from")
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        if not abs(acc - 1.0) <= _CDF_ATOL:  # also catches NaN
            raise ValueError("selection probabilities are NaN or do not sum to 1")
        idx = bisect_right([c / acc for c in cdf], rng.random())
        drawn.append(idx)
        weights[idx] = 0.0
        cum += scores[idx]
    return drawn, _prefix_log_prob(scores, drawn)


def selection_log_prob(score_vec: ScoreVector, selected) -> float:
    """Prefix log-probability of a fixed drawn sequence under the scores."""
    return _prefix_log_prob(score_vec.scores.tolist(), selected)


def grad_log_prob(
    state: SupernetState, layer_index: int, feature: np.ndarray, selected
) -> LayerGrad:
    """Exact gradient of the selection's prefix log-probability w.r.t. the
    layer's parameters (through softmax and the two-layer network), from a
    fresh forward pass: the one-row case of the training update's backward."""
    score_vec = score_layer(state, layer_index, feature)
    ctrl = state.layer(layer_index)
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size and (selected.min() < 0 or selected.max() >= ctrl.W2.shape[0]):
        raise ShapeMismatch("selection index out of range")
    g_logits = kernels.pl_grad_logits(score_vec.scores, selected)
    gW1, gb1, gW2, gb2 = kernels.ffn_backward(
        ctrl.W2, score_vec.feature[None], score_vec.hidden[None], g_logits[None]
    )
    return LayerGrad(W1=gW1, b1=gb1, W2=gW2, b2=gb2, layer_index=layer_index)
