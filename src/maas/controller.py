"""Per-layer scoring networks and the threshold selection rule.

Each supernet layer owns an independent two-layer tanh network mapping the
concatenated (query, previous-layer) embedding feature to one logit per
operator. Softmax turns logits into a score vector; operators are selected
greedily by descending score until the cumulative mass strictly exceeds the
threshold (deterministic rule), or drawn sequentially without replacement
in proportion to their scores with the same cumulative-mass stopping rule
(stochastic rule, with closed-form log-probability and exact gradients).
Both rules walk about one score per operator, so they run on Python floats
from one `tolist()` per score vector. The deterministic rule makes the float
operations of its numpy form in the same order: bitwise the same results.
The stochastic rule is a plain inverse CDF with one `rng.random()` per drawn
operator, as `rng.choice` makes; their indices differ only when the uniform
lands within rounding of a CDF boundary.

`SupernetState` keeps every layer's parameters in one float64 vector, each
layer's arrays being views of it, and a gradient vector of the same layout,
so the training update is one scale and one add over a prefix of each. Only
this module binds a layer's arrays; a split or merge lays the vectors out
anew. `maas.checkpoint` writes and reads the vector with the counts that
give its layout.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import kernels
from .errors import MaasError

INIT_SCALE = 0.1
SPLIT_NOISE_SCALE = 0.01


@dataclass
class LayerController:
    """A layer's scoring-network parameters, or a gradient in their shapes.
    A `SupernetState`'s layers hold views of its `params` (or `grad`), so only
    this module rebinds their arrays: an array bound elsewhere would drop out
    of every update."""

    W1: np.ndarray  # (h, d*layer)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (n_ops, h)
    b2: np.ndarray  # (n_ops,)

    def param_arrays(self):
        return (self.W1, self.b1, self.W2, self.b2)


def _layout(d, h, n_ops, num_layers):
    """Each layer's W1, b1, W2, b2 shapes, in layer order: the order in which
    `SupernetState.params` holds them, each row-major."""
    return [[(h, d * ell), (h,), (n_ops, h), (n_ops,)] for ell in range(1, num_layers + 1)]


def _size(d, h, n_ops, num_layers):
    """How many values the shapes of `_layout(d, h, n_ops, num_layers)` hold,
    in closed form, so that counts read from a file cost nothing to check,
    however large."""
    return h * d * num_layers * (num_layers + 1) // 2 + num_layers * (h + n_ops * h + n_ops)


def _views(vector, layout):
    """One `LayerController` per layer of `layout` whose arrays are views of
    `vector`, and the offset in `vector` at which each layer ends, after a
    leading 0."""
    layers, offsets, start = [], [0], 0
    for shapes in layout:
        arrays = []
        for shape in shapes:
            end = start + math.prod(shape)
            arrays.append(vector[start:end].reshape(shape))
            start = end
        layers.append(LayerController(*arrays))
        offsets.append(start)
    return layers, offsets


class SupernetState:
    """Every layer's controller parameters in one float64 vector `params`:
    layer 1's W1, b1, W2 and b2, then layer 2's, and so on, each row-major.
    `layers` holds one `LayerController` per layer whose arrays are views of
    `params`; `grad` is a vector of the same layout, and `grads` its views, for
    the training backward to write into. `offsets[ell]` is where layer `ell`
    ends (`offsets[0]` is 0), so the first `ell` layers are
    `params[:offsets[ell]]`. A split or merge lays both vectors out anew.
    Copies (`copy.deepcopy`, pickle) hold views of their own vector."""

    def __init__(self, params, embed_dim, hidden_dim, n_ops, num_layers, version=0):
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.version = version
        self._lay_out(params, n_ops, num_layers)

    def _lay_out(self, params, n_ops, num_layers):
        self.n_ops = n_ops
        self.num_layers = num_layers
        layout = _layout(self.embed_dim, self.hidden_dim, n_ops, num_layers)
        self.params = params
        self.grad = np.empty_like(params)  # each backward writes what the update reads
        self.layers, self.offsets = _views(params, layout)
        self.grads, _ = _views(self.grad, layout)

    def __getstate__(self):
        return (self.params, self.embed_dim, self.hidden_dim, self.n_ops,
                self.num_layers, self.version)

    def __setstate__(self, fields):
        self.__init__(*fields)

    def layer(self, ell: int) -> LayerController:
        if not 1 <= ell <= self.num_layers:
            raise MaasError(f"no layer {ell}")
        return self.layers[ell - 1]

    def bump_version(self):
        self.version += 1

    # -- structural remapping after registry edits -------------------------

    def split_output(self, parent_index: int, rng: np.random.Generator):
        """Append one output row per layer, cloned from the parent with small
        uniform noise. Mirrors a registry split (new operator at the end)."""
        def cloned(ctrl):
            row = ctrl.W2[parent_index] + rng.uniform(
                -SPLIT_NOISE_SCALE, SPLIT_NOISE_SCALE, self.hidden_dim
            )
            bias = ctrl.b2[parent_index] + rng.uniform(
                -SPLIT_NOISE_SCALE, SPLIT_NOISE_SCALE
            )
            return ctrl.W2, row, ctrl.b2, [bias]

        self._replace_outputs(self.n_ops + 1, cloned)

    def merge_output(self, removed_index: int):
        """Delete the output row of a merged-away operator in every layer."""
        def kept(ctrl):
            return (np.delete(ctrl.W2, removed_index, axis=0),
                    np.delete(ctrl.b2, removed_index))

        self._replace_outputs(self.n_ops - 1, kept)

    def _replace_outputs(self, n_ops, outputs):
        """Lay `params` out anew for `n_ops` operators, each layer's W2 and b2
        being the arrays `outputs(layer)` gives, in order; then bump the
        version."""
        pieces = []
        for ctrl in self.layers:
            pieces += [ctrl.W1, ctrl.b1, *outputs(ctrl)]
        params = np.concatenate([np.ravel(piece) for piece in pieces])
        self._lay_out(params, n_ops, self.num_layers)
        self.bump_version()


@dataclass
class ScoreVector:
    """One layer's forward pass: the softmax scores, plus the input feature
    and tanh hidden state the gradient backpropagates through."""

    scores: np.ndarray
    hidden: np.ndarray
    feature: np.ndarray


def init_params(seed, d, h, num_layers, n_ops) -> SupernetState:
    """Initialize all layer controllers i.i.d. uniform in [-0.1, 0.1], drawn
    as one vector in `params` order: the same values, and the same generator
    state after, as one draw per array in that order."""
    if min(d, h, num_layers, n_ops) < 1:
        raise MaasError("all dims must be positive")
    size = _size(d, h, n_ops, num_layers)
    params = np.random.default_rng(seed).uniform(-INIT_SCALE, INIT_SCALE, size)
    return SupernetState(params, d, h, n_ops, num_layers)


def score_layer(state: SupernetState, ell: int, feature: np.ndarray) -> ScoreVector:
    ctrl = state.layer(ell)
    expected = ctrl.W1.shape[1]
    feature = np.ascontiguousarray(feature, dtype=np.float64)
    if feature.shape != (expected,):
        raise MaasError(
            f"layer {ell} expects feature of length {expected},"
            f" got {feature.shape}"
        )
    hidden, logits = kernels.ffn_forward(ctrl.W1, ctrl.b1, ctrl.W2, ctrl.b2, feature)
    return ScoreVector(kernels.softmax(logits), hidden, feature)


def select_deterministic(scores: np.ndarray, thres: float) -> list[int]:
    """Minimal descending-score prefix whose cumulative mass strictly exceeds
    thres; ties broken by ascending operator index. Raises MaasError when a
    NaN score enters the prefix (NaN sorts last)."""
    values = scores.tolist()
    cum = 0.0
    chosen = []
    for idx in (-scores).argsort(kind="stable").tolist():
        chosen.append(idx)
        cum += values[idx]
        if cum > thres:
            return chosen
    if math.isnan(cum):
        raise MaasError("selection scores are NaN")
    return chosen


def sample_selection(scores: np.ndarray, thres: float, rng: np.random.Generator):
    """Draw operators sequentially without replacement in proportion to their
    scores; stop once the drawn set's original score mass strictly exceeds
    thres. Returns the drawn index sequence; `selection_log_prob` gives its
    prefix log-probability, which training does not read.

    Each draw is an inverse CDF over the remaining mass, on Python floats: a
    running sum of the weights, then `bisect_right` of one `rng.random()`
    scaled by their total, and the drawn operator's weight is zeroed. So a
    call advances the generator by one `random()` per drawn operator. A zero
    weight never raises the running sum, so it is never drawn; a product that
    rounds up to the total (a subnormal total) takes the first index that
    reaches it. Raises MaasError when the remaining total is not a positive
    finite number: NaN or infinite weights, or no mass left."""
    scores = scores.tolist()
    weights = scores.copy()  # drawn operators zeroed
    drawn = []
    cum = 0.0
    while cum <= thres:
        cdf = list(accumulate(weights))
        total = cdf[-1]
        if not 0.0 < total < math.inf:  # also catches NaN
            raise MaasError(f"selection mass {total} is not a positive finite number")
        x = rng.random() * total
        idx = bisect_right(cdf, x) if x < total else cdf.index(total)
        drawn.append(idx)
        weights[idx] = 0.0
        cum += scores[idx]
    return drawn


def selection_log_prob(scores: np.ndarray, selected) -> float:
    """sum_j log(s_{i_j} / (1 - sum_{t<j} s_{i_t})), the prefix
    log-probability of a fixed drawn sequence under the scores, in draw
    order. `np.log`, since `math.log` differs in the last bit on about one
    value in a thousand."""
    scores = scores.tolist()
    log_prob = 0.0
    rem = 1.0
    for idx in selected:
        log_prob += float(np.log(kernels.divide(scores[idx], rem)))
        rem -= scores[idx]
    return log_prob


def grad_log_prob(
    state: SupernetState, ell: int, feature: np.ndarray, selected
) -> LayerController:
    """Exact gradient of the selection's prefix log-probability w.r.t. the
    layer's parameters (through softmax and the two-layer network), from a
    fresh forward pass: the one-row case of the training update's backward."""
    score_vec = score_layer(state, ell, feature)
    ctrl = state.layer(ell)
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size and (selected.min() < 0 or selected.max() >= ctrl.W2.shape[0]):
        raise MaasError("selection index out of range")
    g_logits = kernels.pl_grad_logits(score_vec.scores, selected)
    gW1, gb1, gW2, gb2 = kernels.ffn_backward(
        ctrl.W2, score_vec.feature[None], score_vec.hidden[None], np.array([g_logits])
    )
    return LayerController(W1=gW1, b1=gb1, W2=gW2, b2=gb2)
