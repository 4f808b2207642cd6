"""Numeric kernels for the controller.

The forward pass and softmax run once per sampled layer while sampling (layer
1 once per training step), the prefix log-probability gradient once per
sampled layer of each sample, and the backward pass once per layer per
training step, over the rows of every sample that reached the layer.

The forward and backward passes and softmax run in numpy. The prefix
gradient walks about one score per operator, so it runs on Python floats
from one `tolist()`: the float operations it ran on numpy scalars, in the
same order, hence bitwise the same values without numpy's per-call overhead.
`divide` keeps numpy's ±inf or NaN where a Python division by zero raises.
"""

from __future__ import annotations

import numpy as np


def ffn_forward(W1, b1, W2, b2, x):
    """Two-layer tanh network: returns (hidden, logits)."""
    h = np.tanh(W1 @ x + b1)
    logits = W2 @ h + b2
    return h, logits


def softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def divide(a, b):
    """a / b on Python floats; at b == 0, numpy's ±inf or NaN, with its
    warning, instead of Python's ZeroDivisionError."""
    try:
        return a / b
    except ZeroDivisionError:
        return float(np.divide(a, b))


def pl_grad_logits(scores, selected):
    """Gradient of the sequential without-replacement (prefix) log-probability
    w.r.t. the softmax logits, for a fixed drawn index sequence.

    log p = sum_j [ log s_{i_j} - log(1 - sum_{t<j} s_{i_t}) ]
    """
    s = scores.tolist()
    n = len(s)
    t_len = len(selected)
    g_s = [0.0] * n
    for j in range(t_len):
        g_s[selected[j]] += divide(1.0, s[selected[j]])
    rem = 1.0
    for j in range(1, t_len):
        rem -= s[selected[j - 1]]
        coef = divide(1.0, rem)
        for t in range(j):
            g_s[selected[t]] += coef
    # chain through softmax: dL/dz_n = s_n (g_n - <g, s>)
    inner = 0.0
    for m in range(n):
        inner += g_s[m] * s[m]
    return np.array([s[m] * (g_s[m] - inner) for m in range(n)])


def ffn_backward(W2, X, H, G):
    """Backprop logit gradients through the two-layer tanh network, summed
    over rows: row r of X (features), H (tanh hidden states) and G (logit
    gradients) is one forward pass.

    Returns (gW1, gb1, gW2, gb2) in parameter shapes.
    """
    gW2 = G.T @ H
    gb2 = G.sum(axis=0)
    g_z1 = (G @ W2) * (1.0 - H * H)
    gW1 = g_z1.T @ X
    gb1 = g_z1.sum(axis=0)
    return gW1, gb1, gW2, gb2
