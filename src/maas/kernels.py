"""Numeric kernels for the controller, in numpy.

The forward pass and softmax run once per sampled layer while sampling (layer
1 once per training step), the prefix log-probability gradient once per
sampled layer of each sample, and the backward pass once per layer per
training step, over the rows of every sample that reached the layer.
"""

from __future__ import annotations

import numpy as np


def ffn_forward(W1, b1, W2, b2, x):
    """Two-layer tanh network: returns (hidden, logits)."""
    h = np.tanh(W1 @ x + b1)
    logits = W2 @ h + b2
    return h, logits


def softmax(logits):
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def pl_grad_logits(scores, selected):
    """Gradient of the sequential without-replacement (prefix) log-probability
    w.r.t. the softmax logits, for a fixed drawn index sequence.

    log p = sum_j [ log s_{i_j} - log(1 - sum_{t<j} s_{i_t}) ]
    """
    n = scores.shape[0]
    t_len = len(selected)
    g_s = np.zeros(n)
    for j in range(t_len):
        g_s[selected[j]] += 1.0 / scores[selected[j]]
    rem = 1.0
    for j in range(1, t_len):
        rem -= scores[selected[j - 1]]
        coef = 1.0 / rem
        for t in range(j):
            g_s[selected[t]] += coef
    # chain through softmax: dL/dz_n = s_n (g_n - <g, s>)
    inner = 0.0
    for m in range(n):
        inner += g_s[m] * scores[m]
    g_logits = np.empty(n)
    for m in range(n):
        g_logits[m] = scores[m] * (g_s[m] - inner)
    return g_logits


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
