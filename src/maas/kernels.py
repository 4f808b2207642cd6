"""Hot numeric kernels for the controller.

These four functions dominate training time (they run once per layer per
sampled architecture per step), so they are JIT-compiled with numba by
default. Set ``MAAS_NO_NUMBA=1`` to use the pure-numpy implementations
instead; both paths compute identical values.
"""

from __future__ import annotations

import os

import numpy as np

def _ffn_forward(W1, b1, W2, b2, x):
    """Two-layer tanh network: returns (hidden, logits)."""
    h = np.tanh(W1 @ x + b1)
    logits = W2 @ h + b2
    return h, logits


def _softmax(logits):
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def _pl_grad_logits(scores, selected):
    """Gradient of the sequential without-replacement (prefix) log-probability
    w.r.t. the softmax logits, for a fixed drawn index sequence.

    log p = sum_j [ log s_{i_j} - log(1 - sum_{t<j} s_{i_t}) ]
    """
    n = scores.shape[0]
    t_len = selected.shape[0]
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


def _ffn_backward(W2, x, h, g_logits):
    """Backprop g_logits through the two-layer tanh network.

    Returns (gW1, gb1, gW2, gb2) in parameter shapes.
    """
    gW2 = g_logits.reshape(-1, 1) * h.reshape(1, -1)
    gb2 = g_logits.copy()
    g_h = W2.T @ g_logits
    g_z1 = g_h * (1.0 - h * h)
    gW1 = g_z1.reshape(-1, 1) * x.reshape(1, -1)
    gb1 = g_z1
    return gW1, gb1, gW2, gb2


def _want_numba():
    flag = os.environ.get("MAAS_NO_NUMBA", "").strip().lower()
    return flag not in ("1", "true", "yes")


USE_NUMBA = False
if _want_numba():
    try:
        from numba import njit

        USE_NUMBA = True
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:
    ffn_forward = njit(cache=True)(_ffn_forward)
    softmax = njit(cache=True)(_softmax)
    pl_grad_logits = njit(cache=True)(_pl_grad_logits)
    ffn_backward = njit(cache=True)(_ffn_backward)
else:
    ffn_forward = _ffn_forward
    softmax = _softmax
    pl_grad_logits = _pl_grad_logits
    ffn_backward = _ffn_backward
