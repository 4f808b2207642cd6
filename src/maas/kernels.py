"""Numeric kernels for the controller.

The forward pass and softmax run once per sampled layer while sampling (layer
1 once per training step), the prefix log-probability gradient once per
sampled layer of each sample, and the backward pass once per layer per
training step, over the rows of every sample that reached the layer.

The forward and backward passes and softmax run in numpy, on the ufuncs and
`np.dot` themselves: `e.sum()` goes through a Python wrapper around the same
reduction, and `@` leaves BLAS when its inner dimension is 1, as it is when
one sample reaches a layer, where `np.dot` stays in it with the same values.
(BLAS's fused multiply-add keeps the sign of a product that underflows to
zero, which `@` makes +0.0; a parameter it is added to stays the same unless
it is itself zero.) The forward pass and softmax work in place in the arrays
they return: the bias is added into the product, and tanh, exp and the
division write over their own input, with the bytes the expressions would
give. So each allocates only what it returns and never writes an argument,
which `ScoreVector` keeps. Softmax shifts by `max(logits.tolist())`, twice
as fast as `np.maximum.reduce` on a layer's few scores, with the same bytes:
a max rounds nothing and a zero shift's sign cannot change `exp` (Python's
`max` skips a NaN numpy's propagates, so a row with a NaN beside an
infinity, or a negative NaN, can give NaNs of the other sign). The forward
pass keeps `@`: on an inner dimension of 1, `np.dot` keeps the sign of a
-0.0 product, where `@` adds it to +0.0. The prefix gradient walks about one
score per operator, so it runs on Python floats from one `tolist()` and
returns its row as a list: the float operations it ran on numpy scalars, in
the same order, hence bitwise the same values without numpy's per-call
overhead. `divide` keeps numpy's ±inf or NaN where a Python division by zero
raises. The training backward writes into the gradient views its `out` names
(`np.dot` and the row sum write in place with the bytes they would return),
so a step allocates no gradient arrays.
"""

from __future__ import annotations

import numpy as np


def ffn_forward(W1, b1, W2, b2, x):
    """Two-layer tanh network: returns (hidden, logits), two fresh arrays."""
    h = W1 @ x
    h += b1
    np.tanh(h, out=h)
    logits = W2 @ h
    logits += b2
    return h, logits


def softmax(logits):
    """Scores of `logits` in one fresh array; `logits` is not written."""
    e = logits - max(logits.tolist())
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def divide(a, b):
    """a / b on Python floats; at b == 0, numpy's ±inf or NaN, with its
    warning, instead of Python's ZeroDivisionError."""
    try:
        return a / b
    except ZeroDivisionError:
        return float(np.divide(a, b))


def pl_grad_logits(scores, selected):
    """Gradient of the sequential without-replacement (prefix) log-probability
    w.r.t. the softmax logits, for a fixed drawn index sequence, as a list of
    Python floats.

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
    return [s[m] * (g_s[m] - inner) for m in range(n)]


def ffn_backward(W2, X, H, G, out=(None, None, None, None)):
    """Backprop logit gradients through the two-layer tanh network, summed
    over rows: row r of X (features), H (tanh hidden states) and G (logit
    gradients) is one forward pass.

    Returns (gW1, gb1, gW2, gb2) in parameter shapes: fresh arrays, or the
    C-contiguous float64 arrays `out` names, written in place with the same
    bytes.
    """
    oW1, ob1, oW2, ob2 = out
    gW2 = np.dot(G.T, H, out=oW2)
    gb2 = G.sum(axis=0, out=ob2)
    g_z1 = (G @ W2) * (1.0 - H * H)
    gW1 = np.dot(g_z1.T, X, out=oW1)
    gb1 = g_z1.sum(axis=0, out=ob1)
    return gW1, gb1, gW2, gb2
