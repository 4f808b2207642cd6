"""Kernels against plain-loop references kept here.

The references use scalar Python arithmetic in another summation order, so
values agree to a float64 tolerance fixed up front, not bitwise.
"""

import math

import numpy as np

from maas import kernels

TOL = 1e-12


def random_instance(rng, n=7, h=5, d=6):
    W1 = rng.normal(size=(h, d))
    b1 = rng.normal(size=h)
    W2 = rng.normal(size=(n, h))
    b2 = rng.normal(size=n)
    x = rng.normal(size=d)
    return W1, b1, W2, b2, x


def ref_ffn_forward(W1, b1, W2, b2, x):
    h_dim, d = W1.shape
    hidden = [
        math.tanh(sum(W1[i, j] * x[j] for j in range(d)) + b1[i]) for i in range(h_dim)
    ]
    logits = [
        sum(W2[k, i] * hidden[i] for i in range(h_dim)) + b2[k]
        for k in range(W2.shape[0])
    ]
    return np.array(hidden), np.array(logits)


def ref_softmax(logits):
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    total = sum(e)
    return np.array([v / total for v in e])


def ref_pl_grad_logits(scores, selected):
    """d/dz_m of sum_j [log s_{i_j} - log(1 - sum_{t<j} s_{i_t})], using
    ds_a/dz_m = s_a (delta_am - s_m) term by term."""
    n = len(scores)
    g = [0.0] * n
    for j, i in enumerate(selected):
        for m in range(n):
            g[m] += (1.0 if m == i else 0.0) - scores[m]
        rem = 1.0 - sum(scores[t] for t in selected[:j])
        for t in selected[:j]:
            for m in range(n):
                g[m] += scores[t] * ((1.0 if m == t else 0.0) - scores[m]) / rem
    return np.array(g)


def ref_ffn_backward(W2, x, h, g_logits):
    n, h_dim = W2.shape
    gW2 = np.array([[g_logits[k] * h[i] for i in range(h_dim)] for k in range(n)])
    g_z1 = [
        sum(W2[k, i] * g_logits[k] for k in range(n)) * (1.0 - h[i] * h[i])
        for i in range(h_dim)
    ]
    gW1 = np.array([[g_z1[i] * x[j] for j in range(len(x))] for i in range(h_dim)])
    return gW1, np.array(g_z1), gW2, np.array(g_logits, dtype=float)


def test_forward_parity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        W1, b1, W2, b2, x = random_instance(rng)
        h, logits = kernels.ffn_forward(W1, b1, W2, b2, x)
        h_ref, logits_ref = ref_ffn_forward(W1, b1, W2, b2, x)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=TOL)
        np.testing.assert_allclose(logits, logits_ref, rtol=0, atol=TOL)


def test_softmax_parity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.normal(size=9) * 10
        np.testing.assert_allclose(
            kernels.softmax(logits), ref_softmax(logits), rtol=0, atol=TOL
        )


def test_pl_grad_parity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.random(6) + 1e-6
        scores = raw / raw.sum()
        k = int(rng.integers(1, 5))
        selected = rng.choice(6, size=k, replace=False).astype(np.int64)
        np.testing.assert_allclose(
            kernels.pl_grad_logits(scores, selected),
            ref_pl_grad_logits(scores, list(selected)),
            rtol=0,
            atol=TOL,
        )


def test_backward_parity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        W1, b1, W2, b2, x = random_instance(rng)
        h, _ = ref_ffn_forward(W1, b1, W2, b2, x)
        g = rng.normal(size=W2.shape[0])
        for got, ref in zip(kernels.ffn_backward(W2, x, h, g),
                            ref_ffn_backward(W2, x, h, g)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)
