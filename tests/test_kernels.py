"""Kernels against plain-loop references kept here.

The `ref_*` references use scalar Python arithmetic in another summation
order, so values agree to a float64 tolerance fixed up front, not bitwise.
The `numpy_*` references are the same kernels on numpy scalars and numpy's
reductions; the kernels, which run on Python floats, must equal them bitwise.
"""

import math

import numpy as np
import pytest

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


def numpy_softmax(logits):
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def numpy_pl_grad_logits(scores, selected):
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
    inner = 0.0
    for m in range(n):
        inner += g_s[m] * scores[m]
    g_logits = np.empty(n)
    for m in range(n):
        g_logits[m] = scores[m] * (g_s[m] - inner)
    return g_logits


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
    """One row per forward pass; the kernel sums the rows' gradients."""
    rng = np.random.default_rng(3)
    for i in range(20):
        W1, b1, W2, b2, _ = random_instance(rng)
        rows = []
        for _ in range(1 + i % 4):
            x = rng.normal(size=W1.shape[1])
            h, _ = ref_ffn_forward(W1, b1, W2, b2, x)
            rows.append((x, h, rng.normal(size=W2.shape[0])))
        X, H, G = (np.array(col) for col in zip(*rows))
        refs = [ref_ffn_backward(W2, x, h, g) for x, h, g in rows]
        for got, *ref in zip(kernels.ffn_backward(W2, X, H, G), *refs):
            np.testing.assert_allclose(got, sum(ref), rtol=0, atol=TOL)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_softmax_and_pl_grad_equal_numpy_references_bitwise():
    """Spread 30 gives one-hot scores, where drawing all of them leaves no
    mass: both sides then give the same inf and NaN."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 9, 16, 40, 130):
        for spread in (0.1, 3.0, 30.0):
            logits = rng.normal(size=n) * spread
            scores = kernels.softmax(logits)
            assert np.array_equal(scores, numpy_softmax(logits))
            for _ in range(10):
                k = int(rng.integers(1, n + 1))
                selected = rng.permutation(n)[:k]
                want = numpy_pl_grad_logits(scores, selected)
                for sel in (selected, selected.tolist()):
                    got = kernels.pl_grad_logits(scores, sel)
                    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pl_grad_zero_divisors_give_numpy_values():
    """A zero selected score (1 / 0) or no mass left (1 / rem at rem == 0)
    gives numpy's inf, and from it NaN gradients, not ZeroDivisionError."""
    scores = np.asarray([0.5, 0.5, 0.0])
    for selected in ([2], [0, 2], [0, 1, 2]):
        got = kernels.pl_grad_logits(scores, selected)
        assert np.isnan(got).all()
        assert np.array_equal(got, numpy_pl_grad_logits(scores, selected), equal_nan=True)
    assert kernels.divide(1.0, -0.0) == -math.inf
