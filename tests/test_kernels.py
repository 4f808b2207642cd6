"""Kernels against plain-loop references kept here.

The `ref_*` references use scalar Python arithmetic in another summation
order, so values agree to a float64 tolerance fixed up front, not bitwise.
`numpy_pl_grad_logits` is the prefix gradient on numpy scalars; the kernel,
which runs on Python floats, must equal it bitwise. `matmul_ffn_backward`,
and `operator_ffn_forward` and `method_softmax` from `tests/helpers.py`, are
the passes with `@` and softmax with the `max()`/`sum()` methods, which the
kernels must equal bitwise, the sign of zero included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from maas import kernels
from tests.helpers import bitwise_equal, method_softmax, operator_ffn_forward

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
            assert np.array_equal(scores, method_softmax(logits))
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


def matmul_ffn_backward(W2, X, H, G):
    gW2 = G.T @ H
    gb2 = G.sum(axis=0)
    g_z1 = (G @ W2) * (1.0 - H * H)
    gW1 = g_z1.T @ X
    gb1 = g_z1.sum(axis=0)
    return gW1, gb1, gW2, gb2


def signed_values(rng, shape, zero_frac):
    """Random signs, magnitudes log-uniform in [1e-60, 4] (no product of
    two of them, nor of a cancelled sum and one of them, underflows to
    zero), and about `zero_frac` of the entries zeros of either sign."""
    mag = 10.0 ** rng.uniform(-60.0, 0.6, size=shape)
    mag[rng.random(shape) < zero_frac] = 0.0
    return np.where(rng.random(shape) < 0.5, -mag, mag)


@st.composite
def backward_cases(draw):
    """1-4 rows; at least half of each feature row is zeros of either sign,
    as the profile-sum blocks of an early layer are."""
    rows = draw(st.integers(1, 4))
    n, h, d = draw(st.integers(2, 12)), draw(st.integers(1, 9)), draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = signed_values(rng, (rows, d), 0.0)
    for row in X:
        zeros = rng.permutation(d)[: draw(st.integers((d + 1) // 2, d))]
        row[zeros] = np.where(rng.random(zeros.size) < 0.5, -0.0, 0.0)
    H = np.tanh(signed_values(rng, (rows, h), 0.1))
    G = signed_values(rng, (rows, n), draw(st.sampled_from([0.0, 0.3, 1.0])))
    W2 = signed_values(rng, (n, h), 0.1)
    return W2, X, H, G


@settings(max_examples=300, deadline=None)
@given(backward_cases())
def test_ffn_backward_equals_matmul_form_bitwise(case):
    for got, want in zip(kernels.ffn_backward(*case), matmul_ffn_backward(*case)):
        assert bitwise_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(backward_cases(), st.integers(0, 3))
def test_ffn_backward_into_out_equals_fresh_arrays_bitwise(case, pad):
    """Written into views of one vector, as the training backward writes
    `state.grad`, at any offset and filled with NaN first: the same bytes
    as fresh arrays, and the views themselves come back."""
    W2, X, H, G = case
    (n, h), d = W2.shape, X.shape[1]
    shapes = [(h, d), (h,), (n, h), (n,)]
    vector = np.full(pad + sum(math.prod(s) for s in shapes) + pad, np.nan)
    out, start = [], pad
    for shape in shapes:
        out.append(vector[start:start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    got = kernels.ffn_backward(*case, out=out)
    assert all(a is b for a, b in zip(got, out))
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(got, kernels.ffn_backward(*case)))
    assert np.isnan(vector[:pad]).all() and np.isnan(vector[start:]).all()


def test_ffn_backward_underflowing_product_equals_matmul_form_in_value():
    """The one place the forms part: on one row, where a product of two
    nonzero entries underflows to zero, `np.dot` runs BLAS, whose fused
    multiply-add keeps the product's sign (-0.0), and `@` adds the product
    to +0.0 (giving +0.0). The values are equal, and a parameter moved by
    either stays the same unless it is itself a zero."""
    W2 = np.ones((2, 1))
    X = np.array([[1e-200, 1.0]])
    H = np.array([[1e-200]])
    G = np.array([[-1e-200, 3.0]])
    for got, want in zip(kernels.ffn_backward(W2, X, H, G),
                         matmul_ffn_backward(W2, X, H, G)):
        assert np.array_equal(got, want)


@st.composite
def logit_rows(draw):
    """Finite logits; or with NaN, +inf or -inf (one of them per row) at
    some positions, the first included or not."""
    logits = draw(hnp.arrays(np.float64, st.integers(2, 39),
                             elements=st.floats(-60.0, 60.0, allow_subnormal=False)))
    special = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if special is not None:
        logits = logits.copy()
        logits[draw(st.lists(st.integers(0, logits.size - 1), min_size=1))] = special
    return logits


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(logit_rows())
@example(np.array([math.nan]))
@example(np.array([math.inf]))
@example(np.array([-math.inf]))
@example(np.array([0.0, -0.0]))
@example(np.array([-0.0, 0.0]))
def test_softmax_equals_method_form_bitwise(logits):
    """Python's `max` skips a NaN that is not first, where numpy's
    propagates it; the NaN reaches every score either way, as the same
    NaN. Bytes are compared, as `bitwise_equal` reads no NaN as equal. A
    row holding a NaN beside an infinity, or a negative NaN, is compared
    only in value, in the next test."""
    assert kernels.softmax(logits).tobytes() == method_softmax(logits).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("logits", [[math.inf, math.nan], [-math.inf, math.nan],
                                    [1.0, math.inf, math.nan], [-math.nan, 1.0]])
def test_softmax_nan_beside_infinity_equals_method_form_with_equal_nan(logits):
    """The rows compared only with `equal_nan`: NaN beside an infinity, where
    the shifts differ (numpy's is the NaN, Python's the infinity, and
    inf - inf is x86's negative default NaN), and a negative NaN that
    Python's `max` skips. Every score is NaN on both sides, of another sign
    bit in some."""
    logits = np.array(logits)
    got, want = kernels.softmax(logits), method_softmax(logits)
    assert np.isnan(got).all() and np.isnan(want).all()
    assert np.array_equal(got, want, equal_nan=True)


@st.composite
def forward_cases(draw):
    """Any dims from 1 up; weights and features with zeros of either sign,
    and biases with -0.0 entries (all of them at `zero_frac` 1), so that a
    form that lost the sign of a zero sum would show."""
    n, h, d = draw(st.integers(1, 12)), draw(st.integers(1, 9)), draw(st.integers(1, 24))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W1 = signed_values(rng, (h, d), zero_frac)
    x = signed_values(rng, d, zero_frac)
    W2 = signed_values(rng, (n, h), zero_frac)
    b1, b2 = signed_values(rng, h, zero_frac), signed_values(rng, n, zero_frac)
    for b in (b1, b2):
        b[rng.random(b.size) < 0.5] = -0.0
    return W1, b1, W2, b2, x


@settings(max_examples=300, deadline=None)
@given(forward_cases())
def test_ffn_forward_equals_operator_form_bitwise(case):
    for got, want in zip(kernels.ffn_forward(*case), operator_ffn_forward(*case)):
        assert bitwise_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(forward_cases())
def test_forward_and_softmax_return_fresh_arrays_and_write_no_argument(case):
    """`ScoreVector` keeps the feature a layer was scored on, and the hidden
    state and scores computed from it, so a kernel writing into its argument
    or returning a shared array would change a recorded pass."""
    before = [a.tobytes() for a in case]
    h, logits = kernels.ffn_forward(*case)
    assert [a.tobytes() for a in case] == before
    assert not any(np.shares_memory(r, a) for r in (h, logits) for a in case)
    assert not np.shares_memory(h, logits)
    logits_bytes = logits.tobytes()
    scores = kernels.softmax(logits)
    assert logits.tobytes() == logits_bytes
    assert not np.shares_memory(scores, logits)
