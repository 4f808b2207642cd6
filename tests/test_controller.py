"""Controller: init, forward oracle, selection rules, exact gradients.

The selection rules run on Python floats; `numpy_select_deterministic`,
`numpy_selection_log_prob` and `choice_selection` are the same rules on numpy
scalars and arrays, and the rules must equal them bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maas.controller import (
    ScoreVector,
    _pairwise_sum,
    grad_log_prob,
    init_params,
    sample_selection,
    score_layer,
    select_deterministic,
    selection_log_prob,
)
from maas.errors import DimensionMismatch


def forward_oracle(ctrl, feature):
    """Independent reimplementation of the two-layer tanh forward pass."""
    h = np.tanh(ctrl.W1 @ feature + ctrl.b1)
    logits = ctrl.W2 @ h + ctrl.b2
    e = np.exp(logits - logits.max())
    return logits, e / e.sum()


def scores_vec(values):
    values = np.asarray(values, dtype=np.float64)
    return ScoreVector(logits=np.log(values), scores=values)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(7, 8, 8, 2, 3)
        b = init_params(7, 8, 8, 2, 3)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = init_params(7, 8, 8, 2, 3)
        b = init_params(8, 8, 8, 2, 3)
        assert a.to_dict() != b.to_dict()

    def test_shapes_scale_with_layer(self):
        state = init_params(0, 64, 64, 4, 9)
        assert state.layer(3).W1.shape == (64, 192)
        assert state.layer(1).W1.shape == (64, 64)
        assert state.layer(4).W2.shape == (9, 64)

    def test_entries_within_init_range(self):
        state = init_params(3, 16, 16, 2, 5)
        for ctrl in state.layers:
            for arr in ctrl.param_arrays():
                assert np.abs(arr).max() <= 0.1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 0, 8, 2, 3)


class TestScoreLayer:
    def test_zero_params_uniform_scores(self):
        state = init_params(0, 8, 8, 1, 5)
        ctrl = state.layer(1)
        for arr in ctrl.param_arrays():
            arr[...] = 0.0
        sv = score_layer(state, 1, np.random.default_rng(0).normal(size=8))
        np.testing.assert_allclose(sv.scores, np.full(5, 0.2), atol=1e-12)

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(11)
        state = init_params(11, 8, 8, 3, 6)
        for ell in (1, 2, 3):
            feature = rng.normal(size=8 * ell)
            sv = score_layer(state, ell, feature)
            logits, scores = forward_oracle(state.layer(ell), feature)
            np.testing.assert_allclose(sv.logits, logits, atol=1e-12)
            np.testing.assert_allclose(sv.scores, scores, atol=1e-12)

    def test_softmax_shift_invariance(self):
        from maas.kernels import softmax

        logits = np.log(np.asarray([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(
            softmax(logits), softmax(logits + 10.0), atol=1e-12
        )

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = init_params(5, 8, 8, 1, 7)
        for _ in range(50):
            sv = score_layer(state, 1, rng.normal(size=8))
            assert abs(sv.scores.sum() - 1.0) < 1e-9
            assert (sv.scores > 0).all()

    def test_dimension_mismatch(self):
        state = init_params(0, 8, 8, 2, 3)
        with pytest.raises(DimensionMismatch):
            score_layer(state, 2, np.zeros(8))  # layer 2 wants 16


def brute_force_prefix(scores, thres):
    order = np.argsort(-scores, kind="stable")
    for k in range(1, len(scores) + 1):
        if scores[order[:k]].sum() > thres:
            return [int(i) for i in order[:k]]
    return [int(i) for i in order]


class TestSelectDeterministic:
    def test_single_dominant(self):
        assert select_deterministic(scores_vec([0.5, 0.3, 0.2]), 0.3) == [0]

    def test_uniform_takes_two(self):
        sel = select_deterministic(scores_vec([0.25, 0.25, 0.25, 0.25]), 0.3)
        assert sel == [0, 1]

    def test_near_one_threshold_takes_all(self):
        sel = select_deterministic(scores_vec([0.4, 0.35, 0.25]), 0.999)
        assert sorted(sel) == [0, 1, 2]

    def test_tie_break_ascending_index(self):
        sel = select_deterministic(scores_vec([0.25, 0.25, 0.25, 0.25]), 0.4)
        assert sel == [0, 1]

    def test_agrees_with_brute_force_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            raw = rng.random(n) + 1e-9
            scores = raw / raw.sum()
            for thres in (0.1, 0.3, 0.7):
                sv = scores_vec(scores)
                assert select_deterministic(sv, thres) == brute_force_prefix(
                    scores, thres
                )


def enumerate_sequences(scores, thres):
    """All stop-compliant drawn sequences with their PL probabilities."""
    results = []

    def rec(prefix, cum, rem, prob):
        if cum > thres:
            results.append((tuple(prefix), prob))
            return
        for i in range(len(scores)):
            if i in prefix:
                continue
            rec(prefix + [i], cum + scores[i], rem - scores[i],
                prob * scores[i] / rem)

    rec([], 0.0, 1.0, 1.0)
    return results


class TestSampleSelection:
    def test_dominant_score_selected(self):
        eps = 1e-6
        sv = scores_vec([1.0 - 2 * eps, eps, eps])
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            sel, lp = sample_selection(sv, 0.3, rng)
            if sel == [0]:
                hits += 1
                assert abs(lp - math.log(1.0 - 2 * eps)) < 1e-12
        assert hits == 200  # probability >= 1 - 3e-6 per draw

    def test_single_op_log_prob_zero(self):
        sel, lp = sample_selection(scores_vec([1.0]), 0.3, np.random.default_rng(0))
        assert sel == [0]
        assert lp == 0.0

    def test_enumeration_sums_to_one(self):
        for scores in ([0.4, 0.35, 0.25], [0.7, 0.1, 0.1, 0.1], [0.5, 0.5]):
            total = sum(p for _, p in enumerate_sequences(np.asarray(scores), 0.3))
            assert abs(total - 1.0) < 1e-12

    def test_log_prob_matches_selection_log_prob(self):
        rng = np.random.default_rng(9)
        raw = rng.random(5) + 1e-6
        sv = scores_vec(raw / raw.sum())
        for _ in range(50):
            sel, lp = sample_selection(sv, 0.3, rng)
            assert abs(lp - selection_log_prob(sv, sel)) < 1e-12

    def test_empirical_matches_analytic(self):
        scores = np.asarray([0.4, 0.35, 0.25])
        sv = scores_vec(scores)
        analytic = dict(enumerate_sequences(scores, 0.3))
        rng = np.random.default_rng(123)
        counts = {}
        n = 20000
        for _ in range(n):
            sel, _ = sample_selection(sv, 0.3, rng)
            counts[tuple(sel)] = counts.get(tuple(sel), 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(seq, 0) / n - p) for seq, p in analytic.items()
        )
        assert tv < 0.02


def choice_selection(scores, thres, rng):
    """`sample_selection` as written with `rng.choice`, the reference for
    the inlined draw."""
    n = scores.shape[0]
    remaining = np.ones(n, dtype=bool)
    drawn = []
    cum = 0.0
    rem_mass = 1.0
    log_prob = 0.0
    while cum <= thres:
        weights = np.where(remaining, scores, 0.0)
        idx = int(rng.choice(n, p=weights / weights.sum()))
        log_prob += float(np.log(scores[idx] / rem_mass))
        drawn.append(idx)
        remaining[idx] = False
        cum += scores[idx]
        rem_mass -= scores[idx]
    return drawn, log_prob


def draw_cases():
    """Score vectors from near one-hot through uniform to random."""
    eps = 1e-9
    cases = [
        np.full(9, 1.0 / 9),
        np.asarray([0.5, 0.5]),
        np.asarray([1.0 - 8 * eps] + [eps] * 8),
        np.asarray([eps] * 4 + [1.0 - 8 * eps] + [eps] * 4),
        np.asarray([0.3, 0.3, 0.3, 0.1 - 1e-12, 1e-12]),
    ]
    rng = np.random.default_rng(2024)
    for n in (3, 9, 12, 16, 24, 40, 130):
        for concentration in (0.05, 1.0, 20.0):
            raw = rng.gamma(concentration, size=n) + 1e-300
            cases.append(raw / raw.sum())
    return cases


class TestInlinedDraw:
    def test_matches_rng_choice_indices_and_generator_state(self):
        for scores in draw_cases():
            sv = scores_vec(scores)
            seeds = range(40 if len(scores) <= 12 else 10)  # long draws cost more
            for thres in (0.05, 0.3, 0.9):
                for seed in seeds:
                    rng = np.random.default_rng(seed)
                    ref_rng = np.random.default_rng(seed)
                    for _ in range(5):
                        got = sample_selection(sv, thres, rng)
                        want = choice_selection(scores, thres, ref_rng)
                        assert got == want
                    assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scores", [
        [math.nan, 0.5, 0.5],
        [0.5, math.nan, 0.5],
        [0.0, 0.0, 0.0],  # all mass gone: 0 / 0
    ])
    def test_nan_scores_raise(self, scores):
        sv = ScoreVector(logits=np.zeros(3), scores=np.asarray(scores))
        with pytest.raises(ValueError):
            sample_selection(sv, 0.3, np.random.default_rng(0))

    def test_mass_running_out_before_threshold_raises(self):
        # the first draw takes all the mass (0.2) and leaves cum below 0.3
        sv = ScoreVector(logits=np.zeros(3), scores=np.asarray([0.2, 0.0, 0.0]))
        with pytest.raises(ValueError):
            sample_selection(sv, 0.3, np.random.default_rng(0))


def numpy_select_deterministic(scores, thres):
    """`select_deterministic` on numpy scalars, the bitwise reference."""
    order = np.argsort(-scores, kind="stable")
    cum = 0.0
    chosen = []
    for idx in order:
        chosen.append(int(idx))
        cum += scores[idx]
        if cum > thres:
            break
    return chosen


def numpy_selection_log_prob(scores, selected):
    """`selection_log_prob` on numpy scalars, the bitwise reference."""
    rem = 1.0
    log_prob = 0.0
    for idx in selected:
        log_prob += float(np.log(scores[idx] / rem))
        rem -= scores[idx]
    return log_prob


# lists of floats with zeros of both signs, subnormals and non-finite values
_sum_elements = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormal or zero
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


class TestFloatLoopsMatchNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_sum_elements, min_size=1, max_size=300))
    def test_pairwise_sum_is_add_reduce(self, values):
        got = _pairwise_sum(values)
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.add.reduce(np.asarray(values, dtype=np.float64)))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_pairwise_sum_at_block_edges(self):
        rng = np.random.default_rng(8)
        for n in (*range(1, 20), 127, 128, 129, 135, 136, 255, 256, 257, 999):
            v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
            assert _pairwise_sum(v.tolist()) == np.add.reduce(v)
            zeros = np.full(n, -0.0)
            assert (np.float64(_pairwise_sum(zeros.tolist())).tobytes()
                    == np.add.reduce(zeros).tobytes())

    def test_rules_equal_numpy_scalar_references(self):
        for scores in draw_cases():
            sv = scores_vec(scores)
            for thres in (0.05, 0.3, 0.9):
                chosen = select_deterministic(sv, thres)
                assert chosen == numpy_select_deterministic(scores, thres)
                assert selection_log_prob(sv, chosen) == numpy_selection_log_prob(
                    scores, chosen)
                rng = np.random.default_rng(int(thres * 100))
                for _ in range(5):
                    drawn, lp = sample_selection(sv, thres, rng)
                    assert lp == numpy_selection_log_prob(scores, drawn)
                    assert selection_log_prob(sv, drawn) == lp

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_zero_scores_give_numpy_infinities(self):
        scores = np.asarray([0.5, 0.5, 0.0])
        sv = scores_vec(scores)
        for selected in ([2], [0, 2], [0, 1, 2], [0, 1]):
            got = selection_log_prob(sv, selected)
            want = numpy_selection_log_prob(scores, selected)
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert selection_log_prob(sv, [2]) == -math.inf

    def test_select_deterministic_nan_scores_raise(self):
        # at numpy scalars, cum never exceeded thres and every index came back
        for scores in ([math.nan] * 4, [0.1, 0.1, math.nan]):
            with pytest.raises(ValueError):
                select_deterministic(scores_vec(scores), 0.3)

    def test_select_deterministic_nan_after_the_prefix_is_not_read(self):
        # NaN sorts last, so a prefix that exceeds thres first never sees it
        sv = ScoreVector(logits=np.zeros(3), scores=np.asarray([math.nan, 0.5, 0.5]))
        assert select_deterministic(sv, 0.3) == [1]


class TestGradLogProb:
    def _fd_grad(self, state, ell, feature, selected, eps=1e-5):
        ctrl = state.layer(ell)
        grads = []
        for arr in ctrl.param_arrays():
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp_plus = selection_log_prob(score_layer(state, ell, feature), selected)
                arr[idx] = orig - eps
                lp_minus = selection_log_prob(score_layer(state, ell, feature), selected)
                arr[idx] = orig
                g[idx] = (lp_plus - lp_minus) / (2 * eps)
            grads.append(g)
        return grads

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        state = init_params(17, 4, 5, 2, 4)
        for ell in (1, 2):
            feature = rng.normal(size=4 * ell)
            sv = score_layer(state, ell, feature)
            selected, _ = sample_selection(sv, 0.3, rng)
            g = grad_log_prob(state, ell, feature, selected)
            fd = self._fd_grad(state, ell, feature, selected)
            for analytic, numeric in zip((g.W1, g.b1, g.W2, g.b2), fd):
                denom = np.maximum(np.abs(numeric), 1e-8)
                assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    def test_single_op_zero_gradient(self):
        state = init_params(0, 4, 4, 1, 1)
        g = grad_log_prob(state, 1, np.ones(4), [0])
        for arr in (g.W1, g.b1, g.W2, g.b2):
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_pure_function(self):
        state = init_params(3, 4, 4, 1, 4)
        feature = np.ones(4)
        a = grad_log_prob(state, 1, feature, [2, 0])
        b = grad_log_prob(state, 1, feature, [2, 0])
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.b2, b.b2)


class TestStructuralRemap:
    def test_split_appends_noisy_row(self):
        state = init_params(0, 4, 4, 2, 3)
        rng = np.random.default_rng(1)
        parent_rows = [ctrl.W2[1].copy() for ctrl in state.layers]
        state.split_output(1, rng)
        for ctrl, parent in zip(state.layers, parent_rows):
            assert ctrl.W2.shape[0] == 4
            assert np.abs(ctrl.W2[-1] - parent).max() <= 0.01

    def test_merge_deletes_row(self):
        state = init_params(0, 4, 4, 2, 3)
        kept = [np.delete(ctrl.W2, 1, axis=0).copy() for ctrl in state.layers]
        state.merge_output(1)
        for ctrl, expected in zip(state.layers, kept):
            np.testing.assert_array_equal(ctrl.W2, expected)

    def test_version_bumped(self):
        state = init_params(0, 4, 4, 1, 3)
        v0 = state.version
        state.split_output(0, np.random.default_rng(0))
        assert state.version == v0 + 1
        state.merge_output(3)
        assert state.version == v0 + 2
