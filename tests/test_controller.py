"""Controller: init, forward oracle, selection rules, exact gradients.

The selection rules run on Python floats; `numpy_select_deterministic` and
`numpy_selection_log_prob` are the same rules on numpy scalars, and the rules
must equal them bitwise. `choice_selection` draws with `rng.choice`; the
plain inverse-CDF draw must give its indices and generator state on the score
vectors of `draw_cases`.
"""

import copy
import math
import pickle
from itertools import cycle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maas.controller import (
    INIT_SCALE,
    grad_log_prob,
    init_params,
    sample_selection,
    score_layer,
    select_deterministic,
    selection_log_prob,
)
from maas.errors import MaasError
from tests.helpers import decoded, encoded, flat_layout_faults, selection_sequences


def forward_oracle(ctrl, feature):
    """Independent reimplementation of the two-layer tanh forward pass:
    (hidden, scores)."""
    h = np.tanh(ctrl.W1 @ feature + ctrl.b1)
    logits = ctrl.W2 @ h + ctrl.b2
    e = np.exp(logits - logits.max())
    return h, e / e.sum()


def as_scores(values):
    return np.asarray(values, dtype=np.float64)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(7, 8, 8, 2, 3)
        b = init_params(7, 8, 8, 2, 3)
        assert encoded(a) == encoded(b)

    def test_different_seed_differs(self):
        a = init_params(7, 8, 8, 2, 3)
        b = init_params(8, 8, 8, 2, 3)
        assert encoded(a) != encoded(b)

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
            hidden, scores = forward_oracle(state.layer(ell), feature)
            np.testing.assert_allclose(sv.hidden, hidden, atol=1e-12)
            np.testing.assert_allclose(sv.scores, scores, atol=1e-12)
            assert np.array_equal(sv.feature, feature)

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
        with pytest.raises(MaasError, match="layer 2 expects feature of length 16"):
            score_layer(state, 2, np.zeros(8))  # layer 2 wants 16


def brute_force_prefix(scores, thres):
    order = np.argsort(-scores, kind="stable")
    for k in range(1, len(scores) + 1):
        if scores[order[:k]].sum() > thres:
            return [int(i) for i in order[:k]]
    return [int(i) for i in order]


class TestSelectDeterministic:
    def test_single_dominant(self):
        assert select_deterministic(as_scores([0.5, 0.3, 0.2]), 0.3) == [0]

    def test_uniform_takes_two(self):
        sel = select_deterministic(as_scores([0.25, 0.25, 0.25, 0.25]), 0.3)
        assert sel == [0, 1]

    def test_near_one_threshold_takes_all(self):
        sel = select_deterministic(as_scores([0.4, 0.35, 0.25]), 0.999)
        assert sorted(sel) == [0, 1, 2]

    def test_tie_break_ascending_index(self):
        sel = select_deterministic(as_scores([0.25, 0.25, 0.25, 0.25]), 0.4)
        assert sel == [0, 1]

    def test_agrees_with_brute_force_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            raw = rng.random(n) + 1e-9
            scores = raw / raw.sum()
            for thres in (0.1, 0.3, 0.7):
                assert select_deterministic(scores, thres) == brute_force_prefix(
                    scores, thres
                )


class TestSampleSelection:
    def test_dominant_score_selected(self):
        eps = 1e-6
        scores = as_scores([1.0 - 2 * eps, eps, eps])
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            sel = sample_selection(scores, 0.3, rng)
            if sel == [0]:
                hits += 1
                lp = selection_log_prob(scores, sel)
                assert abs(lp - math.log(1.0 - 2 * eps)) < 1e-12
        assert hits == 200  # probability >= 1 - 3e-6 per draw

    def test_single_op_log_prob_zero(self):
        scores = as_scores([1.0])
        sel = sample_selection(scores, 0.3, np.random.default_rng(0))
        assert sel == [0]
        assert selection_log_prob(scores, sel) == 0.0

    def test_enumeration_sums_to_one(self):
        for scores in ([0.4, 0.35, 0.25], [0.7, 0.1, 0.1, 0.1], [0.5, 0.5]):
            total = sum(p for _, p in selection_sequences(np.asarray(scores), 0.3))
            assert abs(total - 1.0) < 1e-12

    def test_log_prob_matches_selection_log_prob(self):
        """Each drawn sequence's `selection_log_prob` is the log of its
        probability by enumeration."""
        rng = np.random.default_rng(9)
        raw = rng.random(5) + 1e-6
        scores = raw / raw.sum()
        analytic = dict(selection_sequences(scores, 0.3))
        for _ in range(50):
            sel = sample_selection(scores, 0.3, rng)
            assert abs(selection_log_prob(scores, sel) - math.log(analytic[tuple(sel)])) < 1e-12

    def test_empirical_matches_analytic(self):
        scores = np.asarray([0.4, 0.35, 0.25])
        analytic = dict(selection_sequences(scores, 0.3))
        rng = np.random.default_rng(123)
        counts = {}
        n = 20000
        for _ in range(n):
            sel = sample_selection(scores, 0.3, rng)
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
            seeds = range(40 if len(scores) <= 12 else 10)  # long draws cost more
            for thres in (0.05, 0.3, 0.9):
                for seed in seeds:
                    rng = np.random.default_rng(seed)
                    ref_rng = np.random.default_rng(seed)
                    for _ in range(5):
                        drawn = sample_selection(scores, thres, rng)
                        got = drawn, selection_log_prob(scores, drawn)
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
        scores = as_scores(scores)
        with pytest.raises(ValueError):
            sample_selection(scores, 0.3, np.random.default_rng(0))

    def test_mass_running_out_before_threshold_raises(self):
        # the first draw takes all the mass (0.2) and leaves cum below 0.3
        scores = as_scores([0.2, 0.0, 0.0])
        with pytest.raises(ValueError):
            sample_selection(scores, 0.3, np.random.default_rng(0))


class Uniforms:
    """Stands in for the generator: `random()` returns the given values in
    turn, so a test can pick the uniform that each draw scales."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


# weights with zeros, subnormals (5e-324 is the smallest) and normal values
_weights = st.lists(
    st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-323, 2.2e-308]),
        st.floats(min_value=0.0, max_value=2.2e-308),
        st.floats(min_value=1e-300, max_value=1e3),
    ),
    min_size=1,
    max_size=12,
).filter(lambda w: sum(w) > 0.0)
# uniforms in [0, 1), with the largest one, 1 - 2**-53, drawn often; a draw
# cycles through them
_uniforms = st.lists(
    st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True)),
    min_size=1,
    max_size=4,
)


class TestPlainDraw:
    def test_one_random_per_drawn_operator(self):
        for scores in draw_cases():
            for thres in (0.05, 0.3, 0.9):
                rng = np.random.default_rng(7)
                ref_rng = np.random.default_rng(7)
                for _ in range(5):
                    drawn = sample_selection(scores, thres, rng)
                    for _ in drawn:
                        ref_rng.random()
                    assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("scores", [
        [0.5, 0.5, math.nan],
        [math.inf, 0.5, 0.5],
        [0.5, 0.5, math.inf],
        [math.inf, -math.inf, 0.5],
        [0.0],
    ])
    def test_non_finite_or_zero_mass_raises(self, scores):
        scores = as_scores(scores)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="not a positive finite number"):
            sample_selection(scores, 0.3, rng)
        assert rng.bit_generator.state == state  # raised before drawing

    @pytest.mark.parametrize("weights, want", [
        ([0.0, 5e-324, 0.0], [1]),
        ([5e-324, 5e-324, 0.0], [1]),
        ([0.0, 1e-323, 5e-324, 0.0, 0.0], [2]),
    ])
    def test_product_rounding_up_to_the_total_takes_the_last_positive(
            self, weights, want):
        # (1 - 2**-53) * total rounds up to a subnormal total
        assert sample_selection(as_scores(weights), 0.0, Uniforms([1.0 - 2.0**-53])) == want

    @settings(max_examples=300, deadline=None)
    @given(_weights, _uniforms, st.sampled_from([0.0, 0.5]))
    def test_never_draws_a_zero_weight(self, weights, uniforms, frac):
        drawn = sample_selection(as_scores(weights), frac * sum(weights),
                                 Uniforms(cycle(uniforms)))
        assert drawn
        assert len(set(drawn)) == len(drawn)
        assert all(weights[idx] > 0.0 for idx in drawn)


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


class TestFloatLoopsMatchNumpy:
    def test_rules_equal_numpy_scalar_references(self):
        for scores in draw_cases():
            for thres in (0.05, 0.3, 0.9):
                chosen = select_deterministic(scores, thres)
                assert chosen == numpy_select_deterministic(scores, thres)
                assert selection_log_prob(scores, chosen) == numpy_selection_log_prob(
                    scores, chosen)
                rng = np.random.default_rng(int(thres * 100))
                for _ in range(5):
                    drawn = sample_selection(scores, thres, rng)
                    assert selection_log_prob(scores, drawn) == numpy_selection_log_prob(
                        scores, drawn)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_zero_scores_give_numpy_infinities(self):
        scores = np.asarray([0.5, 0.5, 0.0])
        for selected in ([2], [0, 2], [0, 1, 2], [0, 1]):
            got = selection_log_prob(scores, selected)
            want = numpy_selection_log_prob(scores, selected)
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert selection_log_prob(scores, [2]) == -math.inf

    def test_select_deterministic_nan_scores_raise(self):
        # at numpy scalars, cum never exceeded thres and every index came back
        for scores in ([math.nan] * 4, [0.1, 0.1, math.nan]):
            with pytest.raises(ValueError):
                select_deterministic(as_scores(scores), 0.3)

    def test_select_deterministic_nan_after_the_prefix_is_not_read(self):
        # NaN sorts last, so a prefix that exceeds thres first never sees it
        scores = as_scores([math.nan, 0.5, 0.5])
        assert select_deterministic(scores, 0.3) == [1]


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
                lp_plus = selection_log_prob(score_layer(state, ell, feature).scores, selected)
                arr[idx] = orig - eps
                lp_minus = selection_log_prob(score_layer(state, ell, feature).scores, selected)
                arr[idx] = orig
                g[idx] = (lp_plus - lp_minus) / (2 * eps)
            grads.append(g)
        return grads

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        state = init_params(17, 4, 5, 2, 4)
        for ell in (1, 2):
            feature = rng.normal(size=4 * ell)
            selected = sample_selection(score_layer(state, ell, feature).scores, 0.3, rng)
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


def per_array_init(seed, d, h, num_layers, n_ops):
    """`init_params` as it was: one uniform draw per array, layer by layer,
    W1, b1, W2, b2. Returns the arrays and the generator."""
    rng = np.random.default_rng(seed)
    arrays = []
    for ell in range(1, num_layers + 1):
        for shape in ((h, d * ell), h, (n_ops, h), n_ops):
            arrays.append(rng.uniform(-INIT_SCALE, INIT_SCALE, shape))
    return arrays, rng


class TestFlatLayout:
    @pytest.mark.parametrize("dims", [(7, 8, 8, 2, 3), (0, 64, 64, 4, 9), (5, 1, 3, 3, 2),
                                      (11, 16, 4, 1, 12)])
    def test_one_draw_equals_per_array_draws(self, dims):
        """Byte-equal to the 16 (here 4 per layer) draws it replaces, and a
        generator that made one draw of the total is in the same state."""
        state = init_params(*dims)
        arrays, rng = per_array_init(*dims)
        got = [a for ctrl in state.layers for a in ctrl.param_arrays()]
        assert [a.shape for a in got] == [a.shape for a in arrays]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, arrays))
        one = np.random.default_rng(dims[0])
        one.uniform(-INIT_SCALE, INIT_SCALE, state.params.size)
        assert one.bit_generator.state == rng.bit_generator.state

    def test_layout_after_init_restore_split_and_merge(self):
        state = init_params(3, 4, 5, 3, 6)
        assert flat_layout_faults(state) == []
        restored = decoded(encoded(state))
        assert flat_layout_faults(restored) == []
        assert restored.params.tobytes() == state.params.tobytes()
        rng = np.random.default_rng(0)
        for edit in (lambda: state.split_output(2, rng), lambda: state.merge_output(0),
                     lambda: state.split_output(5, rng), lambda: state.merge_output(6)):
            edit()
            assert flat_layout_faults(state) == []

    def test_split_and_merge_keep_the_per_array_values(self):
        """A split appends the same noisy row and bias the per-array form
        `np.vstack` and `np.append` gave, in the same draw order; a merge
        deletes the row and bias `np.delete` did."""
        state = init_params(1, 4, 3, 3, 5)
        old = [[a.copy() for a in ctrl.param_arrays()] for ctrl in state.layers]
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        state.split_output(2, rng)
        for ctrl, (W1, b1, W2, b2) in zip(state.layers, old):
            row = W2[2] + oracle_rng.uniform(-0.01, 0.01, 3)
            bias = b2[2] + oracle_rng.uniform(-0.01, 0.01)
            want = (W1, b1, np.vstack([W2, row[None, :]]), np.append(b2, bias))
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ctrl.param_arrays(), want))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        old = [[a.copy() for a in ctrl.param_arrays()] for ctrl in state.layers]
        state.merge_output(1)
        for ctrl, (W1, b1, W2, b2) in zip(state.layers, old):
            want = (W1, b1, np.delete(W2, 1, axis=0), np.delete(b2, 1))
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ctrl.param_arrays(), want))

    def test_writes_to_a_view_reach_params(self):
        state = init_params(0, 4, 4, 2, 3)
        state.layer(2).b2[1] = 7.0
        assert state.params[state.offsets[2] - 2] == 7.0

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda state: pickle.loads(pickle.dumps(state))])
    def test_copies_hold_views_of_their_own_vector(self, clone):
        state = init_params(4, 4, 4, 3, 5)
        state.split_output(1, np.random.default_rng(0))
        other = clone(state)
        assert flat_layout_faults(other) == []
        assert not np.shares_memory(other.params, state.params)
        assert encoded(other) == encoded(state)
        assert (other.n_ops, other.num_layers, other.version) == (6, 3, 1)
