"""Executor: synthetic formula arithmetic, aggregation, live-call contract."""

import json
import urllib.error
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maas.errors import BackendError, DataError
from maas.executor import (
    LiveEnv,
    QueryRecord,
    SyntheticEnv,
    SyntheticOperatorProfile,
    _majority_vote,
    evaluate_answer,
    execute,
    live_call,
    render_prompt,
    resolve_endpoint,
)
from maas.datagen import default_env, default_profiles, sabotaged_profiles
from maas.optimizer import MOCK_PATCH_SENTENCE, MUTATOR_PROMPT, LLMMutator
from maas.registry import (
    OperatorPatch,
    OperatorRegistry,
    builtin_registry,
)
from maas.sampler import Architecture, build_dag
from tests.helpers import any_value_anywhere, make_spec, tiny_registry, with_exit_and_io

DATA = Path(__file__).resolve().parent.parent / "data"


def record(difficulty=0.0, answer="42"):
    return QueryRecord(id="q1", query="question", answer=answer,
                       domain="d", difficulty=difficulty)


def endpoint(transport, sleep, api_key="k"):
    """The endpoint at http://x that sends through `transport` and sleeps
    through `sleep`."""
    return resolve_endpoint("http://x", api_key, transport, sleep)


def arch_of(layers):
    return Architecture(layers=layers, selections=[], exit_layer=None,
                        params_version=0)


class RecordingEnv:
    """Wraps an env (or, without one, names each output after its call
    number) and records each node's (output, predecessor outputs)."""

    checker = "exact_match"

    def __init__(self, inner=None):
        self.inner = inner
        self.seen = []

    def run_node(self, spec, query, predecessor_outputs, rng):
        if self.inner is None:
            result = f"out{len(self.seen)}:{spec.id}", 1.0, 1
        else:
            result = self.inner.run_node(spec, query, predecessor_outputs, rng)
        self.seen.append((result[0], list(predecessor_outputs)))
        return result


class TestSyntheticFormula:
    def test_probability_arithmetic(self):
        env = SyntheticEnv([SyntheticOperatorProfile("op", 0.9, 0.5, 1.0)])
        spec = make_spec("op")
        q = record(difficulty=1.0)
        # p = 0.9 - 0.5*1.0 = 0.4; check by frequency with a seeded rng
        rng = np.random.default_rng(0)
        hits = sum(
            env.run_node(spec, q, [], rng)[0] == q.answer for _ in range(20000)
        )
        assert abs(hits / 20000 - 0.4) < 0.01

    def test_zero_difficulty_gives_base(self):
        env = SyntheticEnv([SyntheticOperatorProfile("op", 1.0, 0.5, 2.0)])
        out, cost, calls = env.run_node(
            make_spec("op"), record(difficulty=0.0), [], np.random.default_rng(0)
        )
        assert out == "42"
        assert cost == 2.0
        assert calls == 1

    def test_bonus_clamps_to_one(self):
        env = SyntheticEnv([SyntheticOperatorProfile("op", 0.5, 0.0, 1.0, 0.5)])
        q = record()
        rng = np.random.default_rng(0)
        for _ in range(100):
            out, _, _ = env.run_node(make_spec("op"), q, ["42"], rng)
            assert out == "42"  # p = 0.5 + 0.5 = 1.0

    def test_failure_output_names_node(self):
        env = SyntheticEnv([SyntheticOperatorProfile("op", 0.0, 0.0, 1.0)])
        out, _, _ = env.run_node(make_spec("op"), record(), [], np.random.default_rng(0))
        assert out == "WRONG:op"

    def test_split_clone_inherits_profile(self):
        env = SyntheticEnv([SyntheticOperatorProfile("op", 1.0, 0.0, 7.0)])
        out, cost, _ = env.run_node(
            make_spec("op-b"), record(), [], np.random.default_rng(0)
        )
        assert out == "42"
        assert cost == 7.0

    def test_clone_of_clone_inherits_root_profile(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch(target_id="cot", structure_action="split"))
        reg.apply_patch(OperatorPatch(target_id="cot-b", structure_action="split"))
        profile = default_env().profile_for(reg.get("cot-b-b"))
        assert profile.operator_id == "cot"

    def test_missing_profile(self):
        env = SyntheticEnv([])
        with pytest.raises(DataError):
            env.run_node(make_spec("ghost"), record(), [], np.random.default_rng(0))

    def test_prompt_override_replaces_base(self):
        env = SyntheticEnv(
            [SyntheticOperatorProfile("op", 0.0, 0.0, 1.0, marker="magic marker",
                                      marker_success=1.0)],
        )
        plain = make_spec("op")
        patched = make_spec("op", prompt="p magic marker {input}")
        rng = np.random.default_rng(0)
        assert env.run_node(plain, record(), [], rng)[0] == "WRONG:op"
        assert env.run_node(patched, record(), [], rng)[0] == "42"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profiles=any_value_anywhere(SyntheticEnv(sabotaged_profiles()).to_dict()))
    def test_any_profile_file_loads_or_is_a_data_error(self, tmp_path, profiles):
        """Any JSON value in a profile entry, a marker or anywhere else:
        `from_file` returns an env or raises `DataError`."""
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(profiles))
        try:
            SyntheticEnv.from_file(path, "exact_match")
        except DataError:
            pass

    def test_profile_file_reads_back_what_to_dict_writes(self, tmp_path):
        env = SyntheticEnv(sabotaged_profiles())
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(env.to_dict()))
        assert SyntheticEnv.from_file(path, "exact_match").to_dict() == env.to_dict()

    @pytest.mark.parametrize("key", ["prompt_success_override", "metadata",
                                     "prompt_success_overrides"])
    def test_unknown_top_level_key_is_refused(self, tmp_path, key):
        """A key the format lacks would otherwise be ignored, so it is
        refused: a stray one, or the list of prompt overrides that an older
        file kept beside `profiles`, whose operator would run without them."""
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({**default_env().to_dict(), key: []}))
        with pytest.raises(DataError, match=f"^malformed profile file {path}: DataError:"
                                            f" unknown key '{key}' at the top level$"):
            SyntheticEnv.from_file(path, "exact_match")

    def test_profile_validation(self):
        with pytest.raises(DataError):
            SyntheticOperatorProfile("op", 1.5, 0.0, 1.0)
        with pytest.raises(DataError):
            SyntheticOperatorProfile("op", 0.5, 0.0, 0.0)

    def test_second_profile_for_an_operator_is_refused(self):
        """Keying by operator id would keep the last of two profiles for one
        operator and drop the first without a word."""
        profiles = [*default_profiles(), SyntheticOperatorProfile("cot", 0.99, 0.0, 3.0)]
        with pytest.raises(DataError, match="^second profile for operator 'cot'$"):
            SyntheticEnv(profiles)

    @pytest.mark.parametrize("fields", [{"marker": "m"}, {"marker_success": 0.9}],
                             ids=["marker_alone", "marker_success_alone"])
    def test_marker_needs_its_success_rate(self, fields):
        with pytest.raises(DataError, match="^marker and marker_success are set together"
                                            " for 'op'$"):
            SyntheticOperatorProfile("op", 0.5, 0.0, 1.0, **fields)

    @pytest.mark.parametrize("marker_success", [-0.1, 1.5])
    def test_marker_success_is_a_rate(self, marker_success):
        with pytest.raises(DataError, match="^marker_success outside"):
            SyntheticOperatorProfile("op", 0.5, 0.0, 1.0, 0.0, "m", marker_success)

    def test_marker_fields_are_written_only_when_set(self):
        written = {d["operator_id"]: d
                   for d in SyntheticEnv(sabotaged_profiles()).to_dict()["profiles"]}
        assert (written["cot"]["marker"], written["cot"]["marker_success"]) == (
            MOCK_PATCH_SENTENCE.strip(), 0.9)
        assert all("marker" not in d and "marker_success" not in d
                   for op_id, d in written.items() if op_id != "cot")


class TestExecute:
    def _env(self, base=1.0, costs=None):
        costs = costs or {}
        profiles = [
            SyntheticOperatorProfile(op, base, 0.0, costs.get(op, 1.0))
            for op in ("a", "b", "c", "io")
        ]
        return SyntheticEnv(profiles)

    def test_direct_io_forced_success(self):
        reg = tiny_registry(["a", "b", "c"])
        trace = execute(arch_of([["io"]]), record(), self._env(), reg,
                        np.random.default_rng(0))
        assert trace.utility == 1.0
        assert trace.cost == 1.0
        assert trace.llm_calls == 1
        assert trace.final_answer == "42"

    def test_all_fail_forced_failure(self):
        reg = tiny_registry(["a", "b", "c"])
        trace = execute(arch_of([["a", "b"], ["c"]]), record(), self._env(base=0.0),
                        reg, np.random.default_rng(0))
        assert trace.utility == 0.0

    def test_cost_additive(self):
        reg = tiny_registry(["a", "b", "c"])
        env = self._env(costs={"a": 2.0, "b": 3.0, "c": 4.0})
        trace = execute(arch_of([["a", "b"], ["c"]]), record(), env, reg,
                        np.random.default_rng(0))
        assert trace.cost == 9.0

    def test_llm_calls_sum_agent_counts(self):
        reg = OperatorRegistry(with_exit_and_io(OperatorSpec_with_agents(make_spec("a"), 3),
                                                make_spec("b")))
        env = SyntheticEnv([
            SyntheticOperatorProfile("a", 1.0, 0.0, 1.0),
            SyntheticOperatorProfile("b", 1.0, 0.0, 1.0),
        ])
        trace = execute(arch_of([["a", "b"]]), record(), env, reg,
                        np.random.default_rng(0))
        assert trace.llm_calls == 4

    def test_reproducible_with_fixed_seed(self):
        reg = tiny_registry(["a", "b", "c"])
        env = self._env(base=0.5)
        arch = arch_of([["a", "b"], ["c"]])
        env1, env2 = RecordingEnv(env), RecordingEnv(env)
        t1 = execute(arch, record(), env1, reg, np.random.default_rng(9))
        t2 = execute(arch, record(), env2, reg, np.random.default_rng(9))
        assert len(env1.seen) == 3
        assert env1.seen == env2.seen
        assert (t1.final_answer, t1.utility, t1.cost) == \
            (t2.final_answer, t2.utility, t2.cost)

    def test_each_node_sees_the_previous_layer_in_drawn_order(self):
        layers = [["b", "a"], ["c", "a"], ["b"]]
        env = RecordingEnv()
        trace = execute(arch_of(layers), record(), env,
                        tiny_registry(["a", "b", "c"]), np.random.default_rng(0))
        assert env.seen == [
            ("out0:b", []), ("out1:a", []),
            ("out2:c", ["out0:b", "out1:a"]), ("out3:a", ["out0:b", "out1:a"]),
            ("out4:b", ["out2:c", "out3:a"]),
        ]
        assert trace.final_answer == "out4:b"
        # the same predecessors, in the same order, as the architecture's DAG
        names = [f"L{n}:{op}" for n, ids in enumerate(layers, 1) for op in ids]
        node_outputs = {name: out for name, (out, _) in zip(names, env.seen)}
        preds = {}
        for src, dst in build_dag(arch_of(layers)):
            preds.setdefault(dst, []).append(node_outputs.get(src))
        assert [p for _, p in env.seen] == [
            [o for o in preds[name] if o is not None] for name in names
        ]


def OperatorSpec_with_agents(spec, n):
    from dataclasses import replace

    return replace(spec, agent_count=n)


class TestMajorityVote:
    def _reg(self):
        return tiny_registry(["a", "b", "c"])

    def test_unanimous(self):
        assert _majority_vote(["x", "x", "x"], self._reg(), ["a", "b", "c"]) == "x"

    def test_majority_wins(self):
        assert _majority_vote(["x", "y", "x"], self._reg(), ["a", "b", "c"]) == "x"

    def test_tie_goes_to_lowest_registry_index(self):
        reg = self._reg()
        # "a" has the lowest index; its output wins the 1-1-1 tie
        assert _majority_vote(["x", "y", "z"], reg, ["a", "b", "c"]) == "x"
        assert _majority_vote(["z", "y", "x"], reg, ["c", "b", "a"]) == "x"

    @given(st.data())
    def test_equals_the_sort_and_scan_reference(self, data):
        reg = builtin_registry()
        outputs = data.draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=6))
        layer_ids = data.draw(st.permutations(reg.ids()))[: len(outputs)]
        assert _majority_vote(outputs, reg, layer_ids) \
            == reference_majority_vote(outputs, reg, layer_ids)


def reference_majority_vote(outputs, registry, layer_ids):
    """The vote as it was written with an early return for a single top
    output and a scan of the layer's operators in registry order."""
    counts = {}
    for out in outputs:
        counts[out] = counts.get(out, 0) + 1
    best_count = max(counts.values())
    tied = {out for out, c in counts.items() if c == best_count}
    if len(tied) == 1:
        return next(iter(tied))
    for op_id in sorted(layer_ids, key=registry.index_of):
        out = outputs[layer_ids.index(op_id)]
        if out in tied:
            return out
    return outputs[0]


class TestEvaluateAnswer:
    def test_exact_match(self):
        assert evaluate_answer("42", "42") == 1.0
        assert evaluate_answer("42 ", "42") == 0.0

    def test_numeric_normalization(self):
        assert evaluate_answer("3.140000", "3.14", "numeric") == 1.0
        assert evaluate_answer("+3.14", "3.14", "numeric") == 1.0
        assert evaluate_answer("++3", "3", "numeric") == 0.0
        assert evaluate_answer(" 3.14 ", "3.14", "numeric") == 1.0

    def test_numeric_tolerance(self):
        assert evaluate_answer("3.14", "3.1400000005", "numeric") == 1.0
        assert evaluate_answer("3.14", "3.15", "numeric") == 0.0

    def test_numeric_unparseable(self):
        assert evaluate_answer("abc", "3.14", "numeric") == 0.0

    def test_unknown_checker(self):
        with pytest.raises(DataError):
            evaluate_answer("a", "a", "fuzzy")

    @pytest.mark.parametrize("make_env", [
        lambda: SyntheticEnv([], checker="fuzzy"),
        lambda: LiveEnv(checker="fuzzy"),
        # the file is sound, so the error does not name it
        lambda: SyntheticEnv.from_file(DATA / "synthetic_profiles.json", "fuzzy"),
    ], ids=["synthetic", "live", "synthetic_from_file"])
    def test_unknown_checker_fails_at_construction(self, make_env):
        with pytest.raises(DataError, match="^unknown checker 'fuzzy'$"):
            make_env()


class TestLiveCall:
    BODY = {
        "choices": [{"message": {"content": "the answer"}}],
        "usage": {"prompt_tokens": 120, "completion_tokens": 80},
    }

    def test_parses_content_and_tokens(self):
        content, p, c = live_call(
            endpoint(lambda *a: (200, self.BODY), lambda s: None, api_key="key"),
            "default", 1.0, "prompt")
        assert content == "the answer"
        assert p + c == 200

    def test_retry_then_success(self):
        self._check_retry_then_success(ConnectionError)

    @pytest.mark.parametrize("error", [
        urllib.error.URLError, TimeoutError,
    ])
    def test_other_network_errors_retried(self, error):
        self._check_retry_then_success(error)

    def _check_retry_then_success(self, error):
        calls = {"n": 0}

        def flaky(url, payload, headers):
            calls["n"] += 1
            if calls["n"] < 3:
                raise error("down")
            return 200, self.BODY

        slept = []
        content, _, _ = live_call(endpoint(flaky, slept.append, api_key="key"),
                                  "default", 1.0, "prompt")
        assert content == "the answer"
        assert calls["n"] == 3
        assert slept == [1.0, 2.0]  # exponential backoff, base 1s

    def test_bug_in_transport_not_retried(self):
        calls = {"n": 0}

        def buggy(url, payload, headers):
            calls["n"] += 1
            raise TypeError("transport bug")

        slept = []
        with pytest.raises(TypeError, match="transport bug"):
            live_call(endpoint(buggy, slept.append), "default", 1.0, "p")
        assert calls["n"] == 1
        assert slept == []

    def test_exhausted_retries(self):
        def dead(url, payload, headers):
            raise ConnectionError("down")

        with pytest.raises(BackendError, match="failed after 3 attempts: down"):
            live_call(endpoint(dead, lambda s: None), "default", 1.0, "p")

    def test_http_error_retried_then_raised(self):
        with pytest.raises(BackendError,
                           match="failed after 3 attempts: chat endpoint returned 503"):
            live_call(endpoint(lambda *a: (503, {}), lambda s: None), "default", 1.0, "p")

    def test_client_error_not_retried(self):
        calls = {"n": 0}

        def unauthorized(url, payload, headers):
            calls["n"] += 1
            return 401, {}

        slept = []
        with pytest.raises(BackendError, match="^chat endpoint returned 401$"):
            live_call(endpoint(unauthorized, slept.append), "default", 1.0, "p")
        assert calls["n"] == 1
        assert slept == []

    def test_rate_limit_retried(self):
        statuses = [429, 200]

        def limited(url, payload, headers):
            return statuses.pop(0), self.BODY

        slept = []
        content, _, _ = live_call(endpoint(limited, slept.append), "default", 1.0, "p")
        assert content == "the answer"
        assert statuses == []
        assert slept == [1.0]

    def test_malformed_response_not_retried(self):
        calls = {"n": 0}

        def bad(url, payload, headers):
            calls["n"] += 1
            return 200, {"choices": []}

        with pytest.raises(BackendError, match="bad chat completion payload"):
            live_call(endpoint(bad, lambda s: None), "default", 1.0, "p")
        assert calls["n"] == 1

    def test_bad_usage_is_malformed_not_retried(self):
        calls = {"n": 0}

        def bad_usage(url, payload, headers):
            calls["n"] += 1
            return 200, {"choices": [{"message": {"content": "x"}}],
                         "usage": {"prompt_tokens": "many"}}

        with pytest.raises(BackendError, match="bad chat completion payload"):
            live_call(endpoint(bad_usage, lambda s: None), "default", 1.0, "p")
        assert calls["n"] == 1

    def test_payload_carries_operator_binding(self):
        seen = {}

        def capture(url, payload, headers):
            seen.update(payload)
            seen["url"] = url
            seen["auth"] = headers["Authorization"]
            return 200, self.BODY

        live_call(endpoint(capture, lambda s: None, api_key="secret"),
                  "small", 0.25, "rendered")
        assert seen["url"] == "http://x/v1/chat/completions"
        assert seen["model"] == "small"
        assert seen["temperature"] == 0.25
        assert seen["messages"] == [{"role": "user", "content": "rendered"}]
        assert seen["auth"] == "Bearer secret"


class TestRenderPrompt:
    def test_input_substitution(self):
        assert render_prompt(make_spec("op", prompt="solve {input} now"), "2+2", [])\
            == "solve 2+2 now"

    def test_predecessors_appended(self):
        out = render_prompt(make_spec("op"), "q", ["ans1", "ans2"])
        assert "- ans1" in out and "- ans2" in out


class TestLiveEnv:
    def test_missing_url_raises_at_construction(self, monkeypatch):
        monkeypatch.delenv("MAAS_BASE_URL", raising=False)
        with pytest.raises(BackendError, match="no base URL"):
            LiveEnv()

    def test_chat_calls_of_an_operator_and_of_the_mutator(self):
        """The URL, JSON body (keys in order) and headers that an operator's
        and the LLM mutator's chat calls send: the operator's model binding
        and temperature, the mutator's model at 1.0, and the rendered prompt
        as the one user message."""
        from dataclasses import replace

        sent = []
        reply = '{"target_id": "cot", "new_temperature": 0.5}'  # a patch, for the mutator

        def capture(url, payload, headers):
            sent.append((url, json.dumps(payload), headers))
            return 200, {"choices": [{"message": {"content": reply}}],
                         "usage": {"prompt_tokens": 3, "completion_tokens": 2}}

        spec = replace(make_spec("op", temperature=0.3, prompt="solve {input}"),
                       model_binding="small")
        env = LiveEnv(base_url="http://x/", api_key="k", transport=capture)
        env.run_node(spec, record(), ["7"], np.random.default_rng(0))
        reg = builtin_registry()
        LLMMutator(model="big", base_url="http://x", api_key="k", transport=capture)(
            reg, [])
        mutator_prompt = MUTATOR_PROMPT.format(
            archive=json.dumps([s.to_dict() for s in reg.specs()]), failures="[]")
        url, headers = "http://x/v1/chat/completions", {"Authorization": "Bearer k"}
        assert sent == [
            (url, '{"model": "small", "temperature": 0.3, "messages": [{"role": "user",'
                  ' "content": "solve question\\n\\nCandidate answers from earlier'
                  ' agents:\\n- 7"}]}', headers),
            (url, '{"model": "big", "temperature": 1.0, "messages": [{"role": "user",'
                  ' "content": ' + json.dumps(mutator_prompt) + '}]}', headers),
        ]

    def test_split_and_unedited_merge_back_send_the_same_request(self):
        """After "react" is split and its unedited clone merged back, the
        operator's chat request is byte for byte the one it sent before the
        split, and its tokens cost the same."""
        sent = []

        def tokens_by_length(url, payload, headers):
            sent.append(json.dumps(payload))
            content = payload["messages"][0]["content"]
            return 200, {"choices": [{"message": {"content": "7"}}],
                         "usage": {"prompt_tokens": len(content) // 4,
                                   "completion_tokens": 2}}

        env = LiveEnv(base_url="http://x", api_key="k", transport=tokens_by_length)
        reg = builtin_registry()

        def run_react():
            return env.run_node(reg.get("react"), record(), ["7"],
                                np.random.default_rng(0))

        before = run_react()
        reg.apply_patch(OperatorPatch("react", structure_action="split"))
        reg.apply_patch(OperatorPatch("react", structure_action="merge",
                                      merge_with_id="react-b"))
        assert run_react() == before
        assert len(sent) == 2 and sent[1] == sent[0]

    def test_llm_calls_count_the_requests_sent(self):
        """A layer of `self_consistency` (5 agents) and `debate` (3) sends
        one request per node, and the trace counts those two calls."""
        sent = []

        def transport(url, payload, headers):
            sent.append(payload)
            return 200, TestLiveCall.BODY

        env = LiveEnv(base_url="http://x", api_key="k", transport=transport)
        trace = execute(arch_of([["self_consistency", "debate"]]), record(), env,
                        builtin_registry(), np.random.default_rng(0))
        assert len(sent) == trace.llm_calls == 2

    def test_run_node_costs_tokens(self):
        env = LiveEnv(base_url="http://x", api_key="k",
                      transport=lambda *a: (200, TestLiveCall.BODY),
                      sleep=lambda s: None)
        out, cost, calls = env.run_node(make_spec("op"), record(), [],
                                        np.random.default_rng(0))
        assert out == "the answer"
        assert cost == 200.0
        assert calls == 1

    @pytest.mark.parametrize("usage", [
        None, {}, {"prompt_tokens": 0, "completion_tokens": 0},
    ], ids=["no_usage", "empty_usage", "zero_tokens"])
    def test_reply_without_token_usage_is_backend_error(self, usage):
        body = {"choices": [{"message": {"content": "the answer"}}]}
        if usage is not None:
            body["usage"] = usage
        env = LiveEnv(base_url="http://x", api_key="k",
                      transport=lambda *a: (200, body), sleep=lambda s: None)
        with pytest.raises(BackendError, match="reports no token usage"):
            env.run_node(make_spec("op"), record(), [], np.random.default_rng(0))

    @pytest.mark.parametrize("message,usage", [
        ({"content": None}, None),
        ({"content": 42}, None),
        ({"content": ["the answer"]}, None),
        ({}, None),
        ({"content": "x"}, {"prompt_tokens": 2.7, "completion_tokens": 3}),
        ({"content": "x"}, {"prompt_tokens": True, "completion_tokens": 3}),
        ({"content": "x"}, {"prompt_tokens": "12", "completion_tokens": 3}),
        ({"content": "x"}, {"prompt_tokens": None, "completion_tokens": 3}),
        ({"content": "x"}, {"prompt_tokens": 5, "completion_tokens": -5}),
        ({"content": "x"}, {"prompt_tokens": 9, "completion_tokens": -1}),
    ], ids=["null_content", "int_content", "list_content", "no_content",
            "float_count", "bool_count", "string_count", "null_count",
            "negative_sum", "negative_count"])
    def test_malformed_reply_is_backend_error_not_retried(self, message, usage):
        """Nothing in a reply is coerced: a content that is not a str, or a
        token count that is not an int >= 0, ends the node with
        `BackendError` on the first call."""
        body = {"choices": [{"message": message}]}
        body["usage"] = usage or {"prompt_tokens": 3, "completion_tokens": 2}
        calls = []

        def transport(url, payload, headers):
            calls.append(url)
            return 200, body

        env = LiveEnv(base_url="http://x", api_key="k", transport=transport,
                      sleep=lambda s: None)
        with pytest.raises(BackendError, match="^bad chat completion payload: "):
            env.run_node(make_spec("op"), record(), [], np.random.default_rng(0))
        assert len(calls) == 1
