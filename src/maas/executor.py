"""Architecture execution against synthetic and live environments.

The synthetic environment is a seeded stand-in for LLM execution: each
operator carries a success profile (base rate, difficulty slope, a bonus
when a predecessor already produced the right answer) and a fixed unit
cost. It makes end-to-end training behavior testable on a desk. The live
environment calls any OpenAI-compatible chat-completions endpoint and
accounts cost in tokens.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .errors import BackendError, DataError, MaasError, check_fields

MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 1.0
CHECKERS = ("exact_match", "numeric")  # the names `evaluate_answer` scores by


@dataclass(frozen=True)
class QueryRecord:
    id: str
    query: str
    answer: str
    domain: str = ""
    difficulty: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.difficulty <= 1.0:
            raise DataError(
                f"difficulty {self.difficulty} outside [0, 1] for {self.id!r}"
            )


@dataclass
class ExecutionTrace:
    architecture: object
    final_answer: str
    utility: float
    cost: float
    llm_calls: int


@dataclass(frozen=True)
class SyntheticOperatorProfile:
    operator_id: str
    base_success: float
    difficulty_slope: float
    unit_cost: float
    combine_bonus: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.base_success <= 1.0:
            raise DataError(f"base_success outside [0, 1] for {self.operator_id!r}")
        if self.unit_cost <= 0.0:
            raise DataError(f"unit_cost must be positive for {self.operator_id!r}")
        if not 0.0 <= self.combine_bonus <= 1.0:
            raise DataError(f"combine_bonus outside [0, 1] for {self.operator_id!r}")


@dataclass(frozen=True)
class PromptSuccessOverride:
    """Replace an operator's base success rate when its current prompt
    contains a marker substring. Lets prompt patches change synthetic
    behavior, which is what the mutator ablation exercises."""

    operator_id: str
    substring: str
    base_success: float

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.base_success <= 1.0:
            raise DataError(f"override base_success outside [0, 1] for {self.operator_id!r}")


class SyntheticEnv:
    def __init__(self, profiles, overrides=(), checker="exact_match"):
        self.profiles = {p.operator_id: p for p in profiles}
        self.overrides = list(overrides)
        self.checker = _known_checker(checker)

    @classmethod
    def from_file(cls, path, checker):
        """The environment in a profile file as `maas.datagen` writes it,
        scored by `checker`. A file that is not JSON, or not in that format,
        raises `DataError` naming the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            profiles = [SyntheticOperatorProfile(**d) for d in data["profiles"]]
            overrides = [PromptSuccessOverride(**d)
                         for d in data.get("prompt_success_overrides", ())]
        # JSON and UTF-8 errors are ValueErrors, and nesting past the recursion
        # limit a RecursionError; a DataError is a bad entry
        except (KeyError, TypeError, ValueError, RecursionError, DataError) as exc:
            raise DataError(f"malformed profile file {path}: {type(exc).__name__}:"
                            f" {exc}") from exc
        return cls(profiles, overrides, checker)

    def profile_for(self, spec) -> SyntheticOperatorProfile:
        # split clones ("x-b", and "x-b-b" for a clone's clone) inherit the
        # profile of their nearest ancestor that has one
        op_id = spec.id
        while op_id not in self.profiles:
            if "-" not in op_id:
                raise DataError(f"no synthetic profile for operator {spec.id!r}")
            op_id = op_id.rsplit("-", 1)[0]
        return self.profiles[op_id]

    def _effective_base(self, spec, profile):
        for ov in self.overrides:
            if ov.operator_id == profile.operator_id and ov.substring in spec.prompt:
                return ov.base_success
        return profile.base_success

    def run_node(self, spec, query: QueryRecord, predecessor_outputs, rng):
        profile = self.profile_for(spec)
        base = self._effective_base(spec, profile)
        bonus = profile.combine_bonus if query.answer in predecessor_outputs else 0.0
        p = base - profile.difficulty_slope * query.difficulty + bonus
        p = min(max(p, 0.0), 1.0)
        if rng.random() < p:
            output = query.answer
        else:
            output = "WRONG:" + spec.id
        # the modelled operator runs `agent_count` agents, one call each
        return output, profile.unit_cost, spec.agent_count


class LiveEnv:
    """Executes operators through an OpenAI-compatible chat endpoint, asking
    each operator's `model_binding` at its `temperature`. A node sends one
    request, so it counts one LLM call whatever its `agent_count`; its cost
    is the reply's prompt plus completion tokens, and a reply whose usage
    counts no tokens raises `BackendError`. It checks its checker, then its
    endpoint (`resolve_endpoint`), when it is built."""

    def __init__(self, base_url=None, api_key=None, checker="exact_match",
                 transport=None, sleep=time.sleep):
        self.checker = _known_checker(checker)
        self.base_url, self.api_key = resolve_endpoint(base_url, api_key)
        self._transport = transport
        self._sleep = sleep

    def run_node(self, spec, query: QueryRecord, predecessor_outputs, rng):
        prompt = render_prompt(spec, query.query, predecessor_outputs)
        content, prompt_tokens, completion_tokens = live_call(
            spec.model_binding,
            spec.temperature,
            prompt,
            base_url=self.base_url,
            api_key=self.api_key,
            transport=self._transport,
            sleep=self._sleep,
        )
        tokens = prompt_tokens + completion_tokens
        if tokens <= 0:
            raise BackendError(f"chat reply for operator {spec.id!r} reports no token"
                               " usage, so its cost is unknown")
        return content.strip(), float(tokens), 1


def resolve_endpoint(base_url, api_key):
    """(base URL without a trailing slash, API key) of the chat endpoint:
    each argument given wins over `MAAS_BASE_URL` / `MAAS_API_KEY`. The one
    check that a chat client has an endpoint: `BackendError` without a base
    URL (any scheme passes); an unset API key is ""."""
    base_url = (base_url or os.environ.get("MAAS_BASE_URL", "")).rstrip("/")
    if not base_url:
        raise BackendError("no base URL configured: pass one or set MAAS_BASE_URL")
    api_key = api_key if api_key is not None else os.environ.get("MAAS_API_KEY", "")
    return base_url, api_key


def render_prompt(spec, query_text, predecessor_outputs):
    """The one user message a live node sends: the operator's prompt with
    the query in place of `{input}` (the query alone for an empty prompt),
    then the earlier layer's outputs, one per line, if it has any."""
    prompt = spec.prompt.replace("{input}", query_text) if spec.prompt else query_text
    if predecessor_outputs:
        prompt += "\n\nCandidate answers from earlier agents:\n" + "\n".join(
            f"- {out}" for out in predecessor_outputs
        )
    return prompt


def live_call(model, temperature, rendered_prompt, base_url, api_key,
              transport=None, sleep=time.sleep):
    """POST a chat completion that asks `model` at `temperature`, with
    `rendered_prompt` as its one user message (through `_urllib_transport`
    when `transport` is None); returns (content, prompt_tokens,
    completion_tokens). The status is judged before the body, and an error
    body is never parsed. A transport error (an `OSError`), 429 or 5xx is
    retried, up to MAX_ATTEMPTS calls in all, with a sleep of BACKOFF_BASE_S
    seconds that doubles after each failure; any other status, a 200 whose
    body is not JSON, a malformed reply and any other exception raise at
    once."""
    if transport is None:
        transport = _urllib_transport
    url = base_url + "/v1/chat/completions"
    payload = {
        "model": model,
        "temperature": temperature,
        "messages": [{"role": "user", "content": rendered_prompt}],
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            status, body = transport(url, payload, headers)
        except OSError as exc:
            last_error = exc
        else:
            if status == 200:
                if body is None:
                    raise BackendError("chat endpoint returned 200 with a body that"
                                       " is not JSON")
                return _parse_chat_response(body)
            last_error = BackendError(f"chat endpoint returned {status}")
            if status != 429 and not 500 <= status < 600:
                raise last_error
        if attempt < MAX_ATTEMPTS - 1:
            sleep(BACKOFF_BASE_S * (2**attempt))
    raise BackendError(f"chat endpoint failed after {MAX_ATTEMPTS} attempts: {last_error}")


def _parse_chat_response(body):
    """(content, prompt_tokens, completion_tokens) of a chat reply. The
    content must be a str and each token count present an int >= 0, not a
    bool (a missing one is 0), else `BackendError`: nothing is coerced."""
    try:
        content = body["choices"][0]["message"]["content"]
        usage = body.get("usage", {})
        prompt, completion = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise BackendError(f"bad chat completion payload: {exc}") from exc
    if type(content) is not str:
        raise BackendError("bad chat completion payload: content is"
                           f" {type(content).__name__}, not str")
    for key, count in (("prompt_tokens", prompt), ("completion_tokens", completion)):
        if type(count) is not int or count < 0:
            raise BackendError(f"bad chat completion payload: {key} is {count!r},"
                               " not an int >= 0")
    return content, prompt, completion


def _urllib_transport(url, payload, headers):
    """POST `payload` as JSON; returns (status, the parsed body), where the
    body is None when the status is an error or the body is not JSON. A
    reply cut short (an `http.client.HTTPException`, which is no `OSError`)
    raises `ConnectionError`, so it is retried as a transport error; a URL or
    header that urllib cannot send raises `BackendError`. TLS is checked
    against OpenSSL's default CA paths, not certifi's bundle. urllib is
    imported here, so that a command that makes no chat call never loads it."""
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(),
            headers={**headers, "Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:  # an OSError, but a status to judge
        exc.close()
        return exc.code, None
    except http.client.HTTPException as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
    except ValueError as exc:
        raise BackendError(f"cannot send the chat request: {exc}") from exc
    try:
        return status, json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
        return status, None


def evaluate_answer(final: str, oracle: str, checker: str = "exact_match") -> float:
    if checker == "exact_match":
        return 1.0 if final == oracle else 0.0
    if checker == "numeric":
        a = _parse_decimal(final)
        b = _parse_decimal(oracle)
        if a is None or b is None:
            return 0.0
        return 1.0 if abs(a - b) <= 1e-6 else 0.0
    raise DataError(f"unknown checker {checker!r}")


def _known_checker(checker):
    """`checker`, or `DataError` unless it is one of `CHECKERS`."""
    if checker not in CHECKERS:
        raise DataError(f"unknown checker {checker!r}")
    return checker


def _parse_decimal(text):
    try:
        return float(text.strip().lstrip("+"))
    except (ValueError, AttributeError):
        return None


def _majority_vote(outputs, registry, layer_ids):
    """Majority over exact strings; ties go to the output of the operator
    with the lowest registry index. A lone output, as an easy query's
    one-operator last layer gives, is returned as it is: it wins any vote,
    and returning it skips the count and the registry lookup."""
    if len(outputs) == 1:
        return outputs[0]
    counts = {}
    for out in outputs:
        counts[out] = counts.get(out, 0) + 1
    best = max(counts.values())
    return min((registry.index_of(op_id), out)
               for op_id, out in zip(layer_ids, outputs) if counts[out] == best)[1]


def execute(arch, query: QueryRecord, env, registry, rng) -> ExecutionTrace:
    """Run the architecture layer by layer; each node sees the query plus the
    previous layer's outputs in drawn order (layer 1 sees none), and the sink
    majority-votes the final layer: the wiring `build_dag` prints."""
    if not arch.layers:
        raise MaasError("architecture has no layers")
    total_cost = 0.0
    llm_calls = 0
    outputs = []
    for layer_ids in arch.layers:
        preds, outputs = outputs, []
        for op_id in layer_ids:
            output, cost, calls = env.run_node(registry.get(op_id), query, preds, rng)
            outputs.append(output)
            total_cost += cost
            llm_calls += calls

    final_answer = _majority_vote(outputs, registry, arch.layers[-1])
    utility = evaluate_answer(final_answer, query.answer, env.checker)
    return ExecutionTrace(
        architecture=arch,
        final_answer=final_answer,
        utility=utility,
        cost=total_cost,
        llm_calls=llm_calls,
    )
