"""Architecture execution against synthetic and live environments.

The synthetic environment is a seeded stand-in for LLM execution: each
operator has one profile (base rate, difficulty slope, a bonus when a
predecessor already produced the right answer, unit cost, and a marker
that swaps the base rate while its prompt holds it). It makes end-to-end
training testable on a desk. The live environment calls any
OpenAI-compatible chat-completions endpoint and accounts cost in tokens.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from .errors import BackendError, DataError, MaasError, check_fields, check_keys

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
    """One operator's record. While the operator's prompt holds `marker`, set
    together with `marker_success`, its base success rate is `marker_success`."""

    operator_id: str
    base_success: float
    difficulty_slope: float
    unit_cost: float
    combine_bonus: float = 0.0
    marker: str | None = None
    marker_success: float | None = None

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.base_success <= 1.0:
            raise DataError(f"base_success outside [0, 1] for {self.operator_id!r}")
        if self.unit_cost <= 0.0:
            raise DataError(f"unit_cost must be positive for {self.operator_id!r}")
        if not 0.0 <= self.combine_bonus <= 1.0:
            raise DataError(f"combine_bonus outside [0, 1] for {self.operator_id!r}")
        if (self.marker is None) != (self.marker_success is None):
            raise DataError(f"marker and marker_success are set together for"
                            f" {self.operator_id!r}")
        if self.marker is not None and not 0.0 <= self.marker_success <= 1.0:
            raise DataError(f"marker_success outside [0, 1] for {self.operator_id!r}")


class SyntheticEnv:
    """Runs each node by its operator's profile, one per operator id."""

    def __init__(self, profiles, checker="exact_match"):
        self.profiles = {}
        for p in profiles:
            if p.operator_id in self.profiles:
                raise DataError(f"second profile for operator {p.operator_id!r}")
            self.profiles[p.operator_id] = p
        self.checker = _known_checker(checker)

    @classmethod
    def from_file(cls, path, checker):
        """The environment in a profile file as `to_dict` gives it, scored by
        `checker`. A file that is not JSON, not in that format (one key,
        `profiles`) or that profiles an operator twice raises `DataError` naming it."""
        _known_checker(checker)  # first: an unknown checker is no fault of the file
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            check_keys(data, ("profiles",), "at the top level")
            return cls([SyntheticOperatorProfile(**d) for d in data["profiles"]], checker)
        # JSON and UTF-8 errors are ValueErrors, and nesting past the recursion
        # limit a RecursionError; a DataError is a bad entry or key
        except (KeyError, TypeError, ValueError, RecursionError, DataError) as exc:
            raise DataError(f"malformed profile file {path}: {type(exc).__name__}:"
                            f" {exc}") from exc

    def to_dict(self):
        """The profile file's content, which `from_file` reads back; unset markers left out."""
        return {"profiles": [{k: v for k, v in asdict(p).items() if v is not None}
                             for p in self.profiles.values()]}

    def profile_for(self, spec) -> SyntheticOperatorProfile:
        # split clones ("x-b", and "x-b-b" for a clone's clone) inherit the
        # profile of their nearest ancestor that has one
        op_id = spec.id
        while op_id not in self.profiles:
            if "-" not in op_id:
                raise DataError(f"no synthetic profile for operator {spec.id!r}")
            op_id = op_id.rsplit("-", 1)[0]
        return self.profiles[op_id]

    def run_node(self, spec, query: QueryRecord, predecessor_outputs, rng):
        profile = self.profile_for(spec)
        base = profile.base_success
        if profile.marker is not None and profile.marker in spec.prompt:
            base = profile.marker_success
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
    counts no tokens raises `BackendError`. It checks its checker, then
    resolves its `endpoint` (`resolve_endpoint`), when it is built."""

    def __init__(self, base_url=None, api_key=None, checker="exact_match",
                 transport=None, sleep=time.sleep):
        self.checker = _known_checker(checker)
        self.endpoint = resolve_endpoint(base_url, api_key, transport, sleep)

    def run_node(self, spec, query: QueryRecord, predecessor_outputs, rng):
        prompt = render_prompt(spec, query.query, predecessor_outputs)
        content, prompt_tokens, completion_tokens = live_call(
            self.endpoint, spec.model_binding, spec.temperature, prompt)
        tokens = prompt_tokens + completion_tokens
        if tokens <= 0:
            raise BackendError(f"chat reply for operator {spec.id!r} reports no token"
                               " usage, so its cost is unknown")
        return content.strip(), float(tokens), 1


@dataclass(frozen=True)
class ChatEndpoint:
    """Where and how a chat client sends: the full chat-completions `url`, the
    `headers` of every request, the `transport` that POSTs one and the `sleep`
    between retries."""

    url: str
    headers: dict
    transport: object
    sleep: object


def resolve_endpoint(base_url, api_key, transport=None, sleep=time.sleep):
    """A chat client's `ChatEndpoint`, built once: each argument given wins
    over `MAAS_BASE_URL` / `MAAS_API_KEY`, a None `transport` is
    `_urllib_transport`. The one check that a chat client has an endpoint:
    `BackendError` without a base URL (any scheme passes); no API key is ""."""
    base_url = (base_url or os.environ.get("MAAS_BASE_URL", "")).rstrip("/")
    if not base_url:
        raise BackendError("no base URL configured: pass one or set MAAS_BASE_URL")
    api_key = api_key if api_key is not None else os.environ.get("MAAS_API_KEY", "")
    return ChatEndpoint(base_url + "/v1/chat/completions",
                        {"Authorization": f"Bearer {api_key}"},
                        _urllib_transport if transport is None else transport, sleep)


def render_prompt(spec, query_text, predecessor_outputs):
    """The one user message a live node sends: the operator's prompt with
    the query in place of its one `{input}`, then the earlier layer's
    outputs, one per line, if it has any."""
    prompt = spec.prompt.replace("{input}", query_text)
    if predecessor_outputs:
        prompt += "\n\nCandidate answers from earlier agents:\n" + "\n".join(
            f"- {out}" for out in predecessor_outputs
        )
    return prompt


def live_call(endpoint, model, temperature, rendered_prompt):
    """POST through `endpoint` (a `ChatEndpoint`) a chat completion that asks
    `model` at `temperature`, with `rendered_prompt` as its one user message;
    returns (content, prompt_tokens, completion_tokens). The status is judged
    before the body, and an error body is never parsed. A transport error (an
    `OSError`), 429 or 5xx is retried, up to MAX_ATTEMPTS calls in all, after
    an `endpoint.sleep` of BACKOFF_BASE_S seconds that doubles after each
    failure; any other status, a 200 whose body is not JSON, a malformed
    reply and any other exception raise at once."""
    payload = {
        "model": model,
        "temperature": temperature,
        "messages": [{"role": "user", "content": rendered_prompt}],
    }
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            status, body = endpoint.transport(endpoint.url, payload, endpoint.headers)
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
            endpoint.sleep(BACKOFF_BASE_S * (2**attempt))
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
        return float(text.strip())
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
