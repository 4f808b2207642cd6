"""Joint supernet optimization.

Each training step samples K architectures for one query, executes them,
weights each sample by normalized utility minus a cost-penalty term, and
takes one likelihood-ratio ascent step on the controller parameters. Each
query text and each operator profile text is embedded once per run
(through the embedder's memo); layer 1 is scored once per step and its
forward pass shared by the K samples; and the gradient backpropagates
through the forward passes the sampler recorded, with one backward per
layer over the rows of every sample that reached it, into the state's
flat gradient vector. So every sampled layer runs its scoring network
once, and the update is one scale and one add over the reached prefix of
the flat parameter and gradient vectors. On a fixed cadence the
operator set itself is revised through a textual patch: a mutator reads
the `(layers, utility)` pairs of the traces since the last round and
proposes one `OperatorPatch` or None, either by a deterministic rule (the
mock mutator, used by all automated tests) or through an LLM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import controller as ctl
from . import kernels, sampler
# layer_feature is unused here but kept importable: perfbench/tracer.py wraps
# it at every module that binds the name.
from .embedding import HashingEmbedder, layer_feature  # noqa: F401
from .errors import BackendError, DataError, MaasError, check_fields
from .executor import execute, live_call, resolve_endpoint
from .registry import OperatorPatch, builtin_registry

MOCK_PATCH_SENTENCE = "\nDouble-check each intermediate step before answering."
TEMPERATURE_STEP = 0.1
TEMPERATURE_TARGET = 0.5
MUTATORS = ("mock", "llm", "none")  # the names `TrainConfig.mutator` may hold
MUTATOR_TEMPERATURE = 1.0  # the LLM mutator's sampling temperature


@dataclass(frozen=True)
class TrainConfig:
    num_layers: int = 4
    thres: float = 0.3
    cost_lambda: float = 5e-3
    samples_k: int = 4
    lr: float = 0.05
    iterations: int = 1
    seed: int = 0
    patch_every: int = 10
    embed_dim: int = 64
    hidden_dim: int = 64
    mutator: str = "mock"

    def __post_init__(self):
        self.validate()

    def validate(self):
        """`DataError` unless every field has its type and its range."""
        check_fields(self)
        for name in ("num_layers", "patch_every", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if not 0.0 < self.thres < 1.0:
            raise DataError("thres must be in (0, 1)")
        if self.cost_lambda < 0.0:
            raise DataError("cost_lambda must be >= 0")
        if self.samples_k < 2:
            raise DataError("samples_k must be >= 2")
        if self.lr <= 0.0:
            raise DataError("lr must be > 0")
        if self.iterations < 0:
            raise DataError("iterations must be >= 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if self.mutator not in MUTATORS:
            raise DataError(f"mutator {self.mutator!r} is not one of {MUTATORS}")


def importance_weights(utilities, costs, cost_lambda):
    """m_k = u_k / sum(u) - lambda * c_k / sum(c); all-failure batches use a
    uniform 1/K utility term so cost pressure survives."""
    utilities = [float(u) for u in utilities]
    costs = [float(c) for c in costs]
    if any(c <= 0.0 for c in costs):
        raise MaasError("all costs must be positive")
    k = len(utilities)
    u_sum = sum(utilities)
    c_sum = sum(costs)
    if u_sum > 0.0:
        u_terms = [u / u_sum for u in utilities]
    else:
        u_terms = [1.0 / k] * k
    return [u_terms[i] - cost_lambda * costs[i] / c_sum for i in range(k)]


def trace_gradients(state, archs, weights):
    """sum_k m_k * grad log p(arch_k) as one `LayerController` per layer any
    sample reached, in layer order, backpropagated through the forward passes
    recorded while sampling. Each layer stacks one row per sample that
    reached it (feature, hidden state and m_k times the logit gradient) and
    runs one backward. The returned arrays are views of `state.grad` (its
    `grads`), valid until the next backward into it. A sample reaches every
    layer up to its last, so the layers returned are always the first few."""
    rows = {}  # layer index -> [(feature, hidden, m_k * g_logits)], layers ascending
    for arch, m_k in zip(archs, weights):
        if arch.params_version != state.version:
            raise MaasError("parameters changed since sampling")
        if len(arch.forward) != len(arch.selections):
            raise MaasError("architecture carries no recorded forward pass")
        for ell, (score_vec, selected) in enumerate(
                zip(arch.forward, arch.selections), start=1):
            g_logits = kernels.pl_grad_logits(score_vec.scores, selected)
            rows.setdefault(ell, []).append(
                (score_vec.feature, score_vec.hidden, [m_k * g for g in g_logits]))
    grads = []
    for ell, layer_rows in rows.items():
        X, H, G = (np.array(col) for col in zip(*layer_rows))
        grad = state.grads[ell - 1]
        kernels.ffn_backward(state.layer(ell).W2, X, H, G, out=grad.param_arrays())
        grads.append(grad)
    return grads


def update_distribution(state: ctl.SupernetState, archs, weights, lr):
    """Ascent on the weighted selection log-likelihood: parameters move by
    (lr / K) * sum_k m_k * grad log p(arch_k), for the K sampled
    architectures `archs` and one m_k per sample in `weights`. The layers
    reached are a prefix, so one scale and one add over the front of
    `state.grad` and `state.params` move them all, and leave the rest as
    they were."""
    if len(weights) != len(archs):
        raise MaasError("weights / architectures length mismatch")
    reached = len(trace_gradients(state, archs, weights))  # layers 1..reached
    end = state.offsets[reached]
    grad = state.grad[:end]
    grad *= lr / len(weights)
    state.params[:end] += grad
    state.bump_version()
    return state


def _success_rates(registry, window):
    stats = {}
    for layers, utility in window:
        # in drawn order, so that rates tied in the LLM mutator's failure
        # summary keep an order that no hash seed moves
        seen = dict.fromkeys(op_id for layer in layers for op_id in layer)
        for op_id in seen:
            if op_id not in registry:
                continue  # merged away since this trace was recorded
            total, hits = stats.get(op_id, (0, 0))
            stats[op_id] = (total + 1, hits + (1 if utility > 0 else 0))
    return {op_id: hits / total for op_id, (total, hits) in stats.items()}


def mock_mutator(registry, window):
    """Deterministic patch rule: take the executed operator with the lowest
    empirical success rate (ties to the lowest registry index), append a
    fixed double-check sentence to its prompt, and move its temperature one
    0.1 step toward 0.5. None in place of a no-op patch."""
    rates = _success_rates(registry, window)
    if not rates:
        return None
    target_id = min(rates, key=lambda op_id: (rates[op_id], registry.index_of(op_id)))
    spec = registry.get(target_id)
    new_prompt = None
    if MOCK_PATCH_SENTENCE not in spec.prompt:
        new_prompt = spec.prompt + MOCK_PATCH_SENTENCE
    new_temperature = None
    if abs(spec.temperature - TEMPERATURE_TARGET) > 1e-9:
        if spec.temperature > TEMPERATURE_TARGET:
            stepped = max(spec.temperature - TEMPERATURE_STEP, TEMPERATURE_TARGET)
        else:
            stepped = min(spec.temperature + TEMPERATURE_STEP, TEMPERATURE_TARGET)
        new_temperature = round(stepped, 10)
    if new_prompt is None and new_temperature is None:
        return None
    return OperatorPatch(
        target_id=target_id,
        new_prompt=new_prompt,
        new_temperature=new_temperature,
        rationale=(
            f"lowest empirical success rate ({rates[target_id]:.3f}) over"
            f" {len(window)} recent traces"
        ),
    )


MUTATOR_PROMPT = """\
# Overview
You are an expert machine learning researcher specializing in designing \
agentic systems. Your objective is to improve the building blocks (prompts, \
temperatures, and operator structure) of a layered multi-agent system so it \
performs better on the observed failures.

# Current operator archive
{archive}

# Recent failure summary
{failures}

# Output instruction
Reply with a single JSON object with keys "thought" (your analysis), \
"target_id" (the operator to revise), and any of "new_prompt", \
"new_temperature", "structure_action" (one of "none", "split", "merge"), \
"merge_with_id". Propose prompt, temperature, or structure \
changes only; do not propose executable code.
"""

class LLMMutator:
    """Textual-gradient mutator backed by a chat-completions endpoint. Its
    prompt is `MUTATOR_PROMPT` holding the registry's operators as
    `json.dumps([s.to_dict() for s in specs], indent=2)` gives them and the
    executed operators' success rates, lowest first. The JSON of each
    operator is rendered once and reused while the registry holds that spec
    object: specs are frozen, so the text cannot go stale, and only specs
    the registry still holds are kept. Each call asks `model` at
    `MUTATOR_TEMPERATURE`. It raises `BackendError` at construction when
    `resolve_endpoint` finds no base URL, and when a call fails as
    `live_call` says; a reply that does not parse raises `DataError`."""

    def __init__(self, model="default", base_url=None, api_key=None, transport=None):
        self.model = model
        self.base_url, self.api_key = resolve_endpoint(base_url, api_key)
        self._transport = transport
        # id(spec) -> (spec, its JSON as an entry of the indented list); keyed
        # on identity, since equal specs can render differently (-0.0 and 0.0),
        # and holding the spec so that its id cannot be reused
        self._rendered = {}

    def archive(self, specs):
        """`json.dumps([s.to_dict() for s in specs], indent=2)`, built from
        one cached rendering per spec."""
        rendered, texts = {}, []
        for spec in specs:
            entry = self._rendered.get(id(spec))
            if entry is None:
                text = json.dumps(spec.to_dict(), indent=2)
                entry = (spec, text.replace("\n", "\n  "))
            rendered[id(spec)] = entry
            texts.append(entry[1])
        self._rendered = rendered
        return "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"

    def __call__(self, registry, window):
        rates = _success_rates(registry, window)
        failures = [
            {"operator_id": op_id, "success_rate": round(rate, 4)}
            for op_id, rate in sorted(rates.items(), key=lambda kv: kv[1])
        ]
        prompt = MUTATOR_PROMPT.format(
            archive=self.archive(registry.specs()),
            failures=json.dumps(failures, indent=2),
        )
        content, _, _ = live_call(
            self.model,
            MUTATOR_TEMPERATURE,
            prompt,
            base_url=self.base_url,
            api_key=self.api_key,
            transport=self._transport,
        )
        return parse_mutation(content)


def parse_mutation(reply_text) -> OperatorPatch:
    """The patch in an LLM mutator reply, one JSON object with the keys
    `MUTATOR_PROMPT` asks for; other keys, code among them, are ignored, and
    a missing, null or empty "structure_action" is "none". A reply that is not
    such an object, or that no `OperatorPatch` can hold, raises `DataError`."""
    try:  # bad JSON, an int of too many digits, or nesting past the recursion limit
        data = json.loads(reply_text)
    except (ValueError, TypeError, RecursionError) as exc:
        raise DataError(f"reply is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("reply is not a JSON object")
    keys = ("target_id", "new_prompt", "new_temperature", "merge_with_id")
    return OperatorPatch(**{key: data.get(key) for key in keys},
                         structure_action=data.get("structure_action") or "none",
                         rationale=data.get("thought", ""))


def textual_gradient(registry, window, mutator):
    """The patch `mutator(registry, window)` proposes from a window of
    `(layers, utility)` pairs, or None; None from an empty window."""
    return mutator(registry, window) if window else None


class Trainer:
    """Stateful training loop over (controller parameters, operator registry).

    The trainer owns one embedder for its whole life and embeds query texts
    and operator profile texts through its memo, so each distinct text is
    embedded once per run. Each step scores layer 1 once and hands that
    forward pass to its K samples. Keyed on text, the memo needs no
    invalidation when a patch edits, splits or merges operators, and patches
    add no profile text (split clones copy their parent's). It builds the
    mutator its config names ("mock" as `mock_mutator`, "llm" as
    `LLMMutator()`) unless a callable `mutator` replaces it, and patches
    every `patch_every` steps; "none", the one off switch, ignores a passed
    `mutator`. Any other `mutator` but None raises `BackendError`."""

    def __init__(self, state, registry, env, config: TrainConfig, rng, mutator=None):
        self.state = state
        self.registry = registry
        self.env = env
        self.config = config
        self.rng = rng
        self.embedder = HashingEmbedder(config.embed_dim)
        if mutator is not None and not callable(mutator):
            raise BackendError(f"mutator {mutator!r} is not callable")
        patching = config.mutator != "none"
        if patching and mutator is None:
            mutator = mock_mutator if config.mutator == "mock" else LLMMutator()
        self.mutator = mutator if patching else None
        self.step_count = 0
        self.window = []

    @classmethod
    def start(cls, config: TrainConfig, env, mutator=None):
        """A trainer on `env` at the start of a run: the builtin registry,
        `init_params` at `config.seed` sized by the config and that registry,
        and a sampling generator seeded `config.seed`."""
        registry = builtin_registry()
        state = ctl.init_params(config.seed, config.embed_dim, config.hidden_dim,
                                config.num_layers, len(registry))
        return cls(state, registry, env, config, np.random.default_rng(config.seed),
                   mutator=mutator)

    def run(self, train, iterations) -> list:
        """The metric dicts of `iterations` passes over the records `train`,
        one `step` each, every pass in a shuffled order. The orders come from
        a generator made anew per call and seeded `config.seed`, as the one
        `start` samples from is, so the two draw the same stream."""
        order_rng = np.random.default_rng(self.config.seed)
        return [self.step(train[i]) for _ in range(iterations)
                for i in order_rng.permutation(len(train))]

    def step(self, query) -> dict:
        cfg = self.config
        traces = []
        first = ctl.score_layer(self.state, 1, self.embedder.embed_memo(query.query))
        for _ in range(cfg.samples_k):
            arch = sampler.sample_architecture(
                self.state,
                self.registry,
                query.query,
                cfg.thres,
                sampler.MODE_TRAIN,
                self.rng,
                self.embedder,
                first=first,
            )
            traces.append(execute(arch, query, self.env, self.registry, self.rng))

        weights = importance_weights(
            [t.utility for t in traces], [t.cost for t in traces], cfg.cost_lambda
        )
        update_distribution(
            self.state, [t.architecture for t in traces], weights, cfg.lr
        )
        self.step_count += 1

        patches_applied = 0
        if self.mutator is not None:
            # only the mutator reads the window: kept only while patching is on
            self.window.extend((t.architecture.layers, t.utility) for t in traces)
            if self.step_count % cfg.patch_every == 0:
                patches_applied = self._apply_patch()
                self.window.clear()

        return {
            "step": self.step_count,
            "query_id": query.id,
            "mean_utility": sum(t.utility for t in traces) / len(traces),
            "mean_cost": sum(t.cost for t in traces) / len(traces),
            "exit_histogram": sampler.exit_histogram(t.architecture for t in traces),
            "patches_applied": patches_applied,
        }

    def _apply_patch(self) -> int:
        """1 if the mutator's patch was applied, else 0. A proposal that does
        not parse, or a patch the registry rejects (leaving itself as it
        was), raises `DataError`, so it is skipped and not counted: a
        mutator's reply is input from outside the program and must not end
        the run."""
        try:
            patch = textual_gradient(self.registry, self.window, self.mutator)
            if patch is None:
                return 0
            moved = self.registry.apply_patch(patch)
        except DataError:
            return 0
        if patch.structure_action == "split":
            self.state.split_output(moved, self.rng)
        elif patch.structure_action == "merge":
            self.state.merge_output(moved)
        return 1
