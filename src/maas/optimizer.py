"""Joint supernet optimization.

Each training step samples K architectures for one query, executes them,
weights each sample by normalized utility minus a cost-penalty term, and
takes one likelihood-ratio ascent step on the controller parameters. The
query is embedded once per step and each operator profile text once per
run (`Trainer.profile_cache`), and each sample's gradient backpropagates
through the forward pass the sampler recorded, so every sampled layer runs
its scoring network once. On a fixed cadence the operator set itself is
revised through textual patches: either a deterministic mock mutator (used
by all automated tests) or an LLM-backed mutator that proposes
prompt/temperature/structure edits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from . import controller as ctl
from . import sampler
# layer_feature is unused here but kept importable: perfbench/tracer.py wraps
# it at every module that binds the name.
from .embedding import HashingEmbedder, layer_feature  # noqa: F401
from .errors import (
    DataError,
    MutatorUnavailable,
    NonpositiveCost,
    ShapeMismatch,
    StaleArchitecture,
    UnparseableMutation,
)
from .executor import execute, live_call
from .registry import KIND_EARLY_EXIT, KIND_GENERATIVE, OperatorPatch, OperatorSpec

MOCK_PATCH_SENTENCE = "\nDouble-check each intermediate step before answering."
TEMPERATURE_STEP = 0.1
TEMPERATURE_TARGET = 0.5


@dataclass
class TrainConfig:
    num_layers: int = 4
    thres: float = 0.3
    cost_lambda: float = 5e-3
    samples_k: int = 4
    lr: float = 0.05
    iterations: int = 1
    seed: int = 0
    patch_every: int | None = 10
    embed_dim: int = 64
    hidden_dim: int = 64
    mutator: str = "mock"

    def validate(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 < self.thres < 1.0:
            raise ValueError("thres must be in (0, 1)")
        if self.cost_lambda < 0.0:
            raise ValueError("cost_lambda must be >= 0")
        if self.samples_k < 2:
            raise ValueError("samples_k must be >= 2")
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        cfg = cls(**d)
        cfg.validate()
        return cfg


def importance_weights(utilities, costs, cost_lambda):
    """m_k = u_k / sum(u) - lambda * c_k / sum(c); all-failure batches use a
    uniform 1/K utility term so cost pressure survives."""
    utilities = [float(u) for u in utilities]
    costs = [float(c) for c in costs]
    if any(c <= 0.0 for c in costs):
        raise NonpositiveCost("all costs must be positive")
    k = len(utilities)
    u_sum = sum(utilities)
    c_sum = sum(costs)
    if u_sum > 0.0:
        u_terms = [u / u_sum for u in utilities]
    else:
        u_terms = [1.0 / k] * k
    return [u_terms[i] - cost_lambda * costs[i] / c_sum for i in range(k)]


def trace_gradients(state, arch):
    """Per-layer log-probability gradients for one sampled architecture,
    backpropagated through the forward passes recorded while sampling it."""
    if arch.params_version != state.version:
        raise StaleArchitecture("parameters changed since sampling")
    if len(arch.forward) != len(arch.selections):
        raise ValueError("architecture carries no recorded forward pass")
    return [
        ctl.backward(state, ell, score_vec, selected)
        for ell, (score_vec, selected) in enumerate(
            zip(arch.forward, arch.selections), start=1
        )
    ]


def update_distribution(state: ctl.SupernetState, log_prob_grads, weights, lr):
    """Ascent on the weighted selection log-likelihood: parameters move by
    (lr / K) * sum_k m_k * grad log p(arch_k). `log_prob_grads` holds one
    list of per-layer `LayerGrad`s per sample, as `trace_gradients` returns
    it, and `weights` one m_k per sample."""
    if len(weights) != len(log_prob_grads):
        raise ShapeMismatch("weights / gradients length mismatch")
    k = len(weights)
    deltas = {}
    for m_k, grads in zip(weights, log_prob_grads):
        for g in grads:
            acc = deltas.get(g.layer_index)
            if acc is None:
                deltas[g.layer_index] = ctl.LayerGrad(
                    m_k * g.W1, m_k * g.b1, m_k * g.W2, m_k * g.b2, g.layer_index
                )
            else:
                acc.W1 += m_k * g.W1
                acc.b1 += m_k * g.b1
                acc.W2 += m_k * g.W2
                acc.b2 += m_k * g.b2
    scale = lr / k
    for layer_index, g in deltas.items():
        ctrl = state.layer(layer_index)
        if ctrl.W1.shape != g.W1.shape or ctrl.W2.shape != g.W2.shape:
            raise ShapeMismatch(f"gradient shape mismatch at layer {layer_index}")
        ctrl.W1 += scale * g.W1
        ctrl.b1 += scale * g.b1
        ctrl.W2 += scale * g.W2
        ctrl.b2 += scale * g.b2
    state.bump_version()
    return state


def _success_rates(registry, traces):
    stats = {}
    for trace in traces:
        seen = {op_id for layer in trace.architecture.layers for op_id in layer}
        for op_id in seen:
            if op_id not in registry:
                continue  # merged away since this trace was recorded
            total, hits = stats.get(op_id, (0, 0))
            stats[op_id] = (total + 1, hits + (1 if trace.utility > 0 else 0))
    return {
        op_id: hits / total for op_id, (total, hits) in stats.items() if total > 0
    }


def mock_mutator(registry, traces):
    """Deterministic patch rule: take the executed operator with the lowest
    empirical success rate (ties to the lowest registry index), append a
    fixed double-check sentence to its prompt, and move its temperature one
    0.1 step toward 0.5. No-op patches are suppressed."""
    rates = _success_rates(registry, traces)
    if not rates:
        return []
    target_id = min(rates, key=lambda op_id: (rates[op_id], registry.index_of(op_id)))
    spec = registry.get(target_id)
    if spec.kind == KIND_EARLY_EXIT:
        return []
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
        return []
    return [
        OperatorPatch(
            target_id=target_id,
            new_prompt=new_prompt,
            new_temperature=new_temperature,
            rationale=(
                f"lowest empirical success rate ({rates[target_id]:.3f}) over"
                f" {len(traces)} recent traces"
            ),
        )
    ]


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
"new_temperature", "structure_action" (one of "none", "split", "merge", \
"rewire"), "merge_with_id". Propose prompt, temperature, or structure \
changes only; do not propose executable code.
"""

# The mutator's own chat call: the whole prompt is the input. Each mutator
# binds its model with `replace`.
MUTATOR_SPEC = OperatorSpec(
    id="mutator",
    name="Mutator",
    prompt="{input}",
    model_binding="default",
    temperature=1.0,
    tools=(),
    agent_count=1,
    profile_text="",
    kind=KIND_GENERATIVE,
)


class LLMMutator:
    """Textual-gradient mutator backed by a chat-completions endpoint."""

    def __init__(self, model="default", base_url=None, api_key=None, transport=None):
        import os

        self.model = model
        self.base_url = (base_url or os.environ.get("MAAS_BASE_URL", "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get("MAAS_API_KEY", "")
        self._transport = transport

    def __call__(self, registry, traces):
        if not self.base_url:
            raise MutatorUnavailable("no base URL configured for the LLM mutator")
        rates = _success_rates(registry, traces)
        failures = [
            {"operator_id": op_id, "success_rate": round(rate, 4)}
            for op_id, rate in sorted(rates.items(), key=lambda kv: kv[1])
        ]
        prompt = MUTATOR_PROMPT.format(
            archive=json.dumps(
                [s.to_dict() for s in registry.specs()], indent=2
            ),
            failures=json.dumps(failures, indent=2),
        )
        content, _, _ = live_call(
            replace(MUTATOR_SPEC, model_binding=self.model),
            prompt,
            base_url=self.base_url,
            api_key=self.api_key,
            transport=self._transport,
        )
        return [parse_mutation(content)]


def parse_mutation(reply_text) -> OperatorPatch:
    """Validate an LLM mutator reply into a patch; code fields are ignored."""
    try:
        data = json.loads(reply_text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise UnparseableMutation(f"reply is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UnparseableMutation("reply is not a JSON object")
    target = data.get("target_id") or data.get("target")
    if not target:
        raise UnparseableMutation("reply lacks target_id")
    temperature = data.get("new_temperature", data.get("temperature"))
    patch = OperatorPatch(
        target_id=str(target),
        new_prompt=data.get("new_prompt", data.get("prompt")),
        new_temperature=float(temperature) if temperature is not None else None,
        structure_action=data.get("structure_action", "none") or "none",
        merge_with_id=data.get("merge_with_id"),
        rationale=str(data.get("thought", data.get("rationale", ""))),
    )
    try:
        patch.validate()
    except Exception as exc:
        raise UnparseableMutation(str(exc)) from exc
    return patch


def textual_gradient(registry, traces, mutator="mock"):
    """Produce operator patches from a window of execution traces."""
    if not traces:
        return []
    if mutator == "mock":
        return mock_mutator(registry, traces)
    if callable(mutator):
        return mutator(registry, traces)
    raise MutatorUnavailable(f"unknown mutator {mutator!r}")


class Trainer:
    """Stateful training loop over (controller parameters, operator registry).

    Each step embeds its query once. The trainer owns one profile cache for
    its whole life (`profile_cache`, profile text -> read-only embedding) and
    passes it to every sample, so each distinct operator profile text is
    embedded once per run. Keyed on text, it needs no invalidation when a
    patch edits, splits or merges operators; it holds one entry per distinct
    profile text (patches leave profile texts alone, and split clones copy
    their parent's)."""

    def __init__(self, state, registry, env, config: TrainConfig, rng, embedder=None,
                 mutator=None):
        config.validate()
        self.state = state
        self.registry = registry
        self.env = env
        self.config = config
        self.rng = rng
        self.embedder = embedder if embedder is not None else HashingEmbedder(config.embed_dim)
        self.mutator = mutator if mutator is not None else config.mutator
        self.step_count = 0
        self.window = []
        self.profile_cache = {}

    def step(self, query) -> dict:
        cfg = self.config
        traces = []
        grads = []
        query_vec = self.embedder.embed(query.query)
        for _ in range(cfg.samples_k):
            arch = sampler.sample_architecture(
                self.state,
                self.registry,
                query.query,
                cfg.thres,
                sampler.MODE_TRAIN,
                self.rng,
                self.embedder,
                query_vec=query_vec,
                profile_cache=self.profile_cache,
            )
            trace = execute(arch, query, self.env, self.registry, self.rng)
            grads.append(trace_gradients(self.state, arch))
            traces.append(trace)

        weights = importance_weights(
            [t.utility for t in traces], [t.cost for t in traces], cfg.cost_lambda
        )
        update_distribution(self.state, grads, weights, cfg.lr)
        self.step_count += 1

        patches_applied = 0
        if self.mutator != "none" and cfg.patch_every is not None:
            # only the mutator reads the window: kept only while patching is on
            self.window.extend(traces)
            if self.step_count % cfg.patch_every == 0:
                patches_applied = self._apply_patches()
                self.window.clear()

        histogram = {}
        for t in traces:
            key = str(t.architecture.exit_layer) if t.architecture.exit_layer else "none"
            histogram[key] = histogram.get(key, 0) + 1
        return {
            "step": self.step_count,
            "query_id": query.id,
            "mean_utility": sum(t.utility for t in traces) / len(traces),
            "mean_cost": sum(t.cost for t in traces) / len(traces),
            "exit_histogram": histogram,
            "patches_applied": patches_applied,
        }

    def _apply_patches(self) -> int:
        """Apply the mutator's patches. An unparseable proposal, or a patch
        the registry rejects (leaving itself as it was), is skipped and not
        counted."""
        try:
            patches = textual_gradient(self.registry, self.window, self.mutator)
        except UnparseableMutation:
            return 0
        applied = 0
        for patch in patches:
            try:
                change = self.registry.apply_patch(patch)
            except DataError:
                continue
            if change is not None:
                if change.action == "split":
                    self.state.split_output(change.parent_index, self.rng)
                elif change.action == "merge":
                    self.state.merge_output(change.removed_index)
            applied += 1
        return applied
