"""Training and evaluation loops over a dataset."""

from __future__ import annotations

import json

import numpy as np

from . import checkpoint as ckpt
from . import sampler
from .controller import init_params
from .data import load_dataset, split_dataset
from .embedding import HashingEmbedder
from .executor import execute
from .optimizer import TrainConfig, Trainer
from .registry import builtin_registry

EVAL_RNG_OFFSET = 1_000_003


def run_train(config: TrainConfig, dataset_path, env, checkpoint_path=None,
              metrics_path=None):
    """Train over the train split for config.iterations shuffled passes,
    patching with the mutator the config names as `Trainer` builds it.

    Returns (checkpoint dict, metrics line dicts).
    """
    records = load_dataset(dataset_path)
    train, _ = split_dataset(records, config.seed)

    registry = builtin_registry()
    state = init_params(
        config.seed, config.embed_dim, config.hidden_dim, config.num_layers,
        len(registry),
    )
    rng = np.random.default_rng(config.seed)
    trainer = Trainer(state, registry, env, config, rng)

    metrics = []
    order_rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        for i in order_rng.permutation(len(train)):
            metrics.append(trainer.step(train[i]))

    if metrics:
        tail = metrics[-len(train):]
        summary = {
            "steps": len(metrics),
            "final_mean_utility": sum(m["mean_utility"] for m in tail) / len(tail),
            "final_mean_cost": sum(m["mean_cost"] for m in tail) / len(tail),
        }
    else:
        summary = {"steps": 0}

    checkpoint = ckpt.build_checkpoint(state, registry, config, metrics_summary=summary)
    if checkpoint_path:
        ckpt.save(checkpoint, checkpoint_path)
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for m in metrics:
                fh.write(json.dumps(m, sort_keys=True) + "\n")
    return checkpoint, metrics


def run_eval(checkpoint, dataset_path, env) -> dict:
    """Evaluate every record in the dataset with deterministic selection;
    each figure is a mean over the records' traces, or one domain's."""
    state, registry, config = ckpt.restore(checkpoint)
    records = load_dataset(dataset_path)
    embedder = HashingEmbedder(config.embed_dim)
    rng = np.random.default_rng(config.seed + EVAL_RNG_OFFSET)
    traces = [
        execute(sampler.sample_architecture(state, registry, record.query, config.thres,
                                            sampler.MODE_EVAL, embedder=embedder),
                record, env, registry, rng)
        for record in records
    ]
    by_domain = {}
    for record, trace in zip(records, traces):
        by_domain.setdefault(record.domain, []).append(trace)
    full_depth = config.num_layers + 1  # the depth of "never exited"
    return {
        "n_records": len(traces),
        "accuracy": _mean(t.utility for t in traces),
        "mean_cost": _mean(t.cost for t in traces),
        "mean_llm_calls": _mean(t.llm_calls for t in traces),
        "exit_histogram": sampler.exit_histogram(t.architecture for t in traces),
        "by_domain": {
            domain: {
                "n": len(ts),
                "accuracy": _mean(t.utility for t in ts),
                "mean_cost": _mean(t.cost for t in ts),
                # exit layers count from 1, so only None falls through
                "mean_exit_depth": _mean(t.architecture.exit_layer or full_depth
                                         for t in ts),
            }
            for domain, ts in by_domain.items()
        },
    }


def _mean(values):
    """The mean of the values, added in order; 0.0 for none."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
