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


def run_train(config: TrainConfig, dataset_path, env, mutator=None,
              checkpoint_path=None, metrics_path=None):
    """Train over the train split for config.iterations shuffled passes.

    Returns (checkpoint dict, metrics line dicts).
    """
    config.validate()
    records = load_dataset(dataset_path)
    train, _ = split_dataset(records, config.seed)

    registry = builtin_registry()
    state = init_params(
        config.seed, config.embed_dim, config.hidden_dim, config.num_layers,
        len(registry),
    )
    rng = np.random.default_rng(config.seed)
    trainer = Trainer(state, registry, env, config, rng, mutator=mutator)

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
        with open(metrics_path, "w") as fh:
            for m in metrics:
                fh.write(json.dumps(m, sort_keys=True) + "\n")
    return checkpoint, metrics


def run_eval(checkpoint, dataset_path, env) -> dict:
    """Evaluate every record in the dataset with deterministic selection."""
    state, registry, config = ckpt.restore(checkpoint)
    records = load_dataset(dataset_path)
    embedder = HashingEmbedder(config.embed_dim)
    rng = np.random.default_rng(config.seed + EVAL_RNG_OFFSET)

    full_depth = config.num_layers + 1  # depth bucket for "never exited"
    total_utility = 0.0
    total_cost = 0.0
    total_calls = 0
    exit_histogram = {}
    by_domain = {}
    for record in records:
        arch = sampler.sample_architecture(
            state, registry, record.query, config.thres, sampler.MODE_EVAL,
            embedder=embedder,
        )
        trace = execute(arch, record, env, registry, rng)
        depth = arch.exit_layer if arch.exit_layer is not None else full_depth
        key = str(arch.exit_layer) if arch.exit_layer is not None else "none"
        exit_histogram[key] = exit_histogram.get(key, 0) + 1
        total_utility += trace.utility
        total_cost += trace.cost
        total_calls += trace.llm_calls
        dom = by_domain.setdefault(
            record.domain,
            {"n": 0, "utility": 0.0, "cost": 0.0, "exit_depth": 0.0},
        )
        dom["n"] += 1
        dom["utility"] += trace.utility
        dom["cost"] += trace.cost
        dom["exit_depth"] += depth

    n = len(records)
    report = {
        "n_records": n,
        "accuracy": total_utility / n if n else 0.0,
        "mean_cost": total_cost / n if n else 0.0,
        "mean_llm_calls": total_calls / n if n else 0.0,
        "exit_histogram": exit_histogram,
        "by_domain": {
            dom: {
                "n": v["n"],
                "accuracy": v["utility"] / v["n"],
                "mean_cost": v["cost"] / v["n"],
                "mean_exit_depth": v["exit_depth"] / v["n"],
            }
            for dom, v in by_domain.items()
        },
    }
    return report
