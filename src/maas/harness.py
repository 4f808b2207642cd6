"""Training and evaluation loops over a dataset."""

from __future__ import annotations

import json

import numpy as np

from . import checkpoint as ckpt
from . import sampler
from .data import load_dataset, split_dataset
from .embedding import HashingEmbedder
from .executor import execute
from .optimizer import TrainConfig, Trainer

EVAL_RNG_OFFSET = 1_000_003


def run_train(config: TrainConfig, dataset_path, env, checkpoint_path=None,
              metrics_path=None):
    """Train over the train split for config.iterations shuffled passes,
    patching with the mutator the config names as `Trainer` builds it.

    Returns (checkpoint dict, metrics line dicts).
    """
    records = load_dataset(dataset_path)
    train, _ = split_dataset(records, config.seed)
    trainer = Trainer.start(config, env)
    metrics = trainer.run(train, config.iterations)

    if metrics:
        tail = metrics[-len(train):]
        summary = {
            "steps": len(metrics),
            "final_mean_utility": sum(m["mean_utility"] for m in tail) / len(tail),
            "final_mean_cost": sum(m["mean_cost"] for m in tail) / len(tail),
        }
    else:
        summary = {"steps": 0}

    checkpoint = ckpt.build_checkpoint(trainer.state, trainer.registry, config,
                                       metrics_summary=summary)
    if checkpoint_path:
        ckpt.save(checkpoint, checkpoint_path)
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for m in metrics:
                fh.write(json.dumps(m, sort_keys=True) + "\n")
    return checkpoint, metrics


class Evaluator:
    """Deterministic eval of one checkpoint: its restored state, registry
    and config, one embedder whose memo embeds each profile text once, and
    the generator every execution draws from, seeded `config.seed +
    EVAL_RNG_OFFSET`. Restoring a bad checkpoint raises `DataError`."""

    def __init__(self, checkpoint):
        self.state, self.registry, self.config = ckpt.restore(checkpoint)
        self.embedder = HashingEmbedder(self.config.embed_dim)
        self.rng = np.random.default_rng(self.config.seed + EVAL_RNG_OFFSET)

    def select(self, text) -> sampler.Architecture:
        """The architecture the checkpoint selects for the query `text`."""
        return sampler.sample_architecture(self.state, self.registry, text,
                                           self.config.thres, sampler.MODE_EVAL,
                                           embedder=self.embedder)

    def query(self, record, env):
        """The trace of the architecture selected for `record` run on `env`."""
        return execute(self.select(record.query), record, env, self.registry, self.rng)


def run_eval(checkpoint, dataset_path, env) -> dict:
    """Evaluate every record in the dataset with deterministic selection;
    each figure is a mean over the records' traces, or one domain's."""
    evaluator = Evaluator(checkpoint)
    records = load_dataset(dataset_path)
    traces = [evaluator.query(record, env) for record in records]
    by_domain = {}
    for record, trace in zip(records, traces):
        by_domain.setdefault(record.domain, []).append(trace)
    full_depth = evaluator.config.num_layers + 1  # the depth of "never exited"
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
