"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed in `__init__` and
`next_input`, builds the program's state in `setup` (the part `setup_s`
times), runs one unit of work per `unit` call (a training step or an eval
query; the part the latency metrics time) and checks outputs in `check` and
`finish`, outside the timed calls. A check that fails counts the unit as
failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict

import numpy as np

from maas import checkpoint as ckpt
from maas import controller, data, harness, optimizer, sampler
from maas.embedding import HashingEmbedder
from maas.datagen import EASY_TEMPLATES, HARD_TEMPLATES, default_env
from maas.executor import LiveEnv, QueryRecord
from maas.registry import KIND_DIRECT_IO, KIND_EARLY_EXIT, builtin_registry

import stubs

DATASET = os.path.join("data", "synthetic_mix.jsonl")
OUT_DIR = os.path.join("perfbench", "out")
STUB_URL = "stub://backend"
LOG_PROB_TOL = 1e-9


def _no_sleep(seconds):
    pass


def _query_order(train, seed):
    """Endless seeded passes over the train split, one permutation per pass."""
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(train)):
            yield train[i]


class TrainMix:
    """`run_train`-style training: default `TrainConfig`, `default_env()`,
    mock mutator every 10 steps. The run is a series of episodes, each a
    fresh set-up trained for `episode_steps`; the seed orders the train
    split's queries, so every episode sees another order."""

    name = "train_mix"
    unit_label = "steps"
    setup_repeats = 1
    episode_steps = 200  # 20 passes over the 10-query train split
    quality_units = 1200  # the first six episodes give `accuracy` and `mean_cost`
    trace_units = 200
    snapshot_step = 100  # first-episode steps before the checkpoint sha256
    probe_every = 50

    def __init__(self, seed):
        self.seed = seed
        train, _ = data.split_dataset(data.load_dataset(DATASET), self.config().seed)
        self._queries = _query_order(train, seed)
        self.episodes = 0
        self.checkpoint_sha256 = None

    def config(self):
        return optimizer.TrainConfig()

    def make_env(self, train):
        return default_env(), None

    def setup(self):
        cfg = self.config()
        cfg.validate()
        train, _ = data.split_dataset(data.load_dataset(DATASET), cfg.seed)
        self.registry = builtin_registry()
        self.state = controller.init_params(
            cfg.seed, cfg.embed_dim, cfg.hidden_dim, cfg.num_layers, len(self.registry))
        env, mutator = self.make_env(train)
        self.trainer = optimizer.Trainer(
            self.state, self.registry, env, cfg, np.random.default_rng(cfg.seed),
            mutator=mutator)
        self.episodes += 1
        self._episode_units = 0

    def episode_done(self):
        return self._episode_units >= self.episode_steps

    def can_stop(self):
        return self.episode_done()

    def next_input(self):
        return next(self._queries)

    def unit(self, query):
        self._episode_units += 1  # before the step, so a step that raises counts
        return query, self.trainer.step(query)

    def quality(self, out):
        _, m = out
        return m["mean_utility"], m["mean_cost"]

    def check(self, out):
        query, m = out
        t = self.trainer
        ok = (m["step"] == t.step_count
              and sum(m["exit_histogram"].values()) == t.config.samples_k
              and 0.0 <= m["mean_utility"] <= 1.0
              and m["mean_cost"] > 0.0)
        if t.step_count % self.probe_every == 0:
            ok = self._probe(query) and ok
        if self.episodes == 1 and t.step_count == self.snapshot_step:
            ok = self._round_trip() and ok
            self.checkpoint_sha256 = self._sha
        return ok

    def finish(self):
        return 0 if self._round_trip() else 1

    def _probe(self, query):
        """A sample's recorded log-probability matches the recomputed one.
        The probe draws from its own generator, so training is unaffected."""
        t = self.trainer
        arch = sampler.sample_architecture(
            self.state, self.registry, query.query, t.config.thres, sampler.MODE_TRAIN,
            np.random.default_rng([self.seed, t.step_count]), t.embedder)
        lp = sampler.architecture_log_prob(
            self.state, self.registry, query.query, arch, t.embedder)
        return abs(lp - arch.log_prob) <= LOG_PROB_TOL

    def _round_trip(self):
        """save -> load -> restore -> save gives the same bytes."""
        t = self.trainer
        first = os.path.join(OUT_DIR, f"{self.name}-seed{self.seed}-a.json")
        second = os.path.join(OUT_DIR, f"{self.name}-seed{self.seed}-b.json")
        ckpt.save(ckpt.build_checkpoint(
            self.state, self.registry, t.config, {"steps": t.step_count}), first)
        loaded = ckpt.load(first)
        state, registry, config = ckpt.restore(loaded)
        ckpt.save(ckpt.build_checkpoint(
            state, registry, config, loaded["metrics_summary"]), second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            a, b = fa.read(), fb.read()
        self._sha = hashlib.sha256(a).hexdigest()
        return a == b


class SelfEditLive(TrainMix):
    """Training through `LiveEnv` and `LLMMutator` on the stub backends in
    `stubs`, with a patch round every other step."""

    name = "selfedit_live"

    def config(self):
        return optimizer.TrainConfig(patch_every=2, mutator="llm")

    def make_env(self, train):
        stub_seed = f"{self.seed}-{self.episodes}"
        self.backend = stubs.OperatorBackend(stub_seed, train, self.registry)
        splittable = [s.id for s in self.registry.specs()
                      if s.kind not in (KIND_EARLY_EXIT, KIND_DIRECT_IO)]
        env = LiveEnv(base_url=STUB_URL, api_key="", transport=self.backend,
                      sleep=_no_sleep)
        mutator = optimizer.LLMMutator(
            model="mutator", base_url=STUB_URL, api_key="",
            transport=stubs.MutatorBackend(stub_seed, splittable))
        return env, mutator

    def check(self, out):
        ok = super().check(out)
        if self.trainer.step_count % self.trainer.config.patch_every == 0:
            kinds = [s.kind for s in self.registry.specs()]
            ok = (ok
                  and kinds.count(KIND_EARLY_EXIT) == 1
                  and kinds.count(KIND_DIRECT_IO) == 1
                  and all(layer.W2.shape[0] == len(self.registry)
                          for layer in self.state.layers)
                  and self.state.n_ops == len(self.registry))
        return ok


class EvalFresh:
    """Deterministic eval, as `harness.run_eval` does it, of a checkpoint
    trained in set-up, on seed-generated queries that never repeat."""

    name = "eval_fresh"
    unit_label = "queries"
    setup_repeats = 3
    train_iterations = 100  # enough for easy queries to exit at layer 1
    quality_units = 4000
    trace_units = 3000
    cross_check_units = 200  # first queries re-run through `run_eval`

    def __init__(self, seed):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._base = int(self._rng.integers(10**3, 10**6))
        self._count = itertools.count()
        self._first = []
        self._first_utility = 0.0
        self._first_cost = 0.0
        self.checkpoint_sha256 = None

    def setup(self):
        path = os.path.join(OUT_DIR, f"{self.name}-checkpoint.json")
        harness.run_train(optimizer.TrainConfig(iterations=self.train_iterations),
                          DATASET, default_env(), checkpoint_path=path)
        self.checkpoint = ckpt.load(path)
        self.state, self.registry, self.config = ckpt.restore(self.checkpoint)
        self.embedder = HashingEmbedder(self.config.embed_dim)
        self.env = default_env()
        self.rng = np.random.default_rng(self.config.seed + harness.EVAL_RNG_OFFSET)
        with open(path, "rb") as fh:
            self.checkpoint_sha256 = hashlib.sha256(fh.read()).hexdigest()

    def episode_done(self):
        return False

    def can_stop(self):
        return True

    def next_input(self):
        """Alternately an easy and a hard query. The first operand counts up
        from a seeded base of at least 1000, so no text repeats within a run
        or matches the shipped mix."""
        i = next(self._count)
        hard = i % 2 == 1
        templates = HARD_TEMPLATES if hard else EASY_TEMPLATES
        a, b = self._base + i, int(self._rng.integers(2, 10**6))
        return QueryRecord(
            id=f"fresh-{i:06d}",
            query=templates[(i // 2) % len(templates)].format(a=a, b=b),
            answer=str((a * 7 + b) % 97 if hard else a + b),
            domain="hard" if hard else "easy", difficulty=0.9 if hard else 0.1)

    def unit(self, record):
        arch = harness.sampler.sample_architecture(
            self.state, self.registry, record.query, self.config.thres,
            sampler.MODE_EVAL, embedder=self.embedder)
        return record, arch, harness.execute(arch, record, self.env, self.registry, self.rng)

    def quality(self, out):
        trace = out[2]
        return trace.utility, trace.cost

    def check(self, out):
        record, arch, trace = out
        if arch.exit_layer == 1:
            shape_ok = arch.layers == [[self.registry.direct_io_id]]
        elif arch.exit_layer is not None:
            shape_ok = len(arch.layers) == arch.exit_layer - 1
        else:
            shape_ok = len(arch.layers) == self.config.num_layers
        if len(self._first) < self.cross_check_units:
            self._first.append(record)
            self._first_utility += trace.utility
            self._first_cost += trace.cost
        return (shape_ok
                and trace.utility == float(trace.final_answer == record.answer)
                and trace.cost > 0.0
                and trace.llm_calls >= 1)

    def finish(self):
        """`run_eval` over the first queries must count every one of them in
        its record count and exit histogram, and reproduce the loop's totals
        (both draw from the same fresh eval generator)."""
        path = os.path.join(OUT_DIR, f"{self.name}-seed{self.seed}.jsonl")
        with open(path, "w") as fh:
            for record in self._first:
                fh.write(json.dumps(asdict(record)) + "\n")
        report = harness.run_eval(self.checkpoint, path, default_env())
        n = len(self._first)
        ok = (report["n_records"] == n
              and sum(report["exit_histogram"].values()) == n
              and abs(report["accuracy"] * n - self._first_utility) < 1e-9
              and abs(report["mean_cost"] * n - self._first_cost) < 1e-6)
        return 0 if ok else n


WORKLOADS = {w.name: w for w in (TrainMix, EvalFresh, SelfEditLive)}
