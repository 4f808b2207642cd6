"""maas benchmark: training steps and eval queries, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_mix --seed 1 --seconds 25 --trace 0

Workloads (see `workloads.py`):

- `train_mix`: `run_train`-style training on `data/synthetic_mix.jsonl`.
  Read-heavy: 19 distinct texts are embedded about 60 times per step.
- `eval_fresh`: deterministic eval of a checkpoint trained in set-up, on
  seed-generated queries that never repeat, half easy and half hard.
- `selfedit_live`: training through `LiveEnv` and `LLMMutator` on in-process
  stub backends, patching every other step. The registry, the controller's
  row count and `state.version` change under the reads.

Each workload is one process with one BLAS/OpenMP thread and a single
closed-loop caller: the next step or query starts when the previous one has
returned. A unit of work is a training step on the training workloads and an
eval query on `eval_fresh`, so one metric name covers both:
`throughput_per_s` is train steps/s or eval queries/s. The training
workloads run a series of 200-step episodes, each from a fresh set-up, and
stop at the end of an episode. Every time is scaled to a reference machine
speed (see `refspeed.py`); the raw times are printed on the `info` line.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs a fixed number of
units twice on identical inputs, first untraced and then with a span around
every call into each layer (wrapped from `tracer.py`, nothing inside `src/`),
and prints the per-layer metrics plus `trace.overhead_frac`. The spans are
written to `perfbench/out/`.

`kernels.share` and the `phase.*.share` figures are shares of the traced
wall, which includes the tracer's own cost (`trace.overhead_frac`, about
5-11%), so they read low by up to that much. A wrapper's own cost also lands in its
caller's self time: phases whose spans call traced children (score,
execute, grad) read slightly high, and `sampler.sample_architecture.self_s`,
in no phase, holds the wrapper cost of the many embed and score calls under
it. Neither the untraced copy's wall nor the traced wall over
`1 + trace.overhead_frac` is a steadier denominator: each copy is scaled by
the reference timings around its own ten or so chunks, which differ between
the copies by up to a quarter, and on `eval_fresh` the raw overhead itself
swings by several percent either way.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A unit that raises or fails an
output check counts in `failed`, so `failed / attempted` is the failed share
(printed as `failed_frac`; it is no metric of its own because it is 0 on a
healthy run).

Two figures are deliberately not metrics: the tier-1 test wall time (277 s on
a 2-vCPU Xeon at 2.0 GHz, too long to repeat per check; `throughput_per_s` on
`train_mix` stands in for it) and the line count of `src/` (every feature
change would read as a regression).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
from array import array
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import refspeed

WARMUP_UNITS = 20  # run and checked, but left out of the timings
MIN_TIMED_UNITS = 1000  # so that at least ten timings lie beyond p99
SETUP_REF_REPEATS = 3
MAX_TRACEBACKS = 3

# Per-layer metrics read straight off the spans: "<span name>.<field>".
SPAN_FIELD_UNITS = {"calls": "count", "failed": "count", "self_s": "s"}
LOOP_SPAN_METRICS = (
    "embedding.embed.calls", "embedding.embed.self_s", "embedding.layer_feature.self_s",
    "sampler.sample_architecture.calls", "sampler.sample_architecture.self_s",
    "sampler.build_dag.self_s",
    "controller.score_layer.calls", "controller.score_layer.self_s",
    "controller.sample_selection.self_s", "controller.select_deterministic.self_s",
    "controller.selection_log_prob.self_s",
    "controller.grad_log_prob.calls", "controller.grad_log_prob.self_s",
    "controller.split_output.calls", "controller.merge_output.calls",
    "kernels.ffn_forward.self_s", "kernels.softmax.self_s",
    "kernels.pl_grad_logits.self_s", "kernels.ffn_backward.self_s",
    "executor.execute.calls", "executor.execute.self_s", "executor.run_node.calls",
    "executor.render_prompt.self_s", "executor.live_call.calls", "executor.live_call.self_s",
    "optimizer.trace_gradients.self_s", "optimizer.importance_weights.self_s",
    "optimizer.update_distribution.self_s", "optimizer.textual_gradient.calls",
    "optimizer.textual_gradient.self_s", "optimizer.parse_mutation.calls",
    "registry.apply_patch.calls", "registry.apply_patch.failed", "registry.apply_patch.self_s",
)
# Set-up layers, read off the spans of the traced set-up.
SETUP_SPAN_METRICS = (
    "checkpoint.build_checkpoint.self_s", "checkpoint.dumps.self_s", "data.load_dataset.self_s",
)

# What each end-to-end metric measures on each workload, printed beside it.
TRAIN_NAMES = {
    "throughput_per_s": "train_steps_per_s",
    "latency_p50_ms": "train_step_p50_ms",
    "latency_p99_ms": "train_step_p99_ms",
    "accuracy": "train_mean_utility",
    "mean_cost": "train_mean_cost",
}
REPORT_NAMES = {
    "train_mix": TRAIN_NAMES,
    "selfedit_live": TRAIN_NAMES,
    "eval_fresh": {
        "throughput_per_s": "eval_queries_per_s",
        "latency_p50_ms": "eval_query_p50_ms",
        "latency_p99_ms": "eval_query_p99_ms",
        "accuracy": "eval_accuracy",
        "mean_cost": "eval_mean_cost",
    },
}


class Loop:
    """One closed-loop caller. Keeps each unit's raw duration and the factor
    that scales it to the reference speed (see `refspeed`)."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.durations = array("d")  # arrays keep the benchmark's own memory small
        self.factors = array("d")
        self.setup_raw = []
        self.setup_factors = []
        self.attempted = 0
        self.failed = 0
        self.utility = 0.0
        self.cost = 0.0
        self.quality_n = 0
        self._ref_before = refspeed.sample(SETUP_REF_REPEATS)

    def setup(self):
        tracer = self.tracer
        gc.collect()
        if tracer is not None:
            tracer.unit = -1
            tracer.begin(tracer.setup_stage)
        t0 = time.perf_counter()
        self.w.setup()
        self.setup_raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.begin(None)
        after = refspeed.sample(SETUP_REF_REPEATS)
        self.setup_factors.append(refspeed.factor(self._ref_before, after))
        self._ref_before = after

    def run_chunk(self, max_units=None):
        """Units for about `refspeed.CHUNK_S`, stopping early at `max_units`
        or the end of an episode, then one reference timing."""
        start = len(self.durations)
        t_end = time.perf_counter() + refspeed.CHUNK_S
        while (time.perf_counter() < t_end and not self.w.episode_done()
               and (max_units is None or len(self.durations) - start < max_units)):
            self._run_one()
        after = refspeed.sample()
        self.factors.extend([refspeed.factor(self._ref_before, after)]
                            * (len(self.durations) - start))
        self._ref_before = after

    def _run_one(self):
        w, tracer = self.w, self.tracer
        inp = w.next_input()
        if tracer is not None:
            tracer.unit = self.attempted
            tracer.begin(tracer.loop_stage)
        t0 = time.perf_counter()
        try:
            out = w.unit(inp)
        except Exception:
            out = None
            self._report_error()
        self.durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.begin(None)
        self.attempted += 1
        ok = out is not None and self._checked(out)
        if not ok:
            self.failed += 1
        elif self.quality_n < w.quality_units:
            u, c = w.quality(out)
            self.utility += u
            self.cost += c
            self.quality_n += 1

    def advance(self, target):
        """One chunk toward `target` units in all, setting up again first if
        an episode has ended."""
        if self.attempted >= target:
            return
        if self.w.episode_done():
            self.setup()
        self.run_chunk(target - self.attempted)

    def scaled(self, first=0):
        return [d * f for d, f in zip(self.durations[first:], self.factors[first:])]

    def _checked(self, out):
        try:
            return bool(self.w.check(out))
        except Exception:
            self._report_error()
            return False

    def _report_error(self):
        if self.failed < MAX_TRACEBACKS:
            traceback.print_exc(file=sys.stderr)

    def finish(self):
        try:
            self.failed += self.w.finish()
        except Exception:
            self._report_error()
            self.failed += 1


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_untraced(cls, seed, seconds):
    """Units until `seconds` have passed, at least `min_units` are done and
    the current episode is complete."""
    loop = Loop(cls(seed))
    w = loop.w
    for _ in range(cls.setup_repeats):
        loop.setup()
    min_units = WARMUP_UNITS + max(MIN_TIMED_UNITS, cls.quality_units)
    deadline = time.perf_counter() + seconds
    while not (loop.attempted >= min_units and time.perf_counter() >= deadline
               and w.can_stop()):
        if w.episode_done():
            loop.setup()
        loop.run_chunk()
    loop.finish()

    timed = loop.scaled(WARMUP_UNITS)
    raw = loop.durations[WARMUP_UNITS:]
    setups = [d * f for d, f in zip(loop.setup_raw, loop.setup_factors)]
    metrics = {
        "throughput_per_s": (len(timed) / sum(timed), "1/s"),
        "latency_p50_ms": (_percentile(timed, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(timed, 0.99) * 1e3, "ms"),
        "accuracy": (loop.utility / loop.quality_n, "frac"),
        "mean_cost": (loop.cost / loop.quality_n, "cost"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "timed_units": len(timed),
        "quality_units": loop.quality_n,
        "setups": len(setups),
        "checkpoint_sha256": w.checkpoint_sha256,
        "raw": {
            "throughput_per_s": len(raw) / sum(raw),
            "latency_p50_ms": _percentile(raw, 0.50) * 1e3,
            "latency_p99_ms": _percentile(raw, 0.99) * 1e3,
            "setup_s": statistics.median(loop.setup_raw),
        },
        "speed_factor_median": statistics.median(loop.factors),
    }
    return [loop], metrics, info


def run_traced(cls, seed):
    """The same units twice from the same seed, one copy untraced and one
    traced, in alternating chunks so that both meet the same machine."""
    import tracer as tr
    from workloads import OUT_DIR

    tracer = tr.Tracer()
    plain, traced = Loop(cls(seed)), Loop(cls(seed), tracer)
    plain.setup()
    with tracer.installed():
        traced.setup()
    n = cls.trace_units
    while plain.attempted < n or traced.attempted < n:
        plain.advance(n)
        with tracer.installed():
            traced.advance(n)
    plain.finish()
    traced.finish()

    loop_stage, setup_stage = tracer.loop_stage, tracer.setup_stage
    spans, phase_s = tr.summarize(loop_stage, traced.factors)
    setup_spans, _ = tr.summarize(setup_stage, [], statistics.median(traced.setup_factors))
    wall = sum(traced.scaled())
    units = traced.attempted
    w2 = traced.w

    def value(key, source):
        span, field = key.rsplit(".", 1)
        return (source.get(span, {}).get(field, 0), SPAN_FIELD_UNITS[field])

    metrics = {key: value(key, spans) for key in LOOP_SPAN_METRICS}
    metrics.update({key: value(key, setup_spans) for key in SETUP_SPAN_METRICS})
    embed_calls = metrics["embedding.embed.calls"][0]
    kernel_s = sum(v for k, (v, _) in metrics.items() if k.startswith("kernels."))
    metrics.update({
        "embedding.embed.repeat_frac": (loop_stage.embed_repeats / max(1, embed_calls), "frac"),
        "sampler.depth_mean": (statistics.fmean(loop_stage.depths or [0]), "layers"),
        "kernels.ffn_forward.per_step": (
            spans.get("kernels.ffn_forward", {}).get("calls", 0) / units, "count"),
        "kernels.share": (kernel_s / wall, "frac"),
        # only the stub backend of selfedit_live answers with errors to retry
        "executor.live_call.retries": (getattr(getattr(w2, "backend", None), "failures", 0),
                                       "count"),
        "registry.max_prompt_chars": (
            max(loop_stage.max_prompt_chars,
                max(len(s.prompt) for s in w2.registry.specs())), "chars"),
    })
    for phase, seconds in phase_s.items():
        metrics[f"phase.{phase}.share"] = (seconds / wall, "frac")
    metrics["trace.overhead_frac"] = (sum(traced.durations) / sum(plain.durations) - 1.0,
                                      "frac")

    trace_path = os.path.join(OUT_DIR, f"trace-{cls.name}-seed{seed}.json")
    tr.write(trace_path, {"setup": setup_stage, "loop": loop_stage})
    info = {"traced_units": units, "spans": len(loop_stage) + len(setup_stage),
            "trace_file": trace_path, "checkpoint_sha256": w2.checkpoint_sha256}
    return [plain, traced], metrics, info


def environment():
    import numpy

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "process_threads": threads,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/maas/__init__.py", "data/synthetic_mix.jsonl"):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} not found; run from the root of a maas checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    if args.trace:
        loops, metrics, info = run_traced(cls, args.seed)
    else:
        loops, metrics, info = run_untraced(cls, args.seed, args.seconds)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)

    names = REPORT_NAMES[cls.name]
    for key, (value, unit) in metrics.items():
        alias = f" ({names[key]})" if key in names else ""
        print(f"{cls.name} {key}{alias} = {value:.6g} {unit}")
    print(f"{cls.name} failed_frac = {failed / attempted:.6g} frac"
          f" ({failed} of {attempted} {cls.unit_label})")
    info.update({"workload": cls.name, "seed": args.seed, "trace": args.trace,
                 "environment": environment()})
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workloads.OUT_DIR,
                           f"result-{cls.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, info=info), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
