"""Spans around calls into the program's layers, recorded from outside `src/`.

`Tracer.installed` replaces each traced function with a wrapper on every
module or class where callers look the name up (a name bound with
`from .x import f` must be patched on the importing module too, or the
wrapper never runs). Spans are kept in memory as flat lists and written out
once at the end, so a span costs two clock reads and a few list appends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from maas import (checkpoint, controller, data, embedding, executor, harness,
                  kernels, optimizer, registry, sampler)

# span name -> [(owner, attribute), ...] for every place the name is looked up
TARGETS = {
    "embedding.embed": [(embedding.HashingEmbedder, "embed")],
    "embedding.layer_feature": [(sampler, "layer_feature"), (optimizer, "layer_feature")],
    "sampler.sample_architecture": [(sampler, "sample_architecture")],
    "sampler.build_dag": [(sampler, "build_dag")],
    "controller.score_layer": [(controller, "score_layer")],
    "controller.sample_selection": [(controller, "sample_selection")],
    "controller.select_deterministic": [(controller, "select_deterministic")],
    "controller.selection_log_prob": [(controller, "selection_log_prob")],
    "controller.grad_log_prob": [(controller, "grad_log_prob")],
    "controller.split_output": [(controller.SupernetState, "split_output")],
    "controller.merge_output": [(controller.SupernetState, "merge_output")],
    "kernels.ffn_forward": [(kernels, "ffn_forward")],
    "kernels.softmax": [(kernels, "softmax")],
    "kernels.pl_grad_logits": [(kernels, "pl_grad_logits")],
    "kernels.ffn_backward": [(kernels, "ffn_backward")],
    "executor.execute": [(executor, "execute"), (optimizer, "execute"), (harness, "execute")],
    "executor.run_node": [(executor.SyntheticEnv, "run_node"), (executor.LiveEnv, "run_node")],
    "executor.render_prompt": [(executor, "render_prompt")],
    "executor.live_call": [(executor, "live_call"), (optimizer, "live_call")],
    "optimizer.trace_gradients": [(optimizer, "trace_gradients")],
    "optimizer.importance_weights": [(optimizer, "importance_weights")],
    "optimizer.update_distribution": [(optimizer, "update_distribution")],
    "optimizer.textual_gradient": [(optimizer, "textual_gradient")],
    "optimizer.parse_mutation": [(optimizer, "parse_mutation")],
    "registry.apply_patch": [(registry.OperatorRegistry, "apply_patch")],
    "checkpoint.build_checkpoint": [(checkpoint, "build_checkpoint")],
    "checkpoint.dumps": [(checkpoint, "dumps")],
    "data.load_dataset": [(data, "load_dataset"), (harness, "load_dataset")],
}

# Each span's self time counts toward the phase of its nearest ancestor (or
# itself) named here; the sampler's own bookkeeping belongs to no phase.
PHASE_OF = {
    "embedding.embed": "embed",
    "embedding.layer_feature": "embed",
    "controller.score_layer": "score",
    "controller.sample_selection": "select",
    "controller.select_deterministic": "select",
    "controller.selection_log_prob": "select",
    "executor.execute": "execute",
    "optimizer.trace_gradients": "grad",
    "optimizer.importance_weights": "update",
    "optimizer.update_distribution": "update",
    "optimizer.textual_gradient": "patch",
    "registry.apply_patch": "patch",
    "controller.split_output": "patch",
    "controller.merge_output": "patch",
}
PHASES = ("embed", "score", "select", "execute", "grad", "update", "patch")


class Stage:
    """The spans of one stage of a run (set-up or the measured loop)."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.unit = []
        self.failed = []
        self.texts_seen = set()
        self.embed_repeats = 0
        self.depths = []
        self.max_prompt_chars = 0

    def __len__(self):
        return len(self.name)


class Tracer:
    """Records spans into the current stage, one of `setup_stage` and
    `loop_stage`; records nothing while it is None."""

    def __init__(self):
        self.setup_stage = Stage()
        self.loop_stage = Stage()
        self.stage = None
        self.unit = -1  # index of the step or query the spans belong to
        self._open = -1  # innermost open span of the current stage

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        saved = []
        try:
            for span, places in TARGETS.items():
                for owner, attr in places:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def begin(self, stage):
        self.stage = stage
        self._open = -1

    def _wrap(self, span, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stage
            if st is None:
                return fn(*args, **kwargs)
            idx = len(st.name)
            st.name.append(span)
            st.parent.append(self._open)
            st.unit.append(self.unit)
            st.end.append(0.0)
            st.failed.append(False)
            self._open = idx
            st.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.failed[idx] = True
                raise
            finally:
                st.end[idx] = clock()
                self._open = st.parent[idx]
            _observe(st, span, args, result)
            return result

        return wrapper


def _observe(st, span, args, result):
    """Counters that need a call's arguments or result."""
    if span == "embedding.embed":
        text = args[1]
        if text in st.texts_seen:
            st.embed_repeats += 1
        else:
            st.texts_seen.add(text)
    elif span == "sampler.sample_architecture":
        st.depths.append(len(result.selections))
    elif span == "registry.apply_patch":
        st.max_prompt_chars = max(
            st.max_prompt_chars, max(len(s.prompt) for s in args[0].specs()))


def summarize(st, unit_factors, other_factor=1.0):
    """Per span name: calls, failed calls and self time (span time minus the
    time its direct children cover), scaled to the reference speed by the
    factor of the unit the span belongs to (`other_factor` outside units)."""
    n = len(st)
    self_s = [st.end[i] - st.start[i] for i in range(n)]
    for i in range(n):
        p = st.parent[i]
        if p >= 0:
            self_s[p] -= st.end[i] - st.start[i]
    phase = [None] * n
    out = {}
    phase_s = dict.fromkeys(PHASES, 0.0)
    for i in range(n):  # parents precede their children
        u = st.unit[i]
        t = self_s[i] * (unit_factors[u] if u >= 0 else other_factor)
        name = st.name[i]
        p = st.parent[i]
        phase[i] = PHASE_OF.get(name, phase[p] if p >= 0 else None)
        if phase[i] is not None:
            phase_s[phase[i]] += t
        entry = out.setdefault(name, {"calls": 0, "failed": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += st.failed[i]
        entry["self_s"] += t
    return out, phase_s


def write(path, stages):
    """Write each stage's spans as columns: names are indices into `names`."""
    doc = {}
    for label, st in stages.items():
        names = sorted(set(st.name))
        index = {name: i for i, name in enumerate(names)}
        t0 = st.start[0] if len(st) else 0.0
        doc[label] = {
            "names": names,
            "name": [index[x] for x in st.name],
            "start_us": [round((t - t0) * 1e6, 1) for t in st.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in st.end],
            "parent": st.parent,
            "unit": st.unit,
            "failed": [int(f) for f in st.failed],
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
