"""Helpers that several test modules share; `conftest.py` holds the shared
fixtures. No test module imports another, so what two of them use lives
here."""

import base64
import copy
import json
import math

import numpy as np
from hypothesis import strategies as st

from maas import checkpoint as ckpt
from maas.controller import init_params, score_layer
from maas.datagen import N_EASY, default_env, make_mixed_dataset
from maas.embedding import layer_feature
from maas.executor import SyntheticEnv, SyntheticOperatorProfile
from maas.optimizer import TrainConfig, Trainer
from maas.registry import (KIND_DIRECT_IO, KIND_EARLY_EXIT, KIND_GENERATIVE,
                           MAX_OPERATORS, MAX_PROMPT_CHARS, OperatorRegistry,
                           OperatorSpec, builtin_registry)


def train_args(workdir, extra=()):
    return [
        "train",
        "--dataset", str(workdir / "mix.jsonl"),
        "--env", "synthetic",
        "--env-profile", str(workdir / "profiles.json"),
        "--layers", "2",
        "--iterations", "2",
        "--checkpoint", str(workdir / "ckpt.json"),
        *extra,
    ]


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def small_mix(n):
    """The first `n` easy and the first `n` hard records of the shipped mix."""
    rows = make_mixed_dataset()
    return rows[:n] + rows[N_EASY:N_EASY + n]


def fill_workdir(path):
    """`path` with the dataset and the profile file `train_args` names."""
    write_jsonl(path / "mix.jsonl", small_mix(10))
    (path / "profiles.json").write_text(json.dumps(default_env().to_dict()))
    return path


def simple_env():
    return SyntheticEnv([
        SyntheticOperatorProfile(s.id, 0.6, 0.0, 1.0)
        for s in builtin_registry().specs() if s.id != "early_exit"
    ])


def make_trainer(env=None, proposer=None, **fields):
    """The set-up most trainer tests share: `Trainer.start` of
    `TrainConfig(**fields)`, at 2 layers of 8 dims unless `fields` say
    otherwise, on `env` (`simple_env()` if None), with `proposer` as its
    `mutator`."""
    cfg = TrainConfig(**{"num_layers": 2, "embed_dim": 8, "hidden_dim": 8, **fields})
    return Trainer.start(cfg, simple_env() if env is None else env, mutator=proposer)


def make_spec(op_id, kind=KIND_GENERATIVE, temperature=1.0, prompt="p {input}"):
    return OperatorSpec(
        id=op_id,
        name=op_id,
        prompt=prompt if kind != KIND_EARLY_EXIT else "",
        model_binding="default",
        temperature=temperature,
        agent_count=1,
        profile_text="" if kind == KIND_EARLY_EXIT else f"profile of {op_id}",
        kind=kind,
    )


def empty_headers(text):
    """Each line of `text` that ends in ":", a header, with nothing or a
    blank line under it."""
    lines = text.split("\n")
    return [line for line, below in zip(lines, lines[1:] + [""])
            if line.endswith(":") and not below.strip()]


def with_exit_and_io(*specs):
    """`specs`, then an early-exit operator `exit` and a direct-io `io`."""
    return [*specs, make_spec("exit", KIND_EARLY_EXIT), make_spec("io", KIND_DIRECT_IO)]


def tiny_registry(ids=("solver",)):
    """The generative operators `ids`, then `exit` (early exit) and `io`
    (direct io)."""
    return OperatorRegistry(with_exit_and_io(*map(make_spec, ids)))


def selection_sequences(scores, thres):
    """Every index sequence the stochastic selection rule can draw at
    `thres`, with its Plackett-Luce probability, by exhaustive enumeration:
    the exact distribution of `sample_selection`."""
    results = []

    def rec(prefix, cum, rem, prob):
        if cum > thres:
            results.append((tuple(prefix), prob))
            return
        for i in range(len(scores)):
            if i not in prefix:
                rec(prefix + [i], cum + scores[i], rem - scores[i],
                    prob * scores[i] / rem)

    rec([], 0.0, 1.0, 1.0)
    return results


def two_layer_table(state, registry, embedder, query, thres):
    """The probability of every selection-sequence tuple a two-layer train
    sample of `query` can draw, by enumeration: `(seq1,)` when layer 1 draws
    the exit, else `(seq1, seq2)`."""
    ids = registry.ids()
    q = embedder.embed(query)
    table = {}
    for seq1, p1 in selection_sequences(
            score_layer(state, 1, layer_feature(q, [])).scores, thres):
        if registry.early_exit_index in seq1:
            table[(seq1,)] = p1
            continue
        sums = [sum(embedder.embed(registry.get(ids[i]).profile_text) for i in seq1)]
        scores = score_layer(state, 2, layer_feature(q, sums)).scores
        for seq2, p2 in selection_sequences(scores, thres):
            table[(seq1, seq2)] = p1 * p2
    return table


def registry_json(reg):
    """The registry as one canonical JSON string, to compare registries."""
    return json.dumps(reg.to_dict(), sort_keys=True, separators=(",", ":"))


def flat_layout_faults(state):
    """How `state` departs from its flat layout: each layer's W1, b1, W2 and
    b2 must be the C-contiguous views of `state.params` at the offsets of
    `_layout`'s order, in layer order, and `state.grads` the same views of
    `state.grad`. An empty list when it holds."""
    d, h, n = state.embed_dim, state.hidden_dim, state.n_ops
    faults = []
    for vector, layers, label in ((state.params, state.layers, "params"),
                                  (state.grad, state.grads, "grad")):
        base = vector.__array_interface__["data"][0]
        start = 0
        if vector.dtype != np.float64 or vector.ndim != 1:
            faults.append(f"{label} is no flat float64 vector")
        for ell, ctrl in enumerate(layers, start=1):
            if state.offsets[ell - 1] != start:
                faults.append(f"layer {ell} starts at {state.offsets[ell - 1]}, not {start}")
            shapes = [(h, d * ell), (h,), (n, h), (n,)]
            for name, arr, shape in zip(("W1", "b1", "W2", "b2"), ctrl.param_arrays(), shapes):
                where = f"{label} layer {ell} {name}"
                if arr.shape != shape or not arr.flags.c_contiguous:
                    faults.append(f"{where} has shape {arr.shape}, expected {shape}")
                if not np.shares_memory(arr, vector):
                    faults.append(f"{where} is no view of {label}")
                elif arr.__array_interface__["data"][0] != base + 8 * start:
                    faults.append(f"{where} is out of order")
                start += math.prod(shape)
        if len(layers) != state.num_layers or vector.size != start:
            faults.append(f"{label} holds {vector.size} values for {start} in its layers")
    if len(state.offsets) != state.num_layers + 1 or state.offsets[-1] != start:
        faults.append(f"offsets {state.offsets} do not end at {start}")
    return faults


def bitwise_equal(a, b):
    """Equal values and the same sign bits, so -0.0 differs from 0.0."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def operator_ffn_forward(W1, b1, W2, b2, x):
    """The two-layer tanh forward pass written with `@`: (hidden, logits),
    which `kernels.ffn_forward` must equal bitwise."""
    h = np.tanh(W1 @ x + b1)
    return h, W2 @ h + b2


def method_softmax(logits):
    """Softmax with the `max()` and `sum()` methods, which `kernels.softmax`
    must equal bitwise."""
    e = np.exp(logits - logits.max())
    return e / e.sum()


def central_differences(arrays, objective, eps):
    """The gradient of `objective()` with respect to each of `arrays`, in
    their shapes, by central differences: each entry is moved by +eps and
    -eps in place, then restored."""
    grads = []
    for arr in arrays:
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            plus = objective()
            arr[idx] = orig - eps
            minus = objective()
            arr[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
        grads.append(numeric)
    return grads


# 10**400 is an int past the float range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def key_paths(doc, path=()):
    """The path of `doc` and of each value inside it, through every key of a
    dict and the first item of a list."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from key_paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        yield from key_paths(doc[0], (*path, 0))


def replaced(doc, path, value):
    """A copy of `doc` with `value` at `path`."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def any_value_anywhere(doc):
    """`doc` with any JSON value at one of its `key_paths`: the whole
    document, an entry or a field of one."""
    return st.builds(replaced, st.just(doc), st.sampled_from(list(key_paths(doc))),
                     JSON_VALUES)


def encoded(state):
    """The checkpoint `build_checkpoint` writes of `state`, with a config of
    its dims and layer count and a `tiny_registry` of its operator count."""
    config = TrainConfig(num_layers=state.num_layers, embed_dim=state.embed_dim,
                         hidden_dim=state.hidden_dim)
    registry = tiny_registry([f"op{i}" for i in range(state.n_ops - 2)])
    return ckpt.build_checkpoint(state, registry, config)


def decoded(checkpoint):
    """The state `restore` gives for `checkpoint`."""
    state, _, _ = ckpt.restore(checkpoint)
    return state


def small_checkpoint():
    registry = builtin_registry()
    config = TrainConfig(num_layers=2, embed_dim=4, hidden_dim=4)
    state = init_params(0, 4, 4, 2, len(registry))
    return json.loads(ckpt.dumps(ckpt.build_checkpoint(state, registry, config)))


def with_state(corrupt_state):
    """The checkpoint whose controllers hold its state after
    `corrupt_state(state)`."""
    def corrupt(checkpoint):
        state = decoded(checkpoint)
        corrupt_state(state)
        checkpoint["controllers"] = encoded(state)["controllers"]
        return checkpoint
    return corrupt


def as_format2(checkpoint):
    """`checkpoint` as format 2 held it: its controllers with the dims and
    layer count of its config and the operator count of its registry, and
    each operator with an empty `tools` list."""
    config, operators = checkpoint["config"], checkpoint["registry"]["operators"]
    checkpoint["format_version"] = 2
    checkpoint["controllers"].update(
        embed_dim=config["embed_dim"], hidden_dim=config["hidden_dim"],
        n_ops=len(operators), num_layers=config["num_layers"])
    for op in operators:
        op["tools"] = []
    return checkpoint


def in_format2(corrupt):
    """`corrupt` of the checkpoint's format-2 form."""
    return lambda checkpoint: corrupt(as_format2(checkpoint))


def with_counts(**counts):
    """The format-2 checkpoint whose controllers hold a fresh state of its
    counts but `counts` (d, h, num_layers or n_ops): consistent in itself."""
    def corrupt(checkpoint):
        c = checkpoint["controllers"]
        fields = {"d": c["embed_dim"], "h": c["hidden_dim"], "num_layers": c["num_layers"],
                  "n_ops": c["n_ops"], **counts}
        checkpoint["controllers"] = as_format2(encoded(init_params(0, **fields)))[
            "controllers"]
        return checkpoint
    return in_format2(corrupt)


def without_operator(op_id):
    """The checkpoint without the operator `op_id` and its controller rows."""
    def corrupt(checkpoint):
        i = [op["id"] for op in checkpoint["registry"]["operators"]].index(op_id)
        checkpoint = with_state(lambda state: state.merge_output(i))(checkpoint)
        del checkpoint["registry"]["operators"][i]
        return checkpoint
    return corrupt


def with_operator_field(op_id, name, value):
    """The checkpoint with `value` as the `name` of operator `op_id`."""
    def corrupt(checkpoint):
        [op] = [op for op in checkpoint["registry"]["operators"] if op["id"] == op_id]
        op[name] = value
        return checkpoint
    return corrupt


def with_blob_value(layer, name, value):
    """The checkpoint with `value` as the first entry of layer `layer`'s
    `name` in its parameter blob (for W1, where the layer starts)."""
    def plant(state):
        getattr(state.layer(layer), name).flat[0] = value
    return with_state(plant)


def with_params_text(edit):
    """The checkpoint whose `params` string is `edit(params)`."""
    def corrupt(checkpoint):
        checkpoint["controllers"]["params"] = edit(checkpoint["controllers"]["params"])
        return checkpoint
    return corrupt


def with_blob_bytes(edit):
    """The checkpoint whose parameter blob is `edit(blob)`."""
    return with_params_text(
        lambda text: base64.b64encode(edit(base64.b64decode(text))).decode("ascii"))


def with_controller_field(name, value):
    """The checkpoint with `value` as the controllers' `name`."""
    def corrupt(checkpoint):
        checkpoint["controllers"][name] = value
        return checkpoint
    return corrupt


def with_config_field(name, value):
    """The checkpoint with `value` as its config's `name`."""
    def corrupt(checkpoint):
        checkpoint["config"][name] = value
        return checkpoint
    return corrupt


def without_config_field(name):
    """The checkpoint whose config lacks `name`."""
    def corrupt(checkpoint):
        del checkpoint["config"][name]
        return checkpoint
    return corrupt


def with_first_id_repeated(checkpoint):
    """The checkpoint whose second operator takes the first one's id."""
    operators = checkpoint["registry"]["operators"]
    operators[1]["id"] = operators[0]["id"]
    return checkpoint


def with_operator_added(checkpoint):
    """The checkpoint whose registry holds a clone of its first operator as
    well; its controllers score the operators it had."""
    operators = checkpoint["registry"]["operators"]
    operators.append({**operators[0], "id": "clone"})
    return checkpoint


def without_operator_entry(op_id):
    """The checkpoint without the operator `op_id`; its controllers score the
    operators it had."""
    def corrupt(checkpoint):
        operators = checkpoint["registry"]["operators"]
        operators[:] = [op for op in operators if op["id"] != op_id]
        return checkpoint
    return corrupt


def with_operators_past_the_cap(checkpoint):
    """The checkpoint whose registry holds clones of its first operator up to
    one past `MAX_OPERATORS`; its controllers score the operators it had."""
    operators = checkpoint["registry"]["operators"]
    operators += [{**operators[0], "id": f"clone{i}"}
                  for i in range(MAX_OPERATORS + 1 - len(operators))]
    return checkpoint


# each maps a checkpoint dict to a bad one, with the fault `restore` names;
# the small checkpoint holds 146 values, 8 * 146 = 1168 bytes, for its 2
# layers of dims 4x4 scoring 9 operators. The rows of `in_format2` (and
# `with_counts`) corrupt its format-2 form, whose controllers repeat those
# counts and whose operators hold `tools`.
BAD_CHECKPOINTS = {
    "no_exit": (without_operator("early_exit"), "lacks its early-exit or direct-io"),
    "no_direct_io": (without_operator("direct_io"), "lacks its early-exit or direct-io"),
    "no_controllers": (lambda checkpoint: {key: value for key, value in checkpoint.items()
                                           if key != "controllers"},
                       "malformed checkpoint: KeyError: 'controllers'"),
    "second_exit": (with_operator_field("react", "kind", "early_exit"),
                    "already has an early-exit"),
    "duplicate_id": (with_first_id_repeated, "operator id 'cot' already registered"),
    "past_the_cap": (with_operators_past_the_cap,
                     f"registry cannot hold more than {MAX_OPERATORS} operators"),
    "long_prompt": (with_operator_field("cot", "prompt", "x" * (MAX_PROMPT_CHARS + 1)),
                    f"prompt of 'cot' holds {MAX_PROMPT_CHARS + 1} chars, over"
                    f" {MAX_PROMPT_CHARS}"),
    "int_prompt": (with_operator_field("cot", "prompt", 5), "prompt 5 is not a string"),
    "prompt_without_input": (with_operator_field("cot", "prompt", "Solve it."),
                             r"^prompt of 'cot' holds the \{input\} placeholder 0 times,"
                             " not once$"),
    "prompt_with_two_inputs": (with_operator_field("cot", "prompt", "{input}\nAgain: {input}"),
                               r"^prompt of 'cot' holds the \{input\} placeholder 2 times,"
                               " not once$"),
    # keys format 2 held, which format 3 refuses rather than leave unchecked
    "stale_n_ops": (with_controller_field("n_ops", 9),
                    "^unknown key 'n_ops' in the controllers$"),
    "stale_tools": (with_operator_field("react", "tools", []),
                    "^unknown key 'tools' in operator 'react'$"),
    # keys no format wrote, beside the checkpoint's and the registry's own
    "stale_top": (lambda checkpoint: replaced(checkpoint, ("stale_top",), 1),
                  "^unknown key 'stale_top' in the checkpoint$"),
    "stale_rewire_ids": (lambda checkpoint: replaced(checkpoint, ("registry", "rewire_ids"),
                                                     ["react"]),
                         "^unknown key 'rewire_ids' in the registry$"),
    # a config field left out would restore as its default, and a stray one
    # would otherwise fail as a TypeError
    "config_missing_thres": (without_config_field("thres"),
                             "^missing key 'thres' in the config$"),
    "config_missing_seed": (without_config_field("seed"),
                            "^missing key 'seed' in the config$"),
    "config_unknown_key": (with_config_field("x", 1), "^unknown key 'x' in the config$"),
    "float_embed_dim": (with_config_field("embed_dim", 64.0),
                        "embed_dim 64.0 is not an integer"),
    "float_seed": (with_config_field("seed", 1.5), "seed 1.5 is not an integer"),
    "negative_seed": (with_config_field("seed", -1), "seed must be >= 0"),
    "unknown_mutator": (with_config_field("mutator", "mock2"),
                        r"mutator 'mock2' is not one of \('mock', 'llm', 'none'\)"),
    # in the config only: `TrainConfig` refuses it before the layout is read
    "zero_embed_dim": (with_config_field("embed_dim", 0), "embed_dim must be >= 1"),
    "config_num_layers_edited": (with_config_field("num_layers", 3),
                                 "params holds 1168 bytes, expected 1944 for 3 layers of"
                                 " dims 4x4 scoring 9 operators$"),
    "config_embed_dim_edited": (with_config_field("embed_dim", 5),
                                "params holds 1168 bytes, expected 1264 for 2 layers of"
                                " dims 5x4 scoring 9 operators$"),
    "config_hidden_dim_edited": (with_config_field("hidden_dim", 5),
                                 "params holds 1168 bytes, expected 1424 for 2 layers of"
                                 " dims 4x5 scoring 9 operators$"),
    "operator_added": (with_operator_added, "params holds 1168 bytes, expected 1248 for"
                       " 2 layers of dims 4x4 scoring 10 operators$"),
    "operator_removed": (without_operator_entry("react"), "params holds 1168 bytes,"
                         " expected 1088 for 2 layers of dims 4x4 scoring 8 operators$"),
    "params_not_a_string": (with_controller_field("params", [0.0]),
                            "params is not a string"),
    "params_not_base64": (with_params_text(lambda text: text[:8] + "*" + text[8:]),
                          "params is not base64"),
    "params_not_ascii": (with_controller_field("params", "AAAAAAA\u00e9"),
                         "params is not base64"),
    "params_one_value_short": (with_blob_bytes(lambda blob: blob[:-8]),
                               "params holds 1160 bytes, expected 1168 for 2 layers of"
                               " dims 4x4 scoring 9 operators$"),
    "params_one_value_long": (with_blob_bytes(lambda blob: blob + bytes(8)),
                              "params holds 1176 bytes, expected 1168 for 2 layers of"
                              " dims 4x4 scoring 9 operators$"),
    "params_one_byte_long": (with_blob_bytes(lambda blob: blob + b"\0"),
                             "params holds 1169 bytes, expected 1168 for 2 layers of"
                             " dims 4x4 scoring 9 operators$"),
    "nan_b2": (with_blob_value(1, "b2", float("nan")),
               "layer 1 holds a parameter that is not finite"),
    "nan_in_params": (with_blob_value(2, "b2", float("nan")),
                      "layer 2 holds a parameter that is not finite"),
    "inf_in_params": (with_blob_value(1, "W1", float("inf")),
                      "layer 1 holds a parameter that is not finite"),
    "minus_inf_in_params": (with_blob_value(2, "W1", -float("inf")),
                            "layer 2 holds a parameter that is not finite"),
    "float_version": (with_controller_field("version", 1.0),
                      "version 1.0 is not an integer"),
    # format 2
    "string_tools": (in_format2(with_operator_field("react", "tools", "cx")),
                     "tools 'cx' of operator 'react' is not a list"),
    "format2_int_in_tools": (in_format2(with_operator_field("react", "tools", ["cx", 3])),
                             r"tools \('cx', 3\) is not a tuple of strings"),
    "format2_duplicate_tools": (in_format2(with_operator_field("react", "tools",
                                                               ["cx", "cx"])),
                                "duplicate tools for 'react'"),
    "format2_null_cadence": (in_format2(with_config_field("patch_every", None)),
                             "patch_every None is not an integer"),
    "format2_prompt_without_input": (
        in_format2(with_operator_field("cot", "prompt", "Solve it.")),
        r"^prompt of 'cot' holds the \{input\} placeholder 0 times, not once$"),
    "format2_prompt_with_two_inputs": (
        in_format2(with_operator_field("cot", "prompt", "{input}\nAgain: {input}")),
        r"^prompt of 'cot' holds the \{input\} placeholder 2 times, not once$"),
    "n_ops_off_registry": (with_counts(n_ops=10), "controllers score 10 operators, its"
                           " registry holds 9"),
    "num_layers_off_config": (with_counts(num_layers=3), "checkpoint has 3 controllers,"
                              " its config 2 layers"),
    "hidden_dim_off_config": (with_counts(h=5), "controllers have dims 4x5, its config 4x4"),
    "n_ops_off_blob": (in_format2(with_controller_field("n_ops", 8)),
                       "params holds 1168 bytes, expected 1088$"),
    "bool_num_layers": (in_format2(with_controller_field("num_layers", True)),
                        "num_layers True is not a positive integer"),
    "float_n_ops": (in_format2(with_controller_field("n_ops", 9.0)),
                    "n_ops 9.0 is not a positive integer"),
    "zero_hidden_dim": (in_format2(with_controller_field("hidden_dim", 0)),
                        "hidden_dim 0 is not a positive integer"),
    "negative_hidden_dim": (in_format2(with_controller_field("hidden_dim", -4)),
                            "hidden_dim -4 is not a positive integer"),
    "string_embed_dim": (in_format2(with_controller_field("embed_dim", "4")),
                         "embed_dim '4' is not a positive integer"),
    "no_layers": (in_format2(with_controller_field("num_layers", 0)),
                  "num_layers 0 is not a positive integer"),
    "huge_num_layers": (in_format2(with_controller_field("num_layers", 10**18)),
                        r"params holds 1168 bytes, expected \d{30,}$"),
}
