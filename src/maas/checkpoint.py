"""Checkpoint persistence: supernet parameters + config + registry.

The only module that knows the file format: canonical JSON (sorted keys,
fixed separators), which `build_checkpoint` writes in format 2 and `restore`
reads through one reader per format in `_READERS`. Format 2's controllers
hold their dims, counts and version, and the parameter vector as base64 of
its little-endian float64 bytes, so every value reads back bit for bit and
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import base64
import json
import math
from bisect import bisect_right
from dataclasses import asdict
from itertools import chain

import numpy as np

from .controller import SupernetState, _layout, _size
from .errors import DataError
from .optimizer import TrainConfig
from .registry import OperatorRegistry

FORMAT_VERSION = 2


def build_checkpoint(state: SupernetState, registry: OperatorRegistry,
                     config: TrainConfig, metrics_summary=None):
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "registry": registry.to_dict(),
        "controllers": {
            "embed_dim": state.embed_dim,
            "hidden_dim": state.hidden_dim,
            "version": state.version,
            "num_layers": state.num_layers,
            "n_ops": state.n_ops,
            "params": base64.b64encode(state.params.astype("<f8").tobytes()).decode("ascii"),
        },
        "metrics_summary": metrics_summary or {},
    }


def dumps(checkpoint: dict) -> str:
    return json.dumps(checkpoint, sort_keys=True, separators=(",", ":")) + "\n"


def save(checkpoint: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(checkpoint))


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # a JSONDecodeError, bytes that are not UTF-8, or nesting past the
        # recursion limit
        except (ValueError, RecursionError) as exc:
            raise DataError(f"checkpoint {path} is not JSON: {exc}") from exc


def _read_format2(checkpoint):
    """The (state, config) of format 2; `DataError` unless the
    controllers' version is an integer, their dims and counts are positive
    integers, and `params` is a base64 string of 8 bytes per value of the
    shapes `_layout` gives for them. The values are copied out of the
    decoded bytes, so `params` is writable."""
    d = checkpoint["controllers"]
    counts = {name: d[name] for name in ("embed_dim", "hidden_dim", "n_ops", "num_layers")}
    for name, value in counts.items():
        if type(value) is not int or value < 1:
            raise DataError(f"{name} {value!r} is not a positive integer")
    if type(d["version"]) is not int:
        raise DataError(f"version {d['version']!r} is not an integer")
    if type(d["params"]) is not str:
        raise DataError("params is not a string")
    try:
        blob = base64.b64decode(d["params"], validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise DataError(f"params is not base64: {exc}") from exc
    size = _size(*counts.values())
    if len(blob) != 8 * size:
        raise DataError(f"params holds {len(blob)} bytes, expected {8 * size}")
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    state = SupernetState(params, **counts, version=d["version"])
    return state, TrainConfig(**checkpoint["config"])


# -- format 1 ----------------------------------------------------------------

def _checked_entry(entry, position):
    """The (shape, values) of a format-1 layer entry's W1, b1, W2 and b2;
    `DataError` unless `layer_index` is the integer `position`, each shape a
    list of integers and each `values` a list of numbers, none of them a
    bool, as many as its shape holds."""
    if type(entry["layer_index"]) is not int:
        raise DataError(f"layer_index {entry['layer_index']!r} is not an integer")
    if entry["layer_index"] != position:
        raise DataError(f"layer {position} has layer_index {entry['layer_index']}")
    arrays = []
    for name in ("W1", "b1", "W2", "b2"):
        shape, values = entry[name]["shape"], entry[name]["values"]
        if type(shape) is not list or not all(type(n) is int for n in shape):
            raise DataError(f"{name} shape {shape!r} is not a list of integers")
        if type(values) is not list or not set(map(type, values)) <= {float, int}:
            raise DataError(f"{name} values are not a list of numbers")
        if len(values) != math.prod(shape):
            raise DataError(f"layer {position} {name} holds {len(values)} values"
                            f" for shape {shape}")
        arrays.append((tuple(shape), values))
    return arrays


def _read_format1(checkpoint):
    """The (state, config) of a format-1 checkpoint, whose controllers hold
    one entry per layer with each array's shape and values; `DataError`
    unless the dims and version are integers and the layers are valid
    entries, at least one, each at the position its index names, in the
    shapes `_layout` gives for the dims and layer 1's operator count. A
    `patch_every` of null (no patching) reads as `mutator="none"` at the
    default cadence. A format-1 registry may still hold a `rewire_ids` key,
    which `OperatorRegistry.from_dict` does not read."""
    d = checkpoint["controllers"]
    for name in ("embed_dim", "hidden_dim", "version"):
        if type(d[name]) is not int:
            raise DataError(f"{name} {d[name]!r} is not an integer")
    dims = d["embed_dim"], d["hidden_dim"]
    entries = [_checked_entry(entry, position)
               for position, entry in enumerate(d["layers"], start=1)]
    if not entries:
        raise DataError("controllers hold no layers")
    n_ops = len(entries[0][3][1])  # layer 1's b2 values
    layout = _layout(*dims, n_ops, len(entries))
    for ell, (arrays, shapes) in enumerate(zip(entries, layout), start=1):
        if [shape for shape, _ in arrays] != shapes:
            raise DataError(f"layer {ell} has shapes {[s for s, _ in arrays]},"
                            f" expected {shapes}")
    values = [values for arrays in entries for _, values in arrays]
    params = np.fromiter(chain.from_iterable(values), dtype=np.float64,
                         count=sum(map(len, values)))
    state = SupernetState(params, *dims, n_ops, len(entries), d["version"])
    config = checkpoint["config"]
    if isinstance(config, dict) and config.get("patch_every", 1) is None:
        config = {**config, "patch_every": TrainConfig.patch_every, "mutator": "none"}
    return state, TrainConfig(**config)


_READERS = {1: _read_format1, FORMAT_VERSION: _read_format2}


def restore(checkpoint: dict):
    """Rebuild (state, registry, config) from a checkpoint dict;
    `DataError` if it is malformed, in another format, or its
    controllers do not fit its config (num_layers layers, embed_dim d,
    hidden_dim h) and registry (n operators): layer l holds W1 (h, d*l),
    b1 (h,), W2 (n, h), b2 (n,), all finite."""
    try:
        version = checkpoint["format_version"]
        read = _READERS.get(version) if type(version) is int else None
        if read is None:
            raise DataError(f"checkpoint format {version!r}, expected one of"
                            f" {sorted(_READERS)}")
        state, config = read(checkpoint)
        registry = OperatorRegistry.from_dict(checkpoint["registry"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    if state.num_layers != config.num_layers:
        raise DataError(f"checkpoint has {state.num_layers} controllers, its config"
                        f" {config.num_layers} layers")
    d, h, n = config.embed_dim, config.hidden_dim, len(registry)
    if (state.embed_dim, state.hidden_dim) != (d, h):
        raise DataError(f"checkpoint controllers have dims {state.embed_dim}x"
                        f"{state.hidden_dim}, its config {d}x{h}")
    if state.n_ops != n:
        raise DataError(f"checkpoint controllers score {state.n_ops} operators, its"
                        f" registry holds {n}")
    finite = np.isfinite(state.params)
    if not finite.all():
        ell = bisect_right(state.offsets, int(finite.argmin()))
        raise DataError(f"checkpoint layer {ell} holds a parameter that is not finite")
    return state, registry, config
