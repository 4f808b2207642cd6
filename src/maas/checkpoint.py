"""Checkpoint persistence: supernet parameters + config + registry.

The only module that knows the file format: canonical JSON (sorted keys,
fixed separators), which `build_checkpoint` writes in format 2 and `restore`
reads through `_READERS`, one reader per format. Format 2's controllers
hold their dims, counts and version, and the parameter vector as base64 of
its little-endian float64 bytes, so every value reads back bit for bit and
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_right
from dataclasses import asdict

import numpy as np

from .controller import SupernetState, _size
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


_READERS = {FORMAT_VERSION: _read_format2}


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
            oldest = min(_READERS)
            convert = (f"; load and save it with an earlier maas to convert it to"
                       f" format {oldest}" if type(version) is int and version < oldest
                       else "")
            raise DataError(f"checkpoint format {version!r}, expected one of"
                            f" {sorted(_READERS)}{convert}")
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
