"""Checkpoint persistence: supernet parameters + config + registry.

The only module that knows the file format: canonical JSON (sorted keys,
fixed separators), which `build_checkpoint` writes in format 3 and `restore`
reads through `_READERS`, one reader per format. Format 3's controllers hold
their version and the parameter vector, as base64 of its little-endian
float64 bytes, in the layout the config and registry give; so every value
reads back bit for bit and save -> load -> save is byte-identical.
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

FORMAT_VERSION = 3


def build_checkpoint(state: SupernetState, registry: OperatorRegistry,
                     config: TrainConfig, metrics_summary=None):
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "registry": registry.to_dict(),
        "controllers": {
            "version": state.version,
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


def _blob(controllers):
    """`params` decoded; `DataError` unless it is base64 and the version an int."""
    if type(controllers["version"]) is not int:
        raise DataError(f"version {controllers['version']!r} is not an integer")
    if type(controllers["params"]) is not str:
        raise DataError("params is not a string")
    try:
        return base64.b64decode(controllers["params"], validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise DataError(f"params is not base64: {exc}") from exc


def _read_format3(checkpoint):
    """(state, registry, config); `DataError` unless the config and registry
    build and `params` holds 8 bytes per value of the layout they give. The
    values are copied out of the decoded bytes, so `params` is writable."""
    controllers = checkpoint["controllers"]
    config = TrainConfig(**checkpoint["config"])
    registry = OperatorRegistry.from_dict(checkpoint["registry"])
    layout = d, h, n, layers = (config.embed_dim, config.hidden_dim, len(registry),
                                config.num_layers)
    blob, size = _blob(controllers), _size(*layout)
    if len(blob) != 8 * size:
        raise DataError(f"params holds {len(blob)} bytes, expected {8 * size} for"
                        f" {layers} layers of dims {d}x{h} scoring {n} operators")
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    return SupernetState(params, *layout, version=controllers["version"]), registry, config


def _read_format2(checkpoint):
    """Format 2 read as format 3, after the checks it always made: positive
    integer dims and counts that fit `params` and agree with the config and
    registry, and each operator's `tools` a list of distinct strings."""
    controllers = checkpoint["controllers"]
    names = ("embed_dim", "hidden_dim", "n_ops", "num_layers")
    counts = d, h, n, layers = [controllers[name] for name in names]
    for name, value in zip(names, counts):
        if type(value) is not int or value < 1:
            raise DataError(f"{name} {value!r} is not a positive integer")
    blob, size = _blob(controllers), _size(*counts)
    if len(blob) != 8 * size:
        raise DataError(f"params holds {len(blob)} bytes, expected {8 * size}")
    config = TrainConfig(**checkpoint["config"])
    for op in checkpoint["registry"]["operators"]:
        tools = op["tools"]
        if not isinstance(tools, list):
            raise DataError(f"tools {tools!r} of operator {op['id']!r} is not a list")
        if not all(isinstance(tool, str) for tool in tools):
            raise DataError(f"tools {tuple(tools)!r} is not a tuple of strings")
        if len(set(tools)) != len(tools):
            raise DataError(f"duplicate tools for {op['id']!r}")
    registry = OperatorRegistry.from_dict(checkpoint["registry"])
    if layers != config.num_layers:
        raise DataError(f"checkpoint has {layers} controllers, its config"
                        f" {config.num_layers} layers")
    if (d, h) != (config.embed_dim, config.hidden_dim):
        raise DataError(f"checkpoint controllers have dims {d}x{h}, its config"
                        f" {config.embed_dim}x{config.hidden_dim}")
    if n != len(registry):
        raise DataError(f"checkpoint controllers score {n} operators, its registry"
                        f" holds {len(registry)}")
    return _read_format3(checkpoint)


_READERS = {2: _read_format2, FORMAT_VERSION: _read_format3}


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
        state, registry, config = read(checkpoint)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    finite = np.isfinite(state.params)
    if not finite.all():
        ell = bisect_right(state.offsets, int(finite.argmin()))
        raise DataError(f"checkpoint layer {ell} holds a parameter that is not finite")
    return state, registry, config
