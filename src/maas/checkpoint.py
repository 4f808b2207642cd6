"""Checkpoint persistence: supernet parameters + config + registry.

Serialization is canonical JSON (sorted keys, fixed separators). In format 2
the controllers hold their dims, counts and version, and the parameter
vector as one base64 string of its little-endian float64 bytes, so every
value reads back bit for bit and save -> load -> save is byte-identical.
`restore` still reads format 1, whose controllers hold one entry per layer
with each array's values written by Python's shortest round-trip repr.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

from .controller import SupernetState
from .errors import DataError
from .optimizer import TrainConfig
from .registry import OperatorRegistry

FORMAT_VERSION = 2
# the reader of the controllers of each format that `restore` reads
_CONTROLLER_READERS = {1: SupernetState.from_format1, FORMAT_VERSION: SupernetState.from_dict}


def build_checkpoint(state: SupernetState, registry: OperatorRegistry,
                     config: TrainConfig, metrics_summary=None):
    return {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "registry": registry.to_dict(),
        "controllers": state.to_dict(),
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


def restore(checkpoint: dict):
    """Rebuild (state, registry, config) from a checkpoint dict of format 1
    or FORMAT_VERSION; `DataError` if it is malformed, in another format, or
    its controllers do not fit its config (num_layers layers, embed_dim d,
    hidden_dim h) and registry (n operators): layer l holds W1 (h, d*l),
    b1 (h,), W2 (n, h), b2 (n,), all finite."""
    try:
        version = checkpoint["format_version"]
        read = _CONTROLLER_READERS.get(version) if type(version) is int else None
        if read is None:
            raise DataError(f"checkpoint format {version!r}, expected one of"
                            f" {sorted(_CONTROLLER_READERS)}")
        state = read(checkpoint["controllers"])
        registry = OperatorRegistry.from_dict(checkpoint["registry"])
        config = TrainConfig.from_dict(checkpoint["config"])
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
