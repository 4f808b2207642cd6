"""Checkpoint persistence: supernet parameters + config + registry.

Serialization is canonical JSON (sorted keys, fixed separators) with floats
written by Python's shortest round-trip repr, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .controller import SupernetState
from .errors import DataError
from .optimizer import TrainConfig
from .registry import OperatorRegistry

FORMAT_VERSION = 1


def build_checkpoint(state: SupernetState, registry: OperatorRegistry,
                     config: TrainConfig, metrics_summary=None):
    return {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "registry": registry.to_dict(),
        "controllers": state.to_dict(),
        "rng_state": None,
        "metrics_summary": metrics_summary or {},
    }


def dumps(checkpoint: dict) -> str:
    return json.dumps(checkpoint, sort_keys=True, separators=(",", ":")) + "\n"


def save(checkpoint: dict, path):
    with open(path, "w") as fh:
        fh.write(dumps(checkpoint))


def load(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise DataError(f"checkpoint {path} is not JSON: {exc}") from exc


def restore(checkpoint: dict):
    """Rebuild (state, registry, config) from a checkpoint dict; `DataError`
    if it is malformed, in a format other than FORMAT_VERSION, or its
    controllers do not fit its config (num_layers layers, embed_dim d,
    hidden_dim h) and registry (n operators): layer l holds W1 (h, d*l),
    b1 (h,), W2 (n, h), b2 (n,), all finite."""
    try:
        version = checkpoint["format_version"]
        state = SupernetState.from_dict(checkpoint["controllers"])
        registry = OperatorRegistry.from_dict(checkpoint["registry"])
        config = TrainConfig.from_dict(checkpoint["config"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint format {version!r}, expected {FORMAT_VERSION}")
    if len(state.layers) != config.num_layers:
        raise DataError(f"checkpoint has {len(state.layers)} controllers, its config"
                        f" {config.num_layers} layers")
    d, h, n = config.embed_dim, config.hidden_dim, len(registry)
    if (state.embed_dim, state.hidden_dim) != (d, h):
        raise DataError(f"checkpoint controllers have dims {state.embed_dim}x"
                        f"{state.hidden_dim}, its config {d}x{h}")
    if state.n_ops != n:
        raise DataError(f"checkpoint controllers score {state.n_ops} operators, its"
                        f" registry holds {n}")
    for ell, ctrl in enumerate(state.layers, start=1):
        if not all(np.isfinite(a).all() for a in ctrl.param_arrays()):
            raise DataError(f"checkpoint layer {ell} holds a parameter that is not finite")
    return state, registry, config
