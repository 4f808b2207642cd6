"""Checkpoint persistence: supernet parameters + config + registry.

Serialization is canonical JSON (sorted keys, fixed separators) with floats
written by Python's shortest round-trip repr, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import json

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
    """Rebuild (state, registry, config) from a checkpoint dict; DataError if malformed."""
    try:
        state = SupernetState.from_dict(checkpoint["controllers"])
        registry = OperatorRegistry.from_dict(checkpoint["registry"])
        config = TrainConfig.from_dict(checkpoint["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    return state, registry, config
