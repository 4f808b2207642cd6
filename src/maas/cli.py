"""Command-line interface: maas train / eval / sample / inspect."""

from __future__ import annotations

import functools
import json
import os
import sys
import warnings

import click

from . import checkpoint as ckpt
from .errors import BackendError, DataError, MaasError
from .executor import CHECKERS, SyntheticEnv, LiveEnv
from .harness import Evaluator, run_eval, run_train
from .optimizer import MUTATORS, TrainConfig

DEFAULTS = TrainConfig()  # every `maas train` hyperparameter default
EXIT_DATA_ERROR = 3
EXIT_BACKEND_ERROR = 4

PROBE_QUERIES = [
    "add 2 and 3",
    "what is 14 plus 9",
    "evaluate the contour integral of z^4 over the unit circle times 2",
    "find the spectral radius of the 8 by 8 tridiagonal operator shifted by 3",
]


def _make_env(env_name, env_profile, checker):
    if env_name == "live":
        return LiveEnv(checker=checker)
    if not env_profile:
        raise DataError("--env synthetic requires --env-profile")
    return SyntheticEnv.from_file(env_profile, checker)


def _in_existing_directory(ctx, param, path):
    """`path` when it is None or its directory exists, else a usage error:
    checked while the options are parsed, so a run that could not write its
    output does no work first."""
    if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise click.BadParameter(f"directory of {path!r} does not exist")
    return path


def _exit_codes(command):
    """Run `command`, reporting a `DataError` with exit 3, a `BackendError`
    with exit 4 and any other `MaasError` with exit 1. numpy's floating-point
    warnings are silenced: scores that overflow end in a `MaasError` that
    says so in one line."""

    @functools.wraps(command)
    def run(**kwargs):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "(overflow|invalid value|divide by zero) encountered",
                    RuntimeWarning)
                command(**kwargs)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except BackendError as exc:
            click.echo(f"backend error: {exc}", err=True)
            sys.exit(EXIT_BACKEND_ERROR)
        except MaasError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return run


@click.group()
def main():
    """Query-conditioned multi-agent architecture sampling and training."""


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--env", "env_name", default="synthetic",
              type=click.Choice(["synthetic", "live"]))
@click.option("--env-profile", type=click.Path(exists=True, dir_okay=False))
@click.option("--layers", "num_layers", default=DEFAULTS.num_layers, show_default=True)
@click.option("--thres", default=DEFAULTS.thres, show_default=True)
@click.option("--lambda", "cost_lambda", default=DEFAULTS.cost_lambda, show_default=True)
@click.option("--samples-k", default=DEFAULTS.samples_k, show_default=True)
@click.option("--lr", default=DEFAULTS.lr, show_default=True)
@click.option("--iterations", default=DEFAULTS.iterations, show_default=True)
@click.option("--seed", default=DEFAULTS.seed, show_default=True)
@click.option("--patch-every", default=DEFAULTS.patch_every, show_default=True,
              help="textual-patch cadence in steps, >= 1")
@click.option("--mutator", default=DEFAULTS.mutator, type=click.Choice(MUTATORS),
              show_default=True, help="patch proposer; none turns patching off")
@click.option("--checker", default="exact_match",
              type=click.Choice(CHECKERS), show_default=True)
@click.option("--checkpoint", "checkpoint_out", required=True,
              type=click.Path(dir_okay=False), callback=_in_existing_directory)
@click.option("--metrics-out", type=click.Path(dir_okay=False),
              callback=_in_existing_directory)
@_exit_codes
def train(dataset, env_name, env_profile, checker, checkpoint_out, metrics_out,
          **hyperparameters):
    """Optimize the supernet on the train split of a JSONL dataset."""
    try:
        config = TrainConfig(**hyperparameters)
    except DataError as exc:
        raise click.UsageError(str(exc)) from exc
    env = _make_env(env_name, env_profile, checker)
    checkpoint, _ = run_train(config, dataset, env, checkpoint_path=checkpoint_out,
                              metrics_path=metrics_out)
    click.echo(json.dumps(checkpoint["metrics_summary"], sort_keys=True))


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--env", "env_name", default="synthetic",
              type=click.Choice(["synthetic", "live"]))
@click.option("--env-profile", type=click.Path(exists=True, dir_okay=False))
@click.option("--checker", default="exact_match",
              type=click.Choice(CHECKERS), show_default=True)
@click.option("--report-out", type=click.Path(dir_okay=False),
              callback=_in_existing_directory)
@_exit_codes
def eval_cmd(checkpoint_path, dataset, env_name, env_profile, checker, report_out):
    """Evaluate a checkpoint on a dataset with deterministic selection."""
    env = _make_env(env_name, env_profile, checker)
    checkpoint = ckpt.load(checkpoint_path)
    report = run_eval(checkpoint, dataset, env)
    text = json.dumps(report, sort_keys=True, indent=2)
    click.echo(text)
    if report_out:
        with open(report_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@main.command()
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--query", required=True)
@click.option("--explain", is_flag=True,
              help="include per-layer score vectors in the output")
@_exit_codes
def sample(checkpoint_path, query, explain):
    """Print the architecture the checkpoint selects for one query."""
    arch = Evaluator(ckpt.load(checkpoint_path)).select(query)
    out = arch.to_dict()
    if explain:
        out["per_layer_scores"] = [sv.scores.tolist() for sv in arch.forward]
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command()
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_exit_codes
def inspect(checkpoint_path):
    """Print per-layer score vectors averaged over a built-in probe set."""
    evaluator = Evaluator(ckpt.load(checkpoint_path))
    sums = {}
    counts = {}
    for q in PROBE_QUERIES:
        arch = evaluator.select(q)
        for ell, sv in enumerate(arch.forward, start=1):
            sums[ell] = sums.get(ell, 0.0) + sv.scores
            counts[ell] = counts.get(ell, 0) + 1
    report = {
        "operator_ids": evaluator.registry.ids(),
        "probe_queries": PROBE_QUERIES,
        "mean_scores_by_layer": {
            str(ell): (sums[ell] / counts[ell]).tolist() for ell in sorted(sums)
        },
    }
    click.echo(json.dumps(report, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
