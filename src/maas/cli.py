"""Command-line interface: maas train / eval / sample / inspect."""

from __future__ import annotations

import json
import sys

import click

from . import checkpoint as ckpt
from . import sampler
from .errors import BackendError, DataError, MaasError
from .executor import SyntheticEnv, LiveEnv
from .harness import run_eval, run_train
from .optimizer import TrainConfig, LLMMutator

EXIT_DATA_ERROR = 3
EXIT_BACKEND_ERROR = 4

PROBE_QUERIES = [
    "add 2 and 3",
    "what is 14 plus 9",
    "evaluate the contour integral of z^4 over the unit circle times 2",
    "find the spectral radius of the 8 by 8 tridiagonal operator shifted by 3",
]


def _make_env(env_name, env_profile, checker):
    if env_name == "synthetic":
        if not env_profile:
            raise DataError("--env synthetic requires --env-profile")
        return SyntheticEnv.from_file(env_profile, checker)
    if env_name == "live":
        return LiveEnv(checker=checker)
    raise DataError(f"unknown env {env_name!r}")


def _guarded(fn):
    try:
        fn()
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA_ERROR)
    except BackendError as exc:
        click.echo(f"backend error: {exc}", err=True)
        sys.exit(EXIT_BACKEND_ERROR)
    except MaasError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Query-conditioned multi-agent architecture sampling and training."""


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--env", "env_name", default="synthetic",
              type=click.Choice(["synthetic", "live"]))
@click.option("--env-profile", type=click.Path(exists=True))
@click.option("--layers", default=4, show_default=True)
@click.option("--thres", default=0.3, show_default=True)
@click.option("--lambda", "cost_lambda", default=5e-3, show_default=True)
@click.option("--samples-k", default=4, show_default=True)
@click.option("--lr", default=0.05, show_default=True)
@click.option("--iterations", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--patch-every", default=10, show_default=True,
              help="textual-patch cadence in steps; 0 disables patching")
@click.option("--mutator", default="mock",
              type=click.Choice(["mock", "llm", "none"]), show_default=True)
@click.option("--checker", default="exact_match",
              type=click.Choice(["exact_match", "numeric"]), show_default=True)
@click.option("--checkpoint", "checkpoint_out", required=True, type=click.Path())
@click.option("--metrics-out", type=click.Path())
def train(dataset, env_name, env_profile, layers, thres, cost_lambda, samples_k,
          lr, iterations, seed, patch_every, mutator, checker, checkpoint_out,
          metrics_out):
    """Optimize the supernet on the train split of a JSONL dataset."""

    def body():
        config = TrainConfig(
            num_layers=layers,
            thres=thres,
            cost_lambda=cost_lambda,
            samples_k=samples_k,
            lr=lr,
            iterations=iterations,
            seed=seed,
            patch_every=patch_every or None,
            mutator=mutator,
        )
        try:
            config.validate()
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        env = _make_env(env_name, env_profile, checker)
        mut = LLMMutator() if mutator == "llm" else mutator
        checkpoint, metrics = run_train(
            config, dataset, env, mutator=mut,
            checkpoint_path=checkpoint_out, metrics_path=metrics_out,
        )
        click.echo(json.dumps(checkpoint["metrics_summary"], sort_keys=True))

    _guarded(body)


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True))
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--env", "env_name", default="synthetic",
              type=click.Choice(["synthetic", "live"]))
@click.option("--env-profile", type=click.Path(exists=True))
@click.option("--checker", default="exact_match",
              type=click.Choice(["exact_match", "numeric"]), show_default=True)
@click.option("--report-out", type=click.Path())
def eval_cmd(checkpoint_path, dataset, env_name, env_profile, checker, report_out):
    """Evaluate a checkpoint on a dataset with deterministic selection."""

    def body():
        env = _make_env(env_name, env_profile, checker)
        checkpoint = ckpt.load(checkpoint_path)
        report = run_eval(checkpoint, dataset, env)
        text = json.dumps(report, sort_keys=True, indent=2)
        click.echo(text)
        if report_out:
            with open(report_out, "w") as fh:
                fh.write(text + "\n")

    _guarded(body)


@main.command()
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True))
@click.option("--query", required=True)
@click.option("--explain", is_flag=True,
              help="include per-layer score vectors in the output")
def sample(checkpoint_path, query, explain):
    """Print the architecture the checkpoint selects for one query."""

    def body():
        state, registry, config = ckpt.restore(ckpt.load(checkpoint_path))
        arch = sampler.sample_architecture(
            state, registry, query, config.thres, sampler.MODE_EVAL
        )
        out = arch.to_dict()
        if explain:
            out["per_layer_scores"] = [sv.scores.tolist() for sv in arch.forward]
        click.echo(json.dumps(out, sort_keys=True, indent=2))

    _guarded(body)


@main.command()
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True))
def inspect(checkpoint_path):
    """Print per-layer score vectors averaged over a built-in probe set."""

    def body():
        state, registry, config = ckpt.restore(ckpt.load(checkpoint_path))
        sums = {}
        counts = {}
        for q in PROBE_QUERIES:
            arch = sampler.sample_architecture(
                state, registry, q, config.thres, sampler.MODE_EVAL
            )
            for ell, sv in enumerate(arch.forward, start=1):
                sums[ell] = sums.get(ell, 0.0) + sv.scores
                counts[ell] = counts.get(ell, 0) + 1
        report = {
            "operator_ids": registry.ids(),
            "probe_queries": PROBE_QUERIES,
            "mean_scores_by_layer": {
                str(ell): (sums[ell] / counts[ell]).tolist() for ell in sorted(sums)
            },
        }
        click.echo(json.dumps(report, sort_keys=True, indent=2))

    _guarded(body)


if __name__ == "__main__":
    main()
