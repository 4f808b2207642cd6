"""Fixtures that several test modules share.

`trained_checkpoint` runs `maas train` with `train_args` once per session;
each test that only reads a trained checkpoint gets its own copy of those
bytes as `ckpt.json` in its `workdir` through `trained`. A checkpoint holds
no path, so the copy is the file the test would have trained itself.
"""

import pytest
from click.testing import CliRunner

from maas.cli import main
from tests.helpers import fill_workdir, train_args


@pytest.fixture
def workdir(tmp_path):
    return fill_workdir(tmp_path)


@pytest.fixture(scope="session")
def trained_checkpoint(tmp_path_factory):
    """The bytes of the checkpoint `maas train` writes with `train_args`."""
    workdir = fill_workdir(tmp_path_factory.mktemp("trained"))
    result = CliRunner().invoke(main, train_args(workdir))
    assert result.exit_code == 0, result.output
    return (workdir / "ckpt.json").read_bytes()


@pytest.fixture
def trained(workdir, trained_checkpoint):
    """`workdir` holding a copy of `trained_checkpoint` as its `ckpt.json`."""
    (workdir / "ckpt.json").write_bytes(trained_checkpoint)


@pytest.fixture
def mix_path(workdir):
    return str(workdir / "mix.jsonl")
