"""Fixtures for the benchmark's own tests: a small corpus, its dataset file,
a briefly trained model and the request mix built on them.

Run with ``PYTHONPATH=src python3 -m pytest bench/tests -q`` from the root."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402


@pytest.fixture(scope="session")
def program():
    return inputs.Program()


@pytest.fixture(scope="session")
def corpus(program, tmp_path_factory):
    """(logs, corpus directory with the injected invalid logs, dataset path)."""
    root = tmp_path_factory.mktemp("bench")
    logs = inputs.synth_logs(program, 12, seed=3)
    inputs.write_corpus(program, logs, root / "corpus")
    inputs.write_dataset(program, logs, root / "data.ds")
    return logs, root / "corpus", root / "data.ds"


@pytest.fixture(scope="session")
def model_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    inputs.write_model(path, corpus[2], epochs=2, seed=5)
    return path
