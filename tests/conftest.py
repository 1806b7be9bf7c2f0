"""Shared fixtures.

The expensive artifacts (the 1,000-game corpus and the model trained on it
with the default configuration) are session-scoped: they are built once,
lazily, the first time a test asks for them, and reused by every test that
needs a realistic trained model.
"""

# macronet first: importing it sets OPENBLAS_NUM_THREADS=1 unless a thread
# count is already set, which OpenBLAS reads only when numpy loads.
import macronet as mn  # isort: skip
import numpy as np
import pytest

from macronet.simulate import ReactiveScript
from macronet.training import TrainConfig, split_dataset, train

ACCEPTANCE_GAMES = 1000
ACCEPTANCE_SEED = 7


@pytest.fixture(scope="session")
def catalog():
    return mn.load_default_catalog()


@pytest.fixture(scope="session")
def norms(catalog):
    return mn.load_default_norms(catalog)


@pytest.fixture(scope="session")
def generator(catalog):
    return ReactiveScript(catalog)


@pytest.fixture(scope="session")
def corpus_logs(generator):
    return mn.generate_synthetic_corpus(generator, ACCEPTANCE_GAMES, seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def corpus_dataset(corpus_logs, catalog, norms):
    return mn.build_dataset(corpus_logs, catalog, norms)


@pytest.fixture(scope="session")
def corpus_split(corpus_dataset):
    return split_dataset(corpus_dataset, 0.8)


@pytest.fixture(scope="session")
def corpus_test_logs(corpus_logs, corpus_split):
    train_set, _ = corpus_split
    return corpus_logs[len(train_set.games) :]


@pytest.fixture(scope="session")
def default_model(corpus_split):
    """The default network trained with the paper-default configuration:
    210-128x4-58, 50 epochs, batch 100, Adam at 1e-4. Takes about a minute."""
    train_set, _ = corpus_split
    model, history = train(train_set, TrainConfig(seed=0))
    return model, history


@pytest.fixture(scope="session")
def small_logs(generator):
    return mn.generate_synthetic_corpus(generator, 30, seed=12)


@pytest.fixture(scope="session")
def small_dataset(small_logs, catalog, norms):
    return mn.build_dataset(small_logs, catalog, norms)


@pytest.fixture(scope="session")
def small_model(small_dataset):
    """A cheap real model for service and policy tests: trained briefly, so
    its outputs are meaningful but nothing rides on its accuracy."""
    model, _ = train(small_dataset, TrainConfig(epochs=3, seed=1))
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
