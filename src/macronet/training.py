"""Training loop, top-k evaluation, baselines, and the ablation grid.

Training is bit-reproducible: the same dataset, config, and seed produce an
identical network, because initialization, the per-epoch shuffle, and every
floating-point operation are deterministic. With OpenBLAS 0.3.31 (numpy's
scipy-openblas build) the bits are also the same at any BLAS thread count.
BLAS does not promise that, so the tests check a pinned model at one and at
two threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import N_CLASSES, Dataset, FeatureGroupMask
from .net import (
    DEFAULT_LAYER_SIZES,
    ModelMeta,
    Network,
    NetworkTopology,
    Workspace,
    adam_step,
    backward_batch,
    check_compatibility,
    forward_batch,
    init_adam,
    init_network,
)

DEFAULT_TOP_KS = (1, 3, 10)
DEFAULT_SPLIT_FRACTION = 0.8
DEFAULT_REPEATS = 5


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 100
    learning_rate: float = 0.0001
    seed: int = 0
    mask: FeatureGroupMask = field(default_factory=FeatureGroupMask)
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class EpochStats:
    """One epoch's results. ``seconds`` is the wall time of its pass over the
    training set, evaluation excluded; it is left out of equality, so equal
    runs compare equal."""

    epoch: int
    train_loss: float
    train_top1_error: float
    eval_errors: dict[int, float] | None = None
    seconds: float = field(default=0.0, compare=False)


def split_dataset(
    dataset: Dataset, fraction: float = DEFAULT_SPLIT_FRACTION
) -> tuple[Dataset, Dataset]:
    """Split at the whole-game boundary whose cumulative pair count is nearest
    fraction * total. Games never straddle the split; ties go to the smaller
    training side. Both sides are views of the dataset's arrays."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    n_games = len(dataset.game_ids)
    if n_games < 2:
        raise ValueError("need at least two games to split")
    bounds = dataset.bounds
    # argmin takes the first of equal gaps: the smaller training side.
    k = 1 + int(np.argmin(np.abs(bounds[1:] - fraction * dataset.n_pairs)))
    if k == n_games:
        raise ValueError("split would leave one side empty")
    cut = bounds[k]
    train = replace(dataset, vectors=dataset.vectors[:cut], actions=dataset.actions[:cut],
                    game_ids=dataset.game_ids[:k], bounds=bounds[: k + 1])
    test = replace(dataset, vectors=dataset.vectors[cut:], actions=dataset.actions[cut:],
                   game_ids=dataset.game_ids[k:], bounds=bounds[k:] - cut)
    return train, test


def class_frequencies(dataset: Dataset) -> np.ndarray:
    return np.bincount(dataset.actions, minlength=N_CLASSES)


def train(
    train_set: Dataset,
    config: TrainConfig = TrainConfig(),
    eval_set: Dataset | None = None,
) -> tuple[Network, list[EpochStats]]:
    """Minibatch Adam on the cross-entropy loss.

    Per-epoch train top-1 error is accumulated from each batch's outputs
    before that batch's update, so epoch 1 already reflects learning within
    the epoch. When eval_set is given, top-k error on it is recorded after
    every epoch.

    Every step works in one Workspace allocated for the run: the batch is
    gathered into it, and Adam updates the network's parameters in place.
    """
    if train_set.n_pairs == 0:
        raise ValueError("training set is empty")
    X, y = train_set.stacked()
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    meta = ModelMeta(
        catalog_hash=train_set.catalog_hash,
        norms_hash=train_set.norms_hash,
        mask=config.mask,
    )
    topology = NetworkTopology(layer_sizes=tuple(config.layer_sizes))
    net = init_network(topology, seed=config.seed, meta=meta)
    adam = init_adam(net, alpha=config.learning_rate)
    shuffle_rng = np.random.default_rng(config.seed)
    n = len(y)
    workspace = Workspace(topology, min(config.batch_size, n))
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        wrong = 0
        for start in range(0, n, config.batch_size):
            xb, yb = workspace.gather(X, y, perm[start : start + config.batch_size])
            batch_loss, probs, grads = backward_batch(net, xb, yb, workspace)
            loss_sum += batch_loss * len(yb)
            wrong += int((probs.argmax(axis=1) != yb).sum())
            net, adam = adam_step(net, adam, grads, workspace)
        seconds = time.perf_counter() - started
        eval_errors = None
        if eval_set is not None:
            eval_errors = evaluate_topk(net, eval_set)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_top1_error=wrong / n,
                eval_errors=eval_errors,
                seconds=seconds,
            )
        )
    return net, history


def _rank_of_labels(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """0-based rank of each label under the deterministic tie-break: classes
    with strictly higher probability rank first, then equal-probability
    classes with a lower index."""
    p_label = probs[np.arange(len(y)), y][:, None]
    greater = (probs > p_label).sum(axis=1)
    cols = np.arange(probs.shape[1])[None, :]
    equal_lower = ((probs == p_label) & (cols < y[:, None])).sum(axis=1)
    return greater + equal_lower


def topk_errors_from_probs(
    probs: np.ndarray, y: np.ndarray, ks=DEFAULT_TOP_KS
) -> dict[int, float]:
    ranks = _rank_of_labels(probs, y)
    return {k: float((ranks >= k).mean()) for k in ks}


def evaluate_topk(
    net: Network, dataset: Dataset, ks=DEFAULT_TOP_KS
) -> dict[int, float]:
    """Top-k error rates on a dataset encoded with the model's catalog and
    normalization table."""
    check_compatibility(net, dataset.catalog_hash, dataset.norms_hash)
    if dataset.n_pairs == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    X, y = dataset.stacked()
    probs = forward_batch(net, X)
    return topk_errors_from_probs(probs, y, ks)


def baseline_most_frequent(
    train_set: Dataset, test_set: Dataset, ks=DEFAULT_TOP_KS
) -> dict[int, float]:
    """Predict the most frequent training action for every state.

    A single-guess predictor is wrong whenever the label differs, at every k,
    so all entries share the top-1 error."""
    counts = class_frequencies(train_set)
    _, y = test_set.stacked()
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    err = float((y != int(counts.argmax())).mean())
    return {k: err for k in ks}


def baseline_uniform_random(
    test_set: Dataset, ks=DEFAULT_TOP_KS, seed: int = 0
) -> dict[int, float]:
    """Rank the classes uniformly at random for each state. The expected
    top-k error is 1 - k/58."""
    _, y = test_set.stacked()
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    rng = np.random.default_rng(seed)
    scores = rng.random((len(y), N_CLASSES))
    return topk_errors_from_probs(scores, y, ks)


def uniform_random_error(k: int, n_classes: int = N_CLASSES) -> float:
    return 1.0 - k / n_classes


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    """One mask's top-k errors, and the wall time of each epoch, per run.
    The times are left out of equality, so equal grids compare equal."""

    label: str
    runs: tuple[dict[int, float], ...]
    epoch_seconds: tuple[tuple[float, ...], ...] = field(default=(), compare=False)

    def mean(self, k: int) -> float:
        return float(np.mean([r[k] for r in self.runs]))

    def std(self, k: int) -> float:
        if len(self.runs) < 2:
            return 0.0
        return float(np.std([r[k] for r in self.runs], ddof=1))


@dataclass(frozen=True)
class AblationReport:
    rows: tuple[AblationRow, ...]
    ks: tuple[int, ...]
    repeats: int
    train_pairs: int


def run_ablation_grid(
    dataset: Dataset,
    masks: list[FeatureGroupMask],
    base_config: TrainConfig = TrainConfig(),
    repeats: int = DEFAULT_REPEATS,
    fraction: float = DEFAULT_SPLIT_FRACTION,
    ks=DEFAULT_TOP_KS,
) -> AblationReport:
    """Train each masked variant `repeats` times on a fixed game-level split,
    seeding run i with base_config.seed + i, and report mean and sample
    standard deviation of the top-k errors."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    train_set, test_set = split_dataset(dataset, fraction)
    rows = []
    for mask in masks:
        runs, seconds = [], []
        for i in range(repeats):
            config = replace(base_config, mask=mask, seed=base_config.seed + i)
            net, history = train(train_set, config)
            runs.append(evaluate_topk(net, test_set, ks))
            seconds.append(tuple(h.seconds for h in history))
        rows.append(
            AblationRow(label=mask.label(), runs=tuple(runs), epoch_seconds=tuple(seconds))
        )
    return AblationReport(
        rows=tuple(rows), ks=tuple(ks), repeats=repeats, train_pairs=train_set.n_pairs
    )


def format_ablation_report(report: AblationReport) -> str:
    lines = []
    header = "feature groups".ljust(16) + "".join(
        f"top-{k} error".rjust(22) for k in report.ks
    )
    lines.append(header)
    for row in report.rows:
        cells = "".join(
            f"{100 * row.mean(k):8.2f}% +/- {100 * row.std(k):5.2f}%".rjust(22)
            for k in report.ks
        )
        lines.append(row.label.ljust(16) + cells)
    lines.append(f"({report.repeats} runs per row, mean +/- sample std)")
    return "\n".join(lines)
