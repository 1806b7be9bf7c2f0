import io
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macronet
from macronet.encoding import (
    FULL_MASK,
    N_CLASSES,
    N_FEATURES,
    Dataset,
    GameRecord,
    build_dataset,
    parse_mask,
    read_dataset,
    write_dataset,
)
from macronet.errors import CompatibilityError
from macronet.net import ModelMeta, init_network
from macronet.simulate import generate_synthetic_corpus
from macronet.training import (
    AblationRow,
    TrainConfig,
    baseline_most_frequent,
    baseline_uniform_random,
    class_frequencies,
    evaluate_topk,
    format_ablation_report,
    run_ablation_grid,
    split_dataset,
    topk_errors_from_probs,
    train,
    uniform_random_error,
)


def make_dataset(pair_counts, action_of=lambda g, i: (g + i) % N_CLASSES, seed=0):
    """Dataset with the given per-game pair counts and deterministic actions."""
    rng = np.random.default_rng(seed)
    games = []
    for g, n in enumerate(pair_counts):
        vectors = rng.random((n, N_FEATURES))
        actions = np.array([action_of(g, i) for i in range(n)], dtype=np.int64)
        games.append(GameRecord(game_id=f"game-{g}", vectors=vectors, actions=actions))
    return Dataset.from_games(games, "cat", "nrm")


# -- splitting ----------------------------------------------------------------


def test_split_picks_nearest_boundary():
    ds = make_dataset([4, 4, 2])
    train_set, test_set = split_dataset(ds, fraction=0.8)
    # cumulative counts 4, 8, 10 against target 8: boundary after game 2
    assert [g.game_id for g in train_set.games] == ["game-0", "game-1"]
    assert [g.game_id for g in test_set.games] == ["game-2"]
    assert train_set.catalog_hash == ds.catalog_hash
    assert test_set.norms_hash == ds.norms_hash


def test_split_tie_goes_to_smaller_train_side():
    ds = make_dataset([1, 2, 1])
    train_set, test_set = split_dataset(ds, fraction=0.5)
    # cumulative 1, 3, 4 against target 2: gaps 1, 1, 2; first best wins
    assert len(train_set.games) == 1
    assert len(test_set.games) == 2


def test_split_games_never_straddle():
    ds = make_dataset([5, 7, 3, 9, 6])
    train_set, test_set = split_dataset(ds, fraction=0.6)
    assert [g.game_id for g in train_set.games] + [
        g.game_id for g in test_set.games
    ] == [g.game_id for g in ds.games]
    assert train_set.n_pairs + test_set.n_pairs == ds.n_pairs


def test_split_rejects_bad_fraction():
    ds = make_dataset([3, 3])
    for fraction in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_dataset(ds, fraction=fraction)


def test_split_rejects_single_game():
    with pytest.raises(ValueError):
        split_dataset(make_dataset([10]), fraction=0.8)


def test_split_rejects_empty_side():
    # target 10.89 sits closest to the boundary after the last game
    with pytest.raises(ValueError):
        split_dataset(make_dataset([10, 1]), fraction=0.99)


def test_stacked_and_split_are_views_of_the_read_dataset(generator, catalog, norms):
    """After read_dataset, stacked() and split_dataset hand out read-only
    views of the dataset's one matrix and action vector: nothing is copied."""
    logs = generate_synthetic_corpus(generator, 20, seed=3)
    buf = io.BytesIO()
    write_dataset(build_dataset(logs, catalog, norms), buf)
    file_bytes = buf.tell()
    buf.seek(0)
    dataset = read_dataset(buf)
    tracemalloc.start()
    try:
        X, y = dataset.stacked()
        train_set, test_set = split_dataset(dataset)
        sides = (*train_set.stacked(), *test_set.stacked())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * file_bytes, (peak, file_bytes)
    assert len(sides[0]) + len(sides[2]) == len(X) > 0
    for vectors, actions in ((X, y), sides[:2], sides[2:]):
        assert np.shares_memory(vectors, dataset.vectors)
        assert np.shares_memory(actions, dataset.actions)
        with pytest.raises(ValueError):
            vectors[0, 0] = 0.5
        with pytest.raises(ValueError):
            actions[0] = 1


# -- top-k ranking --------------------------------------------------------------


def test_topk_errors_hand_case():
    probs = np.zeros((2, N_CLASSES))
    probs[0, 5] = 0.9
    probs[0, 7] = 0.1
    probs[1, 3] = 0.5
    probs[1, 4] = 0.3
    probs[1, 5] = 0.2
    errors = topk_errors_from_probs(probs, np.array([7, 5]), ks=(1, 2, 3))
    assert errors[1] == pytest.approx(1.0)  # neither label ranks first
    assert errors[2] == pytest.approx(0.5)  # label 7 is second for row 0
    assert errors[3] == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=6, max_size=6
            ),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_topk_rank_matches_stable_argsort(rows):
    """Ties break toward the lower class index, which is exactly what a stable
    argsort over negated scores produces."""
    probs = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    ks = (1, 2, 3, 6)
    errors = topk_errors_from_probs(probs, y, ks=ks)
    order = np.argsort(-probs, axis=1, kind="stable")
    position = np.empty(len(y), dtype=np.int64)
    for i in range(len(y)):
        position[i] = int(np.nonzero(order[i] == y[i])[0][0])
    for k in ks:
        assert errors[k] == pytest.approx(float((position >= k).mean()))


def test_evaluate_topk_applies_model_mask(small_dataset, rng):
    """A model masked to group a scores the same whatever groups b-e hold."""
    X = small_dataset.vectors
    noisy = replace(small_dataset, vectors=np.hstack([X[:, :58], rng.random((len(X), 152))]))
    meta = ModelMeta(small_dataset.catalog_hash, small_dataset.norms_hash, parse_mask("a"))
    masked = init_network(seed=0, meta=meta)
    base = evaluate_topk(masked, small_dataset)
    assert set(base) == {1, 3, 10}
    assert evaluate_topk(masked, noisy) == base
    # the noise is visible to a model that sees every group
    full = replace(masked, meta=replace(meta, mask=FULL_MASK))
    assert evaluate_topk(full, noisy) != evaluate_topk(full, small_dataset)


def test_evaluate_topk_rejects_data_from_other_norms(small_dataset):
    meta = ModelMeta(small_dataset.catalog_hash, "f" * 16)
    with pytest.raises(CompatibilityError, match="different normalization table"):
        evaluate_topk(init_network(meta=meta), small_dataset)


def test_untrained_net_is_chance_level_on_random_labels():
    """Labels drawn independently of the inputs: any fixed predictor has
    expected top-k error 1 - k/58."""
    rng = np.random.default_rng(42)
    n = 2000
    ds = Dataset.from_games(
        (
            GameRecord(
                game_id="noise",
                vectors=rng.random((n, N_FEATURES)),
                actions=rng.integers(0, N_CLASSES, size=n),
            ),
        )
    )
    errors = evaluate_topk(init_network(seed=5), ds)
    for k in (1, 3, 10):
        p = 1.0 - k / N_CLASSES
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(errors[k] - p) < 3 * sigma


# -- baselines ----------------------------------------------------------------


def test_most_frequent_baseline_single_guess():
    train_set = make_dataset([10], action_of=lambda g, i: 3 if i < 6 else 1)
    test_set = make_dataset([4], action_of=lambda g, i: [3, 1, 0, 7][i])
    errors = baseline_most_frequent(train_set, test_set)
    assert errors[1] == errors[3] == errors[10] == pytest.approx(0.75)


def test_uniform_random_baseline_near_analytic():
    test_set = make_dataset([3000], action_of=lambda g, i: i % N_CLASSES)
    errors = baseline_uniform_random(test_set, seed=1)
    for k in (1, 3, 10):
        p = uniform_random_error(k)
        sigma = (p * (1 - p) / 3000) ** 0.5
        assert abs(errors[k] - p) < 3 * sigma


def test_uniform_random_error_analytic():
    assert uniform_random_error(1) == pytest.approx(1 - 1 / 58)
    assert uniform_random_error(3) == pytest.approx(1 - 3 / 58)
    assert uniform_random_error(10) == pytest.approx(1 - 10 / 58)
    assert uniform_random_error(58) == 0.0


def test_class_frequencies_counts_all_games():
    ds = make_dataset([3, 2], action_of=lambda g, i: g)
    counts = class_frequencies(ds)
    assert counts[0] == 3 and counts[1] == 2
    assert counts.sum() == 5


# -- training ----------------------------------------------------------------


def separable_dataset(n=300, seed=4):
    """Label j is flagged by feature j at full strength; learnable quickly."""
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, N_CLASSES, size=n)
    vectors = rng.random((n, N_FEATURES)) * 0.05
    vectors[np.arange(n), actions] = 1.0
    return Dataset.from_games(
        (GameRecord(game_id="sep", vectors=vectors, actions=actions),), "cat", "nrm"
    )


FAST = TrainConfig(
    epochs=60, batch_size=100, learning_rate=0.01, seed=0, layer_sizes=(210, 32, 58)
)


def test_train_learns_separable_data():
    ds = separable_dataset()
    net, history = train(ds, FAST)
    assert len(history) == 60
    assert history[-1].train_loss < history[0].train_loss * 0.25
    errors = evaluate_topk(net, ds)
    assert errors[1] < 0.05


def test_train_is_deterministic():
    ds = separable_dataset()
    config = TrainConfig(epochs=2, layer_sizes=(210, 16, 58), seed=3)
    net_a, hist_a = train(ds, config)
    net_b, hist_b = train(ds, config)
    assert net_a.model_version() == net_b.model_version()
    assert hist_a == hist_b
    net_c, _ = train(ds, TrainConfig(epochs=2, layer_sizes=(210, 16, 58), seed=4))
    assert net_c.model_version() != net_a.model_version()


# Recorded when supply began to divide by the game's limit of 400 half-units
# and each weight gradient became (a.T @ delta).T; any change to the
# encoding, the arithmetic or the file layout moves them.
PINNED_MODEL_VERSION = "563355a30ba4"
PINNED_MODEL_SHA256 = "3aa64ae53c336318dd2eccc6166d50a4421ceaac318d0fab2b9283ed87519bf7"
PIN_SCRIPT = """
import hashlib, io
import macronet as mn
from macronet.net import save_model
from macronet.simulate import ReactiveScript
from macronet.training import TrainConfig, train
catalog = mn.load_default_catalog()
logs = mn.generate_synthetic_corpus(ReactiveScript(catalog), 40, seed=5)
ds = mn.build_dataset(logs, catalog, mn.load_default_norms(catalog))
net, _ = train(ds, TrainConfig(epochs=3, seed=5))
buf = io.BytesIO()
save_model(net, buf)
print(net.model_version(), hashlib.sha256(buf.getvalue()).hexdigest())
"""


def test_trained_model_bits_are_pinned():
    """The same bits at one and at two BLAS threads. BLAS does not promise
    this, so a BLAS build that breaks it fails here."""
    src = str(Path(macronet.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", PIN_SCRIPT], env=env, stdout=subprocess.PIPE, text=True
        )
    for threads, run in runs.items():
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0, threads
        assert out.split() == [PINNED_MODEL_VERSION, PINNED_MODEL_SHA256], threads


def test_train_records_meta_and_mask():
    ds = separable_dataset()
    mask = parse_mask("a+e")
    config = TrainConfig(epochs=1, layer_sizes=(210, 16, 58), mask=mask)
    net, _ = train(ds, config)
    assert net.meta.catalog_hash == "cat"
    assert net.meta.norms_hash == "nrm"
    assert net.meta.mask == mask


def test_train_history_tracks_eval_set():
    ds = separable_dataset(n=240)
    held = separable_dataset(n=60, seed=9)
    _, history = train(
        ds, TrainConfig(epochs=3, layer_sizes=(210, 16, 58)), eval_set=held
    )
    for stats in history:
        assert set(stats.eval_errors) == {1, 3, 10}
    _, history = train(ds, TrainConfig(epochs=3, layer_sizes=(210, 16, 58)))
    assert all(s.eval_errors is None for s in history)
    assert [s.epoch for s in history] == [1, 2, 3]


def test_train_rejects_empty_dataset():
    empty = Dataset.from_games(())
    with pytest.raises(ValueError):
        train(empty, FAST)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# -- ablation grid ---------------------------------------------------------------


def test_ablation_row_stats():
    row = AblationRow(label="a", runs=({1: 0.4, 3: 0.2}, {1: 0.6, 3: 0.4}))
    assert row.mean(1) == pytest.approx(0.5)
    assert row.std(1) == pytest.approx(np.std([0.4, 0.6], ddof=1))
    single = AblationRow(label="a", runs=({1: 0.4, 3: 0.2},))
    assert single.std(1) == 0.0


def test_run_ablation_grid_shape():
    ds = make_dataset([40, 40, 40, 40], action_of=lambda g, i: (3 * g + i) % 7)
    config = TrainConfig(epochs=1, batch_size=50, layer_sizes=(210, 8, 58))
    report = run_ablation_grid(
        ds,
        masks=[parse_mask("a+b+c+d+e"), parse_mask("a")],
        base_config=config,
        repeats=2,
    )
    assert [row.label for row in report.rows] == ["a+b+c+d+e", "a"]
    assert report.repeats == 2
    assert all(len(row.runs) == 2 for row in report.rows)
    assert report.ks == (1, 3, 10)
    text = format_ablation_report(report)
    assert "a+b+c+d+e" in text
    assert "%" in text


def test_ablation_runs_differ_across_repeats():
    ds = make_dataset([40, 40, 40, 40], action_of=lambda g, i: (3 * g + i) % 7)
    config = TrainConfig(epochs=1, batch_size=50, layer_sizes=(210, 8, 58))
    report = run_ablation_grid(ds, masks=[parse_mask("a")], base_config=config, repeats=2)
    runs = report.rows[0].runs
    assert runs[0] != runs[1]  # different seeds, different weights
