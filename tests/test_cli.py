import collections
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import socket
import stat
import tracemalloc
from pathlib import Path

import pytest

from macronet import cli, encoding
from macronet.catalog import load_default_catalog
from macronet.cli import EXPANSION_CSV_HEADER, expansion_curve, main
from macronet.encoding import read_dataset
from macronet.events import EventKind, parse_event_log
from macronet.forward import replay
from macronet.net import ModelMeta, NetworkTopology, init_network, load_model, save_model
from macronet.training import TrainConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> extract -> train pass shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    events = root / "events"
    dataset = root / "corpus.mnds"
    model = root / "model.mnnet"
    assert (
        main(
            [
                "synth",
                "--generator",
                "two-branch",
                "--games",
                "40",
                "--seed",
                "3",
                "--out",
                str(events),
            ]
        )
        == 0
    )
    assert main(["extract", "--events", str(events), "--out", str(dataset)]) == 0
    assert (
        main(
            [
                "train",
                "--dataset",
                str(dataset),
                "--out",
                str(model),
                "--epochs",
                "2",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    return {"root": root, "events": events, "dataset": dataset, "model": model}


def test_synth_writes_event_files(pipeline):
    files = sorted(pipeline["events"].glob("*.events"))
    assert len(files) == 40
    assert files[0].name == "synth-3-00000.events"


def test_extract_builds_dataset(pipeline):
    with open(pipeline["dataset"], "rb") as f:
        ds = read_dataset(f)
    assert len(ds.games) == 40
    assert ds.n_pairs == 40 * 6  # two-branch plays six decisions per game
    assert ds.catalog_hash and ds.norms_hash


def test_extract_is_reproducible(pipeline, tmp_path):
    out = tmp_path / "again.mnds"
    assert main(["extract", "--events", str(pipeline["events"]), "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["dataset"].read_bytes()


def test_train_output_loads(pipeline):
    with open(pipeline["model"], "rb") as f:
        model = load_model(f)
    assert model.topology.input_size == 210
    with open(pipeline["dataset"], "rb") as f:
        ds = read_dataset(f)
    assert model.meta.catalog_hash == ds.catalog_hash


def test_train_same_seed_same_bytes(pipeline, tmp_path):
    out_a = tmp_path / "a.mnnet"
    out_b = tmp_path / "b.mnnet"
    argv = ["train", "--dataset", str(pipeline["dataset"]), "--epochs", "1", "--seed", "7"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_json_report(pipeline, tmp_path, capsys):
    out = tmp_path / "m.mnnet"
    code = main(
        [
            "train",
            "--dataset",
            str(pipeline["dataset"]),
            "--out",
            str(out),
            "--epochs",
            "1",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["epochs"] == 1
    assert set(report["test_errors"]) == {"1", "3", "10"}
    assert report["model_version"]
    assert report["train_pairs"] + report["test_pairs"] == 240


# Wall-clock figures: they differ between equal runs.
_EPOCH_TIMING_KEYS = ("epoch_seconds", "epoch_pairs_per_s")


def test_train_json_times_each_epoch(pipeline, tmp_path, capsys):
    argv = ["train", "--dataset", str(pipeline["dataset"]), "--epochs", "3", "--json"]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "m.mnnet")]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in _EPOCH_TIMING_KEYS:
        assert len(report[key]) == 3, key
        assert all(value > 0 for value in report[key]), key


def test_eval_json_and_table(pipeline, capsys):
    argv = ["eval", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"])]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"pairs", "model", "most_frequent", "uniform_random"}
    assert main(argv) == 0
    table = capsys.readouterr().out
    for row in ("predictor", "model", "most-frequent", "uniform-random"):
        assert row in table


def test_eval_all_uses_every_pair(pipeline, capsys):
    argv = [
        "eval",
        "--dataset",
        str(pipeline["dataset"]),
        "--model",
        str(pipeline["model"]),
        "--all",
        "--json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == 240


def test_ablate_json_shape(pipeline, capsys):
    code = main(
        [
            "ablate",
            "--dataset",
            str(pipeline["dataset"]),
            "--masks",
            "a+b+c+d+e,a",
            "--repeats",
            "2",
            "--epochs",
            "1",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["repeats"] == 2
    assert [row["mask"] for row in report["rows"]] == ["a+b+c+d+e", "a"]
    for row in report["rows"]:
        for key in _EPOCH_TIMING_KEYS:
            del row[key]
        assert set(row) == {"mask", "errors"}
        assert set(row["errors"]) == {"1", "3", "10"}
        assert row["errors"]["1"]["std"] >= 0.0


def test_ablate_json_times_each_epoch_of_each_run(pipeline, capsys):
    argv = ["ablate", "--dataset", str(pipeline["dataset"]), "--masks", "a+b,a",
            "--repeats", "2", "--epochs", "3", "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    for row in json.loads(capsys.readouterr().out)["rows"]:
        for key in _EPOCH_TIMING_KEYS:
            assert len(row[key]) == 2, key
            for run in row[key]:
                assert len(run) == 3 and all(value >= 0 for value in run), key


def test_analyze_csv_round_trips(pipeline, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "analyze",
            "--dataset",
            str(pipeline["dataset"]),
            "--model",
            str(pipeline["model"]),
            "--out",
            str(out),
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    text = out.read_text()
    assert text.splitlines()[0] == EXPANSION_CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report["rows"])
    for parsed, emitted in zip(rows, report["rows"]):
        assert int(parsed["probe_count"]) == emitted["probe_count"]
        assert int(parsed["n_states"]) == emitted["n_states"]
        assert float(parsed["mean_probability"]) == pytest.approx(
            emitted["mean_probability"], abs=1e-6
        )


@pytest.fixture(scope="module")
def other_norms_dataset(pipeline):
    """The pipeline's dataset, recorded as encoded with another norms table."""
    path = pipeline["root"] / "other-norms.mnds"
    with open(pipeline["dataset"], "rb") as f:
        dataset = read_dataset(f)
    with open(path, "wb") as f:
        encoding.write_dataset(dataclasses.replace(dataset, norms_hash="f" * 16), f)
    return path


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_model_refuses_a_dataset_from_other_norms(
    pipeline, other_norms_dataset, tmp_path, capsys, command
):
    argv = [command, "--dataset", str(other_norms_dataset), "--model", str(pipeline["model"])]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "curve.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "model was trained with a different normalization table" in err
    assert f"!= {'f' * 16}" in err


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_model_of_the_wrong_shape_is_refused(pipeline, tmp_path, capsys, command):
    """A 210-8-10 model that records the dataset's hashes fails with an
    error line, not an IndexError traceback."""
    with open(pipeline["dataset"], "rb") as f:
        dataset = read_dataset(f)
    meta = ModelMeta(catalog_hash=dataset.catalog_hash, norms_hash=dataset.norms_hash)
    model = tmp_path / "narrow.mnnet"
    with open(model, "wb") as f:
        save_model(init_network(NetworkTopology(layer_sizes=(210, 8, 10)), meta=meta), f)
    argv = [command, "--dataset", str(pipeline["dataset"]), "--model", str(model)]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "curve.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model maps 210 inputs to 10 outputs")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize(
    "command,flags",
    [("eval", []), ("analyze", []), ("analyze", ["--json"]), ("simulate", [])],
    ids=["eval", "analyze", "analyze-json", "simulate"],
)
def test_a_model_whose_output_is_not_finite_is_refused(
    pipeline, overflowing_model, tmp_path, capsys, command, flags
):
    """A model whose finite parameters overflow to a NaN output fails with an
    error line, where eval would rank NaN (0.00% error at every k) and
    analyze average it."""
    model = tmp_path / "overflowing.mnnet"
    with open(model, "wb") as f:
        save_model(overflowing_model, f)
    if command == "simulate":
        argv = [command, "--a", str(model), "--b", "worker-only", "--matches", "1"]
    else:
        argv = [command, "--dataset", str(pipeline["dataset"]), "--model", str(model)]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "curve.csv")]
    assert main(argv + flags) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: network output is not finite"


def test_analyze_refuses_norms_other_than_the_models(pipeline, tmp_path, capsys):
    catalog = load_default_catalog()
    norms = encoding.load_default_norms(catalog)
    norms.own_caps[0] += 1.0
    norms_path = tmp_path / "other.norms"
    with open(norms_path, "w", encoding="utf-8") as f:
        encoding.write_norms(norms, catalog, f)
    argv = ["analyze", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"])]
    assert main(argv + ["--norms", str(norms_path), "--out", str(tmp_path / "c.csv")]) == 1
    assert "different normalization table" in capsys.readouterr().err


def test_simulate_json(capsys):
    code = main(
        [
            "simulate",
            "--a",
            "worker-then-army",
            "--b",
            "worker-only",
            "--matches",
            "2",
            "--frame-cap",
            "9000",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches"] == 2
    assert report["wins_a"] == 2
    assert report["a"] == "worker-then-army"


# Digests of what `synth` writes for 25 games at seed 5 (the files' bytes in
# name order), and the `simulate --json` report below. Any change to a
# script's draws, their order, the states they are drawn at or the event text
# moves them.
PINNED_CORPUS_SHA256 = {
    "reactive": "3bfe2a04b5380b8f8cb639ffdaca73f217e0fe1833525589e9bf76fef93e0310",
    "two-branch": "c29ca2a2c9af6e0f89843305698cd2e7a3290be9fd11f386ab95c2af4d30c6c8",
    "fixed": "a6b26c29fc97e2e6d5c7942fc582d674b2a9edf7778bc01e3b91c1fd926a24fa",
}
PINNED_FIXED_SCRIPT = "probe,pylon,gateway,probe,cybernetics_core,zealot,dragoon,nexus"


@pytest.mark.parametrize("generator", sorted(PINNED_CORPUS_SHA256))
def test_synth_corpus_bytes_are_pinned(generator, tmp_path):
    out = tmp_path / generator
    argv = ["synth", "--generator", generator, "--games", "25", "--seed", "5"]
    if generator == "fixed":
        argv += ["--script", PINNED_FIXED_SCRIPT]
    assert main(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_CORPUS_SHA256[generator]


def test_simulate_json_is_pinned(capsys):
    capsys.readouterr()
    assert main(["simulate", "--a", "worker-then-army", "--b", "random", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "a": "worker-then-army",
        "b": "random",
        "draws": 0,
        "matches": 20,
        "wins_a": 20,
        "wins_b": 0,
    }


def test_simulate_without_matches_fails(capsys):
    code = main(["simulate", "--a", "worker-only", "--b", "worker-only", "--matches", "0"])
    assert code == 1
    assert "at least 1" in capsys.readouterr().err


def test_simulate_model_player(pipeline, capsys):
    code = main(
        [
            "simulate",
            "--a",
            str(pipeline["model"]),
            "--b",
            "worker-only",
            "--matches",
            "1",
            "--frame-cap",
            "3000",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a"] == f"model:{pipeline['model'].name}"


# -- config file handling ---------------------------------------------------------


def test_config_file_supplies_options(pipeline, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "seed": 9}))
    out = tmp_path / "m.mnnet"
    code = main(
        [
            "train",
            "--dataset",
            str(pipeline["dataset"]),
            "--out",
            str(out),
            "--config",
            str(config),
            "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epochs"] == 1


def test_flags_beat_config(pipeline, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1}))
    out = tmp_path / "m.mnnet"
    code = main(
        [
            "train",
            "--dataset",
            str(pipeline["dataset"]),
            "--out",
            str(out),
            "--config",
            str(config),
            "--epochs",
            "2",
            "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epochs"] == 2


def test_unknown_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epoochs": 1}))
    code = main(
        [
            "train",
            "--dataset",
            str(pipeline["dataset"]),
            "--out",
            str(tmp_path / "m.mnnet"),
            "--config",
            str(config),
        ]
    )
    assert code == 1
    assert "epoochs" in capsys.readouterr().err


def _main_with_config(tmp_path, argv, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    return main(argv + ["--config", str(config)])


def _train_with_config(pipeline, tmp_path, values):
    argv = ["train", "--dataset", str(pipeline["dataset"]), "--out", str(tmp_path / "m.mnnet")]
    return _main_with_config(tmp_path, argv + ["--json"], values)


# Keys that train lacks, with the argv of a subcommand that has them.
_OTHER_COMMAND_ARGV = {
    "mode": ["simulate", "--matches", "1", "--frame-cap", "3000"],
    "generator": ["synth", "--games", "1", "--out", "never-written"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--policy-seed", "1"],
        ["serve", "--model", "m.mnnet", "--policy-seed", "1"],
        ["ablate", "--dataset", "d.mnds", "--mask", "a"],
        ["train", "--dataset", "d.mnds", "--out", "m.mnnet", "--epoch", "1"],
    ],
)
def test_removed_options_are_usage_errors(argv, capsys):
    """--policy-seed never changed a decision: each side and each connection
    passes its own rng. ablate's --mask, which each row overrode, is gone
    too. A prefix of an option is not read as the option, so neither --mask
    (for --masks) nor a mistyped --epoch (for --epochs) sets another."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate"], "policy_seed"),
        (["serve", "--model", "m.mnnet"], "policy_seed"),
        (["ablate", "--dataset", "d.mnds"], "mask"),
    ],
)
def test_removed_config_keys_are_unknown(tmp_path, capsys, argv, key):
    assert _main_with_config(tmp_path, argv, {key: 1}) == 1
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


def test_config_values_convert_like_flags(pipeline, tmp_path, capsys):
    code = _train_with_config(
        pipeline, tmp_path, {"epochs": "2", "learning_rate": 1, "seed": "4"}
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epochs"] == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", True),  # a bool is not an int, although Python says it is
        ("epochs", "two"),
        ("epochs", 2.5),
        ("epochs", None),
        ("learning_rate", False),
        ("batch_size", [100]),
        ("mask", True),
        ("json", "yes"),
        ("mode", "bogus"),  # outside the flag's choices
        ("generator", "nope"),
    ],
)
def test_config_values_of_the_wrong_type_rejected(pipeline, tmp_path, capsys, key, value):
    if key in _OTHER_COMMAND_ARGV:
        assert _main_with_config(tmp_path, _OTHER_COMMAND_ARGV[key], {key: value}) == 1
    else:
        assert _train_with_config(pipeline, tmp_path, {key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err


# Every subcommand's resolved options for an argv naming only its required
# options: with no config file, and with a config that sets every other key to
# a value that is not its default. Recorded from the table-driven merge that
# the parser's own defaults replaced; both must resolve the same values.
REQUIRED_ARGV = {
    "extract": ["--events", "ev", "--out", "out.mnds"],
    "synth": ["--out", "ev"],
    "train": ["--dataset", "d.mnds", "--out", "m.mnnet"],
    "eval": ["--dataset", "d.mnds", "--model", "m.mnnet"],
    "ablate": ["--dataset", "d.mnds"],
    "analyze": ["--dataset", "d.mnds", "--model", "m.mnnet", "--out", "c.csv"],
    "simulate": [],
    "serve": ["--model", "m.mnnet"],
}
_TRAIN_VALUES = {
    "epochs": 3, "batch_size": 17, "learning_rate": 0.01, "seed": 5, "split_fraction": 0.5,
}
_POLICY_CONFIG = {"mode": "probabilistic", "blind": True, "exclude": "default"}
FULL_CONFIG = {
    "extract": {"catalog": "c.txt", "norms": "n.txt", "json": True},
    "synth": {
        "catalog": "c.txt", "generator": "fixed", "games": 7, "seed": 3, "p_first": 0.25,
        "script": "probe,pylon", "json": True,
    },
    "train": {**_TRAIN_VALUES, "mask": "a+b", "no_split": True, "json": True},
    "eval": {"split_fraction": 0.6, "all": True, "seed": 2, "json": True},
    "ablate": {"masks": "a,a+b", "repeats": 2, **_TRAIN_VALUES, "json": True},
    "analyze": {"catalog": "c.txt", "norms": "n.txt", "json": True},
    "simulate": {
        "catalog": "c.txt", "norms": "n.txt", "a": "worker-only", "b": "random",
        "matches": 3, "seed": 4, "frame_cap": 1000, **_POLICY_CONFIG, "json": True,
    },
    "serve": {
        "catalog": "c.txt", "norms": "n.txt", "bind": "0.0.0.0:9999", "seed": 1,
        **_POLICY_CONFIG,
    },
}
PINNED_RESOLVED = {
    ("extract", False): {
        "catalog": None, "events": "ev", "json": False, "norms": None, "out": "out.mnds",
    },
    ("extract", True): {
        "catalog": "c.txt", "events": "ev", "json": True, "norms": "n.txt", "out": "out.mnds",
    },
    ("synth", False): {
        "catalog": None, "games": 100, "generator": "reactive", "json": False, "out": "ev",
        "p_first": 0.7, "script": "", "seed": 0,
    },
    ("synth", True): {
        "catalog": "c.txt", "games": 7, "generator": "fixed", "json": True, "out": "ev",
        "p_first": 0.25, "script": "probe,pylon", "seed": 3,
    },
    ("train", False): {
        "batch_size": 100, "dataset": "d.mnds", "epochs": 50, "json": False,
        "learning_rate": 0.0001, "mask": "a+b+c+d+e", "no_split": False, "out": "m.mnnet",
        "seed": 0, "split_fraction": 0.8,
    },
    ("train", True): {
        "batch_size": 17, "dataset": "d.mnds", "epochs": 3, "json": True,
        "learning_rate": 0.01, "mask": "a+b", "no_split": True, "out": "m.mnnet",
        "seed": 5, "split_fraction": 0.5,
    },
    ("eval", False): {
        "all": False, "dataset": "d.mnds", "json": False, "model": "m.mnnet", "seed": 0,
        "split_fraction": 0.8,
    },
    ("eval", True): {
        "all": True, "dataset": "d.mnds", "json": True, "model": "m.mnnet", "seed": 2,
        "split_fraction": 0.6,
    },
    ("ablate", False): {
        "batch_size": 100, "dataset": "d.mnds", "epochs": 50, "json": False,
        "learning_rate": 0.0001, "masks": "a,a+d,a+b+c+e,a+b+c+d+e", "repeats": 5,
        "seed": 0, "split_fraction": 0.8,
    },
    ("ablate", True): {
        "batch_size": 17, "dataset": "d.mnds", "epochs": 3, "json": True,
        "learning_rate": 0.01, "masks": "a,a+b", "repeats": 2, "seed": 5,
        "split_fraction": 0.5,
    },
    ("analyze", False): {
        "catalog": None, "dataset": "d.mnds", "json": False, "model": "m.mnnet",
        "norms": None, "out": "c.csv",
    },
    ("analyze", True): {
        "catalog": "c.txt", "dataset": "d.mnds", "json": True, "model": "m.mnnet",
        "norms": "n.txt", "out": "c.csv",
    },
    ("simulate", False): {
        "a": "worker-then-army", "b": "worker-then-army", "blind": False, "catalog": None,
        "exclude": "", "frame_cap": 28800, "json": False, "matches": 20, "mode": "greedy",
        "norms": None, "seed": 0,
    },
    ("simulate", True): {
        "a": "worker-only", "b": "random", "blind": True, "catalog": "c.txt",
        "exclude": "default", "frame_cap": 1000, "json": True, "matches": 3,
        "mode": "probabilistic", "norms": "n.txt", "seed": 4,
    },
    ("serve", False): {
        "bind": "127.0.0.1:7777", "blind": False, "catalog": None, "exclude": "",
        "mode": "greedy", "model": "m.mnnet", "norms": None, "seed": 0,
    },
    ("serve", True): {
        "bind": "0.0.0.0:9999", "blind": True, "catalog": "c.txt", "exclude": "default",
        "mode": "probabilistic", "model": "m.mnnet", "norms": "n.txt", "seed": 1,
    },
}


@pytest.mark.parametrize("command, with_config", sorted(PINNED_RESOLVED))
def test_resolved_options_are_pinned(tmp_path, monkeypatch, command, with_config):
    seen = {}
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.update(vars(args)) or 0)
    argv = [command, *REQUIRED_ARGV[command]]
    if with_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(FULL_CONFIG[command]))
        argv += ["--config", str(config)]
    assert main(argv) == 0
    resolved = {k: v for k, v in seen.items() if k not in ("fn", "command", "config")}
    assert resolved == PINNED_RESOLVED[command, with_config]


def test_train_defaults_come_from_train_config():
    config = TrainConfig()
    for command in ("train", "ablate"):
        defaults = vars(cli.build_parser().parse_args([command]))
        assert defaults["epochs"] == config.epochs
        assert defaults["batch_size"] == config.batch_size
        assert defaults["learning_rate"] == config.learning_rate
        assert defaults["seed"] == config.seed
    train_defaults = vars(cli.build_parser().parse_args(["train"]))
    assert encoding.parse_mask(train_defaults["mask"]) == config.mask


# -- failure modes ------------------------------------------------------------------


def test_extract_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["extract", "--events", str(empty), "--out", str(tmp_path / "d.mnds")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_extract_reports_rejected_files(pipeline, tmp_path, capsys):
    events = tmp_path / "events"
    events.mkdir()
    for src in sorted(pipeline["events"].glob("*.events"))[:3]:
        (events / src.name).write_text(src.read_text())
    bad = events / "broken.events"
    bad.write_text("game broken\n100 produced marauder\n")
    out = tmp_path / "d.mnds"
    assert main(["extract", "--events", str(events), "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "broken.events" in shown
    assert "rejected: 1" in shown
    with open(out, "rb") as f:
        assert len(read_dataset(f).games) == 3


# A 25-game reactive corpus (seed 5) plus one log that fails to parse and one
# that fails in replay. Its supply peaks at 260 half-units, under the game's
# limit of 400, so no feature clamps. The digest was recorded when supply
# began to divide by that limit; extraction must reproduce it.
PINNED_DATASET_SHA256 = "2e04c5a3e2ebca7c8a27e9f4e47236b29001d208248e2d4e160997ed29bbe2aa"
PINNED_REJECTIONS = [
    {
        "file": "broken.events",
        "reason": "ValidationError: line 2: 'marauder' is not an own build "
        "(off-race production; log rejected)",
    },
    {
        "file": "onetime.events",
        "reason": "ConsistencyError: frame 20: 'ground_weapons' is a one-time build "
        "and is already owned or in production",
    },
]


@pytest.fixture(scope="module")
def pinned_events(tmp_path_factory):
    events = tmp_path_factory.mktemp("pinned") / "events"
    argv = ["synth", "--generator", "reactive", "--games", "25", "--seed", "5"]
    assert main(argv + ["--out", str(events)]) == 0
    (events / "broken.events").write_text("game broken\n100 produced marauder\n")
    (events / "onetime.events").write_text(
        "game onetime\n10 produced ground_weapons\n20 produced ground_weapons\n"
    )
    return events


def test_extract_dataset_bytes_are_pinned(pinned_events, tmp_path, capsys):
    out = tmp_path / "pinned.mnds"
    capsys.readouterr()
    assert main(["extract", "--events", str(pinned_events), "--out", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "games": 25,
        "pairs": 2044,
        "rejections": PINNED_REJECTIONS,
        "clamped": {},
        "out": str(out),
    }
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DATASET_SHA256


def test_extract_reports_clamped_pairs_per_feature(pinned_events, tmp_path, capsys):
    """With a probe cap of 10, the report counts every pair whose state holds
    more than 10 probes, as the step-by-step replay counts them."""
    catalog = load_default_catalog()
    probe = catalog.worker_id
    buf = io.StringIO()
    encoding.write_norms(encoding.load_default_norms(catalog), catalog, buf)
    norms_file = tmp_path / "low.norms"
    norms_file.write_text(buf.getvalue().replace("probe, 100", "probe, 10"))
    expected = 0
    for path in sorted(pinned_events.glob("synth-*.events")):
        with open(path, "rb") as f:
            log = parse_event_log(f, catalog)
        expected += sum(
            int(state.own_count[probe]) > 10
            for state, event in replay(log, catalog)
            if event.kind is EventKind.PRODUCED
        )
    assert expected > 0
    out = tmp_path / "low.mnds"
    argv = ["extract", "--events", str(pinned_events), "--out", str(out), "--norms"]
    capsys.readouterr()
    assert main(argv + [str(norms_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["clamped"] == {str(probe): expected}
    assert main(argv + [str(norms_file)]) == 0
    assert f"feature {probe} clamped to its cap in {expected} pairs" in capsys.readouterr().out


def test_extract_replays_each_log_once(pinned_events, tmp_path, monkeypatch):
    replayed = collections.Counter()

    def counting(module):
        original = module.extract_pairs

        def extract_pairs(log, catalog):
            replayed[log.game_id] += 1
            return original(log, catalog)

        monkeypatch.setattr(module, "extract_pairs", extract_pairs)

    for module in (cli, encoding):
        counting(module)
    out = tmp_path / "once.mnds"
    assert main(["extract", "--events", str(pinned_events), "--out", str(out)]) == 0
    with open(out, "rb") as f:
        accepted = [g.game_id for g in read_dataset(f).games]
    assert len(accepted) == 25
    assert {game_id: replayed[game_id] for game_id in accepted} == dict.fromkeys(accepted, 1)
    assert replayed["onetime"] == 1


def test_extract_never_steps_the_replay(pinned_events, tmp_path, monkeypatch):
    """Extraction builds each game's table from whole-array operations: with
    the step-by-step replay disabled it still writes the pinned bytes, and
    build_dataset still encodes the same games."""

    def refuse(*args):
        raise AssertionError("extraction stepped the replay")

    # The package exports net.forward under the module's name.
    forward = importlib.import_module("macronet.forward")
    monkeypatch.setattr(forward, "advance", refuse)
    monkeypatch.setattr(forward, "apply_event", refuse)
    out = tmp_path / "arrays.mnds"
    assert main(["extract", "--events", str(pinned_events), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DATASET_SHA256
    catalog = load_default_catalog()
    logs = []
    for path in sorted(pinned_events.glob("synth-*.events")):
        with open(path, "rb") as f:
            logs.append(parse_event_log(f, catalog))
    built = encoding.build_dataset(logs, catalog, encoding.load_default_norms(catalog))
    with open(out, "rb") as f:
        assert built.games == read_dataset(f).games


def test_extract_rejects_a_log_that_is_not_utf8(pipeline, tmp_path, capsys):
    events = tmp_path / "events"
    events.mkdir()
    for src in sorted(pipeline["events"].glob("*.events"))[:2]:
        (events / src.name).write_text(src.read_text())
    (events / "binary.events").write_bytes(b"game binary\n100 produced \xffprobe\n")
    out = tmp_path / "d.mnds"
    capsys.readouterr()
    assert main(["extract", "--events", str(events), "--out", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in report["rejections"]] == ["binary.events"]
    assert report["rejections"][0]["reason"].startswith("ParseError: not UTF-8 text")
    with open(out, "rb") as f:
        assert len(read_dataset(f).games) == 2


def test_extract_rejects_only_the_log_with_an_oversized_frame(pipeline, tmp_path, capsys):
    events = tmp_path / "events"
    events.mkdir()
    for src in sorted(pipeline["events"].glob("*.events"))[:2]:
        (events / src.name).write_text(src.read_text())
    (events / "huge.events").write_text("game huge\n99999999999999999999 produced probe\n")
    out = tmp_path / "d.mnds"
    capsys.readouterr()
    assert main(["extract", "--events", str(events), "--out", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rejections"] == [
        {
            "file": "huge.events",
            "reason": "ParseError: line 2: frame 99999999999999999999 is past the last "
            "frame 4611686018427387904",
        }
    ]
    with open(out, "rb") as f:
        assert len(read_dataset(f).games) == 2


def _extract_peak_bytes(events: Path, out: Path) -> int:
    tracemalloc.start()
    try:
        assert main(["extract", "--events", str(events), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_memory_is_bounded_by_one_game(tmp_path, capsys):
    """Records are written as they are encoded, so four times the games do
    not take four times the memory."""
    everything = tmp_path / "80"
    assert main(["synth", "--games", "80", "--seed", "2", "--out", str(everything)]) == 0
    some = tmp_path / "20"
    some.mkdir()
    for src in sorted(everything.glob("*.events"))[:20]:
        (some / src.name).write_text(src.read_text())
    out = tmp_path / "d.mnds"
    assert main(["extract", "--events", str(some), "--out", str(out)]) == 0  # warm caches
    small = _extract_peak_bytes(some, out)
    large = _extract_peak_bytes(everything, out)
    capsys.readouterr()
    assert large <= 1.5 * small, (small, large)


def _synth_peak_bytes(games: int, out: Path) -> int:
    tracemalloc.start()
    try:
        assert main(["synth", "--games", str(games), "--seed", "2", "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_memory_is_bounded_by_one_game(tmp_path, capsys):
    """Each game is written as it is generated, so four times the games do
    not take four times the memory."""
    assert main(["synth", "--games", "2", "--out", str(tmp_path / "warm")]) == 0
    small = _synth_peak_bytes(20, tmp_path / "20")
    large = _synth_peak_bytes(80, tmp_path / "80")
    capsys.readouterr()
    assert large <= 1.5 * small, (small, large)


def test_synth_json_reports_its_own_speed(tmp_path, capsys):
    capsys.readouterr()
    assert main(["synth", "--games", "12", "--seed", "3", "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["games"] == 12
    assert report["seconds"] >= 0 and report["games_per_s"] >= 0
    assert report["games_per_s"] * report["seconds"] == pytest.approx(12)
    assert main(["synth", "--games", "12", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote 12 games ({report['events']} events) to {tmp_path}\n"


def test_synth_without_games_fails_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--games", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_games must be at least 1\n"
    assert not out.exists()


def test_read_dataset_memory_is_about_one_file(pinned_events, tmp_path):
    """read_dataset reads each game's vectors straight into the dataset's
    matrix, so its peak stays near one copy of the file, and it leaves the
    file at its end."""
    out = tmp_path / "d.mnds"
    assert main(["extract", "--events", str(pinned_events), "--out", str(out)]) == 0
    size = out.stat().st_size
    with open(out, "rb") as f:
        read_dataset(f)  # warm caches
        f.seek(0)
        tracemalloc.start()
        try:
            dataset = read_dataset(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.tell() == size
    assert dataset.n_pairs == 2044
    assert peak <= 1.2 * size, (peak, size)


@pytest.mark.parametrize("step", ["game_record", "write_str"])
def test_failed_extract_leaves_out_as_it_was(pipeline, tmp_path, monkeypatch, capsys, step):
    """A run that fails on the third game, while encoding it or while
    writing it, leaves --out byte-identical and no temporary file behind."""
    out = tmp_path / "d.mnds"
    out.write_bytes(b"the previous dataset")
    third = sorted(pipeline["events"].glob("*.events"))[2].stem
    original = getattr(encoding, step)

    def failing(*args):
        if any(isinstance(a, str) and a == third for a in args):
            raise OSError("no space left on device")
        return original(*args)

    monkeypatch.setattr(encoding, step, failing)
    assert main(["extract", "--events", str(pipeline["events"]), "--out", str(out)]) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"the previous dataset"
    assert [p.name for p in tmp_path.iterdir()] == ["d.mnds"]


def test_extract_refuses_an_out_that_is_not_a_regular_file(pipeline, capsys):
    argv = ["extract", "--events", str(pipeline["events"]), "--out", os.devnull]
    assert main(argv) == 1
    assert "is not a regular file" in capsys.readouterr().err


def test_extract_out_takes_the_umask_permissions(pipeline, tmp_path):
    out = tmp_path / "d.mnds"
    mask = os.umask(0o027)
    try:
        assert main(["extract", "--events", str(pipeline["events"]), "--out", str(out)]) == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_extract_writes_through_a_symlinked_out(pipeline, tmp_path):
    target = tmp_path / "target.mnds"
    target.write_bytes(b"old")
    link = tmp_path / "link.mnds"
    link.symlink_to(target)
    assert main(["extract", "--events", str(pipeline["events"]), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == pipeline["dataset"].read_bytes()


def test_missing_required_option_fails(capsys):
    assert main(["extract", "--out", "x.mnds"]) == 1
    assert "--events" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["extract"], "--events, --out"),
        (["synth"], "--out"),
        (["train", "--out", "m.mnnet"], "--dataset"),
        (["eval"], "--dataset, --model"),
        (["ablate"], "--dataset"),
        (["analyze", "--model", "m.mnnet"], "--dataset, --out"),
        (["serve"], "--model"),
    ],
)
def test_missing_required_options_are_named_in_declaration_order(capsys, argv, missing):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: missing required options: {missing}\n"


def test_required_option_may_come_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "cmd_eval", lambda args: 0)
    assert _main_with_config(tmp_path, ["eval", "--model", "m"], {"dataset": "d"}) == 0


def test_fixed_generator_requires_script(tmp_path, capsys):
    code = main(
        ["synth", "--generator", "fixed", "--games", "1", "--out", str(tmp_path / "e")]
    )
    assert code == 1
    assert "--script" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "macronet" in capsys.readouterr().out


def test_serve_rejects_bad_bind(pipeline, capsys):
    code = main(
        ["serve", "--model", str(pipeline["model"]), "--bind", "not-an-address"]
    )
    assert code == 1


def test_serve_on_a_port_in_use_fails(pipeline, capsys):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()
        code = main(["serve", "--model", str(pipeline["model"]), "--bind", f"{host}:{port}"])
    assert code == 1
    assert f"cannot bind {host}:{port}" in capsys.readouterr().err


# -- behavioral analysis on the acceptance corpus -----------------------------------


def test_expansion_probability_peaks_near_saturation(
    default_model, corpus_dataset, catalog, norms
):
    """The trained policy should want a second nexus most around the worker
    count where the generator's expansion rule fires (24 probes), well after
    the early game."""
    model, _ = default_model
    rows = expansion_curve(model, corpus_dataset, catalog, norms)
    assert rows, "no single-nexus states found"
    supported = [r for r in rows if r[1] >= 30]
    peak = max(supported, key=lambda r: r[2])
    assert 20 <= peak[0] <= 28
    early = [r for r in supported if r[0] <= 8]
    assert all(r[2] < peak[2] / 2 for r in early)
