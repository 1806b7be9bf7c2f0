import collections
import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from macronet import cli, encoding
from macronet.cli import EXPANSION_CSV_HEADER, expansion_curve, main
from macronet.encoding import read_dataset
from macronet.net import load_model
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
        assert set(row["errors"]) == {"1", "3", "10"}
        assert row["errors"]["1"]["std"] >= 0.0


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


def _train_with_config(pipeline, tmp_path, values):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(values))
    return main(
        [
            "train",
            "--dataset",
            str(pipeline["dataset"]),
            "--out",
            str(tmp_path / "m.mnnet"),
            "--config",
            str(config),
            "--json",
        ]
    )


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
    ],
)
def test_config_values_of_the_wrong_type_rejected(pipeline, tmp_path, capsys, key, value):
    assert _train_with_config(pipeline, tmp_path, {key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err


def test_train_defaults_come_from_train_config():
    config = TrainConfig()
    for command in ("train", "ablate"):
        defaults = cli._DEFAULTS[command]
        assert defaults["epochs"] == config.epochs
        assert defaults["batch_size"] == config.batch_size
        assert defaults["learning_rate"] == config.learning_rate
        assert defaults["seed"] == config.seed
        assert encoding.parse_mask(defaults["mask"]) == config.mask


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


# A 25-game reactive corpus (seed 5), which clamps supply features, plus one
# log that fails to parse and one that fails in replay. The digest and report
# were recorded from the per-pair encoder; extraction must reproduce both.
PINNED_DATASET_SHA256 = "d514c6a7ab35e6055fa37ed110f94ea6ff7343775224ff833bf5376a6ccaee62"
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
        "out": str(out),
    }
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DATASET_SHA256


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


def test_missing_required_option_fails(capsys):
    assert main(["extract", "--out", "x.mnds"]) == 1
    assert "--events" in capsys.readouterr().err


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
