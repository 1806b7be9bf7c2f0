"""What importing the package and running a command load, and the CLI text
that loading flags on demand must keep."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macronet
from macronet import cli
from macronet.encoding import write_dataset
from macronet.events import write_event_log
from macronet.net import ModelMeta, init_network, save_model

SRC = str(Path(macronet.__file__).resolve().parents[1])
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The package's exported names and the module each is defined in. The
# function net.forward is not exported: `macronet.forward` is the module.
EXPORTS = {
    "catalog": "BuildCatalog BuildKind load_catalog load_default_catalog write_catalog",
    "encoding": "FULL_MASK N_CLASSES N_FEATURES Dataset FeatureGroupMask GameRecord "
    "NormalizationTable apply_mask build_dataset encode load_default_norms load_norms "
    "parse_mask read_dataset write_dataset write_norms",
    "errors": "ClientTimeout CompatibilityError ConsistencyError DegenerateDistributionError "
    "FormatError MacronetError ParseError ProtocolError SchemaError ValidationError",
    "events": "EventKind EventLog GameEvent parse_event_log write_event_log",
    "forward": "MacroState advance apply_event extract_pairs initial_state replay",
    "net": "ModelMeta Network NetworkTopology adam_step backward_batch forward_batch "
    "init_adam init_network load_model save_model",
    "policy": "DecisionPolicy Mode apply_exclusions decide decide_from_vector "
    "default_exclusions select_greedy select_probabilistic",
    "service": "PredictionClient PredictionServer client_predict",
    "simulate": "FixedScript NetworkPlayer ReactiveScript TwoBranchScript Winner "
    "bayes_top1_error generate_synthetic_corpus random_player run_matches simulate_match "
    "worker_only_player worker_then_army_player",
    "training": "TrainConfig baseline_most_frequent baseline_uniform_random evaluate_topk "
    "format_ablation_report run_ablation_grid split_dataset topk_errors_from_probs train "
    "uniform_random_error",
}


def run_python(code: str, **env_changes) -> str:
    """Run code in a fresh interpreter that imports this macronet; its stdout.
    A variable set to None is removed from the environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def modules_after_command(argv) -> set[str]:
    code = (
        "import contextlib, io, json, sys\n"
        "from macronet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(run_python(code)))


def test_import_loads_no_module_and_no_numpy():
    code = "import json, sys, macronet; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(run_python(code))
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("macronet")] == ["macronet"]


def test_extract_loads_no_model_code(tmp_path, small_logs, catalog):
    events = tmp_path / "events"
    events.mkdir()
    for log in small_logs[:3]:
        with open(events / f"{log.game_id}.events", "w", encoding="utf-8") as f:
            write_event_log(log, f, catalog)
    argv = ["extract", "--events", str(events), "--out", str(tmp_path / "out.ds"), "--json"]
    loaded = modules_after_command(argv)
    assert "macronet.forward" in loaded
    for name in ("net", "training", "policy", "service", "simulate"):
        assert f"macronet.{name}" not in loaded


def test_eval_loads_no_policy_service_or_simulator(tmp_path, small_dataset, catalog, norms):
    dataset, model = tmp_path / "data.ds", tmp_path / "model.bin"
    with open(dataset, "wb") as f:
        write_dataset(small_dataset, f)
    meta = ModelMeta(catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash())
    with open(model, "wb") as f:
        save_model(init_network(seed=0, meta=meta), f)
    argv = ["eval", "--dataset", str(dataset), "--model", str(model), "--json"]
    loaded = modules_after_command(argv)
    assert "macronet.training" in loaded
    for name in ("policy", "service", "simulate"):
        assert f"macronet.{name}" not in loaded


def test_one_blas_thread_unless_the_user_chose():
    code = "import os, macronet; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    unset = dict.fromkeys(BLAS_VARIABLES)
    assert run_python(code, **unset).strip() == "1"
    assert run_python(code, **{**unset, "OPENBLAS_NUM_THREADS": "3"}).strip() == "3"
    for chosen in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        assert run_python(code, **{**unset, chosen: "2"}).strip() == "None"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_exported_name_is_its_modules_object(module):
    defining = importlib.import_module(f"macronet.{module}")
    listed = dir(macronet)
    for name in EXPORTS[module].split():
        assert getattr(macronet, name) is getattr(defining, name)
        assert name in listed


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        macronet.no_such_name
    assert importlib.import_module("macronet.forward") is sys.modules["macronet.forward"]
    from macronet import forward

    assert forward is sys.modules["macronet.forward"]


HELP = json.loads((Path(__file__).with_name("cli_help.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_unchanged(monkeypatch, command):
    """Recorded with Python 3.11's argparse at 100 columns, when every
    subcommand's flags were added up front."""
    monkeypatch.setenv("COLUMNS", "100")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"] if command else ["--help"])
    assert out.getvalue() == HELP[command]
