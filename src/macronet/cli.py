"""Command-line front end: one binary, eight subcommands.

    extract   event logs -> encoded dataset
    synth     stochastic script -> synthetic event-log corpus
    train     dataset -> model file
    eval      model + dataset -> top-k error report with baselines
    ablate    dataset -> feature-group ablation grid
    analyze   model + dataset -> expansion-probability CSV
    simulate  model/script vs script -> win/loss/draw table
    serve     model -> framed prediction service

Every command is deterministic given its flags and seeds. Flag values
override --config file entries, which override built-in defaults. Exit
codes: 0 success, 1 rejected input or runtime failure, 2 usage. A command
imports only the modules it runs: extract loads no model or service code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import encoding
from .catalog import BuildCatalog, load_catalog, load_default_catalog
from .errors import MacronetError
from .events import EVENT_FILE_SUFFIX, parse_event_log, write_event_log
from .forward import extract_pairs

EXPANSION_CSV_HEADER = "probe_count,n_states,mean_probability"


def _load_catalog(path: str | None) -> BuildCatalog:
    if path is None:
        return load_default_catalog()
    with open(path, "r", encoding="utf-8") as f:
        return load_catalog(f)


def _load_norms(path: str | None, catalog: BuildCatalog):
    if path is None:
        return encoding.load_default_norms(catalog)
    with open(path, "r", encoding="utf-8") as f:
        return encoding.load_norms(f, catalog)


def _load_dataset(path: str) -> encoding.Dataset:
    with open(path, "rb") as f:
        return encoding.read_dataset(f)


def _load_model(path: str):
    from .net import load_model
    with open(path, "rb") as f:
        return load_model(f)


def _parse_policy(args, catalog: BuildCatalog):
    """Policy block from flags: --mode, --blind, --exclude (comma-separated
    names, or 'default' for the standard exclusion list)."""
    from . import policy
    exclusions: frozenset[int] = frozenset()
    if args.exclude:
        names = [n.strip() for n in args.exclude.split(",") if n.strip()]
        ids = set()
        for name in names:
            if name == "default":
                ids |= policy.default_exclusions(catalog)
            else:
                ids.add(catalog.build_id(name))
        exclusions = frozenset(ids)
    return policy.DecisionPolicy(
        mode=policy.Mode(args.mode),
        blind=args.blind,
        exclusions=exclusions,
    )


def _emit(args, human: str, machine: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(machine, indent=2, sort_keys=True))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _create_beside(path: Path):
    """A new file in path's directory, created with the permissions open()
    gives a new file (the umask's, not mkstemp's 0600): (its path, its
    binary stream)."""
    for attempt in itertools.count():
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            return tmp, open(tmp, "xb")
        except FileExistsError:
            continue


def cmd_extract(args) -> int:
    """Parse, replay and encode each log in turn, writing each game's record
    as soon as it is encoded, so memory holds one game, not the corpus. The
    records go to a temporary file beside --out, which replaces --out only
    once every log is done: a run that fails leaves --out as it was. The
    report counts, per feature, the pairs whose value clamped to its cap."""
    catalog = _load_catalog(args.catalog)
    norms = _load_norms(args.norms, catalog)
    events_dir = Path(args.events)
    if not events_dir.is_dir():
        raise MacronetError(f"{events_dir} is not a directory")
    paths = sorted(events_dir.glob(f"*{EVENT_FILE_SUFFIX}"))
    if not paths:
        raise MacronetError(f"no {EVENT_FILE_SUFFIX} files in {events_dir}")
    # Through a symlink, the file it names is the one replaced.
    out = Path(os.path.realpath(args.out))
    if out.exists() and not out.is_file():
        raise MacronetError(f"{args.out} exists and is not a regular file")
    rejections = []
    n_games = n_pairs = 0
    clamped = np.zeros(encoding.N_FEATURES, dtype=np.int64)

    def records():
        nonlocal n_games, n_pairs
        for path in paths:
            try:
                with open(path, "r", encoding="utf-8") as f:
                    log = parse_event_log(f, catalog)
                pairs = extract_pairs(log, catalog)
            except MacronetError as e:
                rejections.append((path.name, f"{type(e).__name__}: {e}"))
                continue
            record = encoding.game_record(log.game_id, pairs, catalog, norms, clamped)
            n_games += 1
            n_pairs += len(record.actions)
            yield record

    dataset = SimpleNamespace(
        games=records(), catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash()
    )
    tmp, f = _create_beside(out)
    try:
        with f:
            encoding.write_dataset(dataset, f)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    lines = [
        f"games accepted: {n_games}",
        f"pairs: {n_pairs}",
        f"rejected: {len(rejections)}",
    ]
    lines += [f"  {name}: {reason}" for name, reason in rejections]
    clamps = {str(i): int(clamped[i]) for i in np.flatnonzero(clamped)}
    lines += [f"feature {i} clamped to its cap in {n} pairs" for i, n in clamps.items()]
    lines.append(f"dataset written to {args.out}")
    _emit(
        args,
        "\n".join(lines),
        {
            "games": n_games,
            "pairs": n_pairs,
            "rejections": [{"file": n, "reason": r} for n, r in rejections],
            "clamped": clamps,
            "out": str(args.out),
        },
    )
    return 0


def _make_generator(args, catalog: BuildCatalog):
    from . import simulate
    if args.generator == "reactive":
        return simulate.ReactiveScript(catalog)
    if args.generator == "two-branch":
        return simulate.TwoBranchScript(catalog, p_first=args.p_first)
    # "fixed", the one other choice that the flag and --config accept
    if not args.script:
        raise MacronetError("--script is required for the fixed generator")
    names = [n.strip() for n in args.script.split(",") if n.strip()]
    return simulate.FixedScript(catalog, names)


def cmd_synth(args) -> int:
    """Write each game as it is generated, so memory holds one game. The
    JSON report times generating and writing the games."""
    from . import simulate
    catalog = _load_catalog(args.catalog)
    generator = _make_generator(args, catalog)
    started = time.perf_counter()
    logs = simulate.iter_synthetic_corpus(generator, args.games, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_games = n_events = 0
    for log in logs:
        n_games += 1
        n_events += len(log.events)
        with open(out_dir / f"{log.game_id}{EVENT_FILE_SUFFIX}", "w", encoding="utf-8") as f:
            write_event_log(log, f, catalog)
    seconds = time.perf_counter() - started
    _emit(
        args,
        f"wrote {n_games} games ({n_events} events) to {out_dir}",
        {
            "games": n_games,
            "events": n_events,
            "out": str(out_dir),
            "seconds": seconds,
            "games_per_s": n_games / seconds,
        },
    )
    return 0


def _train_config(args, **fields):
    from .training import TrainConfig
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        **fields,
    )


def cmd_train(args) -> int:
    from . import training
    from .net import save_model
    dataset = _load_dataset(args.dataset)
    config = _train_config(args, mask=encoding.parse_mask(args.mask))
    if args.no_split:
        train_set, test_set = dataset, None
    else:
        train_set, test_set = training.split_dataset(dataset, args.split_fraction)
    model, history = training.train(train_set, config)
    with open(args.out, "wb") as f:
        save_model(model, f)
    report = {
        "model_version": model.model_version(),
        "epochs": len(history),
        "train_pairs": train_set.n_pairs,
        "final_train_loss": history[-1].train_loss,
        "final_train_top1_error": history[-1].train_top1_error,
        "epoch_seconds": [h.seconds for h in history],
        "epoch_pairs_per_s": [train_set.n_pairs / h.seconds for h in history],
        "out": str(args.out),
    }
    lines = [
        f"trained on {train_set.n_pairs} pairs for {len(history)} epochs",
        f"final train loss {history[-1].train_loss:.4f}, "
        f"top-1 error {100 * history[-1].train_top1_error:.2f}%",
    ]
    if test_set is not None:
        errors = training.evaluate_topk(model, test_set)
        report["test_pairs"] = test_set.n_pairs
        report["test_errors"] = {str(k): v for k, v in errors.items()}
        lines.append(
            f"held-out ({test_set.n_pairs} pairs): "
            + ", ".join(f"top-{k} {100 * v:.2f}%" for k, v in sorted(errors.items()))
        )
    lines.append(f"model {report['model_version']} written to {args.out}")
    _emit(args, "\n".join(lines), report)
    return 0


def cmd_eval(args) -> int:
    from . import training
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model)
    if args.all:
        train_set, test_set = dataset, dataset
    else:
        train_set, test_set = training.split_dataset(dataset, args.split_fraction)
    errors = training.evaluate_topk(model, test_set)
    frequent = training.baseline_most_frequent(train_set, test_set)
    rand = training.baseline_uniform_random(test_set, seed=args.seed)
    ks = sorted(errors)
    width = 24
    lines = [
        "predictor".ljust(width) + "".join(f"top-{k} error".rjust(14) for k in ks),
        "model".ljust(width) + "".join(f"{100 * errors[k]:13.2f}%" for k in ks),
        "most-frequent".ljust(width) + "".join(f"{100 * frequent[k]:13.2f}%" for k in ks),
        "uniform-random".ljust(width) + "".join(f"{100 * rand[k]:13.2f}%" for k in ks),
        f"({test_set.n_pairs} pairs)",
    ]
    _emit(
        args,
        "\n".join(lines),
        {
            "pairs": test_set.n_pairs,
            "model": {str(k): errors[k] for k in ks},
            "most_frequent": {str(k): frequent[k] for k in ks},
            "uniform_random": {str(k): rand[k] for k in ks},
        },
    )
    return 0


def cmd_ablate(args) -> int:
    from . import training
    dataset = _load_dataset(args.dataset)
    masks = [encoding.parse_mask(m.strip()) for m in args.masks.split(",") if m.strip()]
    if not masks:
        raise MacronetError("no masks given")
    base = _train_config(args)
    report = training.run_ablation_grid(
        dataset, masks, base, repeats=args.repeats, fraction=args.split_fraction
    )
    machine = {
        "repeats": report.repeats,
        "rows": [
            {
                "mask": row.label,
                "errors": {
                    str(k): {"mean": row.mean(k), "std": row.std(k)} for k in report.ks
                },
                "epoch_seconds": [list(run) for run in row.epoch_seconds],
                "epoch_pairs_per_s": [
                    [report.train_pairs / s for s in run] for run in row.epoch_seconds
                ],
            }
            for row in report.rows
        ],
    }
    _emit(args, training.format_ablation_report(report), machine)
    return 0


def expansion_curve(model, dataset: encoding.Dataset, catalog, norms):
    """Mean predicted probability of the expansion build (a second main
    building) per worker count, over states owning exactly one completed
    main building and none in production. Counts are decoded back out of
    the normalized vectors."""
    from .net import forward_batch
    worker = catalog.worker_id
    main = catalog.main_building_id
    X, _ = dataset.stacked()
    own_main = np.rint(X[:, main] * norms.own_caps[main]).astype(int)
    inprod_main = np.rint(
        X[:, encoding.IN_PRODUCTION_SLICE.start + main] * norms.own_caps[main]
    ).astype(int)
    keep = (own_main == 1) & (inprod_main == 0)
    if not keep.any():
        return []
    X = X[keep]
    workers = np.rint(X[:, worker] * norms.own_caps[worker]).astype(int)
    probs = forward_batch(model, X)[:, main]
    rows = []
    for count in sorted(set(workers.tolist())):
        sel = workers == count
        rows.append((int(count), int(sel.sum()), float(probs[sel].mean())))
    return rows


def cmd_analyze(args) -> int:
    from .net import check_compatibility
    catalog = _load_catalog(args.catalog)
    norms = _load_norms(args.norms, catalog)
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model)
    check_compatibility(model, dataset.catalog_hash, dataset.norms_hash)
    check_compatibility(model, catalog.content_hash(), norms.content_hash())
    rows = expansion_curve(model, dataset, catalog, norms)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(EXPANSION_CSV_HEADER + "\n")
        for count, n_states, mean_p in rows:
            f.write(f"{count},{n_states},{mean_p:.6f}\n")
    _emit(
        args,
        f"wrote {len(rows)} rows to {args.out}",
        {
            "rows": [
                {"probe_count": c, "n_states": n, "mean_probability": p}
                for c, n, p in rows
            ],
            "out": str(args.out),
        },
    )
    return 0


def _make_player(spec: str, args, catalog, norms):
    from . import simulate
    scripted = {
        "worker-then-army": simulate.worker_then_army_player,
        "worker-only": simulate.worker_only_player,
        "random": simulate.random_player,
    }
    if spec in scripted:
        return scripted[spec](catalog)
    model = _load_model(spec)
    return simulate.NetworkPlayer(
        name=f"model:{Path(spec).name}",
        net=model,
        policy=_parse_policy(args, catalog),
        catalog=catalog,
        norms=norms,
    )


def cmd_simulate(args) -> int:
    from . import simulate
    catalog = _load_catalog(args.catalog)
    norms = _load_norms(args.norms, catalog)
    player_a = _make_player(args.a, args, catalog, norms)
    player_b = _make_player(args.b, args, catalog, norms)
    series = simulate.run_matches(
        player_a, player_b, catalog, args.matches, seed=args.seed, frame_cap=args.frame_cap
    )
    lines = [
        f"A = {player_a.name}, B = {player_b.name}, {series.n} matches",
        f"A wins: {series.wins_a} ({100 * series.wins_a / series.n:.1f}%)",
        f"B wins: {series.wins_b} ({100 * series.wins_b / series.n:.1f}%)",
        f"draws:  {series.draws} ({100 * series.draws / series.n:.1f}%)",
    ]
    _emit(
        args,
        "\n".join(lines),
        {
            "a": player_a.name,
            "b": player_b.name,
            "matches": series.n,
            "wins_a": series.wins_a,
            "wins_b": series.wins_b,
            "draws": series.draws,
        },
    )
    return 0


def cmd_serve(args) -> int:
    from . import service
    catalog = _load_catalog(args.catalog)
    norms = _load_norms(args.norms, catalog)
    model = _load_model(args.model)
    host, _, port = args.bind.rpartition(":")
    if not host or not port.isdigit():
        raise MacronetError(f"--bind must be host:port, got {args.bind!r}")
    try:
        server = service.PredictionServer(
            model,
            catalog,
            norms,
            policy=_parse_policy(args, catalog),
            address=(host, int(port)),
            seed=args.seed,
        )
    except OSError as e:
        raise MacronetError(f"cannot bind {args.bind}: {e}")
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    with server:
        bound = server.server_address
        print(f"serving model {server.model_version} on {bound[0]}:{bound[1]}", flush=True)
        stop.wait()
    print("shut down")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    from . import policy
    default = policy.DecisionPolicy()
    p.add_argument("--mode", choices=[m.value for m in policy.Mode], default=default.mode.value)
    p.add_argument("--blind", action="store_true")
    p.add_argument("--exclude", default="", help="comma-separated build names, or 'default'")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    from .training import TrainConfig
    config = TrainConfig()
    p.add_argument("--epochs", type=int, default=config.epochs)
    p.add_argument("--batch-size", type=int, dest="batch_size", default=config.batch_size)
    p.add_argument(
        "--learning-rate", type=float, dest="learning_rate", default=config.learning_rate
    )
    p.add_argument("--seed", type=int, default=config.seed)


def _add_split_flag(p: argparse.ArgumentParser) -> None:
    from .training import DEFAULT_SPLIT_FRACTION
    p.add_argument("--split-fraction", type=float, dest="split_fraction",
                   default=DEFAULT_SPLIT_FRACTION)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its own flags when it first parses,
    so the modules owning their defaults load only for the command run.
    Flags declared with add_required are checked once the config file is
    merged, so a required option may come from either. An option must be
    spelled out: a prefix of one is not read as the option."""

    def __init__(self, *args, add_flags, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._add_flags = add_flags
        self.required_flags: list[argparse.Action] = []

    def add_required(self, flag: str) -> None:
        self.required_flags.append(self.add_argument(flag))

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add, self._add_flags = self._add_flags, None
            add(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macronet", description="build-order prediction toolkit", allow_abbrev=False
    )
    parser.add_argument("--version", action="version", version="macronet 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def command(name, fn, summary, files=("catalog", "norms"), json_flag=True):
        """A subcommand with the flags it shares (the catalog and norms files
        it reads, --json, --config); the decorated function adds the rest."""

        def declare(add_flags):
            p = sub.add_parser(name, help=summary, add_flags=add_flags)
            for flag in files:
                p.add_argument(f"--{flag}")
            if json_flag:
                p.add_argument("--json", action="store_true")
            p.add_argument("--config")
            p.set_defaults(fn=fn)

        return declare

    @command("extract", cmd_extract, "encode event logs into a dataset")
    def extract_flags(p):
        p.add_required("--events")
        p.add_required("--out")

    @command("synth", cmd_synth, "generate a synthetic corpus", files=("catalog",))
    def synth_flags(p):
        from .simulate import DEFAULT_P_FIRST
        p.add_argument(
            "--generator", choices=["reactive", "two-branch", "fixed"], default="reactive"
        )
        p.add_argument("--games", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--p-first", type=float, dest="p_first", default=DEFAULT_P_FIRST)
        p.add_argument(
            "--script", default="", help="comma-separated build names (fixed generator)"
        )
        p.add_required("--out")

    @command("train", cmd_train, "train a model on a dataset", files=())
    def train_flags(p):
        from .training import TrainConfig
        p.add_required("--dataset")
        p.add_required("--out")
        _add_train_flags(p)
        p.add_argument(
            "--mask", default=TrainConfig().mask.label(), help="feature groups, e.g. a+b+c+d+e"
        )
        _add_split_flag(p)
        p.add_argument("--no-split", action="store_true", dest="no_split",
                       help="train on every game, no held-out report")

    @command("eval", cmd_eval, "top-k error of a model with baselines", files=())
    def eval_flags(p):
        p.add_required("--dataset")
        p.add_required("--model")
        _add_split_flag(p)
        p.add_argument("--all", action="store_true", help="evaluate on every pair")
        p.add_argument("--seed", type=int, default=0)

    @command("ablate", cmd_ablate, "feature-group ablation grid", files=())
    def ablate_flags(p):
        from .training import DEFAULT_REPEATS
        p.add_required("--dataset")
        p.add_argument(
            "--masks", default="a,a+d,a+b+c+e,a+b+c+d+e", help="comma-separated mask labels"
        )
        p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
        _add_train_flags(p)
        _add_split_flag(p)

    @command("analyze", cmd_analyze, "expansion probability by worker count")
    def analyze_flags(p):
        p.add_required("--dataset")
        p.add_required("--model")
        p.add_required("--out")

    @command("simulate", cmd_simulate, "abstract matches between policies")
    def simulate_flags(p):
        from .simulate import FRAME_CAP
        p.add_argument(
            "--a", default="worker-then-army", help="side A: model file path or a script name"
        )
        p.add_argument(
            "--b", default="worker-then-army", help="side B: model file path or a script name"
        )
        p.add_argument("--matches", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--frame-cap", type=int, dest="frame_cap", default=FRAME_CAP)
        _add_policy_flags(p)

    @command("serve", cmd_serve, "run the prediction service", json_flag=False)
    def serve_flags(p):
        p.add_required("--model")
        p.add_argument("--bind", default="127.0.0.1:7777", help="host:port")
        p.add_argument("--seed", type=int, default=0)
        _add_policy_flags(p)

    return parser


def _config_value(key: str, value, action: argparse.Action):
    """A config file value, checked and converted as its flag's text is:
    true or false for a switch, else what the flag's type makes of it,
    within the flag's choices."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    raise MacronetError(f"config key {key!r} has an invalid value {value!r}")


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """flags > config file > the flags' defaults: the config file's values
    become the subcommand's defaults, and a second parse lets typed flags
    beat them."""
    args = parser.parse_args(argv)
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = commands.choices[args.command]
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise MacronetError("config file must hold a JSON object")
        flags = {
            a.dest: a for a in subparser._actions if a.dest not in ("help", "config")
        }
        unknown = set(loaded) - set(flags)
        if unknown:
            raise MacronetError(f"unknown config keys: {sorted(unknown)}")
        subparser.set_defaults(
            **{k: _config_value(k, v, flags[k]) for k, v in loaded.items()}
        )
        args = parser.parse_args(argv)
    missing = [a.option_strings[0] for a in subparser.required_flags if not getattr(args, a.dest)]
    if missing:
        raise MacronetError(f"missing required options: {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.fn(args)
    except (MacronetError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
