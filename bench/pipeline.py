"""The two batch workloads: ``extract`` (event logs to a dataset) and
``train`` (dataset to a model, then its top-k evaluation).

Untraced runs start ``macronet`` as a command, as a user would, and time the
whole process. Traced runs call ``cli.main`` in this process with the
layers' module-level names wrapped, in turn with untraced calls that give
the overhead of tracing."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import time

from macronet import cli, encoding, simulate, training

import checks
import inputs
import oracle
from common import CATALOG_FILE, median, run_command

EXTRACT_GAMES = 150
TRAIN_GAMES = 100
TRAIN_EPOCHS = 4
BATCH = 100  # the CLI default, which the train workload keeps


def call_cli(argv: list[str], tracer=None) -> tuple[float, dict]:
    """cli.main in this process from a collected heap: (wall s, --json output)."""
    out = io.StringIO()
    gc.collect()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    wall = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"macronet {argv[0]} exited {code}")
    return wall, json.loads(out.getvalue())


def traced_loop(ctx, part: str, argvs: list[list[str]], wraps, on_outputs) -> int:
    """Untraced and traced passes in turn until the part's time is up; the
    difference of their medians is the wall-time overhead of tracing.
    Returns the number of traced passes."""
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < ctx.seconds:
        plain.append(sum(call_cli(argv)[0] for argv in argvs))
        for args in wraps:
            ctx.tracer.wrap(*args)
        try:
            results = [call_cli(argv, ctx.tracer) for argv in argvs]
        finally:
            ctx.tracer.restore()
        traced.append(sum(wall for wall, _ in results))
        on_outputs([out for _, out in results])
    ctx.record_overhead(part, median(plain), median(traced))
    return len(traced)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def extract(ctx) -> None:
    program, work = ctx.program, ctx.work
    corpus, out = work / "corpus", work / "extract.ds"
    build_ids = {n: i for i, n in enumerate(oracle.read_catalog_names(CATALOG_FILE)[0])}

    def make():
        inputs.write_corpus(program, inputs.synth_logs(program, EXTRACT_GAMES, ctx.seed), corpus)

    inputs.set_up(ctx, make)
    valid = [p for p in corpus.glob("*.events") if p.name not in inputs.INVALID_LOGS]
    n_files = len(valid) + len(inputs.INVALID_LOGS)
    pairs = sum(
        len(oracle.produced_actions(oracle.read_events(p)[1], build_ids)) for p in valid
    )
    argv = ["extract", "--events", str(corpus), "--out", str(out), "--json"]

    def check(report):
        checks.check_extract_report(report, inputs.INVALID_LOGS, len(valid), pairs)
        ctx.count("extract", "games", n_files)

    if ctx.traced:
        runs = traced_loop(ctx, "extract", [argv], [
            (cli, "parse_event_log", "events.parse_event_log"),
            (cli, "extract_pairs", "forward.extract_pairs", lambda a, r: len(r)),
            (encoding, "extract_pairs", "forward.extract_pairs", lambda a, r: len(r)),
            (encoding, "encode", "encoding.encode"),
            (encoding, "build_dataset", "encoding.build_dataset"),
            (encoding, "write_dataset", "encoding.write_dataset", lambda a, r: a[1].tell()),
        ], lambda outputs: check(outputs[0]))
        t = ctx.tracer
        parses, parse_s, _ = t.totals("events.parse_event_log")
        _, replay_s, replayed = t.totals("forward.extract_pairs")
        # Only replays that returned pairs: the injected one-time fault raises.
        replays = sum(1 for s in t.spans if s[0] == "forward.extract_pairs" and s[4] > 0)
        encodes, encode_s, _ = t.totals("encoding.encode")
        _, write_s, written = t.totals("encoding.write_dataset")
        ctx.metric("events.parse_us_per_game", 1e6 * parse_s / parses, "us")
        ctx.metric("forward.replay_us_per_pair", 1e6 * replay_s / replayed, "us")
        ctx.metric("forward.replays_per_game", replays / (runs * len(valid)), "count")
        ctx.metric("encoding.encode_us_per_pair", 1e6 * encode_s / encodes, "us")
        ctx.metric("encoding.write_mb_per_s", written / 1e6 / write_s, "MB/s")
    else:
        walls, rates, rss = [], [], []
        started = time.perf_counter()
        while not rates or time.perf_counter() - started < ctx.seconds:
            seconds, peak, stdout = run_command(argv, work)
            report = json.loads(stdout)
            check(report)
            walls.append(seconds)
            rates.append(report["pairs"] / seconds)
            rss.append(peak)
        ctx.metric("throughput", median(rates), "1/s")
        ctx.metric("latency_ms", 1e3 * median(walls), "ms")
        ctx.metric("peak_rss_mb", median(rss), "MB")
        ctx.metric("dataset_mb", out.stat().st_size / 1e6, "MB")
        ctx.details["extract_rates"] = rates
    written = checks.check_extract_dataset(oracle.read_dataset(out), corpus, inputs.INVALID_LOGS, build_ids)
    oracle.require(written == pairs, f"{written} pairs written, {pairs} in the logs")
    shutil.rmtree(corpus)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def train(ctx) -> None:
    program, work = ctx.program, ctx.work
    dataset_path, model_path = work / "train.ds", work / "model.bin"

    def make():
        logs = inputs.synth_logs(program, TRAIN_GAMES, ctx.seed)
        inputs.write_dataset(program, logs, dataset_path)
        return logs

    logs = inputs.set_up(ctx, make)
    dataset = oracle.read_dataset(dataset_path)
    k = oracle.split_point([len(a) for _, a, _ in dataset["games"]])
    bayes = simulate.bayes_top1_error(logs[k:], program.generator)
    train_pairs = sum(len(a) for _, a, _ in dataset["games"][:k])
    steps = math.ceil(train_pairs / BATCH) * TRAIN_EPOCHS
    argvs = [
        ["train", "--dataset", str(dataset_path), "--out", str(model_path),
         "--epochs", str(TRAIN_EPOCHS), "--seed", str(ctx.seed), "--json"],
        ["eval", "--dataset", str(dataset_path), "--model", str(model_path), "--json"],
    ]
    versions = set()

    def check(train_report, eval_report):
        model = oracle.read_model(model_path)
        versions.add(model["version"])
        oracle.require(len(versions) == 1, "the same dataset, config and seed gave another model")
        oracle.require(train_report["epochs"] == TRAIN_EPOCHS, "epoch count")
        ctx.details["held_out_errors"] = checks.check_train(dataset, model, train_report, eval_report, bayes)
        ctx.details["bayes_top1_error"] = bayes
        ctx.count("train", "training_steps", steps)

    if ctx.traced:
        traced_loop(ctx, "train", argvs, [
            (encoding, "read_dataset", "encoding.read_dataset", lambda a, r: a[0].tell()),
            (training, "train", "training.train"),
            (training, "backward_batch", "net.backward_batch"),
            (training, "adam_step", "net.adam_step"),
            (training, "evaluate_topk", "training.evaluate_topk", lambda a, r: a[1].n_pairs),
        ], lambda outputs: check(*outputs))
        t = ctx.tracer
        _, read_s, read = t.totals("encoding.read_dataset")
        _, train_s, _ = t.totals("training.train")
        backwards, backward_s, _ = t.totals("net.backward_batch")
        adams, adam_s, _ = t.totals("net.adam_step")
        _, eval_s, evaluated = t.totals("training.evaluate_topk")
        ctx.metric("encoding.read_mb_per_s", read / 1e6 / read_s, "MB/s")
        ctx.metric("net.backward_batch_ms", 1e3 * backward_s / backwards, "ms")
        ctx.metric("net.adam_step_ms", 1e3 * adam_s / adams, "ms")
        ctx.metric("training.loop_other_ms", 1e3 * (train_s - backward_s - adam_s) / adams, "ms")
        ctx.metric("training.evaluate_topk_us_per_pair", 1e6 * eval_s / evaluated, "us")
    else:
        rates, evals, rss = [], [], []
        started = time.perf_counter()
        while not rates or time.perf_counter() - started < ctx.seconds:
            seconds, peak, stdout = run_command(argvs[0], work)
            eval_seconds, _, eval_stdout = run_command(argvs[1], work)
            check(json.loads(stdout), json.loads(eval_stdout))
            rates.append(train_pairs * TRAIN_EPOCHS / seconds)
            evals.append(eval_seconds)
            rss.append(peak)
        ctx.metric("throughput", median(rates), "1/s")
        ctx.metric("latency_ms", 1e3 * median(evals), "ms")
        ctx.metric("peak_rss_mb", median(rss), "MB")
        ctx.metric("dataset_mb", dataset_path.stat().st_size / 1e6, "MB")
        ctx.details["train_rates"] = rates
