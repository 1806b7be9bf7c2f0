"""Seeded inputs: event-log corpora with injected invalid logs, datasets and
models made during set-up, and the service request mix. The same seed gives
the same files and frames; the program sees only these files and frames."""

from __future__ import annotations

import io
import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from macronet import catalog as mn_catalog
from macronet import encoding, events, net, simulate, training
from macronet.forward import extract_pairs

import oracle

# Each injected log is a valid generated game with one fault; the value is
# the error type `macronet extract` must name when it rejects the file.
INVALID_LOGS = {
    "invalid-offrace.events": "ValidationError",
    "invalid-decreasing.events": "ParseError",
    "invalid-onetime.events": "ConsistencyError",
}


class Program:
    """The program's catalog, norms and synthetic generator, loaded once."""

    def __init__(self):
        self.catalog = mn_catalog.load_default_catalog()
        self.norms = encoding.load_default_norms(self.catalog)
        self.generator = simulate.ReactiveScript(self.catalog)


def set_up(ctx, make, discard=None):
    """``ctx.set_up(make, discard)``; a traced run also records the speed of
    the synthetic generator, which every workload's set-up runs."""
    if not ctx.traced:
        return ctx.set_up(make, discard)
    ctx.tracer.wrap(simulate, "generate_synthetic_corpus", "simulate.generate_synthetic_corpus",
                    lambda args, result: len(result))
    try:
        made = ctx.set_up(make, discard)
    finally:
        ctx.tracer.restore()
    _, seconds, games = ctx.tracer.totals("simulate.generate_synthetic_corpus")
    ctx.metric("simulate.synth_games_per_s", games / seconds, "games/s")
    return made


def synth_logs(program: Program, n_games: int, seed: int):
    return simulate.generate_synthetic_corpus(program.generator, n_games, seed=seed)


def events_text(program: Program, log) -> str:
    buf = io.StringIO()
    events.write_event_log(log, buf, program.catalog)
    return buf.getvalue()


def _invalid_variants(text: str) -> dict[str, str]:
    header, *lines = text.strip("\n").split("\n")
    k = min(5, len(lines) - 2)
    frame = int(lines[k].split()[0])
    offrace = lines[:k] + [f"{frame} produced marine"] + lines[k:]
    decreasing = list(lines)
    decreasing[k + 1] = f"{frame - 1} " + decreasing[k + 1].split(" ", 1)[1]
    onetime = lines[:k] + [f"{frame} produced ground_weapons"] * 2 + lines[k:]
    variants = {
        "invalid-offrace.events": offrace,
        "invalid-decreasing.events": decreasing,
        "invalid-onetime.events": onetime,
    }
    return {
        name: "\n".join([f"game {name[: -len('.events')]}"] + body) + "\n"
        for name, body in variants.items()
    }


def write_corpus(program: Program, logs, directory: Path) -> None:
    """One ``.events`` file per game plus the injected invalid logs, which
    are derived from the first game."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    for log in logs:
        (directory / f"{log.game_id}.events").write_text(events_text(program, log))
    for name, text in _invalid_variants(events_text(program, logs[0])).items():
        (directory / name).write_text(text)


def write_dataset(program: Program, logs, path: Path) -> None:
    dataset = encoding.build_dataset(logs, program.catalog, program.norms)
    with open(path, "wb") as f:
        encoding.write_dataset(dataset, f)


def write_model(path: Path, dataset_path: Path, epochs: int, seed: int) -> None:
    with open(dataset_path, "rb") as f:
        dataset = encoding.read_dataset(f)
    train_set, _ = training.split_dataset(dataset)
    model, _ = training.train(train_set, training.TrainConfig(epochs=epochs, seed=seed))
    with open(path, "wb") as f:
        net.save_model(model, f)


# ---------------------------------------------------------------------------
# Service requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One frame of the mix and what its reply must satisfy."""

    frame: bytes  # length header included
    request_id: str
    form: str  # "vector", "state" or "bad"
    state: int = -1  # index of the game state, shared by its vector and state forms
    mode: str = "greedy"
    blind: bool = False
    exclusions: tuple[int, ...] = ()
    policy_seed: int | None = None
    error_kind: str = ""


def framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def state_json(state, catalog) -> dict:
    return {
        "frame": int(state.frame),
        "own": {catalog.builds[i].name: int(c) for i, c in enumerate(state.own_count) if c},
        "production": [
            {"name": catalog.builds[b].name, "done_at": int(d)} for b, d in state.production
        ],
        "enemy": {catalog.enemy_types[i].name: int(c) for i, c in enumerate(state.enemy_count) if c},
        "supply_used": int(state.supply_used),
        "supply_max": int(state.supply_max),
    }


def held_out_states(program: Program, logs, dataset_path: Path):
    """[(state JSON, dataset row)] for every decision of the held-out games:
    states come from replaying the logs, vectors from the extracted file."""
    data = oracle.read_dataset(dataset_path)
    k = oracle.split_point([len(a) for _, a, _ in data["games"]])
    out = []
    for log, (game_id, _, vectors) in zip(logs[k:], data["games"][k:]):
        oracle.require(log.game_id == game_id, f"held-out game {game_id} is not {log.game_id}")
        pairs = extract_pairs(log, program.catalog)
        for pair, row in zip(pairs, vectors):
            out.append((state_json(pair.state, program.catalog), row))
    return out


def request_mix(program: Program, states, seed: int) -> tuple[list[Request], list[np.ndarray]]:
    """The mix and the dataset row of each game state it asks about.

    100 frames in a seeded order: 30 states asked greedily as vector and as
    state, 8 with a seeded probabilistic policy and exclusions in both forms,
    8 blind with exclusions in both forms, and 8 malformed frames."""
    rng = np.random.default_rng([seed, 17])
    names = [b.name for b in program.catalog.builds]
    chosen = rng.choice(len(states), size=46, replace=False)
    reqs: list[Request] = []

    def add(form, i, policy=None, **expect):
        rid = f"r{len(reqs)}"
        body = {"request_id": rid}
        state_doc, row = states[chosen[i]]
        body[form] = row.tolist() if form == "vector" else state_doc
        if policy:
            body["policy"] = policy
        reqs.append(Request(framed(json.dumps(body).encode()), rid, form, i, **expect))

    for i in range(30):
        for form in ("vector", "state"):
            add(form, i)
    for i in range(30, 46):
        excl = tuple(sorted(int(x) for x in rng.choice(58, size=int(rng.integers(2, 7)), replace=False)))
        probabilistic = i < 38
        pseed = int(rng.integers(0, 2**31)) if probabilistic else None
        policy = {"exclusions": [names[x] for x in excl]}
        if probabilistic:
            policy.update(mode="probabilistic", seed=pseed)
        else:
            policy["blind"] = True
        for form in ("vector", "state"):
            add(form, i, policy, mode="probabilistic" if probabilistic else "greedy",
                blind=not probabilistic, exclusions=excl, policy_seed=pseed)

    row = states[chosen[0]][1].tolist()
    bad = [
        (b'{"request_id": "b0", "vector": [', "bad-json"),
        (b"\xff\xfe\xfd", "bad-json"),
        (b"[1, 2, 3]", "bad-request"),
        (json.dumps({"request_id": "b3"}).encode(), "bad-request"),
        (json.dumps({"request_id": "b4", "vector": row[:-1]}).encode(), "bad-request"),
        (json.dumps({"request_id": "b5", "vector": [1.5] + row[1:]}).encode(), "bad-request"),
        (json.dumps({"request_id": "b6", "state": {"own": {"marine": 3}}}).encode(), "invalid-state"),
        (json.dumps({"request_id": "b7", "vector": row,
                     "policy": {"exclusions": names}}).encode(), "degenerate-distribution"),
    ]
    for i, (payload, kind) in enumerate(bad):
        rid = f"b{i}" if i >= 3 else ""
        reqs.append(Request(framed(payload), rid, "bad", error_kind=kind))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order], [states[c][1] for c in chosen]
