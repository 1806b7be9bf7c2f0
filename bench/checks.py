"""Correctness checks on the program's outputs. Each raises
``oracle.CheckFailed`` on the first disagreement with the independent
computation in ``oracle`` or with a property the method must have."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from oracle import require

# Top-k error recomputed by a forward pass in another operation order may
# rank one near-tied label differently; more than one pair is a fault.
TOPK_SLACK_PAIRS = 1
DIST_ATOL = 1e-12


def check_extract_report(report: dict, invalid: dict[str, str], games: int, pairs: int) -> None:
    """``extract --json``: the rejected files are exactly the injected invalid
    ones, each for its own reason, and every other game was kept."""
    rejected = {r["file"]: r["reason"] for r in report["rejections"]}
    require(set(rejected) == set(invalid), f"rejected {sorted(rejected)}, injected {sorted(invalid)}")
    for name, kind in invalid.items():
        require(rejected[name].startswith(kind + ":"), f"{name} rejected for {rejected[name]!r}")
    require(report["games"] == games, f"{report['games']} games accepted, {games} valid")
    require(report["pairs"] == pairs, f"{report['pairs']} pairs reported, {pairs} in the logs")


def check_extract_dataset(dataset: dict, corpus: Path, invalid, build_ids: dict[str, int]) -> int:
    """The dataset holds one record per valid log in file-name order, whose
    actions are the log's produced builds, with every value in [0, 1].
    Returns the number of pairs."""
    valid = sorted(p for p in corpus.glob("*.events") if p.name not in invalid)
    require(len(dataset["games"]) == len(valid), f"{len(dataset['games'])} games for {len(valid)} logs")
    total = 0
    for path, (game_id, actions, vectors) in zip(valid, dataset["games"]):
        want_id, events = oracle.read_events(path)
        want = oracle.produced_actions(events, build_ids)
        require(game_id == want_id, f"game {game_id!r} where {path.name} says {want_id!r}")
        require(np.array_equal(actions, want), f"{game_id}: actions differ from the log")
        require(vectors.shape == (len(want), oracle.N_FEATURES), f"{game_id}: vector block shape")
        require(bool(np.all((vectors >= 0.0) & (vectors <= 1.0))), f"{game_id}: value outside [0, 1]")
        total += len(want)
    return total


def held_out(dataset: dict):
    """(train actions, held-out X, held-out y) under the game-level split."""
    games = dataset["games"]
    k = oracle.split_point([len(a) for _, a, _ in games])
    train_y = np.concatenate([a for _, a, _ in games[:k]])
    X = np.concatenate([v for _, _, v in games[k:]])
    y = np.concatenate([a for _, a, _ in games[k:]])
    return train_y, X, y


def check_train(dataset: dict, model: dict, train_report: dict, eval_report: dict,
                bayes_top1: float) -> dict[int, float]:
    """``train --json`` and ``eval --json`` against a forward pass of the
    saved model made here. Returns the recomputed held-out errors."""
    train_y, X, y = held_out(dataset)
    n = len(y)
    require(train_report["train_pairs"] == len(train_y), "train pair count")
    require(train_report["model_version"] == model["version"], "model_version is not the file's hash")
    require(eval_report["pairs"] == n and train_report["test_pairs"] == n, "held-out pair count")
    errors = oracle.topk_errors(oracle.forward(model, X), y)
    for k in (1, 3):
        for source, reported in (("eval", eval_report["model"]), ("train", train_report["test_errors"])):
            off = abs(reported[str(k)] - errors[k]) * n
            require(off <= TOPK_SLACK_PAIRS + 1e-6,
                    f"{source} top-{k} error {reported[str(k)]} vs {errors[k]} recomputed")
    frequent = float((y != np.bincount(train_y, minlength=oracle.N_CLASSES).argmax()).mean())
    require(abs(eval_report["most_frequent"]["1"] - frequent) < 1e-12, "most-frequent baseline")
    require(errors[1] < frequent, f"top-1 error {errors[1]} not below most-frequent {frequent}")
    slack = 4.0 * math.sqrt(bayes_top1 * (1.0 - bayes_top1) / n)
    require(errors[1] >= bayes_top1 - slack,
            f"top-1 error {errors[1]} below the Bayes floor {bayes_top1} minus {slack}")
    return errors


class ReplyChecker:
    """Checks service replies for the request mix against this module's own
    forward pass of the served model."""

    def __init__(self, model: dict, rows: list[np.ndarray], names: list[str], server_seed: int):
        self.model = model
        self.rows = rows
        self.names = names
        self.server_seed = server_seed
        self._expected: dict[tuple, np.ndarray] = {}
        self._by_form: dict[tuple, dict[str, np.ndarray]] = {}

    def expected(self, req) -> np.ndarray:
        key = (req.state, req.blind, req.exclusions)
        if key not in self._expected:
            dist = oracle.forward(self.model, self.rows[req.state], req.blind)[0]
            self._expected[key] = oracle.excluded_distribution(dist, req.exclusions)
        return self._expected[key]

    def check(self, req, payload: bytes) -> None:
        reply = json.loads(payload)
        rid = req.request_id
        require(reply.get("request_id") == rid, f"reply to {rid!r} carries {reply.get('request_id')!r}")
        if req.form == "bad":
            kind = (reply.get("error") or {}).get("kind")
            require(kind == req.error_kind, f"{rid or 'unparsed'}: error kind {kind!r}, want {req.error_kind!r}")
            return
        require("error" not in reply, f"{rid}: unexpected error {reply.get('error')}")
        require(reply["model_version"] == self.model["version"], f"{rid}: model_version")
        dist = np.array([reply["distribution"][n] for n in self.names])
        require(abs(dist.sum() - 1.0) < 1e-9 and dist.min() >= 0.0, f"{rid}: not a distribution")
        require(all(dist[i] == 0.0 for i in req.exclusions), f"{rid}: excluded build has mass")
        index = reply["build"]["index"]
        require(reply["build"]["name"] == self.names[index], f"{rid}: build name and index differ")
        if req.mode == "greedy":
            require(index == int(np.argmax(dist)), f"{rid}: greedy pick is not the argmax")
        else:
            pick = oracle.sample_index(dist, self.server_seed, req.policy_seed)
            require(index == pick, f"{rid}: sampled {index}, the seeded draw gives {pick}")
        require(np.allclose(dist, self.expected(req), rtol=0.0, atol=DIST_ATOL),
                f"{rid}: distribution differs from the forward pass")
        forms = self._by_form.setdefault((req.state, req.blind, req.exclusions), {})
        forms.setdefault(req.form, dist)
        if len(forms) == 2:
            require(np.allclose(forms["vector"], forms["state"], rtol=0.0, atol=DIST_ATOL),
                    f"{rid}: state and vector forms of one game state disagree")
