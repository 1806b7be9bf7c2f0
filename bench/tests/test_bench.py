"""The benchmark's own checks: its independent computations agree with the
program on a small model, and every correctness check rejects a corrupted
output."""

import copy
import json

import numpy as np
import pytest

import checks
import inputs
import oracle
import pipeline
from common import CATALOG_FILE
from macronet import encoding, net, policy, service, simulate, training
from oracle import CheckFailed

NAMES = oracle.read_catalog_names(CATALOG_FILE)[0]
BUILD_IDS = {n: i for i, n in enumerate(NAMES)}


def _dataset(path):
    with open(path, "rb") as f:
        return encoding.read_dataset(f)


def _model(path):
    with open(path, "rb") as f:
        return net.load_model(f)


# ---------------------------------------------------------------------------
# Independent computations agree with the program
# ---------------------------------------------------------------------------


def test_dataset_reader_matches_program(corpus):
    mine = oracle.read_dataset(corpus[2])
    theirs = _dataset(corpus[2])
    assert (mine["catalog_hash"], mine["norms_hash"]) == (theirs.catalog_hash, theirs.norms_hash)
    assert len(mine["games"]) == len(theirs.games)
    for (game_id, actions, vectors), game in zip(mine["games"], theirs.games):
        assert game_id == game.game_id
        assert np.array_equal(actions, game.actions)
        assert np.array_equal(vectors, game.vectors)


def test_forward_and_version_match_program(model_path, corpus):
    model, mine = _model(model_path), oracle.read_model(model_path)
    X, _ = _dataset(corpus[2]).stacked()
    assert mine["version"] == model.model_version()
    np.testing.assert_allclose(oracle.forward(mine, X), net.forward_batch(model, X), rtol=0, atol=1e-12)


def test_forward_applies_mask_and_blind(tmp_path, corpus):
    model = net.init_network(seed=3, meta=net.ModelMeta(mask=encoding.parse_mask("a+c+d")))
    with open(tmp_path / "m.bin", "wb") as f:
        net.save_model(model, f)
    mine = oracle.read_model(tmp_path / "m.bin")
    X, _ = _dataset(corpus[2]).stacked()
    for blind in (False, True):
        pol = policy.DecisionPolicy(blind=blind)
        for row in X[:20]:
            _, dist = policy.decide_from_vector(model, row, pol)
            np.testing.assert_allclose(oracle.forward(mine, row, blind)[0], dist, rtol=0, atol=1e-12)


def test_topk_and_split_match_program(model_path, corpus):
    dataset = _dataset(corpus[2])
    train_set, test_set = training.split_dataset(dataset)
    assert oracle.split_point([len(g.actions) for g in dataset.games]) == len(train_set.games)
    _, X, y = checks.held_out(oracle.read_dataset(corpus[2]))
    mine = oracle.topk_errors(oracle.forward(oracle.read_model(model_path), X), y)
    assert mine == training.evaluate_topk(_model(model_path), test_set)


def test_topk_tie_break_matches_program():
    rng = np.random.default_rng(0)
    probs = rng.integers(0, 3, size=(300, 58)).astype(np.float64)
    y = rng.integers(0, 58, size=300)
    assert oracle.topk_errors(probs, y) == training.topk_errors_from_probs(probs, y)


def test_sample_index_matches_program():
    rng = np.random.default_rng(1)
    for policy_seed in range(50):
        dist = oracle.excluded_distribution(rng.dirichlet(np.ones(58)), [3, 7])
        want = policy.select_probabilistic(dist, np.random.default_rng([11, policy_seed]))
        assert oracle.sample_index(dist, 11, policy_seed) == want


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def extract_outputs(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("extract") / "x.ds"
    _, report = pipeline.call_cli(["extract", "--events", str(corpus[1]), "--out", str(out), "--json"])
    return report, oracle.read_dataset(out), corpus[1]


def _check_extract(report, data, corpus_dir):
    pairs = checks.check_extract_dataset(data, corpus_dir, inputs.INVALID_LOGS, BUILD_IDS)
    checks.check_extract_report(report, inputs.INVALID_LOGS, len(data["games"]), pairs)


def test_extract_checks_accept_program_output(extract_outputs):
    _check_extract(*extract_outputs)


def _drop_rejection(r, d):
    r["rejections"] = r["rejections"][1:]


def _wrong_reason(r, d):
    r["rejections"][0]["reason"] = "FormatError: elsewhere"


def _pairs_off(r, d):
    r["pairs"] += 1


def _dropped_pair(r, d):
    game_id, a, v = d["games"][0]
    d["games"][0] = (game_id, a[:-1], v[:-1])


def _swapped_rows(r, d):
    game_id, a, v = d["games"][1]
    i = int(np.flatnonzero(a[:-1] != a[1:])[0])
    order = np.arange(len(a))
    order[[i, i + 1]] = order[[i + 1, i]]
    d["games"][1] = (game_id, a[order], v[order])


def _value_out_of_range(r, d):
    game_id, a, v = d["games"][2]
    v = v.copy()
    v[0, 0] = 1.5
    d["games"][2] = (game_id, a, v)


def _dropped_game(r, d):
    d["games"].pop()


def _renamed_game(r, d):
    game_id, a, v = d["games"][0]
    d["games"][0] = (game_id + "x", a, v)


@pytest.mark.parametrize("corrupt", [
    _drop_rejection, _wrong_reason, _pairs_off, _dropped_pair, _swapped_rows,
    _value_out_of_range, _dropped_game, _renamed_game,
])
def test_extract_checks_reject_corrupted_output(extract_outputs, corrupt):
    report, data, corpus_dir = copy.deepcopy(extract_outputs[:2]) + (extract_outputs[2],)
    corrupt(report, data)
    with pytest.raises(CheckFailed):
        _check_extract(report, data, corpus_dir)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def train_outputs(program, corpus, tmp_path_factory):
    logs, _, ds = corpus
    model = tmp_path_factory.mktemp("train") / "m.bin"
    _, train_report = pipeline.call_cli([
        "train", "--dataset", str(ds), "--out", str(model), "--epochs", "20",
        "--learning-rate", "0.001", "--seed", "1", "--json"])
    _, eval_report = pipeline.call_cli(["eval", "--dataset", str(ds), "--model", str(model), "--json"])
    data = oracle.read_dataset(ds)
    k = oracle.split_point([len(a) for _, a, _ in data["games"]])
    bayes = simulate.bayes_top1_error(logs[k:], program.generator)
    return data, oracle.read_model(model), train_report, eval_report, bayes


def test_train_check_accepts_program_output(train_outputs):
    checks.check_train(*train_outputs)


def _shift(key, k, pairs):
    def corrupt(data, model, train_report, eval_report, bayes):
        n = eval_report["pairs"]
        report = eval_report if key == "eval" else train_report
        errors = report["model" if key == "eval" else "test_errors"]
        errors[k] += pairs / n
        return data, model, train_report, eval_report, bayes
    return corrupt


def _wrong_version(data, model, train_report, eval_report, bayes):
    train_report["model_version"] = "0" * 12
    return data, model, train_report, eval_report, bayes


def _wrong_pairs(data, model, train_report, eval_report, bayes):
    eval_report["pairs"] -= 1
    return data, model, train_report, eval_report, bayes


def _wrong_baseline(data, model, train_report, eval_report, bayes):
    eval_report["most_frequent"]["1"] -= 0.01
    return data, model, train_report, eval_report, bayes


def _below_bayes(data, model, train_report, eval_report, bayes):
    return data, model, train_report, eval_report, 0.95


def _untrained(data, model, train_report, eval_report, bayes):
    """A constant model that always ranks the last build first, with reports
    that agree with it: only the most-frequent comparison is left to catch it."""
    model["layers"] = [(np.zeros_like(W), np.zeros_like(b)) for W, b in model["layers"]]
    model["layers"][-1][1][-1] = 1.0
    _, X, y = checks.held_out(data)
    errors = oracle.topk_errors(oracle.forward(model, X), y)
    for report in (eval_report["model"], train_report["test_errors"]):
        report.update({str(k): v for k, v in errors.items()})
    return data, model, dict(train_report, model_version=model["version"]), eval_report, 0.0


@pytest.mark.parametrize("corrupt", [
    _shift("eval", "1", 2), _shift("eval", "3", -2), _shift("train", "1", 2),
    _wrong_version, _wrong_pairs, _wrong_baseline, _below_bayes, _untrained,
])
def test_train_check_rejects_corrupted_output(train_outputs, corrupt):
    with pytest.raises(CheckFailed):
        checks.check_train(*corrupt(*copy.deepcopy(train_outputs)))


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


SERVER_SEED = 9


@pytest.fixture(scope="module")
def served(program, corpus, model_path):
    logs, _, ds = corpus
    states = inputs.held_out_states(program, logs, ds)
    mix, rows = inputs.request_mix(program, states, seed=4)
    server = service.PredictionServer(_model(model_path), program.catalog, program.norms,
                                      seed=SERVER_SEED)
    try:
        replies = [(req, server.answer(req.frame[4:], np.random.default_rng(0))) for req in mix]
    finally:
        server.server_close()
    return replies, lambda: checks.ReplyChecker(oracle.read_model(model_path), rows, NAMES, SERVER_SEED)


def test_reply_checks_accept_program_replies(served):
    replies, checker = served
    check = checker()
    kinds = set()
    for req, payload in replies:
        check.check(req, payload)
        kinds.add((req.form, req.mode, req.blind, req.error_kind))
    assert len(kinds) == 3 * 2 + 4  # three policies in two forms, four error kinds


def _first(replies, **want):
    return next((r, json.loads(p)) for r, p in replies
                if all(getattr(r, k) == v for k, v in want.items()))


def _set_build(reply, index):
    reply["build"] = {"name": NAMES[index], "index": index}


def _other_greedy_build(replies):
    req, reply = _first(replies, form="vector", mode="greedy")
    dist = np.array([reply["distribution"][n] for n in NAMES])
    _set_build(reply, int(np.argsort(dist)[-2]))
    return req, reply


def _other_sampled_build(replies):
    req, reply = _first(replies, form="state", mode="probabilistic")
    dist = np.array([reply["distribution"][n] for n in NAMES])
    others = [i for i in np.flatnonzero(dist > 0) if i != reply["build"]["index"]]
    _set_build(reply, int(others[0]))
    return req, reply


def _unnormalised(replies):
    req, reply = _first(replies, form="vector")
    reply["distribution"] = {n: 1.01 * p for n, p in reply["distribution"].items()}
    return req, reply


def _mass_on_excluded(replies):
    req, reply = _first(replies, form="vector", blind=True)
    excluded = NAMES[req.exclusions[0]]
    donor = min((p, n) for n, p in reply["distribution"].items()
                if p > 0 and n != reply["build"]["name"])[1]
    reply["distribution"][excluded] = reply["distribution"][donor]
    reply["distribution"][donor] = 0.0
    return req, reply


def _swapped_probabilities(replies):
    req, reply = _first(replies, form="vector", mode="greedy", blind=False)
    low = sorted(reply["distribution"], key=reply["distribution"].get)[:2]
    d = reply["distribution"]
    d[low[0]], d[low[1]] = d[low[1]], d[low[0]] + 1e-9
    d[low[0]] -= 1e-9
    return req, reply


def _wrong_error_kind(replies):
    req, reply = _first(replies, form="bad", error_kind="invalid-state")
    reply["error"]["kind"] = "bad-request"
    return req, reply


def _error_for_valid(replies):
    req, _ = _first(replies, form="state")
    return req, {"request_id": req.request_id, "error": {"kind": "internal", "message": "x"}}


def _wrong_request_id(replies):
    req, reply = _first(replies, form="state")
    reply["request_id"] = "r-other"
    return req, reply


def _wrong_model_version(replies):
    req, reply = _first(replies, form="state")
    reply["model_version"] = "f" * 12
    return req, reply


@pytest.mark.parametrize("corrupt", [
    _other_greedy_build, _other_sampled_build, _unnormalised, _mass_on_excluded,
    _swapped_probabilities, _wrong_error_kind, _error_for_valid, _wrong_request_id,
    _wrong_model_version,
])
def test_reply_checks_reject_corrupted_reply(served, corrupt):
    replies, checker = served
    req, reply = corrupt(replies)
    with pytest.raises(CheckFailed):
        checker().check(req, json.dumps(reply).encode())


def test_state_and_vector_forms_must_agree(served):
    """Each form within the tolerance of the forward pass, but apart from
    each other by more than it."""
    replies, checker = served
    check = checker()
    vreq, vreply = _first(replies, form="vector", mode="greedy", blind=False)
    sreq, sreply = _first(replies, form="state", state=vreq.state, blind=False)
    low = sorted(vreply["distribution"], key=vreply["distribution"].get)[-3:-1]
    for reply, sign in ((vreply, 1), (sreply, -1)):
        reply["distribution"][low[0]] += sign * 0.9 * checks.DIST_ATOL
        reply["distribution"][low[1]] -= sign * 0.9 * checks.DIST_ATOL
    check.check(vreq, json.dumps(vreply).encode())
    with pytest.raises(CheckFailed, match="disagree"):
        check.check(sreq, json.dumps(sreply).encode())
