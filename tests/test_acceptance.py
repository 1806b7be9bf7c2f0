"""End-to-end acceptance gate.

Each test prints one ACCEPTANCE line on the real terminal (outside pytest's
capture) so the suite's verdict is scannable from the log, then asserts.
"""

import io
import json
import sys

import numpy as np
import pytest
from gradcheck import backward, finite_difference_gradients

from macronet.encoding import build_dataset, encode, parse_mask, write_dataset
from macronet.errors import DegenerateDistributionError
from macronet.forward import initial_state
from macronet.net import (
    NetworkTopology,
    adam_step,
    backward_batch,
    init_adam,
    init_network,
)
from macronet.policy import apply_exclusions
from macronet.service import PredictionClient, PredictionServer, read_frame, write_frame
from macronet.simulate import (
    Winner,
    bayes_top1_error,
    run_matches,
    simulate_match,
    worker_then_army_player,
    random_player,
)
from macronet.training import (
    TrainConfig,
    baseline_most_frequent,
    baseline_uniform_random,
    evaluate_topk,
    run_ablation_grid,
    uniform_random_error,
)


def _report(capfd, number: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        sys.stdout.write(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}\n")
        sys.stdout.flush()
    assert ok, f"acceptance criterion {number}: {detail}"


def test_acceptance_1_uniform_random_anchor(corpus_split, capfd):
    """Random ranking lands within 3 binomial sigma of 1 - k/58 for k=1,3,10."""
    _, test_set = corpus_split
    n = test_set.n_pairs
    measured = baseline_uniform_random(test_set, seed=123)
    checks = []
    for k in (1, 3, 10):
        p = uniform_random_error(k)
        sigma = (p * (1.0 - p) / n) ** 0.5
        checks.append((k, measured[k], p, abs(measured[k] - p) <= 3.0 * sigma))
    ok = all(c[3] for c in checks)
    detail = ", ".join(
        f"top-{k} {100 * m:.2f}% vs {100 * p:.2f}% analytic" for k, m, p, _ in checks
    ) + f" (n={n})"
    _report(capfd, 1, ok, detail)


def _clear_of_relu_kinks(net, x, margin: float = 1e-4) -> bool:
    """Finite differences are only a valid oracle away from the ReLU kinks:
    a parameter nudge of h can flip any unit whose pre-activation is within
    about h of zero, where the loss is not differentiable."""
    from macronet.net import _forward_cached

    zs, _, _ = _forward_cached(net, x)
    return all(float(np.abs(z).min()) > margin for z in zs[:-1])


def test_acceptance_2_gradient_check(capfd):
    """Backward equals central finite differences on 20 random topologies."""
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    n_coords = 0
    checked = 0
    ok = True
    while checked < 20:
        n_hidden = int(rng.integers(1, 5))
        sizes = (
            int(rng.integers(3, 11)),
            *(int(rng.integers(2, 17)) for _ in range(n_hidden)),
            int(rng.integers(2, 9)),
        )
        net = init_network(NetworkTopology(layer_sizes=sizes), seed=int(rng.integers(1 << 30)))
        x = rng.random(sizes[0])
        if not _clear_of_relu_kinks(net, x):
            continue
        checked += 1
        target = int(rng.integers(sizes[-1]))
        analytic = backward(net, x, target)
        numeric = finite_difference_gradients(net, x, target)
        gap = np.abs(analytic - numeric)
        tol = 1e-7 + 1e-4 * np.abs(numeric)
        ok = ok and bool((gap <= tol).all())
        denom = np.maximum(np.abs(numeric), 1e-7)
        worst_rel = max(worst_rel, float((gap / denom).max()))
        n_coords += analytic.size
    _report(
        capfd, 2, ok,
        f"{checked} topologies, {n_coords} coordinates, worst relative gap {worst_rel:.2e}",
    )


def test_acceptance_3_adam_first_step(capfd):
    """One fresh-state update moves each parameter by (1 +/- 1e-3) * alpha.

    The bound holds wherever |g| is large against Adam's eps; coordinates
    inside the eps regime (|g| < 1e-4 here) move less by construction and
    are excluded."""
    rng = np.random.default_rng(7)
    alpha = 0.0001
    lo, hi = 1.0, 0.0
    n_checked = 0
    ok = True
    for seed in range(5):
        net = init_network(NetworkTopology(layer_sizes=(8, 12, 6)), seed=seed)
        adam = init_adam(net, alpha=alpha)
        grads = backward(net, rng.random(8), int(rng.integers(6)))
        stepped, _ = adam_step(net, adam, grads)
        moved = np.abs(stepped.params - net.params)[np.abs(grads) >= 1e-4]
        if moved.size == 0:
            continue
        n_checked += int(moved.size)
        ratio = moved / alpha
        lo = min(lo, float(ratio.min()))
        hi = max(hi, float(ratio.max()))
        ok = ok and bool((np.abs(ratio - 1.0) <= 1e-3).all())
    ok = ok and n_checked > 300
    _report(
        capfd, 3, ok,
        f"{n_checked} parameters moved by [{lo:.6f}, {hi:.6f}] x alpha",
    )


def test_acceptance_4_policy_recovery(
    default_model, corpus_split, corpus_test_logs, generator, capfd
):
    """Trained default network approaches the Bayes floor and beats the
    most-frequent baseline by 10 points on the held-out synthetic games."""
    model, _ = default_model
    train_set, test_set = corpus_split
    errors = evaluate_topk(model, test_set)
    bayes = bayes_top1_error(corpus_test_logs, generator)
    frequent = baseline_most_frequent(train_set, test_set)
    gap_to_bayes = errors[1] - bayes
    margin = frequent[1] - errors[1]
    ok = gap_to_bayes <= 0.05 and margin >= 0.10
    _report(
        capfd, 4, ok,
        f"model top-1 {100 * errors[1]:.2f}%, Bayes {100 * bayes:.2f}% "
        f"(gap {100 * gap_to_bayes:+.2f}pp <= 5pp), most-frequent "
        f"{100 * frequent[1]:.2f}% (margin {100 * margin:.2f}pp >= 10pp)",
    )


def test_acceptance_5_ablation_direction(corpus_dataset, capfd):
    """Full features strictly beat own-material-only, mean over 5 seeds.

    Few epochs suffice for the ordering; the margin is several points."""
    config = TrainConfig(epochs=12, seed=100)
    report = run_ablation_grid(
        corpus_dataset,
        masks=[parse_mask("a+b+c+d+e"), parse_mask("a")],
        base_config=config,
        repeats=5,
    )
    full, own_only = report.rows
    ok = full.mean(1) < own_only.mean(1)
    _report(
        capfd, 5, ok,
        f"top-1 mean over 5 seeds: a+b+c+d+e {100 * full.mean(1):.2f}%"
        f" +/- {100 * full.std(1):.2f} < a {100 * own_only.mean(1):.2f}%"
        f" +/- {100 * own_only.std(1):.2f}",
    )


def test_acceptance_6_extraction_determinism(corpus_logs, catalog, norms, capfd):
    ds_a = build_dataset(corpus_logs, catalog, norms)
    ds_b = build_dataset(corpus_logs, catalog, norms)
    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    write_dataset(ds_a, buf_a)
    write_dataset(ds_b, buf_b)
    identical = buf_a.getvalue() == buf_b.getvalue()
    produced = sum(log.produced_count() for log in corpus_logs)
    X, _ = ds_a.stacked()
    in_range = bool((X >= 0.0).all() and (X <= 1.0).all())
    ok = identical and ds_a.n_pairs == produced and in_range
    _report(
        capfd, 6, ok,
        f"two extractions byte-identical={identical}, pairs {ds_a.n_pairs} == "
        f"produced events {produced}, all {X.size} values in [0,1]={in_range}",
    )


def test_acceptance_7_exclusion_renormalization(capfd):
    rng = np.random.default_rng(31)
    n_cases = 10_000
    degenerate = 0
    worst = 0.0
    ok = True
    for _ in range(n_cases):
        n = int(rng.integers(2, 59))
        dist = rng.dirichlet(np.full(n, float(rng.uniform(0.2, 3.0))))
        k = int(rng.integers(1, n))
        excluded = rng.choice(n, size=k, replace=False)
        try:
            out = apply_exclusions(dist, excluded)
        except DegenerateDistributionError:
            degenerate += 1
            continue
        ok = ok and bool(out.min() >= 0.0)
        ok = ok and abs(float(out.sum()) - 1.0) <= 1e-9
        ok = ok and bool((out[excluded] == 0.0).all())
        keep = np.setdiff1d(np.arange(n), excluded)
        keep = keep[dist[keep] > 0.0]
        if len(keep) >= 2:
            ratio = (out[keep] / out[keep[0]]) / (dist[keep] / dist[keep[0]])
            worst = max(worst, float(np.abs(ratio - 1.0).max()))
            ok = ok and bool((np.abs(ratio - 1.0) <= 1e-12).all())
    ok = ok and (n_cases - degenerate) > 9000
    _report(
        capfd, 7, ok,
        f"{n_cases - degenerate} non-degenerate cases, worst ratio drift "
        f"{worst:.2e} <= 1e-12",
    )


def _mixed_requests(catalog, norms, total: int):
    """Deterministic request mix: greedy vectors, states, and malformed
    payloads of each error family."""
    rng = np.random.default_rng(99)
    base = encode(initial_state(catalog), catalog, norms)
    requests = []
    for i in range(total):
        kind = i % 5
        if kind in (0, 1):  # valid vector, greedy
            vec = np.clip(base + rng.uniform(0.0, 0.2, size=210), 0.0, 1.0)
            requests.append(
                ("valid", json.dumps({"request_id": f"r{i}", "vector": vec.tolist()}))
            )
        elif kind == 2:  # valid structured state
            requests.append(
                (
                    "valid",
                    json.dumps(
                        {
                            "request_id": f"r{i}",
                            "state": {
                                "frame": 300 * i,
                                "own": {"probe": 4 + i % 9, "nexus": 1, "pylon": i % 3},
                                "supply_used": 8 + i % 5,
                                "supply_max": 18 + 16 * (i % 3),
                            },
                        }
                    ),
                )
            )
        elif kind == 3:  # not JSON at all
            requests.append(("invalid", "{broken"))
        else:  # schema violation
            requests.append(
                ("invalid", json.dumps({"request_id": f"r{i}", "vector": [0.5] * 3}))
            )
    return requests


def test_acceptance_8_service_round_trip(default_model, catalog, norms, capfd):
    model, _ = default_model
    requests = _mixed_requests(catalog, norms, 1000)
    framing_errors = 0
    answered = 0
    bad_sums = 0
    error_on_valid = 0
    greedy_log = []
    replies = []
    with PredictionServer(model, catalog, norms, seed=0) as server:
        with PredictionClient(server.server_address, timeout=5.0) as client:
            for label, payload in requests:
                try:
                    write_frame(client._stream, payload.encode("utf-8"))
                    raw = read_frame(client._stream)
                except Exception:
                    framing_errors += 1
                    continue
                if raw is None:
                    framing_errors += 1
                    continue
                answered += 1
                response = json.loads(raw)
                if label == "valid":
                    if "error" in response:
                        error_on_valid += 1
                        continue
                    total = sum(response["distribution"].values())
                    if abs(total - 1.0) > 1e-6:
                        bad_sums += 1
                    greedy_log.append(payload)
                    replies.append(
                        (response["build"], response["distribution"])
                    )
    # replay the successful requests against a fresh same-seed server
    replay_identical = True
    with PredictionServer(model, catalog, norms, seed=0) as server:
        with PredictionClient(server.server_address, timeout=5.0) as client:
            for payload, (build, dist) in zip(greedy_log, replies):
                write_frame(client._stream, payload.encode("utf-8"))
                response = json.loads(read_frame(client._stream))
                if response["build"] != build or response["distribution"] != dist:
                    replay_identical = False
    ok = (
        framing_errors == 0
        and answered == 1000
        and bad_sums == 0
        and error_on_valid == 0
        and replay_identical
    )
    _report(
        capfd, 8, ok,
        f"{answered}/1000 answered, {framing_errors} framing errors, "
        f"{len(greedy_log)} greedy replays bit-identical={replay_identical}, "
        f"all distribution sums within 1e-6",
    )


def test_acceptance_9_simulator_sanity(catalog, capfd):
    army = worker_then_army_player(catalog)
    self_play = all(
        simulate_match(army, army, catalog, seed=s).winner is Winner.DRAW
        for s in range(3)
    )
    series = run_matches(random_player(catalog), army, catalog, n_matches=200, seed=0)
    random_rate = series.wins_a / series.n
    ok = self_play and random_rate < 0.10
    _report(
        capfd, 9, ok,
        f"self-play draws={self_play}, random wins {series.wins_a}/200 "
        f"({100 * random_rate:.1f}% < 10%)",
    )
