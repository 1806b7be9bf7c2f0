import hashlib
import io
import json

import numpy as np
import pytest

from macronet import simulate
from macronet.events import EventKind, parse_event_log, write_event_log
from macronet.forward import replay
from macronet.simulate import (
    FixedScript,
    TwoBranchScript,
    Winner,
    bayes_top1_error,
    generate_synthetic_corpus,
    random_player,
    run_matches,
    simulate_match,
    worker_only_player,
    worker_then_army_player,
)


# -- corpus generation -----------------------------------------------------------


def test_fixed_script_replays_its_sequence(catalog):
    names = ["pylon", "probe", "gateway", "zealot"]
    script = FixedScript(catalog, names)
    (log,) = generate_synthetic_corpus(script, 1, seed=3)
    produced = [e.type_id for e in log.events if e.kind is EventKind.PRODUCED]
    assert produced == [catalog.build_id(n) for n in names]
    assert log.produced_count() == 4


def test_fixed_script_rejects_overrun(catalog):
    script = FixedScript(catalog, ["probe"])
    (log,) = generate_synthetic_corpus(script, 1, seed=0)
    from macronet.forward import apply_event

    final = None
    for state, event in replay(log, catalog):
        final = apply_event(state, event, catalog)
    with pytest.raises(ValueError):
        script.action_distribution(final)


def test_corpus_is_deterministic(catalog, generator):
    a = generate_synthetic_corpus(generator, 5, seed=21)
    b = generate_synthetic_corpus(generator, 5, seed=21)
    assert [log.game_id for log in a] == [log.game_id for log in b]
    for la, lb in zip(a, b):
        assert la.events == lb.events
    c = generate_synthetic_corpus(generator, 5, seed=22)
    assert any(la.events != lc.events for la, lc in zip(a, c))


def test_corpus_game_ids_encode_seed(generator):
    logs = generate_synthetic_corpus(generator, 3, seed=9)
    assert [log.game_id for log in logs] == [
        "synth-9-00000",
        "synth-9-00001",
        "synth-9-00002",
    ]


def test_corpus_round_trips_through_text(catalog, small_logs):
    for log in small_logs[:10]:
        buf = io.StringIO()
        write_event_log(log, buf, catalog)
        buf.seek(0)
        again = parse_event_log(buf, catalog)
        assert again.game_id == log.game_id
        assert again.events == log.events


def test_corpus_replays_cleanly(catalog, small_logs):
    """Replay applies every event through the forward model's validators, so
    a completed pass means frames are ordered and destructions are legal."""
    pairs = 0
    for log in small_logs:
        for _, event in replay(log, catalog):
            if event.kind is EventKind.PRODUCED:
                pairs += 1
    assert pairs == sum(log.produced_count() for log in small_logs)


def test_corpus_rejects_bad_count(generator):
    with pytest.raises(ValueError):
        generate_synthetic_corpus(generator, 0, seed=1)


def test_two_branch_split_matches_probability(catalog):
    script = TwoBranchScript(catalog, p_first=0.7)
    logs = generate_synthetic_corpus(script, 1000, seed=13)
    gateway = catalog.build_id("gateway")
    first_actions = []
    for log in logs:
        first = next(e for e in log.events if e.kind is EventKind.PRODUCED)
        first_actions.append(first.type_id)
    share = np.mean([a == gateway for a in first_actions])
    sigma = (0.7 * 0.3 / 1000) ** 0.5
    assert abs(share - 0.7) < 3 * sigma


def test_two_branch_followups_are_deterministic(catalog):
    script = TwoBranchScript(catalog, p_first=0.5)
    logs = generate_synthetic_corpus(script, 50, seed=2)
    worker = catalog.worker_id
    pylon = catalog.build_id("pylon")
    gateway = catalog.build_id("gateway")
    for log in logs:
        produced = [e.type_id for e in log.events if e.kind is EventKind.PRODUCED]
        expected = worker if produced[0] == gateway else pylon
        assert all(a == expected for a in produced[1:])


def test_bayes_error_two_branch_closed_form(catalog):
    """Only the branch decision is uncertain: 6 decisions per game, one with
    error 0.3, five with error 0, so the Bayes top-1 error is 0.05."""
    script = TwoBranchScript(catalog, p_first=0.7, n_decisions=6)
    logs = generate_synthetic_corpus(script, 200, seed=17)
    assert bayes_top1_error(logs, script) == pytest.approx(0.05, abs=1e-9)


def test_bayes_error_fixed_script_is_zero(catalog):
    script = FixedScript(catalog, ["pylon", "probe", "probe"])
    logs = generate_synthetic_corpus(script, 20, seed=5)
    assert bayes_top1_error(logs, script) == 0.0


def test_bayes_error_rejects_empty():
    with pytest.raises(ValueError):
        bayes_top1_error([], FixedScript.__new__(FixedScript))


def test_reactive_corpus_shape(small_logs):
    # plans draw 70..90 decisions per game
    for log in small_logs:
        n = log.produced_count()
        assert 70 <= n <= 90


# -- abstract matches -------------------------------------------------------------


def test_self_play_draws(catalog):
    player = worker_then_army_player(catalog)
    result = simulate_match(player, player, catalog, seed=1)
    assert result.winner is Winner.DRAW
    assert result.end_frame == simulate.FRAME_CAP


def test_worker_only_loses(catalog):
    result = simulate_match(
        worker_only_player(catalog), worker_then_army_player(catalog), catalog, seed=2
    )
    assert result.winner is Winner.B
    assert result.end_frame < simulate.FRAME_CAP


def test_match_is_deterministic(catalog):
    a = simulate_match(
        random_player(catalog), worker_then_army_player(catalog), catalog, seed=3
    )
    b = simulate_match(
        random_player(catalog), worker_then_army_player(catalog), catalog, seed=3
    )
    assert a == b


def test_match_seeds_differ(catalog):
    results = {
        simulate_match(
            random_player(catalog), random_player(catalog), catalog, seed=s
        ).army_curve_a
        for s in range(4)
    }
    assert len(results) > 1


def test_random_player_accumulates_skips(catalog):
    result = simulate_match(
        random_player(catalog), worker_then_army_player(catalog), catalog, seed=4
    )
    # most random picks fail a prerequisite or one-time rule and are skipped;
    # the scripted side only skips zealot orders while its gateway finishes
    assert result.skipped_a > 10
    assert result.skipped_a > result.skipped_b


def test_army_curve_is_sampled_at_combat_checks(catalog):
    result = simulate_match(
        worker_then_army_player(catalog),
        worker_only_player(catalog),
        catalog,
        seed=5,
        frame_cap=6000,
    )
    assert result.end_frame <= 6000
    frames = [f for f, _ in result.army_curve_a]
    assert frames == sorted(frames)
    assert all(f % simulate.COMBAT_FRAMES == 0 or f == 6000 for f in frames)
    assert all(v >= 0 for _, v in result.army_curve_a)


def test_worker_only_never_builds_army(catalog):
    result = simulate_match(
        worker_only_player(catalog),
        worker_only_player(catalog),
        catalog,
        seed=6,
        frame_cap=9000,
    )
    assert result.winner is Winner.DRAW
    assert all(v == 0 for _, v in result.army_curve_a)
    assert all(v == 0 for _, v in result.army_curve_b)


def test_run_matches_tallies(catalog):
    series = run_matches(
        worker_only_player(catalog),
        worker_then_army_player(catalog),
        catalog,
        n_matches=3,
        seed=10,
    )
    assert series.wins_b == 3
    assert series.wins_a == series.draws == 0
    assert series.n == 3


# Digests of ten seeded matches' winners, end frames, skip counts and army
# curves. The skip counts follow every draw and every legality check of both
# sides, so a change to either moves them.
PINNED_MATCHES_SHA256 = {
    "worker-then-army vs random": "bcf30d9626821b02b727a6fb083e659d3a9c5c25a7c9141b6cf079b8bf007381",
    "random vs random": "1649827591ed70cc96592bfe70cfe1845f1b63d1102b4060945f839957cf5b94",
}


@pytest.mark.parametrize("pairing", sorted(PINNED_MATCHES_SHA256))
def test_match_results_are_pinned(catalog, pairing):
    players = {"worker-then-army": worker_then_army_player, "random": random_player}
    name_a, name_b = pairing.split(" vs ")
    results = [
        simulate_match(players[name_a](catalog), players[name_b](catalog), catalog, seed)
        for seed in range(10)
    ]
    summary = [
        [r.winner.value, r.end_frame, r.skipped_a, r.skipped_b, r.army_curve_a, r.army_curve_b]
        for r in results
    ]
    digest = hashlib.sha256(json.dumps(summary).encode()).hexdigest()
    assert digest == PINNED_MATCHES_SHA256[pairing]
