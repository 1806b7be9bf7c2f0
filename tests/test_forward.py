import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macronet.encoding import NormalizationTable, encode
from macronet.errors import ConsistencyError
from macronet.events import EventKind, EventLog, GameEvent
from macronet.forward import (
    MacroState,
    advance,
    apply_event,
    extract_pairs,
    initial_state,
    replay,
)


def test_initial_state(catalog):
    s = initial_state(catalog)
    assert s.frame == 0
    assert s.own_count[catalog.worker_id] == 4
    assert s.own_count[catalog.main_building_id] == 1
    assert int(s.own_count.sum()) == 5
    assert s.production == ()
    assert s.supply_used == 8
    assert s.supply_max == 18
    assert s.supply_left == 10


def test_state_is_a_tuple_equal_by_value(catalog):
    s = initial_state(catalog)
    assert len(s) == 6 and tuple(s)[0] == 0
    frame, own, enemy, production, supply_used, supply_max = s
    copy = MacroState(frame, own.copy(), enemy.copy(), production, supply_used, supply_max)
    assert copy == s and not copy != s
    later = s._replace(frame=5)
    assert later != s and not later == s
    assert later.own_count is s.own_count
    # A plain tuple of the same fields is not a state, from either side.
    assert s != tuple(s) and tuple(s) != s
    assert not s == tuple(s) and not tuple(s) == s
    with pytest.raises(TypeError):
        hash(s)


def test_advance_zero_is_identity(catalog):
    s = initial_state(catalog)
    assert advance(s, 0, catalog) == s


def test_advance_backwards_rejected(catalog):
    s = advance(initial_state(catalog), 100, catalog)
    with pytest.raises(ValueError):
        advance(s, 50, catalog)


def test_linear_progress(catalog):
    pylon = catalog.build_id("pylon")
    frames = catalog.build(pylon).build_frames
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, pylon), catalog
    )
    half = advance(s, frames // 2, catalog)
    assert half.production_progress(catalog)[pylon] == pytest.approx(
        (frames // 2) / frames
    )
    assert half.in_production_count()[pylon] == 1


def test_advance_composition(catalog):
    pylon = catalog.build_id("pylon")
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, pylon), catalog
    )
    assert advance(advance(s, 200, catalog), 900, catalog) == advance(s, 900, catalog)


def test_completion_moves_counts_and_supply(catalog):
    pylon = catalog.build_id("pylon")
    spec = catalog.build(pylon)
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, pylon), catalog
    )
    done = advance(s, spec.build_frames, catalog)
    assert done.own_count[pylon] == 1
    assert done.production == ()
    assert done.supply_max == 18 + spec.supply_provided


def test_soonest_finishing_instance_progress(catalog):
    probe = catalog.worker_id
    frames = catalog.build(probe).build_frames
    s = initial_state(catalog)
    s = apply_event(s, GameEvent(0, EventKind.PRODUCED, probe), catalog)
    s = advance(s, 100, catalog)
    s = apply_event(s, GameEvent(100, EventKind.PRODUCED, probe), catalog)
    s = advance(s, 150, catalog)
    # two probes queued; the one started at frame 0 is further along
    assert s.in_production_count()[probe] == 2
    assert s.production_progress(catalog)[probe] == pytest.approx(150 / frames)


def test_produced_consumes_supply(catalog):
    probe = catalog.worker_id
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, probe), catalog
    )
    assert s.supply_used == 8 + catalog.build(probe).supply_cost
    assert s.in_production_count()[probe] == 1
    assert s.own_count[probe] == 4


def test_enemy_observed_accumulates(catalog):
    marine = catalog.enemy_id("marine")
    s = initial_state(catalog)
    s = apply_event(s, GameEvent(0, EventKind.ENEMY_OBSERVED, marine), catalog)
    s = apply_event(s, GameEvent(5, EventKind.ENEMY_OBSERVED, marine), catalog)
    assert s.enemy_count[marine] == 2


def test_destroy_without_owning_names_frame_and_build(catalog):
    zealot = catalog.build_id("zealot")
    with pytest.raises(ConsistencyError) as err:
        apply_event(
            initial_state(catalog), GameEvent(77, EventKind.DESTROYED, zealot), catalog
        )
    assert "77" in str(err.value)
    assert "zealot" in str(err.value)


def test_destroyed_reverses_supply(catalog):
    probe = catalog.worker_id
    s = initial_state(catalog)
    before = s.supply_used
    s = apply_event(s, GameEvent(10, EventKind.DESTROYED, probe), catalog)
    assert s.own_count[probe] == 3
    assert s.supply_used == before - catalog.build(probe).supply_cost


def test_one_time_build_cannot_repeat(catalog):
    storm = catalog.build_id("psionic_storm")
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, storm), catalog
    )
    with pytest.raises(ConsistencyError):
        apply_event(s, GameEvent(10, EventKind.PRODUCED, storm), catalog)
    finished = advance(s, 10_000, catalog)
    assert finished.own_count[storm] == 1
    with pytest.raises(ConsistencyError):
        apply_event(finished, GameEvent(10_001, EventKind.PRODUCED, storm), catalog)


def _five_event_log(catalog):
    pylon = catalog.build_id("pylon")
    probe = catalog.worker_id
    gateway = catalog.build_id("gateway")
    marine = catalog.enemy_id("marine")
    return EventLog(
        game_id="hand-trace",
        events=(
            GameEvent(0, EventKind.PRODUCED, pylon),
            GameEvent(100, EventKind.PRODUCED, probe),
            GameEvent(200, EventKind.ENEMY_OBSERVED, marine),
            GameEvent(300, EventKind.PRODUCED, gateway),
            GameEvent(500, EventKind.DESTROYED, pylon),  # pylon completed at 450
        ),
    )


def test_hand_traced_five_event_log(catalog):
    """Every snapshot checked against a worked-by-hand simulation."""
    pylon = catalog.build_id("pylon")
    probe = catalog.worker_id
    gateway = catalog.build_id("gateway")
    marine = catalog.enemy_id("marine")
    pairs = extract_pairs(_five_event_log(catalog), catalog)
    assert [p.action for p in pairs] == [pylon, probe, gateway]

    s0 = pairs[0].state  # before anything happens
    assert s0 == initial_state(catalog)

    s1 = pairs[1].state  # frame 100: pylon 100/450 done
    assert s1.frame == 100
    assert s1.in_production_count()[pylon] == 1
    assert s1.production_progress(catalog)[pylon] == pytest.approx(100 / 450)
    assert s1.supply_used == 8 and s1.supply_max == 18

    s2 = pairs[2].state  # frame 300: pylon 300/450, probe (started @100) 200/300
    assert s2.frame == 300
    assert s2.own_count[probe] == 4
    assert s2.production_progress(catalog)[pylon] == pytest.approx(300 / 450)
    assert s2.production_progress(catalog)[probe] == pytest.approx(200 / 300)
    assert s2.enemy_count[marine] == 1
    assert s2.supply_used == 10  # the queued probe costs supply up front

    # replay to the end: probe done @400, pylon done @450 then destroyed @500
    final = None
    for state, event in replay(_five_event_log(catalog), catalog):
        final = apply_event(state, event, catalog)
    assert final.own_count[probe] == 5
    assert final.own_count[pylon] == 0
    assert final.supply_max == 18  # pylon's supply revoked on destruction
    assert final.supply_used == 10
    assert final.in_production_count()[gateway] == 1


def test_pair_count_equals_produced_count(catalog, small_logs):
    for log in small_logs[:10]:
        assert len(extract_pairs(log, catalog)) == log.produced_count()


def test_pairs_reconstructible_from_prefix(catalog, small_logs):
    """Replaying the event prefix by hand reproduces each emitted snapshot."""
    log = small_logs[0]
    pairs = extract_pairs(log, catalog)
    produced = [e for e in log.events if e.kind is EventKind.PRODUCED]
    for pair, event in zip(pairs[:20], produced[:20]):
        state = initial_state(catalog)
        for prior in log.events:
            if prior is event:
                break
            state = advance(state, prior.frame, catalog)
            state = apply_event(state, prior, catalog)
        state = advance(state, event.frame, catalog)
        assert state == pair.state


def test_counts_never_negative_along_replay(catalog, small_logs):
    for log in small_logs[:5]:
        for state, _ in replay(log, catalog):
            assert (state.own_count >= 0).all()
            assert (state.enemy_count >= 0).all()
            assert state.supply_used >= 0


def test_supply_accounting_invariant(catalog, small_logs):
    """supply_used = initial + supply cost of everything produced minus
    everything destroyed, at every point of the replay."""
    log = small_logs[1]
    expected = initial_state(catalog).supply_used
    for state, event in replay(log, catalog):
        assert state.supply_used == expected
        cost = catalog.build(event.type_id).supply_cost if event.kind in (
            EventKind.PRODUCED,
            EventKind.DESTROYED,
        ) else 0
        if event.kind is EventKind.PRODUCED:
            expected += cost
        elif event.kind is EventKind.DESTROYED:
            expected -= cost


@settings(max_examples=30, deadline=None)
@given(
    frames=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=8),
    split=st.integers(min_value=0, max_value=3000),
)
def test_advance_composition_property(catalog, frames, split):
    probe = catalog.worker_id
    s = initial_state(catalog)
    t = 0
    for gap in frames:
        t += gap
        s = apply_event(advance(s, t, catalog), GameEvent(t, EventKind.PRODUCED, probe), catalog)
    end = t + 3000
    mid = min(t + split, end)
    assert advance(advance(s, mid, catalog), end, catalog) == advance(s, end, catalog)


# -- the table against the step-by-step replay ---------------------------------

# Builds of every kind, whose build times (105 to 2000 frames) complete some
# starts between events and leave others pending: two supply providers, a
# zero-supply unit, a technology and an upgrade. Repeats weight the draw.
# Destroys name the starting workers most of the time, and one-time builds
# are rare, so that about a third of the logs replay to the end.
PRODUCED_NAMES = (
    ("probe",) * 10 + ("zealot", "scarab") + ("pylon",) * 3 + ("nexus", "psionic_storm", "leg_enhancements")
)
DESTROYED_NAMES = ("probe",) * 8 + ("nexus", "pylon", "zealot", "psionic_storm")
OBSERVED_NAMES = ("marine", "scv", "siege_tank")
KINDS = (EventKind.PRODUCED,) * 6 + (EventKind.DESTROYED,) + (EventKind.ENEMY_OBSERVED,) * 2


@st.composite
def fuzzed_logs(draw, catalog):
    """Logs with nondecreasing frames, often several events on one frame,
    destroys of builds that may not be completed, repeated one-time builds,
    observations, and now and then one frame behind its predecessor."""
    pools = {
        EventKind.PRODUCED: [catalog.build_id(name) for name in PRODUCED_NAMES],
        EventKind.DESTROYED: [catalog.build_id(name) for name in DESTROYED_NAMES],
        EventKind.ENEMY_OBSERVED: [catalog.enemy_id(name) for name in OBSERVED_NAMES],
    }
    frame, events = 0, []
    for _ in range(draw(st.integers(0, 40))):
        frame += draw(st.sampled_from((0, 0, 1, 150, 300, 450, 700)) | st.integers(0, 2500))
        kind = draw(st.sampled_from(KINDS))
        events.append(GameEvent(frame, kind, draw(st.sampled_from(pools[kind]))))
    if events and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(events) - 1))
        e = events[i]
        behind = (events[i - 1].frame if i else 0) - draw(st.integers(1, 200))
        events[i] = GameEvent(behind, e.kind, e.type_id)
    return EventLog(game_id="fuzz", events=tuple(events))


def replayed_pairs(log, catalog):
    """The reference: (state, action) at every Produced event, or the error."""
    try:
        return [
            (state, event.type_id)
            for state, event in replay(log, catalog)
            if event.kind is EventKind.PRODUCED
        ], None
    except (ConsistencyError, ValueError) as err:
        return None, err


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_table_equals_replay_or_raises_the_same_error(catalog, data):
    log = data.draw(fuzzed_logs(catalog))
    expected, error = replayed_pairs(log, catalog)
    if error is not None:
        with pytest.raises(type(error)) as raised:
            extract_pairs(log, catalog)
        assert str(raised.value) == str(error)
        return
    table = extract_pairs(log, catalog)
    assert len(table) == len(expected)
    for pair, (state, action) in zip(table, expected):
        assert pair.state == state
        assert pair.action == action
    # Caps this low clamp features in most games, so the clamp counts are
    # checked too.
    norms = NormalizationTable(
        np.full(len(catalog.builds), 2.0), np.full(len(catalog.enemy_types), 1.0)
    )
    per_state_counts = np.zeros(210, dtype=np.int64)
    one_by_one = [encode(state, catalog, norms, per_state_counts) for state, _ in expected]
    table_counts = np.zeros(210, dtype=np.int64)
    got = encode(table, catalog, norms, table_counts)
    assert got.shape == (len(expected), 210)
    if expected:
        assert got.tobytes() == np.stack(one_by_one).tobytes()
    np.testing.assert_array_equal(table_counts, per_state_counts)


def test_table_rows_are_read_only_views(catalog, small_logs):
    table = extract_pairs(small_logs[0], catalog)
    last = table[-1].state
    with pytest.raises(ValueError):
        last.own_count[0] = 99
    with pytest.raises(ValueError):
        last.enemy_count[0] = 99
    assert last == table[len(table) - 1].state
    assert table[3:5] == [table[3], table[4]]
    with pytest.raises(IndexError):
        table[len(table)]


@pytest.mark.parametrize("observed", [2**16 - 2, 2**16 + 3])
def test_counts_past_16_bits_equal_replay(catalog, observed):
    """extract_pairs sums its counts in 16-bit lanes below 2**16 events and
    in 32-bit lanes from there: on either side a count that fills or
    overflows 16 bits comes out as replay has it."""
    marine = catalog.enemy_id("marine")
    probe, pylon = catalog.build_id("probe"), catalog.build_id("pylon")
    events = [GameEvent(0, EventKind.ENEMY_OBSERVED, marine)] * observed + [
        GameEvent(1, EventKind.PRODUCED, pylon),
        GameEvent(1, EventKind.DESTROYED, probe),
        GameEvent(2, EventKind.PRODUCED, probe),
    ]
    log = EventLog(game_id="long", events=tuple(events))
    expected, error = replayed_pairs(log, catalog)
    assert error is None
    table = extract_pairs(log, catalog)
    assert [(pair.state, pair.action) for pair in table] == expected
    assert table.enemy[-1, marine] == observed
