"""Build-order forward model: replays event logs into macro-state snapshots.

The model tracks one player's observable macro situation: completed own
material, material in production (with per-instance completion frames),
observed enemy material, and supply. Replaying a log and snapshotting the
state at every production start yields the state-action pairs the network
trains on.

Two paths compute those pairs. ``replay`` steps ``advance`` and
``apply_event`` through the log one event at a time; it is the reference,
and the match simulator uses its steps. ``extract_pairs`` builds the same
states for a whole game at once as a ``DecisionTable`` of integer arrays,
from cumulative counts over the events, and raises the same error at the
same event; extraction and the encoder use it.

All operations are functional: they return new states and never mutate
their inputs, so a snapshot taken mid-replay stays valid forever.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .catalog import N_ENEMY_TYPES, N_OWN_BUILDS, BuildCatalog
from .errors import ConsistencyError
from .events import EventKind, EventLog, GameEvent

INITIAL_WORKERS = 4


@dataclass(frozen=True)
class MacroState:
    """Snapshot of one player's macro situation at a frame.

    ``production`` holds one (build_id, completion_frame) entry per instance
    under construction, in start order; the public count/progress views are
    derived from it.
    """

    frame: int
    own_count: np.ndarray  # (58,) int64, completed material
    enemy_count: np.ndarray  # (33,) int64, cumulative observed
    production: tuple[tuple[int, int], ...]
    supply_used: int
    supply_max: int

    def __eq__(self, other):
        if not isinstance(other, MacroState):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.supply_used == other.supply_used
            and self.supply_max == other.supply_max
            and self.production == other.production
            and np.array_equal(self.own_count, other.own_count)
            and np.array_equal(self.enemy_count, other.enemy_count)
        )

    @property
    def supply_left(self) -> int:
        return self.supply_max - self.supply_used

    def in_production_count(self) -> np.ndarray:
        counts = np.zeros(N_OWN_BUILDS, dtype=np.int64)
        for build_id, _ in self.production:
            counts[build_id] += 1
        return counts

    def production_progress(self, catalog: BuildCatalog) -> np.ndarray:
        """Per type: progress of the soonest-finishing instance, else 0."""
        soonest: dict[int, int] = {}
        for build_id, done_at in self.production:
            if build_id not in soonest or done_at < soonest[build_id]:
                soonest[build_id] = done_at
        progress = np.zeros(N_OWN_BUILDS, dtype=np.float64)
        for build_id, done_at in soonest.items():
            frames = catalog.builds[build_id].build_frames
            progress[build_id] = min(1.0, max(0.0, 1.0 - (done_at - self.frame) / frames))
        return progress

    def total_count(self, build_id: int) -> int:
        """Completed plus in-production instances of one type."""
        return int(self.own_count[build_id]) + sum(
            1 for b, _ in self.production if b == build_id
        )


@dataclass(frozen=True)
class StateActionPair:
    state: MacroState
    action: int  # BuildId whose production starts in this state


def initial_state(catalog: BuildCatalog) -> MacroState:
    """Standard opening: 4 workers and the main building, at frame 0."""
    own = np.zeros(N_OWN_BUILDS, dtype=np.int64)
    worker = catalog.builds[catalog.worker_id]
    main = catalog.builds[catalog.main_building_id]
    own[worker.id] = INITIAL_WORKERS
    own[main.id] = 1
    return MacroState(
        frame=0,
        own_count=own,
        enemy_count=np.zeros(N_ENEMY_TYPES, dtype=np.int64),
        production=(),
        supply_used=INITIAL_WORKERS * worker.supply_cost,
        supply_max=main.supply_provided,
    )


def advance(state: MacroState, to_frame: int, catalog: BuildCatalog) -> MacroState:
    """Move time forward, completing any production that finishes on the way.

    Advancing in two steps equals advancing in one; advancing by zero frames
    is the identity.
    """
    if to_frame < state.frame:
        raise ValueError(f"cannot advance backwards: {state.frame} -> {to_frame}")
    if to_frame == state.frame:
        return state
    finished = [(b, d) for b, d in state.production if d <= to_frame]
    if not finished:
        return MacroState(
            frame=to_frame,
            own_count=state.own_count,
            enemy_count=state.enemy_count,
            production=state.production,
            supply_used=state.supply_used,
            supply_max=state.supply_max,
        )
    own = state.own_count.copy()
    supply_max = state.supply_max
    for build_id, _ in finished:
        own[build_id] += 1
        supply_max += catalog.builds[build_id].supply_provided
    remaining = tuple((b, d) for b, d in state.production if d > to_frame)
    return MacroState(
        frame=to_frame,
        own_count=own,
        enemy_count=state.enemy_count,
        production=remaining,
        supply_used=state.supply_used,
        supply_max=supply_max,
    )


def apply_event(state: MacroState, event: GameEvent, catalog: BuildCatalog) -> MacroState:
    """Apply one event at its frame. Completions are advance()'s job: callers
    replaying a log must advance to the event frame first."""
    if event.frame < state.frame:
        raise ValueError(
            f"event at frame {event.frame} behind state at frame {state.frame}"
        )
    own = state.own_count
    enemy = state.enemy_count
    production = state.production
    supply_used = state.supply_used
    supply_max = state.supply_max

    if event.kind is EventKind.PRODUCED:
        spec = catalog.builds[event.type_id]
        if catalog.is_one_time(event.type_id):
            already = own[event.type_id] >= 1 or any(
                b == event.type_id for b, _ in production
            )
            if already:
                raise ConsistencyError(
                    f"frame {event.frame}: {spec.name!r} is a one-time build "
                    "and is already owned or in production"
                )
        production = production + ((event.type_id, event.frame + spec.build_frames),)
        supply_used += spec.supply_cost
    elif event.kind is EventKind.DESTROYED:
        spec = catalog.builds[event.type_id]
        if own[event.type_id] == 0:
            raise ConsistencyError(
                f"frame {event.frame}: destroyed {spec.name!r} "
                "but none is completed"
            )
        own = own.copy()
        own[event.type_id] -= 1
        supply_used -= spec.supply_cost
        supply_max -= spec.supply_provided
    else:  # EnemyObserved
        enemy = enemy.copy()
        enemy[event.type_id] += 1

    return MacroState(
        frame=event.frame,
        own_count=own,
        enemy_count=enemy,
        production=production,
        supply_used=supply_used,
        supply_max=supply_max,
    )


def replay(log: EventLog, catalog: BuildCatalog):
    """Yield (state_before_event, event) for every event, advancing time in
    between. The yielded state includes all prior events plus elapsed-time
    completions, i.e. exactly the decision state for Produced events."""
    state = initial_state(catalog)
    for event in log.events:
        state = advance(state, event.frame, catalog)
        yield state, event
        state = apply_event(state, event, catalog)


@dataclass(frozen=True, eq=False)
class DecisionTable(Sequence):
    """One game's state-action pairs as read-only integer arrays, one row per
    Produced event in event order: the decision state before the event, the
    build it starts and when that build completes.

    As a sequence it holds ``StateActionPair``s, built row by row on demand:
    ``own_count`` and ``enemy_count`` are views of the table's rows, and
    ``production`` is rebuilt from the earlier starts still pending.
    """

    frame: np.ndarray  # (n,)
    own: np.ndarray  # (n, 58) completed material
    in_production: np.ndarray  # (n, 58) pending starts of each type
    soonest: np.ndarray  # (n, 58) completion frame of each type's soonest pending start, else 0
    enemy: np.ndarray  # (n, 33) cumulative observed
    supply_used: np.ndarray  # (n,)
    supply_max: np.ndarray  # (n,)
    actions: np.ndarray  # (n,) BuildId each row starts
    done: np.ndarray  # (n,) completion frame of that start

    def __post_init__(self):
        for column in fields(self):
            getattr(self, column.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        pending = np.flatnonzero(self.done[:i] > self.frame[i])
        state = MacroState(
            frame=int(self.frame[i]),
            own_count=self.own[i],
            enemy_count=self.enemy[i],
            production=tuple(
                zip(self.actions[pending].tolist(), self.done[pending].tolist())
            ),
            supply_used=int(self.supply_used[i]),
            supply_max=int(self.supply_max[i]),
        )
        return StateActionPair(state=state, action=int(self.actions[i]))


# Columns of the per-event count matrix that extract_pairs builds: produced,
# destroyed and observed events each count in their own block of columns,
# indexed by type id, and a fourth block counts completed starts. Unused
# columns pad a row to a whole number of 64-bit words.
_DESTROYED = N_OWN_BUILDS
_OBSERVED = 2 * N_OWN_BUILDS
_COMPLETED = _OBSERVED + N_ENEMY_TYPES
_N_COLUMNS = -(-(_COMPLETED + N_OWN_BUILDS) // 4) * 4


def extract_pairs(log: EventLog, catalog: BuildCatalog) -> DecisionTable:
    """One pair per Produced event, in frame order.

    Row i equals the state ``replay`` yields before the i-th Produced event,
    and a log that ``replay`` rejects raises the same error, with the same
    message, at the same event. One pass reads the events into arrays; each
    later step is an array operation over the events or the starts, with no
    events x events matrix:

    - ``counts[j]`` holds, per column, the events of each kind and type
      before event j, and the starts completed by event j's frame. A start
      completes after its own frame (build_frames >= 1), so it completes at
      the first event whose frame reaches its completion frame, and the
      starts completed by a frame all come before the events at that frame.
    - Completion frames of one type never decrease in start order, so the
      soonest pending start of a type is the first one not yet completed.
    """
    vectors = catalog.vectors
    start = initial_state(catalog)
    n = len(log.events)
    produced_kind, destroyed_kind = EventKind.PRODUCED, EventKind.DESTROYED
    frame = np.array([e.frame for e in log.events], dtype=np.int64)
    column = np.array(
        [
            e.type_id
            if e.kind is produced_kind
            else e.type_id + (_DESTROYED if e.kind is destroyed_kind else _OBSERVED)
            for e in log.events
        ],
        dtype=np.int64,
    )
    # advance() refuses the first event behind its predecessor (or frame 0),
    # and nothing from there on is replayed.
    behind = np.flatnonzero(frame < np.concatenate(([0], frame[:-1])))
    end = int(behind[0]) if behind.size else n
    frame, column = frame[:end], column[:end]

    produced = np.flatnonzero(column < N_OWN_BUILDS)
    actions = column[produced]
    done = frame[produced] + vectors.build_frames[actions]
    # No count exceeds `end`, so below 2**16 rows each fits a 16-bit lane, and
    # a running sum over 64-bit words of four lanes never carries across them.
    counts = np.zeros((end + 1, _N_COLUMNS), dtype=np.uint16 if end < 2**16 else np.uint32)
    counts[np.arange(1, end + 1), column] = 1
    completions = np.searchsorted(frame, done) * N_OWN_BUILDS + actions
    counts[:, _COMPLETED : _COMPLETED + N_OWN_BUILDS] = np.bincount(
        completions, minlength=(end + 1) * N_OWN_BUILDS
    ).reshape(-1, N_OWN_BUILDS)
    words = counts.view(np.uint64)
    np.cumsum(words, axis=0, out=words)

    # Each event checked against the state before it, as apply_event checks:
    # a destroy needs a completed instance, and a one-time build may be
    # neither owned nor in production.
    kind = column // N_OWN_BUILDS  # 0 produced, 1 destroyed, 2 observed
    build = column % N_OWN_BUILDS
    flat, cell = counts.ravel(), np.arange(end) * _N_COLUMNS + build
    started, destroyed, completed = (flat[cell + block] for block in (0, _DESTROYED, _COMPLETED))
    owned = start.own_count[build] + completed - destroyed
    bad = (kind == 1) & (owned == 0)
    bad |= (kind == 0) & vectors.one_time[build] & (owned + started - completed >= 1)
    if bad.any():
        event = log.events[int(bad.argmax())]
        name = catalog.builds[event.type_id].name
        if event.kind is EventKind.DESTROYED:
            raise ConsistencyError(
                f"frame {event.frame}: destroyed {name!r} but none is completed"
            )
        raise ConsistencyError(
            f"frame {event.frame}: {name!r} is a one-time build "
            "and is already owned or in production"
        )
    if end < n:
        before = log.events[end - 1].frame if end else start.frame
        raise ValueError(f"cannot advance backwards: {before} -> {log.events[end].frame}")

    rows = counts[produced]
    started, destroyed = rows[:, :_DESTROYED], rows[:, _DESTROYED:_OBSERVED]
    observed = rows[:, _OBSERVED:_COMPLETED]
    completed = rows[:, _COMPLETED : _COMPLETED + N_OWN_BUILDS]
    in_production = np.subtract(started, completed, dtype=np.int64)
    alive = np.subtract(completed, destroyed, dtype=np.int64)
    # Every start's completion frame, grouped by type in start order, then a
    # 0 that the types with nothing pending index.
    total = counts[end, :N_OWN_BUILDS].astype(np.int64)
    first = np.cumsum(total) - total
    by_type = np.zeros(len(produced) + 1, dtype=np.int64)
    by_type[first[actions] + started[np.arange(len(produced)), actions]] = done
    return DecisionTable(
        frame=frame[produced],
        own=start.own_count + alive,
        in_production=in_production,
        soonest=np.where(in_production > 0, by_type[first + completed], 0),
        enemy=observed.astype(np.int64),
        supply_used=start.supply_used + (in_production + alive) @ vectors.supply_cost,
        supply_max=start.supply_max + alive @ vectors.supply_provided,
        actions=actions,
        done=done,
    )
