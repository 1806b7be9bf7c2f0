"""Generative side of the forward model: synthetic corpora and abstract
matches.

Synthetic corpora substitute for human replays. Each generator is a
stochastic script whose conditional action distribution is an explicit,
closed-form function of the observable macro state, so the Bayes-optimal
prediction error on a generated corpus can be computed exactly and used as
a training target.

Abstract matches run two decision policies through independent forward
models with resource accrual, prerequisite and supply gating, and a coarse
army-value combat resolution. They are a desk-scale stand-in for full game
playouts: good enough to show that "never build an army" loses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .catalog import SUPPLY_CAP, BuildCatalog, BuildKind
from .encoding import NormalizationTable
from .events import EventKind, EventLog, GameEvent
from .forward import INITIAL_WORKERS, MacroState, advance, apply_event, initial_state, replay
from .net import Network
from .policy import DecisionPolicy, cumulative, decide, pick

# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GamePlan:
    """Exogenous shape of one synthetic game: when decisions happen, what the
    opponent shows, and when own material dies. Drawn before the game starts,
    independent of the actions taken."""

    periods: tuple[int, ...]
    observations: tuple[tuple[int, int], ...] = ()  # (frame, enemy_id)
    destructions: tuple[tuple[int, tuple[int, ...]], ...] = ()  # (frame, candidates)

    @property
    def n_decisions(self) -> int:
        return len(self.periods)


class StochasticScript(Protocol):
    """A replay generator with a known conditional action distribution.

    action_distribution must be a pure function of the observable state, so
    that replaying a generated log reproduces exactly the distribution each
    recorded action was sampled from. That is also what lets the corpus
    generator keep each distinct distribution's cumulative sums by value.
    game_plan draws from the game's generator first; the decisions' uniforms
    come after it."""

    catalog: BuildCatalog

    def action_distribution(self, state: MacroState) -> np.ndarray: ...

    def game_plan(self, rng: np.random.Generator) -> GamePlan: ...


class FixedScript:
    """Plays a fixed build sequence: the k-th decision is the k-th name."""

    def __init__(self, catalog: BuildCatalog, names, period: int = 150):
        self.catalog = catalog
        self.sequence = tuple(catalog.build_id(n) for n in names)
        self.period = period

    def action_distribution(self, state: MacroState) -> np.ndarray:
        produced = int(state.own_count.sum()) + len(state.production)
        k = produced - INITIAL_WORKERS - 1  # less the opening workers and main building
        if not 0 <= k < len(self.sequence):
            raise ValueError(f"fixed script has no decision index {k}")
        dist = np.zeros(len(self.catalog.builds))
        dist[self.sequence[k]] = 1.0
        return dist

    def game_plan(self, rng: np.random.Generator) -> GamePlan:
        return GamePlan(periods=(self.period,) * len(self.sequence))


DEFAULT_P_FIRST = 0.7  # TwoBranchScript's chance of its first building


class TwoBranchScript:
    """First decision picks one of two buildings with probability p / 1-p;
    every later decision is determined by which branch is visible in the
    state. The simplest generator with a nontrivial Bayes error."""

    def __init__(
        self,
        catalog: BuildCatalog,
        p_first: float = DEFAULT_P_FIRST,
        first: str = "gateway",
        second: str = "forge",
        n_decisions: int = 6,
    ):
        if not 0.0 < p_first < 1.0:
            raise ValueError("p_first must be in (0, 1)")
        self.catalog = catalog
        self.p_first = p_first
        self.first = catalog.build_id(first)
        self.second = catalog.build_id(second)
        self.follow_first = catalog.worker_id
        self.follow_second = catalog.build_id("pylon")
        self.n_decisions = n_decisions

    def action_distribution(self, state: MacroState) -> np.ndarray:
        dist = np.zeros(len(self.catalog.builds))
        if state.total_count(self.first) > 0:
            dist[self.follow_first] = 1.0
        elif state.total_count(self.second) > 0:
            dist[self.follow_second] = 1.0
        else:
            dist[self.first] = self.p_first
            dist[self.second] = 1.0 - self.p_first
        return dist

    def game_plan(self, rng: np.random.Generator) -> GamePlan:
        return GamePlan(periods=(150,) * self.n_decisions)


class ReactiveScript:
    """Opponent-reactive stochastic script over the default catalog.

    The rule cascade below fires on observable thresholds: supply pressure,
    own economy and tech, observed enemy composition near-exclusively bio
    (marines) or mech (vultures), and a one-base expansion trigger at 24
    workers. Each game's opponent is drawn bio or mech with equal probability
    and reveals itself in waves; some own army dies late in the game."""

    FIRST_WAVE_FRAME = 2400
    WAVE_SPACING = 1800

    # Each rule's action distribution, by build name.
    RULES = {
        "supply": {"pylon": 1.0},
        "workers": {"probe": 0.85, "pylon": 0.15},
        "gateway": {"gateway": 0.8, "probe": 0.2},
        "core": {"cybernetics_core": 0.5, "zealot": 0.3, "probe": 0.2},
        "expand": {"nexus": 0.6, "probe": 0.2, "zealot": 0.1, "dragoon": 0.1},
        "bio": {
            "zealot": 0.55, "dragoon": 0.15, "probe": 0.15,
            "gateway": 0.05, "pylon": 0.05, "photon_cannon": 0.05,
        },
        "mech": {
            "dragoon": 0.55, "zealot": 0.15, "probe": 0.15,
            "gateway": 0.05, "pylon": 0.05, "observer": 0.05,
        },
        "default": {
            "probe": 0.3, "zealot": 0.25, "dragoon": 0.25,
            "pylon": 0.1, "ground_weapons": 0.05, "observer": 0.05,
        },
        # The upgrade is one-time: once owned or started, its mass shifts to
        # workers.
        "upgraded": {
            "probe": 0.3 + 0.05, "zealot": 0.25, "dragoon": 0.25,
            "pylon": 0.1, "observer": 0.05,
        },
    }

    def __init__(self, catalog: BuildCatalog):
        self.catalog = catalog
        b = catalog.build_id
        self._probe = b("probe")
        self._pylon = b("pylon")
        self._nexus = b("nexus")
        self._gateway = b("gateway")
        self._core = b("cybernetics_core")
        self._zealot = b("zealot")
        self._dragoon = b("dragoon")
        self._weapons = b("ground_weapons")
        self._marine = catalog.enemy_id("marine")
        self._vulture = catalog.enemy_id("vulture")
        self._dists = {}
        for rule, probabilities in self.RULES.items():
            dist = np.zeros(len(catalog.builds))
            for name, p in probabilities.items():
                dist[b(name)] = p
            dist.flags.writeable = False
            self._dists[rule] = dist

    def action_distribution(self, state: MacroState) -> np.ndarray:
        own = state.own_count.item
        # Pending starts of a type, counted only when a rule reads them.
        pending = [build_id for build_id, _ in state.production].count
        if state.supply_left < 8 and pending(self._pylon) == 0:
            rule = "supply"
        elif own(self._probe) < 12:
            rule = "workers"
        elif own(self._gateway) + pending(self._gateway) == 0:
            rule = "gateway"
        elif own(self._core) + pending(self._core) == 0:
            rule = "core"
        elif own(self._probe) >= 24 and own(self._nexus) + pending(self._nexus) == 1:
            rule = "expand"
        elif state.enemy_count.item(self._marine) >= 2:
            rule = "bio"
        elif state.enemy_count.item(self._vulture) >= 2:
            rule = "mech"
        elif own(self._weapons) + pending(self._weapons) > 0:
            rule = "upgraded"
        else:
            rule = "default"
        return self._dists[rule].copy()

    def game_plan(self, rng: np.random.Generator) -> GamePlan:
        n = int(rng.integers(70, 91))
        periods = tuple(int(p) for p in rng.choice([120, 150, 180], size=n))
        horizon = sum(periods)
        enemy = self._marine if rng.random() < 0.5 else self._vulture
        observations = []
        frame = self.FIRST_WAVE_FRAME + int(rng.integers(-300, 301))
        while frame < horizon:
            for _ in range(int(rng.integers(3, 7))):
                observations.append((frame, enemy))
            frame += self.WAVE_SPACING + int(rng.integers(-300, 301))
        destructions = []
        frame = 6000 + int(rng.integers(0, 900))
        while frame < horizon:
            if rng.random() < 0.5:
                destructions.append((frame, (self._zealot, self._dragoon)))
            frame += 900
        return GamePlan(
            periods=periods,
            observations=tuple(observations),
            destructions=tuple(destructions),
        )


def _exogenous_queue(plan: GamePlan) -> list[tuple[int, int, tuple[int, ...]]]:
    """Merged exogenous timeline: (frame, kind, payload), observations before
    destruction attempts at equal frames."""
    queue = [(f, 0, (e,)) for f, e in plan.observations]
    queue += [(f, 1, cands) for f, cands in plan.destructions]
    queue.sort(key=lambda item: (item[0], item[1]))
    return queue


def generate_synthetic_corpus(
    generator: StochasticScript, n_games: int, seed: int = 0
) -> list[EventLog]:
    """Sample n_games replay logs from a stochastic script.

    Each recorded Produced action is drawn from the generator's distribution
    at exactly the state a later replay of the log reconstructs, so the
    corpus's conditional action law is the generator's by construction."""
    return list(iter_synthetic_corpus(generator, n_games, seed))


def iter_synthetic_corpus(generator: StochasticScript, n_games: int, seed: int = 0):
    """generate_synthetic_corpus's logs one at a time, each made when it is
    asked for, so a caller that writes each in turn holds one game.

    Game i draws from its own generator, spawned from ``seed``: its plan,
    then one uniform per decision in a single call. Each decision picks with
    its uniform from the cumulative sums of the script's distribution, kept
    by value for the whole call (at most SUMS_CACHE_SIZE at once). The logs
    are those of ``select_probabilistic`` at each decision."""
    if n_games < 1:
        raise ValueError("n_games must be at least 1")
    return _synthetic_games(generator, n_games, seed)


# Most distinct distributions _synthetic_games keeps the cumulative sums of.
SUMS_CACHE_SIZE = 256


def _synthetic_games(generator: StochasticScript, n_games: int, seed: int):
    catalog = generator.catalog
    # A script's distributions are pure functions of the state, and most
    # scripts have a few; their checked cumulative sums are kept by value,
    # and forgotten all at once when there are too many to keep.
    sums_by_value: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_games)):
        rng = np.random.default_rng(child)
        plan = generator.game_plan(rng)
        # One uniform per decision, drawn at once: the same doubles in the
        # same order as one rng.random() at each decision.
        uniforms = rng.random(len(plan.periods)).tolist()
        exo = _exogenous_queue(plan)
        next_exo = 0
        state = initial_state(catalog)
        events = []
        frame = 0
        for period, u in zip(plan.periods, uniforms):
            frame += period
            while next_exo < len(exo) and exo[next_exo][0] <= frame:
                exo_frame, kind, payload = exo[next_exo]
                next_exo += 1
                state = advance(state, exo_frame, catalog)
                if kind == 0:
                    event = GameEvent(exo_frame, EventKind.ENEMY_OBSERVED, payload[0])
                else:
                    target = next(
                        (c for c in payload if state.own_count[c] > 0), None
                    )
                    if target is None:
                        continue
                    event = GameEvent(exo_frame, EventKind.DESTROYED, target)
                state = apply_event(state, event, catalog)
                events.append(event)
            state = advance(state, frame, catalog)
            key = np.asarray(generator.action_distribution(state), dtype=np.float64).tobytes()
            sums = sums_by_value.get(key)
            if sums is None:
                if len(sums_by_value) >= SUMS_CACHE_SIZE:
                    sums_by_value.clear()
                # Read back from the key, so that a script reusing its array
                # cannot change what is kept.
                sums = sums_by_value[key] = cumulative(np.frombuffer(key))
            action = pick(sums, u)
            event = GameEvent(frame, EventKind.PRODUCED, action)
            state = apply_event(state, event, catalog)
            events.append(event)
        yield EventLog(game_id=f"synth-{seed}-{i:05d}", events=tuple(events))


def bayes_top1_error(logs, generator: StochasticScript) -> float:
    """Exact Bayes-optimal top-1 error on a corpus the generator produced:
    the mean, over decision states, of 1 - max of the conditional action
    distribution. No model can do better in expectation."""
    total = 0.0
    n = 0
    for log in logs:
        for state, event in replay(log, generator.catalog):
            if event.kind is EventKind.PRODUCED:
                total += 1.0 - float(generator.action_distribution(state).max())
                n += 1
    if n == 0:
        raise ValueError("corpus has no decision states")
    return total / n


# ---------------------------------------------------------------------------
# Abstract matches
# ---------------------------------------------------------------------------


FRAME_CAP = 28800
DECISION_FRAMES = 150
COMBAT_FRAMES = 600
STARTING_MINERALS = 50.0
STARTING_GAS = 0.0
MINERAL_RATE = 0.05  # per worker per frame
GAS_RATE = 0.04  # per gas worker per frame
GAS_WORKERS_PER_SOURCE = 3
GAS_SOURCE = "assimilator"
DECISIVE_RATIO = 1.5
MIN_ARMY_VALUE = 400


class Winner(enum.Enum):
    A = "A"
    B = "B"
    DRAW = "draw"


@dataclass(frozen=True)
class MatchResult:
    winner: Winner
    end_frame: int
    army_curve_a: tuple[tuple[int, int], ...]
    army_curve_b: tuple[tuple[int, int], ...]
    skipped_a: int = 0
    skipped_b: int = 0


class MatchPlayer(Protocol):
    name: str

    def choose(self, state: MacroState, rng: np.random.Generator) -> int: ...


@dataclass
class ScriptedPlayer:
    name: str
    catalog: BuildCatalog
    rule: Callable[[MacroState, BuildCatalog, np.random.Generator], int]

    def choose(self, state: MacroState, rng: np.random.Generator) -> int:
        return self.rule(state, self.catalog, rng)


@dataclass
class NetworkPlayer:
    """Drives one side of a match with a trained model and decision policy."""

    name: str
    net: Network
    policy: DecisionPolicy
    catalog: BuildCatalog
    norms: NormalizationTable

    def choose(self, state: MacroState, rng: np.random.Generator) -> int:
        build_id, _ = decide(
            self.net, state, self.catalog, self.norms, self.policy, rng
        )
        return build_id


def _provider_in_production(state: MacroState, catalog: BuildCatalog) -> bool:
    return any(catalog.build(b).supply_provided > 0 for b, _ in state.production)


def worker_only_player(catalog: BuildCatalog) -> ScriptedPlayer:
    worker = catalog.build(catalog.worker_id)
    pylon = catalog.build_id("pylon")

    def rule(state, cat, rng):
        if state.supply_left < worker.supply_cost and not _provider_in_production(
            state, cat
        ):
            return pylon
        return worker.id

    return ScriptedPlayer(name="worker-only", catalog=catalog, rule=rule)


def worker_then_army_player(
    catalog: BuildCatalog, target_workers: int = 16
) -> ScriptedPlayer:
    """Saturates the economy, then streams army units. The reference opponent
    for sanity checks: any policy that never fields an army loses to it."""
    worker = catalog.worker_id
    pylon = catalog.build_id("pylon")
    gateway = catalog.build_id("gateway")
    zealot = catalog.build_id("zealot")

    def rule(state, cat, rng):
        if state.supply_left < 6 and not _provider_in_production(state, cat):
            return pylon
        if state.own_count[worker] < target_workers:
            return worker
        if state.total_count(gateway) == 0:
            return gateway
        return zealot

    return ScriptedPlayer(name="worker-then-army", catalog=catalog, rule=rule)


def random_player(catalog: BuildCatalog) -> ScriptedPlayer:
    n = len(catalog.builds)

    def rule(state, cat, rng):
        return int(rng.integers(0, n))

    return ScriptedPlayer(name="random", catalog=catalog, rule=rule)


class _Side:
    """Mutable per-player match bookkeeping around the functional state."""

    def __init__(self, player: MatchPlayer, catalog: BuildCatalog, rng):
        self.player = player
        self.catalog = catalog
        self.rng = rng
        self.state = initial_state(catalog)
        self.minerals = STARTING_MINERALS
        self.gas = STARTING_GAS
        self.skipped = 0
        self.curve: list[tuple[int, int]] = []
        self.gas_source = (
            catalog.build_id(GAS_SOURCE) if catalog.has_build(GAS_SOURCE) else None
        )

    def tick(self, frame: int) -> None:
        elapsed = frame - self.state.frame
        self.state = advance(self.state, frame, self.catalog)
        workers = int(self.state.own_count[self.catalog.worker_id])
        self.minerals += workers * MINERAL_RATE * elapsed
        if self.gas_source is not None:
            sources = int(self.state.own_count[self.gas_source])
            gas_workers = min(workers, sources * GAS_WORKERS_PER_SOURCE)
            self.gas += gas_workers * GAS_RATE * elapsed

    def army_value(self) -> int:
        total = 0
        worker = self.catalog.worker_id
        for spec in self.catalog.units_buildings:
            if spec.id == worker or spec.supply_cost == 0:
                continue
            total += int(self.state.own_count[spec.id]) * (
                spec.mineral_cost + spec.gas_cost
            )
        return total

    def attempt(self, build_id: int) -> None:
        """Apply the player's decision under the match's legality rules.
        Illegal requests are skipped and counted; merely unaffordable ones
        wait for the next decision."""
        cat, state = self.catalog, self.state
        if not 0 <= build_id < len(cat.builds):
            self.skipped += 1
            return
        spec = cat.build(build_id)
        if cat.is_one_time(build_id) and state.total_count(build_id) > 0:
            self.skipped += 1
            return
        if any(state.own_count[p] == 0 for p in spec.prerequisites):
            self.skipped += 1
            return
        if spec.supply_provided > 0 and state.supply_max >= SUPPLY_CAP:
            self.skipped += 1
            return
        if (
            spec.supply_cost > 0
            and state.supply_used + spec.supply_cost > state.supply_max
        ):
            if not _provider_in_production(state, cat):
                self.skipped += 1
            return
        if spec.gas_cost > 0 and self.gas < spec.gas_cost:
            has_source = self.gas_source is not None and (
                self.state.total_count(self.gas_source) > 0
            )
            if not has_source:
                self.skipped += 1
            return
        if self.minerals < spec.mineral_cost:
            return
        self.minerals -= spec.mineral_cost
        self.gas -= spec.gas_cost
        event = GameEvent(state.frame, EventKind.PRODUCED, build_id)
        self.state = apply_event(state, event, cat)


def simulate_match(
    player_a: MatchPlayer,
    player_b: MatchPlayer,
    catalog: BuildCatalog,
    seed: int = 0,
    frame_cap: int = FRAME_CAP,
) -> MatchResult:
    """Run one abstract match to a decisive army advantage or the frame cap.

    A side wins when its army value reaches MIN_ARMY_VALUE and exceeds the
    opponent's by DECISIVE_RATIO at a combat check. Identical deterministic
    players never diverge, so self-play ends in a draw at the cap."""
    side_a = _Side(player_a, catalog, np.random.default_rng([seed, 0]))
    side_b = _Side(player_b, catalog, np.random.default_rng([seed, 1]))
    frame = 0
    last_combat = 0
    while frame < frame_cap:
        frame = min(frame + DECISION_FRAMES, frame_cap)
        for side in (side_a, side_b):
            side.tick(frame)
            side.attempt(side.player.choose(side.state, side.rng))
        if frame - last_combat >= COMBAT_FRAMES or frame >= frame_cap:
            last_combat = frame
            va, vb = side_a.army_value(), side_b.army_value()
            side_a.curve.append((frame, va))
            side_b.curve.append((frame, vb))
            decisive_a = va >= MIN_ARMY_VALUE and va >= DECISIVE_RATIO * vb
            decisive_b = vb >= MIN_ARMY_VALUE and vb >= DECISIVE_RATIO * va
            if decisive_a and not decisive_b:
                return _result(Winner.A, frame, side_a, side_b)
            if decisive_b and not decisive_a:
                return _result(Winner.B, frame, side_a, side_b)
    return _result(Winner.DRAW, frame_cap, side_a, side_b)


def _result(winner: Winner, frame: int, side_a: _Side, side_b: _Side) -> MatchResult:
    return MatchResult(
        winner=winner,
        end_frame=frame,
        army_curve_a=tuple(side_a.curve),
        army_curve_b=tuple(side_b.curve),
        skipped_a=side_a.skipped,
        skipped_b=side_b.skipped,
    )


@dataclass(frozen=True)
class MatchSeries:
    wins_a: int
    wins_b: int
    draws: int

    @property
    def n(self) -> int:
        return self.wins_a + self.wins_b + self.draws


def run_matches(
    player_a: MatchPlayer,
    player_b: MatchPlayer,
    catalog: BuildCatalog,
    n_matches: int,
    seed: int = 0,
    frame_cap: int = FRAME_CAP,
) -> MatchSeries:
    """Play n seeded matches (seeds seed..seed+n-1) and tally outcomes."""
    if n_matches < 1:
        raise ValueError("n_matches must be at least 1")
    wins_a = wins_b = draws = 0
    for i in range(n_matches):
        result = simulate_match(player_a, player_b, catalog, seed + i, frame_cap)
        if result.winner is Winner.A:
            wins_a += 1
        elif result.winner is Winner.B:
            wins_b += 1
        else:
            draws += 1
    return MatchSeries(wins_a=wins_a, wins_b=wins_b, draws=draws)
