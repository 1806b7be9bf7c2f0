"""Turning a class distribution into a build decision.

A trained network outputs a probability for every build. A decision policy
chooses one: greedily, by sampling, or uniformly at random, optionally after
excluding builds the caller never wants and optionally while blind to the
opponent features.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .catalog import BuildCatalog
from .encoding import (
    N_CLASSES,
    FeatureGroupMask,
    NormalizationTable,
    apply_mask,
    encode,
)
from .errors import DegenerateDistributionError
from .forward import MacroState
from .net import Network, check_compatibility, forward

DEGENERATE_MASS = 1.0 - 1e-12

# What a blind policy feeds the network: every group but the opponent's (d).
BLIND_MASK = FeatureGroupMask("abce")

# Excluded from selection by default: builds whose value depends on control
# decisions outside this model's scope (merges, transports, micro-heavy or
# very late-game units).
DEFAULT_EXCLUSION_NAMES = (
    "archon",
    "carrier",
    "dark_archon",
    "high_templar",
    "reaver",
    "shuttle",
)


class Mode(enum.Enum):
    GREEDY = "greedy"
    PROBABILISTIC = "probabilistic"
    RANDOM = "random"


@dataclass(frozen=True)
class DecisionPolicy:
    mode: Mode = Mode.GREEDY
    blind: bool = False
    exclusions: frozenset[int] = frozenset()
    seed: int = 0


def default_exclusions(catalog: BuildCatalog) -> frozenset[int]:
    return frozenset(
        catalog.build_id(name)
        for name in DEFAULT_EXCLUSION_NAMES
        if catalog.has_build(name)
    )


def apply_exclusions(dist: np.ndarray, excluded) -> np.ndarray:
    """Zero the excluded classes and rescale the rest by 1/(1 - excluded
    mass), which preserves their relative proportions exactly."""
    excluded = sorted(set(excluded))
    if not excluded:
        return np.array(dist, dtype=np.float64, copy=True)
    if any(not 0 <= i < len(dist) for i in excluded):
        raise ValueError("excluded class index out of range")
    out = np.array(dist, dtype=np.float64, copy=True)
    mass = float(out[excluded].sum())
    if mass >= DEGENERATE_MASS:
        raise DegenerateDistributionError(
            f"excluded classes hold {mass:.17g} of the probability mass"
        )
    out[excluded] = 0.0
    out /= 1.0 - mass
    return out


def select_greedy(dist: np.ndarray) -> int:
    """Highest-probability class; ties resolve to the lowest index."""
    return int(np.argmax(dist))


def select_probabilistic(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample: ``pick(cumulative(dist), rng.random())``, so one
    uniform is drawn, and none when the distribution is refused. Classes
    with zero mass are never selected; the float rounding remainder above
    the last cumulative value goes to the highest-index class with positive
    mass."""
    return pick(cumulative(dist), rng.random())


def cumulative(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First half of ``select_probabilistic``: the distribution as float64
    and its cumulative sums, for ``pick``. Raises ValueError for a negative
    entry and DegenerateDistributionError for no mass (empty or all zero).
    Depends on the entries' values alone, so a caller drawing often from a
    few fixed distributions may keep the result for each."""
    dist = np.asarray(dist, dtype=np.float64)
    if (dist < 0.0).any():
        raise ValueError("distribution has negative entries")
    cdf = dist.cumsum()
    # With no negative entry, the last cumulative value is zero only when
    # every entry is, and NaN exactly when the sum is.
    if not cdf.size or cdf[-1] <= 0.0:
        raise DegenerateDistributionError("distribution has no mass")
    return dist, cdf


def pick(sums: tuple[np.ndarray, np.ndarray], u: float) -> int:
    """Second half of ``select_probabilistic``: the class whose cumulative
    interval holds the uniform ``u`` in [0, 1). A ``u`` at or above the last
    cumulative value, the rounding remainder, goes to the highest-index
    class with positive mass."""
    dist, cdf = sums
    idx = int(cdf.searchsorted(u, side="right"))
    if idx >= len(dist):
        idx = int(np.flatnonzero(dist > 0.0)[-1])
    return idx


def uniform_distribution(n: int = N_CLASSES, excluded=()) -> np.ndarray:
    excluded = sorted(set(excluded))
    keep = n - len(excluded)
    if keep <= 0:
        raise DegenerateDistributionError("every class is excluded")
    dist = np.full(n, 1.0 / keep)
    dist[excluded] = 0.0
    return dist


def _select(dist: np.ndarray, policy: DecisionPolicy, rng: np.random.Generator) -> int:
    if policy.mode is Mode.GREEDY:
        return select_greedy(dist)
    return select_probabilistic(dist, rng)


def decide_from_vector(
    net: Network,
    vector: np.ndarray,
    policy: DecisionPolicy,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Chosen class and the post-exclusion distribution for one encoded
    state. Blind policies zero the opponent features before the forward
    pass; Mode.RANDOM ignores the network's output and draws uniformly over
    the non-excluded classes."""
    if rng is None:
        rng = np.random.default_rng(policy.seed)
    if policy.blind:
        vector = apply_mask(vector, BLIND_MASK)
    if policy.mode is Mode.RANDOM:
        dist = uniform_distribution(net.topology.output_size, policy.exclusions)
        return select_probabilistic(dist, rng), dist
    dist = forward(net, vector)
    if policy.exclusions:
        dist = apply_exclusions(dist, policy.exclusions)
    return _select(dist, policy, rng), dist


def decide(
    net: Network,
    state: MacroState,
    catalog: BuildCatalog,
    norms: NormalizationTable,
    policy: DecisionPolicy,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Encode a macro state and decide what to produce next.

    Refuses to run a model against a catalog or normalization table other
    than the ones it was trained with."""
    check_compatibility(net, catalog.content_hash(), norms.content_hash())
    return decide_from_vector(net, encode(state, catalog, norms), policy, rng)
