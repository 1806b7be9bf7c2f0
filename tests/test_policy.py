import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macronet import catalog as catalog_module
from macronet.catalog import load_default_catalog
from macronet.encoding import ENEMY_SLICE, N_CLASSES, N_FEATURES
from macronet.errors import CompatibilityError, DegenerateDistributionError
from macronet.forward import initial_state
from macronet.net import ModelMeta, NetworkTopology, init_network
from macronet.policy import (
    DEFAULT_EXCLUSION_NAMES,
    DecisionPolicy,
    Mode,
    apply_exclusions,
    cumulative,
    decide,
    decide_from_vector,
    default_exclusions,
    pick,
    select_greedy,
    select_probabilistic,
    uniform_distribution,
)


def test_apply_exclusions_hand_case():
    dist = np.array([0.5, 0.25, 0.25])
    out = apply_exclusions(dist, {2})
    np.testing.assert_allclose(out, [2 / 3, 1 / 3, 0.0], atol=1e-15)


def test_apply_exclusions_empty_is_identity():
    dist = np.array([0.5, 0.25, 0.25])
    out = apply_exclusions(dist, set())
    np.testing.assert_array_equal(out, dist)
    assert out is not dist  # caller gets a private copy


def test_apply_exclusions_leaves_input_untouched():
    dist = np.array([0.5, 0.25, 0.25])
    apply_exclusions(dist, {0})
    np.testing.assert_array_equal(dist, [0.5, 0.25, 0.25])


def test_apply_exclusions_all_but_one():
    dist = np.array([0.4, 0.3, 0.3])
    out = apply_exclusions(dist, {1, 2})
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_apply_exclusions_degenerate():
    dist = np.zeros(4)
    dist[2] = 1.0
    with pytest.raises(DegenerateDistributionError):
        apply_exclusions(dist, {2})
    # removing everything but a zero-mass class is just as degenerate
    with pytest.raises(DegenerateDistributionError):
        apply_exclusions(np.array([1.0, 0.0]), {0})


def test_apply_exclusions_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_exclusions(np.array([0.5, 0.5]), {5})
    with pytest.raises(ValueError):
        apply_exclusions(np.array([0.5, 0.5]), {-1})


def test_apply_exclusions_preserves_ratios(rng):
    """Survivor proportions must match to 1e-12 relative error."""
    for _ in range(200):
        dist = rng.dirichlet(np.ones(N_CLASSES))
        k = int(rng.integers(1, 20))
        excluded = set(int(i) for i in rng.choice(N_CLASSES, size=k, replace=False))
        try:
            out = apply_exclusions(dist, excluded)
        except DegenerateDistributionError:
            continue
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        survivors = [i for i in range(N_CLASSES) if i not in excluded]
        for a in survivors:
            for b in survivors[:3]:
                if dist[b] > 1e-9:
                    assert out[a] / out[b] == pytest.approx(
                        dist[a] / dist[b], rel=1e-12
                    )


def test_select_greedy_tie_breaks_low():
    dist = np.zeros(N_CLASSES)
    dist[4] = 0.5
    dist[9] = 0.5
    assert select_greedy(dist) == 4


def test_select_greedy_scale_invariant(rng):
    scores = rng.random(N_CLASSES)
    assert select_greedy(scores) == select_greedy(scores * 7.3)


def test_select_probabilistic_one_hot(rng):
    dist = np.zeros(N_CLASSES)
    dist[17] = 1.0
    assert all(select_probabilistic(dist, rng) == 17 for _ in range(50))


def test_select_probabilistic_frequencies():
    dist = np.zeros(4)
    dist[1] = 0.5
    dist[3] = 0.5
    rng = np.random.default_rng(123)
    draws = np.array([select_probabilistic(dist, rng) for _ in range(10_000)])
    assert set(np.unique(draws)) == {1, 3}
    p = float((draws == 1).mean())
    assert abs(p - 0.5) < 3 * (0.25 / 10_000) ** 0.5


def test_select_probabilistic_never_picks_zero_mass(rng):
    dist = np.array([0.3, 0.0, 0.7, 0.0])
    for _ in range(10_000):
        assert select_probabilistic(dist, rng) in (0, 2)


def test_select_probabilistic_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_probabilistic(np.array([0.5, -0.1, 0.6]), rng)
    with pytest.raises(DegenerateDistributionError):
        select_probabilistic(np.zeros(3), rng)


def _select_probabilistic_reference(dist, rng):
    """select_probabilistic written with numpy's function wrappers and a
    separate left-to-right sum for the total's tests: for the same draws it
    must give the same class, and for the same inputs the same error."""
    dist = np.asarray(dist, dtype=np.float64)
    if (dist < 0.0).any():
        raise ValueError("distribution has negative entries")
    total = 0.0
    for entry in dist.tolist():
        total += entry
    if not math.isfinite(total):
        raise DegenerateDistributionError(f"distribution total is not finite: {total}")
    if total <= 0.0:
        raise DegenerateDistributionError("distribution has no mass")
    cdf = np.cumsum(dist)
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= len(dist):
        idx = int(np.flatnonzero(dist > 0.0)[-1])
    return idx


_ENTRIES = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1.0, np.inf, np.nan])


@settings(max_examples=500, deadline=None)
@given(entries=st.lists(_ENTRIES, max_size=8), seed=st.integers(0, 2**32 - 1))
@example(entries=[], seed=0)
@example(entries=[0.0, -0.0, 0.0], seed=0)
@example(entries=[np.nan, -1.0], seed=0)  # dist.min() would read NaN here
@example(entries=[0.2, np.nan, 0.3], seed=0)
@example(entries=[np.inf, 1.0], seed=0)
@example(entries=[1e308, 1e308, 0.0], seed=0)
@example(entries=[0.5, 0.5 - 2**-53, 0.0], seed=3)  # rounding remainder
def test_select_probabilistic_matches_the_reference(entries, seed):
    def outcome(select):
        rng = np.random.default_rng(seed)
        try:
            chosen = select(np.array(entries, dtype=np.float64), rng)
        except Exception as e:
            chosen = (type(e), str(e))
        return chosen, rng.random()  # and the generator left in the same state

    with np.errstate(all="ignore"):
        assert outcome(select_probabilistic) == outcome(_select_probabilistic_reference)


@settings(max_examples=500, deadline=None)
@given(entries=st.lists(_ENTRIES, max_size=8), seed=st.integers(0, 2**32 - 1))
@example(entries=[np.nan], seed=0)  # no class holds positive mass
@example(entries=[0.0, np.nan], seed=0)
@example(entries=[np.inf, 1.0], seed=0)
@example(entries=[0.5, 0.5 - 2**-53, 0.0], seed=3)  # rounding remainder
def test_sampler_halves_match_select_probabilistic(entries, seed):
    """pick(cumulative(d), u) with u the generator's next double is
    select_probabilistic(d, rng): the same class or the same error."""
    dist = np.array(entries, dtype=np.float64)

    def outcome(select):
        try:
            return select()
        except Exception as e:
            return type(e), str(e)

    with np.errstate(all="ignore"):
        halves = outcome(lambda: pick(cumulative(dist), np.random.default_rng(seed).random()))
        whole = outcome(lambda: select_probabilistic(dist, np.random.default_rng(seed)))
    assert halves == whole


@pytest.mark.parametrize(
    "entries, total",
    [
        ([np.nan], "nan"),
        ([0.2, np.nan, 0.3], "nan"),
        ([np.inf, 1.0], "inf"),
        ([1e308, 1e308, 0.0], "inf"),  # finite entries whose sum overflows
    ],
)
def test_a_total_that_is_not_finite_is_refused(entries, total):
    message = f"distribution total is not finite: {total}"
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateDistributionError, match=message):
            cumulative(np.array(entries))
        with pytest.raises(DegenerateDistributionError, match=message):
            select_probabilistic(np.array(entries), rng)


@pytest.mark.parametrize("entries", [[], [0.0], [0.0, -0.0, 0.0]])
def test_no_mass_is_refused_as_before(entries):
    with pytest.raises(DegenerateDistributionError, match="^distribution has no mass$"):
        cumulative(np.array(entries))


def test_pick_gives_the_remainder_to_the_last_class_with_mass():
    sums = cumulative(np.array([0.5, 0.25, 0.0]))
    assert pick(sums, 0.75) == 1
    assert pick(sums, np.nextafter(1.0, 0.0)) == 1
    assert pick(sums, 0.0) == 0


def test_select_probabilistic_is_reproducible():
    dist = np.full(N_CLASSES, 1.0 / N_CLASSES)
    a = [select_probabilistic(dist, np.random.default_rng(5)) for _ in range(5)]
    b = [select_probabilistic(dist, np.random.default_rng(5)) for _ in range(5)]
    assert a == b


def test_sampling_example_about_a_quarter():
    """A class holding 26% of the mass is drawn about 26% of the time."""
    dist = np.full(N_CLASSES, 0.74 / (N_CLASSES - 1))
    zealot = 6
    dist[zealot] = 0.26
    rng = np.random.default_rng(9)
    hits = sum(select_probabilistic(dist, rng) == zealot for _ in range(10_000))
    assert abs(hits / 10_000 - 0.26) < 3 * (0.26 * 0.74 / 10_000) ** 0.5


def test_uniform_distribution_excludes():
    dist = uniform_distribution(5, {0, 3})
    np.testing.assert_allclose(dist, [0.0, 1 / 3, 1 / 3, 0.0, 1 / 3])
    with pytest.raises(DegenerateDistributionError):
        uniform_distribution(3, {0, 1, 2})


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.001, max_value=10.0), min_size=6, max_size=6
    ),
    exclude=st.sets(st.integers(min_value=0, max_value=5), max_size=4),
)
def test_exclusion_output_is_distribution(weights, exclude):
    dist = np.array(weights) / sum(weights)
    try:
        out = apply_exclusions(dist, exclude)
    except DegenerateDistributionError:
        return
    assert float(out.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(out.min()) >= 0.0
    assert all(out[i] == 0.0 for i in exclude)


# -- decision wrappers ----------------------------------------------------------


def test_default_exclusions_resolve(catalog):
    ids = default_exclusions(catalog)
    assert len(ids) == len(DEFAULT_EXCLUSION_NAMES)
    names = {catalog.build(i).name for i in ids}
    assert names == set(DEFAULT_EXCLUSION_NAMES)


def test_decide_from_vector_greedy_deterministic(rng):
    net = init_network(seed=2)
    v = rng.random(N_FEATURES)
    policy = DecisionPolicy(mode=Mode.GREEDY)
    idx_a, dist_a = decide_from_vector(net, v, policy)
    idx_b, dist_b = decide_from_vector(net, v, policy)
    assert idx_a == idx_b
    np.testing.assert_array_equal(dist_a, dist_b)
    assert dist_a.sum() == pytest.approx(1.0, abs=1e-9)
    assert idx_a == int(np.argmax(dist_a))


def test_decide_from_vector_applies_exclusions(rng):
    net = init_network(seed=2)
    v = rng.random(N_FEATURES)
    free_idx, _ = decide_from_vector(net, v, DecisionPolicy(mode=Mode.GREEDY))
    policy = DecisionPolicy(mode=Mode.GREEDY, exclusions=frozenset({free_idx}))
    idx, dist = decide_from_vector(net, v, policy)
    assert idx != free_idx
    assert dist[free_idx] == 0.0


def test_excluded_build_never_selected(rng):
    net = init_network(seed=3)
    excluded = frozenset({0, 5, 10, 40})
    policy = DecisionPolicy(mode=Mode.PROBABILISTIC, exclusions=excluded)
    v = rng.random(N_FEATURES)
    for _ in range(300):
        idx, _ = decide_from_vector(net, v, policy, rng)
        assert idx not in excluded


def test_blind_ignores_enemy_features(rng):
    """Two states that differ only in opponent counts decide identically
    when blind, and (for a generic random net) differ when sighted."""
    net = init_network(seed=4)
    v1 = rng.random(N_FEATURES)
    v2 = v1.copy()
    v2[ENEMY_SLICE] = rng.random(33)
    blind = DecisionPolicy(mode=Mode.GREEDY, blind=True)
    idx1, dist1 = decide_from_vector(net, v1, blind)
    idx2, dist2 = decide_from_vector(net, v2, blind)
    assert idx1 == idx2
    np.testing.assert_array_equal(dist1, dist2)
    sighted = DecisionPolicy(mode=Mode.GREEDY)
    _, sdist1 = decide_from_vector(net, v1, sighted)
    _, sdist2 = decide_from_vector(net, v2, sighted)
    assert not np.array_equal(sdist1, sdist2)


def test_random_mode_uniform_over_non_excluded(rng):
    net = init_network(seed=5)
    policy = DecisionPolicy(mode=Mode.RANDOM, exclusions=frozenset({7}))
    v = rng.random(N_FEATURES)
    draws = []
    for _ in range(2000):
        idx, dist = decide_from_vector(net, v, policy, rng)
        draws.append(idx)
    assert 7 not in draws
    np.testing.assert_allclose(dist, uniform_distribution(N_CLASSES, {7}))
    # coarse uniformity: every class well inside 3 sigma of 2000/57
    counts = np.bincount(draws, minlength=N_CLASSES)
    expected = 2000 / 57
    sigma = (2000 * (1 / 57) * (56 / 57)) ** 0.5
    assert counts[counts > 0].min() > expected - 4 * sigma
    assert counts.max() < expected + 4 * sigma


def test_random_mode_reproducible_from_policy_seed(rng):
    net = init_network(seed=5)
    policy = DecisionPolicy(mode=Mode.RANDOM, seed=77)
    v = rng.random(N_FEATURES)
    # no rng argument: the policy seed fixes the draw
    a = decide_from_vector(net, v, policy)[0]
    b = decide_from_vector(net, v, policy)[0]
    assert a == b


def test_decide_checks_catalog_hash(catalog, norms):
    bad_meta = ModelMeta(catalog_hash="0" * 16, norms_hash=norms.content_hash())
    net = init_network(meta=bad_meta)
    with pytest.raises(CompatibilityError) as err:
        decide(net, initial_state(catalog), catalog, norms, DecisionPolicy())
    assert f"{'0' * 16} != {catalog.content_hash()}" in str(err.value)


def test_decide_checks_norms_hash(catalog, norms):
    bad_meta = ModelMeta(catalog_hash=catalog.content_hash(), norms_hash="f" * 16)
    net = init_network(meta=bad_meta)
    with pytest.raises(CompatibilityError):
        decide(net, initial_state(catalog), catalog, norms, DecisionPolicy())


def test_decide_accepts_matching_hashes(catalog, norms):
    meta = ModelMeta(
        catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash()
    )
    net = init_network(meta=meta)
    idx, dist = decide(net, initial_state(catalog), catalog, norms, DecisionPolicy())
    assert 0 <= idx < N_CLASSES
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_decide_accepts_untagged_model(catalog, norms):
    # models without recorded hashes skip the compatibility check
    net = init_network()
    idx, _ = decide(net, initial_state(catalog), catalog, norms, DecisionPolicy())
    assert 0 <= idx < N_CLASSES


def test_decide_refuses_a_model_of_the_wrong_shape(catalog, norms):
    """A model carrying the pipeline's hashes but only ten outputs would
    otherwise choose among the first ten builds."""
    meta = ModelMeta(catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash())
    net = init_network(NetworkTopology(layer_sizes=(210, 8, 10)), meta=meta)
    with pytest.raises(CompatibilityError, match="210 inputs to 10 outputs"):
        decide(net, initial_state(catalog), catalog, norms, DecisionPolicy())


def test_decide_serializes_the_catalog_once(norms, monkeypatch):
    catalog = load_default_catalog()
    writes = []
    original = catalog_module.write_catalog
    monkeypatch.setattr(
        catalog_module, "write_catalog", lambda c, sink: writes.append(1) or original(c, sink)
    )
    meta = ModelMeta(catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash())
    net = init_network(meta=meta)
    state = initial_state(catalog)
    for _ in range(100):
        decide(net, state, catalog, norms, DecisionPolicy())
    assert len(writes) <= 1
