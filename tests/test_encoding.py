import contextlib
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macronet import encoding
from macronet.encoding import (
    ENEMY_SLICE,
    FULL_MASK,
    IN_PRODUCTION_SLICE,
    N_CLASSES,
    N_FEATURES,
    OWN_SLICE,
    PROGRESS_SLICE,
    SUPPLY_SLICE,
    Dataset,
    FeatureGroupMask,
    GameRecord,
    apply_mask,
    build_dataset,
    encode,
    load_norms,
    parse_mask,
    read_dataset,
    write_dataset,
    write_norms,
)
from macronet.errors import FormatError, ParseError, SchemaError
from macronet.events import EventKind, GameEvent
from macronet.forward import MacroState, apply_event, initial_state


def test_feature_layout():
    assert N_FEATURES == 210
    assert N_CLASSES == 58
    assert (OWN_SLICE.start, OWN_SLICE.stop) == (0, 58)
    assert (IN_PRODUCTION_SLICE.start, IN_PRODUCTION_SLICE.stop) == (58, 116)
    assert (PROGRESS_SLICE.start, PROGRESS_SLICE.stop) == (116, 174)
    assert (ENEMY_SLICE.start, ENEMY_SLICE.stop) == (174, 207)
    assert (SUPPLY_SLICE.start, SUPPLY_SLICE.stop) == (207, 210)


def test_encode_initial_state(catalog, norms):
    """The opening position: 4 workers and the main building, supply 8/18,
    with caps 100 for units, 30 for buildings, and the game's supply limit
    of 400 half-units for supply."""
    v = encode(initial_state(catalog), catalog, norms)
    assert v.shape == (210,)
    assert v[catalog.worker_id] == pytest.approx(4 / 100)
    assert v[catalog.main_building_id] == pytest.approx(1 / 30)
    assert v[207] == pytest.approx(8 / 400)
    assert v[208] == pytest.approx(18 / 400)
    assert v[209] == pytest.approx(10 / 400)
    # everything else is zero at frame 0
    nonzero = np.flatnonzero(v)
    assert set(nonzero.tolist()) == {
        catalog.worker_id,
        catalog.main_building_id,
        207,
        208,
        209,
    }


def test_encode_production_features(catalog, norms):
    pylon = catalog.build_id("pylon")
    frames = catalog.build(pylon).build_frames
    s = apply_event(
        initial_state(catalog), GameEvent(0, EventKind.PRODUCED, pylon), catalog
    )
    from macronet.forward import advance

    s = advance(s, frames // 3, catalog)
    v = encode(s, catalog, norms)
    assert v[IN_PRODUCTION_SLICE.start + pylon] == pytest.approx(1 / 30)
    assert v[PROGRESS_SLICE.start + pylon] == pytest.approx((frames // 3) / frames)


def test_encode_enemy_features(catalog, norms):
    marine = catalog.enemy_id("marine")
    s = initial_state(catalog)
    for f in range(3):
        s = apply_event(s, GameEvent(f, EventKind.ENEMY_OBSERVED, marine), catalog)
    v = encode(s, catalog, norms)
    assert v[ENEMY_SLICE.start + marine] == pytest.approx(3 / 100)


def test_clamp_clips_and_counts(catalog, norms, caplog):
    probe = catalog.worker_id
    s = initial_state(catalog)
    own = s.own_count.copy()
    own[probe] = 500  # above the cap of 100
    state = MacroState(
        frame=0,
        own_count=own,
        enemy_count=s.enemy_count,
        production=s.production,
        supply_used=s.supply_used,
        supply_max=s.supply_max,
    )
    hash_before = norms.content_hash()
    clamped = np.zeros(N_FEATURES, dtype=np.int64)
    with caplog.at_level("DEBUG"):
        v1 = encode(state, catalog, norms, clamped)
        v2 = encode(state, catalog, norms, clamped)
    assert v1[probe] == 1.0 and v2[probe] == 1.0
    assert np.flatnonzero(clamped).tolist() == [probe]
    assert clamped[probe] == 2  # once per call: the encoder keeps no state
    assert caplog.records == []
    assert norms.content_hash() == hash_before
    np.testing.assert_array_equal(encode(state, catalog, norms), v1)


counts_strategy = st.lists(
    st.integers(min_value=0, max_value=500), min_size=58, max_size=58
)


@settings(max_examples=50, deadline=None)
@given(
    own=counts_strategy,
    enemy=st.lists(st.integers(min_value=0, max_value=500), min_size=33, max_size=33),
    used=st.integers(min_value=0, max_value=1000),
    mx=st.integers(min_value=0, max_value=1000),
)
def test_encode_always_in_unit_interval(catalog, norms, own, enemy, used, mx):
    state = MacroState(
        frame=50,
        own_count=np.array(own, dtype=np.int64),
        enemy_count=np.array(enemy, dtype=np.int64),
        production=((catalog.worker_id, 300), (catalog.build_id("pylon"), 90)),
        supply_used=used,
        supply_max=mx,
    )
    v = encode(state, catalog, norms)
    assert v.shape == (210,)
    assert float(v.min()) >= 0.0
    assert float(v.max()) <= 1.0


# -- masks -------------------------------------------------------------------


def test_mask_labels_and_parse_round_trip():
    for label in ("a", "a+d", "a+b+c+e", "a+b+c+d+e"):
        assert parse_mask(label).label() == label


def test_mask_a_cannot_be_removed():
    """FeatureGroupMask alone states the rule, so a parsed label and a
    constructed mask are refused with the same message."""
    with pytest.raises(ValueError):
        FeatureGroupMask("bcde")
    with pytest.raises(ValueError) as parsed:
        parse_mask("b+c")
    with pytest.raises(ValueError) as built:
        FeatureGroupMask("bc")
    assert str(parsed.value) == str(built.value)


def test_parse_mask_rejects_junk():
    with pytest.raises(ValueError):
        parse_mask("a+f")
    with pytest.raises(ValueError):
        parse_mask("")


def test_mask_bits_round_trip():
    for label in ("a", "a+b", "a+c+e", "a+b+c+d+e"):
        mask = parse_mask(label)
        assert FeatureGroupMask.from_bits(mask.to_bits()) == mask


@pytest.mark.parametrize("bits", [0, 0b11110, 32, 0xE1, 0xFF])
def test_mask_bits_outside_the_groups_rejected(bits):
    with pytest.raises(ValueError):
        FeatureGroupMask.from_bits(bits)


@pytest.mark.parametrize("groups", ["", "ba", "aa", "abcdef", "a+b"])
def test_mask_groups_must_be_layout_letters_in_order(groups):
    with pytest.raises(ValueError):
        FeatureGroupMask(groups)


def test_apply_mask_zeroes_only_excluded_groups(rng):
    v = rng.random(210)
    out = apply_mask(v, parse_mask("a+b+e"))
    assert np.array_equal(out[OWN_SLICE], v[OWN_SLICE])
    assert np.array_equal(out[IN_PRODUCTION_SLICE], v[IN_PRODUCTION_SLICE])
    assert np.array_equal(out[SUPPLY_SLICE], v[SUPPLY_SLICE])
    assert not out[PROGRESS_SLICE].any()
    assert not out[ENEMY_SLICE].any()
    assert v[PROGRESS_SLICE].any()  # input untouched


def test_apply_mask_batch_matches_single(rng):
    X = rng.random((7, 210))
    mask = parse_mask("a+d")
    batch = apply_mask(X, mask)
    for i in range(7):
        assert np.array_equal(batch[i], apply_mask(X[i], mask))


def test_full_mask_is_identity(rng):
    v = rng.random(210)
    assert np.array_equal(apply_mask(v, FULL_MASK), v)


# -- normalization table -------------------------------------------------------


def test_norms_round_trip(catalog, norms):
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    buf.seek(0)
    again = load_norms(buf, catalog)
    assert again.content_hash() == norms.content_hash()


def test_norms_missing_entry_rejected(catalog, norms):
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    text = "\n".join(
        line for line in buf.getvalue().splitlines() if not line.startswith("probe,")
    )
    with pytest.raises(SchemaError) as err:
        load_norms(io.StringIO(text), catalog)
    assert "probe" in str(err.value)


def test_norms_unknown_name_rejected(catalog, norms):
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    text = buf.getvalue().replace("[enemy_types]", "marauder, 10\n[enemy_types]")
    with pytest.raises(SchemaError) as err:
        load_norms(io.StringIO(text), catalog)
    assert "marauder" in str(err.value)


def test_norms_supply_section_rejected(catalog, norms):
    """Supply divides by the game's limit, catalog.SUPPLY_CAP, so a norms
    file has no supply cap to set."""
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    assert "supply" not in buf.getvalue().replace("supply_depot", "")
    text = buf.getvalue() + "[supply]\nsupply, 200\n"
    with pytest.raises(ParseError) as err:
        load_norms(io.StringIO(text), catalog)
    assert "unknown section [supply]" in str(err.value)


def test_norms_nonpositive_cap_rejected(catalog, norms):
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    for cap in ("0", "-1", "nan", "inf"):
        text = buf.getvalue().replace("probe, 100", f"probe, {cap}")
        with pytest.raises(SchemaError):
            load_norms(io.StringIO(text), catalog)


def test_norms_repeated_section_rejected(catalog, norms):
    buf = io.StringIO()
    write_norms(norms, catalog, buf)
    text = buf.getvalue().replace("[enemy_types]", "[upgrades]\n[enemy_types]")
    with pytest.raises(ParseError) as err:
        load_norms(io.StringIO(text), catalog)
    assert "duplicate section [upgrades]" in str(err.value)


# -- dataset file format --------------------------------------------------------


def test_dataset_round_trip(small_dataset):
    buf = io.BytesIO()
    write_dataset(small_dataset, buf)
    buf.seek(0)
    again = read_dataset(buf)
    assert again.games == small_dataset.games
    assert again.catalog_hash == small_dataset.catalog_hash
    assert again.norms_hash == small_dataset.norms_hash


def test_dataset_write_is_deterministic(small_dataset):
    a, b = io.BytesIO(), io.BytesIO()
    write_dataset(small_dataset, a)
    write_dataset(small_dataset, b)
    assert a.getvalue() == b.getvalue()


def test_dataset_truncation_detected(small_dataset):
    buf = io.BytesIO()
    write_dataset(small_dataset, buf)
    data = buf.getvalue()
    for cut in (3, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(FormatError):
            read_dataset(io.BytesIO(data[:cut]))


def test_dataset_trailing_garbage_detected(small_dataset):
    buf = io.BytesIO()
    write_dataset(small_dataset, buf)
    with pytest.raises(FormatError):
        read_dataset(io.BytesIO(buf.getvalue() + b"x"))


def test_dataset_bad_magic_detected():
    with pytest.raises(FormatError):
        read_dataset(io.BytesIO(b"NOPE" + b"\x00" * 64))


def test_dataset_action_range_checked_on_read(small_dataset):
    game = small_dataset.games[0]
    bad_actions = game.actions.copy()
    bad_actions[0] = 58  # one past the last class
    bad = Dataset.from_games(
        (GameRecord(game.game_id, game.vectors, bad_actions),),
        small_dataset.catalog_hash,
        small_dataset.norms_hash,
    )
    buf = io.BytesIO()
    write_dataset(bad, buf)
    buf.seek(0)
    with pytest.raises(FormatError) as err:
        read_dataset(buf)
    assert "action" in str(err.value)


def _dataset_file() -> bytes:
    games = tuple(
        GameRecord(f"g-{i}", np.full((1, N_FEATURES), 0.5), np.array([i]))
        for i in range(2)
    )
    buf = io.BytesIO()
    write_dataset(Dataset.from_games(games, "79b5daa45c5c8e43", "e5561f0b22de8921"), buf)
    return buf.getvalue()


_DATASET_FILE = _dataset_file()


def _corruption(at: int, byte: int) -> bytes:
    return _DATASET_FILE[:at] + bytes([byte]) + _DATASET_FILE[at + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    blob=st.integers(0, len(_DATASET_FILE) - 1).map(lambda n: _DATASET_FILE[:n])
    | st.builds(_corruption, st.integers(0, len(_DATASET_FILE) - 1), st.integers(0, 255))
)
@example(blob=_corruption(18, 0xFF))  # inside the catalog hash
@example(blob=_DATASET_FILE[:-8] + b"\x7f\xf8" + _DATASET_FILE[-6:])  # last value NaN
def test_corrupt_dataset_file_loads_or_raises_format_error(blob):
    with contextlib.suppress(FormatError):
        for game in read_dataset(io.BytesIO(blob)).games:
            assert ((game.vectors >= 0.0) & (game.vectors <= 1.0)).all()


@pytest.mark.parametrize("value", [-0.5, 1.5, np.inf, np.nan])
def test_dataset_values_outside_unit_interval_rejected_on_read(small_dataset, value):
    game = small_dataset.games[0]
    vectors = game.vectors.copy()
    vectors[-1, -1] = value
    buf = io.BytesIO()
    write_dataset(Dataset.from_games((GameRecord(game.game_id, vectors, game.actions),)), buf)
    buf.seek(0)
    with pytest.raises(FormatError) as err:
        read_dataset(buf)
    assert "outside [0, 1]" in str(err.value)


def test_write_str_over_the_length_field_raises_format_error():
    buf = io.BytesIO()
    encoding.write_str(buf, "x" * encoding.MAX_STR_BYTES)
    assert len(buf.getvalue()) == 2 + encoding.MAX_STR_BYTES
    with pytest.raises(FormatError) as err:
        encoding.write_str(io.BytesIO(), "x" * (encoding.MAX_STR_BYTES + 1))
    assert "over the limit of 65535" in str(err.value)


@st.composite
def game_records(draw):
    n = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return GameRecord(
        game_id=draw(st.text(max_size=8)),
        vectors=rng.random((n, N_FEATURES)),
        actions=rng.integers(0, N_CLASSES, n),
    )


@settings(max_examples=100, deadline=None)
@given(games=st.lists(game_records(), max_size=4))
@example(games=[])
@example(games=[GameRecord("none", np.zeros((0, N_FEATURES)), np.zeros(0, np.int64))])
def test_write_dataset_streams_any_iterable_of_games(games):
    """A one-shot generator of records writes the bytes a tuple does, and
    those bytes read back as the same games."""
    as_tuple, as_generator = io.BytesIO(), io.BytesIO()
    write_dataset(Dataset.from_games(games, "c" * 16, "n" * 16), as_tuple)
    streamed = SimpleNamespace(games=(g for g in games), catalog_hash="c" * 16, norms_hash="n" * 16)
    write_dataset(streamed, as_generator)
    assert as_generator.getvalue() == as_tuple.getvalue()
    assert as_generator.tell() == len(as_generator.getvalue())
    again = read_dataset(io.BytesIO(as_generator.getvalue()))
    assert again.games == tuple(games)
    assert (again.catalog_hash, again.norms_hash) == ("c" * 16, "n" * 16)


def test_build_dataset_preserves_game_order(catalog, norms, small_logs):
    ds = build_dataset(small_logs, catalog, norms)
    assert [g.game_id for g in ds.games] == [l.game_id for l in small_logs]
    assert ds.n_pairs == sum(l.produced_count() for l in small_logs)

