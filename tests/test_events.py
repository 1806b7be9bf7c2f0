import io
import string
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macronet.errors import ParseError, ValidationError
from macronet.events import (
    MAX_FRAME,
    MAX_GAME_ID_BYTES,
    EventKind,
    EventLog,
    GameEvent,
    parse_event_log,
    write_event_log,
)
from macronet.forward import extract_pairs

VALID = """\
game demo-1
# opening
0 produced pylon

100 produced probe
200 observed marine
300 produced gateway
"""


def test_parse_valid_log(catalog):
    log = parse_event_log(io.StringIO(VALID), catalog)
    assert log.game_id == "demo-1"
    assert len(log.events) == 4
    assert log.events[0] == GameEvent(0, EventKind.PRODUCED, catalog.build_id("pylon"))
    assert log.events[2].kind is EventKind.ENEMY_OBSERVED
    assert log.events[2].type_id == catalog.enemy_id("marine")
    assert log.produced_count() == 3


def test_comments_and_blank_lines_ignored(catalog):
    log = parse_event_log(io.StringIO(VALID), catalog)
    assert len(log.events) == 4


def test_round_trip(catalog):
    log = parse_event_log(io.StringIO(VALID), catalog)
    buf = io.StringIO()
    write_event_log(log, buf, catalog)
    buf.seek(0)
    again = parse_event_log(buf, catalog)
    assert again == log


def test_canonical_form_is_fixed_point(catalog):
    log = parse_event_log(io.StringIO(VALID), catalog)
    one, two = io.StringIO(), io.StringIO()
    write_event_log(log, one, catalog)
    write_event_log(parse_event_log(io.StringIO(one.getvalue()), catalog), two, catalog)
    assert one.getvalue() == two.getvalue()


def test_missing_header_rejected(catalog):
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO("0 produced pylon\n"), catalog)
    assert "line 1" in str(err.value)


def test_decreasing_frames_rejected(catalog):
    text = "game g\n100 produced pylon\n50 produced probe\n"
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO(text), catalog)
    assert "line 3" in str(err.value)


def test_negative_frame_rejected(catalog):
    with pytest.raises(ParseError):
        parse_event_log(io.StringIO("game g\n-5 produced pylon\n"), catalog)


def test_unknown_kind_rejected(catalog):
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO("game g\n0 exploded pylon\n"), catalog)
    assert "exploded" in str(err.value)


def test_off_race_name_rejects_whole_log(catalog):
    text = "game g\n0 produced pylon\n10 produced marine\n"
    with pytest.raises(ValidationError) as err:
        parse_event_log(io.StringIO(text), catalog)
    assert "off-race" in str(err.value)
    assert "marine" in str(err.value)


def test_unknown_enemy_name_rejected(catalog):
    with pytest.raises(ValidationError):
        parse_event_log(io.StringIO("game g\n0 observed zealot\n"), catalog)


def test_empty_log_body_allowed(catalog):
    log = parse_event_log(io.StringIO("game empty\n"), catalog)
    assert log == EventLog(game_id="empty", events=())


@pytest.mark.parametrize("frame", ["1_000", "+5", "\u0661\u0662", "0x10", "5.0", "-", "--5"])
def test_frame_must_be_ascii_decimal_digits(catalog, frame):
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO(f"game g\n{frame} produced pylon\n"), catalog)
    assert f"line 2: bad frame {frame!r}" == str(err.value)


@pytest.mark.parametrize("frame", [MAX_FRAME + 1, 2**63 - 1, 99999999999999999999])
def test_frame_past_the_last_frame_rejected(catalog, frame):
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO(f"game g\n{frame} produced pylon\n"), catalog)
    assert str(err.value) == f"line 2: frame {frame} is past the last frame {MAX_FRAME}"


PYLON_AT = "game g\n{} produced pylon\n"


@pytest.fixture
def default_int_digits():
    """int()'s default limit of 4,300 digits, which PYTHONINTMAXSTRDIGITS can
    change: a longer frame is a bad frame only under a limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "frame, expected",
    [
        ("-0", 0),
        ("-00", 0),
        (str(MAX_FRAME), MAX_FRAME),
        ("-5", "line 2: negative frame -5"),
        ("+5", "line 2: bad frame '+5'"),
        ("0x10", "line 2: bad frame '0x10'"),
        ("\uff11\uff12", "line 2: bad frame '\uff11\uff12'"),  # full-width 12
        ("\u0663", "line 2: bad frame '\u0663'"),  # Arabic-Indic 3
        ("1" * 5000, f"line 2: bad frame {'1' * 5000!r}"),  # past int()'s digit limit
        ("-" + "1" * 5000, f"line 2: bad frame {'-' + '1' * 5000!r}"),
        (str(MAX_FRAME + 1), f"line 2: frame {MAX_FRAME + 1} is past the last frame {MAX_FRAME}"),
    ],
)
def test_frame_fields_parse_or_fail_as_before(catalog, frame, expected, default_int_digits):
    """The plain-digits fast path and the signed fallback keep each frame's
    result and message."""
    source = io.StringIO(PYLON_AT.format(frame))
    if isinstance(expected, int):
        assert parse_event_log(source, catalog).events[0].frame == expected
    else:
        with pytest.raises(ParseError) as err:
            parse_event_log(source, catalog)
        assert str(err.value) == expected


def test_game_event_is_an_immutable_value(catalog):
    pylon = catalog.build_id("pylon")
    by_position = GameEvent(5, EventKind.PRODUCED, pylon)
    assert by_position == GameEvent(frame=5, kind=EventKind.PRODUCED, type_id=pylon)
    assert hash(by_position) == hash(GameEvent(frame=5, kind=EventKind.PRODUCED, type_id=pylon))
    with pytest.raises(AttributeError):
        by_position.frame = 6
    assert by_position.frame == 5


def test_last_frame_completes_without_wrapping(catalog):
    log = parse_event_log(
        io.StringIO(f"game g\n{MAX_FRAME} produced pylon\n{MAX_FRAME} produced probe\n"),
        catalog,
    )
    table = extract_pairs(log, catalog)
    pylon = catalog.build_id("pylon")
    assert table.done[0] == MAX_FRAME + catalog.builds[pylon].build_frames
    assert table.soonest[1, pylon] == table.done[0]


def test_game_id_longer_than_the_dataset_field_rejected(catalog):
    fits = "\u00e9" * (MAX_GAME_ID_BYTES // 2)  # two UTF-8 bytes each
    assert parse_event_log(io.StringIO(f"game {fits}\n"), catalog).game_id == fits
    with pytest.raises(ParseError) as err:
        parse_event_log(io.StringIO(f"game {fits}\u00e9\n"), catalog)
    assert str(err.value) == f"line 1: game id longer than {MAX_GAME_ID_BYTES} bytes of UTF-8"


@st.composite
def event_logs(draw, catalog):
    game_id = draw(
        st.text(string.ascii_letters + string.digits + "-_.# ", min_size=1, max_size=20)
        .map(str.strip)
        .filter(bool)
    )
    events = []
    for frame in sorted(draw(st.lists(st.integers(0, 10**9), max_size=30))):
        kind = draw(st.sampled_from(EventKind))
        names = catalog.enemy_types if kind is EventKind.ENEMY_OBSERVED else catalog.builds
        events.append(GameEvent(frame, kind, draw(st.integers(0, len(names) - 1))))
    return EventLog(game_id=game_id, events=tuple(events))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_write_then_parse_returns_the_log(catalog, data):
    log = data.draw(event_logs(catalog))
    buf = io.BytesIO()
    write_event_log(log, buf, catalog)
    assert parse_event_log(io.BytesIO(buf.getvalue()), catalog) == log


LINES = st.sampled_from(
    [
        b"game g",
        b"0 produced pylon",
        b"5 observed marine",
        b"7 destroyed probe",
        b"3 produced marine",
        b"1_000 produced pylon",
        "\u0661\u0662 produced probe".encode(),
        b"-3 produced probe",
        b"9 exploded probe",
        b"# note",
        b"",
    ]
)
RAW_LOGS = st.binary(max_size=200) | st.lists(LINES | st.binary(max_size=12), max_size=8).map(
    b"\n".join
)


@settings(max_examples=300, deadline=None)
@given(raw=RAW_LOGS)
@example(raw=b"game g\n0 produced \xffpylon\n")
@example(raw=b"game g\n1_000 produced pylon\n")
def test_arbitrary_bytes_parse_or_raise_a_parse_error(catalog, raw):
    """Whatever is not a valid log fails as ParseError or ValidationError,
    and whatever parses writes back to text that parses to the same log."""
    try:
        log = parse_event_log(io.BytesIO(raw), catalog)
    except (ParseError, ValidationError):
        return
    buf = io.BytesIO()
    write_event_log(log, buf, catalog)
    assert parse_event_log(io.BytesIO(buf.getvalue()), catalog) == log
