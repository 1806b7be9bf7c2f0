"""Per-game event files: the ingestion boundary of the pipeline.

One file describes one game from one player's perspective as a time-ordered
list of material changes: builds the player started producing, completed own
material that was destroyed, and enemy material observed through the fog of
war. A corpus is a directory of ``*.events`` files, one per game.

Format (UTF-8, line oriented, diff friendly)::

    game <id>
    <frame> produced <build name>
    <frame> destroyed <build name>
    <frame> observed <enemy type name>

Produced/destroyed names must be own builds of the companion catalog and
observed names must be enemy types; anything else rejects the whole log.
That rule is what keeps a corpus race-pure: a log polluted by off-race
production (the mind-control case) never parses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .catalog import BuildCatalog, read_lines, write_text
from .errors import ParseError, ValidationError

EVENT_FILE_SUFFIX = ".events"

# The last frame a log may name: replay adds a build time to it in int64.
MAX_FRAME = 2**62
_FRAME_DIGITS = len(str(MAX_FRAME))
# A frame of more significant digits is a bad frame, not a frame past
# MAX_FRAME: the same bound as int()'s default digit limit, held fixed here.
MAX_FRAME_TEXT_DIGITS = 4300
# A game id's UTF-8 length limit: the dataset file stores it behind 2 bytes.
MAX_GAME_ID_BYTES = 0xFFFF


class EventKind(enum.Enum):
    PRODUCED = "produced"
    DESTROYED = "destroyed"
    ENEMY_OBSERVED = "observed"


_KINDS = {kind.value: kind for kind in EventKind}


class GameEvent(NamedTuple):
    """One event: immutable and equal by value, as a tuple of its fields."""

    frame: int
    kind: EventKind
    type_id: int  # BuildId for produced/destroyed, EnemyTypeId for observed


@dataclass(frozen=True)
class EventLog:
    game_id: str
    events: tuple[GameEvent, ...]

    def produced_count(self) -> int:
        return sum(1 for e in self.events if e.kind is EventKind.PRODUCED)


def parse_event_log(source, catalog: BuildCatalog) -> EventLog:
    """Parse one event file. Rejection is total: any bad line fails the log.

    Raises ParseError (malformed line, with line number; a frame is ASCII
    decimal digits no greater than MAX_FRAME; a game id is at most
    MAX_GAME_ID_BYTES bytes of UTF-8), ValidationError (name not resolvable
    in the catalog, off-race or misspelled builds), or ParseError for frames
    that decrease and for text that is not UTF-8.
    """
    build_index, enemy_index = catalog.build_index, catalog.enemy_index
    lines = read_lines(source)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise ParseError("empty event file: missing 'game <id>' header")
    if not header.startswith("game "):
        raise ParseError("expected header 'game <id>'", lineno)
    game_id = header[len("game ") :].strip()
    if not game_id:
        raise ParseError("empty game id", lineno)
    if len(game_id.encode("utf-8")) > MAX_GAME_ID_BYTES:
        raise ParseError(f"game id longer than {MAX_GAME_ID_BYTES} bytes of UTF-8", lineno)

    events: list[GameEvent] = []
    last_frame = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<frame> <kind> <name>', got {line!r}", lineno)
        frame_text, kind_text, name = parts
        if len(frame_text) <= _FRAME_DIGITS and frame_text.isdigit() and frame_text.isascii():
            frame = int(frame_text)
        else:
            frame = _frame_value(frame_text, lineno)
        if frame > MAX_FRAME:
            raise ParseError(f"frame {frame} is past the last frame {MAX_FRAME}", lineno)
        if frame < last_frame:
            raise ParseError(f"event at frame {frame} after frame {last_frame}", lineno)
        last_frame = frame
        kind = _KINDS.get(kind_text)
        if kind is None:
            raise ParseError(f"unknown event kind {kind_text!r}", lineno)
        if kind is EventKind.ENEMY_OBSERVED:
            type_id = enemy_index.get(name)
            if type_id is None:
                raise ValidationError(f"line {lineno}: {name!r} is not a known enemy type")
        else:
            type_id = build_index.get(name)
            if type_id is None:
                raise ValidationError(
                    f"line {lineno}: {name!r} is not an own build "
                    "(off-race production; log rejected)"
                )
        events.append(GameEvent(frame, kind, type_id))
    return EventLog(game_id=game_id, events=tuple(events))


def _frame_value(text: str, lineno: int) -> int:
    """A frame field that is not plain ASCII digits of at most _FRAME_DIGITS
    characters. Leading zeros are stripped before int() runs, and int() never
    sees more than _FRAME_DIGITS digits, so the result and the message do not
    depend on the interpreter's digit limit. The value may still be past
    MAX_FRAME; the caller checks that."""
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad frame {text!r}", lineno)
    significant = digits.lstrip("0")
    if len(significant) > MAX_FRAME_TEXT_DIGITS:
        raise ParseError(f"bad frame {text!r}", lineno)
    if negative and significant:
        raise ParseError(f"negative frame -{significant}", lineno)
    if len(significant) > _FRAME_DIGITS:
        raise ParseError(f"frame {significant} is past the last frame {MAX_FRAME}", lineno)
    return int(significant or "0")


def write_event_log(log: EventLog, sink, catalog: BuildCatalog) -> None:
    """Serialize in canonical form. Bit-deterministic; round-trips."""
    builds, enemy_types = catalog.builds, catalog.enemy_types
    kind_text = {kind: kind.value for kind in EventKind}
    lines = [f"game {log.game_id}\n"]
    for frame, kind, type_id in log.events:
        spec = enemy_types[type_id] if kind is EventKind.ENEMY_OBSERVED else builds[type_id]
        lines.append(f"{frame} {kind_text[kind]} {spec.name}\n")
    write_text(sink, "".join(lines))
