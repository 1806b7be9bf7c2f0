"""State vectorization: macro states to normalized 210-entry feature vectors.

Fixed layout (all values in [0, 1]):

====== ======================================= ==========================
index  contents                                normalization
====== ======================================= ==========================
0-31   own units/buildings, completed          per-type cap
32-38  own technologies (one-time)             cap 1
39-57  own upgrades (one-time)                 cap 1
58-115 in-production counts, per own build     per-type cap (same table)
116-173 production progress, per own build     already a fraction
174-206 observed enemy material                per-type cap
207-209 supply used / supply max / supply left catalog.SUPPLY_CAP
====== ======================================= ==========================

Values above their cap clamp to 1.0; a caller that wants to know how often
passes an array that ``encode`` adds each feature's clamp count to. Count
caps live in a normalization table file so the encoding is corpus
independent and other matchups can retune without code changes; the supply
cap is the game's own limit, so it lives in the catalog module.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import (
    N_ENEMY_TYPES,
    N_OWN_BUILDS,
    SUPPLY_CAP,
    BuildCatalog,
    open_packaged,
    read_sections,
    write_text,
)
from .errors import FormatError, ParseError, SchemaError
from .forward import DecisionTable, extract_pairs

N_FEATURES = 210
N_CLASSES = N_OWN_BUILDS

OWN_SLICE = slice(0, 58)
IN_PRODUCTION_SLICE = slice(58, 116)
PROGRESS_SLICE = slice(116, 174)
ENEMY_SLICE = slice(174, 207)
SUPPLY_SLICE = slice(207, 210)

DEFAULT_NORMS_RESOURCE = "default.norms"


# ---------------------------------------------------------------------------
# Normalization table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationTable:
    """Per-feature caps. Same own-build caps apply to completed and
    in-production counts; technologies and upgrades should cap at 1."""

    own_caps: np.ndarray  # (58,) float64, > 0
    enemy_caps: np.ndarray  # (33,) float64, > 0

    def content_hash(self) -> str:
        payload = self.own_caps.astype(">f8").tobytes() + self.enemy_caps.astype(">f8").tobytes()
        return hashlib.sha256(payload).hexdigest()[:16]


def _cap_sections(catalog: BuildCatalog, own_caps: np.ndarray, enemy_caps: np.ndarray):
    """The per-type sections in file order: name, the specs it covers, and
    the cap vector their ids index."""
    return (
        ("units_buildings", catalog.units_buildings, own_caps),
        ("technologies", catalog.technologies, own_caps),
        ("upgrades", catalog.upgrades, own_caps),
        ("enemy_types", catalog.enemy_types, enemy_caps),
    )


def load_norms(source, catalog: BuildCatalog) -> NormalizationTable:
    """Parse a normalization table and check it covers the whole catalog.

    Format mirrors the catalog file: sections ``[units_buildings]``,
    ``[technologies]``, ``[upgrades]``, ``[enemy_types]`` with ``name, cap``
    lines. Each section appears at most once, and every cap is finite and
    positive. Supply has no section: its cap is ``catalog.SUPPLY_CAP``.
    """
    own_caps = np.zeros(N_OWN_BUILDS, dtype=np.float64)
    enemy_caps = np.zeros(N_ENEMY_TYPES, dtype=np.float64)
    cap_sections = _cap_sections(catalog, own_caps, enemy_caps)
    sections = read_sections(source, [section for section, _, _ in cap_sections])
    entries: dict[str, dict[str, float]] = {section: {} for section, _, _ in cap_sections}
    for section, lines in sections.items():
        for lineno, line in lines:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ParseError(f"expected 'name, cap', got {line!r}", lineno)
            try:
                cap = float(parts[1])
            except ValueError:
                raise ParseError(f"bad cap {parts[1]!r}", lineno) from None
            if not 0.0 < cap < math.inf:
                raise SchemaError(
                    f"line {lineno}: cap must be finite and positive, got {cap}"
                )
            if parts[0] in entries[section]:
                raise ParseError(f"duplicate entry {parts[0]!r}", lineno)
            entries[section][parts[0]] = cap

    for section, specs, caps in cap_sections:
        table = entries[section]
        for spec in specs:
            if spec.name not in table:
                raise SchemaError(f"{section}: missing cap for {spec.name!r}")
            caps[spec.id] = table[spec.name]
        extra = set(table) - {spec.name for spec in specs}
        if extra:
            raise SchemaError(f"{section}: caps for unknown names {sorted(extra)}")
    return NormalizationTable(own_caps=own_caps, enemy_caps=enemy_caps)


def write_norms(norms: NormalizationTable, catalog: BuildCatalog, sink) -> None:
    """Canonical serialization; load_norms(write_norms(t)) == t."""

    def fmt(x: float) -> str:
        return repr(int(x)) if float(x).is_integer() else repr(float(x))

    lines = []
    for section, specs, caps in _cap_sections(catalog, norms.own_caps, norms.enemy_caps):
        lines.append(f"[{section}]\n")
        lines += (f"{spec.name}, {fmt(caps[spec.id])}\n" for spec in specs)
    write_text(sink, "".join(lines))


def load_default_norms(catalog: BuildCatalog) -> NormalizationTable:
    with open_packaged(DEFAULT_NORMS_RESOURCE) as f:
        return load_norms(f, catalog)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode(
    state, catalog: BuildCatalog, norms: NormalizationTable, clamped: np.ndarray | None = None
) -> np.ndarray:
    """Vectorize one ``MacroState`` into a (210,) vector, or one game's
    ``DecisionTable``, as ``extract_pairs`` returns it, straight from its
    arrays into an (n, 210) matrix whose row i equals the encoding of state
    i bit for bit. Deterministic; output in [0, 1].

    Both paths write unclipped ratios and share one clip step. If given,
    ``clamped``, a (210,) int64 array, gains each feature's count of rows
    whose value was over 1.0 and clipped to it."""
    if isinstance(state, DecisionTable):
        v = _table_ratios(state, catalog, norms)
    else:
        v = np.zeros(N_FEATURES, dtype=np.float64)
        v[OWN_SLICE] = state.own_count / norms.own_caps
        v[IN_PRODUCTION_SLICE] = state.in_production_count() / norms.own_caps
        v[PROGRESS_SLICE] = state.production_progress(catalog)
        v[ENEMY_SLICE] = state.enemy_count / norms.enemy_caps
        v[SUPPLY_SLICE] = state.supply_used, state.supply_max, state.supply_left
        v[SUPPLY_SLICE] /= SUPPLY_CAP
    if clamped is not None:
        over = v > 1.0
        if over.any():
            clamped += over.reshape(-1, N_FEATURES).sum(axis=0)
    return np.clip(v, 0.0, 1.0, out=v)


def _table_ratios(table, catalog: BuildCatalog, norms: NormalizationTable) -> np.ndarray:
    """The table form of encode's ratios: the same arithmetic, one array
    operation per feature block instead of one call per state.
    ``table.soonest`` is read only where ``table.in_production`` is positive."""
    n = len(table.frame)
    v = np.zeros((n, N_FEATURES), dtype=np.float64)
    np.divide(table.own, norms.own_caps, out=v[:, OWN_SLICE])
    np.divide(table.in_production, norms.own_caps, out=v[:, IN_PRODUCTION_SLICE])
    busy = np.flatnonzero(table.in_production)
    busy_row, busy_id = np.divmod(busy, N_OWN_BUILDS)
    build_frames = catalog.vectors.build_frames
    progress = 1.0 - (table.soonest.ravel()[busy] - table.frame[busy_row]) / build_frames[busy_id]
    v[busy_row, PROGRESS_SLICE.start + busy_id] = progress
    np.divide(table.enemy, norms.enemy_caps, out=v[:, ENEMY_SLICE])
    used, supply_max = table.supply_used, table.supply_max
    v[:, SUPPLY_SLICE] = np.column_stack((used, supply_max, supply_max - used)) / SUPPLY_CAP
    return v


# ---------------------------------------------------------------------------
# Feature-group masks
# ---------------------------------------------------------------------------

GROUP_SLICES = {
    "a": OWN_SLICE,  # own material
    "b": IN_PRODUCTION_SLICE,  # material under construction
    "c": PROGRESS_SLICE,  # construction progress
    "d": ENEMY_SLICE,  # opponent material
    "e": SUPPLY_SLICE,  # supply
}


@dataclass(frozen=True)
class FeatureGroupMask:
    """Which feature groups stay live: their letters in layout order, so
    ``"abcde"`` keeps every group. Excluded groups are zero-filled so one
    210-wide network topology serves every ablation and the blind policy."""

    groups: str = "".join(GROUP_SLICES)

    def __post_init__(self):
        if "".join(g for g in GROUP_SLICES if g in self.groups) != self.groups:
            raise ValueError(f"feature groups {self.groups!r} are not letters of abcde in order")
        if "a" not in self.groups:
            raise ValueError("own material (group a) cannot be masked out")

    def label(self) -> str:
        return "+".join(self.groups)

    def to_bits(self) -> int:
        return sum(1 << i for i, g in enumerate(GROUP_SLICES) if g in self.groups)

    @classmethod
    def from_bits(cls, bits: int) -> "FeatureGroupMask":
        if not 0 <= bits < 1 << len(GROUP_SLICES):
            raise ValueError(f"mask bits {bits:#x} name no feature groups")
        return cls("".join(g for i, g in enumerate(GROUP_SLICES) if bits >> i & 1))


FULL_MASK = FeatureGroupMask()


def parse_mask(label: str) -> FeatureGroupMask:
    """Parse the compact group grammar, e.g. ``a+b+c+d+e`` or ``a+d``."""
    groups = {g.strip() for g in label.split("+") if g.strip()}
    unknown = groups - set(GROUP_SLICES)
    if unknown:
        raise ValueError(f"unknown feature groups {sorted(unknown)} in {label!r}")
    if "a" not in groups:
        raise ValueError("mask must include group a (own material)")
    return FeatureGroupMask("".join(g for g in GROUP_SLICES if g in groups))


def apply_mask(
    vector: np.ndarray, mask: FeatureGroupMask, in_place: bool = False
) -> np.ndarray:
    """Zero out excluded groups; included coordinates pass through unchanged.
    Accepts a single vector or a (n, 210) batch; returns a copy, or with
    in_place zeroes the vector itself, which must be float64, and returns it."""
    out = vector if in_place else np.array(vector, dtype=np.float64, copy=True)
    for group, columns in GROUP_SLICES.items():
        if group not in mask.groups:
            out[..., columns] = 0.0
    return out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameRecord:
    game_id: str
    vectors: np.ndarray  # (n, 210) float64
    actions: np.ndarray  # (n,) int64 in [0, 58)

    def __eq__(self, other):
        if not isinstance(other, GameRecord):
            return NotImplemented
        return (
            self.game_id == other.game_id
            and np.array_equal(self.vectors, other.vectors)
            and np.array_equal(self.actions, other.actions)
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Every pair once, in game order: game i is rows ``bounds[i]:bounds[i + 1]``
    of the read-only arrays, which ``stacked()``, ``games`` and ``split_dataset``
    hand out as views, never copies. The hashes of the artifacts that encoded
    the pairs are carried along so trained models can record their pipeline."""

    vectors: np.ndarray  # (N, 210) float64
    actions: np.ndarray  # (N,) int64 in [0, 58)
    game_ids: tuple[str, ...]
    bounds: np.ndarray  # (n_games + 1,) int64, rising from 0 to N
    catalog_hash: str
    norms_hash: str

    def __post_init__(self):
        for array in (self.vectors, self.actions, self.bounds):
            array.flags.writeable = False

    @classmethod
    def from_games(cls, records, catalog_hash: str = "", norms_hash: str = "") -> Dataset:
        """The dataset of these per-game records, copied once into its arrays."""
        records = tuple(records)
        return cls(
            vectors=np.concatenate([np.empty((0, N_FEATURES)), *(r.vectors for r in records)]),
            actions=np.concatenate([np.empty(0, np.int64), *(r.actions for r in records)]),
            game_ids=tuple(r.game_id for r in records),
            bounds=np.cumsum([0, *(len(r.actions) for r in records)], dtype=np.int64),
            catalog_hash=catalog_hash,
            norms_hash=norms_hash,
        )

    @property
    def n_pairs(self) -> int:
        return len(self.actions)

    @property
    def games(self) -> tuple[GameRecord, ...]:
        """Each game's record, as views of its rows."""
        vectors, actions = (np.split(a, self.bounds[1:-1]) for a in self.stacked())
        return tuple(map(GameRecord, self.game_ids, vectors, actions))

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All pairs in game order, (X, y): the dataset's own arrays."""
        return self.vectors, self.actions


def game_record(
    game_id: str,
    table: DecisionTable,
    catalog: BuildCatalog,
    norms: NormalizationTable,
    clamped: np.ndarray | None = None,
) -> GameRecord:
    """One game's record from the table extract_pairs built, encoded with
    one encode call, which adds its clamp counts to ``clamped`` if given."""
    return GameRecord(
        game_id=game_id,
        vectors=encode(table, catalog, norms, clamped),
        actions=table.actions,
    )


def build_dataset(logs, catalog: BuildCatalog, norms: NormalizationTable) -> Dataset:
    """Extract and encode a corpus of event logs, preserving game order.
    Each log is replayed once and each game encoded in one call."""
    return Dataset.from_games(
        (game_record(log.game_id, extract_pairs(log, catalog), catalog, norms) for log in logs),
        catalog.content_hash(),
        norms.content_hash(),
    )


_DATASET_MAGIC = b"MNDS"
_DATASET_VERSION = 1
MAX_STR_BYTES = 0xFFFF  # the most a string field's 2-byte length can count


def write_str(sink, s: str) -> None:
    """A binary file's string field: a 2-byte length, then UTF-8 bytes.
    A string longer than MAX_STR_BYTES bytes raises FormatError."""
    data = s.encode("utf-8")
    if len(data) > MAX_STR_BYTES:
        raise FormatError(
            f"string field of {len(data)} UTF-8 bytes, over the limit of {MAX_STR_BYTES}"
        )
    sink.write(struct.pack(">H", len(data)))
    sink.write(data)


class Cursor:
    """Reads a binary file's fields in order from a seekable binary source,
    which it may also skip ahead in and come back to. The file's size is
    taken once, so running past its end raises FormatError before anything
    is read; so does a bad string. Each error names the file's kind."""

    def __init__(self, source, kind: str):
        self.source = source
        self.kind = kind
        self.pos = source.tell()
        self.end = source.seek(0, io.SEEK_END)
        source.seek(self.pos)

    def _claim(self, n: int) -> int:
        """Where the next n bytes start; past them afterwards."""
        if self.pos + n > self.end:
            raise FormatError(f"truncated {self.kind} file")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.source.read(n)

    def skip(self, n: int) -> int:
        """Skip n bytes and return where they start, for ``read_into``."""
        at = self._claim(n)
        self.source.seek(self.pos)
        return at

    def read_into(self, at: int, buffer: memoryview) -> None:
        """Fill ``buffer`` from offset ``at``, which ``skip`` returned."""
        self.source.seek(at)
        if self.source.readinto(buffer) != len(buffer):
            raise FormatError(f"truncated {self.kind} file")

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack(">H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"string field of the {self.kind} file is not UTF-8") from None

    def done(self) -> bool:
        return self.pos == self.end


def write_dataset(dataset, sink) -> None:
    """Binary dataset file: header, then per-game actions and full-precision
    vectors. Deterministic; round-trips through read_dataset.

    ``dataset`` is a ``Dataset`` or any object with its ``games``,
    ``catalog_hash`` and ``norms_hash``. ``games`` is read once, as any
    iterable of ``GameRecord``s, and each record is written as it arrives,
    so a generator of records is written with one game in memory. The game
    count is patched in after the last record, so ``sink`` must be
    seekable; it is left at the end of the file."""
    sink.write(_DATASET_MAGIC)
    sink.write(struct.pack(">III", _DATASET_VERSION, N_FEATURES, N_CLASSES))
    write_str(sink, dataset.catalog_hash)
    write_str(sink, dataset.norms_hash)
    count_at = sink.tell()
    sink.write(struct.pack(">I", 0))
    n_games = 0
    for game in dataset.games:
        write_str(sink, game.game_id)
        n = len(game.actions)
        if game.vectors.shape != (n, N_FEATURES):
            raise FormatError(
                f"game {game.game_id!r}: vector block shape {game.vectors.shape} "
                f"does not match {n} pairs x {N_FEATURES} features"
            )
        sink.write(struct.pack(">I", n))
        sink.write(game.actions.astype(">u2", order="C"))
        sink.write(game.vectors.astype(">f8", order="C"))
        n_games += 1
    end = sink.tell()
    sink.seek(count_at)
    sink.write(struct.pack(">I", n_games))
    sink.seek(end)


def read_dataset(source) -> Dataset:
    """Read a dataset file from a seekable binary source, in about one copy
    of its bytes, and leave the source at the file's end.

    A first pass reads every record's header and actions and skips its
    vector block; the headers then size the matrix, and a second pass reads
    each block straight into its rows, byteswaps them in place and checks
    their range. So a file's errors are found in the order of its headers
    and actions, then of its vector blocks."""
    cur = Cursor(source, "dataset")
    if cur.take(4) != _DATASET_MAGIC:
        raise FormatError("not a dataset file (bad magic)")
    version, n_features, n_classes = cur.unpack(">III")
    if version != _DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if n_features != N_FEATURES or n_classes != N_CLASSES:
        raise FormatError(
            f"dataset declares {n_features} features / {n_classes} classes, "
            f"expected {N_FEATURES} / {N_CLASSES}"
        )
    catalog_hash = cur.read_str()
    norms_hash = cur.read_str()
    (n_games,) = cur.unpack(">I")
    game_ids, game_actions, blocks_at = [], [], []
    for _ in range(n_games):
        game_id = cur.read_str()
        (n,) = cur.unpack(">I")
        actions = np.frombuffer(cur.take(n * 2), dtype=">u2")
        if np.any(actions >= N_CLASSES):
            raise FormatError(f"game {game_id!r}: action index out of range")
        game_ids.append(game_id)
        game_actions.append(actions)
        blocks_at.append(cur.skip(n * N_FEATURES * 8))
    if not cur.done():
        raise FormatError("trailing bytes after last game record")
    bounds = np.cumsum([0, *map(len, game_actions)], dtype=np.int64)
    vectors = np.empty((bounds[-1], N_FEATURES))
    for game_id, start, stop, at in zip(game_ids, bounds, bounds[1:], blocks_at):
        if start == stop:
            continue
        rows = vectors[start:stop]
        cur.read_into(at, memoryview(rows).cast("B"))
        if sys.byteorder == "little":
            rows.byteswap(inplace=True)
        if not 0.0 <= rows.min() <= rows.max() <= 1.0:
            raise FormatError(f"game {game_id!r}: feature value outside [0, 1]")
    source.seek(cur.end)
    actions = np.concatenate([np.empty(0, np.int64), *game_actions])
    return Dataset(vectors, actions, tuple(game_ids), bounds, catalog_hash, norms_hash)
