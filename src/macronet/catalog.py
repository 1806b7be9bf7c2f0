"""Build catalog: the closed universe of producible and observable types.

A catalog fixes the layout of everything downstream: the 58 own builds
(32 units/buildings, 7 technologies, 19 upgrades, in that order) define
both the own-count blocks of the state vector and the 58 classes of the
output layer; the 33 enemy types define the observed-opponent block.

Catalogs are data, not code. The packaged default is a Protoss-vs-Terran
enumeration; other matchups are a data file away.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import io
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ParseError, SchemaError

# Group sizes are part of the contract, not a tunable.
N_UNITS_BUILDINGS = 32
N_TECHNOLOGIES = 7
N_UPGRADES = 19
N_OWN_BUILDS = N_UNITS_BUILDINGS + N_TECHNOLOGIES + N_UPGRADES  # 58
N_ENEMY_TYPES = 33

# The game's supply limit in the catalog's supply units, which are the
# engine's half-units (a worker costs 2): 200 as the game displays it.
SUPPLY_CAP = 400

DEFAULT_CATALOG_RESOURCE = "protoss_vs_terran.catalog"


class BuildKind(enum.Enum):
    UNIT_OR_BUILDING = "unit_or_building"
    TECHNOLOGY = "technology"
    UPGRADE = "upgrade"


# The catalog file's own-build sections in file and id order: name, kind
# and number of entries. The ``enemy_types`` section follows them.
OWN_SECTIONS = (
    ("units_buildings", BuildKind.UNIT_OR_BUILDING, N_UNITS_BUILDINGS),
    ("technologies", BuildKind.TECHNOLOGY, N_TECHNOLOGIES),
    ("upgrades", BuildKind.UPGRADE, N_UPGRADES),
)


@dataclass(frozen=True)
class BuildSpec:
    """One producible type and the economic attributes the forward model needs."""

    id: int
    name: str
    kind: BuildKind
    mineral_cost: int
    gas_cost: int
    build_frames: int
    supply_cost: int
    supply_provided: int
    prerequisites: tuple[int, ...] = ()


@dataclass(frozen=True)
class EnemySpec:
    id: int
    name: str


@dataclass(frozen=True)
class BuildVectors:
    """Per-build attributes as (58,) arrays indexed by build id."""

    build_frames: np.ndarray  # int64, >= 1
    supply_cost: np.ndarray  # int64
    supply_provided: np.ndarray  # int64
    one_time: np.ndarray  # bool, technologies and upgrades


@dataclass(frozen=True)
class BuildCatalog:
    """Immutable after load; safe to share across threads."""

    builds: tuple[BuildSpec, ...]
    enemy_types: tuple[EnemySpec, ...]

    # -- lookups ------------------------------------------------------------

    def build(self, build_id: int) -> BuildSpec:
        if not 0 <= build_id < len(self.builds):
            raise KeyError(f"unknown build id {build_id}")
        return self.builds[build_id]

    def build_id(self, name: str) -> int:
        try:
            return self.build_index[name]
        except KeyError:
            raise KeyError(f"unknown build name {name!r}") from None

    def enemy_id(self, name: str) -> int:
        try:
            return self.enemy_index[name]
        except KeyError:
            raise KeyError(f"unknown enemy type {name!r}") from None

    def has_build(self, name: str) -> bool:
        return name in self.build_index

    def has_enemy(self, name: str) -> bool:
        return name in self.enemy_index

    @functools.cached_property
    def build_index(self) -> MappingProxyType:
        """Read-only map from own build name to id, built on first use."""
        return MappingProxyType({b.name: b.id for b in self.builds})

    @functools.cached_property
    def enemy_index(self) -> MappingProxyType:
        """Read-only map from enemy type name to id, built on first use."""
        return MappingProxyType({e.name: e.id for e in self.enemy_types})

    # -- derived groups -----------------------------------------------------

    @property
    def units_buildings(self) -> tuple[BuildSpec, ...]:
        return self.builds[:N_UNITS_BUILDINGS]

    @property
    def technologies(self) -> tuple[BuildSpec, ...]:
        return self.builds[N_UNITS_BUILDINGS : N_UNITS_BUILDINGS + N_TECHNOLOGIES]

    @property
    def upgrades(self) -> tuple[BuildSpec, ...]:
        return self.builds[N_UNITS_BUILDINGS + N_TECHNOLOGIES :]

    def sections(self) -> list[tuple[str, tuple]]:
        """The catalog file's sections in file order, as (name, specs) pairs:
        ``OWN_SECTIONS`` sliced from the builds, then ``enemy_types``."""
        pairs, start = [], 0
        for name, _, size in OWN_SECTIONS:
            pairs.append((name, self.builds[start : start + size]))
            start += size
        pairs.append(("enemy_types", self.enemy_types))
        return pairs

    @property
    def worker_id(self) -> int:
        """By convention the first units_buildings entry is the race's worker."""
        return 0

    @property
    def main_building_id(self) -> int:
        """First entry that provides supply; the race's headquarters building."""
        for b in self.builds:
            if b.supply_provided > 0:
                return b.id
        raise SchemaError("catalog has no supply-providing build")

    def is_one_time(self, build_id: int) -> bool:
        """Technologies and upgrades can be owned at most once."""
        return self.build(build_id).kind is not BuildKind.UNIT_OR_BUILDING

    @functools.cached_property
    def vectors(self) -> BuildVectors:
        """The per-build attributes that extraction and encoding read, as
        read-only arrays indexed by build id. Built on first use only: the
        catalog never changes."""
        columns = [
            np.array([getattr(b, name) for b in self.builds], dtype=np.int64)
            for name in ("build_frames", "supply_cost", "supply_provided")
        ]
        columns.append(np.array([self.is_one_time(b.id) for b in self.builds]))
        for column in columns:
            column.setflags(write=False)
        return BuildVectors(*columns)

    def content_hash(self) -> str:
        """Hash of the canonical serialization; stable across loads."""
        return self._content_hash

    @functools.cached_property
    def _content_hash(self) -> str:
        # Serialized on first use only: the catalog never changes.
        buf = io.BytesIO()
        write_catalog(self, buf)
        return hashlib.sha256(buf.getvalue()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# File format
#
# UTF-8, line oriented. Four sections, each introduced by a bracketed header:
#   the three of OWN_SECTIONS, then [enemy_types]
# Own-build entry (one per line):
#   name, mineral, gas, frames, supply_cost, supply_provided, prereq1|prereq2
# The prerequisite field may be empty. Enemy entries carry a name only.
# Blank lines and lines starting with '#' are ignored.
# ---------------------------------------------------------------------------


def read_lines(source):
    """Yield (line number, stripped line) for each line of a byte or text
    stream that is neither blank nor a '#' comment. Bytes decode as UTF-8;
    input that is not UTF-8 raises ParseError."""
    try:
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from None
    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_sections(source, names) -> dict[str, list[tuple[int, str]]]:
    """The (line number, line) entries of a file of ``[section]`` blocks,
    keyed by section in file order. Each section may appear once, and only
    the given names are allowed."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, line in read_lines(source):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in names:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            current = sections[name] = []
        elif current is None:
            raise ParseError("entry before any section header", lineno)
        else:
            current.append((lineno, line))
    return sections


def write_text(sink, text: str) -> None:
    """Write text to a byte sink as UTF-8, or to a text sink as is."""
    try:
        sink.write(text.encode("utf-8"))
    except TypeError:
        sink.write(text)


def open_packaged(name: str):
    """Open one of the data files shipped with the package, in binary mode."""
    from importlib import resources

    return (resources.files(__package__) / "data" / name).open("rb")


def load_catalog(source) -> BuildCatalog:
    """Parse a catalog file from a readable (byte or text) stream.

    Raises ParseError for malformed syntax (with the line number) and
    SchemaError when a group has the wrong number of entries.
    """
    sizes = {name: size for name, _, size in OWN_SECTIONS}
    sizes["enemy_types"] = N_ENEMY_TYPES
    sections = read_sections(source, sizes)
    if not sections:
        raise ParseError("empty catalog file")
    for name, want in sizes.items():
        if name not in sections:
            raise SchemaError(f"{name}: missing section")
        got = len(sections[name])
        if got != want:
            raise SchemaError(f"{name}: expected {want} entries, got {got}")

    # First pass: names and ids, so prerequisites can be resolved in pass two.
    own_rows: list[tuple[int, str, BuildKind, list[str]]] = []
    names: dict[str, int] = {}
    next_id = 0
    for section, kind, _ in OWN_SECTIONS:
        for lineno, line in sections[section]:
            fields = [f.strip() for f in line.split(",")]
            if len(fields) not in (6, 7):
                raise ParseError(
                    f"expected 6 or 7 comma-separated fields, got {len(fields)}",
                    lineno,
                )
            name = fields[0]
            if not name:
                raise ParseError("empty build name", lineno)
            if name in names:
                raise ParseError(f"duplicate build name {name!r}", lineno)
            names[name] = next_id
            own_rows.append((lineno, line, kind, fields))
            next_id += 1

    builds: list[BuildSpec] = []
    for build_id, (lineno, line, kind, fields) in enumerate(own_rows):
        try:
            mineral, gas, frames, sup_cost, sup_prov = (int(f) for f in fields[1:6])
        except ValueError:
            raise ParseError(f"non-integer numeric field in {line!r}", lineno) from None
        if min(mineral, gas, sup_cost, sup_prov) < 0:
            raise SchemaError(f"line {lineno}: negative cost for {fields[0]!r}")
        if frames < 1:
            raise SchemaError(f"line {lineno}: build_frames must be >= 1 for {fields[0]!r}")
        if kind is not BuildKind.UNIT_OR_BUILDING and sup_cost != 0:
            raise SchemaError(
                f"line {lineno}: {fields[0]!r} is a {kind.value} and must have supply_cost 0"
            )
        prereqs: list[int] = []
        if len(fields) == 7 and fields[6]:
            for pname in fields[6].split("|"):
                pname = pname.strip()
                if pname not in names:
                    raise SchemaError(
                        f"line {lineno}: unknown prerequisite {pname!r} for {fields[0]!r}"
                    )
                prereqs.append(names[pname])
        builds.append(
            BuildSpec(
                id=build_id,
                name=fields[0],
                kind=kind,
                mineral_cost=mineral,
                gas_cost=gas,
                build_frames=frames,
                supply_cost=sup_cost,
                supply_provided=sup_prov,
                prerequisites=tuple(prereqs),
            )
        )

    enemies: list[EnemySpec] = []
    enemy_names: set[str] = set()
    for enemy_id, (lineno, line) in enumerate(sections["enemy_types"]):
        name = line.strip()
        if "," in name:
            raise ParseError("enemy entries carry a name only", lineno)
        if name in enemy_names:
            raise ParseError(f"duplicate enemy type {name!r}", lineno)
        enemy_names.add(name)
        enemies.append(EnemySpec(id=enemy_id, name=name))

    return BuildCatalog(builds=tuple(builds), enemy_types=tuple(enemies))


def write_catalog(catalog: BuildCatalog, sink) -> None:
    """Serialize in the canonical form load_catalog parses. Deterministic."""
    lines = []
    for section, specs in catalog.sections():
        lines.append(f"[{section}]\n")
        for b in specs:
            if isinstance(b, EnemySpec):
                lines.append(f"{b.name}\n")
            else:
                prereqs = "|".join(catalog.builds[p].name for p in b.prerequisites)
                lines.append(
                    f"{b.name}, {b.mineral_cost}, {b.gas_cost}, {b.build_frames}, "
                    f"{b.supply_cost}, {b.supply_provided}, {prereqs}\n"
                )
    write_text(sink, "".join(lines))


def load_default_catalog() -> BuildCatalog:
    """The packaged Protoss-vs-Terran catalog."""
    with open_packaged(DEFAULT_CATALOG_RESOURCE) as f:
        return load_catalog(f)
