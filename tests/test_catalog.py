import io

import pytest

from macronet.catalog import (
    OWN_SECTIONS,
    BuildKind,
    load_catalog,
    load_default_catalog,
    write_catalog,
)
from macronet.errors import ParseError, SchemaError


def test_default_catalog_shape(catalog):
    assert len(catalog.builds) == 58
    assert len(catalog.units_buildings) == 32
    assert len(catalog.technologies) == 7
    assert len(catalog.upgrades) == 19
    assert len(catalog.enemy_types) == 33


def test_ids_are_dense_and_ordered(catalog):
    assert [b.id for b in catalog.builds] == list(range(58))
    assert [e.id for e in catalog.enemy_types] == list(range(33))


def test_worker_and_main_building_conventions(catalog):
    worker = catalog.build(catalog.worker_id)
    assert worker.name == "probe"
    assert worker.supply_cost > 0
    main = catalog.build(catalog.main_building_id)
    assert main.name == "nexus"
    assert main.supply_provided > 0


def test_lookup_by_name_and_id(catalog):
    zealot = catalog.build_id("zealot")
    assert catalog.build(zealot).name == "zealot"
    assert catalog.has_build("zealot")
    assert not catalog.has_build("marine")
    assert catalog.has_enemy("marine")
    with pytest.raises(KeyError):
        catalog.build_id("marine")
    with pytest.raises(KeyError):
        catalog.enemy_id("zealot")
    with pytest.raises(KeyError):
        catalog.build(58)


def test_kinds_partition(catalog):
    for spec in catalog.units_buildings:
        assert spec.kind is BuildKind.UNIT_OR_BUILDING
        assert not catalog.is_one_time(spec.id)
    for spec in catalog.technologies:
        assert spec.kind is BuildKind.TECHNOLOGY
        assert catalog.is_one_time(spec.id)
    for spec in catalog.upgrades:
        assert spec.kind is BuildKind.UPGRADE
        assert catalog.is_one_time(spec.id)


def test_tech_and_upgrades_cost_no_supply(catalog):
    for spec in catalog.technologies + catalog.upgrades:
        assert spec.supply_cost == 0
        assert spec.supply_provided == 0


def test_prerequisites_resolve(catalog):
    dragoon = catalog.build(catalog.build_id("dragoon"))
    names = {catalog.build(p).name for p in dragoon.prerequisites}
    assert "cybernetics_core" in names


def test_round_trip_preserves_catalog(catalog):
    buf = io.StringIO()
    write_catalog(catalog, buf)
    buf.seek(0)
    again = load_catalog(buf)
    assert again == catalog
    assert again.content_hash() == catalog.content_hash()


def test_cached_lookups_stay_out_of_identity():
    """Reading the cached maps, vectors and hash leaves a catalog equal to,
    printed like and hashed like a fresh load of its own file, and the
    cached name maps stay read-only."""
    used = load_default_catalog()
    used.build_id("zealot")
    build_index, enemy_index = used.build_index, used.enemy_index
    used.vectors
    used.content_hash()
    fresh = load_catalog(io.StringIO(_catalog_text(used)))
    assert used == fresh
    assert repr(used) == repr(fresh)
    assert hash(used) == hash(fresh)
    for index in (build_index, enemy_index):
        with pytest.raises(TypeError):
            index["zealot"] = 0


def test_sections_follow_the_table(catalog):
    names = [name for name, _, _ in OWN_SECTIONS] + ["enemy_types"]
    assert [name for name, _ in catalog.sections()] == names
    own = catalog.sections()[:-1]
    assert [specs for _, specs in own] == [
        catalog.units_buildings,
        catalog.technologies,
        catalog.upgrades,
    ]
    for (_, kind, size), (_, specs) in zip(OWN_SECTIONS, own):
        assert len(specs) == size
        assert {spec.kind for spec in specs} == {kind}
    assert catalog.sections()[-1][1] == catalog.enemy_types


def test_content_hash_stable_across_loads(catalog):
    assert catalog.content_hash() == load_default_catalog().content_hash()


def _catalog_text(catalog):
    buf = io.StringIO()
    write_catalog(catalog, buf)
    return buf.getvalue()


def test_parse_error_reports_line_number(catalog):
    text = _catalog_text(catalog)
    lines = text.splitlines()
    lines[2] = "probe, not_a_number, 0, 300, 2, 0,"
    with pytest.raises(ParseError) as err:
        load_catalog(io.StringIO("\n".join(lines)))
    assert "line 3" in str(err.value)


def test_duplicate_name_rejected(catalog):
    text = _catalog_text(catalog)
    with pytest.raises(ParseError) as err:
        load_catalog(io.StringIO(text.replace("zealot,", "probe,", 1)))
    assert "probe" in str(err.value)


def test_wrong_group_size_names_group(catalog):
    text = _catalog_text(catalog)
    lines = [l for l in text.splitlines() if not l.startswith("probe,")]
    with pytest.raises(SchemaError) as err:
        load_catalog(io.StringIO("\n".join(lines)))
    assert "32" in str(err.value)


def test_unknown_prerequisite_rejected(catalog):
    text = _catalog_text(catalog)
    broken = text.replace("cybernetics_core", "cybernetics_korps", 1)
    with pytest.raises(SchemaError) as err:
        load_catalog(io.StringIO(broken))
    assert "cybernetics_korps" in str(err.value)


def test_negative_supply_cost_rejected(catalog):
    lines = _catalog_text(catalog).splitlines()
    fields = lines[1].split(", ")
    fields[4] = "-1"  # supply_cost
    lines[1] = ", ".join(fields)
    with pytest.raises(SchemaError) as err:
        load_catalog(io.StringIO("\n".join(lines)))
    assert "line 2" in str(err.value)


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        load_catalog(io.StringIO(""))
