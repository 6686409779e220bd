"""Binding-time interface files: serialisation round-trips and the
separate-analysis manager (content-digest invalidation)."""

import json
import os

import pytest

from repro.bt.analysis import analyse_program
from repro.bt.interface import (
    InterfaceError,
    InterfaceManager,
    InterfaceStore,
    interface_digest,
    interface_text,
    module_key,
    read_interface,
    scheme_from_json,
    scheme_to_json,
    write_interface,
)
from repro.modsys.program import load_program, load_program_dir

LIB = "module Lib where\n\npower n x = if n == 1 then x else x * power (n - 1) x\nident x = x\n"
APP = "module App where\nimport Lib\n\ncube y = power 3 y\n"


def all_schemes(source):
    return analyse_program(load_program(source)).schemes


def test_scheme_json_roundtrip():
    for name, scheme in all_schemes(LIB).items():
        assert scheme_from_json(scheme_to_json(scheme)) == scheme


def test_scheme_json_roundtrip_higher_order():
    src = (
        "module M where\n\n"
        "map f xs = if null xs then nil else (f @ head xs) : map f (tail xs)\n"
        "swap p = pair (snd p) (fst p)\n"
    )
    for scheme in all_schemes(src).values():
        assert scheme_from_json(scheme_to_json(scheme)) == scheme


def test_json_is_actually_json():
    scheme = all_schemes(LIB)["power"]
    text = json.dumps(scheme_to_json(scheme))
    assert scheme_from_json(json.loads(text)) == scheme


def test_interface_file_roundtrip(tmp_path):
    schemes = all_schemes(LIB)
    path = str(tmp_path / "Lib.bti")
    write_interface(path, "Lib", schemes)
    name, loaded = read_interface(path)
    assert name == "Lib"
    assert loaded == schemes


def test_malformed_interface_rejected(tmp_path):
    path = str(tmp_path / "Bad.bti")
    (tmp_path / "Bad.bti").write_text("{not json")
    with pytest.raises(InterfaceError):
        read_interface(path)


def test_truncated_interface_rejected(tmp_path):
    """A partially written (torn) file raises InterfaceError naming the
    path, never a bare json.JSONDecodeError."""
    good = str(tmp_path / "Lib.bti")
    write_interface(good, "Lib", all_schemes(LIB))
    text = open(good).read()
    bad = tmp_path / "Torn.bti"
    bad.write_text(text[: len(text) // 2])
    with pytest.raises(InterfaceError) as excinfo:
        read_interface(str(bad))
    assert "Torn.bti" in str(excinfo.value)


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2, 3]",  # valid JSON, wrong top-level shape
        '"just a string"',
        '{"format": 1, "schemes": {}}',  # module missing
        '{"format": 1, "module": "X"}',  # schemes missing
        '{"format": 1, "module": "X", "schemes": []}',  # schemes wrong type
        '{"format": 1, "module": "X", "schemes": {"f": {"args": "?"}}}',
    ],
)
def test_structurally_wrong_interface_rejected(tmp_path, payload):
    path = tmp_path / "Bad.bti"
    path.write_text(payload)
    with pytest.raises(InterfaceError):
        read_interface(str(path))


def test_wrong_format_version_rejected(tmp_path):
    path = str(tmp_path / "Bad.bti")
    (tmp_path / "Bad.bti").write_text('{"format": 999, "module": "X", "schemes": {}}')
    with pytest.raises(InterfaceError):
        read_interface(path)


def test_write_interface_is_atomic(tmp_path, monkeypatch):
    """A crash mid-serialisation must leave the previous file intact and
    no temp droppings behind."""
    path = str(tmp_path / "Lib.bti")
    schemes = all_schemes(LIB)
    write_interface(path, "Lib", schemes)
    before = open(path).read()

    import repro.bt.interface as iface_mod

    def explode(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(iface_mod, "interface_text", explode)
    with pytest.raises(RuntimeError):
        write_interface(path, "Lib", schemes)
    monkeypatch.undo()
    assert open(path).read() == before

    # Interrupt *after* serialisation, inside the actual write.
    real_replace = os.replace

    def no_replace(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError):
        write_interface(path, "Lib", schemes)
    monkeypatch.setattr(os, "replace", real_replace)
    assert open(path).read() == before
    assert sorted(os.listdir(str(tmp_path))) == ["Lib.bti"], "no temp leftovers"


def test_interface_serialisation_is_canonical(tmp_path):
    """Writing the same schemes twice gives byte-identical files — the
    property the digest scheme equates with semantic equality."""
    schemes = all_schemes(LIB)
    a, b = str(tmp_path / "A.bti"), str(tmp_path / "B.bti")
    write_interface(a, "Lib", schemes)
    write_interface(b, "Lib", dict(reversed(list(schemes.items()))))
    assert open(a).read() == open(b).read()
    assert interface_digest(a) == interface_digest(b)


def test_v2_round_trip_is_byte_stable():
    schemes = all_schemes(LIB)
    text = interface_text("Lib", schemes)
    store = InterfaceStore()
    iface = store.load_text(text)
    assert iface.format == 2
    assert iface.schemes == schemes
    assert iface.stored_digests == iface.digests
    assert store.verify(iface) == []
    # Re-serialising the parsed document is byte-stable.
    assert interface_text(iface.module, iface.schemes) == text


# A v2 interface of ``power`` as written by the polyvariant division this
# repository once had: the usual document plus a ``versions`` table.
OLD_V2_WITH_VERSIONS = """{
 "digests": {
  "power": "88361fa6b3fee6c5ea18f4306659e597bfaf4154fa37ec7aac3c8f7ce39ba2ee"
 },
 "format": 2,
 "module": "Lib",
 "schemes": {
  "power": {
   "args": [["base", "Nat", 0], ["base", "Nat", 1]],
   "dyn": [],
   "edges": [[0, 2], [0, 3], [1, 2], [3, 2]],
   "nslots": 4,
   "res": ["base", "Nat", 2],
   "unfold": 3
  }
 },
 "versions": {
  "power": [
   {"digest": "10c25c6fff8ee3b8225ec97acacc5f5d544f42bf4bda543cedd921a5e3ebc866", "pattern": "SS"},
   {"digest": "0918be4725c7e628a26f5519ddcf2215d2b2e8e1ebcf7a9ab99bf21e364df1dc", "pattern": "SD"},
   {"digest": "ba85e0a1533c804e5c4333c9d8b841905bed2c3f48214d038c2da19210fb7188", "pattern": "DS"},
   {"digest": "e463484f12b270b9f94c4d8f3b86a1d9875ba2680775678fb76649d83529e498", "pattern": "DD"}
  ]
 }
}
"""


def _without_versions(text):
    doc = json.loads(text)
    del doc["versions"]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_old_v2_file_with_versions_table_loads():
    store = InterfaceStore()
    old = store.load_text(OLD_V2_WITH_VERSIONS)
    plain = store.load_text(_without_versions(OLD_V2_WITH_VERSIONS))
    assert old.format == plain.format == 2
    assert old.schemes == plain.schemes
    assert old.digests == plain.digests
    assert old.stored_digests == plain.stored_digests
    assert store.verify(old) == store.verify(plain) == []
    # Without the table it is exactly what today's writer produces.
    power = all_schemes(LIB)["power"]
    assert _without_versions(OLD_V2_WITH_VERSIONS) == interface_text(
        "Lib", {"power": power}
    )


def test_def_digest_skew_detected_beside_a_versions_table():
    doc = json.loads(OLD_V2_WITH_VERSIONS)
    # The versions table is ignored, stale digests and all ...
    doc["versions"]["power"][0]["digest"] = "0" * 64
    store = InterfaceStore()
    assert store.verify(store.load_text(json.dumps(doc))) == []
    # ... while the def digest table next to it is still checked.
    doc["digests"]["power"] = "0" * 64
    problems = store.verify(store.load_text(json.dumps(doc)))
    assert [(rule, name) for rule, name, _m in problems] == [
        ("def_digest_skew", "power")
    ]


def test_module_key_sensitivity():
    key = module_key(b"src", [("A", "d1"), ("B", "d2")])
    assert key == module_key(b"src", [("B", "d2"), ("A", "d1")]), "order-free"
    assert key != module_key(b"src2", [("A", "d1"), ("B", "d2")])
    assert key != module_key(b"src", [("A", "XX"), ("B", "d2")])
    assert key != module_key(b"src", [("A", "d1")])
    assert key != module_key(b"src", [("A", "d1"), ("B", "d2")], {"f"})
    assert key != module_key(b"src", [("A", None), ("B", "d2")])


def _write_sources(tmp_path):
    (tmp_path / "Lib.mod").write_text(LIB)
    (tmp_path / "App.mod").write_text(APP)


def test_manager_analyses_in_dependency_order(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    schemes, analysed = manager.analyse(linked)
    assert analysed == ["Lib", "App"]
    assert set(schemes) == {"power", "ident", "cube"}
    assert os.path.exists(str(tmp_path / "Lib.bti"))
    assert os.path.exists(str(tmp_path / "App.bti"))


def test_manager_skips_up_to_date_modules(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    _, analysed = manager.analyse(linked)
    assert analysed == []


def test_manager_reanalyses_on_source_change(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    (tmp_path / "App.mod").write_text(APP + "quad y = power 4 y\n")
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    assert analysed == ["App"]


def test_manager_reanalyses_importers_when_library_interface_changes(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    # A new export changes Lib's interface, so App's key changes too.
    (tmp_path / "Lib.mod").write_text(LIB + "twice x = x + x\n")
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    assert analysed == ["Lib", "App"]


def test_manager_ignores_touch(tmp_path):
    """Timestamps are irrelevant: utime without a content change (touch,
    fresh checkout) must not re-analyse anything."""
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    import time

    future = time.time() + 100
    os.utime(str(tmp_path / "Lib.mod"), (future, future))
    os.utime(str(tmp_path / "App.mod"), (future, future))
    _, analysed = manager.analyse(linked)
    assert analysed == []


def test_early_cutoff_stops_propagation_at_unchanged_interface(tmp_path):
    """Editing Lib in a way that leaves its *interface* byte-identical
    (a comment) re-analyses Lib but — early cutoff — not App, because
    App's key is built from Lib's interface digest, not Lib's source."""
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    iface_before = open(str(tmp_path / "Lib.bti")).read()
    (tmp_path / "Lib.mod").write_text("-- a comment\n" + LIB)
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    assert analysed == ["Lib"], "the edit dirties Lib alone"
    assert open(str(tmp_path / "Lib.bti")).read() == iface_before
    # And the transitive case: a *semantic* Lib change must still reach
    # an importer-of-an-importer when the middle interface changes.
    (tmp_path / "Top.mod").write_text(
        "module Top where\nimport App\n\nmain z = cube z + 1\n"
    )
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    assert analysed == ["Top"]
    (tmp_path / "Lib.mod").write_text(LIB + "cubeof x = x * x * x\n")
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    # Lib's interface changed -> App re-analysed; App's interface is
    # byte-identical (its schemes are unchanged) -> Top is cut off.
    assert analysed == ["Lib", "App"]
    # But when the middle interface *does* change, propagation reaches
    # the importer-of-an-importer.
    (tmp_path / "App.mod").write_text(APP + "quad y = power 4 y\n")
    linked = load_program_dir(str(tmp_path))
    _, analysed = manager.analyse(linked)
    assert analysed == ["App", "Top"]


def test_manager_matches_whole_program_analysis(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    schemes, _ = manager.analyse(linked)
    whole = analyse_program(linked).schemes
    assert schemes == whole


def test_manager_force_reanalyses_everything(tmp_path):
    _write_sources(tmp_path)
    linked = load_program_dir(str(tmp_path))
    manager = InterfaceManager(str(tmp_path))
    manager.analyse(linked)
    _, analysed = manager.analyse(linked, force=True)
    assert analysed == ["Lib", "App"]
