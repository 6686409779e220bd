"""Linker tests: in-memory and on-disk generating extensions."""

import os

import pytest

import repro
from repro.bench.generators import power_twice_main_source
from repro.bt.analysis import analyse_program
from repro.genext import runtime as rt
from repro.genext.cogen import GenextModule, cogen_program
from repro.genext.link import (
    GenextABIError,
    GenextProgram,
    link_genexts,
    load_genext,
    load_genext_dir,
    write_genexts,
)
from repro.modsys.program import load_program


def genexts(source, force_residual=frozenset()):
    return cogen_program(
        analyse_program(load_program(source), force_residual=force_residual)
    )


def test_link_collects_exports_and_signatures():
    gp = link_genexts(genexts(power_twice_main_source()))
    assert set(gp.registry) == {"power", "twice", "main"}
    assert gp.signature("power").params == ("n", "x")
    assert gp.fn_info["twice"].module == "Twice"


def test_link_rejects_missing_dependency():
    modules = genexts(power_twice_main_source())
    without_power = [m for m in modules if m.name != "Power"]
    with pytest.raises(Exception):
        link_genexts(without_power)


def test_link_rejects_duplicate_functions():
    modules = genexts("module A where\n\nf x = x\n") + genexts(
        "module B where\n\nf x = x\n"
    )
    with pytest.raises(ValueError):
        link_genexts(list(modules))


def test_cross_module_calls_resolve_after_link():
    gp = link_genexts(genexts(power_twice_main_source()))
    result = repro.specialise(gp, "main", {})
    assert result.run(2) == 512


def test_write_and_load_genext_dir(tmp_path):
    modules = genexts(
        power_twice_main_source(), force_residual={"power", "twice", "main"}
    )
    write_genexts(modules, str(tmp_path))
    files = sorted(os.listdir(str(tmp_path)))
    assert files == ["Main.genext.py", "Power.genext.py", "Twice.genext.py"]
    gp = load_genext_dir(str(tmp_path))
    result = repro.specialise(gp, "main", {})
    assert result.run(2) == 512
    assert {m.name for m in result.program.modules} == {
        "Main",
        "Power",
        "PowerTwice",
    }


def test_loaded_dir_recovers_import_structure(tmp_path):
    modules = genexts(power_twice_main_source())
    write_genexts(modules, str(tmp_path))
    gp = load_genext_dir(str(tmp_path))
    assert set(gp.graph.imports_of("Main")) == {"Power", "Twice"}


def test_genexts_do_not_need_sources(tmp_path):
    """The black-box property: specialisation works from the generated
    files alone, with no ``.mod`` source present anywhere."""
    modules = genexts(power_twice_main_source())
    write_genexts(modules, str(tmp_path))
    assert not any(f.endswith(".mod") for f in os.listdir(str(tmp_path)))
    gp = load_genext_dir(str(tmp_path))
    result = repro.specialise(gp, "power", {"n": 3})
    assert result.run(2) == 8


def test_generated_module_compiles_standalone():
    (module,) = genexts("module M where\n\nf x = x + 1\n")
    loaded = load_genext(module)
    assert "f" in loaded.exports
    assert loaded.signatures["f"].params == ("x",)


def _stale(source, line):
    """``source`` as a cogen recording runtime ABI ``line`` would emit it
    (``None``: one from before generated modules recorded an ABI)."""
    current = "_RT_ABI = %d\n" % rt.ABI
    assert current in source
    return source.replace(current, line or "")


@pytest.mark.parametrize("line", [None, "_RT_ABI = 1\n"])
def test_dir_generated_for_another_runtime_abi_is_rejected(tmp_path, line):
    modules = genexts(power_twice_main_source())
    write_genexts(modules, str(tmp_path))
    path = tmp_path / "Twice.genext.py"
    path.write_text(_stale(path.read_text(), line))
    with pytest.raises(GenextABIError, match="generating extension Twice "
                       "was generated for runtime ABI 1, but this runtime "
                       "is ABI %d" % rt.ABI):
        load_genext_dir(str(tmp_path))


def test_module_generated_for_another_runtime_abi_is_rejected():
    (module,) = genexts("module M where\n\nf x = x + 1\n")
    stale = GenextModule(module.name, module.imports, _stale(module.source, None))
    with pytest.raises(GenextABIError, match="generating extension M "):
        load_genext(stale)


def test_new_state_strategy_passthrough():
    gp = link_genexts(genexts("module M where\n\nf x = x\n"))
    assert gp.new_state("dfs").strategy == "dfs"
