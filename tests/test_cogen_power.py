"""E3: the cogen output for ``power`` has the structure of Fig. 3.

Fig. 3 shows ``mk-power`` (deciding unfold/residualise via ``mk-resid``
with the identification triple and the body builder) and
``mk-power-body`` (one ``mk-op`` per operation with a binding-time
parameter, coercions included).  Our cogen resolves what it can at
cogen time: the unfold decision is a branch in ``mk_power``, each
operation calls its own generating primitive, and literals are pre-built
constants.
"""

import pytest

import repro
from repro.bt.analysis import analyse_program
from repro.bench.generators import power_source
from repro.genext.cogen import cogen_module, cogen_program, mangle, mk_name
from repro.genext.link import link_genexts
from repro.interp.eval import run_program
from repro.modsys.program import load_program

POWER_BODY_RETURN = (
    "    return rt.mk_if(st, t, "
    "rt.prim_eq(st, t, n, (_D1 if t.dyn else _S1)), "
    "lambda: rt.coerce(st, x, rt.TBase('Nat', rt.lub(t, u))), "
    "lambda: rt.prim_mul(st, rt.lub(t, u), "
    "rt.coerce(st, x, rt.TBase('Nat', rt.lub(t, u))), "
    "mk_power(st, t, u, "
    "rt.prim_sub(st, t, n, (_D1 if t.dyn else _S1)), x)))"
)


@pytest.fixture(scope="module")
def power_genext():
    analysis = analyse_program(load_program(power_source()))
    return cogen_module(analysis.modules[0])


def _function(src, name):
    """The source lines of the generated function ``name``."""
    lines = src.splitlines()
    start = lines.index("def %s:" % name)
    end = lines.index("", start)
    return lines[start:end]


def test_module_identity(power_genext):
    assert power_genext.name == "Power"
    assert power_genext.imports == ()


def test_mk_power_pair_exists(power_genext):
    lines = power_genext.source.splitlines()
    assert "def mk_power(st, t, u, n, x):" in lines
    assert "def mk_power_body(st, t, u, n, x):" in lines


def test_mk_power_calls_mk_resid_with_triple(power_genext):
    # name, binding times, arguments, and the body builder.
    assert (
        "    return rt.mk_resid(st, _QUAL + 'power', (t, u), (n, x), "
        "lambda _a: mk_power_body(st, t, u, _a[0], _a[1]))"
        in power_genext.source.splitlines()
    )


def test_unfold_thunk_and_body_builder(power_genext):
    # Unfold on t: a static t counts the unfold and runs the body
    # generator directly, with no thunk; a dynamic t hands mk_resid the
    # body builder.
    assert _function(power_genext.source, "mk_power(st, t, u, n, x)") == [
        "def mk_power(st, t, u, n, x):",
        "    if not t.dyn:",
        "        return mk_power_body(rt.unfold(st), t, u, n, x)",
        "    return rt.mk_resid(st, _QUAL + 'power', (t, u), (n, x), "
        "lambda _a: mk_power_body(st, t, u, _a[0], _a[1]))",
    ]


def test_operations_carry_binding_times(power_genext):
    # if and == on t, * on the lub of t and u, - on t.
    assert _function(power_genext.source, "mk_power_body(st, t, u, n, x)") == [
        "def mk_power_body(st, t, u, n, x):",
        POWER_BODY_RETURN,
    ]


def test_coercions_present(power_genext):
    lines = power_genext.source.splitlines()
    # The literal 1 coerced to Nat^t: pre-built static and lifted forms.
    assert "_S1 = rt.SBase(1)" in lines
    assert "_D1 = rt.DCode(rt.Lit(1))" in lines
    assert "(_D1 if t.dyn else _S1)" in POWER_BODY_RETURN
    # x coerced to Nat^(t|u).
    assert "rt.coerce(st, x, rt.TBase('Nat', rt.lub(t, u)))" in POWER_BODY_RETURN
    assert POWER_BODY_RETURN in lines


def test_recursive_call_is_direct(power_genext):
    assert POWER_BODY_RETURN in power_genext.source.splitlines()
    assert (
        "mk_power(st, t, u, "
        "rt.prim_sub(st, t, n, (_D1 if t.dyn else _S1)), x)"
        in POWER_BODY_RETURN
    )


def test_metadata_tables(power_genext):
    src = power_genext.source
    assert "_SIGNATURES[_QUAL + 'power'] = rt.Signature(bt_params=('t', 'u')" in src
    assert ("_FN_INFO[_QUAL + 'power'] = rt.FnInfo(_QUAL + 'power', _MODULE, "
        "('n', 'x'), (_QUAL + 'power',))") in src
    assert "_EXPORTS = {(_QUAL + 'power'): mk_power}" in src


def test_generated_source_compiles():
    analysis = analyse_program(load_program(power_source()))
    module = cogen_module(analysis.modules[0])
    compile(module.source, "<power genext>", "exec")


def test_cogen_is_deterministic():
    a1 = analyse_program(load_program(power_source()))
    a2 = analyse_program(load_program(power_source()))
    assert cogen_module(a1.modules[0]).source == cogen_module(a2.modules[0]).source


def test_cogen_per_module_independence():
    # The genext of a module is identical whether the module is compiled
    # alone or as part of a larger program — the paper's black-box
    # modularity property.
    alone = analyse_program(load_program(power_source()))
    together = analyse_program(
        load_program(
            power_source()
            + "\nmodule Use where\nimport Power\n\ncube y = power 3 y\n"
        )
    )
    assert (
        cogen_module(alone.modules[0]).source
        == cogen_module(together.modules[0]).source
    )


def test_imported_functions_are_linked_not_inlined():
    analysis = analyse_program(
        load_program(
            power_source()
            + "\nmodule Use where\nimport Power\n\ncube y = power 3 y\n"
        )
    )
    use = cogen_program(analysis)[1]
    assert use.name == "Use"
    assert "'power': 'mk_power'" in use.source
    assert "def mk_power(" not in use.source  # not copied in


def test_mangle():
    assert mangle("foo") == "foo"
    assert mangle("x'") == "x_q"
    assert mangle("lambda") == "lambda_v"
    assert mangle("st") == "st_v"
    assert mk_name("f'") == "mk_f_q"


def test_lambda_helpers_are_hoisted():
    analysis = analyse_program(
        load_program(
            "module M where\n\n"
            "apply f x = f @ x\n"
            "go k x = apply (\\y -> y + k) x\n"
        )
    )
    src = cogen_module(analysis.modules[0]).source
    assert "def _go_lam1(" in src
    assert "rt.mk_lam(st, 'y', _go_lam1," in src
    assert "'go.lam1'" in src


@pytest.mark.parametrize(
    "body",
    [
        "_t + z",
        "if _t == z then y else _t + z",
        "(\\w -> _t + z + w) @ y",
    ],
)
def test_generated_locals_never_shadow_user_names(body):
    # ``_t`` mangles to ``_t_v``, which must stay the parameter: no
    # generated local (such as the lub of binding-time parameters t and
    # v) may take its name.
    linked = load_program("module M where\n\nf _t y z = %s\n" % body)
    src = cogen_program(analyse_program(linked))[0].source
    assert "def mk_f_body(st, t, u, v, _t_v, y, z):" in src.splitlines()
    assert not any(line.startswith("    _t_v =") for line in src.splitlines())
    gp = repro.compile_genexts(linked)
    result = repro.specialise(gp, "f", {"_t": 4, "z": 5})
    for y in (0, 4, 9):
        assert result.run(y) == run_program(linked, "f", [4, y, 5])
