"""Specialisation-runtime unit tests: partially static values, splitting,
coercion/dynamisation, generating versions of the primitives."""

import itertools

import pytest

from repro.genext import runtime as rt
from repro.lang.ast import Call, If, Lam, Lit, Prim, Var
from repro.lang.prims import PRIMS, PrimError, apply_prim
from repro.modsys.graph import ModuleGraph


def state(strategy="bfs"):
    fn_info = {
        "f": rt.FnInfo("f", "A", ("a", "b"), ("f",)),
        "g": rt.FnInfo("g", "B", ("x",), ("g",)),
    }
    graph = ModuleGraph({"A": (), "B": ("A",)})
    return rt.SpecState(fn_info, graph, strategy=strategy)


# -- value injection -----------------------------------------------------------


def test_from_python_base_values():
    assert rt.from_python(5) == rt.SBase(5)
    assert rt.from_python(True) == rt.SBase(True)


def test_from_python_lists_and_pairs():
    pe = rt.from_python((1, 2))
    assert pe == rt.SList((rt.SBase(1), rt.SBase(2)))
    pe = rt.from_python(("pair", 1, (2,)))
    assert pe == rt.SPair(rt.SBase(1), rt.SList((rt.SBase(2),)))


def test_to_python_roundtrip():
    for v in (0, True, (1, 2, 3), ("pair", 1, 2), ((1,), (2, 3))):
        assert rt.to_python(rt.from_python(v)) == v


def test_to_python_rejects_dynamic():
    with pytest.raises(rt.SpecError):
        rt.to_python(rt.DCode(Var("x")))


# -- dynamisation -----------------------------------------------------------------


def test_dynamize_base():
    st = state()
    assert rt.dynamize(st, rt.SBase(7)) == rt.DCode(Lit(7))


def test_dynamize_list_builds_cons_chain():
    st = state()
    out = rt.dynamize(st, rt.SList((rt.SBase(1), rt.DCode(Var("y")))))
    assert out.code == Prim(
        "cons", (Lit(1), Prim("cons", (Var("y"), Lit(()))))
    )


def test_dynamize_pair():
    st = state()
    out = rt.dynamize(st, rt.SPair(rt.SBase(1), rt.SBase(2)))
    assert out.code == Prim("pair", (Lit(1), Lit(2)))


def test_dynamize_is_identity_on_code():
    st = state()
    d = rt.DCode(Var("x"))
    assert rt.dynamize(st, d) is d


def test_dynamize_closure_residualises_lambda():
    st = state()

    def helper(st_, arg):
        return rt.mk_prim(st_, "+", rt.D, (arg, rt.DCode(Lit(1))))

    clo = rt.SClo("x", helper, (), (), "lab", ())
    out = rt.dynamize(st, clo)
    assert isinstance(out.code, Lam)
    assert out.code.body == Prim("+", (Var(out.code.var), Lit(1)))


# -- coercion ---------------------------------------------------------------------


def test_coerce_static_base_target_is_identity():
    st = state()
    pe = rt.SBase(3)
    assert rt.coerce(st, pe, rt.TBase("Nat", rt.S)) is pe


def test_coerce_dynamic_base_lifts():
    st = state()
    assert rt.coerce(st, rt.SBase(3), rt.TBase("Nat", rt.D)) == rt.DCode(Lit(3))


def test_coerce_partially_static_list():
    st = state()
    pe = rt.SList((rt.SBase(1), rt.SBase(2)))
    out = rt.coerce(st, pe, rt.TList(rt.S, rt.TBase("Nat", rt.D)))
    assert out == rt.SList((rt.DCode(Lit(1)), rt.DCode(Lit(2))))


def test_coerce_dynamic_list_dynamises_fully():
    st = state()
    pe = rt.SList((rt.SBase(1),))
    out = rt.coerce(st, pe, rt.TList(rt.D, rt.TBase("Nat", rt.D)))
    assert out.code == Prim("cons", (Lit(1), Lit(())))


def test_coerce_pair_componentwise():
    st = state()
    pe = rt.SPair(rt.SBase(1), rt.SBase(2))
    out = rt.coerce(
        st, pe, rt.TPair(rt.S, rt.TBase("Nat", rt.S), rt.TBase("Nat", rt.D))
    )
    assert out == rt.SPair(rt.SBase(1), rt.DCode(Lit(2)))


def test_coerce_skel_static_identity():
    st = state()
    pe = rt.SBase(1)
    assert rt.coerce(st, pe, rt.TSkel(rt.S)) is pe


def test_coerce_skel_dynamic_dynamises():
    st = state()
    assert rt.coerce(st, rt.SBase(1), rt.TSkel(rt.D)) == rt.DCode(Lit(1))


def test_coerce_code_where_static_spine_needed_fails():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.coerce(
            st, rt.DCode(Var("x")), rt.TList(rt.S, rt.TBase("Nat", rt.S))
        )


# -- generating versions of primitives -----------------------------------------------


def test_mk_prim_static_arithmetic():
    st = state()
    out = rt.mk_prim(st, "+", rt.S, (rt.SBase(2), rt.SBase(3)))
    assert out == rt.SBase(5)


def test_mk_prim_dynamic_builds_code():
    st = state()
    out = rt.mk_prim(st, "+", rt.D, (rt.DCode(Var("x")), rt.DCode(Lit(1))))
    assert out.code == Prim("+", (Var("x"), Lit(1)))


def test_mk_prim_static_cons_preserves_partial_values():
    st = state()
    out = rt.mk_prim(
        st, "cons", rt.S, (rt.DCode(Var("x")), rt.SList((rt.SBase(1),)))
    )
    assert out == rt.SList((rt.DCode(Var("x")), rt.SBase(1)))


def test_mk_prim_static_head_and_null():
    st = state()
    xs = rt.SList((rt.SBase(1), rt.SBase(2)))
    assert rt.mk_prim(st, "head", rt.S, (xs,)) == rt.SBase(1)
    assert rt.mk_prim(st, "null", rt.S, (xs,)) == rt.SBase(False)
    assert rt.mk_prim(st, "tail", rt.S, (xs,)) == rt.SList((rt.SBase(2),))


def test_mk_prim_static_error_surfaces_as_spec_error():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.mk_prim(st, "head", rt.S, (rt.SList(()),))
    with pytest.raises(rt.SpecError):
        rt.mk_prim(st, "div", rt.S, (rt.SBase(1), rt.SBase(0)))


# -- the generating-primitive table against the reference semantics ---------------


def _reference_prim(op, bt, args):
    """The generic semantics of a generating primitive, written without
    fast paths: residual code under ``D``; under ``S`` the structural
    ops on partially static values, and the base ops through the
    object language's own ``apply_prim``."""
    if bt.dyn:
        return rt.DCode(Prim(op, tuple(rt.code_of(a) for a in args)))
    if op in ("cons", "head", "tail", "null"):
        xs = args[-1]
        if not isinstance(xs, rt.SList):
            raise rt.SpecError(
                "static %r %s non-static list"
                % (op, "onto" if op == "cons" else "of")
            )
        if op == "cons":
            return rt.SList((args[0],) + xs.items)
        if op == "null":
            return rt.SBase(xs.items == ())
        if not xs.items:
            raise rt.SpecError("%s of empty list during specialisation" % op)
        return xs.items[0] if op == "head" else rt.SList(xs.items[1:])
    if op == "pair":
        return rt.SPair(args[0], args[1])
    if op in ("fst", "snd"):
        (p,) = args
        if not isinstance(p, rt.SPair):
            raise rt.SpecError("static %r of non-static pair" % op)
        return p.fst if op == "fst" else p.snd
    values = []
    for a in args:
        if not isinstance(a, rt.SBase):
            raise rt.SpecError("static %r applied to non-static operand" % op)
        values.append(a.value)
    try:
        return rt.SBase(apply_prim(op, values))
    except PrimError as e:
        raise rt.SpecError("primitive failed during specialisation: %s" % e)


class _Nat(int):
    """An ``int`` subclass: off every fast path, still a natural."""


_OPERANDS = (
    rt.SBase(0),
    rt.SBase(7),
    rt.SBase(3),
    rt.SBase(True),
    rt.SBase(False),
    rt.SBase(_Nat(2)),
    rt.SBase(_Nat(0)),
    rt.SList(()),
    rt.SList((rt.SBase(1), rt.DCode(Var("y")))),
    rt.SPair(rt.SBase(1), rt.DCode(Var("z"))),
    rt.DCode(Var("x")),
)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as e:  # compared by class and message
        return ("raises", type(e), str(e))
    value_type = type(out.value) if isinstance(out, rt.SBase) else None
    return ("returns", type(out), out, value_type)


def test_prim_gen_covers_every_primitive():
    assert set(rt.PRIM_GEN) == set(PRIMS)


@pytest.mark.parametrize("bt", [rt.S, rt.D], ids=["S", "D"])
@pytest.mark.parametrize("op", sorted(PRIMS))
def test_prim_gen_matches_reference_semantics(op, bt):
    st = state()
    gen = rt.PRIM_GEN[op]
    for args in itertools.product(_OPERANDS, repeat=PRIMS[op].arity):
        expected = _outcome(_reference_prim, op, bt, args)
        assert _outcome(gen, st, bt, *args) == expected, (op, bt, args)
        assert _outcome(rt.mk_prim, st, op, bt, args) == expected


@pytest.mark.parametrize(
    "op, args, outcome",
    [
        ("-", (3, 7), rt.SBase(0)),  # monus
        ("-", (7, 3), rt.SBase(4)),
        ("div", (7, 0), "primitive failed during specialisation: "
                        "division by zero"),
        ("mod", (7, 0), "primitive failed during specialisation: "
                        "modulo by zero"),
        ("+", (True, 1), "primitive failed during specialisation: "
                         "expected a natural, got True"),
        ("==", (_Nat(2), 2), rt.SBase(True)),
        ("head", (rt.SList(()),), "head of empty list during specialisation"),
    ],
)
def test_prim_gen_edge_cases(op, args, outcome):
    st = state()
    args = tuple(a if isinstance(a, rt.PE) else rt.SBase(a) for a in args)
    if isinstance(outcome, str):
        with pytest.raises(rt.SpecError) as info:
            rt.PRIM_GEN[op](st, rt.S, *args)
        assert str(info.value) == outcome
    else:
        assert rt.PRIM_GEN[op](st, rt.S, *args) == outcome


def test_mk_if_static_takes_one_branch():
    st = state()
    taken = []
    out = rt.mk_if(
        st,
        rt.S,
        rt.SBase(True),
        lambda: taken.append("then") or rt.SBase(1),
        lambda: taken.append("else") or rt.SBase(2),
    )
    assert out == rt.SBase(1)
    assert taken == ["then"]


def test_mk_if_dynamic_builds_both_branches():
    st = state()
    out = rt.mk_if(
        st,
        rt.D,
        rt.DCode(Var("c")),
        lambda: rt.DCode(Lit(1)),
        lambda: rt.DCode(Lit(2)),
    )
    assert out.code == If(Var("c"), Lit(1), Lit(2))


def test_mk_if_static_requires_boolean():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.mk_if(st, rt.S, rt.SBase(3), lambda: None, lambda: None)


def test_mk_app_static_unfolds_closure():
    st = state()
    clo = rt.SClo(
        "x",
        lambda st_, arg: rt.mk_prim(st_, "+", rt.S, (arg, rt.SBase(1))),
        (),
        (),
        "lab",
        (),
    )
    assert rt.mk_app(st, rt.S, clo, rt.SBase(41)) == rt.SBase(42)


def test_mk_app_dynamic_builds_application():
    st = state()
    out = rt.mk_app(st, rt.D, rt.DCode(Var("f")), rt.DCode(Lit(1)))
    from repro.lang.ast import App

    assert out.code == App(Var("f"), Lit(1))


# -- mk_resid -------------------------------------------------------------------------


def _build_id_body(args):
    return rt.DCode(args[0].code)


def test_unfold_counts_without_residualising():
    st = state()
    rt.unfold(st)
    assert st.stats.unfolds == 1
    assert st.stats.specialisations == 0
    assert st.done == {}


def test_unfold_checks_the_deadline():
    st = rt.SpecState({}, ModuleGraph({}), deadline=0.0)
    with pytest.raises(rt.SpecTimeout):
        rt.unfold(st)


def test_mk_resid_creates_residual_function():
    st = state()
    out = rt.mk_resid(
        st, "f", (rt.D,), (rt.DCode(Var("q")),), _build_id_body,
    )
    assert isinstance(out.code, Call)
    assert out.code.args == (Var("q"),)
    st.run_pending()
    assert len(st.defs) == 1
    placement, d = st.defs[0]
    assert placement == frozenset({"A"})


def test_mk_resid_memoises_on_static_parts():
    st = state()
    out1 = rt.mk_resid(
        st, "f", (rt.S, rt.D), (rt.SBase(3), rt.DCode(Var("a"))),
        lambda args: rt.DCode(args[0].code if isinstance(args[0], rt.DCode) else Lit(0)),
    )
    out2 = rt.mk_resid(
        st, "f", (rt.S, rt.D), (rt.SBase(3), rt.DCode(Var("b"))),
        lambda args: rt.DCode(Lit(0)),
    )
    assert out1.code.func == out2.code.func  # same residual function
    assert out1.code.args == (Var("a"),)
    assert out2.code.args == (Var("b"),)
    assert st.stats.specialisations == 1
    assert st.stats.memo_hits == 1


def test_mk_resid_distinguishes_binding_times():
    st = state()
    a = rt.mk_resid(
        st, "f", (rt.S,), (rt.SBase(1),),
        lambda args: rt.DCode(Lit(1)),
    )
    b = rt.mk_resid(
        st, "f", (rt.D,), (rt.DCode(Lit(1)),),
        lambda args: rt.DCode(Lit(1)),
    )
    assert a.code.func != b.code.func


def test_mk_resid_closure_static_part_in_key():
    st = state()

    def helper(st_, arg, k):
        return arg

    def call_with(kval, varname):
        clo = rt.SClo("x", helper, (), (("k", kval),), "lab", ("g",))
        return rt.mk_resid(
            st, "f", (rt.S,), (clo,),
            lambda args: rt.DCode(Lit(0)),
        )

    a = call_with(rt.SBase(1), "p")
    b = call_with(rt.SBase(1), "q")
    c = call_with(rt.SBase(2), "r")
    assert a.code.func == b.code.func
    assert a.code.func != c.code.func


def test_mk_resid_closure_dynamic_env_becomes_parameter():
    st = state()

    def helper(st_, arg, k):
        return rt.mk_prim(st_, "+", rt.D, (arg, k))

    clo = rt.SClo("x", helper, (), (("k", rt.DCode(Var("z")),),), "lab", ("g",))
    out = rt.mk_resid(
        st, "f", (rt.S,), (clo,),
        lambda args: args[0].apply(st, rt.DCode(Var("w"))),
    )
    # The dynamic environment component is passed as an argument.
    assert out.code.args == (Var("z"),)
    st.run_pending()


def test_placement_uses_closure_fvs():
    st = state()
    clo = rt.SClo("x", lambda st_, a: a, (), (), "lab", ("g",))
    placement = st.place("f", (clo,))
    # f lives in A, g in B; B imports A, so the combination reduces to B.
    assert placement == frozenset({"B"})


def test_fresh_names_are_deterministic():
    st = state()
    assert st.fresh_fun_name("f") == "f_1"
    assert st.fresh_fun_name("f") == "f_2"
    assert st.fresh_var("x") == "x_1"


def test_invalid_strategy_rejected():
    with pytest.raises(ValueError):
        rt.SpecState({}, ModuleGraph({}), strategy="zigzag")
