"""The runtime's resource guards: interpreter ``fuel``, the
``deep_recursion`` stack guard (and the shared ``deep_stack`` guard
under it), the ``max_versions`` polyvariance bound,
and the wall-clock specialisation deadline (``SpecTimeout``).  Only the
happy paths were covered before; these exercise the exhaustion paths."""

import sys

import pytest

import repro
from repro.genext.runtime import SpecError, SpecTimeout, deep_recursion
from repro.interp.eval import EvalError
from repro.api import SpecOptions

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"

LOOP = """\
module Loop where

count n = if n == 0 then 0 else 1 + count (n - 1)
"""


# ---------------------------------------------------------------------------
# Interpreter fuel.
# ---------------------------------------------------------------------------


def test_fuel_exhaustion_raises_eval_error():
    linked = repro.load_program(LOOP)
    with pytest.raises(EvalError, match="out of fuel"):
        repro.run_program(linked, "count", [10_000], fuel=50)


def test_enough_fuel_succeeds():
    linked = repro.load_program(LOOP)
    assert repro.run_program(linked, "count", [5], fuel=1_000) == 5


def test_residual_run_respects_fuel():
    gp = repro.compile_genexts(POWER)
    result = repro.specialise(gp, "power", {"x": 2})
    # The residual loop still consumes fuel per step when interpreted.
    with pytest.raises(EvalError, match="out of fuel"):
        result.run(500, fuel=20)
    assert result.run(3) == 8


# ---------------------------------------------------------------------------
# The deep_recursion stack guard.
# ---------------------------------------------------------------------------


def test_deep_recursion_converts_recursion_error():
    with pytest.raises(SpecError, match="recursed too deeply"):
        with deep_recursion():
            raise RecursionError


def test_deep_recursion_raises_and_restores_the_limit():
    before = sys.getrecursionlimit()
    with deep_recursion(limit=before + 1000):
        assert sys.getrecursionlimit() == before + 1000
    assert sys.getrecursionlimit() == before

    # The limit is restored even when the guard fires.
    with pytest.raises(SpecError):
        with deep_recursion(limit=before + 1000):
            raise RecursionError
    assert sys.getrecursionlimit() == before


def test_deep_recursion_never_lowers_the_limit():
    before = sys.getrecursionlimit()
    with deep_recursion(limit=1):
        assert sys.getrecursionlimit() == before
    assert sys.getrecursionlimit() == before


def test_deep_recursion_passes_other_exceptions_through():
    with pytest.raises(ValueError):
        with deep_recursion():
            raise ValueError("not a recursion problem")


def test_real_runaway_static_unfolding_is_diagnosed():
    """An actually non-terminating static unfold hits the guard and
    comes back as a diagnostic SpecError, not a bare RecursionError."""

    from repro.genext.runtime import S, SBase

    gp = repro.compile_genexts(
        "module Diverge where\n\nspin n = spin (n + 1)\n"
    )
    original = sys.getrecursionlimit()
    # deep_recursion inside specialise raises the limit to 200_000 —
    # too slow for a test — so drive the generating extension directly
    # under a small guard: the spiral hits the ceiling fast.
    sys.setrecursionlimit(4_000)
    try:
        with pytest.raises(SpecError, match="recursed too deeply"):
            st = gp.new_state()
            with deep_recursion(limit=4_000):
                gp.mk("spin")(st, S, SBase(0))
    finally:
        sys.setrecursionlimit(original)


def test_interleaved_deep_calls_keep_the_raised_limit():
    """Two threads inside the stack guard at once: B enters, A enters,
    B exits while A still runs.  A's deep residual must still have the
    raised limit (a save/restore guard would have put the old limit
    back under it), and the limit is restored once both are out."""
    import threading

    from repro.backend.pyemit import _mangle, compile_program

    before = sys.getrecursionlimit()
    depth = 5 * before
    prog = compile_program(repro.load_program(LOOP))
    a_in, b_done = threading.Event(), threading.Event()

    def hold():  # B's body: wait until A is inside the guard too
        assert a_in.wait(30)
        return 0

    def deep(n):  # A's body: recurse only once B has left the guard
        a_in.set()
        assert b_done.wait(30)
        return prog.function("count")(n)

    prog.namespace[_mangle("hold")] = hold
    prog.namespace[_mangle("deep")] = deep
    results = {}

    def run_b():
        results["b"] = prog.call("hold")
        b_done.set()

    def run_a():
        try:
            results["a"] = prog.call("deep", depth)
        except RecursionError as exc:
            results["a"] = exc

    b = threading.Thread(target=run_b)
    a = threading.Thread(target=run_a)
    b.start()
    a.start()
    b.join(60)
    a.join(60)
    assert results == {"a": depth, "b": 0}
    assert sys.getrecursionlimit() == before


def test_nested_guards_restore_only_on_last_exit():
    from repro.stackguard import deep_stack

    before = sys.getrecursionlimit()
    outer = deep_stack(limit=before + 100)
    inner = deep_stack(limit=before + 500)
    outer.__enter__()
    inner.__enter__()
    assert sys.getrecursionlimit() == before + 500
    outer.__exit__(None, None, None)  # the first to enter leaves first
    assert sys.getrecursionlimit() == before + 500
    inner.__exit__(None, None, None)
    assert sys.getrecursionlimit() == before


# ---------------------------------------------------------------------------
# The polyvariance bound.
# ---------------------------------------------------------------------------


def test_max_versions_guard_fires():
    gp = repro.compile_genexts(POWER)
    with pytest.raises(SpecError, match="specialised versions"):
        repro.specialise(gp, "power", {"x": 2}, SpecOptions(max_versions=0))


# ---------------------------------------------------------------------------
# The wall-clock deadline (SpecTimeout).
# ---------------------------------------------------------------------------


def test_spec_timeout_is_a_spec_error():
    assert issubclass(SpecTimeout, SpecError)


def test_expired_deadline_aborts_specialisation():
    gp = repro.compile_genexts(POWER)
    with pytest.raises(SpecTimeout, match="deadline"):
        repro.specialise(gp, "power", {"n": 30}, SpecOptions(timeout=0.0))


def test_generous_deadline_changes_nothing():
    gp = repro.compile_genexts(POWER)
    result = repro.specialise(gp, "power", {"n": 3}, SpecOptions(timeout=60.0))
    assert result.run(2) == 8


def test_check_deadline_direct():
    gp = repro.compile_genexts(POWER)
    st = gp.new_state(deadline=0.0)
    with pytest.raises(SpecTimeout):
        st.check_deadline()
    unlimited = gp.new_state()
    unlimited.check_deadline()  # no deadline: never raises
