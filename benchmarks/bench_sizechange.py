"""Size-change unfolding on E4-E6 workloads.

Three scenarios from the paper's experiment families (Sec. 6), each run
under the default ``unfolding="lub"`` and under
``unfolding="size-change"`` (``docs/analyses.md``):

* **memory-lookup** (E5 family) — a machine's static memory consulted
  through a null-guarded lookup at one dynamic address.  Under the
  Similix lub rule the dynamic index residualises the whole loop; the
  size-change analysis proves the static list strictly decreases, so
  ``unfolding="size-change"`` collapses the residual to a closed chain
  of conditionals over the memory cells.
* **library-lookup** (E6 family) — a library of static tables, a client
  consulting each at a dynamic index.  Same lookup shape, one call site
  per table, so the unfold win scales with the library.
* **poly-dispatch** (E4 family) — library loops each used at two ground
  binding-time patterns, with the recursion under dynamic control.
  Size-change proves nothing here, so this is the no-win control: both
  residuals are the same size.  (The name is historical: the scenario
  once priced the removed polyvariant division.)

Every scenario's residuals are value-checked against direct
interpretation of the source program; the emitted
``BENCH_sizechange.json`` (``repro.bench.sizechange/v1``, schema-checked
by ``python -m repro.obs.schema``) refuses to record a run where any
value diverges or where fewer than two scenarios show a measurable
size-change win.

Run directly — no pytest machinery:

    PYTHONPATH=src python benchmarks/bench_sizechange.py

``MSPEC_BENCH_TINY=1`` shrinks the workloads for CI smoke runs.
"""

import json
import os
import sys
import time

import repro
from repro.api import SpecOptions
from repro.bench.generators import (
    dual_pattern_program,
    library_lookup_program,
    memory_lookup_program,
)
from repro.genext.engine import specialise
from repro.interp import run_program
from repro.lang.pretty import pretty_program
from repro.modsys.program import load_program
from repro.obs.schema import BENCH_SIZECHANGE_SCHEMA, validate_bench_sizechange

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_sizechange.json"
)

TINY = os.environ.get("MSPEC_BENCH_TINY") == "1"
MEMORY_CELLS = 4 if TINY else 8
LIB_TABLES = 2 if TINY else 4
LIB_CELLS = 4 if TINY else 8
POLY_FUNCS = 2 if TINY else 4
SEED = 7
REPS = 50 if TINY else 400


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _full_args(linked, goal, static, vec, dyn_params):
    """The goal's full argument list in parameter order."""
    d = {name: value for name, value in static.items()}
    d.update(dict(zip(dyn_params, vec)))
    _, goal_def = linked.find_def(goal)
    params = goal_def.params
    return [d[p] for p in params]


def _specialise(source, goal, static, unfolding="lub"):
    opts = SpecOptions(unfolding=unfolding)
    gp = repro.compile_genexts(source, opts)
    res = specialise(gp, goal, static, options=opts)
    genext_chars = sum(len(m.source) for m in gp.modules.values())
    return res, pretty_program(res.program), genext_chars


def _time_runs(res, dyn_vectors):
    """Mean warm residual run time in microseconds."""
    for vec in dyn_vectors:  # warm-up: compile/caches out of the timing
        res.run(*vec)
    started = time.perf_counter()
    for _ in range(REPS):
        for vec in dyn_vectors:
            res.run(*vec)
    return (time.perf_counter() - started) / (REPS * len(dyn_vectors)) * 1e6


def _scenario(source, goal, static, dyn_params, dyn_vectors):
    """One scenario: the lub baseline vs size-change, with interpreter
    value checks on top.  Returns ``(record, values_ok)``."""
    linked = load_program(source)
    expected = {
        vec: run_program(
            linked, goal, _full_args(linked, goal, static, vec, dyn_params)
        )
        for vec in dyn_vectors
    }

    base_res, base_text, base_genext = _specialise(source, goal, static)
    sc_res, sc_text, _ = _specialise(
        source, goal, static, unfolding="size-change"
    )

    values_ok = all(
        res.run(*vec) == expected[vec]
        for res in (base_res, sc_res)
        for vec in dyn_vectors
    )

    record = {
        "baseline_chars": len(base_text),
        "sizechange_chars": len(sc_text),
        "baseline_run_us": _time_runs(base_res, dyn_vectors),
        "sizechange_run_us": _time_runs(sc_res, dyn_vectors),
        "genext_mono_chars": base_genext,
    }
    return record, values_ok


def main():
    cpus = _cpus()
    scenarios = {}
    values_ok = True

    # -- E5: static machine memory, dynamic address --------------------------
    source, goal, static, dyn = memory_lookup_program(MEMORY_CELLS, seed=SEED)
    vectors = tuple((a,) for a in (0, 1, MEMORY_CELLS - 1, MEMORY_CELLS + 3))
    record, v_ok = _scenario(source, goal, static, dyn, vectors)
    record["family"] = "e5"
    scenarios["memory-lookup"] = record
    values_ok &= v_ok

    # -- E6: static table library, dynamic index -----------------------------
    source, goal, static, dyn = library_lookup_program(
        LIB_TABLES, LIB_CELLS, seed=SEED
    )
    vectors = tuple((i,) for i in (0, LIB_CELLS // 2, LIB_CELLS - 1))
    record, v_ok = _scenario(source, goal, static, dyn, vectors)
    record["family"] = "e6"
    scenarios["library-lookup"] = record
    values_ok &= v_ok

    # -- E4: two binding-time patterns per library loop ----------------------
    source, goal, static, dyn = dual_pattern_program(POLY_FUNCS, seed=SEED)
    vectors = tuple((d,) for d in (0, 2, 9))
    record, v_ok = _scenario(source, goal, static, dyn, vectors)
    record["family"] = "e4"
    scenarios["poly-dispatch"] = record
    values_ok &= v_ok

    doc = {
        "schema": BENCH_SIZECHANGE_SCHEMA,
        "cpus": cpus,
        "tiny": TINY,
        "workload": {
            "memory_cells": MEMORY_CELLS,
            "library_tables": LIB_TABLES,
            "library_cells": LIB_CELLS,
            "poly_funcs": POLY_FUNCS,
            "reps": REPS,
            "seed": SEED,
        },
        "scenarios": scenarios,
        "values_identical": values_ok,
    }
    problems = validate_bench_sizechange(doc)
    assert not problems, problems
    with open(JSON_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    print(
        "== size-change unfolding (%d cpus%s) =="
        % (cpus, ", tiny" if TINY else "")
    )
    for name in sorted(scenarios):
        s = scenarios[name]
        shrink = 1 - s["sizechange_chars"] / s["baseline_chars"]
        print(
            "%-16s %-4s residual %5d -> %5d chars (%+5.1f%%)  "
            "run %7.1f -> %7.1f us"
            % (
                name,
                s["family"],
                s["baseline_chars"],
                s["sizechange_chars"],
                -shrink * 100,
                s["baseline_run_us"],
                s["sizechange_run_us"],
            )
        )
    print("values identical: %s" % values_ok)
    print("wrote", JSON_PATH)

    assert values_ok, "a strategy residual diverged from the interpreter"
    return 0


if __name__ == "__main__":
    sys.exit(main())
