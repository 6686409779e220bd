"""Specialisation-layer throughput: residual store, RTCG hits, batch driver.

A first-Futamura workload — specialising the register-machine
interpreter (:data:`repro.bench.generators.MACHINE_INTERPRETER`) with
respect to machine programs — measured through the three layers this
repo stacks on top of a single ``specialise`` call:

* **the residual store's disk entries** (``SpecOptions(cache_dir=...)``):
  a cold run against an empty cache vs a warm run answered from disk;
* **the residual store's compiled callables** (``repro.backend.generate``):
  a cold specialise+compile vs a hit on the key's store entry;
* **batch driver** (``specialise_many``): an 8-request batch at
  ``jobs=1`` against a cold cache, ``jobs=4`` against a cold cache
  (raw pool parallelism), and ``jobs=4`` against the warm shared cache
  (cross-process dedup — the serve-many-users steady state).  The
  parallel runs hold a resident, pre-warmed
  :class:`~repro.pipeline.pool.WorkerPool` — the daemon operating point
  (``repro.serve``), where the fork/pickle setup cost is paid once, not
  per batch.

Every variant's residual programs are pretty-printed and compared for
byte identity; the emitted ``BENCH_spec_throughput.json``
(``repro.bench.spec_throughput/v1``, schema-checked in CI by
``python -m repro.obs.schema``) refuses to record anything else.

Run directly — no pytest machinery:

    PYTHONPATH=src python benchmarks/bench_spec_throughput.py

``MSPEC_BENCH_TINY=1`` shrinks the workload for CI smoke runs; speedup
assertions that only hold at full size (or need real cores) are
reported but not enforced there.
"""

import json
import os
import sys
import tempfile
import time

import repro
from repro.api import SpecOptions
from repro.backend.rtcg import generate
from repro.bench.generators import (
    machine_interpreter_source,
    random_machine_program,
)
from repro.genext.batch import seed_worker_program, specialise_many
from repro.obs import Obs
from repro.pipeline.pool import WorkerPool
from repro.speccache import STORE
from repro.obs.schema import (
    BENCH_SPEC_THROUGHPUT_SCHEMA,
    validate_bench_spec_throughput,
)

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_spec_throughput.json"
)

TINY = os.environ.get("MSPEC_BENCH_TINY") == "1"
PROGRAM_LENGTH = 12 if TINY else 48
N_REQUESTS = 4 if TINY else 8
N_SEEDS = 3 if TINY else 6  # distinct machine programs in the batch

MIN_WARM_SPEEDUP = 10.0
MIN_LRU_SPEEDUP = 20.0
MIN_BATCH_WARM_SPEEDUP = 2.0
MIN_BATCH_PARALLEL_SPEEDUP = 2.0  # cold jobs=4 vs jobs=1; needs >= 4 cores


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best(fn, rounds):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _goal_requests():
    seeds = list(range(1, N_SEEDS + 1))
    progs = [random_machine_program(PROGRAM_LENGTH, seed=s) for s in seeds]
    # Duplicates on purpose: repeated requests are what the dedup and
    # the shared cache exist for.
    requests = [("run", {"prog": progs[i % N_SEEDS]}) for i in range(N_REQUESTS)]
    return progs, requests


def bench_residual_cache(gp, prog, tmp):
    """Cold vs warm ``specialise`` through the persistent cache."""
    fingerprints = []

    def cold():
        with tempfile.TemporaryDirectory(dir=tmp) as cache:
            result = repro.specialise(
                gp, "run", {"prog": prog}, SpecOptions(cache_dir=cache)
            )
            fingerprints.append(repro.pretty_program(result.program))

    cold_s = _best(cold, 3)

    warm_cache = os.path.join(tmp, "warm-cache")
    obs = Obs()
    repro.specialise(
        gp, "run", {"prog": prog}, SpecOptions(cache_dir=warm_cache)
    )

    def warm():
        result = repro.specialise(
            gp,
            "run",
            {"prog": prog},
            SpecOptions(cache_dir=warm_cache),
            obs=obs,
        )
        fingerprints.append(repro.pretty_program(result.program))

    warm_s = _best(warm, 5)
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("speccache.hits", 0) >= 5, counters
    identical = len(set(fingerprints)) == 1
    return cold_s, warm_s, identical


def bench_rtcg_lru(gp, prog):
    """Cold ``generate`` (specialise + compile) vs a store hit."""
    texts = []

    def cold():
        STORE.clear()
        fn = generate(gp, "run", {"prog": prog})
        texts.append(fn.python_source)

    cold_s = _best(cold, 3)

    STORE.clear()
    obs = Obs()
    first = generate(gp, "run", {"prog": prog}, obs=obs)
    rounds = 200

    def warm():
        for _ in range(rounds):
            fn = generate(gp, "run", {"prog": prog}, obs=obs)
        assert fn is first
        texts.append(fn.python_source)

    warm_s = _best(warm, 3) / rounds
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("tier.memo_hits", 0) >= rounds, counters
    identical = len(set(texts)) == 1
    return cold_s, warm_s, identical


def bench_batch(gp, requests, tmp):
    """The 8-request batch at the three interesting operating points.

    The ``jobs=4`` runs borrow one resident pool, warmed once before
    any clock starts — measuring the steady state a specialisation
    service actually runs in, not the fork+pickle setup cost an
    ephemeral pool would re-pay per batch."""
    outputs = []

    def run(jobs, cache, pool=None):
        batch = specialise_many(
            gp, requests, SpecOptions(cache_dir=cache), jobs=jobs, pool=pool
        )
        assert batch.ok, batch.render_failures()
        outputs.append(
            tuple(repro.pretty_program(r.program) for r in batch.results)
        )
        return batch

    def cold_jobs(jobs, rounds=2, pool=None):
        times = []
        for rnd in range(rounds):
            cache = os.path.join(tmp, "batch-j%d-r%d" % (jobs, rnd))
            started = time.perf_counter()
            run(jobs, cache, pool=pool)
            times.append(time.perf_counter() - started)
        return min(times)

    cold_j1 = cold_jobs(1)

    seed_worker_program(gp)  # fork-inherit the linked program
    pool = WorkerPool(4)
    pool.warm()
    try:
        cold_j4 = cold_jobs(4, pool=pool)

        shared = os.path.join(tmp, "batch-shared")
        run(1, shared)  # populate the shared cache

        def warm():
            run(4, shared, pool=pool)

        warm_j4 = _best(warm, 3)
    finally:
        pool.shutdown()
    identical = len(set(outputs)) == 1
    return cold_j1, cold_j4, warm_j4, identical


def bench_runtime_micro(gp, prog):
    """A/B micro-measurements for the runtime hot-path changes.

    ``bt_lub`` now returns the shared S/D singletons on an
    allocation-free path; the reference implementation below is the old
    always-allocating behaviour (a memoising wrapper was also tried and
    rejected — the dict probe lost to the fast path).  The whole-run
    number (one cold specialisation of the workload, no caches) is the
    end-to-end effect of ``__slots__``, the singleton lubs, and the
    cheaper ``_split`` memo keys together."""
    from repro.bt.bt import BT, bt_lub
    from repro.genext.runtime import D, S

    def bt_lub_reference(*bts):  # pre-optimisation behaviour
        if any(b.dyn for b in bts):
            return D
        params = frozenset()
        for b in bts:
            params = params | b.params
        return BT(params, False)

    args = [(S, D), (S, S), (D, D), (D, S)] * 2500

    def optimised():
        for a in args:
            bt_lub(*a)

    def reference():
        for a in args:
            bt_lub_reference(*a)

    lub_opt_s = _best(optimised, 5)
    lub_ref_s = _best(reference, 5)

    def cold_run():
        repro.specialise(gp, "run", {"prog": prog})

    spec_s = _best(cold_run, 3)
    return {
        "micro_lub_optimised_s": lub_opt_s,
        "micro_lub_reference_s": lub_ref_s,
        "micro_lub_speedup": lub_ref_s / lub_opt_s,
        "micro_cold_specialise_s": spec_s,
    }


def main():
    cpus = _cpus()
    gp = repro.compile_genexts(machine_interpreter_source())
    progs, requests = _goal_requests()

    with tempfile.TemporaryDirectory() as tmp:
        cache_cold, cache_warm, cache_ok = bench_residual_cache(
            gp, progs[0], tmp
        )
        lru_cold, lru_warm, lru_ok = bench_rtcg_lru(gp, progs[0])
        batch_j1, batch_j4_cold, batch_j4_warm, batch_ok = bench_batch(
            gp, requests, tmp
        )
    micro = bench_runtime_micro(gp, progs[0])

    identical = cache_ok and lru_ok and batch_ok
    results = {
        "cache_cold_s": cache_cold,
        "cache_warm_s": cache_warm,
        "cache_warm_speedup": cache_cold / cache_warm,
        "lru_cold_s": lru_cold,
        "lru_hit_s": lru_warm,
        "lru_speedup": lru_cold / lru_warm,
        "batch_jobs1_cold_s": batch_j1,
        "batch_jobs4_cold_s": batch_j4_cold,
        "batch_jobs4_warm_s": batch_j4_warm,
        "batch_parallel_speedup": batch_j1 / batch_j4_cold,
        "batch_warm_speedup": batch_j1 / batch_j4_warm,
    }
    results.update(micro)

    doc = {
        "schema": BENCH_SPEC_THROUGHPUT_SCHEMA,
        "cpus": cpus,
        "tiny": TINY,
        "workload": {
            "goal": "run",
            "machine_program_length": PROGRAM_LENGTH,
            "batch_requests": N_REQUESTS,
            "batch_unique": N_SEEDS,
        },
        "results": results,
        "identical": identical,
    }
    problems = validate_bench_spec_throughput(doc)
    assert not problems, problems
    with open(JSON_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    rows = [
        ("specialise, cold", cache_cold, 1.0),
        ("specialise, warm cache", cache_warm, results["cache_warm_speedup"]),
        ("generate, cold", lru_cold, 1.0),
        ("generate, LRU hit", lru_warm, results["lru_speedup"]),
        ("batch x%d, jobs=1 cold" % N_REQUESTS, batch_j1, 1.0),
        (
            "batch x%d, jobs=4 cold" % N_REQUESTS,
            batch_j4_cold,
            results["batch_parallel_speedup"],
        ),
        (
            "batch x%d, jobs=4 warm" % N_REQUESTS,
            batch_j4_warm,
            results["batch_warm_speedup"],
        ),
    ]
    print(
        "== specialisation throughput (program length %d, %d cpus%s) =="
        % (PROGRAM_LENGTH, cpus, ", tiny" if TINY else "")
    )
    for label, seconds, speedup in rows:
        print("%-28s %10.3f ms  %8.2fx" % (label, seconds * 1e3, speedup))
    print(
        "lub singleton fast path: %.2fx; byte-identical: %s"
        % (results["micro_lub_speedup"], identical)
    )
    print("wrote", JSON_PATH)

    assert identical, "residual programs differ across cache states/jobs"
    if not TINY:
        assert results["cache_warm_speedup"] >= MIN_WARM_SPEEDUP, (
            "warm cache only %.2fx faster" % results["cache_warm_speedup"]
        )
        assert results["lru_speedup"] >= MIN_LRU_SPEEDUP, (
            "LRU hit only %.2fx faster" % results["lru_speedup"]
        )
        assert results["batch_warm_speedup"] >= MIN_BATCH_WARM_SPEEDUP, (
            "warm shared-cache batch only %.2fx faster"
            % results["batch_warm_speedup"]
        )
        if cpus >= 4:
            assert (
                results["batch_parallel_speedup"]
                >= MIN_BATCH_PARALLEL_SPEEDUP
            ), (
                "--jobs 4 only %.2fx faster than --jobs 1 on %d cpus"
                % (results["batch_parallel_speedup"], cpus)
            )
        else:
            print(
                "NOTE: %d usable cpu(s); cold parallel speedup %.2fx "
                "recorded, assertion (>= %.1fx) requires >= 4 cores"
                % (cpus, results["batch_parallel_speedup"], 2.0)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
