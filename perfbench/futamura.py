"""The ``futamura`` workload: the first Futamura projection, in-process.

Set-up is ``compile_genexts`` of the register-machine interpreter.  Each
op specialises ``run`` to a fresh seeded machine program with no
residual cache, emits and compiles the residual to Python and calls it
on seeded ``acc`` inputs.  Genext execution does nearly all the work;
the front end runs only in set-up and no cache or daemon is touched.
"""

import math
import time

import repro
from repro.interp import run_program
from repro.obs import Obs, Tracer

from perfbench import common, gen

SETUP_REPEATS = 31
WINDOW = len(gen.POOL)  # ops whose counts must repeat exactly
EXEC_REPEATS = 20  # calls per acc input when timing the compiled residual
DESIGNATED = ("specialisation",)


def one_op(gp, i, seed, prog, tracer, record):
    """Specialise, emit, compile and call; appends the op's record."""
    obs = Obs(tracer=tracer) if tracer.enabled else None
    accs = gen.acc_inputs(seed, i)
    with tracer.span("op", cat="bench", op=i):
        t0 = time.perf_counter()
        with tracer.span("spec.specialise", cat="bench", op=i):
            result = repro.specialise(gp, "run", {"prog": prog}, obs=obs)
        t1 = time.perf_counter()
        fn, backend_ms = common.compile_residual(tracer, result, i)
        values = []
        with tracer.span("backend.exec", cat="bench", op=i):
            for acc in accs:
                values.append(fn(acc))
            t4 = time.perf_counter()
            for _ in range(EXEC_REPEATS):
                for acc in accs:
                    fn(acc)
        t5 = time.perf_counter()
    record.append(
        {
            "i": i,
            "ms": (t5 - t0) * 1000.0,
            "spec_ms": (t1 - t0) * 1000.0,
            "backend_ms": backend_ms,
            "emit_ms": common.emit_ms(result) if tracer.enabled else None,
            "exec_us": (t5 - t4) * 1e6 / (EXEC_REPEATS * len(accs)),
            "accs": accs,
            "values": values,
            "result": result if i < WINDOW else None,
        }
    )


def timed_phase(gp, seed, seconds, tracer):
    """Ops until ``seconds`` have passed and the exact-count window is
    complete; returns (per-op records, phase seconds)."""
    record = []
    phase = common.Phase(seconds)
    i = 0
    while i < WINDOW or not phase.over():
        prog = common.as_program(gen.pool_program(seed, "futamura", i))
        one_op(gp, i, seed, prog, tracer, record)
        i += 1
    return record, phase.elapsed()


def window_counts(record):
    """Deterministic counts over the first ``WINDOW`` ops."""
    counts = {}
    for r in record[:WINDOW]:
        common.add_spec_counts(counts, r["result"])
    return counts


def oracle(record, seed, linked):
    """Every compiled residual against the general interpreter: all
    ``acc`` inputs for the window ops, one rotating input for the rest.
    Returns (wrong outputs, interpreter microseconds per call,
    per-call speedups)."""
    wrong, interp_us, speedups = [], [], []
    for r in record:
        i = r["i"]
        picks = range(len(r["accs"])) if i < WINDOW else [i % len(r["accs"])]
        prog = common.as_program(gen.pool_program(seed, "futamura", i))
        for k in picks:
            acc = r["accs"][k]
            t0 = time.perf_counter()
            expected = run_program(linked, "run", [prog, acc], fuel=10_000_000)
            us = (time.perf_counter() - t0) * 1e6
            interp_us.append(us)
            speedups.append(us / max(r["exec_us"], 1e-3))
            if r["values"][k] != expected:
                wrong.append((i, acc, r["values"][k], expected))
    return wrong, interp_us, speedups


def run(seed, seconds, trace, budget):
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        gp = repro.compile_genexts(gen.MACHINE)
        setups.append(time.perf_counter() - t)
    linked = repro.load_program(gen.MACHINE)

    with common.RssSampler() as rss:
        record, elapsed = timed_phase(gp, seed, seconds, common.NULL)
    counts = window_counts(record)
    wrong, interp_us, speedups = oracle(record, seed, linked)
    out = {
        "attempted": len(record),
        "failed": 0,
        "wrong": wrong,
        "counts": counts,
    }
    ops_ms = [r["ms"] for r in record]
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": common.median(ops_ms),
            "op_ms_tail": common.percentile(ops_ms, 90),
            "ops_per_s": len(record) / elapsed,
            "ok_ratio": 1.0 - len({w[0] for w in wrong}) / len(record),
            "resid_chars": counts["resid_chars"],
            "peak_rss_mb": rss.peak_mb,
        }
        out["extra"] = {
            "op_ms_p90": out["metrics"]["op_ms_tail"],
            "resid_exec_us_p50": common.median([r["exec_us"] for r in record]),
        }
        return out

    # Traced run: the front end split call by call, then the same op
    # sequence again with spans on.
    tracer = Tracer()
    fronts = []
    for _ in range(SETUP_REPEATS):
        gp_t, genexts, steps = common.front_end(tracer, gen.MACHINE)
        fronts.append(steps)
    traced, _ = timed_phase(gp_t, seed, seconds, tracer)
    traced_counts = window_counts(traced)
    out["trace_drift"] = sorted(
        k for k in counts if counts[k] != traced_counts[k]
    )
    wrong_t, _, _ = oracle(traced[:WINDOW], seed, linked)
    out["wrong"] += wrong_t
    n = min(len(record), len(traced))
    untraced_p50 = common.median([r["ms"] for r in record[:n]])
    traced_p50 = common.median([r["ms"] for r in traced[:n]])
    attr = common.attribute(tracer.events, len(traced), tracer.pid)
    out["attribution_ok"] = common.attribution_report(attr, DESIGNATED)
    out["trace_path"] = common.write_json(
        "traces/futamura-%d.json" % seed, tracer.to_chrome()
    )
    spec_ms_window = sum(r["spec_ms"] for r in traced[:WINDOW])
    names = attr["names_ms"]
    metrics = {
        step: common.median([f[step] for f in fronts]) for step in fronts[0]
    }
    metrics.update(common.genext_size(genexts, gen.MACHINE))
    metrics.update(common.spec_ratios(counts, spec_ms_window))
    metrics.update(common.backend_split(traced))
    metrics.update(
        {
            "spec.specialise_ms": common.median(
                [r["spec_ms"] for r in traced]
            ),
            "spec.pump_ms": names.get("pending-pump", 0.0),
            "spec.assemble_ms": names.get("assemble", 0.0),
            "spec.mk_resid_ms": names.get("mk_resid", 0.0),
            "residual.chars": counts["resid_chars"],
            "backend.exec_us": common.median([r["exec_us"] for r in traced]),
            "interp.run_us": common.median(interp_us),
            "backend.speedup_vs_interp": math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            ),
        }
    )
    for k in (
        "spec.specialisations",
        "spec.unfolds",
        "spec.memo_hits",
        "spec.residual_nodes",
        "spec.pending_peak",
        "residual.modules",
    ):
        metrics[k] = counts[k]
    metrics.update(common.layer_metrics(attr, untraced_p50, traced_p50, out))
    out["metrics"] = metrics
    return out
