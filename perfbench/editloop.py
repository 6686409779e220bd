"""The ``edit-loop`` workload: the developer loop over a module DAG.

Set-up is the cold ``build_dir`` of a seeded layered DAG (a few hundred
modules plus the paper's Sec. 5 Power/Twice corner) into empty caches,
with ``jobs`` equal to the cpu budget.  Each op applies one seeded
single-definition edit, rebuilds, links, specialises a cross-module
goal whose residual spans several modules, emits it to Python and runs
it once.  Two edits in three change only a constant (the binding-time
scheme is unchanged, so early cutoff applies); every third flips a
definition between its static- and dynamic-test variant (the scheme
changes, so dependents are re-analysed).
"""

import filecmp
import os
import shutil
import time

import repro
from repro.api import BuildOptions
from repro.interp import run_program
from repro.obs import Obs, Tracer

from perfbench import common, gen

SETUP_REPEATS = 5
NOOP_REPEATS = 5
WINDOW = 9  # ops whose counts must repeat exactly
DYNAMIC_X = 3
DESIGNATED = ("front_end",)
STAGES = ("scan", "cache", "incremental", "analyse", "publish", "link")


class Workspace:
    """One source tree with its own build cache and published
    interfaces / generating extensions."""

    def __init__(self, root, dag):
        self.root = root
        self.src = os.path.join(root, "src")
        self.dag = dag
        os.makedirs(self.src)
        for name, text in dag.sources().items():
            self.write(name, text)

    def write(self, name, text):
        with open(os.path.join(self.src, name + ".mod"), "w") as f:
            f.write(text)

    def options(self, jobs):
        return BuildOptions(
            jobs=jobs,
            cache_dir=os.path.join(self.root, "cache"),
            iface_dir=os.path.join(self.root, "iface"),
            out_dir=os.path.join(self.root, "out"),
            force_residual=gen.FORCE_RESIDUAL,
        )


def cold_build(root, seed, jobs):
    ws = Workspace(root, gen.Dag(seed))
    t = time.perf_counter()
    repro.build_dir(ws.src, ws.options(jobs))
    return ws, time.perf_counter() - t


def one_op(ws, i, seed, jobs, tracer, record):
    obs = Obs(tracer=tracer) if tracer.enabled else None
    with tracer.span("op", cat="bench", op=i):
        t0 = time.perf_counter()
        name, kind = ws.dag.edit(seed, i)
        ws.write(name, ws.dag.module_source(name))
        with tracer.span("pipeline.build", cat="bench", op=i):
            build = repro.build_dir(ws.src, ws.options(jobs), obs=obs)
        with tracer.span("pipeline.link", cat="bench", op=i):
            gp = build.link()
        t1 = time.perf_counter()
        with tracer.span("spec.specialise", cat="bench", op=i):
            result = repro.specialise(gp, gen.GOAL, gen.GOAL_STATIC, obs=obs)
        t2 = time.perf_counter()
        fn, backend_ms = common.compile_residual(tracer, result, i)
        with tracer.span("backend.exec", cat="bench", op=i):
            value = fn(DYNAMIC_X)
        t3 = time.perf_counter()
    totals = build.rebuild.as_dict()["totals"]
    counter = build.stats.metrics.counter
    record.append(
        {
            "i": i,
            "kind": kind,
            "ms": (t3 - t0) * 1000.0,
            "spec_ms": (t2 - t1) * 1000.0,
            "backend_ms": backend_ms,
            "emit_ms": common.emit_ms(result) if tracer.enabled else None,
            "stages_ms": {
                s: v * 1000.0 for s, v in build.stats.stage_seconds.items()
            },
            "totals": totals,
            "fallback_errors": counter("incr.fallback_errors").value,
            "retries": build.stats.retries,
            "value": value,
            "result": result if i < WINDOW else None,
        }
    )


def timed_phase(ws, seed, seconds, jobs, tracer):
    record = []
    phase = common.Phase(seconds)
    i = 0
    while i < WINDOW or not phase.over():
        one_op(ws, i, seed, jobs, tracer, record)
        i += 1
    return record, phase.elapsed()


def noop_builds(ws, jobs):
    """Time the no-op rebuilds, then link once so the first op does not
    pay the cold compile of every generating extension."""
    times, cached = [], []
    for _ in range(NOOP_REPEATS):
        t = time.perf_counter()
        build = repro.build_dir(ws.src, ws.options(jobs))
        times.append(time.perf_counter() - t)
        cached.append(len(build.cached))
    build.link()
    return times, cached


def window_counts(record, noop_cached):
    counts = {
        "pipeline.modules_analysed": 0,
        "pipeline.modules_cached": 0,
        "incr.defs_re_derived": 0,
        "incr.defs_cut_off": 0,
        "incr.fallback_errors": 0,
        "pipeline.retries": 0,
        "noop.modules_cached": sum(noop_cached),
    }
    for r in record[:WINDOW]:
        t = r["totals"]
        counts["pipeline.modules_analysed"] += t["analysed"] + t["incremental"]
        counts["pipeline.modules_cached"] += t["cached"]
        counts["incr.defs_re_derived"] += t["defs_re_derived"]
        counts["incr.defs_cut_off"] += t["defs_cut_off"]
        counts["incr.fallback_errors"] += r["fallback_errors"]
        counts["pipeline.retries"] += r["retries"]
        common.add_spec_counts(counts, r["result"])
    return counts


def oracle(record, seed, ws, scratch_root, jobs):
    """The window ops' and the last op's residual values against the
    interpreter on the source program as it stood after that op's edit;
    then the final incremental artifacts against a from-scratch build
    of the same sources.  Returns (wrong outputs, interpreter us)."""
    wrong, interp_us = [], []
    checks = {r["i"] for r in record[:WINDOW]} | {record[-1]["i"]}
    dag = gen.Dag(seed)
    for r in record:
        dag.edit(seed, r["i"])
        if r["i"] not in checks:
            continue
        linked = repro.load_program("\n".join(dag.sources().values()))
        t = time.perf_counter()
        expected = run_program(
            linked, gen.GOAL, [gen.GOAL_STATIC["n"], DYNAMIC_X], fuel=10_000_000
        )
        interp_us.append((time.perf_counter() - t) * 1e6)
        if r["value"] != expected:
            wrong.append(("value", r["i"], r["value"], expected))
    fresh = Workspace(scratch_root, dag)
    repro.build_dir(fresh.src, fresh.options(jobs))
    for sub in ("iface", "out"):
        a, b = os.path.join(ws.root, sub), os.path.join(fresh.root, sub)
        names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        for n in mismatch + errors:
            wrong.append(("artifact", sub, n))
    return wrong, interp_us


def failed_ops(wrong, attempted):
    """Ops with a wrong value, plus one for any artifact mismatch (the
    final artifacts are the outcome of the whole edit sequence)."""
    values = {w[1] for w in wrong if w[0] == "value"}
    artifacts = any(w[0] == "artifact" for w in wrong)
    return min(attempted, len(values) + artifacts)


def run(seed, seconds, trace, budget):
    base = os.path.join(common.STATE_DIR, "work", "edit-loop-%d-%d" % (seed, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    try:
        return _run(base, seed, seconds, trace, budget)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run(base, seed, seconds, trace, budget):
    jobs = budget
    spaces, setups = [], []
    for k in range(SETUP_REPEATS):
        ws, secs = cold_build(os.path.join(base, "ws%d" % k), seed, jobs)
        spaces.append(ws)
        setups.append(secs)
    ws = spaces[0]
    noop_times, noop_cached = noop_builds(ws, jobs)
    with common.RssSampler() as rss:
        record, elapsed = timed_phase(ws, seed, seconds, jobs, common.NULL)
    counts = window_counts(record, noop_cached)
    wrong, interp_us = oracle(
        record, seed, ws, os.path.join(base, "scratch"), jobs
    )
    out = {"attempted": len(record), "failed": 0, "wrong": wrong, "counts": counts}
    ops_ms = [r["ms"] for r in record]
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": common.median(ops_ms),
            # About 35 ops a run: p75 is the highest percentile with
            # some ten ops beyond it; p90 has three or four.
            "op_ms_tail": common.percentile(ops_ms, 75),
            "ops_per_s": len(record) / elapsed,
            "ok_ratio": 1.0 - failed_ops(wrong, len(record)) / len(record),
            "resid_chars": counts["resid_chars"],
            "peak_rss_mb": rss.peak_mb,
        }
        out["extra"] = {
            "op_ms_p90": common.percentile(ops_ms, 90),
            "noop_build_s": common.median(noop_times),
        }
        return out

    tracer = Tracer()
    ws_t = spaces[1]
    _, noop_cached_t = noop_builds(ws_t, jobs)
    traced, _ = timed_phase(ws_t, seed, seconds, jobs, tracer)
    traced_counts = window_counts(traced, noop_cached_t)
    out["trace_drift"] = sorted(
        k for k in counts if counts[k] != traced_counts[k]
    )
    # The untraced values were checked against the interpreter; the
    # traced phase ran the same edits, so it must reproduce them.
    out["wrong"] += [
        ("traced value", a["i"], b["value"], a["value"])
        for a, b in zip(record, traced)
        if a["value"] != b["value"]
    ]
    text = "\n".join(ws_t.dag.sources().values())
    _, genexts, fronts = common.front_end(tracer, text, gen.FORCE_RESIDUAL)
    n = min(len(record), len(traced))
    untraced_p50 = common.median([r["ms"] for r in record[:n]])
    traced_p50 = common.median([r["ms"] for r in traced[:n]])
    attr = common.attribute(tracer.events, len(traced), tracer.pid)
    out["attribution_ok"] = common.attribution_report(attr, DESIGNATED)
    out["trace_path"] = common.write_json(
        "traces/edit-loop-%d.json" % seed, tracer.to_chrome()
    )
    names = attr["names_ms"]
    analysed = counts["pipeline.modules_analysed"]
    cached = counts["pipeline.modules_cached"]
    metrics = dict(fronts)
    metrics.update(common.genext_size(genexts, text))
    metrics.update(
        common.spec_ratios(counts, sum(r["spec_ms"] for r in traced[:WINDOW]))
    )
    metrics.update(common.backend_split(traced))
    metrics.update(
        {
            "pipeline.noop_build_s": common.median(noop_times),
            "pipeline.cache_hit_ratio": cached / max(1, cached + analysed),
            "spec.specialise_ms": common.median([r["spec_ms"] for r in traced]),
            "spec.pump_ms": names.get("pending-pump", 0.0),
            "spec.assemble_ms": names.get("assemble", 0.0),
            "spec.mk_resid_ms": names.get("mk_resid", 0.0),
            "residual.chars": counts["resid_chars"],
            "interp.run_us": common.median(interp_us),
        }
    )
    for stage in STAGES:
        metrics["pipeline.%s_ms" % stage] = common.median(
            [r["stages_ms"].get(stage, 0.0) for r in traced]
        )
    for k in (
        "pipeline.modules_analysed",
        "pipeline.modules_cached",
        "incr.defs_re_derived",
        "incr.defs_cut_off",
        "incr.fallback_errors",
        "pipeline.retries",
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
