"""The ``serve-mix`` workload: a ``mspec serve --tier-hot`` daemon over
the machine interpreter, driven in a closed loop.

Each of ``budget // 2`` client threads holds one connection and sends
its next request only after the previous reply.  The seeded stream is
mostly ``run`` ops over a fixed popular set of machine programs with a
Zipf-like popularity, some ``specialise`` ops returning residual text,
and every 13th request names a never-seen program, which the daemon
specialises cold (a residual-cache write); three requests later the
same program is asked for again and is promoted to tier 2 (emit,
compile and an artifact write).  A sequential warm-up promotes the
popular set before timing.  Set-up is the time from spawning the
daemon until its first ``ping`` answers.
"""

import itertools
import os
import shutil
import subprocess
import sys
import threading
import time

import repro
from repro.interp import run_program
from repro.obs import Tracer
from repro.serve import ServeClient, ServeClientError
from repro.serve.protocol import value_from_json, value_to_json

from perfbench import common, gen

SETUP_REPEATS = 5
FRONT_REPEATS = 9
TIER_HOT = 2
WINDOW = 600  # requests whose tier counts must repeat exactly
DESIGNATED = ("serving", "cache", "backend")
ACCS = (0, 7, 23)


class Daemon:
    """One ``mspec serve`` subprocess over its own cache directory."""

    def __init__(self, base, k, jobs):
        self.socket = os.path.join(base, "s%d.sock" % k)
        self.log = open(os.path.join(base, "daemon%d.log" % k), "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        t = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                os.path.join(base, "src"),
                "--socket", self.socket,
                "--jobs", str(jobs),
                "--cache-dir", os.path.join(base, "cache%d" % k),
                "--tier-hot", str(TIER_HOT),
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            ServeClient.wait_ready(self.socket, timeout=60.0, interval=0.005).close()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t

    def client(self):
        return ServeClient.connect(self.socket, request_timeout=60.0)

    def metrics(self):
        with self.client() as c:
            return c.metrics()["metrics"]

    def stop(self):
        if self.proc.poll() is None:
            try:
                with ServeClient.connect(self.socket, timeout=5.0) as c:
                    c.shutdown(timeout=30.0)
            except Exception:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Stream:
    """The seeded request stream, with every program pre-encoded."""

    def __init__(self, seed, count):
        self.seed = seed
        self.requests = gen.request_stream(seed, count)
        self.popular = [
            common.as_program(gen.popular_program(seed, p)) for p in range(gen.POPULAR)
        ]
        self._fresh = {}

    def fresh(self, j):
        if j not in self._fresh:
            self._fresh[j] = common.as_program(gen.pool_program(self.seed, "fresh", j))
        return self._fresh[j]

    def request(self, i):
        """``(kind, program, acc)`` of request ``i``; ``acc`` is None
        for ``specialise``."""
        kind, n = self.requests[i]
        if kind in ("fresh", "refresh"):
            return kind, self.fresh(n), ACCS[n % len(ACCS)]
        prog = self.popular[n]
        return kind, prog, (None if kind == "spec" else ACCS[i % len(ACCS)])


def send(client, kind, prog, acc):
    static = {"prog": value_to_json(prog)}
    if kind == "spec":
        return client.specialise("run", static)
    return client.run("run", static, [acc])


def warm_up(daemon, stream):
    """Sequentially promote the popular set and fetch its residual texts
    (deterministic: one connection, one request at a time)."""
    texts = {}
    with daemon.client() as c:
        for p, prog in enumerate(stream.popular):
            for acc in ACCS[:TIER_HOT]:
                resp = send(c, "run", prog, acc)
                if not resp.get("ok"):
                    raise RuntimeError("warm-up run failed: %r" % (resp,))
            resp = send(c, "spec", prog, None)
            if not resp.get("ok"):
                raise RuntimeError("warm-up specialise failed: %r" % (resp,))
            texts[p] = resp["result"]["program"]
    return texts


def timed_phase(daemon, stream, seconds, conns, tracer):
    """Closed loop over ``conns`` connections; returns (per-request
    records by index, phase seconds, client retries)."""
    counter = itertools.count()
    records = {}
    retries = [0]
    lock = threading.Lock()
    clock = common.Clock()
    phase = common.Phase(seconds)
    errors = []

    def worker():
        try:
            with daemon.client() as c:
                while True:
                    i = next(counter)
                    if i >= len(stream.requests) or (i >= WINDOW and phase.over()):
                        break
                    kind, prog, acc = stream.request(i)
                    t0 = time.perf_counter()
                    try:
                        resp = send(c, kind, prog, acc)
                    except ServeClientError as exc:  # counted as failed
                        resp = {"ok": False, "error": {"code": type(exc).__name__}}
                    t1 = time.perf_counter()
                    if tracer.enabled:
                        _record_spans(tracer, clock, i, kind, resp, t0, t1)
                    records[i] = (kind, acc, resp, (t1 - t0) * 1000.0)
                with lock:
                    retries[0] += c.stats["retries"]
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return records, phase.elapsed(), retries[0]


def _record_spans(tracer, clock, i, kind, resp, t0, t1):
    """The op and its client request span, and inside it the daemon's
    own handling time (its reported ``seconds``), named by what the
    response says the request needed: the daemon exposes no finer
    split, so the remainder of the round trip is the wire."""
    clock.span(tracer, "op", t0, t1, op=i)
    clock.span(tracer, "serve.request", t0, t1, op=i)
    if not resp.get("ok"):
        return
    seconds = min(resp.get("seconds", 0.0), t1 - t0)
    if kind == "spec":
        name = "speccache.warm" if resp.get("served") == "warm" else "spec.daemon"
    elif resp.get("tier") == 2:
        name = "backend.tiers"
    else:
        name = "spec.daemon"
    start = t0 + ((t1 - t0) - seconds) / 2
    clock.span(
        tracer, name, start, start + seconds,
        op=i, tier=resp.get("tier"), origin=resp.get("origin"),
    )


def window_counts(records, warm_texts, warm_metrics):
    counts = {
        "tier.t1_responses": 0,
        "tier.t2_responses": 0,
        "serve.spec_warm": 0,
        "resid_chars": sum(len(t) for t in warm_texts.values()),
    }
    for i in range(WINDOW):
        kind, _, resp, _ = records[i]
        if kind == "spec":
            counts["serve.spec_warm"] += resp.get("served") == "warm"
        elif resp.get("tier") == 1:
            counts["tier.t1_responses"] += 1
        elif resp.get("tier") == 2:
            counts["tier.t2_responses"] += 1
    for name in (
        "tier.t1_runs", "tier.t2_runs", "tier.emitted", "tier.promotions",
        "speccache.hits", "speccache.misses", "speccache.writes",
    ):
        counts["warmup." + name] = warm_metrics["counters"].get(name, 0)
    return counts


def oracle(records, stream, linked, gp):
    """Every ``run`` value against the interpreter on the general
    program, every ``specialise`` text against in-process
    ``repro.specialise``.  Returns (wrong outputs, interpreter us)."""
    wrong, interp_us, values, texts = [], [], {}, {}
    for i in sorted(records):
        kind, acc, resp, _ = records[i]
        if not resp.get("ok"):
            continue
        _, prog, _ = stream.request(i)
        if kind == "spec":
            if prog not in texts:
                texts[prog] = repro.pretty_program(
                    repro.specialise(gp, "run", {"prog": prog}).program
                )
            if resp["result"]["program"] != texts[prog]:
                wrong.append(("text", i))
            continue
        if (prog, acc) not in values:
            t = time.perf_counter()
            values[prog, acc] = run_program(linked, "run", [prog, acc], fuel=10_000_000)
            interp_us.append((time.perf_counter() - t) * 1e6)
        got = value_from_json(resp.get("value"))
        if got != values[prog, acc]:
            wrong.append(("value", i, got, values[prog, acc]))
    return wrong, interp_us


def _breakeven(attr, cold_share):
    """Print the cold share below which the largest designated group
    would overtake specialisation, holding the per-request cost of
    each path fixed: the attribution result depends on this share."""
    groups = attr["groups_ms"]
    spec_per_cold = groups["specialisation"] / cold_share
    lead = max(groups[g] for g in DESIGNATED)
    print(
        "cold share %.1f%%: specialisation %.3f ms per cold request; the "
        "designated layers would lead below about %.1f%% cold requests"
        % (100 * cold_share, spec_per_cold, 100 * lead / spec_per_cold),
        file=sys.stderr,
    )


def delta(after, before):
    return {
        k: v - before["counters"].get(k, 0)
        for k, v in after["counters"].items()
    }


def run(seed, seconds, trace, budget):
    base = os.path.join(common.STATE_DIR, "work", "sm-%d-%d" % (seed, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(os.path.join(base, "src"))
    with open(os.path.join(base, "src", "Machine.mod"), "w") as f:
        f.write(gen.MACHINE)
    daemons = []
    try:
        return _run(base, daemons, seed, seconds, trace, budget)
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(base, ignore_errors=True)


def _serve_phase(daemon, stream, seconds, conns, tracer):
    warm_before = daemon.metrics()
    texts = warm_up(daemon, stream)
    before = daemon.metrics()
    with common.RssSampler() as rss:
        records, elapsed, retries = timed_phase(
            daemon, stream, seconds, conns, tracer
        )
    after = daemon.metrics()
    return {
        "texts": texts,
        "warm_metrics": {"counters": delta(before, warm_before)},
        "delta": delta(after, before),
        "records": records,
        "elapsed": elapsed,
        "retries": retries,
        "rss": rss.peak_mb,
    }


def _run(base, daemons, seed, seconds, trace, budget):
    # Two busy processes on this kind of host get between one and two
    # cpus' worth of time, so client and daemon take turns: half the
    # budget in connections, half in pool workers.  With one connection
    # the closed loop never runs client and daemon at once, so all of
    # them share one cpu: a round trip is then a switch on that cpu, not
    # a wake-up of another one, whose cost the host sets.
    jobs = conns = max(1, budget // 2)
    if conns == 1:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setups = []
    for k in range(SETUP_REPEATS):
        d = Daemon(base, k, jobs)
        daemons.append(d)
        setups.append(d.ready_s)
        if k < SETUP_REPEATS - 1:
            d.stop()
            daemons.remove(d)
    stream = Stream(seed, 200_000)
    gp = repro.compile_genexts(gen.MACHINE)
    linked = repro.load_program(gen.MACHINE)

    ph = _serve_phase(daemons[0], stream, seconds, conns, common.NULL)
    records = ph["records"]
    counts = window_counts(records, ph["texts"], ph["warm_metrics"])
    wrong, interp_us = oracle(records, stream, linked, gp)
    failed = sum(1 for _, _, resp, _ in records.values() if not resp.get("ok"))
    out = {"attempted": len(records), "failed": failed, "wrong": wrong, "counts": counts}
    rts = [rt for _, _, resp, rt in records.values() if resp.get("ok")]
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": common.median(rts),
            "op_ms_tail": common.percentile(rts, 99),
            "ops_per_s": len(records) / ph["elapsed"],
            "ok_ratio": 1.0 - (failed + len(wrong)) / max(1, len(records)),
            "resid_chars": counts["resid_chars"],
            "peak_rss_mb": ph["rss"],
        }
        out["extra"] = {"op_ms_p99": out["metrics"]["op_ms_tail"]}
        return out

    # Traced run: a second daemon from an empty cache serves the same
    # stream with client-side spans on.
    daemons[0].stop()
    daemons.remove(daemons[0])
    daemons.append(Daemon(base, SETUP_REPEATS, jobs))
    tracer = Tracer()
    pt = _serve_phase(daemons[0], stream, seconds, conns, tracer)
    traced_counts = window_counts(pt["records"], pt["texts"], pt["warm_metrics"])
    out["trace_drift"] = sorted(
        k for k in counts if counts[k] != traced_counts[k]
    )
    wrong_t, _ = oracle(pt["records"], stream, linked, gp)
    out["wrong"] += wrong_t
    n = min(len(records), len(pt["records"]))
    untraced_p50 = common.median([records[i][3] for i in range(n)])
    traced_p50 = common.median([pt["records"][i][3] for i in range(n)])
    attr = common.attribute(tracer.events, len(pt["records"]), tracer.pid)
    cold_share = sum(
        1 for kind, _, _, _ in pt["records"].values() if kind == "fresh"
    ) / len(pt["records"])
    out["attribution_ok"] = common.attribution_report(
        attr, DESIGNATED, context="with %.1f%% cold requests" % (100 * cold_share)
    )
    _breakeven(attr, cold_share)
    out["trace_path"] = common.write_json(
        "traces/serve-mix-%d.json" % seed, tracer.to_chrome()
    )
    recs = pt["records"].values()
    ok = [(kind, resp, rt) for kind, _, resp, rt in recs if resp.get("ok")]
    handle = [resp["seconds"] * 1000.0 for _, resp, _ in ok]
    d = pt["delta"]
    hits, misses = d.get("speccache.hits", 0), d.get("speccache.misses", 0)
    t1, t2 = counts["tier.t1_responses"], counts["tier.t2_responses"]
    metrics = {
        "tier.t1_responses": t1,
        "tier.t2_responses": t2,
        "tier.t2_share": t2 / max(1, t1 + t2),
        "tier.code_loads": d.get("tier.code_loads", 0),
        "tier.emitted": d.get("tier.emitted", 0),
        "speccache.hits": hits,
        "speccache.misses": misses,
        "speccache.hit_ratio": hits / max(1, hits + misses),
        "speccache.decode_hits": d.get("speccache.decode_hits", 0),
        "speccache.decode_misses": d.get("speccache.decode_misses", 0),
        "serve.handle_ms_p50": common.median(handle),
        "serve.handle_ms_p99": common.percentile(handle, 99),
        "serve.wire_ms_p50": common.median(
            [rt - resp["seconds"] * 1000.0 for _, resp, rt in ok]
        ),
        "serve.warm_ms_p50": common.median(
            [rt for kind, resp, rt in ok if kind == "run" and resp.get("tier") == 2]
        ),
        "serve.cold_ms_p50": common.median(
            [rt for kind, resp, rt in ok if kind == "fresh"]
        ),
        "serve.rejected": sum(
            1 for _, _, resp, _ in recs
            if (resp.get("error") or {}).get("code") == "rejected"
        ),
        "serve.client_retries": pt["retries"],
        "serve.coalesced": d.get("serve.coalesced", 0),
        "serve.cold_share": cold_share,
        "residual.chars": counts["resid_chars"],
        "interp.run_us": common.median(interp_us),
        "spec.specialisations": d.get("spec.specialisations", 0),
        "spec.unfolds": d.get("spec.unfolds", 0),
        "spec.memo_hits": d.get("spec.memo_hits", 0),
        "spec.residual_nodes": d.get("spec.residual_nodes", 0),
    }
    # The daemon's start-up build, stage by stage, as it reported it.
    for name, timer in daemons[0].metrics()["timers"].items():
        if name.startswith("stage."):
            metrics["pipeline.%s_ms" % name[6:]] = timer["seconds"] * 1000.0
    # Its front end, call by call, on the same source.
    fronts = []
    for _ in range(FRONT_REPEATS):
        _, genexts, steps = common.front_end(tracer, gen.MACHINE)
        fronts.append(steps)
    for step in fronts[0]:
        metrics[step] = common.median([f[step] for f in fronts])
    metrics.update(common.genext_size(genexts, gen.MACHINE))
    metrics.update(common.layer_metrics(attr, untraced_p50, traced_p50, out))
    out["metrics"] = metrics
    return out
