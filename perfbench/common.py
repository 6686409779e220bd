"""Shared machinery: statistics, the environment block, memory sampling,
span recording with per-layer self times, and the exact-count store."""

import bisect
import hashlib
import json
import os
import platform
import statistics
import sys
import threading
import time

from repro.backend.pyemit import compile_program, emit_python, mangle_table
from repro.bt.analysis import analyse_program
from repro.genext.cogen import cogen_program
from repro.genext.link import link_genexts
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.prims import make_pair
from repro.modsys.program import link_program
from repro.obs import NULL_TRACER as NULL

STATE_DIR = ".perfbench"

# Span name prefix -> (layer group, module).  The benchmark's own spans
# are named after the module they wrap; the program's existing spans
# (build stages, the pending pump, ...) are mapped onto the same
# modules.  The first matching prefix wins.
SPAN_LAYERS = (
    ("op", ("unattributed", "op")),
    ("lang.", ("front_end", "lang")),
    ("modsys.", ("front_end", "modsys")),
    ("bt.", ("front_end", "bt")),
    ("genext.cogen", ("front_end", "genext.cogen")),
    ("genext.link", ("front_end", "genext.link")),
    ("pipeline.", ("front_end", "pipeline")),
    ("build", ("front_end", "pipeline")),
    ("stage:", ("front_end", "pipeline")),
    ("wave[", ("front_end", "pipeline")),
    ("job:", ("front_end", "pipeline")),
    ("analyse:", ("front_end", "pipeline")),
    ("cogen:", ("front_end", "pipeline")),
    ("spec.", ("specialisation", "genext.engine")),
    ("specialise", ("specialisation", "genext.engine")),
    ("pending-pump", ("specialisation", "genext.runtime")),
    ("mk_resid:", ("specialisation", "genext.runtime")),
    ("assemble", ("specialisation", "residual")),
    ("backend.tiers", ("backend", "backend.tiers")),
    ("backend.", ("backend", "backend.pyemit")),
    ("interp.", ("backend", "interp")),
    ("speccache.", ("cache", "speccache")),
    ("serve.", ("serving", "serve")),
)
GROUPS = ("front_end", "specialisation", "backend", "cache", "serving")


def layer_of(name):
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return ("unattributed", "other")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cpu_budget():
    """CPUs this process may run on: the budget for pool widths,
    client threads and connections."""
    return len(os.sched_getaffinity(0))


def src_digest(roots=("src", "perfbench")):
    """sha256 over the program's and the benchmark's sources: identifies
    the code under test when the checkout is not a git repository."""
    h = hashlib.sha256()
    walk = [w for root in roots for w in os.walk(root)]
    for dirpath, dirnames, filenames in walk:
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def env_block(seed, budget):
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_budget": budget,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "src_digest": src_digest(),
        "seed": seed,
    }


def front_end(tracer, text, force_residual=frozenset()):
    """``repro.compile_genexts`` call by call, each step in its own
    span, splitting what a build's ``analyse`` stage lumps together.
    Returns (genext program, genext modules, {step: ms})."""
    steps = {}

    def step(name, fn, *args, **kwargs):
        t = time.perf_counter()
        with tracer.span(name, cat="bench"):
            value = fn(*args, **kwargs)
        steps[name + "_ms"] = (time.perf_counter() - t) * 1000.0
        return value

    parsed = step("lang.parse", parse_program, text)
    linked = step("modsys.resolve", link_program, parsed)
    analysis = step(
        "bt.analyse", analyse_program, linked, force_residual=force_residual
    )
    genexts = step("genext.cogen", cogen_program, analysis)
    gp = step("genext.link", link_genexts, genexts)
    return gp, genexts, steps


def as_program(prog):
    """A generated machine program as an object-language value."""
    return tuple(make_pair(op, arg) for op, arg in prog)


def compile_residual(tracer, result, i):
    """``backend.pyemit.compile_program`` on the residual.  Returns (the
    residual entry as a Python function, ms)."""
    t = time.perf_counter()
    with tracer.span("backend.compile_program", cat="bench", op=i):
        fn = compile_program(result.program).function(result.entry)
    return fn, (time.perf_counter() - t) * 1000.0


def emit_ms(result):
    """The emission part of ``compile_program`` (``mangle_table`` and
    ``emit_python``) timed on its own, off the op path; the rest of
    ``compile_program`` is Python compilation."""
    t = time.perf_counter()
    emit_python(result.program, names=mangle_table(result.program))
    return (time.perf_counter() - t) * 1000.0


def backend_split(records):
    """Median ``backend.emit_ms`` and ``backend.compile_ms`` over traced
    op records (``compile_program`` ms minus the separately timed
    emission)."""
    return {
        "backend.emit_ms": median([r["emit_ms"] for r in records]),
        "backend.compile_ms": median(
            [r["backend_ms"] - r["emit_ms"] for r in records]
        ),
    }


SPEC_COUNTS = ("specialisations", "unfolds", "memo_hits", "residual_nodes")


def add_spec_counts(counts, result):
    """Accumulate one specialisation's exact counts into ``counts``."""
    for name in SPEC_COUNTS:
        counts["spec." + name] = counts.get("spec." + name, 0) + result.stats[name]
    counts["spec.pending_peak"] = max(
        counts.get("spec.pending_peak", 0), result.stats["pending_peak"]
    )
    counts["residual.modules"] = (
        counts.get("residual.modules", 0) + len(result.program.modules)
    )
    counts["resid_chars"] = counts.get("resid_chars", 0) + len(
        pretty_program(result.program)
    )


def spec_ratios(counts, spec_ms):
    return {
        "spec.memo_hit_ratio": counts["spec.memo_hits"]
        / max(1, counts["spec.memo_hits"] + counts["spec.specialisations"]),
        "spec.unfolds_per_ms": counts["spec.unfolds"] / spec_ms,
    }


def code_lines(text):
    """Non-blank, non-comment lines (object language or Python)."""
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith(("--", "#"))
    )


def genext_size(genexts, source):
    """Generating-extension size, and its expansion over the source in
    lines of code (the paper reports four to five)."""
    text = "".join(m.source for m in genexts)
    return {
        "genext.chars": len(text),
        "genext.expansion": code_lines(text) / code_lines(source),
    }


# ---------------------------------------------------------------------------
# Memory.
# ---------------------------------------------------------------------------


def _rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid):
    out = []
    try:
        tasks = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return out
    for tid in tasks:
        try:
            with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                out.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            pass
    return out


def tree_rss_mb(root):
    """Summed resident set of ``root`` and all its descendants, in MB."""
    total, stack, seen = 0, [root], set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _rss_kb(pid)
        stack.extend(_children(pid))
    return total / 1024.0


class RssSampler:
    """Samples the benchmark's process tree (itself, the daemon, pool
    workers) every ``interval`` seconds while running; ``peak_mb`` is
    the largest summed resident set seen."""

    def __init__(self, interval=0.05):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_rss_mb(os.getpid()))
        return False


# ---------------------------------------------------------------------------
# Self times from recorded spans.
# ---------------------------------------------------------------------------


def self_times(events, pid, tid):
    """``[(event, self_us)]`` for complete spans on one thread: each
    span's duration minus the part its direct children cover."""
    spans = [
        e for e in events
        if e.get("ph") == "X" and e["pid"] == pid and e["tid"] == tid
    ]
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    out, stack = [], []  # stack of [event, end, child_us]
    for e in spans:
        end = e["ts"] + e["dur"]
        while stack and stack[-1][1] <= e["ts"] + 1e-3:
            top = stack.pop()
            out.append((top[0], top[0]["dur"] - top[2]))
        if stack:
            stack[-1][2] += e["dur"]
        stack.append([e, end, 0.0])
    while stack:
        top = stack.pop()
        out.append((top[0], top[0]["dur"] - top[2]))
    return out


def attribute(events, n_ops, pid):
    """Per-module and per-group self time, in ms per op, over the spans
    of process ``pid`` inside ``op`` root spans (every thread), plus
    each group's share of op time."""
    op_us = 0.0
    by_module, by_name = {}, {}
    by_group = {g: 0.0 for g in GROUPS + ("unattributed",)}
    for tid in sorted({e["tid"] for e in events if e["pid"] == pid}):
        timed = self_times(events, pid, tid)
        roots = sorted(
            (e["ts"], e["ts"] + e["dur"]) for e, _ in timed if e["name"] == "op"
        )
        op_us += sum(b - a for a, b in roots)
        starts = [a for a, _ in roots]
        for e, self_us in timed:
            k = bisect.bisect_right(starts, e["ts"] + 1e-3) - 1
            if k < 0 or e["ts"] > roots[k][1]:
                continue  # outside every op: set-up or oracle work
            group, module = layer_of(e["name"])
            by_module[module] = by_module.get(module, 0.0) + self_us
            by_group[group] += self_us
            key = e["name"].split(":")[0]
            by_name[key] = by_name.get(key, 0.0) + self_us
    per_op = max(1, n_ops) * 1000.0
    return {
        "op_ms": op_us / per_op,
        "modules_ms": {k: v / per_op for k, v in sorted(by_module.items())},
        "names_ms": {k: v / per_op for k, v in sorted(by_name.items())},
        "groups_ms": {k: v / per_op for k, v in by_group.items()},
        "shares": {
            k: (v / op_us if op_us else 0.0) for k, v in by_group.items()
        },
    }


class Clock:
    """Converts ``perf_counter`` readings to trace microseconds, for
    spans the benchmark records itself with :meth:`Tracer.record`."""

    def __init__(self):
        self.wall = time.time()
        self.perf = time.perf_counter()

    def span(self, tracer, name, t0, t1, **args):
        tracer.record(
            {
                "name": name,
                "cat": "bench",
                "ph": "X",
                "ts": (self.wall + (t0 - self.perf)) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": tracer.pid,
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": args,
            }
        )


def layer_metrics(attr, untraced_p50, traced_p50, out):
    """The per-layer metrics every workload reports from its traced
    phase: group shares, the unattributed share, tracing overhead."""
    metrics = {
        "layer.%s_share" % g: attr["shares"].get(g, 0.0)
        for g in GROUPS + ("unattributed",)
    }
    metrics["layer.attribution_ok"] = 1 if out["attribution_ok"] else 0
    metrics["trace.untraced_op_ms_p50"] = untraced_p50
    metrics["trace.op_ms_p50"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    return metrics


def attribution_report(attr, designated, context="", out=sys.stderr):
    """Print the layer shares; returns True when the workload's
    designated layer group has the largest self-time share.  ``context``
    names what the result depends on, for the finding."""
    shares = attr["shares"]
    print("attribution (self time per op, %.3f ms/op):" % attr["op_ms"], file=out)
    for module, ms in sorted(attr["modules_ms"].items(), key=lambda kv: -kv[1]):
        print("  %-16s %9.3f ms/op" % (module, ms), file=out)
    for group in GROUPS + ("unattributed",):
        print("  [%s] %.1f%%" % (group, 100.0 * shares.get(group, 0.0)), file=out)
    top = max(GROUPS, key=lambda g: shares.get(g, 0.0))
    ok = top in designated
    if not ok:
        print(
            "FINDING: largest self-time share is %s, not %s%s"
            % (top, "/".join(designated), context and " (%s)" % context),
            file=out,
        )
    if shares.get("unattributed", 0.0) > 0.05:
        print(
            "FINDING: %.1f%% of op time is unattributed"
            % (100.0 * shares["unattributed"]),
            file=out,
        )
    return ok


# ---------------------------------------------------------------------------
# Exact counts.
# ---------------------------------------------------------------------------


def check_exact(workload, seed, counts, out=sys.stderr):
    """Compare deterministic counts with those recorded by an earlier
    run of the same workload, seed and source digest (traced or not);
    record them when none exist.  Returns the list of drifting names."""
    name = "counts-%s-%d-%s.json" % (workload, seed, src_digest())
    try:
        with open(os.path.join(STATE_DIR, name)) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        write_json(name, counts)
        return []
    drift = sorted(
        k for k in set(previous) | set(counts) if previous.get(k) != counts.get(k)
    )
    for k in drift:
        print(
            "EXACT-COUNT DRIFT %s: recorded %r, now %r"
            % (k, previous.get(k), counts.get(k)),
            file=out,
        )
    return drift


def write_json(relpath, doc):
    """Write ``doc`` atomically under the state directory."""
    path = os.path.join(STATE_DIR, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=None, separators=(",", ":"))
    os.replace(tmp, path)
    return path


class Phase:
    """Wall-clock bounds of a timed phase."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def over(self):
        return time.perf_counter() - self.start >= self.seconds

    def elapsed(self):
        return time.perf_counter() - self.start
