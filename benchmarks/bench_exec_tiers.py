"""The execution ladder's price list: tier 1 vs tier 2, and the restart.

``repro.backend.tiers`` climbs three rungs — interpret the general
program (tier 0), interpret the specialised residual (tier 1), run the
residual emitted and ``compile()``d to real Python (tier 2) — and
persists the tier-2 artifact so a *restarted* process serves a
previously-hot goal without re-specialising or re-compiling from the
AST.  This harness prices each rung on the first-Futamura workload
(the register-machine interpreter specialised to a static machine
program) and then proves the durable half of the claim against real
daemon subprocesses:

* **per-rung warm cost** — best-of per-call seconds for tier 0
  (general interpreter on the full argument list), tier 1 (residual
  interpreted by the object-language interpreter, warm residual
  cache), and tier 2 (the compiled Python entry loaded back from the
  persisted artifact); the headline ``tier2_vs_tier1_speedup`` must
  clear the 10x floor the schema validator enforces;
* **ladder dispatch** — the organic hot path (memo probe + native
  call) through :meth:`TierLadder.call`, i.e. what a caller actually
  pays once a goal is hot;
* **identity** — all three forced rungs must produce byte-identical
  values on every dynamic input (the same differential ``repro.check``
  runs on the pinned corpus);
* **restart** — daemon A (``mspec serve --tier-hot``) promotes a goal
  to tier 2 and is shut down; daemon B, a cold process on the same
  ``--cache-dir``, must answer the first request at tier 2 with origin
  ``code`` and counters showing zero specialisations and zero
  ``compile()``s from the AST — only artifact loads.

The emitted ``BENCH_exec_tiers.json`` (``repro.bench.exec_tiers/v1``)
is schema-checked by ``repro.obs.schema.validate_bench_exec_tiers``,
which refuses to record a sub-10x speedup or a restart that
re-specialised.

Run directly — no pytest machinery:

    PYTHONPATH=src python benchmarks/bench_exec_tiers.py

``MSPEC_BENCH_TINY=1`` shrinks the workload for CI smoke runs (the
10x floor still holds there: interpreting even a small residual costs
orders of magnitude more than calling its compiled form).
"""

import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import repro  # noqa: E402
from repro.api import SpecOptions  # noqa: E402
from repro.backend.tiers import (  # noqa: E402
    TierLadder,
    TierPolicy,
    load_compiled,
)
from repro.bench.generators import (  # noqa: E402
    machine_interpreter_source,
    random_machine_program,
)
from repro.genext.engine import specialise  # noqa: E402
from repro.modsys.program import load_program  # noqa: E402
from repro.obs import Obs  # noqa: E402
from repro.obs.schema import (  # noqa: E402
    BENCH_EXEC_TIERS_SCHEMA,
    validate_bench_exec_tiers,
)
from repro.serve import ServeClient  # noqa: E402

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_exec_tiers.json"
)

TINY = os.environ.get("MSPEC_BENCH_TINY") == "1"
PROGRAM_LENGTH = 12 if TINY else 48
DYN_INPUTS = ((0,), (1,), (5,), (9,), (13,))
ROUNDS = 3 if TINY else 5
T0_CALLS = 5 if TINY else 10
T1_CALLS = 10 if TINY else 30
T2_CALLS = 1_000 if TINY else 5_000
JOBS = 2
TIER_HOT = 2


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def _best_per_call(fn, calls):
    """Best-of-ROUNDS average per-call seconds for ``fn()``."""
    best = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds = (time.perf_counter() - started) / calls
        best = seconds if best is None else min(best, seconds)
    return best


class Daemon:
    """One ``mspec serve --tier-hot`` subprocess, shut down gracefully."""

    def __init__(self, moddir, cache_dir, name):
        self.socket_path = os.path.join(moddir, ".bench-tiers-%s.sock" % name)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                moddir,
                "--socket",
                self.socket_path,
                "--jobs",
                str(JOBS),
                "--cache-dir",
                cache_dir,
                "--tier-hot",
                str(TIER_HOT),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        with ServeClient.wait_ready(self.socket_path, timeout=120.0) as c:
            c.ping()

    def client(self):
        return ServeClient.connect(self.socket_path)

    def stop(self):
        with self.client() as c:
            c.shutdown()
        out, err = self.proc.communicate(timeout=120)
        assert self.proc.returncode == 0, (
            "daemon exit %r: %s" % (self.proc.returncode, err.decode())
        )


def bench_rungs(tmp, prog):
    """(results dict, identical verdict) for the in-process phase."""
    gp = repro.compile_genexts(machine_interpreter_source())
    linked = load_program(machine_interpreter_source())
    cache_dir = os.path.join(tmp, "tiers-cache")
    options = SpecOptions(
        cache_dir=cache_dir,
        tier_policy=TierPolicy(warm_after=1, hot_after=2),
    )
    obs = Obs()
    ladder = TierLadder(gp, options=options, obs=obs, program=linked)
    static = {"prog": prog}

    # Identity: every rung, every dynamic input, one answer.
    identical = True
    for vec in DYN_INPUTS:
        values = [
            ladder.call("run", static, vec, tier=tier).value
            for tier in (0, 1, 2)
        ]
        identical &= values[0] == values[1] == values[2]

    # The forced tier-2 probe above persisted the artifact; load the
    # compiled entry back the way a cold process would.
    key = ladder.key_for("run", static)
    fn = load_compiled(ladder.disk, key)
    assert fn is not None and fn.origin == "code"

    # Tier-1 residual (warm residual store — the decoded entry makes the
    # re-probe cheap, but the run still walks the residual AST).
    result = specialise(gp, "run", static, options, obs=obs)

    vec = DYN_INPUTS[-1]
    tier0_s = _best_per_call(
        lambda: ladder.call("run", static, vec, tier=0), T0_CALLS
    )
    tier1_s = _best_per_call(lambda: result.run(*vec), T1_CALLS)
    tier2_s = _best_per_call(lambda: fn(*vec), T2_CALLS)

    # The organic hot path: store probe + native call through the
    # ladder (includes the cache-key fingerprint per call).
    ladder.call("run", static, vec)  # ensure memoised
    warm_call_s = _best_per_call(
        lambda: ladder.call("run", static, vec), T1_CALLS
    )

    counters = obs.metrics.snapshot()["counters"]
    results = {
        "tier0_run_s": tier0_s,
        "tier1_run_s": tier1_s,
        "tier2_run_s": tier2_s,
        "tier2_vs_tier1_speedup": tier1_s / tier2_s,
        "tier1_vs_tier0_speedup": tier0_s / tier1_s,
        "ladder_warm_call_s": warm_call_s,
        "tier_emitted": counters.get("tier.emitted", 0),
        "tier_code_loads": counters.get("tier.code_loads", 0),
    }
    return results, identical


def bench_restart(tmp, prog):
    """Promote under daemon A, restart as daemon B on the same cache,
    and return the validator's restart evidence."""
    moddir = os.path.join(tmp, "modules")
    os.makedirs(moddir)
    with open(os.path.join(moddir, "Machine.mod"), "w") as f:
        f.write(machine_interpreter_source())
    cache_dir = os.path.join(tmp, "serve-cache")

    daemon = Daemon(moddir, cache_dir, "a")
    try:
        with daemon.client() as client:
            tiers_seen = []
            for _ in range(TIER_HOT + 1):
                response = client.run("run", {"prog": prog}, (5,))
                assert response["ok"], response
                tiers_seen.append(response["tier"])
            assert tiers_seen[-1] == 2, tiers_seen
            counters = client.metrics()["metrics"]["counters"]
            assert counters.get("tier.promotions", 0) >= 1, counters
    finally:
        daemon.stop()

    # Daemon B: a cold process, same cache directory.  The first
    # request must come back at tier 2 from the persisted code object —
    # no specialiser run, no compile() from the AST.
    daemon = Daemon(moddir, cache_dir, "b")
    try:
        started = time.perf_counter()
        with daemon.client() as client:
            response = client.run("run", {"prog": prog}, (5,))
            first_run_s = time.perf_counter() - started
            assert response["ok"], response
            counters = client.metrics()["metrics"]["counters"]
    finally:
        daemon.stop()

    return {
        "served_from_artifact": (
            response["tier"] == 2 and response["origin"] == "code"
        ),
        "tier": response["tier"],
        "origin": response["origin"],
        "first_run_s": first_run_s,
        "code_loads": counters.get("tier.code_loads", 0),
        "specialisations": counters.get("spec.specialisations", 0),
        "emitted": counters.get("tier.emitted", 0),
    }


def main():
    cpus = _cpus()
    prog = random_machine_program(PROGRAM_LENGTH, seed=4)

    with tempfile.TemporaryDirectory() as tmp:
        results, identical = bench_rungs(tmp, prog)
        restart = bench_restart(tmp, prog)

    doc = {
        "schema": BENCH_EXEC_TIERS_SCHEMA,
        "cpus": cpus,
        "tiny": TINY,
        "workload": {
            "goal": "run",
            "machine_program_length": PROGRAM_LENGTH,
            "dyn_inputs": len(DYN_INPUTS),
            "rounds": ROUNDS,
            "tier_hot": TIER_HOT,
        },
        "results": results,
        "identical": identical,
        "restart": restart,
    }
    problems = validate_bench_exec_tiers(doc)
    assert not problems, problems
    with open(JSON_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    print(
        "== execution tiers (program length %d, %d cpus%s) =="
        % (PROGRAM_LENGTH, cpus, ", tiny" if TINY else "")
    )
    rows = [
        ("tier 0: general interp", results["tier0_run_s"]),
        ("tier 1: residual interp", results["tier1_run_s"]),
        ("tier 2: compiled python", results["tier2_run_s"]),
        ("ladder warm call (memo)", results["ladder_warm_call_s"]),
    ]
    for label, seconds in rows:
        print(
            "%-28s %12.6f ms  %10.2fx vs tier 1"
            % (label, seconds * 1e3, results["tier1_run_s"] / seconds)
        )
    print(
        "tier 2 vs tier 1: %.1fx; identical across rungs: %s"
        % (results["tier2_vs_tier1_speedup"], identical)
    )
    print(
        "restart: tier %s (%s) in %.3f ms; code_loads=%d "
        "specialisations=%d emitted=%d"
        % (
            restart["tier"],
            restart["origin"],
            restart["first_run_s"] * 1e3,
            restart["code_loads"],
            restart["specialisations"],
            restart["emitted"],
        )
    )
    print("wrote", JSON_PATH)

    assert identical, "tiers disagree on the machine workload"
    assert restart["served_from_artifact"], restart
    return 0


if __name__ == "__main__":
    sys.exit(main())
