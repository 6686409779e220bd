"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload futamura --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` times the workload with
tracing off and prints every end-to-end metric; ``--trace 1`` runs the
same op sequence untraced and then traced, and prints the per-layer
metrics (self times from the trace, exact counts, tracing overhead).
Outputs are checked against an independent oracle off the timed path;
a wrong output, an exact-count drift or a failed set-up makes the
command exit non-zero.  The last line of standard output is the result
object; a record with the environment block is kept under
``.perfbench/``.  See ``perfbench/README.md`` for what each metric
means and which layer should move it.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("futamura", "edit-loop", "serve-mix")

def _load_contract():
    """``BENCHMARK.json``: the metric names and units to print."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro)",
              file=sys.stderr)
        return 2
    contract = _load_contract()
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, os.path.dirname(HERE))

    from perfbench import common

    budget = common.cpu_budget()
    if args.workload == "futamura":
        from perfbench import futamura as workload
    elif args.workload == "edit-loop":
        from perfbench import editloop as workload
    else:
        from perfbench import servemix as workload

    env = common.env_block(args.seed, budget)
    out = workload.run(args.seed, args.seconds, bool(args.trace), budget)
    env["workload_cpus"] = sorted(os.sched_getaffinity(0))  # serve-mix pins

    drift = common.check_exact(args.workload, args.seed, out["counts"])
    drift += out.get("trace_drift", [])
    correct = not out["wrong"] and not drift
    for wrong in out["wrong"][:10]:
        print("WRONG OUTPUT: %r" % (wrong,), file=sys.stderr)

    # Every end-to-end metric exists on every workload; a per-layer
    # metric of a layer the workload never touches reads 0.
    if args.trace:
        wanted = contract["per_layer"]
        metrics = {
            m["name"]: {"value": out["metrics"].get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        }
    else:
        wanted = contract["end_to_end"]
        metrics = {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        }

    record = {
        "schema": "perfbench.record/v1",
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "exact_counts": out["counts"],
        "exact_drift": drift,
        "metrics": metrics,
    }
    if "trace_path" in out:
        record["trace_path"] = out["trace_path"]
    if out.get("extra"):
        record["extra"] = out["extra"]
    common.write_json(
        "records/%s-%d-trace%d.json" % (args.workload, args.seed, args.trace),
        record,
    )
    print("env %s" % json.dumps(env, sort_keys=True))
    for name, value in sorted(out.get("extra", {}).items()):
        print("%-28s %14.6g (workload-specific, not in metrics)" % (name, value))
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
