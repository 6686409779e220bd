"""The parallel batch-specialisation driver.

A specialisation service rarely receives one request: it receives a
*batch* — many goals, many static-argument vectors, often with
duplicates (every user who wants cubes asks for ``power`` at ``n=3``).
:func:`specialise_many` fans a batch across a process pool, reusing the
build pipeline's supervision machinery
(:class:`~repro.pipeline.faults.WaveSupervisor` +
:class:`~repro.pipeline.faults.FaultPolicy`: deadlines, retries,
crash degradation), and returns one result per request.

Three layers of work avoidance stack:

1. **Parent-side dedup** — requests with identical cache keys
   (:func:`repro.speccache.residual_cache_key`) are specialised once
   and the result is shared across every aligned request index
   (``batch.deduped``).
2. **Shared persistent cache** — with ``options.cache_dir`` set, warm
   requests are answered in the parent (one probe of the shared
   :data:`~repro.speccache.STORE`, no dispatch at all), and every
   worker publishes what it computes; work one process did — in this
   batch, a previous batch, or a previous session — is a warm hit for
   all the others.  The store's atomic publication makes concurrent
   writers safe.
3. **The pool itself** — independent requests run concurrently, one
   :class:`~repro.genext.link.GenextProgram` re-link per worker
   process, memoised in :data:`_WORKER_PROGRAMS` (pre-seeded in the
   parent before the pool forks, so on ``fork`` platforms workers
   inherit the already-linked program and re-link nothing).  Pass a
   :class:`~repro.pipeline.pool.WorkerPool` as ``pool`` to keep those
   forked workers alive *across calls*: the pool is created once,
   reused by every batch (and every retry wave within a batch), and
   shut down by its owner — this is the daemon steady state
   (:mod:`repro.serve`), where per-call fork/pickle overhead would
   otherwise dominate microsecond jobs.  With a resident pool even a
   single cold request is dispatched to it rather than run inline, so
   the caller's thread (a server's request handler) never does
   specialisation work itself and per-request deadlines are enforced
   from any thread.

Determinism: requests are independent, the residual program of each is
a pure function of (program fingerprint, goal, static args, options),
and results travel as canonical payloads (:mod:`repro.speccache`) —
so the outputs are byte-identical for every ``jobs`` width, warm or
cold.  The property test in ``tests/test_batch.py`` pins this.

Programs that cannot be shipped as text (no
:meth:`~repro.genext.link.GenextProgram.genext_modules`, e.g. a
:class:`~repro.specialiser.mix.MixProgram`) degrade to supervised
serial execution in the parent process; everything else still applies.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.genext.runtime import SpecError
from repro.pipeline.faults import FaultPolicy, ModuleFailure, WaveSupervisor

__all__ = [
    "BatchRequest",
    "BatchResult",
    "seed_worker_program",
    "specialise_many",
]


@dataclass(frozen=True)
class BatchRequest:
    """One specialisation request of a batch."""

    goal: str
    static_args: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, request, index):
        """Coerce one element of the ``requests`` argument: a
        ``BatchRequest``, a ``(goal, static_args)`` pair, or a
        ``{"goal": ..., "static_args": {...}}`` mapping (the
        ``--batch`` file format)."""
        if isinstance(request, cls):
            return request
        if isinstance(request, dict):
            unknown = set(request) - {"goal", "static_args"}
            if unknown:
                raise SpecError(
                    "request #%d has unknown key(s): %s"
                    % (index, ", ".join(sorted(unknown)))
                )
            goal = request.get("goal")
            static_args = request.get("static_args") or {}
        else:
            try:
                goal, static_args = request
            except (TypeError, ValueError):
                raise SpecError(
                    "request #%d is not a (goal, static_args) pair: %r"
                    % (index, request)
                )
        if not isinstance(goal, str):
            raise SpecError("request #%d has no goal name" % index)
        if not isinstance(static_args, dict):
            raise SpecError(
                "request #%d static_args must be a mapping" % index
            )
        return cls(goal, tuple(sorted(static_args.items())))

    @property
    def args(self):
        return dict(self.static_args)


@dataclass
class BatchResult:
    """What one :func:`specialise_many` run produced.

    ``results`` aligns with the input requests; a failed request's slot
    is ``None`` and its diagnostic is in ``failures`` under the same
    index.  Deduplicated requests share one
    :class:`~repro.genext.engine.SpecialisationResult` object.
    """

    results: List[object]
    failures: Dict[int, ModuleFailure]
    stats: Dict[str, int]

    @property
    def ok(self):
        return not self.failures

    def render_failures(self):
        lines = []
        for index in sorted(self.failures):
            f = self.failures[index]
            lines.append(
                "request #%d (%s): [%s] %s" % (index, f.module, f.kind, f.message)
            )
        return "\n".join(lines)


# Worker-process memo: fingerprint -> linked GenextProgram.  Pre-seeded
# in the parent before the pool is created, so fork-started workers
# inherit the linked program; spawn-started (or evicted) workers re-link
# once from the shipped module sources.
_WORKER_PROGRAMS = {}


def seed_worker_program(gp):
    """Memoise ``gp`` under its fingerprint so workers forked *after*
    this call inherit the linked program and re-link nothing.  Call it
    before :meth:`~repro.pipeline.pool.WorkerPool.warm` when holding a
    resident pool (the daemon and the benches do); ``specialise_many``
    seeds it automatically for pools it forks itself.  Returns the
    fingerprint (``None`` for unfingerprinted programs, which cannot be
    shipped to workers at all)."""
    fingerprint = getattr(gp, "fingerprint", None)
    fingerprint = fingerprint() if callable(fingerprint) else None
    if fingerprint is not None:
        _WORKER_PROGRAMS[fingerprint] = gp
    return fingerprint


def _worker_program(fingerprint, modules):
    gp = _WORKER_PROGRAMS.get(fingerprint)
    if gp is None:
        from repro.genext.link import link_genexts

        gp = link_genexts(modules)
        _WORKER_PROGRAMS[fingerprint] = gp
    return gp


def _specialise_worker(payload):
    """Top-level (picklable) worker: one request in, one canonical
    residual payload out.  Results travel as text payloads, never as
    pickled residual ASTs — the same discipline the persistent cache
    uses, which is what makes the jobs-width byte-identity hold."""
    name, fingerprint, modules, goal, static_args, options = payload
    from repro.genext.engine import specialise
    from repro.pipeline import faultinject
    from repro.speccache import encode_result

    # Serve-phase chaos hook: a planned kill-worker fault SIGKILLs this
    # worker mid-request (the parent sees BrokenProcessPool and the
    # supervisor's degradation path answers off the retry budget).
    faultinject.fire("serve", goal)
    gp = _worker_program(fingerprint, modules)
    return encode_result(specialise(gp, goal, dict(static_args), options))


def specialise_many(
    gp, requests, options=None, jobs=1, policy=None, obs=None, pool=None
):
    """Specialise every request of a batch; returns a :class:`BatchResult`.

    ``requests`` is a sequence of ``(goal, static_args)`` pairs (or
    mappings, or :class:`BatchRequest` objects).  ``jobs`` is the pool
    width; ``policy`` the :class:`~repro.pipeline.faults.FaultPolicy`
    (default: fail fast, no retries — but one request's failure never
    abandons the others' results).  ``options`` applies to every
    request; set ``options.cache_dir`` to give the workers a shared
    persistent residual cache.  ``pool`` is an optional borrowed
    :class:`~repro.pipeline.pool.WorkerPool`: its pre-forked workers
    are reused (and left running) across calls, and cold requests are
    always dispatched to it — the persistent-daemon operating point.
    """
    from repro.api import spec_options
    from repro.obs import Obs

    options = spec_options("specialise_many", options)
    if options.sink is not None:
        raise SpecError(
            "specialise_many cannot stream definitions; sink must be None"
        )
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    if obs is None:
        obs = Obs()
    if policy is None:
        policy = FaultPolicy()

    reqs = [BatchRequest.of(r, i) for i, r in enumerate(requests)]

    fingerprint = getattr(gp, "fingerprint", None)
    fingerprint = fingerprint() if callable(fingerprint) else None
    modules = getattr(gp, "genext_modules", None)
    modules = modules() if callable(modules) else None

    # Parent-side dedup: one specialisation per distinct cache key.
    groups = {}  # key -> list of request indices
    order = []  # distinct keys, first-appearance order
    for i, req in enumerate(reqs):
        if fingerprint is not None:
            from repro.speccache import residual_cache_key

            key = residual_cache_key(fingerprint, req.goal, req.args, options)
        else:
            key = ("request", i)  # unfingerprinted: no dedup possible
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)

    obs.metrics.counter("batch.requests").inc(len(reqs))
    obs.metrics.counter("batch.deduped").inc(len(reqs) - len(order))
    obs.metrics.gauge("batch.jobs").set(jobs)
    obs.bus.emit(
        "batch.start", requests=len(reqs), unique=len(order), jobs=jobs
    )

    from repro.speccache import STORE, decode_result

    # Warm unique requests are answered in the parent, against the
    # caller's obs, without crossing a process boundary at all; only
    # cold ones are dispatched.
    disk = None
    if options.cache_dir is not None and fingerprint is not None:
        from repro.pipeline.cache import ArtifactCache

        disk = ArtifactCache(options.cache_dir)

    answered = {}  # key -> decoded SpecialisationResult
    cold = []  # keys still needing a specialisation run
    for key in order:
        if disk is not None:
            goal = reqs[groups[key][0]].goal
            payload = STORE.read(disk, key, obs=obs, goal=goal)
            if payload is not None:
                answered[key] = STORE.decode(
                    key, payload, obs=obs, fuel=options.fuel
                )
                if options.tier_policy is not None:
                    # A warm hit is a reuse signal: let the execution
                    # ladder promote hot goals to a compiled artifact.
                    from repro.backend import tiers

                    tiers.note_warm(
                        disk, key, goal, options,
                        obs=obs, result=answered[key],
                    )
                continue
        cold.append(key)

    # A pool needs the program as text; without it, degrade to
    # supervised serial execution in this process.  A borrowed resident
    # pool is used for *any* cold work (its workers are already forked
    # and must own the jobs — deadlines only bind in pool mode off the
    # main thread); an ephemeral pool is only worth forking for >1 job.
    use_pool = modules is not None and (
        len(cold) > 1 if pool is None else len(cold) >= 1
    ) and (jobs > 1 or pool is not None)
    effective_jobs = (pool.jobs if pool is not None else jobs) if use_pool else 1
    shipped = modules if use_pool else None
    # Pre-seed so forked workers (and the serial path) skip re-linking.
    _WORKER_PROGRAMS[fingerprint] = gp

    payloads = []
    for key in cold:
        index = groups[key][0]
        req = reqs[index]
        payloads.append(
            (
                "req%d" % index,
                fingerprint,
                shipped,
                req.goal,
                req.static_args,
                options,
            )
        )

    supervisor = WaveSupervisor(
        _specialise_worker, effective_jobs, policy, obs=obs,
        pool=pool if use_pool else None,
    )
    try:
        done, failed = supervisor.run_wave(payloads)
    finally:
        supervisor.shutdown()
        if fingerprint is None:
            del _WORKER_PROGRAMS[fingerprint]

    results = [None] * len(reqs)
    failures = {}
    for key in order:
        indices = groups[key]
        name = "req%d" % indices[0]
        if key in answered:
            result = answered[key]
            for i in indices:
                results[i] = result
        elif name in done:
            if fingerprint is None:
                result = decode_result(done[name], obs=obs, fuel=options.fuel)
            else:
                result = STORE.decode(
                    key, done[name], obs=obs, fuel=options.fuel
                )
            for i in indices:
                results[i] = result
        else:
            for i in indices:
                failures[i] = failed[name]

    obs.metrics.counter("batch.failed").inc(len(failures))
    obs.bus.emit(
        "batch.done",
        requests=len(reqs),
        unique=len(order),
        failed=len(failures),
    )
    return BatchResult(
        results=results,
        failures=failures,
        stats={
            "requests": len(reqs),
            "unique": len(order),
            "deduped": len(reqs) - len(order),
            "failed": len(failures),
            "jobs": effective_jobs,
        },
    )
