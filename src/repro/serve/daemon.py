"""The persistent specialisation daemon behind ``mspec serve``.

The paper's economics say analysis and cogen happen once, and
specialisation is the cheap repeated step — but the CLI re-pays the
expensive part on every invocation: re-parse, re-analyse, re-link,
re-fork a pool, all for requests that take microseconds once warm
(``BENCH_spec_throughput.json``: warm cache hits ~100µs, compiled
callable hits ~2400×; ``BENCH_parallel_pipeline.json``: parallel
*losing* to serial because fork/pickle overhead dominates).  :class:`SpecServer` keeps all
of it resident:

* the module directory is loaded, analysed, cogen'd, and **linked
  once**; the linked :class:`~repro.genext.link.GenextProgram` lives in
  the parent for the daemon's lifetime;
* a :class:`~repro.pipeline.pool.WorkerPool` is **pre-forked at
  startup** — on ``fork`` platforms the workers inherit the linked
  program through :data:`repro.genext.batch._WORKER_PROGRAMS`, so a
  cold request never pickles a program and never re-links;
* the residual store (:data:`~repro.speccache.STORE` over the
  ``--cache-dir`` objects) stays **hot across requests**: a warm
  request is answered in-parent from the store, exactly the
  :func:`~repro.genext.batch.specialise_many` warm path, without
  touching the pool at all;
* requests pass an **admission layer** first: at most ``max_inflight``
  specialisations run at once, at most ``queue`` more may wait, and
  anything beyond that is *rejected immediately* with a distinct
  backpressure error (exit code 8 at the client) rather than silently
  piling up latency;
* per-request **deadlines** bound queue wait plus run time, enforced by
  the :class:`~repro.pipeline.faults.WaveSupervisor` /
  :class:`~repro.pipeline.faults.FaultPolicy` machinery — a request
  past its deadline kills the hung worker (the pool respawns
  transparently) and answers a ``deadline`` error;
* concurrent identical cold requests are **coalesced**: one leader
  computes, the followers wait and answer from the cache
  (``serve.coalesced``);
* the **source directory is watched by digest**: an edited module is
  detected on the next request, triggering one controlled re-link —
  the daemon never serves an answer for source it no longer has;
* :mod:`repro.obs` is live over the same socket: ``metrics`` returns
  the ``repro.obs.metrics/v1`` snapshot (with the ``serve.*`` counters),
  ``health`` the vitals, ``trace`` a bounded ring of recent spans as a
  Chrome trace document;
* ``shutdown`` (or SIGTERM/SIGINT) **drains gracefully**: in-flight
  requests finish, new ones are refused with ``shutting_down``, then
  the pool and socket are released.

Residual semantics are byte-identical to the CLI path by construction:
warm answers are the same canonical ``repro.speccache/v1`` payloads the
CLI reads, and cold answers run through the same
:func:`~repro.genext.batch.specialise_many` machinery with the same
options — the load-test harness (``benchmarks/bench_serve.py``) and the
CI serve job both enforce it.
"""

import hashlib
import os
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.api import BuildOptions, SpecOptions
from repro.genext.runtime import SpecError
from repro.modsys.program import SOURCE_SUFFIX
from repro.obs import EventBus, MetricsRegistry, Obs, Tracer
from repro.pipeline import faultinject
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.faults import FaultPolicy, KIND_TIMEOUT
from repro.pipeline.pool import WorkerPool
from repro.serve import protocol
from repro.speccache import STORE, encode_result, residual_cache_key

__all__ = ["ServeConfig", "SpecServer", "serve_forever"]

DEFAULT_SOCKET_NAME = ".mspec-serve.sock"
DEFAULT_CACHE_DIRNAME = ".mspec-cache"


@dataclass
class ServeConfig:
    """Everything one daemon can be told.

    ``max_inflight`` defaults to the pool width (each worker busy plus
    the warm path is the saturation point); ``queue`` to four times
    that.  ``deadline`` is the default per-request budget (a request
    may narrow it, never widen it).  ``watch_source`` enables the
    digest check + controlled re-link on source edits.
    ``max_requests_per_worker`` / ``max_worker_rss_mb`` arm graceful
    worker recycling (see :class:`~repro.pipeline.pool.WorkerPool`): a
    long-lived pool generation is retired after its request budget or
    when a worker's RSS crosses the ceiling, so leaky workers never
    degrade the daemon.

    ``tier_hot`` (``mspec serve --tier-hot N``) arms the execution
    ladder for ``run`` requests and warm-hit promotion: a goal's N-th
    request compiles + persists its residual
    (:mod:`repro.backend.tiers`).  ``None`` leaves ``run`` on the
    default :class:`~repro.backend.tiers.TierPolicy` and skips warm-hit
    promotion; an explicit ``options.tier_policy`` wins.
    """

    dir: str
    socket_path: Optional[str] = None
    tcp: Optional[Tuple[str, int]] = None
    jobs: int = 1
    max_inflight: Optional[int] = None
    queue: Optional[int] = None
    deadline: Optional[float] = None
    drain_timeout: float = 30.0
    cache_dir: Optional[str] = None
    options: SpecOptions = field(default_factory=SpecOptions)
    retries: int = 0
    watch_source: bool = True
    warm_pool: bool = True
    trace_buffer: int = 2048
    metrics_path: Optional[str] = None
    max_requests_per_worker: Optional[int] = None
    max_worker_rss_mb: Optional[float] = None
    tier_hot: Optional[int] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % self.jobs)
        if self.tier_hot is not None and self.tier_hot < 1:
            raise ValueError(
                "tier_hot must be >= 1, got %d" % self.tier_hot
            )
        if self.socket_path is None and self.tcp is None:
            self.socket_path = os.path.join(self.dir, DEFAULT_SOCKET_NAME)
        if self.cache_dir is None:
            self.cache_dir = os.path.join(self.dir, DEFAULT_CACHE_DIRNAME)
        if self.max_inflight is None:
            self.max_inflight = self.jobs
        if self.max_inflight < 1:
            raise ValueError(
                "max_inflight must be >= 1, got %d" % self.max_inflight
            )
        if self.queue is None:
            self.queue = 4 * self.max_inflight
        if self.queue < 0:
            raise ValueError("queue must be >= 0, got %d" % self.queue)

    @property
    def address(self):
        if self.tcp is not None:
            return "tcp://%s:%d" % self.tcp
        return "unix://%s" % self.socket_path


class _ProgramState:
    """One immutable generation of the served program.  Swapped
    atomically on re-link; a request reads ``server.state`` once and
    works against a consistent (gp, fingerprint, digest, ladder)
    tuple.  ``ladder`` is the generation's
    :class:`~repro.backend.tiers.TierLadder` (the ``run`` op's
    executor; its persisted artifacts are keyed by the generation's
    fingerprint, so a relink naturally re-promotes)."""

    __slots__ = (
        "gp", "fingerprint", "digest", "ladder", "loaded_at",
        "loaded_at_wall",
    )

    def __init__(self, gp, fingerprint, digest, ladder=None):
        self.gp = gp
        self.fingerprint = fingerprint
        self.digest = digest
        self.ladder = ladder
        # Monotonic for age arithmetic — wall clocks jump under NTP
        # steps and DST, and a negative "age" has broken real daemons.
        # The wall timestamp exists only to be displayed.
        self.loaded_at = time.monotonic()
        self.loaded_at_wall = time.time()


def _source_digest(directory):
    """SHA-256 over the module directory's ``*.mod`` names and bytes —
    the daemon's staleness check."""
    h = hashlib.sha256(b"mspec-serve-source\x00")
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(SOURCE_SUFFIX):
            continue
        h.update(entry.encode("utf-8"))
        h.update(b"\x00")
        with open(os.path.join(directory, entry), "rb") as f:
            h.update(f.read())
        h.update(b"\x00")
    return h.hexdigest()


class SpecServer:
    """The daemon's request brain, transport-agnostic.

    :meth:`handle_request` maps one parsed request dict to one response
    dict; the socket layer (:func:`serve_forever`) only does framing.
    Tests drive this class directly as well as over real sockets.
    """

    def __init__(self, config, obs=None):
        self.config = config
        if obs is None:
            bus = EventBus()
            obs = Obs(
                tracer=Tracer(bus=bus),
                metrics=MetricsRegistry(bus=bus),
                bus=bus,
            )
        self.obs = obs
        self.options = config.options.replace(cache_dir=config.cache_dir)
        if config.tier_hot is not None and self.options.tier_policy is None:
            from repro.backend.tiers import TierPolicy

            self.options = self.options.replace(
                tier_policy=TierPolicy(hot_after=config.tier_hot)
            )
        self.disk = ArtifactCache(config.cache_dir)

        # Admission state: inflight + queued under one condition.
        self._adm = threading.Condition()
        self.inflight = 0
        self.queued = 0
        self._draining = False

        # Cold-request coalescing: cache key -> leader's done event.
        self._keys_lock = threading.Lock()
        self._inflight_keys = {}

        # Recent-span ring for the live trace endpoint.
        self._trace_ring = deque(maxlen=config.trace_buffer)
        if obs.bus is not None:
            obs.bus.on_span_end(self._trace_ring.append)

        # Load + link once; seed the worker memo *before* the pool so
        # forked workers inherit the linked program.
        self._relink_lock = threading.Lock()
        self.state = self._load()
        self.pool = WorkerPool(
            config.jobs,
            max_requests_per_worker=config.max_requests_per_worker,
            max_worker_rss=(
                None
                if config.max_worker_rss_mb is None
                else int(config.max_worker_rss_mb * 1024 * 1024)
            ),
        )
        if config.warm_pool:
            self.pool.warm()
        # Same split as _ProgramState: uptime_s must come from the
        # monotonic clock, not wall-clock subtraction.
        self.started = time.monotonic()
        self.started_wall = time.time()
        self.obs.metrics.gauge("serve.jobs").set(config.jobs)

    # -- program lifecycle ---------------------------------------------------

    def _load(self):
        from repro.pipeline.build import build_dir

        with self.obs.tracer.span("serve:link", cat="serve"):
            # Digest first: an edit racing the build makes the digest
            # stale, so the next request relinks again — never the
            # other way round (a fresh digest over a stale program).
            digest = _source_digest(self.config.dir)
            # Relinks ride the incremental build cache: a watched-source
            # edit re-derives only its definition cone and reassembles
            # the rest from the cache's per-def records.
            result = build_dir(
                self.config.dir,
                BuildOptions(
                    cache_dir=self.config.cache_dir,
                    force_residual=self.options.force_residual,
                ),
                obs=self.obs,
            )
            gp = result.link()
        from repro.backend.tiers import TierLadder
        from repro.genext.batch import seed_worker_program
        from repro.modsys.program import load_program_dir

        fingerprint = seed_worker_program(gp)
        ladder = TierLadder(
            gp,
            options=self.options,
            obs=self.obs,
            program=load_program_dir(self.config.dir),
        )
        return _ProgramState(gp, fingerprint, digest, ladder)

    def current_state(self):
        """The program generation to serve this request from, re-linking
        first if the source directory's digest changed — a stale answer
        is never produced for source the daemon can see has moved."""
        if not self.config.watch_source:
            return self.state
        digest = _source_digest(self.config.dir)
        state = self.state
        if digest == state.digest:
            return state
        with self._relink_lock:
            state = self.state
            if digest != state.digest:
                self.state = self._load()
                self.obs.metrics.counter("serve.relinks").inc()
                self.obs.bus.emit(
                    "serve.relink",
                    old_digest=state.digest,
                    new_digest=self.state.digest,
                )
            return self.state

    # -- request dispatch ----------------------------------------------------

    def handle_request(self, doc):
        """One response dict for one parsed request dict."""
        op = doc.get("op")
        request_id = doc.get("id")
        try:
            if op == "ping":
                return protocol.ok_response("ping", request_id)
            if op == "health":
                return self._handle_health(request_id)
            if op == "metrics":
                return protocol.ok_response(
                    "metrics", request_id, metrics=self.obs.metrics.snapshot()
                )
            if op == "trace":
                return self._handle_trace(request_id)
            if op == "shutdown":
                return protocol.ok_response(
                    "shutdown", request_id, draining=True
                )
            if op == "specialise":
                return self._handle_specialise(doc)
            if op == "run":
                return self._handle_run(doc)
            return protocol.error_response(
                op or "?", protocol.ERR_BAD_REQUEST,
                "unknown op %r" % (op,), request_id,
            )
        except Exception as exc:  # a bug must answer, not hang the client
            return protocol.error_response(
                op or "?",
                protocol.ERR_ERROR,
                "%s: %s" % (type(exc).__name__, exc),
                request_id,
            )
        finally:
            self.obs.tracer.trim(4 * self.config.trace_buffer)

    def _handle_health(self, request_id):
        with self._adm:
            inflight, queued = self.inflight, self.queued
        return protocol.ok_response(
            "health",
            request_id,
            pid=os.getpid(),
            uptime_s=time.monotonic() - self.started,
            started_at=self.started_wall,
            program_loaded_at=self.state.loaded_at_wall,
            program_age_s=time.monotonic() - self.state.loaded_at,
            inflight=inflight,
            queued=queued,
            max_inflight=self.config.max_inflight,
            queue=self.config.queue,
            jobs=self.config.jobs,
            pool_alive=self.pool.alive,
            pool_spawns=self.pool.spawns,
            pool_kills=self.pool.kills,
            pool_recycles=self.pool.recycles,
            program_digest=self.state.digest,
            fingerprint=self.state.fingerprint,
            draining=self._draining,
            address=self.config.address,
        )

    def _handle_trace(self, request_id):
        events = sorted(self._trace_ring, key=lambda e: e.get("ts", 0))
        return protocol.ok_response(
            "trace",
            request_id,
            trace={
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"schema": "repro.obs.trace/v1", "tool": "mspec"},
            },
        )

    # -- the specialise path -------------------------------------------------

    def _admit(self, deadline_at, op="specialise"):
        """Take one inflight slot, queueing within bounds.  Returns the
        seconds spent queued, or a response dict when refused."""
        metrics = self.obs.metrics
        with self._adm:
            if self._draining:
                return protocol.error_response(
                    op, protocol.ERR_SHUTTING_DOWN,
                    "daemon is draining",
                )
            if self.inflight >= self.config.max_inflight:
                if self.queued >= self.config.queue:
                    metrics.counter("serve.rejections").inc()
                    self.obs.bus.emit(
                        "serve.rejected", queued=self.queued,
                        inflight=self.inflight,
                    )
                    return protocol.error_response(
                        op, protocol.ERR_REJECTED,
                        "admission queue full (%d inflight, %d queued)"
                        % (self.inflight, self.queued),
                    )
                self.queued += 1
                metrics.gauge("serve.queue_depth").max_of(self.queued)
                started = time.perf_counter()
                try:
                    while (
                        self.inflight >= self.config.max_inflight
                        and not self._draining
                    ):
                        timeout = None
                        if deadline_at is not None:
                            timeout = deadline_at - time.perf_counter()
                            if timeout <= 0:
                                metrics.counter("serve.deadline_kills").inc()
                                return protocol.error_response(
                                    op, protocol.ERR_DEADLINE,
                                    "deadline expired while queued",
                                    kind="timeout",
                                )
                        self._adm.wait(timeout)
                finally:
                    self.queued -= 1
                if self._draining:
                    return protocol.error_response(
                        op, protocol.ERR_SHUTTING_DOWN,
                        "daemon is draining",
                    )
                waited = time.perf_counter() - started
                metrics.timer("serve.queue_wait").add(waited)
            else:
                waited = 0.0
            self.inflight += 1
            metrics.gauge("serve.inflight").max_of(self.inflight)
        return waited

    def _release(self):
        with self._adm:
            self.inflight -= 1
            self._adm.notify_all()

    def _handle_specialise(self, doc):
        request_id = doc.get("id")
        goal = doc["goal"]
        static_args = doc.get("static_args") or {}
        deadline = doc.get("deadline")
        if deadline is None:
            deadline = self.config.deadline
        elif self.config.deadline is not None:
            deadline = min(deadline, self.config.deadline)
        started = time.perf_counter()
        deadline_at = None if deadline is None else started + deadline

        metrics = self.obs.metrics
        metrics.counter("serve.requests").inc()
        admitted = self._admit(deadline_at)
        if isinstance(admitted, dict):  # refused: rejected/draining/expired
            admitted["id"] = request_id
            return admitted
        try:
            with self.obs.tracer.span("serve:request", cat="serve", goal=goal):
                response = self._answer(
                    goal, static_args, deadline_at, request_id
                )
            response["seconds"] = time.perf_counter() - started
            metrics.timer("serve.request").add(response["seconds"])
            return response
        finally:
            self._release()

    def _handle_run(self, doc):
        """Execute a goal through the tiered ladder (see
        :mod:`repro.backend.tiers`): hot goals are answered by the
        persisted compiled residual, cold ones interpreted."""
        request_id = doc.get("id")
        goal = doc["goal"]
        static_args = doc.get("static_args") or {}
        dynamic_args = tuple(doc.get("dynamic_args") or ())
        deadline = doc.get("deadline")
        if deadline is None:
            deadline = self.config.deadline
        elif self.config.deadline is not None:
            deadline = min(deadline, self.config.deadline)
        started = time.perf_counter()
        deadline_at = None if deadline is None else started + deadline

        metrics = self.obs.metrics
        metrics.counter("serve.requests").inc()
        admitted = self._admit(deadline_at, op="run")
        if isinstance(admitted, dict):  # refused: rejected/draining/expired
            admitted["id"] = request_id
            return admitted
        try:
            state = self.current_state()
            with self.obs.tracer.span("serve:run", cat="serve", goal=goal):
                try:
                    run = state.ladder.call(goal, static_args, dynamic_args)
                except Exception as exc:
                    metrics.counter("serve.failures").inc()
                    return protocol.error_response(
                        "run", protocol.ERR_ERROR,
                        "%s: %s" % (type(exc).__name__, exc), request_id,
                    )
            metrics.counter("serve.runs").inc()
            response = protocol.ok_response(
                "run",
                request_id,
                value=protocol.value_to_json(run.value),
                tier=run.tier,
                origin=run.origin,
            )
            response["seconds"] = time.perf_counter() - started
            metrics.timer("serve.request").add(response["seconds"])
            return response
        finally:
            self._release()

    def _answer(self, goal, static_args, deadline_at, request_id):
        state = self.current_state()
        try:
            key = residual_cache_key(
                state.fingerprint, goal, static_args, self.options
            )
        except TypeError as exc:
            return protocol.error_response(
                "specialise", protocol.ERR_BAD_REQUEST,
                "bad static arguments: %s" % exc, request_id,
            )

        # Warm path: answered in the parent from the shared cache, no
        # process boundary crossed — exactly specialise_many's probe.
        payload = STORE.read(self.disk, key, obs=self.obs, goal=goal)
        if payload is not None:
            self.obs.metrics.counter("serve.warm").inc()
            if self.options.tier_policy is not None:
                from repro.backend import tiers

                tiers.note_warm(
                    self.disk, key, goal, self.options,
                    obs=self.obs, payload=payload,
                )
            return protocol.ok_response(
                "specialise", request_id, served="warm", result=payload
            )

        # Cold: coalesce concurrent identical requests behind a leader.
        with self._keys_lock:
            leader_done = self._inflight_keys.get(key)
            if leader_done is None:
                self._inflight_keys[key] = threading.Event()
        if leader_done is not None:
            self.obs.metrics.counter("serve.coalesced").inc()
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.perf_counter())
            leader_done.wait(timeout)
            payload = STORE.read(self.disk, key, obs=self.obs, goal=goal)
            if payload is not None:
                self.obs.metrics.counter("serve.warm").inc()
                return protocol.ok_response(
                    "specialise", request_id, served="warm", result=payload
                )
            # Leader failed (or we timed out waiting): fall through and
            # compute independently so the failure mode is our own.

        try:
            return self._dispatch_cold(
                goal, static_args, deadline_at, request_id, state
            )
        finally:
            with self._keys_lock:
                done = self._inflight_keys.pop(key, None)
            if done is not None:
                done.set()

    def _dispatch_cold(self, goal, static_args, deadline_at, request_id, state):
        """Run one cold request through the batch driver against the
        resident pool; per-request deadline via the fault policy."""
        from repro.genext.batch import specialise_many

        timeout = None
        if deadline_at is not None:
            timeout = deadline_at - time.perf_counter()
            if timeout <= 0:
                self.obs.metrics.counter("serve.deadline_kills").inc()
                return protocol.error_response(
                    "specialise", protocol.ERR_DEADLINE,
                    "deadline expired before dispatch", request_id,
                    kind="timeout",
                )
        policy = FaultPolicy(timeout=timeout, retries=self.config.retries)
        try:
            batch = specialise_many(
                state.gp,
                [(goal, static_args)],
                self.options,
                jobs=self.config.jobs,
                policy=policy,
                obs=self.obs,
                pool=self.pool,
            )
        except SpecError as exc:
            self.obs.metrics.counter("serve.failures").inc()
            return protocol.error_response(
                "specialise", protocol.ERR_ERROR, str(exc), request_id,
                kind="error",
            )
        finally:
            # The supervisor submitted straight to the executor, so
            # charge the recycle budget here and retire a generation
            # past it (graceful: in-flight work finishes elsewhere).
            self.pool.note_tasks(1)
            reason = self.pool.maybe_recycle()
            if reason is not None:
                self.obs.metrics.counter("serve.recycles").inc()
                self.obs.bus.emit("serve.recycle", reason=reason)
        if batch.ok:
            self.obs.metrics.counter("serve.cold").inc()
            return protocol.ok_response(
                "specialise",
                request_id,
                served="cold",
                result=encode_result(batch.results[0]),
            )
        failure = batch.failures[0]
        if failure.kind == KIND_TIMEOUT:
            self.obs.metrics.counter("serve.deadline_kills").inc()
        else:
            self.obs.metrics.counter("serve.failures").inc()
        return protocol.error_response(
            "specialise",
            protocol.error_code_for_kind(failure.kind),
            failure.message,
            request_id,
            kind=failure.kind,
        )

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout=None):
        """Refuse new specialisations, wait for in-flight ones.  Returns
        True when everything finished inside ``timeout``."""
        if timeout is None:
            timeout = self.config.drain_timeout
        deadline_at = time.perf_counter() + timeout
        with self._adm:
            self._draining = True
            self._adm.notify_all()
            while self.inflight > 0:
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0:
                    return False
                self._adm.wait(remaining)
        return True

    def close(self):
        """Release the pool (after :meth:`drain` for a graceful exit)."""
        self.pool.shutdown()
        if self.config.metrics_path:
            self.obs.metrics.export(self.config.metrics_path)


# ---------------------------------------------------------------------------
# Transport: threaded stream servers speaking NDJSON.
# ---------------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        spec = self.server.spec_server
        try:
            for line in self.rfile:
                if not line.strip():
                    continue
                try:
                    doc = protocol.parse_request(line)
                except protocol.ProtocolError as exc:
                    self.wfile.write(
                        protocol.encode(
                            protocol.error_response(
                                "?", protocol.ERR_BAD_REQUEST, str(exc)
                            )
                        )
                    )
                    continue
                response = spec.handle_request(doc)
                if self._transport_fault(spec, doc):
                    return
                self.wfile.write(protocol.encode(response))
                self.wfile.flush()
                if doc.get("op") == "shutdown":
                    self.server.initiate_shutdown()
                    return
        except OSError:
            # The client went away mid-conversation (or gave up on an
            # injected stall) — there is no one left to answer.
            return

    def _transport_fault(self, spec, doc):
        """Perform any planned serve-phase transport fault for this
        request; returns True when the connection must be dropped
        instead of answered.  The fault ``module`` names the goal under
        attack (or the op for non-specialise requests); ``"*"`` matches
        anything."""
        victim = doc.get("goal") or doc.get("op") or "?"
        fault = faultinject.claim_action("serve", victim, "drop-connection")
        if fault is not None:
            spec.obs.metrics.counter("serve.faults_injected").inc()
            return True  # close without answering: client sees EOF
        fault = faultinject.claim_action("serve", victim, "stall")
        if fault is not None:
            # A wedged handler: the response is late, not absent — the
            # client's wire deadline must fire first.
            spec.obs.metrics.counter("serve.faults_injected").inc()
            time.sleep(fault.seconds)
        fault = faultinject.claim_action("serve", victim, "corrupt-response")
        if fault is not None:
            spec.obs.metrics.counter("serve.faults_injected").inc()
            self.wfile.write(faultinject.CORRUPT_BYTES + b"\n")
            self.wfile.flush()
            return True  # framing is now garbage; drop the stream
        return False


class _ServerMixin:
    daemon_threads = True
    allow_reuse_address = True

    def attach(self, spec_server):
        self.spec_server = spec_server
        self._shutdown_started = threading.Event()

    def initiate_shutdown(self):
        """Graceful drain + stop, idempotent, off the handler thread
        (``BaseServer.shutdown`` deadlocks when called from inside
        ``serve_forever``'s own loop)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()

        def _drain_and_stop():
            self.spec_server.drain()
            self.shutdown()

        threading.Thread(target=_drain_and_stop, daemon=True).start()


class _TcpServer(_ServerMixin, socketserver.ThreadingMixIn, socketserver.TCPServer):
    pass


if hasattr(socketserver, "UnixStreamServer"):

    class _UnixServer(
        _ServerMixin, socketserver.ThreadingMixIn, socketserver.UnixStreamServer
    ):
        pass

else:  # pragma: no cover - non-POSIX
    _UnixServer = None


def make_transport(spec_server):
    """The listening socket server for a :class:`SpecServer`."""
    config = spec_server.config
    if config.tcp is not None:
        transport = _TcpServer(config.tcp, _Handler)
    else:
        if _UnixServer is None:  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "unix sockets are unavailable on this platform; use --tcp"
            )
        path = config.socket_path
        if os.path.exists(path):
            # A previous daemon's leftover: connecting decides stale vs
            # live — never steal a live daemon's socket.
            import socket as _socket

            probe = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                probe.close()
                raise RuntimeError(
                    "socket %s already has a live daemon" % path
                )
        transport = _UnixServer(path, _Handler)
    transport.attach(spec_server)
    return transport


def serve_forever(config, obs=None, ready=None):
    """Run one daemon until shut down; returns the process exit code.

    ``ready``, if given, is called with the :class:`SpecServer` and its
    transport once the socket is listening (tests use it; the CLI prints
    the address).  SIGTERM/SIGINT trigger the same graceful drain as the
    ``shutdown`` op.
    """
    import signal as _signal

    spec_server = SpecServer(config, obs=obs)
    transport = make_transport(spec_server)

    installed = {}
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            transport.initiate_shutdown()

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            installed[signum] = _signal.signal(signum, _on_signal)
    try:
        if ready is not None:
            ready(spec_server, transport)
        transport.serve_forever(poll_interval=0.1)
    finally:
        for signum, old in installed.items():
            _signal.signal(signum, old)
        transport.server_close()
        if config.tcp is None and os.path.exists(config.socket_path):
            try:
                os.unlink(config.socket_path)
            except OSError:
                pass
        spec_server.close()
    return 0
