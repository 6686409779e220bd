"""The three-tier execution ladder with persistent compiled residuals.

The paper's economics (Sec. 8, via LL94) end at *lowering*: a residual
program only beats the general one decisively once it stops being
interpreted.  This module runs goals on a hotness-driven ladder over
three execution tiers, with a *persistent* compiled artifact next to
the cached residual payload:

* **tier 0** — interpret the general program (cold goals; no
  specialisation run at all);
* **tier 1** — specialise (or hit the residual store) and interpret
  the residual program;
* **tier 2** — emit the residual as a real Python module via
  :mod:`repro.backend.pyemit`, ``compile()`` it, and run the entry
  natively.

Every tier-2 callable comes from one emission route,
:func:`_compile_result`, and lives in the key's entry of the residual
store (:data:`repro.speccache.STORE`), which also holds the key's
hotness count; :func:`repro.backend.rtcg.generate` reads the same
entry.  On disk the compiled form is ``<key>.code-<cache_tag>.bin`` —
a marshalled record carrying the compiled code object, keyed by
``sys.implementation.cache_tag`` so interpreters never load each
other's bytecode — beside the key's ``resid.json``.

Loading probes in fallback order: the store entry (one dict probe) →
the marshalled code object (no parsing, no compiling) → re-emit from
``resid.json``, decoded through the store, self-healing the code
artifact → tier 1.  An unusable code artifact is counted
(``tier.code_decode_miss``), never an error.  A persisted artifact is
a *durable promotion*: a restarted process on the same interpreter
serves a previously-hot goal at tier 2 without specialising or
emitting anything.

Promotion is driven by the key's request count against a
:class:`TierPolicy` (``SpecOptions(tier_policy=)``, ``mspec serve
--tier-hot N``): a goal is specialised after ``warm_after`` requests
and compiled after ``hot_after``; the compiled form is persisted
exactly when the ladder has a ``cache_dir``.

Counters land in the attached registry (``tier.t0_runs`` /
``t1_runs`` / ``t2_runs`` / ``memo_hits`` / ``promotions`` /
``code_loads`` / ``emitted``); each promotion emits a ``tier.promote``
event on the bus.
"""

import marshal
import sys
import types
from dataclasses import dataclass

from repro.backend.pyemit import _mangle, emit_python, mangle_table
from repro.pipeline.cache import ArtifactCache, CODE_KIND
from repro.speccache import STORE, residual_cache_key
from repro.stackguard import deep_stack

__all__ = [
    "DEFAULT_TIER_POLICY",
    "TIER2_SCHEMA",
    "TierFunction",
    "TierLadder",
    "TierPolicy",
    "TierRun",
    "load_compiled",
    "note_warm",
    "validate_code_bytes",
]

TIER2_SCHEMA = "repro.tier2/v1"


def _cache_tag():
    return sys.implementation.cache_tag or "unknown"


@dataclass(frozen=True)
class TierPolicy:
    """When a goal climbs the ladder.

    A goal's ``count``-th request (per fingerprint + goal + static
    args, 1-based) runs at tier 0 while ``count < warm_after``, at
    tier 1 while ``count < hot_after``, and is promoted to tier 2 at
    ``count >= hot_after``.  The defaults specialise on the first
    request and compile on the third."""

    warm_after: int = 1
    hot_after: int = 3

    def __post_init__(self):
        if self.warm_after < 0:
            raise ValueError(
                "warm_after must be >= 0, got %d" % self.warm_after
            )
        if self.hot_after < self.warm_after:
            raise ValueError(
                "hot_after (%d) must be >= warm_after (%d)"
                % (self.hot_after, self.warm_after)
            )


DEFAULT_TIER_POLICY = TierPolicy()


@dataclass(frozen=True)
class TierRun:
    """One ladder execution: the value, the tier that produced it, and
    where the tier-2 callable came from (``interp`` / ``residual`` /
    ``memo`` / ``code`` / ``emitted``)."""

    value: object
    tier: int
    origin: str


def _count(obs, name, n=1):
    if obs is not None:
        obs.metrics.counter(name).inc(n)


# ---------------------------------------------------------------------------
# The tier-2 callable and its code artifact.
# ---------------------------------------------------------------------------


class TierFunction:
    """A tier-2 callable: the entry function of a compiled residual.
    ``python_source`` is the emitted Python when this process emitted
    it, ``None`` when it was loaded from a code artifact."""

    __slots__ = ("entry", "entry_py", "dynamic_params", "namespace",
                 "python_source", "origin")

    def __init__(self, entry, entry_py, dynamic_params, namespace,
                 python_source=None, origin="emitted"):
        self.entry = entry
        self.entry_py = entry_py
        self.dynamic_params = tuple(dynamic_params)
        self.namespace = namespace
        self.python_source = python_source
        self.origin = origin

    def __call__(self, *dynamic_args):
        fn = self.namespace[self.entry_py]
        with deep_stack():
            return fn(*dynamic_args)


def _pack_code(entry, entry_py, dynamic_params, code):
    return marshal.dumps({
        "schema": TIER2_SCHEMA,
        "tag": _cache_tag(),
        "entry": entry,
        "entry_py": entry_py,
        "dynamic_params": list(dynamic_params),
        "code": code,
    })


def _read_code(data):
    """``(record, problem)`` for the bytes of a code artifact: the
    tier-2 record when *this* interpreter can load it, else ``None``
    and a ``(category, reason)`` pair — ``"corrupt"`` for damage,
    ``"stale"`` for intact bytes the loader skips (a wrong or missing
    cache tag: the loader re-emits from ``resid.json``).  A bare
    marshalled code object, the build pipeline's payload of the same
    kind, is healthy but no record: ``(None, None)``."""
    try:
        record = marshal.loads(data)
    except Exception as exc:
        return None, ("corrupt", "does not unmarshal: %s" % exc)
    if isinstance(record, types.CodeType):
        return None, None
    if not isinstance(record, dict) or record.get("schema") != TIER2_SCHEMA:
        return None, ("stale", "not a %s record" % TIER2_SCHEMA)
    if record.get("tag") != _cache_tag():
        return None, (
            "stale",
            "cache tag %r is not this interpreter's %r"
            % (record.get("tag"), _cache_tag()),
        )
    if not isinstance(record.get("code"), types.CodeType):
        return None, ("corrupt", "record carries no code object")
    if not isinstance(record.get("entry_py"), str) or not isinstance(
        record.get("dynamic_params"), list
    ):
        return None, ("corrupt", "missing entry or dynamic_params")
    return record, None


def validate_code_bytes(data):
    """``None`` if ``data`` is a healthy code artifact, else its
    ``(category, reason)`` (fsck's validator for
    :data:`~repro.pipeline.cache.CODE_KIND`)."""
    return _read_code(data)[1]


def _exec_namespace(code):
    namespace = {"__name__": "compiled_program"}
    exec(code, namespace)
    return namespace


def _compile_result(result, obs=None):
    """Emit + compile one specialisation result — the one route from a
    residual to Python; returns the :class:`TierFunction` and the
    packed code-artifact bytes."""
    program = result.program
    names = mangle_table(program)
    entry_py = names.get(result.entry) or _mangle(result.entry)
    source = emit_python(program, names=names)
    code = compile(source, "<tier2:%s>" % result.entry, "exec")
    fn = TierFunction(
        result.entry,
        entry_py,
        result.dynamic_params,
        _exec_namespace(code),
        python_source=source,
        origin="emitted",
    )
    _count(obs, "tier.emitted")
    return fn, _pack_code(result.entry, entry_py, result.dynamic_params, code)


def load_compiled(disk, key, obs=None):
    """Load the persisted tier-2 callable for ``key`` from ``disk`` (an
    :class:`~repro.pipeline.cache.ArtifactCache`), or ``None``.

    Probes the marshalled code object first (no parsing, no
    compiling).  A code artifact that exists but cannot be used — a
    foreign cache tag, a damaged record — bumps
    ``tier.code_decode_miss`` and emits a ``tier.code_decode_miss``
    event naming the key and reason; the callable is then re-emitted
    from the key's ``resid.json`` (decoded through the store) and the
    code artifact rewritten for this interpreter.  No code artifact,
    or no usable ``resid.json`` behind a damaged one, is ``None``: the
    caller drops to tier 1."""
    data = disk.get_bytes(key, CODE_KIND)
    if data is None:
        return None
    record, problem = _read_code(data)
    if record is not None:
        try:
            namespace = _exec_namespace(record["code"])
        except Exception:
            problem = ("corrupt", "exec failed")
        else:
            _count(obs, "tier.code_loads")
            return TierFunction(
                record.get("entry", ""),
                record["entry_py"],
                record["dynamic_params"],
                namespace,
                origin="code",
            )
    # Expected across interpreter upgrades (stale cache tag), a bug when
    # it happens on the interpreter that wrote the artifact — so the
    # miss is counted and announced, never silent.
    _count(obs, "tier.code_decode_miss")
    if obs is not None:
        obs.bus.emit(
            "tier.code_decode_miss",
            key=key,
            reason=(problem or ("stale", "not a %s record" % TIER2_SCHEMA))[1],
        )
    payload = STORE.read(disk, key, obs=obs)
    if payload is None:
        return None
    fn, code_bytes = _compile_result(STORE.decode(key, payload, obs=obs), obs)
    disk.put_bytes(key, CODE_KIND, code_bytes)
    return fn


def _promote(disk, key, result, obs, goal):
    """Compile ``result``, persist the code artifact when there is a
    ``disk``, keep the callable in the store, and account the
    promotion."""
    fn, code_bytes = _compile_result(result, obs=obs)
    persisted = disk is not None and key is not None
    if persisted:
        disk.put_bytes(key, CODE_KIND, code_bytes)
    if key is not None:
        STORE.set_compiled(key, fn, obs=obs)
    _count(obs, "tier.promotions")
    if obs is not None:
        obs.bus.emit(
            "tier.promote", goal=goal, key=key, origin=fn.origin,
            persisted=persisted,
        )
    return fn


def note_warm(disk, key, goal, options, obs=None, result=None, payload=None):
    """Consult the ladder from a warm specialise path (daemon worker,
    batch driver's in-parent hit): bump the key's hotness and, at the
    policy's hot threshold, publish the tier-2 artifact so executors
    load compiled code instead of re-interpreting.  ``disk`` is the
    :class:`~repro.pipeline.cache.ArtifactCache` the hit came from; the
    residual comes from ``result`` or is decoded from ``payload``
    through the store.  Returns the promoted :class:`TierFunction` or
    ``None``."""
    policy = (options.tier_policy if options is not None else None) or (
        DEFAULT_TIER_POLICY
    )
    if STORE.bump(key, obs=obs) < policy.hot_after:
        return None
    fn = STORE.compiled(key)
    if fn is not None:
        return fn
    if disk is not None:
        fn = load_compiled(disk, key, obs=obs)
        if fn is not None:
            STORE.set_compiled(key, fn, obs=obs)
            return fn
    if result is None and payload is not None:
        result = STORE.decode(key, payload, obs=obs)
    if result is None:
        return None
    return _promote(disk, key, result, obs, goal)


# ---------------------------------------------------------------------------
# The ladder.
# ---------------------------------------------------------------------------


class TierLadder:
    """Hotness-driven execution over one linked genext program.

    ``program`` (the *general* :class:`~repro.modsys.program.LinkedProgram`
    the genexts were compiled from) enables tier 0; without it cold
    goals start at tier 1.  ``options.cache_dir`` roots the persistent
    objects — the residual payloads tier 1 hits and the tier-2 code
    artifacts; without it, promotions stay in this process.  ``options.tier_policy`` sets the thresholds.
    The ladder itself keeps only the promotion policy: counts and
    callables live in the residual store.

    >>> import repro
    >>> from repro.backend.tiers import TierLadder
    >>> gp = repro.compile_genexts('''
    ... module Power where
    ...
    ... power n x = if n == 1 then x else x * power (n - 1) x
    ... ''')
    >>> ladder = TierLadder(gp)
    >>> [ladder.call("power", {"n": 3}, (5,)).tier for _ in range(4)]
    [1, 1, 2, 2]
    """

    def __init__(self, gp, options=None, obs=None, program=None):
        from repro.api import spec_options
        from repro.obs import Obs

        self.gp = gp
        self.options = spec_options("TierLadder", options)
        self.policy = self.options.tier_policy or DEFAULT_TIER_POLICY
        self.obs = obs if obs is not None else Obs()
        self.program = program
        self.disk = (
            None if self.options.cache_dir is None
            else ArtifactCache(self.options.cache_dir)
        )
        fingerprint = getattr(gp, "fingerprint", None)
        self._fingerprint = fingerprint() if callable(fingerprint) else None

    def key_for(self, goal, static_args):
        """The residual cache key of one request (``None`` when the
        program has no fingerprint — no caching identity, no ladder)."""
        if self._fingerprint is None:
            return None
        return residual_cache_key(
            self._fingerprint, goal, static_args, self.options
        )

    def call(self, goal, static_args=None, dynamic_args=(), tier=None):
        """Execute ``goal`` on the given arguments; returns a
        :class:`TierRun`.  ``tier`` forces one rung (0/1/2) without
        touching the hotness counts — the differential checker's
        probe; ``None`` lets the ladder decide."""
        static_args = dict(static_args or {})
        dynamic_args = tuple(dynamic_args)
        if tier is not None:
            if tier == 0:
                return self._tier0(goal, static_args, dynamic_args)
            if tier == 1:
                return self._tier1(goal, static_args, dynamic_args)
            if tier == 2:
                return self._run2(
                    self.compiled(goal, static_args), dynamic_args
                )
            raise ValueError("tier must be 0, 1 or 2, got %r" % (tier,))
        key = self.key_for(goal, static_args)
        if key is None:
            return self._tier1(goal, static_args, dynamic_args)
        # The hot path: one dict probe + one native call.
        fn = STORE.compiled(key)
        if fn is not None:
            _count(self.obs, "tier.memo_hits")
            return self._run2(fn, dynamic_args, origin="memo")
        count = STORE.bump(key, obs=self.obs)
        # A persisted artifact is a durable promotion: a cold process
        # serves a previously-hot goal at tier 2 at once.
        fn = self._load(key)
        if fn is not None:
            return self._run2(fn, dynamic_args)
        if count >= self.policy.hot_after:
            result = self._specialise(goal, static_args)
            fn = _promote(self.disk, key, result, self.obs, goal)
            return self._run2(fn, dynamic_args)
        if count >= self.policy.warm_after or self.program is None:
            return self._tier1(goal, static_args, dynamic_args)
        return self._tier0(goal, static_args, dynamic_args)

    def compiled(self, goal, static_args=None):
        """The tier-2 callable for one request, promoting it now if no
        store entry or code artifact has it (hotness untouched)."""
        static_args = dict(static_args or {})
        key = self.key_for(goal, static_args)
        if key is not None:
            fn = STORE.compiled(key)
            if fn is not None:
                _count(self.obs, "tier.memo_hits")
                return fn
            fn = self._load(key)
            if fn is not None:
                return fn
        result = self._specialise(goal, static_args)
        return _promote(self.disk, key, result, self.obs, goal)

    def _load(self, key):
        """The key's callable from its persisted code artifact, kept
        in the store; ``None`` without a disk or an artifact."""
        if self.disk is None:
            return None
        fn = load_compiled(self.disk, key, obs=self.obs)
        if fn is not None:
            STORE.set_compiled(key, fn, obs=self.obs)
        return fn

    # -- the rungs ---------------------------------------------------

    def _full_args(self, goal, static_args, dynamic_args):
        params = self.gp.signature(goal).params
        dyn = list(dynamic_args)
        args = []
        for p in params:
            if p in static_args:
                args.append(static_args[p])
            elif dyn:
                args.append(dyn.pop(0))
            else:
                raise TypeError(
                    "%s: missing dynamic argument for parameter %r"
                    % (goal, p)
                )
        if dyn:
            raise TypeError(
                "%s: %d extra dynamic argument(s)" % (goal, len(dyn))
            )
        return args

    def _tier0(self, goal, static_args, dynamic_args):
        if self.program is None:
            raise ValueError(
                "tier 0 needs the general source program "
                "(TierLadder(program=...))"
            )
        from repro.interp import run_program

        args = self._full_args(goal, static_args, dynamic_args)
        value = run_program(
            self.program, goal, args, fuel=self.options.fuel
        )
        _count(self.obs, "tier.t0_runs")
        return TierRun(value, 0, "interp")

    def _specialise(self, goal, static_args):
        from repro.genext.engine import specialise

        return specialise(
            self.gp, goal, static_args, self.options, obs=self.obs
        )

    def _tier1(self, goal, static_args, dynamic_args):
        result = self._specialise(goal, static_args)
        value = result.run(*dynamic_args, fuel=self.options.fuel)
        _count(self.obs, "tier.t1_runs")
        return TierRun(value, 1, "residual")

    def _run2(self, fn, dynamic_args, origin=None):
        value = fn(*dynamic_args)
        _count(self.obs, "tier.t2_runs")
        return TierRun(value, 2, origin or fn.origin)
