"""The residual store: one key, one in-process entry, one file on disk.

PR 1 made *builds* content-addressed; this module does the same for the
specialisation layer.  The paper's economics (Sec. 8, via LL94) are
that analysis and cogen happen once while specialisation is the cheap,
repeated step — but "cheap" still means running the whole generating-
extension pump and assembling a residual program.  Serving many users
means serving *repeated* requests, and a repeated request should cost a
key computation and a lookup.

Key anatomy
-----------

:func:`residual_cache_key` is a SHA-256 over, in order:

* a salt and :data:`SPECCACHE_VERSION` (plus the build pipeline's
  :data:`~repro.bt.interface.CACHE_EPOCH`, so an analysis/cogen change
  flushes residual programs too);
* the linked program's **fingerprint** — the generating-extension
  module sources and the link topology
  (:meth:`~repro.genext.link.GenextProgram.fingerprint`);
* the **goal** function name;
* the **canonicalised static arguments** (JSON, sorted keys, tuples as
  lists — bools and naturals stay distinct);
* the semantically relevant :class:`~repro.api.SpecOptions` fields:
  ``strategy``, ``monolithic``, and ``max_versions`` (they change what
  the run produces — or whether it fails);  ``fuel``/``timeout``/
  ``sink``/``cache_dir`` do not enter the key (they change how the run
  is executed or consumed, never its result).

Editing one module's source, relinking in a different topology, or
changing any keyed option therefore forces a miss; everything else is a
warm hit that returns the residual program (and the original run's
stats) without constructing a :class:`~repro.genext.runtime.SpecState`
at all.

Storage
-------

:data:`STORE` is the process-wide :class:`ResidualStore`: one LRU keyed
by the residual key, under one lock and one capacity
(:data:`STORE_CAPACITY`).  Each entry holds the key's request count
(the execution ladder's hotness), the decoded residual once decoded,
and the tier-2 callable once compiled
(:mod:`repro.backend.tiers`).

On disk the one residual entry is ``<key>.resid.json`` in the same
atomic-write content-addressed object store as the build artifacts
(:class:`~repro.pipeline.cache.ArtifactCache`): canonical JSON
(:data:`SPECCACHE_SCHEMA`) holding the pretty-printed residual program
— the pretty-printer/parser round-trip is exact, so a decoded result is
byte-identical to a cold run's.  Concurrent writers can race safely,
readers never see torn files, ``mspec fsck`` validates and
quarantines, and the directory may be shared between processes, which
is what gives the batch driver its cross-process dedup.  Beside it the
ladder keeps one marshalled code object per interpreter,
``<key>.code-<cache_tag>.bin``.

Counters (``speccache.hits`` / ``misses`` / ``reads`` / ``writes`` /
``decode_hits`` / ``decode_misses`` / ``evictions``, and the
``speccache.lru_len`` gauge) land in the caller's
:class:`~repro.obs.metrics.MetricsRegistry`; each disk probe also emits
a ``speccache.hit`` / ``speccache.miss`` event on the bus.
"""

import hashlib
import json
import threading
from collections import OrderedDict

from repro.bt.interface import CACHE_EPOCH
from repro.lang.errors import LangError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.modsys.program import link_program
from repro.pipeline.cache import RESID_KIND

__all__ = [
    "SPECCACHE_SCHEMA",
    "STORE",
    "STORE_CAPACITY",
    "ResidualStore",
    "canonical_static_args",
    "decode_result",
    "encode_result",
    "residual_cache_key",
    "validate_payload_bytes",
]

SPECCACHE_SCHEMA = "repro.speccache/v1"
SPECCACHE_VERSION = 1

_KEY_SALT = b"mspec-residual-key\x00"


def _canon_value(v):
    """A JSON-encodable canonical form of one static-argument value."""
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, str):
        # str covers the ("pair", a, b) tag tuples from_python accepts.
        return v
    if isinstance(v, (tuple, list)):
        return [_canon_value(x) for x in v]
    raise TypeError("cannot canonicalise static value %r" % (v,))


def canonical_static_args(static_args):
    """Deterministic text encoding of a static-argument mapping.

    JSON keeps booleans and integers distinct, lists and tuples
    collapse (the object language has only one list), and key order is
    canonicalised — so two requests meaning the same thing always key
    the same."""
    canon = {name: _canon_value(v) for name, v in (static_args or {}).items()}
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def residual_cache_key(fingerprint, goal, static_args, options):
    """The content-addressed key of one specialisation request."""
    h = hashlib.sha256()
    h.update(_KEY_SALT)
    h.update(
        b"v=%d epoch=%d\x00" % (SPECCACHE_VERSION, CACHE_EPOCH)
    )
    h.update(fingerprint.encode("utf-8"))
    h.update(b"\x00goal=")
    h.update(goal.encode("utf-8"))
    h.update(b"\x00static=")
    h.update(canonical_static_args(static_args).encode("utf-8"))
    h.update(
        b"\x00opts=strategy:%s;monolithic:%d;max_versions:%s"
        % (
            options.strategy.encode("utf-8"),
            1 if options.monolithic else 0,
            b"none"
            if options.max_versions is None
            else b"%d" % options.max_versions,
        )
    )
    # The unfolding strategy changes the residual program, so it keys
    # the cache.  Appended conditionally so the default key is unchanged.
    if options.unfolding != "lub":
        h.update(
            b"\x00analysis=unfolding:%s" % options.unfolding.encode("utf-8")
        )
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Payload encode/decode.
# ---------------------------------------------------------------------------


def encode_result(result):
    """The JSON-ready payload of a :class:`SpecialisationResult`."""
    return {
        "schema": SPECCACHE_SCHEMA,
        "entry": result.entry,
        "dynamic_params": list(result.dynamic_params),
        "stats": dict(result.stats),
        "module_names": sorted(
            [sorted(placement), name]
            for placement, name in result.module_names.items()
        ),
        "program": pretty_program(result.program),
    }


def _decode_program(text):
    program = parse_program(text)
    return program, link_program(program)


def _result_of(payload, decoded, obs, fuel):
    from repro.genext.engine import SpecialisationResult

    program, linked = decoded
    result = SpecialisationResult(
        program=program,
        linked=linked,
        entry=payload["entry"],
        dynamic_params=tuple(payload["dynamic_params"]),
        stats=dict(payload["stats"]),
        module_names={
            frozenset(parts): name
            for parts, name in payload["module_names"]
        },
        obs=obs,
    )
    if fuel is not None:
        result.fuel = fuel
    return result


def decode_result(payload, obs=None, fuel=None):
    """Rebuild a :class:`~repro.genext.engine.SpecialisationResult` from
    a payload: parse the pretty-printed residual program and re-link it.
    ``fuel`` is the caller's interpretation budget — an execution knob,
    not part of the cached identity.  Callers holding the residual key
    decode through :meth:`ResidualStore.decode` instead, which parses
    each key once per process."""
    return _result_of(payload, _decode_program(payload["program"]), obs, fuel)


def validate_payload_bytes(data):
    """``None`` if ``data`` is a well-formed cached residual payload,
    else the reason it is not (fsck's validator for ``resid.json``)."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return "not JSON: %s" % exc
    if not isinstance(payload, dict):
        return "not an object"
    if payload.get("schema") != SPECCACHE_SCHEMA:
        return "schema must be %r, got %r" % (
            SPECCACHE_SCHEMA,
            payload.get("schema"),
        )
    for field, types in (
        ("entry", str),
        ("dynamic_params", list),
        ("stats", dict),
        ("module_names", list),
        ("program", str),
    ):
        if not isinstance(payload.get(field), types):
            return "missing or malformed %r field" % field
    try:
        parse_program(payload["program"])
    except LangError as exc:
        # A front-end rejection means a corrupt payload (= cache miss);
        # any other exception is a parser bug and must propagate.
        return "residual program does not parse: %s" % exc
    return None


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------

# One capacity for everything the process keeps per key: the hotness
# count, the decoded residual and the compiled callable live and die
# together.
STORE_CAPACITY = 256


class _Entry:
    __slots__ = ("hotness", "decoded", "compiled")

    def __init__(self):
        self.hotness = 0
        self.decoded = None  # (program, linked) once decoded
        self.compiled = None  # the tier-2 TierFunction once compiled


def _count(obs, name, n=1):
    if obs is not None:
        obs.metrics.counter(name).inc(n)


class ResidualStore:
    """The process-wide residual store: one LRU of :class:`_Entry`
    objects keyed by :func:`residual_cache_key`, under one lock, over
    the on-disk ``resid.json`` entries of an
    :class:`~repro.pipeline.cache.ArtifactCache`.

    Every structural operation holds the lock; the expensive work —
    reading disk, parsing, specialising, compiling — happens outside
    it.  Two threads racing on one cold key may both compute; the last
    write wins and both results are correct.  Inserting past
    :attr:`capacity` evicts the least recently used entry
    (``speccache.evictions``); each insert refreshes the
    ``speccache.lru_len`` gauge."""

    def __init__(self):
        self.capacity = STORE_CAPACITY
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> _Entry, most-recent last

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def clear(self):
        """Drop every entry (test isolation; also how a restart is
        simulated in-process)."""
        with self._lock:
            self._entries.clear()

    def _entry(self, key):
        """The entry for ``key``, created if absent; call with the lock
        held.  Returns ``(entry, evicted, length)``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry, 0, None
        entry = self._entries[key] = _Entry()
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return entry, evicted, len(self._entries)

    def _account(self, obs, evicted, length):
        if obs is None or length is None:
            return
        if evicted:
            obs.metrics.counter("speccache.evictions").inc(evicted)
        obs.metrics.gauge("speccache.lru_len").set(length)

    def bump(self, key, obs=None):
        """Count one more request for ``key``; returns the new count."""
        with self._lock:
            entry, evicted, length = self._entry(key)
            entry.hotness += 1
            count = entry.hotness
        self._account(obs, evicted, length)
        return count

    def compiled(self, key):
        """The key's tier-2 callable, or ``None`` (never inserts)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.compiled is None:
                return None
            self._entries.move_to_end(key)
            return entry.compiled

    def set_compiled(self, key, fn, obs=None):
        with self._lock:
            entry, evicted, length = self._entry(key)
            entry.compiled = fn
        self._account(obs, evicted, length)

    def decode(self, key, payload, obs=None, fuel=None):
        """:func:`decode_result` through the key's entry: the first
        decode parses and links, later ones reuse the immutable program
        and linked view in a fresh result wrapper
        (``speccache.decode_hits`` / ``decode_misses``)."""
        with self._lock:
            entry = self._entries.get(key)
            decoded = None if entry is None else entry.decoded
            if decoded is not None:
                self._entries.move_to_end(key)
        _count(
            obs,
            "speccache.decode_misses" if decoded is None
            else "speccache.decode_hits",
        )
        if decoded is None:
            decoded = _decode_program(payload["program"])
            with self._lock:
                entry, evicted, length = self._entry(key)
                entry.decoded = decoded
            self._account(obs, evicted, length)
        return _result_of(payload, decoded, obs, fuel)

    # -- the durable entry -----------------------------------------------

    def read(self, disk, key, obs=None, goal=None):
        """The ``resid.json`` payload dict for ``key`` in ``disk`` (an
        :class:`~repro.pipeline.cache.ArtifactCache`), or ``None`` on a
        miss (absent, torn, or corrupt — a corrupt entry simply
        recomputes)."""
        data = disk.get_bytes(key, RESID_KIND)
        if data is not None:
            _count(obs, "speccache.reads")
            if validate_payload_bytes(data) is None:
                _count(obs, "speccache.hits")
                if obs is not None:
                    obs.bus.emit("speccache.hit", key=key, goal=goal)
                return json.loads(data.decode("utf-8"))
        _count(obs, "speccache.misses")
        if obs is not None:
            obs.bus.emit("speccache.miss", key=key, goal=goal)
        return None

    def write(self, disk, key, payload, obs=None):
        """Atomically publish one payload; returns its path."""
        _count(obs, "speccache.writes")
        data = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        return disk.put_text(key, RESID_KIND, data)


STORE = ResidualStore()
