"""Concurrency hammers: the residual store's LRU under threads, its
on-disk entries under racing processes.

The serve daemon turned both halves of the store into genuinely
concurrent structures — request-handler threads probe the process-wide
LRU, and separate worker *processes* publish ``resid.json`` entries
into one directory.  These tests exercise exactly those regimes: no
torn state, no exceptions, invariants (bounded LRU, valid payloads)
hold at every observation point.
"""

import json
import multiprocessing
import threading
import time

import repro
from repro.api import SpecOptions
from repro.backend import generate
from repro.pipeline.cache import ArtifactCache
from repro.speccache import (
    RESID_KIND,
    STORE,
    encode_result,
    residual_cache_key,
    validate_payload_bytes,
)

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x
"""


# ---------------------------------------------------------------------------
# The store's LRU: many threads, one bounded store.
# ---------------------------------------------------------------------------


def test_rtcg_lru_survives_thread_hammer(monkeypatch):
    gp = repro.compile_genexts(POWER)
    errors = []
    barrier = threading.Barrier(6)
    stop = threading.Event()
    monkeypatch.setattr(STORE, "capacity", 4)

    def worker(seed):
        try:
            barrier.wait(timeout=30)
            for i in range(40):
                n = 1 + (seed + i) % 7  # 7 distinct keys, capacity 4
                fn = generate(gp, "power", {"n": n})
                if fn(2) != 2 ** n:
                    errors.append("wrong value for n=%d" % n)
                # The invariant must hold at every observation point,
                # not just at the end: never more entries than the
                # capacity.
                if len(STORE) > 4:
                    errors.append("lru overflow: %d" % len(STORE))
        except Exception as exc:  # noqa: BLE001 - the hammer reports all
            errors.append(repr(exc))

    def churn():
        try:
            barrier.wait(timeout=30)
            i = 0
            while not stop.is_set():
                if i % 4 == 3:
                    STORE.clear()
                i += 1
                time.sleep(0.001)
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(5)]
    churner = threading.Thread(target=churn)
    try:
        for t in threads:
            t.start()
        churner.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        stop.set()
        churner.join(timeout=30)
    assert not errors, errors[:5]
    assert len(STORE) <= 4


def test_rtcg_lru_concurrent_same_cold_key_both_correct():
    # Two threads racing the same cold key may both compute; the last
    # insert wins and both callables must be correct (nothing torn).
    gp = repro.compile_genexts(POWER)
    results = []
    barrier = threading.Barrier(4)
    lock = threading.Lock()

    def race():
        barrier.wait(timeout=30)
        fn = generate(gp, "power", {"n": 5})
        with lock:
            results.append(fn(3))

    threads = [threading.Thread(target=race) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert results == [243, 243, 243, 243]
    assert len(STORE) == 1


def test_store_hotness_counts_every_concurrent_bump():
    # The hotness count is a read-modify-write on a shared entry; a
    # lost update would delay (or skip) a promotion.
    import sys

    threads_n, rounds = 8, 300
    barrier = threading.Barrier(threads_n)
    counts = []
    lock = threading.Lock()

    def bump():
        barrier.wait(timeout=30)
        last = 0
        for _ in range(rounds):
            last = STORE.bump("k" * 64)
        with lock:
            counts.append(last)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert max(counts) == threads_n * rounds
    assert STORE.bump("k" * 64) == threads_n * rounds + 1


# ---------------------------------------------------------------------------
# resid.json entries: racing OS processes, never a torn payload.
# ---------------------------------------------------------------------------


def _hammer_put(root, key, payload, rounds):
    disk = ArtifactCache(root)
    for _ in range(rounds):
        STORE.write(disk, key, payload)


def _payload_bytes(payload):
    """The exact bytes ``ResidualStore.write`` publishes for ``payload``."""
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def test_speccache_racing_writers_never_torn(tmp_path):
    gp = repro.compile_genexts(POWER)
    # Two *different* valid payloads destined for the same key — the
    # worst case: concurrent os.replace calls with distinct contents.
    payload_a = encode_result(repro.specialise(gp, "power", {"n": 3}))
    payload_b = encode_result(repro.specialise(gp, "power", {"n": 6}))
    assert payload_a != payload_b
    valid = {_payload_bytes(payload_a), _payload_bytes(payload_b)}

    root = str(tmp_path / "cache")
    disk = ArtifactCache(root)
    key = residual_cache_key(gp.fingerprint(), "power", {"n": 3}, SpecOptions())

    writers = [
        multiprocessing.Process(
            target=_hammer_put, args=(root, key, payload, 150)
        )
        for payload in (payload_a, payload_b)
    ]
    for p in writers:
        p.start()
    try:
        observations = 0
        while any(p.is_alive() for p in writers):
            data = disk.get_bytes(key, RESID_KIND)
            if data is not None:
                observations += 1
                # Atomic publication: a reader sees exactly one of the
                # two complete encodings — never a mix, never a prefix.
                assert data in valid, "torn read (%d bytes)" % len(data)
                assert validate_payload_bytes(data) is None
    finally:
        for p in writers:
            p.join(timeout=120)
    assert all(p.exitcode == 0 for p in writers)
    assert observations > 0, "reader never overlapped the writers"

    final = STORE.read(disk, key, goal="power")
    assert final in (payload_a, payload_b)


def test_speccache_writer_racing_reader_through_api(tmp_path):
    # Same race observed through the public get(): every non-miss is a
    # fully valid decoded payload.
    gp = repro.compile_genexts(POWER)
    payload = encode_result(repro.specialise(gp, "power", {"n": 4}))

    root = str(tmp_path / "cache")
    disk = ArtifactCache(root)
    key = residual_cache_key(gp.fingerprint(), "power", {"n": 4}, SpecOptions())

    writer = multiprocessing.Process(
        target=_hammer_put, args=(root, key, payload, 200)
    )
    writer.start()
    try:
        hits = 0
        while writer.is_alive():
            got = STORE.read(disk, key, goal="power")
            if got is not None:
                hits += 1
                assert got == payload
    finally:
        writer.join(timeout=120)
    assert writer.exitcode == 0
    assert hits > 0
