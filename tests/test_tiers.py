"""The three-tier execution ladder (``repro.backend.tiers``).

Covers: hotness-driven promotion, the persisted tier-2 artifact (the
cache-tag-keyed marshalled code object beside ``resid.json``), the
fallback chain (store entry → code artifact → re-emit from
``resid.json`` → tier 1), cold-restart durability, warm-hit promotion
from the specialise paths (batch driver and daemon), the serve
daemon's ``run`` op, fsck over the tier-2 objects, decode-hit counting
and the store's LRU metrics.
"""

import json
import marshal
import os

import pytest

import repro
from repro.api import SpecOptions
from repro.backend.tiers import (
    DEFAULT_TIER_POLICY,
    TIER2_SCHEMA,
    TierLadder,
    TierPolicy,
    load_compiled,
    note_warm,
)
from repro.obs import Obs
from repro.pipeline.cache import ArtifactCache, CODE_KIND, RESID_KIND
from repro.speccache import STORE, residual_cache_key

# The emitted-source artifact kind older stores kept beside resid.json.
LEFTOVER_SOURCE_KIND = "resid.py"

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x
"""


@pytest.fixture
def gp():
    return repro.compile_genexts(POWER)


def _counters(obs):
    return dict(obs.metrics.snapshot()["counters"])


# ---------------------------------------------------------------------------
# Policy and options plumbing
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_defaults(self):
        assert DEFAULT_TIER_POLICY == TierPolicy(warm_after=1, hot_after=3)

    def test_rejects_negative_warm(self):
        with pytest.raises(ValueError):
            TierPolicy(warm_after=-1)

    def test_rejects_hot_below_warm(self):
        with pytest.raises(ValueError):
            TierPolicy(warm_after=5, hot_after=2)

    def test_spec_options_accepts_policy(self):
        options = SpecOptions(tier_policy=TierPolicy(hot_after=7))
        assert options.tier_policy.hot_after == 7

    def test_spec_options_rejects_junk_policy(self):
        with pytest.raises(TypeError):
            SpecOptions(tier_policy="eager")

    def test_tier_policy_is_not_part_of_the_cache_key(self, gp):
        """An execution knob (like fuel) must not fork the residual
        cache: the same request with and without a policy shares one
        key."""
        fp = gp.fingerprint()
        plain = residual_cache_key(fp, "power", {"n": 3}, SpecOptions())
        tiered = residual_cache_key(
            fp, "power", {"n": 3},
            SpecOptions(tier_policy=TierPolicy(hot_after=9)),
        )
        assert plain == tiered


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------


class TestLadder:
    def test_promotion_sequence(self, gp, tmp_path):
        obs = Obs()
        ladder = TierLadder(
            gp,
            options=SpecOptions(
                cache_dir=str(tmp_path),
                tier_policy=TierPolicy(warm_after=2, hot_after=3),
            ),
            obs=obs,
            program=repro.load_program(POWER),
        )
        runs = [ladder.call("power", {"n": 3}, (5,)) for _ in range(5)]
        assert [r.value for r in runs] == [125] * 5
        assert [r.tier for r in runs] == [0, 1, 2, 2, 2]
        assert runs[2].origin == "emitted"
        assert runs[3].origin == "memo"
        c = _counters(obs)
        assert c["tier.t0_runs"] == 1
        assert c["tier.t1_runs"] == 1
        assert c["tier.t2_runs"] == 3
        assert c["tier.promotions"] == 1
        assert c["tier.memo_hits"] == 2

    def test_without_general_program_cold_goals_start_at_tier1(self, gp):
        ladder = TierLadder(
            gp,
            options=SpecOptions(
                tier_policy=TierPolicy(warm_after=5, hot_after=9)
            ),
        )
        assert ladder.call("power", {"n": 3}, (2,)).tier == 1

    def test_forced_tiers_agree_and_skip_hotness(self, gp, tmp_path):
        ladder = TierLadder(
            gp,
            options=SpecOptions(cache_dir=str(tmp_path)),
            program=repro.load_program(POWER),
        )
        # Forced tier-0/1 probes never count towards promotion: the
        # organic call after them is still the first (tier 1 under the
        # default warm_after=1).
        for t in (0, 1):
            assert ladder.call("power", {"n": 4}, (3,), tier=t).value == 81
        assert ladder.call("power", {"n": 4}, (3,)).tier == 1
        # A forced tier-2 probe agrees too (and memoises the callable:
        # later calls are answered by the memo, not the counters).
        assert ladder.call("power", {"n": 4}, (3,), tier=2).value == 81
        assert ladder.call("power", {"n": 4}, (3,)).origin == "memo"

    def test_promotion_persists_both_artifacts(self, gp, tmp_path):
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        ladder = TierLadder(gp, options=options)
        run = ladder.call("power", {"n": 3}, (2,))
        assert (run.tier, run.value) == (2, 8)
        key = ladder.key_for("power", {"n": 3})
        store = ArtifactCache(str(tmp_path))
        assert store.has(key, RESID_KIND)
        assert store.has(key, CODE_KIND)
        assert not store.has(key, LEFTOVER_SOURCE_KIND)
        record = marshal.loads(store.get_bytes(key, CODE_KIND))
        assert record["schema"] == TIER2_SCHEMA
        assert record["entry"] == "power"

    def test_no_cache_dir_keeps_promotion_process_local(
        self, gp, tmp_path, monkeypatch
    ):
        """Without a cache_dir a promotion lives only in the store
        entry: nothing is written anywhere."""
        monkeypatch.chdir(tmp_path)
        obs = Obs()
        events = []
        obs.bus.subscribe("tier.promote", lambda n, p: events.append(p))
        options = SpecOptions(tier_policy=TierPolicy(hot_after=1))
        ladder = TierLadder(gp, options=options, obs=obs)
        first = ladder.call("power", {"n": 3}, (2,))
        assert (first.tier, first.origin) == (2, "emitted")
        assert ladder.disk is None
        assert [e["persisted"] for e in events] == [False]
        assert ladder.call("power", {"n": 3}, (2,)).origin == "memo"
        assert os.listdir(str(tmp_path)) == []

    def test_cold_restart_serves_from_persisted_artifact(self, gp, tmp_path):
        """The acceptance scenario: after a promotion, a fresh process
        (fresh memo, fresh obs) answers tier 2 straight from the
        marshalled code object — no specialisation, no emit, no
        ``compile()`` from the AST."""
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        TierLadder(gp, options=options).call("power", {"n": 6}, (2,))

        STORE.clear()  # the "restart"
        obs = Obs()
        run = TierLadder(gp, options=options, obs=obs).call(
            "power", {"n": 6}, (2,)
        )
        assert (run.value, run.tier, run.origin) == (64, 2, "code")
        c = _counters(obs)
        assert c["tier.code_loads"] == 1
        assert "tier.emitted" not in c
        assert "spec.requests" not in c  # the specialiser never ran
        assert "speccache.reads" not in c  # nor was resid.json read
        # The healthy artifact decoded first try: a decode miss here
        # would mean the restart silently repaired its own artifact.
        assert c.get("tier.code_decode_miss", 0) == 0

    def test_wrong_cache_tag_falls_back_to_source_and_self_heals(
        self, gp, tmp_path
    ):
        """A foreign code record re-emits from the residual source in
        resid.json (decoded through the store, no specialisation run)
        and rewrites the code artifact for this interpreter."""
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        ladder = TierLadder(gp, options=options)
        ladder.call("power", {"n": 5}, (2,))
        key = ladder.key_for("power", {"n": 5})
        store = ArtifactCache(str(tmp_path))
        record = marshal.loads(store.get_bytes(key, CODE_KIND))
        record["tag"] = "some-other-interpreter"
        del record["code"]  # a foreign code object would not unmarshal
        store.put_bytes(key, CODE_KIND, marshal.dumps(record))

        STORE.clear()
        obs = Obs()
        fn = load_compiled(store, key, obs=obs)
        assert fn is not None and fn.origin == "emitted"
        assert fn(2) == 32
        c = _counters(obs)
        assert c["tier.code_decode_miss"] == 1
        assert c["tier.emitted"] == 1
        assert c["speccache.hits"] == 1
        assert "spec.requests" not in c  # decoded, not re-specialised
        # Self-heal republished a loadable code artifact.
        obs2 = Obs()
        again = load_compiled(store, key, obs=obs2)
        assert again is not None and again.origin == "code"

    def test_corrupt_code_artifact_falls_back_to_source(self, gp, tmp_path):
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        ladder = TierLadder(gp, options=options)
        ladder.call("power", {"n": 5}, (2,))
        key = ladder.key_for("power", {"n": 5})
        store = ArtifactCache(str(tmp_path))
        store.put_bytes(key, CODE_KIND, b"\x00garbage")
        STORE.clear()
        fn = load_compiled(store, key)
        assert fn is not None and fn.origin == "emitted"
        assert fn(3) == 243

    def test_corrupt_code_without_resid_json_is_a_miss(self, tmp_path):
        store = ArtifactCache(str(tmp_path))
        store.put_bytes("6" * 64, CODE_KIND, b"\x00garbage")
        obs = Obs()
        assert load_compiled(store, "6" * 64, obs=obs) is None
        assert _counters(obs)["tier.code_decode_miss"] == 1

    def test_both_artifacts_missing_is_a_clean_miss(self, gp, tmp_path):
        store = ArtifactCache(str(tmp_path))
        assert load_compiled(store, "0" * 64) is None

    def test_headerless_source_is_a_miss(self, gp, tmp_path):
        """A leftover emitted source is never read: without a code
        artifact the key is a miss."""
        store = ArtifactCache(str(tmp_path))
        store.put_text("1" * 64, LEFTOVER_SOURCE_KIND, "x = 1\n")
        assert load_compiled(store, "1" * 64) is None

    def test_ladder_matches_interpreter_on_tuples(self, tmp_path):
        source = (
            "module M where\n\n"
            "rep n x = if n == 0 then nil else x : rep (n - 1) x\n"
        )
        gp = repro.compile_genexts(source)
        ladder = TierLadder(
            gp,
            options=SpecOptions(cache_dir=str(tmp_path)),
            program=repro.load_program(source),
        )
        for tier in (0, 1, 2):
            run = ladder.call("rep", {"n": 3}, (7,), tier=tier)
            assert run.value == (7, 7, 7)

    def test_generate_and_forced_tier2_share_one_callable(self, gp):
        """rtcg.generate is a view of the ladder's tier-2 rung: both
        reach one store entry, so the residual is emitted once."""
        from repro.backend import generate

        obs = Obs()
        ladder = TierLadder(gp, obs=obs)
        run = ladder.call("power", {"n": 3}, (2,), tier=2)
        fn = generate(gp, "power", {"n": 3}, obs=obs)
        assert run.value == fn(2) == 8
        assert fn is STORE.compiled(ladder.key_for("power", {"n": 3}))
        assert _counters(obs)["tier.emitted"] == 1


# ---------------------------------------------------------------------------
# Warm-hit promotion (the batch driver / daemon consultation point)
# ---------------------------------------------------------------------------


class TestNoteWarm:
    def test_promotes_at_threshold_from_payload(self, gp, tmp_path):
        from repro.genext.engine import specialise
        from repro.speccache import encode_result

        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=2)
        )
        disk = ArtifactCache(str(tmp_path))
        result = specialise(gp, "power", {"n": 3}, options)
        payload = encode_result(result)
        key = residual_cache_key(
            gp.fingerprint(), "power", {"n": 3}, options
        )
        obs = Obs()
        first = note_warm(
            disk, key, "power", options, obs=obs, payload=payload
        )
        assert first is None  # count 1 < hot_after 2
        second = note_warm(
            disk, key, "power", options, obs=obs, payload=payload
        )
        assert second is not None and second(2) == 8
        assert disk.has(key, CODE_KIND)
        assert _counters(obs)["tier.promotions"] == 1

    def test_batch_warm_path_promotes(self, gp, tmp_path):
        """specialise_many's in-parent warm hit feeds the ladder: by
        the policy's threshold the artifacts are on disk."""
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=2)
        )
        requests = [{"goal": "power", "static_args": {"n": 3}}]
        repro.specialise_many(gp, requests, options)  # cold: misses
        obs = Obs()
        repro.specialise_many(gp, requests, options, obs=obs)  # warm #1
        repro.specialise_many(gp, requests, options, obs=obs)  # warm #2
        key = residual_cache_key(
            gp.fingerprint(), "power", {"n": 3}, options
        )
        assert ArtifactCache(str(tmp_path)).has(key, CODE_KIND)
        assert _counters(obs)["tier.promotions"] == 1

    def test_batch_without_policy_never_touches_the_ladder(
        self, gp, tmp_path
    ):
        options = SpecOptions(cache_dir=str(tmp_path))
        requests = [{"goal": "power", "static_args": {"n": 3}}]
        obs = Obs()
        for _ in range(4):
            repro.specialise_many(gp, requests, options, obs=obs)
        assert not any(
            name.startswith("tier.") for name in _counters(obs)
        )


# ---------------------------------------------------------------------------
# The serve daemon's run op
# ---------------------------------------------------------------------------


def _daemon(tmp_path, **kwargs):
    from repro.serve.daemon import ServeConfig, SpecServer

    src = tmp_path / "prog"
    src.mkdir(exist_ok=True)
    (src / "Power.mod").write_text(POWER)
    config = ServeConfig(
        dir=str(src),
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "cache"),
        warm_pool=False,
        **kwargs,
    )
    return SpecServer(config)


def _request(server, doc):
    from repro.serve import protocol

    return server.handle_request(protocol.parse_request(json.dumps(doc)))


class TestServeRun:
    def test_run_climbs_and_promotes(self, tmp_path):
        server = _daemon(tmp_path, tier_hot=2)
        try:
            doc = {
                "op": "run", "goal": "power",
                "static_args": {"n": 5}, "dynamic_args": [2],
            }
            first = _request(server, doc)
            second = _request(server, doc)
            assert first["ok"] and second["ok"]
            assert first["value"] == second["value"] == 32
            assert (first["tier"], second["tier"]) == (1, 2)
            assert second["origin"] == "emitted"
            assert second["seconds"] >= 0
            snap = server.obs.metrics.snapshot()["counters"]
            assert snap["serve.runs"] == 2
        finally:
            server.close()

    def test_run_value_encodes_tuples_as_json(self, tmp_path):
        from repro.serve.daemon import ServeConfig, SpecServer

        src = tmp_path / "prog"
        src.mkdir()
        (src / "M.mod").write_text(
            "module M where\n\n"
            "rep n x = if n == 0 then nil else x : rep (n - 1) x\n"
        )
        server = SpecServer(ServeConfig(
            dir=str(src),
            socket_path=str(tmp_path / "serve.sock"),
            cache_dir=str(tmp_path / "cache"),
            warm_pool=False,
        ))
        try:
            response = _request(server, {
                "op": "run", "goal": "rep",
                "static_args": {"n": 3}, "dynamic_args": [7],
            })
            assert response["ok"]
            assert response["value"] == [7, 7, 7]
        finally:
            server.close()

    def test_run_failure_is_an_error_response(self, tmp_path):
        server = _daemon(tmp_path)
        try:
            response = _request(server, {
                "op": "run", "goal": "nosuch", "dynamic_args": [],
            })
            assert not response["ok"]
            assert response["error"]["code"] == "error"
        finally:
            server.close()

    def test_warm_specialise_hits_promote_under_tier_hot(self, tmp_path):
        server = _daemon(tmp_path, tier_hot=2)
        try:
            doc = {"op": "specialise", "goal": "power",
                   "static_args": {"n": 4}}
            assert _request(server, doc)["served"] == "cold"
            assert _request(server, doc)["served"] == "warm"
            assert _request(server, doc)["served"] == "warm"
            snap = server.obs.metrics.snapshot()["counters"]
            assert snap["tier.promotions"] == 1
        finally:
            server.close()

    def test_specialise_never_promotes_without_tier_hot(self, tmp_path):
        server = _daemon(tmp_path)
        try:
            doc = {"op": "specialise", "goal": "power",
                   "static_args": {"n": 4}}
            for _ in range(4):
                _request(server, doc)
            snap = server.obs.metrics.snapshot()["counters"]
            assert not any(k.startswith("tier.") for k in snap)
        finally:
            server.close()

    def test_config_rejects_bad_tier_hot(self, tmp_path):
        from repro.serve.daemon import ServeConfig

        with pytest.raises(ValueError):
            ServeConfig(dir=str(tmp_path), tier_hot=0)


class TestProtocolRun:
    def test_parse_converts_nested_dynamic_args(self):
        from repro.serve import protocol

        doc = protocol.parse_request(json.dumps({
            "op": "run", "goal": "g",
            "static_args": {"xs": [1, [2, 3]]},
            "dynamic_args": [[4, 5], 6],
        }))
        assert doc["static_args"] == {"xs": (1, (2, 3))}
        assert doc["dynamic_args"] == [(4, 5), 6]

    def test_parse_rejects_non_list_dynamic_args(self):
        from repro.serve import protocol

        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(json.dumps({
                "op": "run", "goal": "g", "dynamic_args": {"x": 1},
            }))

    def test_parse_requires_goal(self):
        from repro.serve import protocol

        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(json.dumps({"op": "run"}))

    def test_value_json_round_trip(self):
        from repro.serve.protocol import value_from_json, value_to_json

        value = (1, (2, (3,)), True, 0)
        assert value_from_json(value_to_json(value)) == value


# ---------------------------------------------------------------------------
# fsck over the tier-2 artifacts
# ---------------------------------------------------------------------------


class TestFsckTierArtifacts:
    def test_healthy_artifacts_pass(self, gp, tmp_path):
        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        TierLadder(gp, options=options).call("power", {"n": 3}, (2,))
        from repro.pipeline.faults import fsck_cache

        report = fsck_cache(ArtifactCache(str(tmp_path)))
        assert report.ok and not report.stale

    def test_stale_tag_quarantined_as_stale_not_corrupt(self, tmp_path):
        from repro.pipeline.faults import EXIT_CORRUPT, fsck_cache

        store = ArtifactCache(str(tmp_path))
        record = {
            "schema": TIER2_SCHEMA, "tag": "foreignpython-00",
            "entry": "f", "entry_py": "f", "dynamic_params": [],
            "code": compile("1", "<t>", "eval"),
        }
        store.put_bytes("2" * 64, CODE_KIND, marshal.dumps(record))
        report = fsck_cache(store)
        assert not report.ok
        assert report.exit_code == EXIT_CORRUPT
        assert not report.quarantined  # stale, not corrupt
        names = [name for name, _ in report.stale]
        assert names == ["2" * 64 + "." + CODE_KIND]
        assert "stale code artifact" in report.stale[0][1]
        assert not store.has("2" * 64, CODE_KIND)  # quarantined anyway

    def test_headerless_resid_py_is_stale(self, tmp_path):
        """A ``resid.py`` left by an older store is reported as stale
        (it is dead weight, nothing reads it), never as a corrupt
        unknown kind — and a stale finding still fails the exit code."""
        from repro.pipeline.faults import EXIT_CORRUPT, fsck_cache

        store = ArtifactCache(str(tmp_path))
        name = "3" * 64 + "." + LEFTOVER_SOURCE_KIND
        store.put_text("3" * 64, LEFTOVER_SOURCE_KIND, "x = 1\n")
        report = fsck_cache(store)
        assert not report.quarantined
        assert [n for n, _ in report.stale] == [name]
        assert "unknown artifact kind" not in report.stale[0][1]
        assert report.exit_code == EXIT_CORRUPT
        assert not store.has("3" * 64, LEFTOVER_SOURCE_KIND)
        # Once quarantined, the store is clean again.
        assert fsck_cache(store).exit_code == 0

    def test_render_and_dict_include_stale(self, tmp_path):
        from repro.pipeline.faults import fsck_cache

        store = ArtifactCache(str(tmp_path))
        store.put_text("5" * 64, LEFTOVER_SOURCE_KIND, "x = 1\n")
        report = fsck_cache(store)
        assert "stale" in report.render()
        doc = report.as_dict()
        assert doc["stale"] and doc["exit_code"] == 6


# ---------------------------------------------------------------------------
# Decode-hit counting and the store's LRU metrics
# ---------------------------------------------------------------------------


class TestDecodeMemo:
    def test_repeat_decodes_hit_the_memo(self, gp):
        from repro.genext.engine import specialise
        from repro.speccache import encode_result

        result = specialise(gp, "power", {"n": 3})
        payload = encode_result(result)
        key = residual_cache_key(
            gp.fingerprint(), "power", {"n": 3}, SpecOptions()
        )
        obs = Obs()
        first = STORE.decode(key, payload, obs=obs)
        second = STORE.decode(key, payload, obs=obs)
        c = _counters(obs)
        assert c["speccache.decode_misses"] == 1
        assert c["speccache.decode_hits"] == 1
        # Decoded programs are shared, results are fresh wrappers.
        assert first.program is second.program
        assert first is not second
        assert first.run(2) == second.run(2) == 8

    def test_distinct_payloads_miss(self, gp):
        from repro.genext.engine import specialise
        from repro.speccache import encode_result

        obs = Obs()
        for n in (2, 3):
            result = specialise(gp, "power", {"n": n})
            key = residual_cache_key(
                gp.fingerprint(), "power", {"n": n}, SpecOptions()
            )
            STORE.decode(key, encode_result(result), obs=obs)
        c = _counters(obs)
        assert c["speccache.decode_misses"] == 2
        assert "speccache.decode_hits" not in c


class TestRtcgLruMetrics:
    def test_evictions_counted_and_length_gauged(self, gp, monkeypatch):
        from repro.backend import generate

        monkeypatch.setattr(STORE, "capacity", 2)
        obs = Obs()
        for n in (2, 3, 4):
            generate(gp, "power", {"n": n}, obs=obs)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["speccache.evictions"] == 1
        assert snap["gauges"]["speccache.lru_len"] == 2
        assert len(STORE) == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def prog_dir(self, tmp_path):
        d = tmp_path / "prog"
        d.mkdir()
        (d / "Power.mod").write_text(POWER)
        return str(d)

    def test_run_tiers_backend_promotes(self, prog_dir, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        rc = main([
            "run", prog_dir, "power", "2", "--backend", "tiers",
            "--static", "n=5", "--cache-dir", cache,
            "--tier-hot", "2", "--repeat", "3",
        ])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out.strip() == "32"
        assert "tier 2" in err

    def test_run_compiled_backend_loads_persisted_artifact(
        self, prog_dir, tmp_path, capsys
    ):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        args = [
            "run", prog_dir, "power", "2", "--backend", "compiled",
            "--static", "n=5", "--cache-dir", cache,
        ]
        assert main(args) == 0
        capsys.readouterr()
        STORE.clear()  # fresh process stand-in
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out.strip() == "32"
        assert "(code)" in err

    def test_run_interp_rejects_static(self, prog_dir):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", prog_dir, "power", "2", "--static", "n=5"])

    def test_run_interp_unchanged(self, prog_dir, capsys):
        from repro.cli import main

        assert main(["run", prog_dir, "power", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == "8"
