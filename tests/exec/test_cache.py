"""Unit tests for the content-addressed result cache."""

import logging

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.exec import (
    ResultCache,
    default_cache_dir,
    default_shared_cache_dir,
    fingerprint,
)
from repro.exec.cache import get_json_payload, put_json_payload


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestFingerprint:
    def test_stable(self):
        payload = {"a": 1, "b": 2.5, "c": [1, 2], "d": np.arange(4)}
        assert fingerprint(payload) == fingerprint(payload)

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    @pytest.mark.parametrize(
        "a,b",
        [
            ({"x": 1}, {"x": 2}),
            ({"x": 1}, {"y": 1}),
            ({"x": 1.0}, {"x": 1.0000000001}),
            ({"x": None}, {"x": 0}),
            ({"x": [1, 2]}, {"x": [2, 1]}),
            ({"x": np.arange(3)}, {"x": np.arange(4)}),
            ({"x": np.arange(3)}, {"x": np.arange(3).astype(float)}),
            (
                {"x": np.zeros((2, 3))},
                {"x": np.zeros((3, 2))},
            ),
        ],
    )
    def test_any_field_change_changes_key(self, a, b):
        assert fingerprint(a) != fingerprint(b)

    def test_tuple_and_list_equivalent(self):
        assert fingerprint((1, 2)) == fingerprint([1, 2])

    def test_numpy_scalars_normalised(self):
        assert fingerprint({"n": np.int64(3)}) == fingerprint({"n": 3})
        assert fingerprint({"f": np.float64(2.5)}) == fingerprint({"f": 2.5})

    def test_unfingerprintable_rejected(self):
        with pytest.raises(ConfigurationError, match="fingerprint"):
            fingerprint({"obj": object()})


class TestGetPut:
    def test_roundtrip_bit_identical(self, cache):
        arrays = {
            "curve": np.linspace(0.0, 1.0, 17),
            "count": np.asarray(42),
        }
        key = fingerprint({"kind": "test"})
        cache.put(key, arrays, meta={"note": "hello"})
        out = cache.get(key)
        assert set(out) == {"curve", "count"}
        np.testing.assert_array_equal(out["curve"], arrays["curve"])
        assert out["curve"].dtype == arrays["curve"].dtype
        assert cache.get_meta(key)["note"] == "hello"

    def test_miss_returns_none(self, cache):
        with obs.enabled():
            assert cache.get(fingerprint("absent")) is None
            assert obs.get_counter("exec.cache.miss") == 1.0

    def test_hit_counted(self, cache):
        key = fingerprint("x")
        cache.put(key, {"v": np.ones(3)})
        with obs.enabled():
            assert cache.get(key) is not None
            assert obs.get_counter("exec.cache.hit") == 1.0

    def test_corrupted_entry_is_a_miss_with_warning(self, cache, caplog):
        key = fingerprint("will-corrupt")
        path = cache.put(key, {"v": np.ones(3)})
        path.write_bytes(b"not an npz at all")
        with obs.enabled(), caplog.at_level(
            logging.WARNING, logger="repro.exec.cache"
        ):
            assert cache.get(key) is None
            assert obs.get_counter("exec.cache.corrupt") == 1.0
            assert obs.get_counter("exec.cache.miss") == 1.0
        assert any("corrupted" in r.getMessage() for r in caplog.records)
        # Recompute-and-overwrite restores the entry.
        cache.put(key, {"v": np.ones(3)})
        np.testing.assert_array_equal(cache.get(key)["v"], np.ones(3))

    def test_missing_meta_treated_as_corrupt(self, cache, tmp_path):
        key = fingerprint("no-meta")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        np.savez(path, v=np.ones(2))  # bypasses put(): no __meta__
        assert cache.get(key) is None

    def test_reserved_array_name_rejected(self, cache):
        with pytest.raises(ConfigurationError, match="reserved"):
            cache.put(fingerprint("k"), {"__meta__": np.ones(1)})

    def test_malformed_key_rejected(self, cache):
        with pytest.raises(ConfigurationError, match="malformed"):
            cache.path_for("ab")


class TestMaintenance:
    def test_stats_and_clear(self, cache):
        for i in range(3):
            cache.put(fingerprint(i), {"v": np.full(4, i)})
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert stats.as_dict()["entries"] == 3
        assert cache.clear() == 3
        assert cache.stats().entries == 0
        assert cache.clear() == 0

    def test_stats_on_absent_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.stats().entries == 0


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"

    def test_shared_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARED_CACHE_DIR", str(tmp_path / "s"))
        assert default_shared_cache_dir() == tmp_path / "s"

    def test_shared_nests_under_local_root(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SHARED_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_shared_cache_dir() == tmp_path / "c" / "shared"


class TestTiers:
    def test_unknown_tier_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache tier"):
            ResultCache(tmp_path, tier="regional")

    def test_shared_tier_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARED_CACHE_DIR", str(tmp_path / "s"))
        shared = ResultCache(tier="shared")
        assert shared.root == tmp_path / "s"
        assert shared.tier == "shared"

    def test_tier_counters_incremented(self, tmp_path):
        shared = ResultCache(tmp_path / "shared", tier="shared")
        key = fingerprint("tiered")
        with obs.enabled():
            assert shared.get(key) is None
            shared.put(key, {"v": np.ones(2)})
            assert shared.get(key) is not None
            assert obs.get_counter("exec.cache.shared.miss") == 1.0
            assert obs.get_counter("exec.cache.shared.store") == 1.0
            assert obs.get_counter("exec.cache.shared.hit") == 1.0
            # The local tier family is untouched by shared-tier traffic,
            # while the legacy untiered counters see everything.
            assert obs.get_counter("exec.cache.local.hit") == 0.0
            assert obs.get_counter("exec.cache.hit") == 1.0
            assert obs.get_counter("exec.cache.miss") == 1.0

    def test_stats_report_tier_and_hit_ratio(self, tmp_path):
        shared = ResultCache(tmp_path / "shared", tier="shared")
        key = fingerprint("ratio")
        with obs.enabled():
            shared.get(key)  # miss
            shared.put(key, {"v": np.ones(1)})
            shared.get(key)  # hit
            shared.get(key)  # hit
            shared.get(fingerprint("other"))  # miss
            stats = shared.stats()
        assert stats.tier == "shared"
        assert stats.hits == 2
        assert stats.misses == 2
        assert stats.hit_ratio == 0.5
        doc = stats.as_dict()
        assert doc["tier"] == "shared"
        assert doc["hit_ratio"] == 0.5

    def test_untouched_tier_reports_zero_ratio(self, tmp_path):
        stats = ResultCache(tmp_path / "c").stats()
        assert stats.hit_ratio == 0.0
        assert stats.tier == "local"


class TestJsonPayloadEntries:
    def test_round_trip(self, cache):
        key = fingerprint("payload")
        payload = {"lifetime_hours": 1.5e5, "shards": {"0": [1, 2]}}
        put_json_payload(cache, key, payload, meta={"kind": "test"})
        assert get_json_payload(cache, key) == payload
        assert cache.get_meta(key)["kind"] == "test"

    def test_none_cache_is_a_no_op(self):
        put_json_payload(None, fingerprint("x"), {"a": 1})
        assert get_json_payload(None, fingerprint("x")) is None

    def test_miss_returns_none(self, cache):
        assert get_json_payload(cache, fingerprint("absent")) is None

    def test_entry_without_payload_field_is_a_miss(self, cache):
        key = fingerprint("arrays-only")
        cache.put(key, {"v": np.ones(2)})
        assert get_json_payload(cache, key) is None

    def test_invalid_json_counts_corrupt(self, cache):
        key = fingerprint("bad-json")
        cache.put(key, {"payload_json": np.array("{not json")})
        with obs.enabled():
            assert get_json_payload(cache, key) is None
            assert obs.get_counter("exec.cache.corrupt") == 1.0


def test_every_key_changes_with_the_schema(monkeypatch, tmp_path):
    """Bumping ``CACHE_SCHEMA`` re-keys results, service jobs, batch
    cells, checkpoints and artifacts, so no stale entry is served after a
    change in the numbers the code computes."""
    from repro.exec import cache as cache_module
    from repro.exec.batch import SweepSpec, _cell_key
    from repro.exec.checkpoint import Checkpoint
    from repro.kernels.artifacts import artifact_key
    from repro.service.requests import JobRequest

    request = JobRequest.from_dict(
        {"kind": "lifetime", "design": "C1", "grid": 6, "methods": ["st_fast"]}
    )
    spec = SweepSpec(designs=("C1",), methods=("st_fast",))

    def keys() -> dict[str, str]:
        return {
            "result": fingerprint({"x": 1}),
            "service.job": request.key,
            "batch.cell": _cell_key(spec, {"design": "C1"}),
            "checkpoint": Checkpoint(tmp_path / "ck", {"seed": 1}).meta_fingerprint,
            "artifact": artifact_key("canonical_model", {"nx": 6}),
        }

    before = keys()
    monkeypatch.setattr(
        cache_module, "CACHE_SCHEMA", cache_module.CACHE_SCHEMA + 1
    )
    after = keys()
    assert all(after[name] != before[name] for name in before)
