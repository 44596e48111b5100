"""Tests for the keyed on-disk result cache."""

import dataclasses
import json

import pytest

from repro.analysis import run_trials
from repro.core import run_many
from repro.parallel import CACHE_ENV_VAR, ResultCache
from repro.parallel.cache import _jsonify
from repro.simnet import NetworkParams


class TestKeying:
    def test_key_is_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"strategy": "saw", "p_n": 0.01, "seed": 0}
        assert cache.key("trials", config) == cache.key("trials", config)

    def test_key_ignores_dict_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert cache.key("trials", a) == cache.key("trials", b)

    def test_key_sensitive_to_every_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = {"strategy": "saw", "p_n": 0.01, "seed": 0}
        baseline = cache.key("trials", base)
        for field, value in [("strategy", "full_nak"), ("p_n", 0.02), ("seed", 1)]:
            assert cache.key("trials", {**base, field: value}) != baseline
        assert cache.key("runs", base) != baseline

    def test_key_covers_params_dataclass(self, tmp_path):
        cache = ResultCache(tmp_path)
        standalone = {"params": NetworkParams.standalone()}
        vkernel = {"params": NetworkParams.vkernel()}
        assert cache.key("trials", standalone) != cache.key("trials", vkernel)

    def test_jsonify_bytes_and_sets(self):
        tagged = _jsonify(b"payload")
        assert tagged["__len__"] == 7
        assert len(tagged["__bytes_sha256__"]) == 64
        assert _jsonify({3, 1, 2}) == [1, 2, 3]
        with pytest.raises(TypeError, match="unserialisable"):
            _jsonify(object())


class TestStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"seed": 7}
        payload = {"mean_s": 0.125, "n_trials": 10}
        assert cache.get("trials", config) is None
        cache.put("trials", config, payload)
        assert cache.get("trials", config) == payload
        assert cache.stats == (1, 1)

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"mean_s": 0.1 + 0.2, "std_s": 1e-17}
        cache.put("trials", {"seed": 0}, payload)
        hit = cache.get("trials", {"seed": 0})
        assert hit["mean_s"] == payload["mean_s"]
        assert hit["std_s"] == payload["std_s"]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"seed": 1}
        path = cache.put("trials", config, {"ok": True})
        path.write_text("{not json")
        assert cache.get("trials", config) is None
        assert not path.exists()
        cache.put("trials", config, {"ok": True})
        assert cache.get("trials", config) == {"ok": True}

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "from_env"))
        cache = ResultCache()
        cache.put("trials", {"seed": 0}, {"ok": True})
        assert (tmp_path / "from_env").exists()

    def test_env_var_relative_override_rejected(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "relative/cache/dir")
        with pytest.raises(ValueError, match="absolute path"):
            ResultCache()

    def test_env_var_empty_override_rejected(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "   ")
        with pytest.raises(ValueError, match="set but empty"):
            ResultCache()

    def test_env_var_ignored_for_explicit_root(self, tmp_path, monkeypatch):
        # A bad override must not break callers that pass a root directly.
        monkeypatch.setenv(CACHE_ENV_VAR, "relative/cache/dir")
        cache = ResultCache(tmp_path / "explicit")
        cache.put("trials", {"seed": 0}, {"ok": True})
        assert (tmp_path / "explicit").exists()


class TestRunTrialsIntegration:
    KW = dict(d_packets=8, p_n=0.05, n_trials=200, t_retry=0.05, seed=3)

    def test_second_call_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_trials("full_nak", cache=cache, **self.KW)
        assert cache.stats == (0, 1)
        second = run_trials("full_nak", cache=cache, **self.KW)
        assert cache.stats == (1, 1)
        assert second == first

    def test_hit_reproduces_uncached_result_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        uncached = run_trials("saw", **self.KW)
        run_trials("saw", cache=cache, **self.KW)  # populate
        hit = run_trials("saw", cache=cache, **self.KW)
        assert hit == uncached

    def test_n_jobs_not_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_trials("full_no_nak", cache=cache, n_jobs=1, **self.KW)
        run_trials("full_no_nak", cache=cache, n_jobs=2, **self.KW)
        assert cache.stats.hits == 1

    def test_result_affecting_params_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_trials("full_nak", cache=cache, **self.KW)
        run_trials("full_nak", cache=cache, fast=True, **self.KW)
        kw = dict(self.KW, seed=4)
        run_trials("full_nak", cache=cache, **kw)
        assert cache.stats == (0, 3)


class TestRunManyIntegration:
    def test_second_call_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        kw = dict(error_p=0.02, n_runs=5, seed=2, cache=cache)
        first = run_many("blast", bytes(2048), **kw)
        second = run_many("blast", bytes(2048), **kw)
        assert cache.stats == (1, 1)
        assert second == first

    def test_transfer_kwargs_in_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        kw = dict(error_p=0.02, n_runs=3, seed=2, cache=cache)
        run_many("blast", bytes(2048), strategy="gobackn", **kw)
        run_many("blast", bytes(2048), strategy="selective", **kw)
        assert cache.stats == (0, 2)

    def test_payload_on_disk_is_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = run_many(
            "blast", bytes(2048), error_p=0.0, n_runs=2, seed=0, cache=cache
        )
        files = list(tmp_path.rglob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text()) == dataclasses.asdict(summary)
