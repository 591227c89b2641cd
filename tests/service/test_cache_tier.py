"""Tests for the shared cross-worker synthesis-cache tier."""

import os
import time

import pytest

from repro.ga import pinopt
from repro.ga.pinopt import (
    CACHE_DIR_ENV_VAR,
    PinAssignmentProblem,
    SynthesisDiskCache,
    resolve_synthesis_cache,
)
from repro.service.cache import CACHE_URL_ENV_VAR, RemoteCacheTier
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError, cache_fingerprint
from repro.service.server import ServiceThread


@pytest.fixture
def service(tmp_path):
    with ServiceThread(root=str(tmp_path / "service-root")) as thread:
        yield thread


class TestCacheEndpoints:
    def test_put_then_get_round_trips(self, service):
        client = ServiceClient(service.url)
        fingerprint = cache_fingerprint("fast", "lib", (4, 0x1234))
        client.cache_put(
            fingerprint,
            {
                "effort": "fast",
                "library": "lib",
                "signature": [4, 0x1234],
                "area": 42.5,
            },
        )
        entry = client.cache_get(fingerprint)
        assert entry["area"] == 42.5
        assert entry["signature"] == [4, 0x1234]
        stats = client.cache_stats()
        assert stats["puts"] == 1
        assert stats["get_hits"] == 1
        assert stats["entries"] == 1

    def test_get_miss_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as info:
            client.cache_get("0" * 32)
        assert info.value.status == 404
        assert client.cache_stats()["get_misses"] == 1

    def test_put_with_mismatched_fingerprint_is_rejected(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as info:
            client.cache_put(
                "0" * 32,
                {
                    "effort": "fast",
                    "library": "lib",
                    "signature": [1],
                    "area": 1.0,
                },
            )
        assert info.value.status == 400
        with pytest.raises(ServiceError) as info:
            client.cache_put(
                cache_fingerprint("fast", "lib", (1,)), {"effort": "fast"}
            )
        assert info.value.status == 400

    def test_entries_survive_a_coordinator_restart(self, tmp_path):
        """The tier is the ordinary disk-cache format under the root."""
        root = str(tmp_path)
        fingerprint = cache_fingerprint("fast", "lib", (7, 99))
        entry = {
            "effort": "fast",
            "library": "lib",
            "signature": [7, 99],
            "area": 17.25,
        }
        with ServiceThread(root=root) as service:
            ServiceClient(service.url).cache_put(fingerprint, entry)
        # The entry landed in plain SynthesisDiskCache segments.
        reloaded = SynthesisDiskCache(str(tmp_path / "cache"))
        assert reloaded.get("fast", "lib", (7, 99)) == 17.25
        with ServiceThread(root=root) as service:
            fetched = ServiceClient(service.url).cache_get(fingerprint)
            assert fetched["area"] == 17.25


class TestRemoteCacheTier:
    def test_write_behind_put_reaches_the_coordinator(self, service):
        tier = RemoteCacheTier(service.url)
        tier.put("fast", "lib", (4, 0x1234), 42.5)
        assert tier.flush(timeout=10.0)
        assert tier.remote_stats()["puts"] == 1
        assert ServiceClient(service.url).cache_stats()["puts"] == 1
        # The entry also landed locally: a re-get never hits the network.
        assert tier.get("fast", "lib", (4, 0x1234)) == 42.5
        assert tier.remote_stats()["hits"] == 0

    def test_read_through_get_populates_the_local_store(self, service):
        seeder = RemoteCacheTier(service.url)
        seeder.put("fast", "lib", (4, 0x1234), 42.5)
        assert seeder.flush(timeout=10.0)

        fresh = RemoteCacheTier(service.url)
        assert fresh.get("fast", "lib", (4, 0x1234)) == 42.5
        assert fresh.remote_stats() == {
            "hits": 1,
            "misses": 0,
            "puts": 0,
            "errors": 0,
        }
        # Second read is local; the signature crossed the wire once.
        assert fresh.get("fast", "lib", (4, 0x1234)) == 42.5
        assert fresh.remote_stats()["hits"] == 1
        assert fresh.hits == 2
        # A put of a remotely-served entry is not re-uploaded.
        fresh.put("fast", "lib", (4, 0x1234), 42.5)
        assert fresh.flush(timeout=10.0)
        assert fresh.remote_stats()["puts"] == 0

    def test_remote_miss_returns_none(self, service):
        tier = RemoteCacheTier(service.url)
        assert tier.get("fast", "lib", (1, 2)) is None
        assert tier.remote_stats()["misses"] == 1

    def test_network_failure_degrades_to_local_only(self, tmp_path):
        tier = RemoteCacheTier(
            "http://127.0.0.1:1", timeout=0.5  # nothing listens here
        )
        tier.put("fast", "lib", (1,), 5.0)
        assert tier.get("fast", "lib", (1,)) == 5.0  # local, no network
        assert tier.get("fast", "lib", (2,)) is None
        deadline = time.monotonic() + 10.0
        while (
            tier.remote_stats()["errors"] < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)  # the failed upload is asynchronous
        assert tier.remote_stats()["errors"] == 2  # one get, one put

    def test_local_disk_store_fronts_the_tier(self, service, tmp_path):
        local = SynthesisDiskCache(str(tmp_path / "near"))
        tier = RemoteCacheTier(service.url, local=local)
        tier.put("fast", "lib", (3,), 9.0)
        assert tier.flush(timeout=10.0)
        assert local.get("fast", "lib", (3,)) == 9.0
        assert len(tier) == 1
        # A remote hit is written through into the near store.
        seeder = RemoteCacheTier(service.url)
        seeder.put("fast", "lib", (4,), 11.0)
        assert seeder.flush(timeout=10.0)
        assert tier.get("fast", "lib", (4,)) == 11.0
        assert local.get("fast", "lib", (4,)) == 11.0


class TestEnvironmentWiring:
    def test_resolve_synthesis_cache_prefers_the_remote_tier(
        self, service, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CACHE_URL_ENV_VAR, service.url)
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "near"))
        monkeypatch.setattr(pinopt, "_STORES", {})
        cache = resolve_synthesis_cache()
        assert isinstance(cache, RemoteCacheTier)
        assert cache.url == service.url
        assert isinstance(cache.local, SynthesisDiskCache)
        key = (os.getpid(), str(tmp_path / "near"), service.url)
        assert pinopt._STORES == {key: cache}
        assert resolve_synthesis_cache() is cache  # one store per process

    def test_resolve_synthesis_cache_without_url_is_the_disk_cache(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(CACHE_URL_ENV_VAR, raising=False)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        monkeypatch.setattr(pinopt, "_STORES", {})
        assert resolve_synthesis_cache() is None
        assert pinopt._STORES == {}
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert isinstance(resolve_synthesis_cache(), SynthesisDiskCache)

    def test_problem_cache_stats_report_remote_traffic(
        self, service, two_sboxes, rng, monkeypatch
    ):
        """``remote_*`` counters surface per-problem deltas, like disk ones.

        The first problem misses remotely and uploads its syntheses; a
        problem constructed afterwards (same process, warm tier) reports
        zero new traffic for repeated genotypes — everything is local now.
        """
        monkeypatch.setenv(CACHE_URL_ENV_VAR, service.url)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        first = PinAssignmentProblem(two_sboxes)
        assert isinstance(first.disk_cache, RemoteCacheTier)
        genotype = first.random_genotype(rng)
        first.evaluate([genotype])
        stats = first.cache_stats()
        assert stats["remote_misses"] >= 1
        first.disk_cache.flush(timeout=10.0)
        assert first.cache_stats()["remote_puts"] >= 1

        second = PinAssignmentProblem(two_sboxes)
        second.evaluate([genotype])
        stats = second.cache_stats()
        assert stats["disk_hits"] == 1
        assert stats["remote_misses"] == 0
        assert stats["remote_puts"] == 0

    def test_fresh_process_tier_hits_the_coordinator(
        self, service, two_sboxes, rng, monkeypatch
    ):
        """A cold tier (new worker) gets remote hits for known signatures."""
        monkeypatch.setenv(CACHE_URL_ENV_VAR, service.url)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        warm = PinAssignmentProblem(two_sboxes)
        genotype = warm.random_genotype(rng)
        warm.evaluate([genotype])
        warm.disk_cache.flush(timeout=10.0)

        # Simulate a different worker process: same URL, empty local store.
        monkeypatch.setattr(pinopt, "_STORES", {})
        problem = PinAssignmentProblem(two_sboxes)
        assert isinstance(problem.disk_cache, RemoteCacheTier)
        assert problem.disk_cache is not warm.disk_cache
        problem.evaluate([genotype])
        stats = problem.cache_stats()
        assert stats["remote_hits"] >= 1
        assert stats["remote_misses"] == 0
