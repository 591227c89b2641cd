"""Unit tests for the lease-based job store and retry policy."""

import json
import os
import socket

import pytest

from repro.faults import FAULTS_DIR_ENV_VAR, FAULTS_ENV_VAR, reset_fault_state
from repro.jobstore import (
    DEFAULT_LEASE_TTL,
    JobStore,
    LeaseLost,
    RetryPolicy,
    classify_failure,
)
from repro.parallel import WorkerCrashed
from repro.sat.solver import SolveBudgetExceeded


@pytest.fixture
def clock():
    """A manually advanced clock starting at t=1000."""
    state = {"now": 1000.0}

    def read():
        return state["now"]

    read.advance = lambda seconds: state.__setitem__(
        "now", state["now"] + seconds
    )
    return read


@pytest.fixture
def store_pair(tmp_path, clock):
    a = JobStore(str(tmp_path), owner="A", lease_ttl=10.0, clock=clock)
    b = JobStore(str(tmp_path), owner="B", lease_ttl=10.0, clock=clock)
    return a, b


class TestClaiming:
    def test_default_lease_ttl(self, tmp_path):
        assert JobStore(str(tmp_path)).lease_ttl == DEFAULT_LEASE_TTL

    def test_claim_is_exclusive(self, store_pair):
        a, b = store_pair
        lease = a.claim("job")
        assert lease is not None and lease.owner == "A"
        assert b.claim("job") is None
        assert b.claim_conflicts == 1

    def test_release_makes_job_claimable_again(self, store_pair):
        a, b = store_pair
        a.release(a.claim("job"), status="ok")
        assert b.claim("job") is not None

    def test_expired_lease_is_reclaimed(self, store_pair, clock):
        a, b = store_pair
        assert a.claim("job") is not None
        clock.advance(11.0)  # past the 10s TTL
        lease = b.claim("job")
        assert lease is not None and lease.owner == "B"
        assert b.reclaims == 1

    def test_dead_owner_on_this_host_is_reclaimed_fast(self, tmp_path, clock):
        store = JobStore(str(tmp_path), owner="C", lease_ttl=1000.0, clock=clock)
        # Forge a lease held by a provably dead pid on this host.
        with open(store.lease_path("job"), "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "job_id": "job",
                    "owner": "ghost",
                    "pid": 2 ** 22 + 1,  # beyond any default pid_max
                    "host": socket.gethostname(),
                    "expires": clock() + 500.0,
                },
                handle,
            )
        assert store.claim("job") is not None
        assert store.reclaims == 1

    def test_torn_lease_file_is_reclaimed(self, store_pair):
        a, b = store_pair
        assert a.claim("job") is not None
        with open(a.lease_path("job"), "w", encoding="utf-8") as handle:
            handle.write('{"owner": "A", "expi')  # torn write
        assert b.claim("job") is not None

    def test_live_same_host_owner_is_not_stale(self, store_pair):
        a, b = store_pair
        assert a.claim("job") is not None  # written with our live pid
        assert b.claim("job") is None


class TestHeartbeat:
    def test_heartbeat_extends_expiry(self, store_pair, clock):
        a, b = store_pair
        lease = a.claim("job")
        clock.advance(8.0)
        a.heartbeat(lease)
        clock.advance(8.0)  # 16s since claim, but only 8 since the beat
        assert b.claim("job") is None

    def test_heartbeat_raises_when_lease_stolen(self, store_pair, clock):
        a, b = store_pair
        lease = a.claim("job")
        clock.advance(11.0)
        assert b.claim("job") is not None
        with pytest.raises(LeaseLost):
            a.heartbeat(lease)

    def test_heartbeat_raises_when_lease_gone(self, store_pair):
        a, _ = store_pair
        lease = a.claim("job")
        os.unlink(lease.path)
        with pytest.raises(LeaseLost):
            a.heartbeat(lease)


class TestAttemptHistory:
    def test_attempts_record_owner_and_outcome(self, store_pair, clock):
        a, b = store_pair
        a.release(a.claim("job"), status="retry")
        lease = b.claim("job")
        b.release(lease, status="ok")
        records = a.attempts("job")
        assert [record["status"] for record in records] == ["retry", "ok"]
        assert [record["owner"] for record in records] == ["A", "B"]
        assert all("started" in record for record in records)
        assert a.attempt_count("job") == 2

    def test_reclaimed_attempt_is_flagged(self, store_pair, clock):
        a, b = store_pair
        a.claim("job")  # never released: the owner "crashed"
        clock.advance(11.0)
        b.claim("job")
        records = b.attempts("job")
        assert records[0]["status"] == "running"  # the orphaned attempt
        assert records[1].get("reclaimed") is True


class TestClockSkew:
    def test_clock_skew_fault_shifts_expiry(self, tmp_path, clock, monkeypatch):
        monkeypatch.delenv(FAULTS_DIR_ENV_VAR, raising=False)
        reset_fault_state()
        store = JobStore(str(tmp_path), owner="A", lease_ttl=10.0, clock=clock)
        assert store.claim("job") is not None
        peer = JobStore(str(tmp_path), owner="B", lease_ttl=10.0, clock=clock)
        assert peer.claim("job") is None
        # A +30s skew makes the fresh lease look expired to this process.
        monkeypatch.setenv(FAULTS_ENV_VAR, "clock_skew:seconds=30")
        reset_fault_state()
        assert peer.claim("job") is not None
        monkeypatch.delenv(FAULTS_ENV_VAR)
        reset_fault_state()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, max_delay=8.0, jitter=0.0
        )
        assert [policy.delay("job", n) for n in range(1, 6)] == [
            1.0,
            2.0,
            4.0,
            8.0,
            8.0,
        ]

    def test_jitter_is_deterministic_and_job_dependent(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0)
        assert policy.delay("a", 1) == policy.delay("a", 1)
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert 0.5 <= policy.delay("a", 1) <= 1.0  # jitter scales in [1-j, 1]

    def test_should_retry_honours_attempt_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "exception",
        [
            WorkerCrashed("boom"),
            SolveBudgetExceeded("budget"),
            OSError("disk"),
            TimeoutError("slow"),
            MemoryError(),
        ],
    )
    def test_transient_exceptions(self, exception):
        assert classify_failure(exception) == "transient"

    @pytest.mark.parametrize(
        "exception", [ValueError("bad"), KeyError("missing"), RuntimeError("x")]
    )
    def test_permanent_exceptions(self, exception):
        assert classify_failure(exception) == "permanent"

    def test_error_text_fallback(self):
        # When the exception object did not survive pickling, the error
        # string (formatted "TypeName: message") is classified instead.
        assert classify_failure(None, "WorkerCrashed: died") == "transient"
        assert classify_failure(None, "SolveBudgetExceeded: dip") == "transient"
        assert classify_failure(None, "ValueError: bad params") == "permanent"
        assert classify_failure(None, "") == "permanent"
