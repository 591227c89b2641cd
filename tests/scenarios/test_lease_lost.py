"""Regression tests for lost-lease safety (results discarded, not committed).

A lease can be stolen mid-run: a peer whose clock says the lease expired
reclaims it and re-runs the job.  The PR-7 runner noticed (the heartbeat
keeper counted ``lease_lost``) but still committed its own result when the
job finished — double-writing state the thief now owns.  These tests pin
the fix: work finished under a lost lease is *discarded*, the runner
adopts the thief's result, and exactly one "ok" attempt exists on disk.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.faults import FAULTS_DIR_ENV_VAR, FAULTS_ENV_VAR, reset_fault_state
from repro.jobstore import JobStore
from repro.scenarios.campaign import CampaignJob, CampaignSpec, run_campaign

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: Thief script: import, say so in the ready file, wait for the go file,
#: then run the spec against the shared state dir, skewed clock.
THIEF = """\
import json
import os
import sys
import time

from repro.scenarios.campaign import CampaignSpec, run_campaign

spec_path, state_dir, ready_path, go_path = sys.argv[1:5]
with open(spec_path, "r", encoding="utf-8") as handle:
    spec = CampaignSpec.from_dict(json.load(handle))
open(ready_path, "w", encoding="utf-8").close()
while not os.path.exists(go_path):
    time.sleep(0.01)
outcome = run_campaign(spec, state_dir=state_dir, jobs=1)
print("THIEF_OK", outcome.all_ok)
"""


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(FAULTS_DIR_ENV_VAR, raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


class TestHoldsPrimitive:
    def test_holds_reflects_theft(self, tmp_path):
        """`holds` is the commit-time check: true owner, false after theft."""
        victim = JobStore(str(tmp_path), owner="victim", lease_ttl=10.0)
        lease = victim.claim("job")
        assert lease is not None
        assert victim.holds(lease)

        # A peer whose clock ran far ahead sees the lease as expired.
        thief = JobStore(
            str(tmp_path),
            owner="thief",
            lease_ttl=10.0,
            clock=lambda: time.time() + 3600.0,
        )
        stolen = thief.claim("job")
        assert stolen is not None
        assert thief.reclaims == 1
        assert not victim.holds(lease)
        assert thief.holds(stolen)

    def test_holds_false_after_release(self, tmp_path):
        store = JobStore(str(tmp_path), owner="one", lease_ttl=10.0)
        lease = store.claim("job")
        store.release(lease, status="ok")
        assert not store.holds(lease)


class TestLostLeaseDiscard:
    def test_skewed_peer_steals_job_and_victim_discards(self, tmp_path):
        """The end-to-end regression, via the ``clock_skew`` fault.

        A victim campaign holds a job mid-``sleep`` while a subprocess
        running under ``REPRO_FAULTS=clock_skew:seconds=3600`` — its lease
        clock an hour fast — reclaims the lease and re-runs the job.  The
        victim must finish ``all_ok`` by *adopting* the thief's result:
        its own computation is discarded (``lease_lost_discards``), and the
        attempt history shows exactly one successful run.

        The thief starts first and waits, imported, for a go file that
        appears once the victim holds the lease, so the theft happens inside
        the probe's 2 s however long a subprocess takes to start.
        """
        spec = CampaignSpec(
            name="stolen",
            jobs=[CampaignJob("slow", "probe", {"value": 1, "sleep": 2.0})],
        )
        state = tmp_path / "state"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        thief_path = tmp_path / "thief.py"
        thief_path.write_text(THIEF, encoding="utf-8")

        ready_path = tmp_path / "thief.ready"
        go_path = tmp_path / "thief.go"

        messages = []
        outcome_box = {}

        def victim():
            outcome_box["outcome"] = run_campaign(
                spec,
                state_dir=str(state),
                jobs=1,
                lease_ttl=0.5,
                progress=messages.append,
            )

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[FAULTS_ENV_VAR] = "clock_skew:seconds=3600"
        env.pop(FAULTS_DIR_ENV_VAR, None)
        with subprocess.Popen(
            [
                sys.executable,
                str(thief_path),
                str(spec_path),
                str(state),
                str(ready_path),
                str(go_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as thief:
            try:
                deadline = time.monotonic() + 120.0
                while not ready_path.exists() and thief.poll() is None:
                    assert time.monotonic() < deadline, "thief never got ready"
                    time.sleep(0.01)
                assert ready_path.exists(), thief.communicate()[1]

                runner = threading.Thread(target=victim)
                runner.start()
                deadline = time.monotonic() + 30.0
                lease_path = state / "slow.lease"
                while not lease_path.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert lease_path.exists(), "victim never claimed the job"
                go_path.touch()

                stdout, stderr = thief.communicate(timeout=120)
            finally:
                if thief.poll() is None:
                    thief.kill()
                    thief.communicate()
        assert thief.returncode == 0, stdout + stderr
        assert "THIEF_OK True" in stdout

        runner.join(timeout=120)
        assert not runner.is_alive()
        outcome = outcome_box["outcome"]
        assert outcome.all_ok
        # The victim noticed the theft and threw its own result away ...
        assert outcome.robustness.get("lease_lost_discards", 0) >= 1
        assert any("lease lost mid-run" in message for message in messages)
        # ... and adopted the thief's committed state instead.
        assert any(
            "cached (completed by a peer)" in message for message in messages
        )

        # Exactly one successful attempt exists, and the job's state was
        # written exactly once (the thief's) — no double-write.
        store = JobStore(str(state), owner="inspector")
        records = store.attempts("slow")
        finished = [
            record for record in records if record.get("status") == "ok"
        ]
        assert len(finished) == 1, records
        assert any(record.get("reclaimed") for record in records)
        assert outcome.result_for("slow").payload["value"] == 1
