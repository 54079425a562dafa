"""Supervisor: command building, preload assignment, respawn, retire.

Process-lifecycle tests monkeypatch :meth:`Supervisor.worker_command`
to a cheap sleeper so no real service (and no calibration) is paid for.
"""

import sys
import time

import pytest

from repro.errors import ClusterError
from repro.cluster.supervisor import Supervisor

SLEEPER = [sys.executable, "-c", "import time; time.sleep(60)"]


@pytest.fixture
def cheap_supervisor(tmp_path, monkeypatch):
    """A 3-worker supervisor whose workers are inert sleeper processes."""
    supervisor = Supervisor(
        workers=3, replication=2, cache_dir=tmp_path, max_restarts=2
    )
    monkeypatch.setattr(
        supervisor, "worker_command", lambda handle: list(SLEEPER)
    )
    yield supervisor
    supervisor.stop(drain_timeout_s=2)


class TestConfiguration:
    def test_validation(self, tmp_path):
        with pytest.raises(ClusterError, match="at least 1"):
            Supervisor(workers=0, cache_dir=tmp_path)
        with pytest.raises(ClusterError, match="replication"):
            Supervisor(workers=2, replication=3, cache_dir=tmp_path)
        with pytest.raises(ClusterError, match="max_restarts"):
            Supervisor(workers=1, replication=1, cache_dir=tmp_path,
                       max_restarts=-1)
        with pytest.raises(ClusterError, match="cache_dir"):
            Supervisor(workers=1, replication=1, cache_dir=None)

    def test_worker_command_carries_the_service_flags(self, tmp_path):
        supervisor = Supervisor(
            workers=2,
            replication=1,
            cache_dir=tmp_path,
            request_timeout_s=5.0,
            max_concurrency=7,
            preload=[("occigen", 0)],
        )
        handle = supervisor.handle("w0")
        command = supervisor.worker_command(handle)
        assert command[:4] == [sys.executable, "-m", "repro", "serve"]
        assert str(handle.port) in command
        assert str(tmp_path) in command
        assert "7" in command  # --max-concurrency
        text = " ".join(command)
        assert "--timeout 5.0" in text

    def test_preload_keys_land_on_their_owners(self, tmp_path):
        keys = [("occigen", s) for s in range(10)]
        supervisor = Supervisor(
            workers=3, replication=2, cache_dir=tmp_path, preload=keys
        )
        assignments = {
            wid: supervisor.preload_keys_for(wid) for wid in ("w0", "w1", "w2")
        }
        for key in keys:
            owners = supervisor.shardmap.owners(*key)
            for wid in ("w0", "w1", "w2"):
                if wid in owners:
                    assert key in assignments[wid]
                else:
                    assert key not in assignments[wid]
            # Replication factor 2: exactly two copies fleet-wide.
            assert sum(key in a for a in assignments.values()) == 2
        command = supervisor.worker_command(supervisor.handle("w0"))
        preload_flags = [
            command[i + 1]
            for i, c in enumerate(command)
            if c == "--preload"
        ]
        assert preload_flags == [f"{p}:{s}" for p, s in assignments["w0"]]

    def test_ports_are_distinct(self, tmp_path):
        supervisor = Supervisor(workers=4, replication=1, cache_dir=tmp_path)
        ports = [h.port for h in supervisor.handles.values()]
        assert len(set(ports)) == 4


class TestLifecycle:
    def test_start_poll_stop(self, cheap_supervisor):
        cheap_supervisor.start()
        assert all(cheap_supervisor.poll().values())
        assert cheap_supervisor.alive_workers() == {"w0", "w1", "w2"}
        cheap_supervisor.stop(drain_timeout_s=2)
        assert not any(cheap_supervisor.poll().values())

    def test_respawn_revives_a_dead_worker(self, cheap_supervisor):
        cheap_supervisor.start()
        handle = cheap_supervisor.handle("w1")
        handle.process.kill()
        handle.process.wait()
        assert not cheap_supervisor.poll()["w1"]
        assert cheap_supervisor.respawn("w1") is True
        assert handle.restarts == 1
        assert cheap_supervisor.poll()["w1"]
        # Same identity, same port: the shard map never noticed.
        assert "w1" in cheap_supervisor.shardmap.workers

    def test_crash_looper_is_retired_and_rebalanced(self, cheap_supervisor):
        cheap_supervisor.start()
        handle = cheap_supervisor.handle("w2")
        for _ in range(2):  # burn the max_restarts=2 budget
            handle.process.kill()
            handle.process.wait()
            assert cheap_supervisor.respawn("w2") is True
        handle.process.kill()
        handle.process.wait()
        assert cheap_supervisor.respawn("w2") is False
        assert handle.retired
        assert "w2" not in cheap_supervisor.shardmap.workers
        assert cheap_supervisor.shardmap.workers == ("w0", "w1")
        # Retired workers drop out of liveness polling and respawns.
        assert "w2" not in cheap_supervisor.poll()
        assert cheap_supervisor.respawn("w2") is False

    def test_statuses_report_pid_and_restarts(self, cheap_supervisor):
        cheap_supervisor.start()
        statuses = {s.worker_id: s for s in cheap_supervisor.statuses()}
        assert statuses["w0"].alive
        assert statuses["w0"].pid is not None
        assert statuses["w0"].restarts == 0

    def test_worker_logs_are_written(self, cheap_supervisor):
        cheap_supervisor.start()
        log_dir = cheap_supervisor.cache_dir / "worker-logs"
        assert sorted(p.name for p in log_dir.iterdir()) == [
            "w0.log",
            "w1.log",
            "w2.log",
        ]

    def test_unknown_worker_rejected(self, cheap_supervisor):
        with pytest.raises(ClusterError, match="unknown worker"):
            cheap_supervisor.respawn("w9")


class TestWaitReady:
    def test_early_exit_is_reported(self, tmp_path, monkeypatch):
        supervisor = Supervisor(workers=1, replication=1, cache_dir=tmp_path)
        monkeypatch.setattr(
            supervisor,
            "worker_command",
            lambda handle: [sys.executable, "-c", "raise SystemExit(3)"],
        )
        supervisor.start()
        deadline = time.monotonic() + 5
        while supervisor.poll()["w0"] and time.monotonic() < deadline:
            time.sleep(0.02)
        with pytest.raises(ClusterError, match="exited with code 3"):
            supervisor.wait_ready(timeout_s=5)
        supervisor.stop(drain_timeout_s=1)

    def test_not_up_yet_errors_poll_into_a_timeout(
        self, tmp_path, monkeypatch
    ):
        """ServiceError/OSError mean "not listening yet": retried until
        the deadline, then reported as a readiness timeout."""
        from repro.cluster import supervisor as supervisor_module
        from repro.errors import ServiceError

        supervisor = Supervisor(workers=1, replication=1, cache_dir=tmp_path)

        def refused(self):
            raise ServiceError("cannot reach service")

        monkeypatch.setattr(
            supervisor_module.ServiceClient, "healthz", refused
        )
        with pytest.raises(ClusterError, match="did not become ready"):
            supervisor.wait_ready(timeout_s=0.2)

    def test_unexpected_healthz_error_propagates_immediately(
        self, tmp_path, monkeypatch
    ):
        """A genuine bug in the health probe must not be retried into a
        misleading "did not become ready" timeout."""
        from repro.cluster import supervisor as supervisor_module

        supervisor = Supervisor(workers=1, replication=1, cache_dir=tmp_path)

        def broken(self):
            raise ValueError("a bug, not a connection problem")

        monkeypatch.setattr(
            supervisor_module.ServiceClient, "healthz", broken
        )
        start = time.monotonic()
        with pytest.raises(ValueError, match="a bug"):
            supervisor.wait_ready(timeout_s=30.0)
        assert time.monotonic() - start < 5.0  # no retry loop
