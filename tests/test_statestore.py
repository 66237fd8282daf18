"""Unit tests for the externalized session state store.

The single-owner lease is what makes adoption by a restarted server
safe: a journal admits exactly one writer, so the lease must grant
exactly one owner per token under every interleaving — two stores
racing, a holder killed before it is reaped, and the lease files an
older version of the store left in the directory.
"""

from __future__ import annotations

import fcntl
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.resilience.checkpoint import canonical_json, payload_checksum
from repro.resilience.errors import LeaseHeldError
from repro.serving.statestore import SharedDirStateStore
from repro.storage.errors import StorageError, StorageFullError
from repro.storage.faultfs import FaultFS, FaultRule


def _store(root, pid: int = 0) -> SharedDirStateStore:
    return SharedDirStateStore(root, fsync=False, pid=pid or os.getpid())


def _held_elsewhere(root, token: str) -> bool:
    """Whether a fresh store on ``root`` is refused ``token``."""
    probe = _store(root)
    try:
        probe.acquire(token)
    except LeaseHeldError:
        return True
    probe.release(token)
    return False


def _child_env() -> dict:
    """The environment a child imports this tree from."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _holder(root, then: str = "time.sleep(60)") -> subprocess.Popen:
    """A child process that takes ``tok``'s lease on ``root``, says
    ``held``, then runs ``then`` (by default: holds it for a minute)."""
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import os, sys, time\n"
         "from repro.serving.statestore import SharedDirStateStore\n"
         "SharedDirStateStore(sys.argv[1], fsync=False).acquire('tok')\n"
         "print('held', flush=True)\n"
         + then + "\n",
         str(root)],
        stdout=subprocess.PIPE, env=_child_env())
    if holder.stdout.readline() != b"held\n":
        _stop(holder)
        raise AssertionError("the holder did not take the lease")
    return holder


def _stop(holder: subprocess.Popen) -> None:
    holder.kill()
    holder.wait()
    holder.stdout.close()


class TestLeaseProtocol:
    def test_fresh_acquire_grants(self, tmp_path):
        store = _store(tmp_path)
        store.acquire("tok")
        sidecar = store.path_for("tok")[: -len(".journal")] + ".lock"
        assert os.path.exists(sidecar)
        assert _held_elsewhere(tmp_path, "tok")
        assert not store.exists("tok")  # a lease creates no journal

    def test_reacquire_own_lease_is_idempotent(self, tmp_path):
        store = _store(tmp_path)
        store.acquire("tok")
        store.acquire("tok")
        store.release("tok")  # one release gives it back
        assert not _held_elsewhere(tmp_path, "tok")

    def test_held_lease_raises_typed_error(self, tmp_path):
        holder = _store(tmp_path)
        holder.acquire("tok")
        contender = _store(tmp_path)
        with pytest.raises(LeaseHeldError) as exc:
            contender.acquire("tok")
        assert exc.value.token == "tok"

    def test_live_foreign_lease_raises_typed_error(self, tmp_path):
        """The holder is another live process, as a second server on
        the same journal directory would be."""
        holder = _holder(tmp_path)
        try:
            with pytest.raises(LeaseHeldError) as exc:
                _store(tmp_path).acquire("tok")
            assert exc.value.token == "tok"
        finally:
            _stop(holder)

    def test_two_stores_racing_exactly_one_wins(self, tmp_path):
        """Two stores hammer one token at once: one winner each time."""
        a = _store(tmp_path)
        b = _store(tmp_path)
        for round_no in range(20):
            token = f"tok-{round_no}"
            outcomes = {}
            barrier = threading.Barrier(2)

            def attempt(store, key):
                barrier.wait()
                try:
                    store.acquire(token)
                    outcomes[key] = "won"
                except LeaseHeldError:
                    outcomes[key] = "lost"

            threads = [
                threading.Thread(target=attempt, args=(store, key))
                for key, store in (("a", a), ("b", b))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes.values()) == ["lost", "won"], outcomes
            loser = b if outcomes["a"] == "won" else a
            with pytest.raises(LeaseHeldError):
                loser.acquire(token)

    def test_release_only_drops_own_lease(self, tmp_path):
        holder = _store(tmp_path)
        holder.acquire("tok")
        other = _store(tmp_path)
        other.release("tok")  # no-op: not the holder
        assert _held_elsewhere(tmp_path, "tok")
        holder.release("tok")
        assert not _held_elsewhere(tmp_path, "tok")
        holder.release("tok")  # releasing an unheld token is a no-op

    def test_stale_lease_dead_pid_is_reclaimed(self, tmp_path):
        """A holder that exits without releasing (and is reaped) leaves
        its sidecar behind, unlocked: the next store takes the token."""
        holder = _holder(tmp_path, then="os._exit(0)")
        assert holder.wait() == 0
        holder.stdout.close()
        survivor = _store(tmp_path)
        survivor.acquire("tok")
        assert _held_elsewhere(tmp_path, "tok")

    @pytest.mark.parametrize("debris", [
        b"",                                   # zero-length: crash at open
        b'{"checksum":"deadbeef","token"',     # truncated mid-write
        b"\x00\xff garbage not json\n",        # scribbled block
        b'{"checksum":"0000","token":"tok","owner":"x","pid":1}\n',
    ])
    def test_torn_lease_file_is_reclaimable(self, tmp_path, debris):
        """Whatever bytes an older store's ``.lease`` file or the lock
        sidecar hold, nothing reads them: the token is free."""
        store = _store(tmp_path)
        stem = store.path_for("tok")[: -len(".journal")]
        for suffix in (".lease", ".lock"):
            with open(stem + suffix, "wb") as fh:
                fh.write(debris)
        store.acquire("tok")
        assert _held_elsewhere(tmp_path, "tok")
        with open(stem + ".lock", "rb") as fh:
            assert fh.read() == debris  # the lock wrote nothing either

    def test_an_old_lease_file_naming_a_live_pid_blocks_nothing(
            self, tmp_path):
        """A ``<token>.lease`` record in the format an older store
        wrote, left by a dead ``solo:<pid>`` whose pid now belongs to an
        unrelated live process (here: this test's parent).  The file
        is inert: a fresh store takes the token at once."""
        store = _store(tmp_path)
        pid = os.getppid()
        body = {"token": "tok", "owner": f"solo:{pid}", "pid": pid}
        line = ('{"checksum":"' + payload_checksum(body) + '",'
                + canonical_json(body)[1:] + "\n")
        lease = store.path_for("tok")[: -len(".journal")] + ".lease"
        with open(lease, "w") as fh:
            fh.write(line)
        store.acquire("tok")
        assert _held_elsewhere(tmp_path, "tok")

    def test_a_killed_holder_frees_its_lease_before_anyone_waits(
            self, tmp_path):
        """The kernel drops a dead process's ``flock`` when it exits,
        not when its parent reaps it: a SIGKILLed holder still in the
        process table as a zombie blocks no one."""
        holder = _holder(tmp_path)
        try:
            assert _held_elsewhere(tmp_path, "tok")
            holder.send_signal(signal.SIGKILL)
            # Wait for the exit but leave the child unreaped.
            os.waitid(os.P_PID, holder.pid, os.WEXITED | os.WNOWAIT)
            with open(f"/proc/{holder.pid}/stat") as fh:
                assert fh.read().rsplit(")", 1)[1].split()[0] == "Z"
            _store(tmp_path).acquire("tok")
        finally:
            _stop(holder)


class TestStoreHousekeeping:
    def test_discard_removes_the_lock_sidecar_and_frees_the_token(
            self, tmp_path):
        store = _store(tmp_path)
        token = store.new_token(1)
        store.acquire(token)
        store.create(token).close()
        sidecar = store.path_for(token)[: -len(".journal")] + ".lock"
        assert os.path.exists(sidecar)
        store.discard(token)
        assert os.listdir(tmp_path) == []
        assert not _held_elsewhere(tmp_path, token)

    def test_discard_of_an_unheld_token_leaves_the_holders_lock(
            self, tmp_path):
        """Only the holder unlinks the sidecar: a store that discards a
        token it does not hold must not free that token for a third."""
        holder = _store(tmp_path)
        token = holder.new_token(1)
        holder.acquire(token)
        holder.create(token).close()
        _store(tmp_path).discard(token)
        assert not holder.exists(token)
        assert _held_elsewhere(tmp_path, token)

    def test_an_unopenable_sidecar_is_a_typed_storage_error(self, tmp_path):
        store = _store(tmp_path)
        os.mkdir(store.path_for("tok")[: -len(".journal")] + ".lock")
        with pytest.raises(StorageError) as exc:
            store.acquire("tok")
        assert exc.value.point == "lease.lock"
        assert not isinstance(exc.value, LeaseHeldError)

    def test_a_sidecar_discarded_between_open_and_lock_is_no_lease(
            self, tmp_path, monkeypatch):
        """A store opens the sidecar; before it locks, the holder
        discards the token, unlinking the sidecar and dropping its lock.
        The store has then locked a dead inode.  That must not count,
        or a third store would take the token too, on the new sidecar
        its own open creates."""
        holder = _store(tmp_path)
        holder.acquire("tok")
        flock = fcntl.flock

        def discard_first(fd, operation):
            monkeypatch.setattr(fcntl, "flock", flock)
            holder.discard("tok")
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", discard_first)
        with pytest.raises(LeaseHeldError):
            _store(tmp_path).acquire("tok")
        assert not _held_elsewhere(tmp_path, "tok")

    def test_a_failed_journal_unlink_still_gives_the_lease_back(
            self, tmp_path):
        faulty = SharedDirStateStore(tmp_path, fsync=False, fileops=FaultFS(
            rules=[FaultRule(point="journal.unlink", kind="enospc")]))
        token = faulty.new_token(1)
        faulty.acquire(token)
        faulty.create(token).close()
        with pytest.raises(StorageFullError):
            faulty.discard(token)
        assert faulty.exists(token)  # the journal stays behind
        assert not _held_elsewhere(tmp_path, token)

    def test_lock_sidecars_are_not_journal_tokens(self, tmp_path):
        store = _store(tmp_path)
        token = store.new_token(1)
        store.create(token).close()
        store.acquire(token)
        assert store.tokens() == [token]

    def test_lease_files_are_not_journal_tokens(self, tmp_path):
        """An older store kept each lease in a ``<token>.lease`` file;
        one left in the directory is not a session to adopt."""
        store = _store(tmp_path)
        token = store.new_token(1)
        store.create(token).close()
        stale = store.path_for("old")[: -len(".journal")] + ".lease"
        with open(stale, "w") as fh:
            fh.write('{"token":"old"}\n')
        assert store.tokens() == [token]

    def test_concurrent_lut_saves_do_not_collide(self, tmp_path):
        from repro.workload.lut import WorkloadLut

        a = _store(tmp_path, pid=111)
        b = _store(tmp_path, pid=222)
        errors = []

        def save(store):
            try:
                for _ in range(25):
                    store.save_lut(WorkloadLut())
            except OSError as exc:  # the fixed-tmp-name race mode
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(s,))
                   for s in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert a.load_lut().recovered
