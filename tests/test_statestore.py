"""Unit tests for the externalized session state store.

The single-owner lease protocol is what makes adoption by a restarted
server safe: a journal admits exactly one writer, so the lease must
grant exactly one owner per token under every interleaving — two live
processes racing, a stale lease whose owner died, and the torn lease
file a crash leaves behind mid-write.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.resilience.errors import LeaseHeldError
from repro.serving.statestore import SharedDirStateStore, pid_alive


def _store(root, owner: str, pid: int = 0, **kwargs) -> SharedDirStateStore:
    return SharedDirStateStore(
        root, fsync=False, owner=owner, pid=pid or os.getpid(), **kwargs
    )


def _lease_owner(store: SharedDirStateStore, token: str):
    """Owner named by ``token``'s lease file; ``None`` when unleased."""
    try:
        with open(store.lease_path(token), "rb") as fh:
            info = store._parse_lease(fh.read())
    except FileNotFoundError:
        return None
    return None if info is None else info["owner"]


def _dead_pid() -> int:
    """A real pid that is guaranteed dead (spawned, exited, reaped)."""
    process = multiprocessing.get_context("spawn").Process(target=int)
    process.start()
    process.join()
    assert process.pid is not None
    return process.pid


class TestLeaseProtocol:
    def test_fresh_acquire_grants(self, tmp_path):
        store = _store(tmp_path, "w0:1")
        lease = store.acquire("tok")
        assert lease.owner == "w0:1"
        assert not lease.reclaimed
        assert lease.previous_owner == ""
        assert os.path.exists(store.lease_path("tok"))

    def test_reacquire_own_lease_is_idempotent(self, tmp_path):
        store = _store(tmp_path, "w0:1")
        store.acquire("tok")
        again = store.acquire("tok")
        assert again.owner == "w0:1"

    def test_live_foreign_lease_raises_typed_error(self, tmp_path):
        holder = _store(tmp_path, "w0:1")
        holder.acquire("tok")
        contender = _store(tmp_path, "w1:2")
        with pytest.raises(LeaseHeldError) as exc:
            contender.acquire("tok")
        assert exc.value.token == "tok"
        assert exc.value.owner == "w0:1"
        assert exc.value.pid == holder.pid

    def test_two_stores_racing_exactly_one_wins(self, tmp_path):
        """N threads x 2 owners hammer one token: one winner each time."""
        a = _store(tmp_path, "w0:a")
        b = _store(tmp_path, "w1:b")
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
            winner = a if outcomes["a"] == "won" else b
            assert _lease_owner(winner, token) == winner.owner

    def test_stale_lease_dead_pid_is_reclaimed(self, tmp_path):
        dead = _dead_pid()
        crashed = _store(tmp_path, "w0:dead", pid=dead)
        crashed.acquire("tok")
        assert not pid_alive(dead)
        survivor = _store(tmp_path, "w1:live")
        lease = survivor.acquire("tok")
        assert lease.reclaimed
        assert lease.previous_owner == "w0:dead"
        assert _lease_owner(survivor, "tok") == "w1:live"

    @pytest.mark.parametrize("debris", [
        b"",                                   # zero-length: crash at open
        b'{"checksum":"deadbeef","token"',     # truncated mid-write
        b"\x00\xff garbage not json\n",        # scribbled block
        b'{"checksum":"0000","token":"tok","owner":"x","pid":1}\n',
    ])
    def test_torn_lease_file_is_reclaimable(self, tmp_path, debris):
        store = _store(tmp_path, "w1:live")
        with open(store.lease_path("tok"), "wb") as fh:
            fh.write(debris)
        lease = store.acquire("tok")
        assert lease.reclaimed
        assert lease.previous_owner == ""  # debris names no valid owner
        assert _lease_owner(store, "tok") == "w1:live"

    def test_release_only_drops_own_lease(self, tmp_path):
        holder = _store(tmp_path, "w0:1")
        holder.acquire("tok")
        other = _store(tmp_path, "w1:2")
        other.release("tok")  # no-op: not the holder
        assert _lease_owner(holder, "tok") == "w0:1"
        holder.release("tok")
        assert _lease_owner(holder, "tok") is None
        holder.release("tok")  # releasing an unheld token is a no-op


class TestStoreHousekeeping:
    def test_discard_removes_lease_and_lock_sidecars(self, tmp_path):
        store = _store(tmp_path, "w0:1")
        token = store.new_token(1)
        journal = store.create(token)
        journal.close()
        store.acquire(token)
        assert os.path.exists(store.lease_path(token))
        store.discard(token)
        assert not os.path.exists(store.path_for(token))
        assert not os.path.exists(store.lease_path(token))
        assert not os.path.exists(store._lock_path(token))

    def test_lease_files_are_not_journal_tokens(self, tmp_path):
        store = _store(tmp_path, "w0:1")
        token = store.new_token(1)
        store.create(token).close()
        store.acquire(token)
        assert store.tokens() == [token]

    def test_concurrent_lut_saves_do_not_collide(self, tmp_path):
        from repro.workload.lut import WorkloadLut

        a = _store(tmp_path, "w0:1", pid=111)
        b = _store(tmp_path, "w1:2", pid=222)
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
