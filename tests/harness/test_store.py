"""ResultCache: concurrent writers, LRU eviction, corrupt recovery.

The one result store backs the CLI sweeps and the sweep service alike:
many daemons and CLI runs may read and write one directory tree at
once.  These tests pin the guarantees that make that safe — a reader
only ever observes complete entries (writes publish atomically),
eviction never removes an entry whose advisory lock someone holds, the
corrupt-entry recovery path cannot destroy a concurrent writer's fresh
data (quarantine-rename + inode identity), the persisted counters lose
no update under concurrent threads and processes racing a fold of the
stats log, and a process forked while a lock is held does not keep it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import ResultCache

SPEC = {"system": "cichlid", "nbytes": 65536}
RESULT = {"seconds": 0.25, "mode": "pinned"}


def _hammer_writer(root, n, barrier):
    """Child-process body: write the same entry ``n`` times."""
    store = ResultCache(root=Path(root), version="v1")
    barrier.wait()
    for _ in range(n):
        store.put("bw", SPEC, RESULT)


def _hammer_reader(root, n, barrier, out):
    """Child-process body: read the entry ``n`` times, record any torn
    observation (None misses are fine; partial JSON is not)."""
    store = ResultCache(root=Path(root), version="v1")
    barrier.wait()
    torn = 0
    for _ in range(n):
        got = store.get("bw", SPEC)
        if got is not None and got != RESULT:
            torn += 1
    out.put(torn)


class TestConcurrentWriters:
    def test_two_writers_one_reader_no_torn_entries(self, tmp_path):
        """Two processes hammering the same content address while a
        third reads: every read sees the complete entry or a miss,
        never a torn file."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(3)
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer_writer,
                        args=(str(tmp_path), 200, barrier)),
            ctx.Process(target=_hammer_writer,
                        args=(str(tmp_path), 200, barrier)),
            ctx.Process(target=_hammer_reader,
                        args=(str(tmp_path), 400, barrier, out)),
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert out.get(timeout=5) == 0  # zero torn observations
        store = ResultCache(root=tmp_path, version="v1")
        assert store.get("bw", SPEC) == RESULT
        # no leftover temp files from either writer
        strays = [p for p in tmp_path.rglob("*.tmp")]
        assert strays == []

    def test_same_address_writes_are_byte_identical(self, tmp_path):
        """Racing writers at one content address land the same bytes,
        so last-write-wins is harmless by construction."""
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        path = store._path("bw", SPEC)
        first = path.read_bytes()
        store.put("bw", SPEC, RESULT)
        assert path.read_bytes() == first


class TestShardedLayout:
    def test_entries_shard_by_key_prefix(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        key = store.key("bw", SPEC)
        assert (tmp_path / "bw" / key[:2] / f"{key}.json").is_file()


class TestLruEviction:
    def _fill(self, store, n):
        for i in range(n):
            store.put("bw", {"i": i}, {"r": i, "pad": "x" * 64})

    def test_evicts_oldest_first(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        self._fill(store, 6)
        paths = [store._path("bw", {"i": i}) for i in range(6)]
        for i, p in enumerate(paths):  # deterministic recency order
            os.utime(p, ns=(i * 10**9, i * 10**9))
        sizes = sum(p.stat().st_size for p in paths)
        removed = store.evict(max_bytes=sizes // 2)
        assert removed >= 1
        assert not paths[0].exists()          # LRU went first
        assert paths[-1].exists()             # MRU survived

    def test_hit_refreshes_recency(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        self._fill(store, 4)
        paths = [store._path("bw", {"i": i}) for i in range(4)]
        for i, p in enumerate(paths):
            os.utime(p, ns=(i * 10**9, i * 10**9))
        assert store.get("bw", {"i": 0}) is not None  # touch the LRU
        removed = store.evict(
            max_bytes=sum(p.stat().st_size for p in paths) // 2)
        assert removed >= 1
        assert paths[0].exists()  # refreshed entry outlived older ones

    def test_never_evicts_a_locked_entry(self, tmp_path):
        """The mid-write protection: an entry whose advisory lock is
        held survives eviction no matter how old it looks."""
        fcntl = pytest.importorskip("fcntl")
        store = ResultCache(root=tmp_path, version="v1")
        self._fill(store, 4)
        paths = [store._path("bw", {"i": i}) for i in range(4)]
        for i, p in enumerate(paths):
            os.utime(p, ns=(i * 10**9, i * 10**9))
        lock = store._lock_path(paths[0])
        fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            store.evict(max_bytes=0)  # demand everything evictable gone
            assert paths[0].exists()      # locked: untouchable
            assert not paths[1].exists()  # unlocked peers evicted
        finally:
            os.close(fd)

    def test_eviction_runs_automatically_on_write(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1", max_bytes=1,
                            evict_every=2)
        self._fill(store, 4)  # every 2nd put triggers evict()
        assert store.entry_count() < 4
        assert store.read_stats()["evicted"] >= 1

    def test_eviction_counted_in_metrics_and_stats(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        self._fill(store, 3)
        removed = store.evict(max_bytes=0)
        assert removed == 3
        assert store.metrics.counters["cache.evicted"] == 3
        assert store.read_stats()["evicted"] == 3


class TestPersistedStats:
    def test_concurrent_lookups_lose_no_update(self, tmp_path):
        """Two threads doing 300 lookups each persist exactly 600: each
        lookup appends its delta to stats.log under the shared lock, and
        reading the counters folds the log under the exclusive one."""
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        barrier = threading.Barrier(2)

        def lookups(spec):
            barrier.wait()
            for _ in range(300):
                store.get("bw", spec)

        threads = [threading.Thread(target=lookups, args=(spec,))
                   for spec in (SPEC, {"missing": True})]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads densely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        stats = store.read_stats()
        assert (stats["hits"], stats["misses"]) == (300, 300)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_lock_released_while_a_forked_child_lives(self, tmp_path):
        """A child forked while ``stats.lock`` is held shares the locked
        file description; leaving the context must still release the
        lock, or every later stats update blocks until the child dies
        (a persistent worker process never does)."""
        fcntl = pytest.importorskip("fcntl")
        store = ResultCache(root=tmp_path, version="v1")
        release_r, release_w = os.pipe()
        with store._locked(store._stats_path) as held:
            assert held
            pid = os.fork()
            if pid == 0:  # child: hold the inherited fd until released
                os.close(release_w)
                os.read(release_r, 1)
                os._exit(0)
        os.close(release_r)
        try:
            fd = os.open(store._lock_path(store._stats_path), os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # child alive
        finally:
            os.close(release_w)
            os.waitpid(pid, 0)


def _child_lookups(root, n, barrier):
    """Child-process body: ``n`` hits and ``n`` misses."""
    store = ResultCache(root=Path(root), version="v1")
    barrier.wait()
    for _ in range(n):
        store.get("bw", SPEC)
        store.get("bw", {"missing": True})


class TestStatsLog:
    def test_torn_last_line_is_ignored(self, tmp_path):
        """A writer that died mid-append leaves a torn last line: it is
        skipped, and the next append still counts."""
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        store.get("bw", SPEC)
        store.get("bw", {"missing": True})
        with open(tmp_path / "stats.log", "ab") as log:
            log.write(b'\n{"hits":5')  # torn: no closing brace
        assert store.read_stats()["hits"] == 1
        with open(tmp_path / "stats.log", "ab") as log:
            log.write(b'\n{"hits":5')
        store.get("bw", SPEC)
        stats = store.read_stats()
        assert (stats["hits"], stats["misses"]) == (2, 1)
        assert not (tmp_path / "stats.log").exists()  # folded on read
        assert json.loads((tmp_path / "stats.json").read_text())[
            "hits"] == 2

    def test_appends_racing_a_fold_lose_no_count(self, tmp_path,
                                                  monkeypatch):
        """Two threads and a forked process append while the log folds
        every few lines and a third thread folds it on read: every
        count survives."""
        monkeypatch.setattr(cache_mod, "STATS_LOG_FOLD_BYTES", 256)
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        child = ctx.Process(target=_child_lookups,
                            args=(str(tmp_path), 200, barrier))
        done = threading.Event()

        def lookups(spec):
            barrier.wait()
            for _ in range(300):
                store.get("bw", spec)

        def reader():
            barrier.wait()
            while not done.is_set():
                store.read_stats()

        threads = [threading.Thread(target=lookups, args=(spec,))
                   for spec in (SPEC, {"missing": True})]
        folder = threading.Thread(target=reader)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            child.start()
            for t in threads + [folder]:
                t.start()
            for t in threads:
                t.join(timeout=60)
            child.join(timeout=60)
        finally:
            done.set()
            folder.join(timeout=60)
            sys.setswitchinterval(switch)
        assert child.exitcode == 0
        assert not any(t.is_alive() for t in threads + [folder])
        stats = store.read_stats()
        assert (stats["hits"], stats["misses"]) == (500, 500)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_clear_resets_the_counters(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        store.get("bw", SPEC)
        store.get("bw", {"missing": True})
        store.read_stats()                 # folded into stats.json
        store.get("bw", SPEC)              # and one still in the log
        assert store.clear() == 1          # entries only, not stats.json
        assert store.read_stats() == dict.fromkeys(
            ("hits", "misses", "corrupt_deleted", "corrupt_replaced",
             "evicted"), 0)
        assert list(tmp_path.iterdir()) == []
        store.get("bw", SPEC)
        assert store.read_stats()["misses"] == 1


class TestCorruptRecovery:
    def test_corrupt_entry_deleted_and_counted(self, tmp_path):
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        path = store._path("bw", SPEC)
        path.write_text("{torn")
        assert store.get("bw", SPEC) is None
        assert not path.exists()
        assert store.corrupt_deleted == 1
        assert store.read_stats()["corrupt_deleted"] == 1

    def test_concurrent_rewrite_wins_over_delete(self, tmp_path,
                                                 monkeypatch):
        """The delete-vs-recreate race, forced deterministically: a
        writer's fresh entry lands between the failed parse and the
        quarantine rename.  The fresh entry must survive and be served
        (counted as ``corrupt_replaced``, not ``corrupt_deleted``)."""
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        path = store._path("bw", SPEC)
        path.write_text("{torn")
        real_replace = os.replace

        def racing_replace(src, dst):
            # the concurrent writer recreates the entry just before our
            # quarantine rename sweeps the path
            if Path(src) == path:
                fresh = path.with_name("fresh.tmp")
                fresh.write_text(json.dumps(
                    {"spec": SPEC, "result": RESULT}))
                real_replace(fresh, path)
                monkeypatch.setattr(os, "replace", real_replace)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        assert store.get("bw", SPEC) == RESULT   # served, not dropped
        assert path.exists()                     # fresh entry restored
        assert store.corrupt_replaced == 1
        assert store.corrupt_deleted == 0
        stats = store.read_stats()
        assert stats["corrupt_replaced"] == 1
        assert stats["hits"] == 1
        leftovers = list(tmp_path.rglob("*.quarantine"))
        assert leftovers == []

    def test_entry_vanishing_midway_is_a_plain_miss(self, tmp_path,
                                                    monkeypatch):
        """A racing delete between parse failure and quarantine: no
        crash, no counter confusion — just a miss."""
        store = ResultCache(root=tmp_path, version="v1")
        store.put("bw", SPEC, RESULT)
        path = store._path("bw", SPEC)
        path.write_text("{torn")
        real_replace = os.replace

        def deleting_replace(src, dst):
            if Path(src) == path:
                path.unlink()
                monkeypatch.setattr(os, "replace", real_replace)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", deleting_replace)
        assert store.get("bw", SPEC) is None
        assert store.corrupt_deleted == 1
