"""Content-addressed store for simulation sweep results.

Every sweep point the harness runs is a pure function of (experiment
kind, spec dict, code version): the DES engine is deterministic, so the
result of a configuration never changes until the code does.  The store
exploits that — each result is stored as JSON under ``.repro_cache/``,
keyed by a SHA-256 over the canonical JSON of the three components.

The *code version* is a digest over every ``.py`` file of the installed
``repro`` package, so any source edit (engine, apps, harness) silently
invalidates all prior entries: stale keys are simply never looked up
again and the files become dead weight that ``clear()`` can drop.

Layout::

    .repro_cache/
        stats.json                # persistent {"hits", "misses", ...}
        stats.lock                # serializes stats.json updates
        <kind>/<hh>/<hash>.json   # {"spec": ..., "result": ...}
        <kind>/<hh>/<hash>.lock   # the entry's advisory write lock

One :class:`ResultCache` serves the CLI sweeps and the sweep service
(:mod:`repro.harness.service`) alike, safe for concurrent threads and
processes.  The first two hex digits of the content address shard the
entries, so no directory ever holds millions.  Every write holds an
exclusive ``flock`` on the entry's ``.lock`` sibling and lands via a
unique temp file + rename-into-place, so a reader never observes a torn
entry, and writers racing on one content address all land a complete —
and, being content-addressed, byte-identical — file
(:meth:`ResultCache.put_if_absent` is the first-write-wins form).  An
optional ``max_bytes`` budget evicts least-recently-used entries (hits
refresh recency), never one that is mid-write.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional

try:  # advisory file locking (POSIX); writes degrade to unlocked without
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["ResultCache", "code_version", "default_cache_dir"]

#: cached digest of the repro sources (computed once per process)
_CODE_VERSION: Optional[str] = None

#: sentinel: a corrupt entry was deleted, the read stays a miss
_MISS = object()

#: the persistent counters ``stats.json`` carries
_STAT_FIELDS = ("hits", "misses", "corrupt_deleted", "corrupt_replaced",
                "evicted")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro_cache`` under the working dir."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def code_version() -> str:
    """Digest of every ``repro``-package source file (hex, 16 chars).

    Hashes relative path + contents of all ``.py`` files in sorted
    order, so the digest is stable across machines and invocations but
    changes whenever any shipped source line does.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tmp_name(path: Path) -> Path:
    """A temp sibling of ``path`` no other thread or process shares."""
    return path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


class ResultCache:
    """JSON result store addressed by (kind, spec, code version).

    ``spec`` must be a JSON-able dict — it doubles as the human-readable
    record of what produced the entry.  Pass an explicit ``version`` to
    pin or test invalidation behaviour; the default tracks the sources.
    ``max_bytes`` (None = unbounded) is the LRU byte budget, enforced
    every ``evict_every`` writes.
    """

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 evict_every: int = 64):
        from repro.obs import MetricsRegistry

        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if evict_every < 1:
            raise ValueError(
                f"evict_every must be >= 1, got {evict_every}")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version if version is not None else code_version()
        self.max_bytes = max_bytes
        self.evict_every = evict_every
        self._writes = 0
        #: per-instance metrics (``cache.hits`` / ``cache.misses`` /
        #: ``cache.corrupt_deleted`` / ``cache.corrupt_replaced`` /
        #: ``cache.evicted``) — the source of truth for the
        #: :attr:`hits` / :attr:`misses` views and ``--cache-stats``
        self.metrics = MetricsRegistry()

    @property
    def hits(self) -> int:
        """Cache hits by this instance (reads ``cache.hits``)."""
        return self.metrics.counters.get("cache.hits", 0)

    @property
    def misses(self) -> int:
        """Cache misses by this instance (reads ``cache.misses``)."""
        return self.metrics.counters.get("cache.misses", 0)

    @property
    def corrupt_deleted(self) -> int:
        """Unparseable entries this instance deleted on read."""
        return self.metrics.counters.get("cache.corrupt_deleted", 0)

    @property
    def corrupt_replaced(self) -> int:
        """Corrupt reads healed by a concurrent writer's fresh entry."""
        return self.metrics.counters.get("cache.corrupt_replaced", 0)

    # -- keys ---------------------------------------------------------------
    def key(self, kind: str, spec: dict) -> str:
        """Stable content hash of one sweep point."""
        payload = _canonical({"kind": kind, "spec": spec,
                              "version": self.version})
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _path(self, kind: str, spec: dict) -> Path:
        key = self.key(kind, spec)
        return self.root / kind / key[:2] / f"{key}.json"

    @staticmethod
    def _lock_path(path: Path) -> Path:
        return path.with_suffix(".lock")

    @contextmanager
    def _locked(self, path: Path, blocking: bool = True):
        """Exclusive advisory lock on ``path``'s ``.lock`` sibling;
        yields False if the lock could not be taken (non-blocking mode).
        Without ``fcntl`` it yields True unlocked."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield True
            return
        fd = os.open(self._lock_path(path), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
            try:
                fcntl.flock(fd, flags)
            except OSError:
                yield False
                return
            yield True
            # unlock explicitly: a child forked meanwhile shares this
            # open file description, and closing only our descriptor
            # would leave the lock held for as long as that child lives
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- access -------------------------------------------------------------
    def get(self, kind: str, spec: dict) -> Optional[Any]:
        """The cached result for ``spec``, or None (counts hit/miss).

        A hit refreshes the entry's mtime, its recency for LRU eviction.
        A file that exists but cannot be parsed — truncated by a crash
        or power loss, bit-rotted, hand-edited — is removed and treated
        as a plain miss, so the point is recomputed and the bad entry
        can never poison a figure.  Removal is *atomic with respect to
        concurrent writers*: if another process rewrote the entry
        between our read and our delete, the fresh entry survives and
        its result is returned (counted as ``corrupt_replaced`` instead
        of ``corrupt_deleted``).
        """
        path = self._path(kind, spec)
        try:
            stamp = os.stat(path)
            text = path.read_text()
        except OSError:
            return self._count(None, misses=1)
        try:
            entry = json.loads(text)
            result = entry["result"]
        except (ValueError, KeyError, TypeError):
            result = self._recover_corrupt(path, stamp)
            if result is _MISS:
                return self._count(None, misses=1, corrupt_deleted=1)
            return self._count(result, hits=1, corrupt_replaced=1)
        try:
            os.utime(path)
        except OSError:
            pass
        return self._count(result, hits=1)

    def _count(self, result: Any, **deltas: int) -> Any:
        """Bump the instance metrics and ``stats.json``; returns
        ``result`` so :meth:`get` can answer in one line."""
        for name, n in deltas.items():
            self.metrics.inc(f"cache.{name}", n)
        self._bump_stats(**deltas)
        return result

    def _recover_corrupt(self, path: Path, stamp: os.stat_result):
        """Delete the corrupt entry at ``path`` — and only *that* entry.

        A bare ``unlink`` races with a concurrent writer recreating the
        entry: the writer's complete file could land between our failed
        parse and our delete, and the unlink would destroy good data.
        Instead the entry is atomically renamed into a private
        quarantine name, then identified by inode: if quarantine caught
        the same file we read, it is dropped; if it caught a *newer*
        file (a writer won the race), that file is atomically restored —
        entries are content-addressed, so any concurrent write holds the
        identical payload — and its result is returned.  Returns the
        recovered result, or :data:`_MISS` when the corrupt entry was
        simply deleted.
        """
        quarantine = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}"
            ".quarantine")
        try:
            os.replace(path, quarantine)
        except OSError:
            return _MISS  # already gone: racing delete, nothing to do
        try:
            caught = os.stat(quarantine)
        except OSError:  # pragma: no cover - quarantine vanished
            return _MISS
        if (caught.st_ino, caught.st_mtime_ns) == \
                (stamp.st_ino, stamp.st_mtime_ns):
            try:
                os.unlink(quarantine)
            except OSError:  # pragma: no cover - racing cleanup
                pass
            return _MISS
        # The quarantine swept up a *fresh* entry written after our
        # read.  Put it back (atomic; any entry at this address is
        # byte-identical) and serve it.
        try:
            os.replace(quarantine, path)
            entry = json.loads(path.read_text())
            return entry["result"]
        except (OSError, ValueError, KeyError, TypeError):
            # pathological: the fresh entry is unreadable too
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISS

    def put(self, kind: str, spec: dict, result: Any) -> None:
        """Store ``result`` (last write wins — every write at one
        address is byte-identical)."""
        self._write(kind, spec, result, if_absent=False)

    def put_if_absent(self, kind: str, spec: dict, result: Any) -> bool:
        """Store ``result`` unless an entry already exists; returns True
        when this call created the entry.

        This is the duplicate-completion arbiter for the sweep service:
        two holders that raced on a re-queued point both deliver, the
        first atomic rename-into-place wins, and the loser learns it was
        a duplicate.  Entries are content-addressed, so the losing
        payload is byte-identical and nothing is lost by dropping it.
        The existence check and the write happen under the entry's
        advisory lock, so no interleaving can corrupt the entry.
        """
        return self._write(kind, spec, result, if_absent=True)

    def _write(self, kind: str, spec: dict, result: Any,
               if_absent: bool) -> bool:
        """Atomic, locked write: a unique temp file renamed into place,
        so an interrupted run never leaves a truncated entry behind."""
        path = self._path(kind, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked(path):
            if if_absent and path.exists():
                return False
            tmp = _tmp_name(path)
            tmp.write_text(_canonical({"spec": spec, "result": result}))
            tmp.replace(path)
        self._writes += 1
        if self.max_bytes is not None \
                and self._writes % self.evict_every == 0:
            self.evict()
        return True

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Drop least-recently-used entries until the store fits the
        byte budget; returns the number of entries removed.

        An entry whose advisory lock is held (a writer is mid-write) is
        skipped unconditionally, as is anything that disappears while
        we look at it — eviction only ever removes entries nobody is
        touching.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None or not self.root.is_dir():
            return 0
        entries = []
        total = 0
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, st.st_size, path))
            total += st.st_size
        if total <= budget:
            return 0
        removed = 0
        for _, size, path in sorted(entries, key=lambda e: e[0]):
            if total <= budget:
                break
            with self._locked(path, blocking=False) as held:
                if not held:
                    continue  # mid-write: never evict under a writer
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                total -= size
            try:
                self._lock_path(path).unlink()
            except OSError:
                pass
        if removed:
            self.metrics.inc("cache.evicted", removed)
            self._bump_stats(evicted=removed)
        return removed

    def clear(self) -> int:
        """Delete every entry (and the stats); returns entries removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                path.unlink()
                removed += 1
            for path in self.root.rglob("*.lock"):
                path.unlink()
            # bottom-up so shard dirs empty out before their parents
            for sub in sorted((p for p in self.root.rglob("*")
                               if p.is_dir()), reverse=True):
                if not any(sub.iterdir()):
                    sub.rmdir()
        self.metrics.counters.clear()
        return removed

    # -- stats --------------------------------------------------------------
    @property
    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    def _bump_stats(self, **deltas: int) -> None:
        """Add ``deltas`` to the persistent counters.  The read-modify-
        write holds ``stats.lock``, so concurrent threads and processes
        never lose an update."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._locked(self._stats_path):
                stats = self.read_stats()
                for name, n in deltas.items():
                    stats[name] += n
                tmp = _tmp_name(self._stats_path)
                tmp.write_text(_canonical(stats))
                tmp.replace(self._stats_path)
        except OSError:  # stats are best-effort; never fail a sweep
            pass

    def read_stats(self) -> dict:
        """Persistent lifetime hit/miss counters for this cache dir."""
        try:
            stats = json.loads(self._stats_path.read_text())
            return {name: int(stats.get(name, 0))
                    for name in _STAT_FIELDS}
        except (OSError, ValueError, AttributeError, TypeError):
            return dict.fromkeys(_STAT_FIELDS, 0)

    def _entries(self):
        """Every stored entry file."""
        return (p for p in self.root.rglob("*.json")
                if p.name != "stats.json")

    def entry_count(self) -> int:
        """Number of stored results."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self._entries())

    def engine_breakdown(self) -> dict[str, int]:
        """Stored entries per simulation engine (``--cache-stats``).

        Specs carry an ``"engine"`` key only when it differs from the
        default, so entries written before the mesoscale engine existed
        (and all coroutine points since) count under ``"coroutine"``.
        Unparseable files are skipped — reads delete them lazily.
        """
        counts: dict[str, int] = {}
        if not self.root.is_dir():
            return counts
        for path in self._entries():
            try:
                spec = json.loads(path.read_text()).get("spec") or {}
            except (OSError, ValueError, AttributeError):
                continue
            engine = spec.get("engine", "coroutine") \
                if isinstance(spec, dict) else "coroutine"
            counts[engine] = counts.get(engine, 0) + 1
        return counts
