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
        stats.json                # folded lifetime {"hits", "misses", ...}
        stats.log                 # JSON delta lines since the last fold
        stats.lock                # shared per append, exclusive per fold
        <kind>/<hh>/<hash>.json   # {"spec": ..., "result": ...}

One :class:`ResultCache` serves the CLI sweeps and the sweep service
(:mod:`repro.harness.service`) alike, safe for concurrent threads and
processes.  The first two hex digits of the content address shard the
entries, so no directory ever holds millions.  Every write lands a
unique temp file, then publishes it in one atomic step, so a reader
never observes a torn entry and no writer takes a lock: :meth:`put`
renames it into place (last write wins — being content-addressed,
every write at one address is byte-identical) and
:meth:`ResultCache.put_if_absent` hard-links it, which fails when the
entry exists, so the first write wins (the store therefore needs a
file system with hard links).  An optional ``max_bytes`` budget evicts
least-recently-used entries (hits refresh recency); an eviction holds
the entry's ``<hash>.lock`` sibling while it removes it, and skips an
entry whose lock someone else holds.

The lifetime counters cost one ``O_APPEND`` write per count, no
rename: each lookup appends its delta to ``stats.log`` holding
``stats.lock`` shared.  :meth:`ResultCache.read_stats` adds the log
onto ``stats.json`` and folds it in under the exclusive lock, as does
the append that grows the log past :data:`STATS_LOG_FOLD_BYTES`, so no
append can land between a fold's read of the log and its unlink.  A
line torn by a writer that died mid-append never parses and is skipped;
each append starts a new line, so a torn one cannot swallow the next.
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

#: an append that leaves ``stats.log`` larger than this folds it into
#: ``stats.json`` (some 5,000 lookups)
STATS_LOG_FOLD_BYTES = 64 * 1024


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


def _open(path: Path, flags: int) -> int:
    """``os.open`` that creates ``path``'s missing parent directories."""
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o644)


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
    def _locked(self, path: Path, blocking: bool = True,
                shared: bool = False):
        """Advisory lock on ``path``'s ``.lock`` sibling, exclusive or
        ``shared``; yields False if the lock could not be taken
        (non-blocking mode).  Without ``fcntl`` it yields True
        unlocked."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield True
            return
        fd = _open(self._lock_path(path), os.O_RDWR | os.O_CREAT)
        try:
            flags = (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) \
                | (0 if blocking else fcntl.LOCK_NB)
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
            with open(path, "rb") as f:
                stamp = os.fstat(f.fileno())
                text = f.read()
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
        """Bump the instance metrics and the lifetime counters; returns
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
        first to hard-link its temp file into place wins — the link is
        atomic and fails when the entry exists — and the loser learns
        it was a duplicate.  Entries are content-addressed, so the
        losing payload is byte-identical and nothing is lost by
        dropping it.
        """
        return self._write(kind, spec, result, if_absent=True)

    def _write(self, kind: str, spec: dict, result: Any,
               if_absent: bool) -> bool:
        """Atomic write: a unique temp file published by rename (or by
        hard link, if absent), so an interrupted run never leaves a
        truncated entry behind."""
        path = self._path(kind, spec)
        tmp = _tmp_name(path)
        with open(_open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
                  "wb") as f:
            f.write(_canonical({"spec": spec, "result": result}).encode())
        if not if_absent:
            os.replace(tmp, path)
        else:
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)
        self._writes += 1
        if self.max_bytes is not None \
                and self._writes % self.evict_every == 0:
            self.evict()
        return True

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Drop least-recently-used entries until the store fits the
        byte budget; returns the number of entries removed.

        An entry whose advisory lock someone else holds (a concurrent
        eviction, or any process keeping it) is skipped unconditionally,
        as is anything that disappears while we look at it.  Writes
        publish atomically, so no entry is ever seen half-written.
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
                    continue  # held elsewhere: never evict it
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
            for path in list(self._entries()):
                path.unlink()
                removed += 1
            for path in self.root.rglob("*.lock"):
                path.unlink()
            self._stats_path.unlink(missing_ok=True)
            self._log_path.unlink(missing_ok=True)
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

    @property
    def _log_path(self) -> Path:
        return self.root / "stats.log"

    def _bump_stats(self, **deltas: int) -> None:
        """Add ``deltas`` to the persistent counters: one line appended
        to ``stats.log`` under the shared ``stats.lock``, so no append
        falls between a fold's read of the log and its unlink."""
        # leading newline: a torn earlier append cannot swallow this one
        line = ("\n" + _canonical(deltas)).encode()
        try:
            with self._locked(self._stats_path, shared=True):
                fd = _open(self._log_path,
                           os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                try:
                    os.write(fd, line)
                    size = os.lseek(fd, 0, os.SEEK_CUR)
                finally:
                    os.close(fd)
            if size > STATS_LOG_FOLD_BYTES:
                self._fold()
        except OSError:  # stats are best-effort; never fail a sweep
            pass

    def _fold(self) -> dict:
        """Fold ``stats.log`` into ``stats.json`` under the exclusive
        ``stats.lock``; returns the counters."""
        with self._locked(self._stats_path):
            stats, logged = self._totals()
            if logged:
                tmp = _tmp_name(self._stats_path)
                tmp.write_text(_canonical(stats))
                tmp.replace(self._stats_path)
                self._log_path.unlink(missing_ok=True)
        return stats

    def _totals(self) -> tuple[dict, bool]:
        """``stats.json`` plus every complete line of ``stats.log``, and
        whether the log held anything."""
        try:
            stats = json.loads(self._stats_path.read_text())
            stats = {name: int(stats.get(name, 0))
                     for name in _STAT_FIELDS}
        except (OSError, ValueError, AttributeError, TypeError):
            stats = dict.fromkeys(_STAT_FIELDS, 0)
        try:
            log = self._log_path.read_bytes()
        except OSError:
            return stats, False
        for line in log.split(b"\n"):
            try:
                delta = {name: int(n)
                         for name, n in json.loads(line).items()
                         if name in stats}
            except (ValueError, AttributeError, TypeError):
                continue  # blank, or torn by a writer that died mid-append
            for name, n in delta.items():
                stats[name] += n
        return stats, bool(log)

    def read_stats(self) -> dict:
        """Persistent lifetime counters for this cache dir: ``stats.json``
        plus the logged deltas, folded in when the store is writable."""
        if self._log_path.exists():
            try:
                return self._fold()
            except OSError:  # a read-only store is read without folding
                pass
        return self._totals()[0]

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

        Each entry counts under the engine its spec requested, so an
        ``"auto"`` point counts as ``"auto"`` whichever engine ran it.
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
