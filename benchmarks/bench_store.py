"""Exact cost guards on the result store's hot path.

A lookup appends its count to ``stats.log`` and a daemon store
publishes its entry with one hard link, so neither renames anything
nor leaves a lock file behind.  These guards count ``os.replace``
calls through the ``os`` module :mod:`repro.harness.cache` uses: a
per-lookup rewrite of ``stats.json`` or a rename-based
``put_if_absent`` shows up as one call per point.
"""

from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path

import pytest

from repro.apps.pingpong import bandwidth_specs
from repro.harness import cache as cache_mod
from repro.harness import fig9, fig10
from repro.harness.cache import ResultCache
from repro.harness.fig8 import MiB
from repro.harness.parallel import sweep

SPEC = {"system": "cichlid", "nbytes": 65536}
RESULT = {"seconds": 0.25, "mode": "pinned"}


@pytest.fixture
def replace_calls(monkeypatch):
    """The list of ``os.replace`` calls made through the store's ``os``."""
    calls = []
    real = cache_mod.os.replace

    def counting(src, dst):
        calls.append((src, dst))
        return real(src, dst)

    monkeypatch.setattr(cache_mod.os, "replace", counting)
    return calls


def _paper_grid() -> dict[str, list[dict]]:
    """The 139 specs ``harness all`` sweeps, per kind, built as the
    figure functions build them."""
    return {
        "bandwidth": [spec for system in ("Cichlid", "RICC")
                      for spec in bandwidth_specs(
                          system, pipeline_blocks=[MiB, 4 * MiB, 16 * MiB])],
        "himeno": [{"system": system, "nodes": n, "impl": impl,
                    "size": "M", "iterations": 4, "functional": False}
                   for system, key in (("Cichlid", "cichlid"),
                                       ("RICC", "ricc"))
                   for n in fig9.DEFAULT_NODES[key]
                   for impl in fig9.IMPLS],
        "nanopowder": [{"system": "RICC", "nodes": n, "impl": impl,
                        "steps": 2, "scale": "paper",
                        "functional": False}
                       for n in fig10.DEFAULT_NODES
                       for impl in fig10.IMPLS],
    }


def _never(spec: dict) -> dict:
    raise AssertionError(f"a warm sweep computed {spec}")


def test_lookups_and_first_write_wins_stores_rename_nothing(
        tmp_path, replace_calls):
    store = ResultCache(root=tmp_path, version="v1")
    assert store.get("bw", SPEC) is None
    assert store.put_if_absent("bw", SPEC, RESULT) is True
    assert store.put_if_absent("bw", SPEC, RESULT) is False
    assert store.get("bw", SPEC) == RESULT
    assert replace_calls == []
    assert store.read_stats()["hits"] == 1
    assert list(tmp_path.rglob("*.lock")) == [tmp_path / "stats.lock"]


def test_warm_paper_sweep_renames_nothing(tmp_path, replace_calls):
    grid = _paper_grid()
    assert sum(map(len, grid.values())) == 139
    store = ResultCache(root=tmp_path, version="v1")
    for kind, specs in grid.items():
        for spec in specs:
            store.put(kind, spec, {"row": spec})
    del replace_calls[:]
    for kind, specs in grid.items():
        rows = sweep(_never, specs, cache=store, kind=kind)
        assert rows == [{"row": spec} for spec in specs]
    assert store.hits == 139
    assert replace_calls == []


def _child_put_if_absent(root, barrier, out):
    store = ResultCache(root=Path(root), version="v1")
    barrier.wait()
    out.put(store.put_if_absent("bw", SPEC, RESULT))


def test_racing_put_if_absent_creates_the_entry_once(tmp_path,
                                                     replace_calls):
    """Eight threads and a forked process store one address at once:
    exactly one creates it, and no temp or entry lock file is left."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(9)
    out = ctx.Queue()
    child = ctx.Process(target=_child_put_if_absent,
                        args=(str(tmp_path), barrier, out))
    store = ResultCache(root=tmp_path, version="v1")
    won = []

    def racer():
        barrier.wait()
        won.append(store.put_if_absent("bw", SPEC, RESULT))

    threads = [threading.Thread(target=racer) for _ in range(8)]
    child.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    won.append(out.get(timeout=60))
    child.join(timeout=60)
    assert child.exitcode == 0
    assert sorted(won) == [False] * 8 + [True]
    assert store.get("bw", SPEC) == RESULT
    assert list(tmp_path.rglob("*.tmp")) == []
    assert [p.name for p in tmp_path.rglob("*.lock")] == ["stats.lock"]
    assert replace_calls == []
