"""Heap-order fingerprint of the four Himeno rank coroutines.

Each implementation's A/B phase schedule decides which commands a rank
enqueues, in which order, and which events they wait on.  Any rewrite of
how that schedule is written down must leave the fired calendar entries
exactly as they were: same times, same priorities, same sequence
numbers, same tie labels (the schedule-space verifier enumerates ties by
label).

The test runs one 3-rank XXS timing-only point per implementation on
both presets through :class:`~repro.launcher.ClusterApp`, records
``(time, priority, seq, tie label)`` of every fired entry, and compares
the digest and entry count with pinned values.  At 3 ranks the middle
rank exchanges in both phases and each boundary rank in one, so both
exchanges of the schedule are covered.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.himeno import IMPLEMENTATIONS, HimenoConfig
from repro.launcher import ClusterApp
from repro.sim import Environment
from repro.systems import cichlid, ricc

PRESETS = {"cichlid": cichlid, "ricc": ricc}


def fire(preset, implementation: str) -> list:
    """Fired ``(repr(time), priority, seq, tie label)`` entries of one
    3-rank XXS timing-only run."""
    app = ClusterApp(preset, 3, functional=False)
    env, entries = app.env, []

    def drain(until=None):
        heap = env._heap
        while heap:
            when, prio, seq, event = heap[0]
            entries.append((repr(when), prio, seq,
                            Environment._tie_label(event)))
            env.step()

    env.run = drain
    cfg = HimenoConfig(size="XXS", iterations=2)
    rows = app.run(IMPLEMENTATIONS[implementation], cfg, False)
    assert all(r is not None for r in rows)
    return entries


def fingerprint(preset, implementation: str) -> tuple[str, int]:
    entries = fire(preset, implementation)
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    return digest, len(entries)


#: pinned from the per-parity (even/odd mirror branch) rank coroutines
PINNED = {
    ("cichlid", "clmpi"): (
        "98aaa42ce238a996c1a04d67287bc08c5adbcb8b4e338d88c7d6e53488504fd1", 606),
    ("cichlid", "gpu-aware-mpi"): (
        "8ea79450a12f4d44182b6f9276ad9c319ce6f7689c93e815b1515266fcd9d284", 561),
    ("cichlid", "hand-optimized"): (
        "0fe82854505c2541f1049914e10db5ab4f8cdd8c53a5e037f437dd0e051558ee", 594),
    ("cichlid", "serial"): (
        "b80950bb4ca3a87d12e997b19c2e09b8655bdff5cbfcbb0dbc0ffa81f2cfedc7", 579),
    ("ricc", "clmpi"): (
        "7bb57d888db316d20ea24c75bc159bc850f4d2aa1a842b2ade14e1836bce4d73", 587),
    ("ricc", "gpu-aware-mpi"): (
        "6a9665106258cb22b5f30c0443889ce5667bd15d4834eb0fa6b26908b0e4a302", 541),
    ("ricc", "hand-optimized"): (
        "1d580f56e2bb495c1922f5fef971249d3b8c9301291a1c543129f03d98c08169", 590),
    ("ricc", "serial"): (
        "73c2c08d83c812485ad9514ec1af79ff61a08a91ed1e5b0edb0fd565f6f4b997", 575),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
def test_himeno_heap_order_is_pinned(name, implementation):
    got = fingerprint(PRESETS[name](), implementation)
    assert got == PINNED[(name, implementation)]
