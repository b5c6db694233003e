"""The timing rules both engines share, scalar against array.

Each rule is stated once, on the hardware spec that owns its constants,
as plain arithmetic: the coroutine engine calls it with one message's
size and gets a Python float, the mesoscale engine calls it with a
float64 array of sizes.  Both must give the same bits for the same
message, or the engines' rows could not be byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.systems import cichlid, custom, ricc

PRESETS = {
    "cichlid": cichlid(),
    "ricc": ricc(),
    "custom": custom("odd", net_bandwidth=117_187_500, net_latency=3.7e-5,
                     gpu_gflops=33.3, pinned_bandwidth=2.9e9,
                     mapped_bandwidth=7.3e8, copy_engines=1),
}

#: message sizes: empty, tiny, around the eager threshold, odd, large
SIZES = [0, 1, 8, 4095, 65_535, 65_536, 65_537, 1 << 20, 3_333_333,
         64 << 20] + [int(n) for n in
                      np.random.default_rng(2013).integers(0, 1 << 27, 40)]


def _rules(preset):
    """``name -> rule(nbytes)`` for every per-message rule."""
    cluster = preset.cluster
    fabric, host, pcie = cluster.fabric, cluster.node.host, cluster.node.pcie
    return {
        "wire": lambda n: fabric.wire_time(n, fabric.nic.bandwidth),
        "wire-capped": lambda n: fabric.wire_time(n, pcie.mapped_bandwidth),
        "loopback": fabric.loopback_time,
        "memcpy": host.memcpy_time,
        "eager-stage": cluster.eager_stage_time,
        "dma": pcie.dma_time,
    }


@pytest.mark.parametrize("rule", ["wire", "wire-capped", "loopback",
                                  "memcpy", "eager-stage", "dma"])
@pytest.mark.parametrize("system", sorted(PRESETS))
def test_array_form_equals_scalar_form_bit_for_bit(system, rule):
    f = _rules(PRESETS[system])[rule]
    scalar = [f(n) for n in SIZES]
    assert all(type(x) is float for x in scalar), \
        "the coroutine engine must get plain floats"
    array = f(np.asarray(SIZES, dtype=np.float64))
    assert array.dtype == np.float64
    assert array.tobytes() == np.asarray(scalar).tobytes()


@pytest.mark.parametrize("system", sorted(PRESETS))
def test_wire_rule_takes_a_per_message_bandwidth(system):
    """The rate-capped wire (a bandwidth per message, as the mesoscale
    engine's ``wire`` passes it) matches the scalar rule lane by lane."""
    fabric = PRESETS[system].cluster.fabric
    bws = np.linspace(1e8, 4e9, len(SIZES))
    array = fabric.wire_time(np.asarray(SIZES, dtype=np.float64), bws)
    scalar = [fabric.wire_time(n, float(bw)) for n, bw in zip(SIZES, bws)]
    assert array.tobytes() == np.asarray(scalar).tobytes()

