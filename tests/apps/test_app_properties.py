"""Property-based tests of the application-layer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.himeno.decomp import Partition
from repro.apps.himeno.twod import Partition2D
from repro.apps.nanopowder import physics as ph
from repro.apps.nanopowder.model import NanoConfig


# ---------------------------------------------------------------------------
# Himeno partitions
# ---------------------------------------------------------------------------
@given(ranks=st.integers(min_value=1, max_value=16),
       mi=st.integers(min_value=8, max_value=200))
@settings(max_examples=60, deadline=None)
def test_partition_rows_cover_exactly(ranks, mi):
    if (mi - 2) // ranks < 2:
        return  # invalid configuration, rejected elsewhere
    part = Partition(ranks, mi, 8, 8)
    total = sum(part.local_rows(r) for r in range(ranks))
    assert total == mi - 2
    # contiguity + monotone starts
    for r in range(ranks - 1):
        assert part.row_start(r + 1) == part.row_start(r) + part.local_rows(r)
    # balance: at most one row difference
    rows = [part.local_rows(r) for r in range(ranks)]
    assert max(rows) - min(rows) <= 1


@given(ranks=st.integers(min_value=1, max_value=12),
       mi=st.integers(min_value=30, max_value=120))
@settings(max_examples=40, deadline=None)
def test_ab_split_partitions_interior(ranks, mi):
    if (mi - 2) // ranks < 2:
        return
    part = Partition(ranks, mi, 8, 8)
    for r in range(ranks):
        (a_lo, a_hi, _), (b_lo, b_hi, _) = sorted(part.schedule(r))
        assert a_lo == 1 and b_hi == part.local_rows(r) + 1
        assert a_hi == b_lo
        assert a_hi - a_lo >= 1 and b_hi - b_lo >= 1


@given(pi=st.integers(min_value=1, max_value=5),
       pj=st.integers(min_value=1, max_value=5),
       mi=st.integers(min_value=12, max_value=64),
       mj=st.integers(min_value=12, max_value=64))
@settings(max_examples=50, deadline=None)
def test_partition2d_tiles_cover_interior(pi, pj, mi, mj):
    if (mi - 2) // pi < 1 or (mj - 2) // pj < 1:
        return
    part = Partition2D(pi, pj, mi, mj, 8)
    covered = np.zeros((mi, mj), dtype=int)
    for rank in range(part.size):
        i0, i1 = part.i_span(rank)
        j0, j1 = part.j_span(rank)
        covered[i0:i1, j0:j1] += 1
    assert np.all(covered[1:-1, 1:-1] == 1)  # exact tiling
    assert covered[0].sum() == 0 and covered[-1].sum() == 0


@given(pi=st.integers(min_value=1, max_value=4),
       pj=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_partition2d_neighbors_symmetric(pi, pj):
    part = Partition2D(pi, pj, 32, 32, 8)
    for rank in range(part.size):
        nbr = part.neighbors(rank)
        if nbr["i_hi"] is not None:
            assert part.neighbors(nbr["i_hi"])["i_lo"] == rank
        if nbr["j_hi"] is not None:
            assert part.neighbors(nbr["j_hi"])["j_lo"] == rank


# ---------------------------------------------------------------------------
# Nanopowder physics
# ---------------------------------------------------------------------------
@given(seed=st.integers(0, 2**16),
       temp=st.floats(min_value=300.0, max_value=3500.0,
                      allow_nan=False),
       substeps=st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_coagulation_mass_invariant(seed, temp, substeps):
    """Mass is conserved by coagulation for any state and temperature."""
    cfg = NanoConfig.test_scale()
    rng = np.random.default_rng(seed)
    n = rng.uniform(0, 1e12, size=(2, cfg.sections)).astype(np.float32)
    coeffs = ph.coagulation_coefficients(cfg, temp)
    m0 = ph.total_mass(cfg, n)
    a0 = ph.species_mass(cfg, n, "A")
    ph.coagulation_substeps(cfg, n, coeffs, substeps=substeps)
    assert abs(ph.total_mass(cfg, n) - m0) <= 1e-5 * max(m0, 1e-300)
    assert abs(ph.species_mass(cfg, n, "A") - a0) <= \
        1e-5 * max(a0, 1e-300)
    assert np.all(n >= 0)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_coagulation_monotone_particle_count(seed):
    """Coagulation can only reduce (or keep) the total particle count."""
    cfg = NanoConfig.test_scale()
    rng = np.random.default_rng(seed)
    n = rng.uniform(0, 1e12, size=(1, cfg.sections)).astype(np.float32)
    count0 = float(n.sum())
    coeffs = ph.coagulation_coefficients(cfg, 1500.0)
    ph.coagulation_substeps(cfg, n, coeffs, substeps=4)
    assert float(n.sum()) <= count0 * (1 + 1e-6)


@given(t=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_temperature_bounded(t):
    cfg = NanoConfig.test_scale()
    temp = ph.temperature(cfg, t)
    assert cfg.t_room <= temp <= cfg.t0_kelvin + 1e-9


@given(temp=st.floats(min_value=300.0, max_value=3500.0,
                      allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_partition_weights_valid(temp):
    """Two-section partition weights stay in [0, 1] for interior pairs."""
    cfg = NanoConfig.test_scale()
    co = ph.coagulation_coefficients(cfg, temp)
    k = co["vidx"].astype(int)
    interior = k < cfg.vol_sections - 1
    w = co["vfrac"][interior]
    assert np.all((0.0 <= w) & (w <= 1.0 + 1e-6))
    assert np.all((0.0 <= co["cfrac"]) & (co["cfrac"] <= 1.0 + 1e-6))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_pack_roundtrip_property(seed):
    cfg = NanoConfig.test_scale()
    rng = np.random.default_rng(seed)
    co = ph.coagulation_coefficients(cfg, float(rng.uniform(400, 3000)))
    back = ph.unpack_coefficients(ph.pack_coefficients(co))
    for key in co:
        assert np.array_equal(back[key], co[key].astype(np.float32))
