"""Himeno benchmark tests: references, decomposition, all implementations."""

import numpy as np
import pytest

from repro.apps.himeno import (
    HimenoConfig,
    Partition,
    distributed_reference,
    init_pressure,
    jacobi_rows,
    run_himeno,
    run_reference,
)
from repro.errors import ConfigurationError

CFG = HimenoConfig(size="XS", iterations=3)


class TestConfig:
    def test_m_size_is_paper_grid(self):
        assert HimenoConfig(size="M").grid == (128, 128, 256)

    def test_flop_count(self):
        cfg = HimenoConfig(size="XXS", iterations=2)
        mi, mj, mk = cfg.grid
        assert cfg.total_flops == 34 * (mi - 2) * (mj - 2) * (mk - 2) * 2

    def test_unknown_size_rejected(self):
        with pytest.raises(ConfigurationError):
            HimenoConfig(size="XXL")

    def test_explicit_dims(self):
        cfg = HimenoConfig(dims=(8, 8, 8), iterations=1)
        assert cfg.grid == (8, 8, 8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HimenoConfig(dims=(2, 8, 8))
        with pytest.raises(ConfigurationError):
            HimenoConfig(iterations=0)
        with pytest.raises(ConfigurationError):
            HimenoConfig(omega=0.0)


class TestPartition:
    def test_rows_sum_to_interior(self):
        part = Partition(3, 32, 8, 8)
        assert sum(part.local_rows(r) for r in range(3)) == 30

    def test_uneven_split_front_loaded(self):
        part = Partition(4, 16, 8, 8)  # 14 interior rows over 4
        assert [part.local_rows(r) for r in range(4)] == [4, 4, 3, 3]

    def test_row_start_contiguous(self):
        part = Partition(3, 32, 8, 8)
        starts = [part.row_start(r) for r in range(3)]
        for r in range(2):
            assert starts[r + 1] == starts[r] + part.local_rows(r)

    def test_ab_split_covers_interior(self):
        part = Partition(2, 20, 8, 8)
        (a_lo, a_hi, _), (b_lo, b_hi, _) = part.schedule(0)
        assert a_lo == 1 and a_hi == b_lo
        assert b_hi == part.local_rows(0) + 1

    def test_neighbors(self):
        """Even ranks exchange with the upper neighbour first, odd ranks
        with the lower one; a boundary phase has no partner."""
        part = Partition(3, 32, 8, 8)
        assert [tuple(ph.partner for ph in part.phases(r))
                for r in range(3)] == [(1, None), (0, 2), (None, 1)]

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition(16, 16, 8, 8)

    @pytest.mark.parametrize("P", [1, 2, 3, 4, 5])
    def test_phases_pair_up_across_neighbours(self, P):
        """Each exchange meets its partner in the same phase, with the
        tags mirrored and each side's boundary row filling the other's
        ghost row; both portions are computed once per iteration."""
        part = Partition(P, 4 * P + 3, 8, 8)
        for r in range(P):
            phases = part.phases(r)
            assert sorted(p.label for p in phases) == ["jacobi_A",
                                                       "jacobi_B"]
            (lo1, hi1), (lo2, hi2) = sorted((p.lo, p.hi) for p in phases)
            assert (lo1, hi1, hi2) == (1, lo2, part.local_rows(r) + 1)
            for k, ph in enumerate(phases):
                if ph.partner is None:
                    continue
                other = part.phases(ph.partner)[k]
                assert other.partner == r
                assert (other.send_tag, other.recv_tag) == (ph.recv_tag,
                                                            ph.send_tag)
                assert {ph.own_row, ph.ghost_row} <= {
                    0, 1, part.local_rows(r), part.local_rows(r) + 1}

    @pytest.mark.parametrize("P", list(range(1, 10)) + [1024])
    def test_schedule_takes_a_rank_array(self, P):
        """The schedule of an array of ranks is each rank's schedule."""
        # an uneven split, so A and B row counts differ across ranks
        part = Partition(P, 2 * P + 2 + P // 2 + 1, 4, 4)
        lanes = part.schedule(np.arange(P))
        for r in range(P):
            assert part.schedule(r) == tuple(
                tuple(int(x[r]) for x in phase) for phase in lanes)


class TestReferences:
    def test_init_profile_is_global(self):
        whole = init_pressure(16, 4, 4)
        slab = init_pressure(6, 4, 4, i_offset=5, mi_global=16)
        assert np.array_equal(whole[5:11], slab)

    def test_jacobi_reduces_residual(self):
        _, gosas = run_reference(16, 16, 32, 5)
        assert gosas == sorted(gosas, reverse=True)
        assert gosas[-1] > 0

    def test_jacobi_rows_bounds_checked(self):
        P = init_pressure(8, 8, 8)
        with pytest.raises(ValueError):
            jacobi_rows(P, 0, 4)
        with pytest.raises(ValueError):
            jacobi_rows(P, 1, 8)

    def test_jacobi_rows_empty_range(self):
        P = init_pressure(8, 8, 8)
        before = P.copy()
        assert jacobi_rows(P, 3, 3) == 0.0
        assert np.array_equal(P, before)

    def test_boundary_planes_never_touched(self):
        P = init_pressure(8, 8, 8)
        jacobi_rows(P, 1, 7)
        fresh = init_pressure(8, 8, 8)
        assert np.array_equal(P[0], fresh[0])
        assert np.array_equal(P[-1], fresh[-1])
        assert np.array_equal(P[:, 0, :], fresh[:, 0, :])
        assert np.array_equal(P[:, :, -1], fresh[:, :, -1])

    def test_distributed_reference_single_rank_matches_halved_sweep(self):
        """With one rank the distributed dataflow is just A then B."""
        mi, mj, mk = 10, 8, 8
        locals_, gosas = distributed_reference(1, mi, mj, mk, 3)
        P = init_pressure(mi, mj, mk)
        total = []
        li = mi - 2
        for _ in range(3):
            g = jacobi_rows(P, 1, li // 2 + 1)
            g += jacobi_rows(P, li // 2 + 1, li + 1)
            total.append(float(g))
        assert np.array_equal(locals_[0], P)
        assert total == pytest.approx(gosas)

    def test_distributed_converges_to_same_field_as_textbook(self):
        """The A/B-overlapped scheme converges to the same solution."""
        mi, mj, mk, iters = 12, 8, 16, 300
        ref, _ = run_reference(mi, mj, mk, iters)
        dist, _ = distributed_reference(2, mi, mj, mk, iters)
        stacked = np.concatenate(
            [dist[0][1:-1], dist[1][1:-1]], axis=0)
        assert np.allclose(stacked, ref[1:-1], atol=1e-5)


class TestImplementations:
    @pytest.mark.parametrize("impl", ["serial", "hand-optimized", "clmpi"])
    @pytest.mark.parametrize("nodes", [1, 2, 3, 4])
    def test_bitwise_vs_dataflow_reference(self, impl, nodes,
                                           cichlid_preset):
        res = run_himeno(cichlid_preset, nodes, impl, CFG,
                         functional=True, collect=True)
        ref_locals, ref_gosas = distributed_reference(
            nodes, *CFG.grid, CFG.iterations)
        for r in range(nodes):
            assert np.array_equal(res.p_locals[r], ref_locals[r]), \
                f"{impl} rank {r}"
        assert res.gosa_per_iter == pytest.approx(ref_gosas, rel=1e-12)

    def test_all_impls_identical_numerics(self, ricc_preset):
        outs = {}
        for impl in ("serial", "hand-optimized", "clmpi"):
            r = run_himeno(ricc_preset, 2, impl, CFG, functional=True,
                           collect=True)
            outs[impl] = r
        a, b, c = outs.values()
        for r in range(2):
            assert np.array_equal(a.p_locals[r], b.p_locals[r])
            assert np.array_equal(b.p_locals[r], c.p_locals[r])

    def test_unknown_impl_rejected(self, cichlid_preset):
        with pytest.raises(ConfigurationError):
            run_himeno(cichlid_preset, 2, "magic", CFG)

    def test_gflops_positive_and_time_consistent(self, cichlid_preset):
        r = run_himeno(cichlid_preset, 2, "clmpi", CFG, functional=True)
        assert r.gflops > 0
        assert r.gflops == pytest.approx(CFG.total_flops / r.time / 1e9)

    def test_timing_only_clock_matches_functional(self, cichlid_preset):
        t_f = run_himeno(cichlid_preset, 2, "clmpi", CFG,
                         functional=True).time
        t_t = run_himeno(cichlid_preset, 2, "clmpi", CFG,
                         functional=False).time
        assert t_f == pytest.approx(t_t, rel=1e-12)

    def test_overlap_beats_serial_when_comm_matters(self, cichlid_preset):
        cfg = HimenoConfig(size="S", iterations=3)
        t_serial = run_himeno(cichlid_preset, 4, "serial", cfg,
                              functional=False).time
        t_hand = run_himeno(cichlid_preset, 4, "hand-optimized", cfg,
                            functional=False).time
        t_clmpi = run_himeno(cichlid_preset, 4, "clmpi", cfg,
                             functional=False).time
        assert t_hand < t_serial
        assert t_clmpi < t_serial

    def test_kernel_time_tracked(self, cichlid_preset):
        r = run_himeno(cichlid_preset, 2, "serial", CFG, functional=False)
        assert all(kt > 0 for kt in r.kernel_times)
        assert max(r.kernel_times) < r.time
