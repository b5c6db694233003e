"""Unit tests of Node/Cluster assembly and the Table I system presets."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.systems import custom, get_system
from repro.systems.presets import TransferPolicy


class TestClusterAssembly:
    def test_node_count_default_is_max(self, env, cichlid_preset):
        c = Cluster(env, cichlid_preset.cluster)
        assert len(c) == 4

    def test_explicit_node_count(self, env, ricc_preset):
        c = Cluster(env, ricc_preset.cluster, num_nodes=8)
        assert len(c) == 8

    def test_over_max_rejected(self, env, cichlid_preset):
        with pytest.raises(ConfigurationError):
            Cluster(env, cichlid_preset.cluster, num_nodes=5)

    def test_zero_nodes_rejected(self, env, cichlid_preset):
        with pytest.raises(ConfigurationError):
            Cluster(env, cichlid_preset.cluster, num_nodes=0)

    def test_nodes_have_distinct_hardware(self, env, cichlid_preset):
        c = Cluster(env, cichlid_preset.cluster, num_nodes=2)
        assert c[0].gpu is not c[1].gpu
        assert c[0].nic is not c[1].nic
        assert c[0].nic is c.fabric.nics[0]

    def test_indexing(self, env, cichlid_preset):
        c = Cluster(env, cichlid_preset.cluster, num_nodes=3)
        assert c[2].node_id == 2


class TestPresets:
    def test_cichlid_matches_table1(self, cichlid_preset):
        spec = cichlid_preset.cluster
        assert spec.name == "Cichlid"
        assert spec.max_nodes == 4
        assert "C2070" in spec.node.gpu.name
        assert spec.node.gpu.copy_engines == 2
        assert "Gigabit" in spec.fabric.nic.name

    def test_ricc_matches_table1(self, ricc_preset):
        spec = ricc_preset.cluster
        assert spec.name == "RICC"
        assert spec.max_nodes == 100
        assert "C1060" in spec.node.gpu.name
        assert spec.node.gpu.copy_engines == 1
        assert "InfiniBand" in spec.fabric.nic.name

    def test_policies_match_paper_sv_b(self, cichlid_preset, ricc_preset):
        """§V.B: 'the mapped and pinned data transfers are used for
        Cichlid and RICC, respectively'."""
        assert cichlid_preset.policy.small_mode == "mapped"
        assert ricc_preset.policy.small_mode == "pinned"

    def test_ricc_mapped_pcie_is_poor(self, ricc_preset):
        """Fig 8(b)'s driver: mapped PCIe on the C1060 is below the IB
        network rate."""
        assert (ricc_preset.cluster.node.pcie.mapped_bandwidth
                < ricc_preset.cluster.fabric.nic.bandwidth)

    def test_cichlid_mapped_pcie_above_network(self, cichlid_preset):
        assert (cichlid_preset.cluster.node.pcie.mapped_bandwidth
                > cichlid_preset.cluster.fabric.nic.bandwidth)

    def test_get_system(self):
        assert get_system("cichlid").name == "Cichlid"
        assert get_system("RICC").name == "RICC"
        with pytest.raises(ConfigurationError):
            get_system("nonexistent")

    @pytest.mark.parametrize("name", ["cichlid", "ricc"])
    def test_min_nodes_grows_only_a_short_preset(self, name):
        """``min_nodes`` equals the ``max_nodes`` preset where the
        default is short, and leaves the default alone otherwise."""
        default = get_system(name)
        assert get_system(name, min_nodes=2) == default
        grown = get_system(name, min_nodes=2048)
        assert grown == get_system(name, max_nodes=2048)
        assert grown.cluster.max_nodes == 2048

    def test_describe_has_key_fields(self, cichlid_preset):
        d = cichlid_preset.cluster.describe()
        assert d["GPU"] == "NVIDIA Tesla C2070"
        assert d["copy engines"] == 2

    def test_custom_builder(self):
        p = custom("lab", net_bandwidth=1e9, net_latency=5e-6,
                   gpu_gflops=20.0, pinned_bandwidth=8e9,
                   mapped_bandwidth=2e9)
        assert p.name == "lab"
        assert p.cluster.node.gpu.sustained_gflops == 20.0


class TestTransferPolicy:
    def test_small_message_uses_small_mode(self):
        pol = TransferPolicy(small_mode="mapped",
                             pipeline_threshold=1 << 20)
        mode, block = pol.select(1024)
        assert mode == "mapped" and block is None

    def test_large_message_pipelines(self):
        pol = TransferPolicy(pipeline_threshold=1 << 20)
        mode, block = pol.select(16 << 20)
        assert mode == "pipelined" and block >= 1

    def test_block_never_exceeds_message(self):
        pol = TransferPolicy(pipeline_threshold=1,
                             pipeline_block=lambda n: 1 << 30)
        _, block = pol.select(4096)
        assert block == 4096

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferPolicy(small_mode="telepathy")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferPolicy(pipeline_threshold=0)
