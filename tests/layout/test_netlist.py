"""Tests for netlist extraction."""

import networkx as nx
import numpy as np
import pytest

from repro.core.topology import BlockSpec, PTCTopology, random_topology
from repro.layout.netlist import Device, Netlist, _pack_swaps, build_netlist
from repro.photonics.nonideality import NonidealitySpec


def make_topology(seed=0, k=8, nb=3, permute_prob=0.7):
    return random_topology(k, nb, nb, np.random.default_rng(seed),
                           permute_prob=permute_prob)


class TestDevice:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError, match="kind"):
            Device("x", "laser", "U", 0, 0, (0,))

    def test_ps_single_wire(self):
        with pytest.raises(ValueError, match="one wire"):
            Device("x", "ps", "U", 0, 0, (0, 1))

    def test_dc_two_wires(self):
        with pytest.raises(ValueError, match="two wires"):
            Device("x", "dc", "U", 0, 0, (0,))


class TestBuildNetlist:
    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_topology(self, seed):
        topo = make_topology(seed)
        netlist = build_netlist(topo)
        assert netlist.device_counts() == topo.device_counts()

    def test_identity_perm_adds_no_crossings(self):
        block = BlockSpec(coupler_mask=np.array([True] * 4), offset=0,
                          perm=np.arange(8))
        topo = PTCTopology(k=8, blocks_u=[block], blocks_v=[])
        netlist = build_netlist(topo)
        assert netlist.device_counts() == (8, 4, 0)

    def test_device_ids_unique(self):
        netlist = build_netlist(make_topology(1))
        ids = [d.device_id for d in netlist.devices]
        assert len(ids) == len(set(ids))

    def test_columns_homogeneous(self):
        netlist = build_netlist(make_topology(2))
        kinds = netlist.column_kinds()
        assert set(kinds) <= {"ps", "dc", "cr"}

    def test_first_column_is_ps(self):
        netlist = build_netlist(make_topology(3))
        assert netlist.column_kinds()[0] == "ps"

    def test_mesh_labels(self):
        topo = make_topology(4)
        netlist = build_netlist(topo)
        meshes = {d.mesh for d in netlist.devices}
        assert meshes == {"U", "V"}

    def test_u_devices_before_v(self):
        netlist = build_netlist(make_topology(5))
        last_u = max(d.column for d in netlist.devices if d.mesh == "U")
        first_v = min(d.column for d in netlist.devices if d.mesh == "V")
        assert last_u < first_v


class TestPackSwaps:
    def test_empty(self):
        assert _pack_swaps([]) == []

    def test_disjoint_swaps_share_column(self):
        cols = _pack_swaps([(0, 1), (2, 3), (4, 5)])
        assert len(cols) == 1
        assert len(cols[0]) == 3

    def test_conflicting_swaps_serialize(self):
        cols = _pack_swaps([(0, 1), (1, 2)])
        assert len(cols) == 2

    def test_order_preserved_on_shared_wires(self):
        swaps = [(0, 1), (1, 2), (0, 1)]
        cols = _pack_swaps(swaps)
        # Flattened column order must keep the original schedule order
        # for swaps sharing wires.
        flat = [s for col in cols for s in col]
        assert flat.count((0, 1)) == 2
        assert len(cols) == 3


class TestGraph:
    def test_is_dag(self):
        netlist = build_netlist(make_topology(6))
        g = netlist.to_graph()
        assert nx.is_directed_acyclic_graph(g)

    def test_ports_present(self):
        netlist = build_netlist(make_topology(7, k=8))
        g = netlist.to_graph()
        for w in range(8):
            assert f"in:{w}" in g
            assert f"out:{w}" in g

    def test_every_device_reachable(self):
        netlist = build_netlist(make_topology(8))
        g = netlist.to_graph()
        sources = {f"in:{w}" for w in range(netlist.k)}
        reachable = set()
        for s in sources:
            reachable |= nx.descendants(g, s)
        device_ids = {d.device_id for d in netlist.devices}
        assert device_ids <= reachable

    def test_optical_depth_bounds(self):
        topo = make_topology(9)
        netlist = build_netlist(topo)
        depth = netlist.optical_depth()
        assert depth >= topo.n_blocks  # at least one PS column per block
        assert depth <= len(netlist.devices)

    @pytest.mark.parametrize("netlist", [
        *(build_netlist(make_topology(seed)) for seed in range(11)),
        build_netlist(make_topology(3, k=16, nb=5)),
        build_netlist(make_topology(4, permute_prob=0.0)),
        Netlist(k=4),
    ], ids=lambda n: f"k{n.k}-{len(n.devices)}dev")
    def test_optical_depth_is_graph_longest_path(self, netlist):
        g = netlist.to_graph()
        assert netlist.optical_depth() == nx.dag_longest_path_length(g) - 1


class TestPathLoss:
    def test_zero_spec_zero_loss(self):
        netlist = build_netlist(make_topology(10))
        np.testing.assert_array_equal(
            netlist.path_loss_db(NonidealitySpec()), 0.0)

    def test_ps_loss_counts_blocks(self):
        topo = make_topology(11, nb=4, permute_prob=0.0)
        netlist = build_netlist(topo)
        loss = netlist.path_loss_db(NonidealitySpec(loss_ps_db=0.25))
        # Every wire passes one PS per block (8 blocks total).
        np.testing.assert_allclose(loss, 0.25 * topo.n_blocks)

    def test_loss_additive_across_kinds(self):
        netlist = build_netlist(make_topology(12))
        a = netlist.path_loss_db(NonidealitySpec(loss_ps_db=0.1))
        b = netlist.path_loss_db(NonidealitySpec(loss_dc_db=0.2))
        both = netlist.path_loss_db(
            NonidealitySpec(loss_ps_db=0.1, loss_dc_db=0.2))
        np.testing.assert_allclose(both, a + b)


class TestSerialization:
    def test_round_trip(self):
        netlist = build_netlist(make_topology(13))
        again = Netlist.from_json(netlist.to_json())
        assert again.k == netlist.k
        assert again.device_counts() == netlist.device_counts()
        assert [d.device_id for d in again.devices] == [
            d.device_id for d in netlist.devices]

    def test_save_load(self, tmp_path):
        netlist = build_netlist(make_topology(14))
        path = tmp_path / "design.json"
        netlist.save(path)
        assert Netlist.load(path).device_counts() == netlist.device_counts()
