//! Benchmark-only names for the topology's derived link constants.
//!
//! A [`ServerTopology`] derives its control-plane round trip and each
//! link's effective rate once, from the declared
//! [`LinkSpec`](crate::LinkSpec)s, when it is built
//! ([`ServerTopology::control_plane_ns`], [`ServerTopology::effective_gbps`]).
//! Nothing is measured. [`probe`] and [`CalibratedConstants`] only keep the
//! names the benchmark calls until it moves off them (ROADMAP item 1(a)).

use crate::topology::ServerTopology;

/// What the benchmark's names hand around: the topology itself, which
/// carries its derived constants.
pub type CalibratedConstants = ServerTopology;

/// The topology's derived constants: a copy of `topology` (sharing its
/// clocks, reserving nothing on them).
pub fn probe(topology: &ServerTopology) -> CalibratedConstants {
    topology.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;
    use crate::interconnect::LinkKind;
    use crate::topology::TopologyBuilder;
    use hetex_common::MemoryNodeId;

    #[test]
    fn paper_server_probe_measures_all_links_and_the_interconnect() {
        let topology = ServerTopology::paper_server();
        let constants = probe(&topology);
        for link in topology.links() {
            // The effective rate sits just below the declared width (the
            // fixed latency is real) but within 1% at 256 MiB.
            let rate = constants.effective_gbps(link.id);
            assert!(
                rate < link.bandwidth_gbps && rate > link.bandwidth_gbps * 0.99,
                "{link:?}: effective {rate}"
            );
        }
        // Two traversals of a ~500 ns QPI link.
        assert_eq!(constants.control_plane_ns(), topology.control_plane_ns());
        assert!((1_000..2_500).contains(&constants.control_plane_ns()));
    }

    #[test]
    fn single_socket_topologies_measure_zero_control_plane() {
        let mut b = TopologyBuilder::new();
        b.add_socket(4).add_gpu(0);
        let constants = probe(&b.build().unwrap());
        assert_eq!(constants.control_plane_ns(), 0);
        assert_eq!(constants.links().len(), 1);
    }

    #[test]
    fn probing_leaves_the_topology_clocks_untouched() {
        let topology = ServerTopology::paper_server();
        let _ = probe(&topology);
        for link in topology.links() {
            assert_eq!(topology.link_clock(link.id).unwrap().now(), SimTime::ZERO);
        }
        assert_eq!(topology.memory_clock(MemoryNodeId::new(0)).unwrap().now(), SimTime::ZERO);
    }

    #[test]
    fn measured_transfer_amortizes_latency_into_the_rate() {
        let topology = probe(&ServerTopology::paper_server());
        let pcie = topology
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::Pcie3x16)
            .expect("paper server has PCIe links");
        // At 256 MiB, the estimate and the declared time agree within a
        // percent…
        let bytes = 256.0 * 1024.0 * 1024.0;
        let declared = pcie.transfer_ns(bytes);
        let estimate = topology.transfer_estimate_ns(pcie.id, bytes);
        assert!(estimate.abs_diff(declared) < declared / 100, "{estimate} vs {declared}");
        // …while a small transfer pays no per-transfer setup: the rate
        // already amortizes it.
        assert!(topology.transfer_estimate_ns(pcie.id, 4096.0) < pcie.transfer_ns(4096.0));
        // A custom PCIe width sets the rate.
        let mut b = TopologyBuilder::new();
        b.add_socket(2).add_gpu(0).pcie_bandwidth_gbps(6.0);
        let narrow = probe(&b.build().unwrap()).effective_gbps(crate::LinkId::new(0));
        assert!(narrow < 6.0 && narrow > 5.9, "{narrow}");
    }
}
