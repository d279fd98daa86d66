//! The DMA engine: simulated asynchronous data transfers between memory nodes.
//!
//! The mem-move operator (in `hetex-core`) asks the [`DmaEngine`] to move a
//! block's bytes from its current memory node to a destination node. The
//! engine looks up the route in the topology, reserves time on every link of
//! the route (so concurrent transfers over the same PCIe link queue behind
//! each other, and a transfer crossing QPI + PCIe is limited by both), and
//! returns a [`TransferTicket`] carrying the simulated completion time. The
//! caller stamps that time into the produced block handle's `ready_at_ns`,
//! which is exactly how the paper's mem-move tells its consumer which transfer
//! to wait for.

use crate::clock::SimTime;
use crate::topology::ServerTopology;
use hetex_common::{MemoryNodeId, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Outcome of scheduling one simulated DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTicket {
    /// When the transfer was issued (input data ready and producer done).
    pub issued_at: SimTime,
    /// When the data is fully resident on the destination node.
    pub completes_at: SimTime,
    /// Whether any data actually moved (false when source == destination and
    /// mem-move only forwarded the handle).
    pub moved: bool,
}

impl TransferTicket {
    /// A ticket for a no-op "transfer" (data already local).
    pub fn already_local(at: SimTime) -> Self {
        Self { issued_at: at, completes_at: at, moved: false }
    }

    /// Transfer latency in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.completes_at.as_nanos() - self.issued_at.as_nanos()
    }
}

/// Statistics accumulated by a DMA engine over a query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Number of transfers that actually moved data.
    pub transfers: u64,
    /// Total bytes moved (weighted bytes, i.e. after scale extrapolation).
    pub bytes_moved: f64,
    /// Number of requests that were satisfied without moving data.
    pub forwarded: u64,
}

/// Simulated DMA engine bound to a server topology.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    topology: Arc<ServerTopology>,
    stats: Arc<Mutex<TransferStats>>,
}

impl DmaEngine {
    /// Create a DMA engine for the given topology.
    pub fn new(topology: Arc<ServerTopology>) -> Self {
        Self { topology, stats: Arc::new(Mutex::new(TransferStats::default())) }
    }

    /// The topology this engine schedules on.
    pub fn topology(&self) -> &Arc<ServerTopology> {
        &self.topology
    }

    /// Schedule moving `bytes` from `from` to `to`, with the source data
    /// becoming available at `ready`. Returns the completion ticket.
    pub fn schedule(
        &self,
        bytes: f64,
        from: MemoryNodeId,
        to: MemoryNodeId,
        ready: SimTime,
    ) -> Result<TransferTicket> {
        if from == to {
            self.stats.lock().forwarded += 1;
            return Ok(TransferTicket::already_local(ready));
        }
        let route = self.topology.route(from, to)?;
        let mut cursor = ready;
        for &link_id in route {
            let link = self.topology.link(link_id)?;
            let duration = link.transfer_ns(bytes);
            let clock = self.topology.link_clock(link_id)?;
            let (_, end) = clock.reserve(cursor, duration);
            cursor = end;
        }
        let mut stats = self.stats.lock();
        stats.transfers += 1;
        stats.bytes_moved += bytes;
        Ok(TransferTicket { issued_at: ready, completes_at: cursor, moved: true })
    }

    /// Schedule a broadcast of the same `bytes` from `from` to every node in
    /// `targets`. Returns one ticket per target, in the same order. This is
    /// the multicast primitive §3.2 assigns to mem-move.
    pub fn schedule_broadcast(
        &self,
        bytes: f64,
        from: MemoryNodeId,
        targets: &[MemoryNodeId],
        ready: SimTime,
    ) -> Result<Vec<TransferTicket>> {
        targets.iter().map(|&t| self.schedule(bytes, from, t, ready)).collect()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TransferStats {
        *self.stats.lock()
    }

    /// Reset statistics (the link clocks are reset via the topology).
    pub fn reset_stats(&self) {
        *self.stats.lock() = TransferStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ServerTopology;

    fn engine() -> DmaEngine {
        DmaEngine::new(ServerTopology::paper_server())
    }

    #[test]
    fn local_requests_are_forwarded_without_cost() {
        let e = engine();
        let t = e.schedule(1e9, MemoryNodeId::new(0), MemoryNodeId::new(0), SimTime(5)).unwrap();
        assert!(!t.moved);
        assert_eq!(t.completes_at, SimTime(5));
        assert_eq!(e.stats().forwarded, 1);
        assert_eq!(e.stats().transfers, 0);
    }

    #[test]
    fn pcie_transfer_takes_bytes_over_bandwidth() {
        let e = engine();
        // 1.2 GB over a 12 GB/s link ≈ 100 ms.
        let t =
            e.schedule(1.2e9, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        assert!(t.moved);
        let ms = t.duration_ns() as f64 / 1e6;
        assert!(ms > 95.0 && ms < 110.0, "duration {ms} ms");
    }

    #[test]
    fn concurrent_transfers_on_one_link_serialize() {
        let e = engine();
        let a =
            e.schedule(1.2e9, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        let b =
            e.schedule(1.2e9, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        // The second transfer queues behind the first on the same PCIe link.
        assert!(b.completes_at > a.completes_at);
        assert!(b.completes_at.as_nanos() >= 2 * a.duration_ns());
    }

    #[test]
    fn transfers_on_different_links_overlap() {
        let e = engine();
        let a =
            e.schedule(1.2e9, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        // Socket 1 DRAM to GPU 1 uses the other PCIe link.
        let b =
            e.schedule(1.2e9, MemoryNodeId::new(1), MemoryNodeId::new(3), SimTime::ZERO).unwrap();
        let diff = a.completes_at.as_nanos().abs_diff(b.completes_at.as_nanos());
        assert!(diff < a.duration_ns() / 10, "links should not contend");
    }

    #[test]
    fn cross_socket_transfer_is_slower_than_local() {
        let e = engine();
        let local =
            e.schedule(1e9, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        e.topology().reset_clocks();
        let remote =
            e.schedule(1e9, MemoryNodeId::new(1), MemoryNodeId::new(2), SimTime::ZERO).unwrap();
        assert!(remote.duration_ns() > local.duration_ns());
    }

    #[test]
    fn broadcast_produces_one_ticket_per_target() {
        let e = engine();
        let targets = [MemoryNodeId::new(2), MemoryNodeId::new(3)];
        let tickets =
            e.schedule_broadcast(5e8, MemoryNodeId::new(0), &targets, SimTime::ZERO).unwrap();
        assert_eq!(tickets.len(), 2);
        assert!(tickets.iter().all(|t| t.moved));
        assert_eq!(e.stats().transfers, 2);
        assert!((e.stats().bytes_moved - 1e9).abs() < 1.0);
    }

    #[test]
    fn ready_time_delays_transfer_start() {
        let e = engine();
        let t = e
            .schedule(1e6, MemoryNodeId::new(0), MemoryNodeId::new(2), SimTime::from_millis(50))
            .unwrap();
        assert!(t.completes_at >= SimTime::from_millis(50));
        assert_eq!(t.issued_at, SimTime::from_millis(50));
    }
}
