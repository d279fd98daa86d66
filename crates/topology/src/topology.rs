//! The assembled server topology.
//!
//! [`ServerTopology`] ties together memory nodes, devices (CPU cores and GPUs),
//! interconnect links and the routing table between memory nodes, and owns the
//! resource clocks for the shared resources (memory nodes and links). It is
//! built either with [`TopologyBuilder`] or with [`ServerTopology::paper_server`],
//! which reproduces the machine of §6: two 12-core sockets, 128 GB DRAM each,
//! one GTX 1080 per socket on a dedicated PCIe 3.0 x16 link.
//!
//! Building a topology also derives, once, the two link constants routing
//! estimates with (DESIGN.md §6): the cost of a remote queue-mutex
//! acquisition ([`ServerTopology::control_plane_ns`]) and each link's
//! effective rate ([`ServerTopology::effective_gbps`]). Both are pure
//! functions of the declared [`LinkSpec`]s; nothing is measured.

use crate::clock::ResourceClock;
use crate::device::{DeviceId, DeviceKind, DeviceProfile};
use crate::fault::{DeviceFault, FaultPlan};
use crate::interconnect::{LinkId, LinkKind, LinkSpec};
use crate::memory::{MemoryNodeKind, MemoryNodeSpec};
use hetex_common::{HetError, MemoryNodeId, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cache line, what one remote queue-mutex acquisition moves each way.
const CACHE_LINE_BYTES: f64 = 64.0;

/// The transfer size that sets a link's effective rate: large enough that
/// the link's fixed latency is amortized below 0.1%, like the block streams
/// routing prices.
const EFFECTIVE_RATE_BYTES: f64 = 256.0 * 1024.0 * 1024.0;

/// A complete description of a heterogeneous server.
#[derive(Debug, Clone)]
pub struct ServerTopology {
    memory_nodes: Vec<MemoryNodeSpec>,
    devices: Vec<DeviceProfile>,
    links: Vec<LinkSpec>,
    /// Route (ordered list of links) between every ordered pair of distinct
    /// memory nodes that can exchange data.
    routes: HashMap<(MemoryNodeId, MemoryNodeId), Vec<LinkId>>,
    /// Availability clocks of the shared memory-node bandwidth.
    memory_clocks: Vec<ResourceClock>,
    /// Availability clocks of the interconnect links.
    link_clocks: Vec<ResourceClock>,
    sockets: usize,
    /// Scripted fault schedule consulted by the executor, if any.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Devices excluded from placement (lost in an earlier execution
    /// attempt). They keep their [`DeviceId`]s — profiles, local memory and
    /// routes stay addressable — but the placement accessors ([`Self::gpus`],
    /// [`Self::cpu_cores`], [`Self::cpu_cores_interleaved`]) no longer offer
    /// them, so a degraded re-plan lands only on survivors.
    excluded: HashSet<DeviceId>,
    /// See [`Self::control_plane_ns`].
    control_plane_ns: u64,
    /// Effective rate per link, GB/s, indexed by [`LinkId`]; see
    /// [`Self::effective_gbps`].
    link_gbps: Vec<f64>,
}

impl ServerTopology {
    /// The server used in the paper's evaluation (§6): 2 sockets × 12 cores,
    /// 128 GB DRAM per socket, one GTX 1080 (8 GB, 320 GB/s) per socket behind
    /// a dedicated ~12 GB/s PCIe 3.0 x16 link, sockets joined by QPI.
    pub fn paper_server() -> Arc<ServerTopology> {
        Self::custom_server(2, 12, 1)
    }

    /// A parameterized variant of the paper server: `sockets` sockets with
    /// `cores_per_socket` cores each and `gpus_per_socket` GPUs per socket.
    pub fn custom_server(
        sockets: usize,
        cores_per_socket: usize,
        gpus_per_socket: usize,
    ) -> Arc<ServerTopology> {
        let mut b = TopologyBuilder::new();
        for s in 0..sockets {
            b.add_socket(cores_per_socket);
            for _ in 0..gpus_per_socket {
                b.add_gpu(s);
            }
        }
        Arc::new(b.build().expect("paper-style topology is always valid"))
    }

    /// Number of CPU sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// A copy of this topology with `device` marked as a runtime straggler:
    /// work charged to it takes `factor`× its modeled time, while routing-time
    /// cost estimates keep pricing the nominal profile (see
    /// [`DeviceProfile::exec_slowdown`]). The work-stealing benchmarks use
    /// this to build a deliberately skewed server whose imbalance the
    /// feedback router cannot predict — only absorb.
    pub fn with_device_slowdown(&self, device: DeviceId, factor: f64) -> Result<Arc<Self>> {
        let mut topology = self.clone();
        let profile = topology
            .devices
            .get_mut(device.index())
            .ok_or_else(|| HetError::UnknownDevice(format!("{device}")))?;
        profile.exec_slowdown = factor.max(f64::MIN_POSITIVE);
        Ok(Arc::new(topology))
    }

    /// A copy of this topology carrying a scripted [`FaultPlan`]. Like
    /// [`Self::with_device_slowdown`], the plan is attached at construction
    /// and consulted against sim clocks at run time, so the injected schedule
    /// is perfectly reproducible. Devices and memory nodes named by the plan
    /// must exist, and a transient window's probability must lie in `[0, 1]`.
    pub fn with_fault_plan(&self, plan: FaultPlan) -> Result<Arc<Self>> {
        for (device, fault) in plan.device_faults() {
            self.device(*device)?;
            if let DeviceFault::TransientWindow { probability, .. } = fault {
                if !(0.0..=1.0).contains(probability) {
                    return Err(HetError::Config(format!(
                        "transient window on {device} has probability {probability}, \
                         outside [0, 1]"
                    )));
                }
            }
        }
        for burst in plan.arena_bursts() {
            self.memory_node(burst.node)?;
        }
        let mut topology = self.clone();
        topology.fault_plan = Some(Arc::new(plan));
        Ok(Arc::new(topology))
    }

    /// The scripted fault plan, if one is attached.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// A copy of this topology with `device` excluded from placement: its id,
    /// profile and routes stay addressable (in-flight bookkeeping keeps
    /// working), but [`Self::gpus`], [`Self::cpu_cores`] and
    /// [`Self::cpu_cores_interleaved`] stop offering it, so a re-plan lands
    /// only on surviving devices. Used by the engine's degraded restart after
    /// a [`hetex_common::HetError::DeviceLost`].
    pub fn with_device_excluded(&self, device: DeviceId) -> Result<Arc<Self>> {
        self.device(device)?;
        let mut topology = self.clone();
        topology.excluded.insert(device);
        Ok(Arc::new(topology))
    }

    /// A copy of this topology with fresh, zeroed, *private* memory-node and
    /// link clocks. Plain clones share clock state (a [`ResourceClock`] clone
    /// aliases its inner counter), so two executions simulating over the same
    /// topology copy would corrupt each other's time accounting. Concurrent
    /// query execution hands every query its own copy instead; a fresh clock
    /// is indistinguishable from a [`Self::reset_clocks`] one, so a single
    /// query behaves bit-identically on either.
    pub fn with_private_clocks(&self) -> Arc<Self> {
        let mut topology = self.clone();
        topology.memory_clocks = topology
            .memory_nodes
            .iter()
            .map(|m| ResourceClock::new(format!("mem:{}", m.id)))
            .collect();
        topology.link_clocks = topology
            .links
            .iter()
            .map(|l| ResourceClock::new(format!("link:{}-{}", l.from, l.to)))
            .collect();
        Arc::new(topology)
    }

    /// True when `device` has been excluded from placement.
    pub fn is_excluded(&self, device: DeviceId) -> bool {
        self.excluded.contains(&device)
    }

    /// Devices currently excluded from placement, in id order.
    pub fn excluded_devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self.excluded.iter().copied().collect();
        out.sort();
        out
    }

    /// All memory nodes.
    pub fn memory_nodes(&self) -> &[MemoryNodeSpec] {
        &self.memory_nodes
    }

    /// Memory node by id.
    pub fn memory_node(&self, id: MemoryNodeId) -> Result<&MemoryNodeSpec> {
        self.memory_nodes
            .get(id.index())
            .ok_or_else(|| HetError::UnknownDevice(format!("memory node {id}")))
    }

    /// All devices; a [`DeviceId`] indexes into this slice.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// Device profile by id.
    pub fn device(&self, id: DeviceId) -> Result<&DeviceProfile> {
        self.devices.get(id.index()).ok_or_else(|| HetError::UnknownDevice(format!("{id}")))
    }

    /// All CPU core device ids, in socket-interleaved order (core 0 of socket
    /// 0, core 0 of socket 1, core 1 of socket 0, …) — the order the paper
    /// uses when sweeping the number of cores in §6.3.
    pub fn cpu_cores_interleaved(&self) -> Vec<DeviceId> {
        let mut per_socket: Vec<Vec<DeviceId>> = vec![Vec::new(); self.sockets.max(1)];
        for (idx, dev) in self.devices.iter().enumerate() {
            if dev.kind == DeviceKind::CpuCore && !self.excluded.contains(&DeviceId::new(idx)) {
                per_socket[dev.socket].push(DeviceId::new(idx));
            }
        }
        let mut out = Vec::new();
        let max_len = per_socket.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..max_len {
            for socket in &per_socket {
                if let Some(id) = socket.get(i) {
                    out.push(*id);
                }
            }
        }
        out
    }

    /// All placeable GPU device ids (excluded devices omitted).
    pub fn gpus(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                d.kind == DeviceKind::Gpu && !self.excluded.contains(&DeviceId::new(*i))
            })
            .map(|(i, _)| DeviceId::new(i))
            .collect()
    }

    /// All placeable CPU core device ids in declaration order (excluded
    /// devices omitted).
    pub fn cpu_cores(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                d.kind == DeviceKind::CpuCore && !self.excluded.contains(&DeviceId::new(*i))
            })
            .map(|(i, _)| DeviceId::new(i))
            .collect()
    }

    /// Memory nodes backed by CPU DRAM.
    pub fn cpu_memory_nodes(&self) -> Vec<MemoryNodeId> {
        self.memory_nodes
            .iter()
            .filter(|m| m.kind == MemoryNodeKind::CpuDram)
            .map(|m| m.id)
            .collect()
    }

    /// Memory nodes backed by GPU device memory.
    pub fn gpu_memory_nodes(&self) -> Vec<MemoryNodeId> {
        self.memory_nodes
            .iter()
            .filter(|m| m.kind == MemoryNodeKind::GpuDevice)
            .map(|m| m.id)
            .collect()
    }

    /// The memory node local to a device.
    pub fn local_memory_of(&self, device: DeviceId) -> Result<MemoryNodeId> {
        Ok(self.device(device)?.local_memory)
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> Result<&LinkSpec> {
        self.links.get(id.index()).ok_or_else(|| HetError::UnknownDevice(format!("{id}")))
    }

    /// The route between two distinct memory nodes, as an ordered list of
    /// links. Same-node "routes" are empty.
    pub fn route(&self, from: MemoryNodeId, to: MemoryNodeId) -> Result<&[LinkId]> {
        if from == to {
            return Ok(&[]);
        }
        self.routes
            .get(&(from, to))
            .map(Vec::as_slice)
            .ok_or_else(|| HetError::Transfer(format!("no route from {from} to {to}")))
    }

    /// Cost of one remote queue-mutex acquisition, nanoseconds: the queue's
    /// cache line crosses the slowest inter-socket link and comes back, two
    /// [`LinkSpec::transfer_ns`] of 64 B. Zero on one socket, where no
    /// interconnect lies between a producer and a queue.
    pub fn control_plane_ns(&self) -> u64 {
        self.control_plane_ns
    }

    /// Effective rate of `link`, GB/s: 256 MiB over the link's declared
    /// time for them, which folds its fixed latency into the rate (~11.99
    /// GB/s on a 12 GB/s PCIe link).
    pub fn effective_gbps(&self, link: LinkId) -> f64 {
        self.link_gbps[link.index()]
    }

    /// Estimated time to stream `bytes` over `link` at its effective rate,
    /// with no separate latency term: the rate already amortizes it. Routing
    /// estimates with this; the DMA engine charges
    /// [`LinkSpec::transfer_ns`].
    pub fn transfer_estimate_ns(&self, link: LinkId, bytes: f64) -> u64 {
        (bytes / (self.link_gbps[link.index()] * 1e9) * 1e9) as u64
    }

    /// Resource clock of a memory node's shared bandwidth.
    pub fn memory_clock(&self, id: MemoryNodeId) -> Result<&ResourceClock> {
        self.memory_clocks
            .get(id.index())
            .ok_or_else(|| HetError::UnknownDevice(format!("memory node {id}")))
    }

    /// Resource clock of an interconnect link.
    pub fn link_clock(&self, id: LinkId) -> Result<&ResourceClock> {
        self.link_clocks.get(id.index()).ok_or_else(|| HetError::UnknownDevice(format!("{id}")))
    }

    /// Reset all shared resource clocks to zero (between benchmark runs).
    pub fn reset_clocks(&self) {
        for c in &self.memory_clocks {
            c.reset();
        }
        for c in &self.link_clocks {
            c.reset();
        }
    }
}

/// Builder for [`ServerTopology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    sockets: Vec<usize>,
    gpus: Vec<usize>,
    custom_pcie_bandwidth: Option<f64>,
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one CPU socket with the given number of cores (and its DRAM node).
    pub fn add_socket(&mut self, cores: usize) -> &mut Self {
        self.sockets.push(cores);
        self
    }

    /// Add one GPU attached to `socket` (with its device-memory node and a
    /// dedicated PCIe link).
    pub fn add_gpu(&mut self, socket: usize) -> &mut Self {
        self.gpus.push(socket);
        self
    }

    /// Override the PCIe link bandwidth for what-if topologies.
    pub fn pcie_bandwidth_gbps(&mut self, gbps: f64) -> &mut Self {
        self.custom_pcie_bandwidth = Some(gbps);
        self
    }

    /// Assemble the topology.
    pub fn build(&self) -> Result<ServerTopology> {
        if self.sockets.is_empty() {
            return Err(HetError::Config("topology needs at least one socket".into()));
        }
        for &s in &self.gpus {
            if s >= self.sockets.len() {
                return Err(HetError::Config(format!(
                    "GPU attached to socket {s}, but only {} sockets exist",
                    self.sockets.len()
                )));
            }
        }

        let n_sockets = self.sockets.len();
        let mut memory_nodes = Vec::new();
        let mut devices = Vec::new();
        let mut links = Vec::new();

        // DRAM node per socket, then CPU core devices.
        for (socket, &cores) in self.sockets.iter().enumerate() {
            let mem_id = MemoryNodeId::new(memory_nodes.len());
            memory_nodes.push(MemoryNodeSpec::paper_cpu_dram(mem_id, socket));
            for _ in 0..cores {
                devices.push(DeviceProfile::paper_cpu_core(socket, mem_id));
            }
        }

        // Inter-socket links (a clique; the paper server has just one pair).
        let mut socket_link: HashMap<(usize, usize), LinkId> = HashMap::new();
        for a in 0..n_sockets {
            for b in (a + 1)..n_sockets {
                let id = LinkId::new(links.len());
                links.push(LinkSpec::new(
                    id,
                    LinkKind::InterSocket,
                    format!("socket{a}"),
                    format!("socket{b}"),
                ));
                socket_link.insert((a, b), id);
                socket_link.insert((b, a), id);
            }
        }

        // GPUs: device memory node + PCIe link to the owning socket.
        let mut gpu_info: Vec<(MemoryNodeId, usize, LinkId)> = Vec::new();
        for (gpu_idx, &socket) in self.gpus.iter().enumerate() {
            let mem_id = MemoryNodeId::new(memory_nodes.len());
            memory_nodes.push(MemoryNodeSpec::paper_gpu_device(mem_id, socket));
            devices.push(DeviceProfile::paper_gpu(socket, mem_id));
            let link_id = LinkId::new(links.len());
            let mut link = LinkSpec::new(
                link_id,
                LinkKind::Pcie3x16,
                format!("socket{socket}"),
                format!("gpu{gpu_idx}"),
            );
            if let Some(bw) = self.custom_pcie_bandwidth {
                link = link.with_bandwidth(bw);
            }
            links.push(link);
            gpu_info.push((mem_id, socket, link_id));
        }

        // Routing table between memory nodes.
        let mut routes = HashMap::new();
        let socket_mem = |s: usize| MemoryNodeId::new(s);
        // DRAM <-> DRAM via the inter-socket link.
        for a in 0..n_sockets {
            for b in 0..n_sockets {
                if a != b {
                    let link = socket_link[&(a, b)];
                    routes.insert((socket_mem(a), socket_mem(b)), vec![link]);
                }
            }
        }
        // DRAM <-> GPU memory.
        for &(gpu_mem, gpu_socket, pcie) in &gpu_info {
            for s in 0..n_sockets {
                let mut path = Vec::new();
                if s != gpu_socket {
                    path.push(socket_link[&(s, gpu_socket)]);
                }
                path.push(pcie);
                routes.insert((socket_mem(s), gpu_mem), path.clone());
                let mut back = path;
                back.reverse();
                routes.insert((gpu_mem, socket_mem(s)), back);
            }
        }
        // GPU memory <-> GPU memory (through both PCIe links and, if needed,
        // the inter-socket link; the paper's server has no NVLink).
        for &(mem_a, sock_a, pcie_a) in &gpu_info {
            for &(mem_b, sock_b, pcie_b) in &gpu_info {
                if mem_a == mem_b {
                    continue;
                }
                let mut path = vec![pcie_a];
                if sock_a != sock_b {
                    path.push(socket_link[&(sock_a, sock_b)]);
                }
                path.push(pcie_b);
                routes.insert((mem_a, mem_b), path);
            }
        }

        let control_plane_ns = links
            .iter()
            .filter(|l| l.kind == LinkKind::InterSocket)
            .map(|l| 2 * l.transfer_ns(CACHE_LINE_BYTES))
            .max()
            .unwrap_or(0);
        let link_gbps = links
            .iter()
            .map(|l| EFFECTIVE_RATE_BYTES / l.transfer_ns(EFFECTIVE_RATE_BYTES).max(1) as f64)
            .collect();
        let memory_clocks =
            memory_nodes.iter().map(|m| ResourceClock::new(format!("mem:{}", m.id))).collect();
        let link_clocks =
            links.iter().map(|l| ResourceClock::new(format!("link:{}-{}", l.from, l.to))).collect();

        Ok(ServerTopology {
            memory_nodes,
            devices,
            links,
            routes,
            memory_clocks,
            link_clocks,
            sockets: n_sockets,
            fault_plan: None,
            excluded: HashSet::new(),
            control_plane_ns,
            link_gbps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_server_shape() {
        let t = ServerTopology::paper_server();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.cpu_cores().len(), 24);
        assert_eq!(t.gpus().len(), 2);
        assert_eq!(t.memory_nodes().len(), 4);
        assert_eq!(t.cpu_memory_nodes().len(), 2);
        assert_eq!(t.gpu_memory_nodes().len(), 2);
        // 1 QPI + 2 PCIe links.
        assert_eq!(t.links().len(), 3);
    }

    #[test]
    fn interleaved_cores_alternate_sockets() {
        let t = ServerTopology::paper_server();
        let cores = t.cpu_cores_interleaved();
        assert_eq!(cores.len(), 24);
        let s0 = t.device(cores[0]).unwrap().socket;
        let s1 = t.device(cores[1]).unwrap().socket;
        assert_ne!(s0, s1);
    }

    #[test]
    fn routes_cover_all_memory_pairs() {
        let t = ServerTopology::paper_server();
        let nodes: Vec<_> = t.memory_nodes().iter().map(|m| m.id).collect();
        for &a in &nodes {
            for &b in &nodes {
                let route = t.route(a, b).unwrap();
                if a == b {
                    assert!(route.is_empty());
                } else {
                    assert!(!route.is_empty(), "missing route {a} -> {b}");
                    for &link in route {
                        t.link(link).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn cross_socket_gpu_route_uses_two_hops() {
        let t = ServerTopology::paper_server();
        // Socket 0 DRAM (mem0) to the GPU on socket 1 (mem3).
        let route = t.route(MemoryNodeId::new(0), MemoryNodeId::new(3)).unwrap();
        assert_eq!(route.len(), 2);
        // Local GPU is a single hop.
        let local = t.route(MemoryNodeId::new(0), MemoryNodeId::new(2)).unwrap();
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn gpu_local_memory_is_device_memory() {
        let t = ServerTopology::paper_server();
        for gpu in t.gpus() {
            let mem = t.local_memory_of(gpu).unwrap();
            assert!(t.memory_node(mem).unwrap().is_gpu_memory());
        }
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(TopologyBuilder::new().build().is_err());
        let mut b = TopologyBuilder::new();
        b.add_socket(4).add_gpu(3);
        assert!(b.build().is_err());
    }

    #[test]
    fn reset_clears_clocks() {
        let t = ServerTopology::paper_server();
        t.memory_clock(MemoryNodeId::new(0)).unwrap().reserve(crate::clock::SimTime::ZERO, 100);
        t.reset_clocks();
        assert_eq!(
            t.memory_clock(MemoryNodeId::new(0)).unwrap().now(),
            crate::clock::SimTime::ZERO
        );
    }

    #[test]
    fn private_clocks_do_not_alias_the_original() {
        let t = ServerTopology::paper_server();
        let private = t.with_private_clocks();
        // Charge the original's clock: the private copy must stay at zero...
        t.memory_clock(MemoryNodeId::new(0)).unwrap().reserve(crate::clock::SimTime::ZERO, 100);
        assert_eq!(
            private.memory_clock(MemoryNodeId::new(0)).unwrap().now(),
            crate::clock::SimTime::ZERO
        );
        // ...and vice versa for link clocks.
        private.link_clock(LinkId::new(0)).unwrap().reserve(crate::clock::SimTime::ZERO, 100);
        assert_eq!(t.link_clock(LinkId::new(0)).unwrap().now(), crate::clock::SimTime::ZERO);
        // Everything else is shared structure: same shape, same routes.
        assert_eq!(private.devices().len(), t.devices().len());
        assert_eq!(private.links().len(), t.links().len());
        t.reset_clocks();
    }

    #[test]
    fn device_slowdown_marks_one_straggler() {
        let t = ServerTopology::paper_server();
        let gpu = t.gpus()[1];
        let skewed = t.with_device_slowdown(gpu, 8.0).unwrap();
        assert_eq!(skewed.device(gpu).unwrap().exec_slowdown, 8.0);
        // Every other device — and the original topology — stays nominal.
        assert_eq!(t.device(gpu).unwrap().exec_slowdown, 1.0);
        for (idx, dev) in skewed.devices().iter().enumerate() {
            if DeviceId::new(idx) != gpu {
                assert_eq!(dev.exec_slowdown, 1.0);
            }
        }
        assert!(t.with_device_slowdown(DeviceId::new(999), 2.0).is_err());
    }

    #[test]
    fn fault_plan_attaches_and_validates_devices() {
        use crate::fault::FaultPlan;
        let t = ServerTopology::paper_server();
        assert!(t.fault_plan().is_none());
        let gpu = t.gpus()[0];
        let plan = FaultPlan::new().abort_device(gpu, crate::clock::SimTime::from_nanos(1_000));
        let faulty = t.with_fault_plan(plan).unwrap();
        let attached = faulty.fault_plan().expect("plan attached");
        assert_eq!(attached.abort_at(gpu), Some(crate::clock::SimTime::from_nanos(1_000)));
        // The original topology is untouched.
        assert!(t.fault_plan().is_none());
        // Plans naming unknown devices or nodes are rejected.
        let bad =
            FaultPlan::new().abort_device(DeviceId::new(999), crate::clock::SimTime::from_nanos(1));
        assert!(t.with_fault_plan(bad).is_err());
        let bad_node = FaultPlan::new().arena_burst(
            MemoryNodeId::new(99),
            1,
            crate::clock::SimTime::ZERO,
            crate::clock::SimTime::from_nanos(1),
        );
        assert!(t.with_fault_plan(bad_node).is_err());
    }

    #[test]
    fn fault_plan_probabilities_must_lie_in_the_unit_interval() {
        use crate::clock::SimTime;
        use crate::fault::FaultPlan;
        let t = ServerTopology::paper_server();
        let gpu = t.gpus()[0];
        let window = |p: f64| {
            FaultPlan::new().transient_window(gpu, SimTime::ZERO, SimTime::from_millis(1), p, 7)
        };
        for p in [0.0, 0.3, 1.0] {
            t.with_fault_plan(window(p)).unwrap();
        }
        for p in [1.5, -0.1, f64::NAN] {
            let err = t.with_fault_plan(window(p)).unwrap_err();
            assert_eq!(err.category(), "config", "p = {p}: {err}");
            assert!(err.to_string().contains("outside [0, 1]"), "descriptive: {err}");
        }
    }

    #[test]
    fn excluded_devices_leave_placement_but_stay_addressable() {
        let t = ServerTopology::paper_server();
        let gpu = t.gpus()[0];
        let degraded = t.with_device_excluded(gpu).unwrap();
        assert!(degraded.is_excluded(gpu));
        assert_eq!(degraded.excluded_devices(), vec![gpu]);
        assert_eq!(degraded.gpus().len(), t.gpus().len() - 1);
        assert!(!degraded.gpus().contains(&gpu));
        // Profiles and local memory keep resolving for in-flight bookkeeping.
        assert!(degraded.device(gpu).is_ok());
        assert!(degraded.local_memory_of(gpu).is_ok());
        // CPU cores are excludable the same way, including from the
        // interleaved placement order.
        let core = t.cpu_cores()[0];
        let no_core = t.with_device_excluded(core).unwrap();
        assert_eq!(no_core.cpu_cores().len(), t.cpu_cores().len() - 1);
        assert!(!no_core.cpu_cores_interleaved().contains(&core));
        // Unknown devices are rejected; the original topology is untouched.
        assert!(t.with_device_excluded(DeviceId::new(999)).is_err());
        assert!(!t.is_excluded(gpu));
    }

    /// The scratch-clock protocol the constants used to be read back
    /// through: 16 cache-line round trips per inter-socket link on a fresh
    /// clock, the slowest link's mean; one 256 MiB transfer per link on a
    /// fresh clock, its bytes over the elapsed time.
    fn scratch_clock_constants(t: &ServerTopology) -> (u64, Vec<f64>) {
        use crate::clock::SimTime;
        let mut control_ns = 0;
        for link in t.links().iter().filter(|l| l.kind == LinkKind::InterSocket) {
            let clock = ResourceClock::new("ctl");
            for _ in 0..2 * 16 {
                clock.reserve(SimTime::ZERO, link.transfer_ns(64.0));
            }
            control_ns = control_ns.max(clock.now().as_nanos() / 16);
        }
        let rates = t
            .links()
            .iter()
            .map(|link| {
                let (_, end) = ResourceClock::new("bw")
                    .reserve(SimTime::ZERO, link.transfer_ns(EFFECTIVE_RATE_BYTES));
                EFFECTIVE_RATE_BYTES / end.as_nanos().max(1) as f64
            })
            .collect();
        (control_ns, rates)
    }

    #[test]
    fn paper_server_derives_the_pinned_link_constants() {
        let t = ServerTopology::paper_server();
        assert_eq!(t.control_plane_ns(), 1_004);
        for link in t.links() {
            let pinned = match link.kind {
                LinkKind::Pcie3x16 => 268_435_456.0 / 22_379_621.0,
                LinkKind::InterSocket => 268_435_456.0 / 8_948_348.0,
                LinkKind::PcieSwitch => unreachable!("the paper server has no switch"),
            };
            assert_eq!(t.effective_gbps(link.id).to_bits(), f64::to_bits(pinned), "{link:?}");
        }
    }

    #[test]
    fn derived_constants_match_the_scratch_clock_protocol() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..64 {
            let mut builder = TopologyBuilder::new();
            let sockets = 1 + next(4) as usize;
            for _ in 0..sockets {
                builder.add_socket(1 + next(12) as usize);
            }
            for _ in 0..next(5) {
                builder.add_gpu(next(sockets as u64) as usize);
            }
            if next(3) > 0 {
                builder.pcie_bandwidth_gbps(0.5 + next(400) as f64 / 10.0);
            }
            let t = builder.build().unwrap();
            let (control_ns, rates) = scratch_clock_constants(&t);
            assert_eq!(t.control_plane_ns(), control_ns, "{sockets} sockets");
            assert_eq!(rates.len(), t.links().len());
            for link in t.links() {
                let rate = rates[link.id.index()];
                assert_eq!(t.effective_gbps(link.id).to_bits(), rate.to_bits(), "{link:?}");
                for bytes in [64.0, 4096.0, 3.7e6, 2.5e9] {
                    assert_eq!(
                        t.transfer_estimate_ns(link.id, bytes),
                        (bytes / (rate * 1e9) * 1e9) as u64,
                        "{link:?}, {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn derived_constants_survive_every_topology_copy() {
        let mut b = TopologyBuilder::new();
        b.add_socket(4).add_socket(4).add_gpu(1).pcie_bandwidth_gbps(7.3);
        let t = b.build().unwrap();
        let gpu = t.gpus()[0];
        let copies = [
            t.with_private_clocks(),
            t.with_device_excluded(gpu).unwrap(),
            t.with_device_slowdown(gpu, 8.0).unwrap(),
            t.with_fault_plan(FaultPlan::new().abort_device(gpu, crate::SimTime::ZERO)).unwrap(),
        ];
        for copy in copies {
            assert_eq!(copy.control_plane_ns(), t.control_plane_ns());
            for link in t.links() {
                assert_eq!(
                    copy.effective_gbps(link.id).to_bits(),
                    t.effective_gbps(link.id).to_bits()
                );
            }
        }
    }

    #[test]
    fn unknown_ids_error() {
        let t = ServerTopology::paper_server();
        assert!(t.device(DeviceId::new(999)).is_err());
        assert!(t.memory_node(MemoryNodeId::new(99)).is_err());
        assert!(t.link(LinkId::new(99)).is_err());
    }
}
