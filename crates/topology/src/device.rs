//! Device descriptions: CPU cores and GPUs.
//!
//! A [`DeviceProfile`] captures the performance characteristics the cost model
//! needs: sequential and random memory bandwidth, per-tuple compute
//! throughput, SIMT width, kernel launch latency, and the memory node the
//! device is attached to. The default profiles (`DeviceProfile::paper_cpu_core`
//! and `DeviceProfile::paper_gpu`) are calibrated to the server described in
//! §6 of the paper (two 12-core Xeon E5-2650L v3 sockets at 1.8 GHz, two
//! NVIDIA GTX 1080 GPUs, PCIe 3.0 x16 measured at ~12 GB/s per link,
//! ~90.6 GB/s aggregate DRAM bandwidth).

use hetex_common::MemoryNodeId;
use std::fmt;

/// Identifier of an execution device. CPU *cores* and GPUs are both devices:
/// the unit that HetExchange pins a pipeline instance to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// Construct from a raw index.
    pub const fn new(raw: usize) -> Self {
        DeviceId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// The kind of an execution device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// One CPU core (task parallelism: many cores, one thread each).
    CpuCore,
    /// One GPU (data parallelism: one device, thousands of SIMT threads).
    Gpu,
}

impl DeviceKind {
    /// Short label used in plan rendering and bench output.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::CpuCore => "cpu",
            DeviceKind::Gpu => "gpu",
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Performance profile of an execution device, used by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// CPU core or GPU.
    pub kind: DeviceKind,
    /// Which CPU socket the device belongs to / is attached to.
    pub socket: usize,
    /// Memory node holding the device's local memory.
    pub local_memory: MemoryNodeId,
    /// Sequential scan bandwidth achievable by this single device, GB/s.
    /// For a CPU core this is the per-core limit (a few GB/s); the socket-wide
    /// DRAM limit is enforced separately by the memory-node resource clock.
    pub seq_bandwidth_gbps: f64,
    /// Effective bandwidth for dependent random accesses (hash probes), GB/s.
    pub random_bandwidth_gbps: f64,
    /// Simple-operation throughput (predicates, arithmetic, hashing), in
    /// billions of operations per second for the whole device.
    pub compute_gops: f64,
    /// Number of SIMT lanes that execute in lock-step (1 for a CPU core,
    /// 32 for a GPU warp). Informational: the GPU lowering's warp is
    /// `hetex_gpu_sim::simt::WARP_SIZE`.
    pub simt_width: usize,
    /// Hardware threads the device runs concurrently (1 per CPU core;
    /// thousands for a GPU). Informational, used for occupancy accounting.
    pub hw_threads: usize,
    /// Fixed overhead of launching a kernel / spawning a task on this device.
    pub launch_overhead_ns: u64,
    /// Cost of one device-scoped atomic update, nanoseconds.
    pub atomic_ns: f64,
    /// Capacity of the device's local memory in bytes.
    pub memory_capacity: u64,
    /// Runtime slowdown multiplier applied when *charging* work to this
    /// device's clock, but deliberately **not** consulted by routing-time
    /// cost estimates. `1.0` (the default) models a healthy device; larger
    /// values model a straggler — thermal throttling, contention from a
    /// co-tenant, a degraded link — that a static cost model cannot predict.
    /// This is the knob the work-stealing benchmarks use to create a skewed
    /// instance the router keeps feeding at its nominal rate.
    pub exec_slowdown: f64,
}

impl DeviceProfile {
    /// Profile of one core of the paper's Xeon E5-2650L v3 (1.8 GHz).
    ///
    /// Calibration: the sum microbenchmark (Fig. 7 top) saturates at
    /// ~89.7 GB/s with ≥16 cores, i.e. ~5.6 GB/s per core before the socket
    /// limit kicks in; hash-probe-heavy queries scale worse (65–77 % per-core
    /// coefficient, §6.3), captured by the much lower random bandwidth.
    pub fn paper_cpu_core(socket: usize, local_memory: MemoryNodeId) -> Self {
        Self {
            kind: DeviceKind::CpuCore,
            socket,
            local_memory,
            seq_bandwidth_gbps: 5.6,
            random_bandwidth_gbps: 0.85,
            compute_gops: 5.0,
            simt_width: 1,
            hw_threads: 1,
            launch_overhead_ns: 20_000,
            atomic_ns: 20.0,
            memory_capacity: 128 * (1 << 30),
            exec_slowdown: 1.0,
        }
    }

    /// Profile of one NVIDIA GTX 1080 as described in §2.1/§6.1: ~320 GB/s
    /// device-memory bandwidth, 8 GB of memory, massive SIMT parallelism that
    /// hides random-access latency far better than a CPU core.
    pub fn paper_gpu(socket: usize, local_memory: MemoryNodeId) -> Self {
        Self {
            kind: DeviceKind::Gpu,
            socket,
            local_memory,
            seq_bandwidth_gbps: 320.0,
            random_bandwidth_gbps: 48.0,
            compute_gops: 80.0,
            simt_width: 32,
            hw_threads: 2560,
            launch_overhead_ns: 12_000,
            atomic_ns: 2.0,
            memory_capacity: 8 * (1 << 30),
            exec_slowdown: 1.0,
        }
    }

    /// True if the device is a GPU.
    pub fn is_gpu(&self) -> bool {
        self.kind == DeviceKind::Gpu
    }

    /// Derive a profile with reduced effective parallelism, used to model
    /// DBMS G's doubled register pressure (§6.1: "every thread block that
    /// DBMS G triggers allocates double the number of GPU registers, thus
    /// launches fewer simultaneous execution units").
    pub fn with_occupancy(&self, occupancy: f64) -> Self {
        let occupancy = occupancy.clamp(0.05, 1.0);
        Self {
            seq_bandwidth_gbps: self.seq_bandwidth_gbps * occupancy.sqrt(),
            random_bandwidth_gbps: self.random_bandwidth_gbps * occupancy,
            compute_gops: self.compute_gops * occupancy,
            hw_threads: ((self.hw_threads as f64) * occupancy) as usize,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_display() {
        assert_eq!(DeviceId::new(3).to_string(), "dev3");
        assert_eq!(DeviceId::new(3).index(), 3);
        assert_eq!(DeviceKind::Gpu.to_string(), "gpu");
    }

    #[test]
    fn paper_profiles_have_expected_shape() {
        let cpu = DeviceProfile::paper_cpu_core(0, MemoryNodeId::new(0));
        let gpu = DeviceProfile::paper_gpu(1, MemoryNodeId::new(3));
        assert!(!cpu.is_gpu());
        assert!(gpu.is_gpu());
        // GPUs have an order of magnitude more local bandwidth than one core.
        assert!(gpu.seq_bandwidth_gbps > 10.0 * cpu.seq_bandwidth_gbps);
        // GPUs hide random access latency better.
        assert!(gpu.random_bandwidth_gbps > 10.0 * cpu.random_bandwidth_gbps);
        assert_eq!(cpu.simt_width, 1);
        assert_eq!(gpu.simt_width, 32);
    }

    #[test]
    fn sixteen_cores_saturate_paper_dram() {
        let cpu = DeviceProfile::paper_cpu_core(0, MemoryNodeId::new(0));
        let sixteen_cores = 16.0 * cpu.seq_bandwidth_gbps;
        // §6.4: the sum query reaches 89.7 GB/s at ~16 cores.
        assert!(sixteen_cores > 85.0 && sixteen_cores < 95.0);
    }

    #[test]
    fn occupancy_reduces_throughput_monotonically() {
        let gpu = DeviceProfile::paper_gpu(0, MemoryNodeId::new(2));
        let half = gpu.with_occupancy(0.5);
        assert!(half.random_bandwidth_gbps < gpu.random_bandwidth_gbps);
        assert!(half.seq_bandwidth_gbps < gpu.seq_bandwidth_gbps);
        assert!(half.compute_gops < gpu.compute_gops);
        // Clamped below.
        let tiny = gpu.with_occupancy(0.0);
        assert!(tiny.compute_gops > 0.0);
    }
}
