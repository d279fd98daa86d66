//! The simulated GPU device.
//!
//! [`GpuDevice`] is what the cpu2gpu operator launches kernels on. A kernel is
//! an ordinary Rust closure invoked once per virtual SIMT thread with its
//! [`ThreadCtx`]; the device executes the grid on the calling thread, in
//! ascending global thread id, and reports [`LaunchStats`] that the cost model
//! prices. Concurrency comes from the callers: every GPU has its own executor
//! worker and several devices (or several launches into one) may run at once,
//! so device-visible state still needs device atomics.

use crate::simt::{LaunchConfig, ThreadCtx};
use hetex_common::MemoryNodeId;
use hetex_topology::{DeviceId, DeviceProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Statistics of the kernels launched on a device (functional counters, not
/// timings — timing comes from the cost model in `hetex-topology`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Number of kernels launched.
    pub launches: u64,
    /// Total virtual threads executed.
    pub threads: u64,
    /// Total warps executed.
    pub warps: u64,
}

/// A software GPU: SIMT execution on the launching host thread, and the
/// launch statistics it has counted.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    id: DeviceId,
    profile: DeviceProfile,
    launches: Arc<AtomicU64>,
    threads: Arc<AtomicU64>,
    warps: Arc<AtomicU64>,
}

impl GpuDevice {
    /// Create a device from its topology profile.
    pub fn new(id: DeviceId, profile: DeviceProfile) -> Self {
        Self {
            id,
            profile,
            launches: Arc::new(AtomicU64::new(0)),
            threads: Arc::new(AtomicU64::new(0)),
            warps: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The device id in the server topology.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The memory node holding this device's memory.
    pub fn memory_node(&self) -> MemoryNodeId {
        self.profile.local_memory
    }

    /// Launch a kernel: `body` is invoked once per virtual thread of the
    /// grid, on the calling thread. Launches from different host threads run
    /// concurrently, so device-visible state must use device atomics — the
    /// same discipline real kernels need. A panicking body unwinds straight
    /// to the caller.
    pub fn launch<F>(&self, config: LaunchConfig, body: F) -> LaunchStats
    where
        F: Fn(&ThreadCtx) + Send + Sync,
    {
        for block_idx in 0..config.grid_dim {
            for thread_idx in 0..config.block_dim {
                body(&ThreadCtx { block_idx, thread_idx, config });
            }
        }
        self.record_launch(config)
    }

    /// Account one launch of `config` whose grid the caller executes itself,
    /// a warp tile at a time instead of a virtual thread at a time (the JIT's
    /// GPU lowering): the launch, its threads and its warps are counted
    /// exactly as [`Self::launch`] counts them.
    pub fn record_launch(&self, config: LaunchConfig) -> LaunchStats {
        let stats = LaunchStats {
            launches: 1,
            threads: config.total_threads() as u64,
            warps: config.total_warps() as u64,
        };
        self.launches.fetch_add(stats.launches, Ordering::Relaxed);
        self.threads.fetch_add(stats.threads, Ordering::Relaxed);
        self.warps.fetch_add(stats.warps, Ordering::Relaxed);
        stats
    }

    /// Cumulative statistics over the device's lifetime.
    pub fn stats(&self) -> LaunchStats {
        LaunchStats {
            launches: self.launches.load(Ordering::Relaxed),
            threads: self.threads.load(Ordering::Relaxed),
            warps: self.warps.load(Ordering::Relaxed),
        }
    }
}

/// A convenience constructor used by tests and examples: a standalone GTX
/// 1080-like device that is not part of a larger topology.
pub fn standalone_gpu() -> GpuDevice {
    let profile = DeviceProfile::paper_gpu(0, MemoryNodeId::new(0));
    GpuDevice::new(DeviceId::new(0), profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::DeviceAtomicI64;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn launch_runs_every_thread_exactly_once() {
        let gpu = standalone_gpu();
        let counter = AtomicUsize::new(0);
        let cfg = LaunchConfig::new(8, 64);
        let stats = gpu.launch(cfg, |_ctx| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 512);
        assert_eq!(stats.threads, 512);
        assert_eq!(stats.launches, 1);
        assert_eq!(gpu.stats().launches, 1);
    }

    #[test]
    fn grid_stride_sum_kernel_matches_sequential_sum() {
        let gpu = standalone_gpu();
        let data: Vec<i64> = (0..100_000).map(|i| i % 97).collect();
        let expected: i64 = data.iter().sum();
        let acc = DeviceAtomicI64::new(0);
        let cfg = LaunchConfig::new(16, 128);
        gpu.launch(cfg, |ctx| {
            let mut local = 0i64;
            for i in ctx.grid_stride(data.len()) {
                local += data[i];
            }
            acc.fetch_add(local);
        });
        assert_eq!(acc.load(), expected);
    }

    #[test]
    fn filtered_sum_kernel_matches_listing_one_and_counts_its_launch() {
        // Pipeline 9 of Listing 1: scan, filter (t.a > 42), thread-local
        // accumulate, one device atomic per thread.
        let gpu = standalone_gpu();
        let a: Vec<i64> = (0..50_000).map(|i| i % 100).collect();
        let b: Vec<i64> = (0..50_000).map(|i| i * 3).collect();
        let expected: i64 = a.iter().zip(&b).filter(|(av, _)| **av > 42).map(|(_, bv)| *bv).sum();

        let cfg = LaunchConfig::new(8, 64);
        let acc = DeviceAtomicI64::new(0);
        let stats = gpu.launch(cfg, |ctx| {
            let mut local = 0i64;
            for i in ctx.grid_stride(a.len()) {
                if a[i] > 42 {
                    local += b[i];
                }
            }
            acc.fetch_add(local);
        });
        assert_eq!(acc.load(), expected);
        assert_eq!(stats, LaunchStats { launches: 1, threads: 512, warps: 16 });
    }

    #[test]
    fn concurrent_launches_into_shared_device_state_lose_nothing() {
        // A launch runs on its caller's thread, so the concurrency device
        // atomics exist for is forced here: four host threads, released
        // together, launch into one accumulator.
        const HOSTS: usize = 4;
        let gpu = standalone_gpu();
        let data: Vec<i64> = (0..40_000).map(|i| i % 89 - 40).collect();
        let expected: i64 = data.iter().sum::<i64>() * HOSTS as i64;
        let cfg = LaunchConfig::new(8, 64);
        let acc = DeviceAtomicI64::new(0);
        let start = std::sync::Barrier::new(HOSTS);
        std::thread::scope(|scope| {
            for _ in 0..HOSTS {
                scope.spawn(|| {
                    start.wait();
                    gpu.launch(cfg, |ctx| {
                        acc.fetch_add(ctx.grid_stride(data.len()).map(|i| data[i]).sum());
                    });
                });
            }
        });
        assert_eq!(acc.load(), expected);
        let stats = gpu.stats();
        assert_eq!(stats.launches, HOSTS as u64);
        assert_eq!(stats.threads, (HOSTS * cfg.total_threads()) as u64);
        assert_eq!(stats.warps, (HOSTS * cfg.total_warps()) as u64);
    }

    #[test]
    fn a_panicking_kernel_unwinds_to_the_launcher_once() {
        let gpu = standalone_gpu();
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(LaunchConfig::new(2, 32), |ctx| {
                ran.fetch_add(1, Ordering::Relaxed);
                if ctx.global_id() == 5 {
                    panic!("kernel fault in thread 5");
                }
            })
        }));
        // The kernel's own payload arrives, not a re-panic from a joined
        // worker, and no virtual thread ran after the faulting one.
        let payload = caught.expect_err("the kernel panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel fault in thread 5"));
        assert_eq!(ran.load(Ordering::Relaxed), 6);
        assert_eq!(gpu.stats().launches, 0, "an unwound launch is not counted");
    }

    #[test]
    fn a_recorded_launch_counts_like_an_executed_one() {
        let gpu = standalone_gpu();
        let cfg = LaunchConfig::new(3, 48);
        assert_eq!(gpu.record_launch(cfg), gpu.launch(cfg, |_| {}));
        assert_eq!(gpu.stats(), LaunchStats { launches: 2, threads: 288, warps: 12 });
    }

    #[test]
    fn device_memory_capacity_matches_profile() {
        let gpu = standalone_gpu();
        assert_eq!(gpu.profile().memory_capacity, 8 * (1 << 30));
        assert_eq!(gpu.memory_node(), MemoryNodeId::new(0));
    }

    #[test]
    fn stats_accumulate_across_launches() {
        let gpu = standalone_gpu();
        let cfg = LaunchConfig::new(2, 32);
        gpu.launch(cfg, |_| {});
        gpu.launch(cfg, |_| {});
        let stats = gpu.stats();
        assert_eq!(stats.launches, 2);
        assert_eq!(stats.threads, 128);
        assert_eq!(stats.warps, 4);
    }
}
