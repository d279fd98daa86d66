//! The SIMT thread hierarchy: launch configurations, thread contexts and
//! grid-stride loops.
//!
//! In a kernel launched with [`GpuDevice::launch`](crate::GpuDevice::launch),
//! `threadIdInWorker` is [`ThreadCtx::global_id`] and `#threadsInWorker`
//! [`ThreadCtx::threads_in_grid`], mirroring how the paper's GPU provider
//! translates those calls for NVPTX. Kernels iterate their input with a
//! [`GridStride`] loop, the canonical CUDA idiom the generated pipeline 9 of
//! Listing 1 uses (`for i = threadIdInWorker to N-1 with step #threadsInWorker`).
//! The JIT's GPU lowering runs the same row order as warp tiles and records
//! its launch with [`GpuDevice::record_launch`](crate::GpuDevice::record_launch).

/// Warp width of the simulated GPU (NVIDIA GPUs execute 32 lanes in lock-step).
pub const WARP_SIZE: usize = 32;

/// Grid and thread-block dimensions of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_dim: usize,
    /// Number of threads per block.
    pub block_dim: usize,
}

impl LaunchConfig {
    /// A launch configuration, validated to be non-empty.
    pub fn new(grid_dim: usize, block_dim: usize) -> Self {
        assert!(grid_dim > 0 && block_dim > 0, "empty launch configuration");
        Self { grid_dim, block_dim }
    }

    /// The configuration the engine uses by default. §7 of the paper notes
    /// that modern compilers/GPUs make hand-tuned "magic numbers" largely
    /// obsolete, so we pick one reasonable shape and keep it.
    pub fn default_for_device() -> Self {
        Self { grid_dim: 80, block_dim: 128 }
    }

    /// Total number of threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }

    /// Total number of warps in the grid (rounded up per block).
    pub fn total_warps(&self) -> usize {
        self.grid_dim * self.block_dim.div_ceil(WARP_SIZE)
    }
}

/// Identity of one virtual GPU thread within a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Index of the thread's block within the grid.
    pub block_idx: usize,
    /// Index of the thread within its block.
    pub thread_idx: usize,
    /// The launch configuration.
    pub config: LaunchConfig,
}

impl ThreadCtx {
    /// Grid-wide thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub fn global_id(&self) -> usize {
        self.block_idx * self.config.block_dim + self.thread_idx
    }

    /// Total number of threads in the grid (`gridDim.x * blockDim.x`).
    pub fn threads_in_grid(&self) -> usize {
        self.config.total_threads()
    }

    /// Lane index within the warp.
    pub fn lane(&self) -> usize {
        self.thread_idx % WARP_SIZE
    }

    /// Grid-wide warp id.
    pub fn warp_id(&self) -> usize {
        self.global_id() / WARP_SIZE
    }

    /// True for the first lane of each warp — the "neighborhood leader" that
    /// pushes the warp-local partial aggregate to the device-global state.
    pub fn is_neighborhood_leader(&self) -> bool {
        self.lane() == 0
    }

    /// A grid-stride iterator over `[0, n)`: this thread visits
    /// `global_id, global_id + total_threads, …`, the standard way a kernel
    /// cooperatively scans a block of tuples with coalesced accesses.
    pub fn grid_stride(&self, n: usize) -> GridStride {
        GridStride { next: self.global_id(), stride: self.threads_in_grid(), end: n }
    }
}

/// Iterator produced by [`ThreadCtx::grid_stride`].
#[derive(Debug, Clone)]
pub struct GridStride {
    next: usize,
    stride: usize,
    end: usize,
}

impl Iterator for GridStride {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next >= self.end {
            return None;
        }
        let current = self.next;
        self.next += self.stride;
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn launch_config_totals() {
        let cfg = LaunchConfig::new(4, 64);
        assert_eq!(cfg.total_threads(), 256);
        assert_eq!(cfg.total_warps(), 4 * 2);
        let odd = LaunchConfig::new(2, 48);
        assert_eq!(odd.total_warps(), 2 * 2);
    }

    #[test]
    #[should_panic(expected = "empty launch configuration")]
    fn empty_launch_config_panics() {
        LaunchConfig::new(0, 32);
    }

    #[test]
    fn thread_identity() {
        let cfg = LaunchConfig::new(2, 64);
        let t = ThreadCtx { block_idx: 1, thread_idx: 33, config: cfg };
        assert_eq!(t.global_id(), 97);
        assert_eq!(t.threads_in_grid(), 128);
        assert_eq!(t.lane(), 1);
        assert_eq!(t.warp_id(), 3);
        assert!(!t.is_neighborhood_leader());
        let leader = ThreadCtx { block_idx: 0, thread_idx: 32, config: cfg };
        assert!(leader.is_neighborhood_leader());
    }

    #[test]
    fn grid_stride_covers_every_index_exactly_once() {
        let cfg = LaunchConfig::new(2, 16);
        let n = 1000;
        let mut seen = HashSet::new();
        for block_idx in 0..cfg.grid_dim {
            for thread_idx in 0..cfg.block_dim {
                let t = ThreadCtx { block_idx, thread_idx, config: cfg };
                for i in t.grid_stride(n) {
                    assert!(seen.insert(i), "index {i} visited twice");
                }
            }
        }
        assert_eq!(seen.len(), n);
        assert!(seen.iter().all(|&i| i < n));
    }

    #[test]
    fn grid_stride_handles_fewer_rows_than_threads() {
        let cfg = LaunchConfig::new(4, 128);
        let t = ThreadCtx { block_idx: 3, thread_idx: 127, config: cfg };
        // Thread id 511 sees nothing when there are only 100 rows.
        assert_eq!(t.grid_stride(100).count(), 0);
        let t0 = ThreadCtx { block_idx: 0, thread_idx: 5, config: cfg };
        assert_eq!(t0.grid_stride(100).collect::<Vec<_>>(), vec![5]);
    }
}
