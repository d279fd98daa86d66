//! # hetex-gpu-sim
//!
//! A software stand-in for the NVIDIA GPUs the paper runs on.
//!
//! No GPU (and no CUDA) is available in this environment, so this crate
//! provides the pieces of the CUDA programming model that HetExchange's
//! generated code actually relies on, implemented on the host:
//!
//! * [`simt`] — kernels, launch configurations and the SIMT thread hierarchy
//!   (grid → thread block → warp → lane) with grid-stride loops;
//! * [`device::GpuDevice`] — a device you can launch kernels on; a launch runs
//!   its grid on the calling host thread (devices run concurrently with each
//!   other, one executor worker apiece), and every launch reports statistics
//!   (threads, warps, launches) that feed the cost model. The JIT's GPU
//!   lowering runs its warp tiles itself and records each launch;
//! * [`atomic`] — device-scoped atomics (`workerScopedAtomic`);
//! * [`occupancy`] — a register-pressure → occupancy model, used to reproduce
//!   the paper's observation that DBMS G's kernels allocate twice the
//!   registers and therefore underutilize the GPU.
//!
//! A device's memory capacity is its topology profile's
//! (`DeviceProfile::memory_capacity`); nothing allocates against it here.
//! DBMS G's Q4.3 failure at SF1000 is modeled by its cardinality-estimation
//! limit (`hetex-baselines`), not by device memory.
//!
//! The *functional* result of a kernel is exact (it runs real Rust closures on
//! real data); the *performance* of the simulated GPU is modeled by
//! `hetex-topology`'s cost model, not by the wall-clock time of this crate.

pub mod atomic;
pub mod device;
pub mod occupancy;
pub mod simt;

pub use atomic::DeviceAtomicI64;
pub use device::{GpuDevice, LaunchStats};
pub use occupancy::OccupancyModel;
pub use simt::{GridStride, LaunchConfig, ThreadCtx};
