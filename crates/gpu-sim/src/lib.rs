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
//!   (threads, warps, launches) that feed the cost model;
//! * [`memory::DeviceMemory`] — a capacity-limited device-memory allocator
//!   (8 GB per GTX 1080), so "out of device memory" failures behave like the
//!   real thing (DBMS G's Q4.3 failure at SF1000 depends on this);
//! * [`atomic`] — device-scoped atomics (the GPU provider lowers
//!   `workerScopedAtomic` to these);
//! * [`reduce::NeighborhoodReducer`] — warp-level ("neighborhood") reductions,
//!   used so that only one atomic per warp reaches the device-global state,
//!   exactly like Listing 1's generated kernel;
//! * [`occupancy`] — a register-pressure → occupancy model, used to reproduce
//!   the paper's observation that DBMS G's kernels allocate twice the
//!   registers and therefore underutilize the GPU.
//!
//! The *functional* result of a kernel is exact (it runs real Rust closures on
//! real data); the *performance* of the simulated GPU is modeled by
//! `hetex-topology`'s cost model, not by the wall-clock time of this crate.

pub mod atomic;
pub mod device;
pub mod memory;
pub mod occupancy;
pub mod reduce;
pub mod simt;

pub use atomic::{DeviceAtomicF64, DeviceAtomicI64, DeviceCounter};
pub use device::{GpuDevice, LaunchStats};
pub use memory::{DeviceAllocation, DeviceMemory};
pub use occupancy::OccupancyModel;
pub use reduce::NeighborhoodReducer;
pub use simt::{GridStride, LaunchConfig, ThreadCtx};
