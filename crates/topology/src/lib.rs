//! # hetex-topology
//!
//! A model of the heterogeneous server the paper evaluates on: CPU sockets with
//! NUMA-local DRAM, GPUs with device memory, and the PCIe/QPI interconnects
//! between them — plus the machinery that turns that model into *simulated
//! execution times*.
//!
//! The paper's experiments run on two 12-core Xeon sockets with one NVIDIA
//! GTX 1080 per socket. We do not have that hardware (nor any GPU), so this
//! crate substitutes it with a **resource-clock simulation** (see `DESIGN.md`
//! §2 and §4):
//!
//! * every execution context (a CPU core worker, a GPU) owns a monotone
//!   [`clock::ResourceClock`];
//! * every shared resource (a DRAM channel group, a PCIe link, the QPI link)
//!   owns one too;
//! * processing a block advances the worker's clock by the cost the
//!   [`cost`] model assigns to the recorded [`cost::WorkProfile`], and also
//!   advances the clocks of the shared resources the work consumed;
//! * DMA transfers advance the link clocks along the route between memory
//!   nodes and stamp the produced block handle with its completion time.
//!
//! Query simulated time is simply the largest completion timestamp observed at
//! the root of the plan, so pipelining, transfer/compute overlap, PCIe
//! saturation and DRAM saturation all emerge from the clocks rather than being
//! hard-coded.

pub mod affinity;
pub mod clock;
pub mod cost;
pub mod device;
pub mod fault;
pub mod interconnect;
pub mod memory;
pub mod probe;
pub mod topology;
pub mod transfer;

pub use affinity::Affinity;
pub use clock::{ResourceClock, SimTime};
pub use cost::{CostModel, WorkProfile};
pub use device::{DeviceId, DeviceKind, DeviceProfile};
pub use fault::{ArenaBurst, DeviceFault, FaultPlan};
pub use interconnect::{LinkId, LinkKind, LinkSpec};
pub use memory::MemoryNodeSpec;
pub use probe::CalibratedConstants;
pub use topology::{ServerTopology, TopologyBuilder};
pub use transfer::{DmaEngine, TransferTicket};
