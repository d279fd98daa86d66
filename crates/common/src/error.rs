//! Error handling for the HetExchange workspace.
//!
//! A single error enum is shared by every crate: the engine, the simulator and
//! the benchmark harness all speak [`HetError`]. The enum is deliberately
//! coarse-grained — variants map to the subsystems of the paper (planning,
//! code generation, execution, memory management, data transfer) rather than to
//! individual failure sites, which keeps match arms in callers meaningful.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, HetError>;

/// The error type shared by all HetExchange crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HetError {
    /// The catalog does not contain the requested table or column.
    CatalogMissing(String),
    /// A schema mismatch: wrong arity, wrong type, unknown field.
    Schema(String),
    /// The logical/physical plan is malformed (e.g. a router without consumers).
    Plan(String),
    /// Code generation (produce/consume traversal or lowering) failed.
    Codegen(String),
    /// Runtime execution failure inside a pipeline.
    Execution(String),
    /// A block or memory manager could not satisfy a request.
    Memory(String),
    /// A data transfer (DMA over an interconnect) failed or was mis-specified.
    Transfer(String),
    /// The requested device does not exist in the topology.
    UnknownDevice(String),
    /// The operation is unsupported on the given engine/system configuration.
    Unsupported(String),
    /// The benchmark/system configuration is invalid.
    Config(String),
    /// The query was cancelled or a channel closed unexpectedly.
    Cancelled(String),
    /// An execution device was lost permanently mid-query (it aborted, or
    /// crossed its transient-retry budget and was quarantined) while holding
    /// work the executor could not re-route: `block` is the queue depth (plus
    /// any claimed block) stranded on the device at stage `stage`. The engine
    /// catches this variant and restarts the query on the surviving devices.
    DeviceLost {
        /// Raw index of the lost device.
        device: usize,
        /// Stage whose work was stranded on the device.
        stage: usize,
        /// Number of blocks stranded (in-queue plus claimed).
        block: usize,
    },
}

impl HetError {
    /// Short machine-readable category name, used by the bench harness when
    /// recording which baseline failed which query (the paper's DBMS G fails
    /// Q2.2 and Q4.3 at SF1000, and we record those failures the same way).
    pub fn category(&self) -> &'static str {
        match self {
            HetError::CatalogMissing(_) => "catalog",
            HetError::Schema(_) => "schema",
            HetError::Plan(_) => "plan",
            HetError::Codegen(_) => "codegen",
            HetError::Execution(_) => "execution",
            HetError::Memory(_) => "memory",
            HetError::Transfer(_) => "transfer",
            HetError::UnknownDevice(_) => "device",
            HetError::Unsupported(_) => "unsupported",
            HetError::Config(_) => "config",
            HetError::Cancelled(_) => "cancelled",
            HetError::DeviceLost { .. } => "device-lost",
        }
    }
}

impl fmt::Display for HetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetError::CatalogMissing(m) => write!(f, "catalog: {m}"),
            HetError::Schema(m) => write!(f, "schema error: {m}"),
            HetError::Plan(m) => write!(f, "plan error: {m}"),
            HetError::Codegen(m) => write!(f, "codegen error: {m}"),
            HetError::Execution(m) => write!(f, "execution error: {m}"),
            HetError::Memory(m) => write!(f, "memory error: {m}"),
            HetError::Transfer(m) => write!(f, "transfer error: {m}"),
            HetError::UnknownDevice(m) => write!(f, "unknown device: {m}"),
            HetError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HetError::Config(m) => write!(f, "configuration error: {m}"),
            HetError::Cancelled(m) => write!(f, "cancelled: {m}"),
            HetError::DeviceLost { device, stage, block } => write!(
                f,
                "device lost: dev{device} failed permanently at stage {stage} \
                 with {block} block(s) stranded"
            ),
        }
    }
}

impl std::error::Error for HetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let err = HetError::Memory("arena exhausted on mem1".into());
        assert!(err.to_string().contains("arena exhausted"));
        assert!(err.to_string().starts_with("memory error"));
    }

    #[test]
    fn category_is_stable() {
        assert_eq!(HetError::Transfer(String::new()).category(), "transfer");
        assert_eq!(HetError::Unsupported(String::new()).category(), "unsupported");
    }

    #[test]
    fn fault_variants_are_structured_and_classified() {
        let lost = HetError::DeviceLost { device: 3, stage: 1, block: 4 };
        assert_eq!(lost.category(), "device-lost");
        assert!(lost.to_string().contains("dev3"));
        assert!(lost.to_string().contains("stage 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_: &dyn std::error::Error) {}
        takes_std_error(&HetError::Plan("x".into()));
    }
}
