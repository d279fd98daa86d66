//! The four physical traits of §3.3 and their derivation over a plan.
//!
//! "Query execution on heterogeneous hardware has four fundamental traits:
//! target device, degree of parallelism, data locality and data packing. Each
//! of the four operators of the HetExchange framework changes one of these
//! traits on its output, without modifying its input." Relational operators
//! require their input to be **local** and **unpacked**.
//!
//! [`PlanTraits`] carries the four traits; [`derive_traits`] computes the
//! traits of a [`HetNode`]'s output, and [`check_relational_requirements`]
//! verifies that every relational operator in a plan receives local, unpacked
//! input — the invariant the parallelizer must establish.

use crate::plan::HetNode;
use hetex_common::{HetError, Result};
use hetex_topology::DeviceKind;

/// The four physical traits of a plan edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTraits {
    /// Device type the producing operator executes on.
    pub device: DeviceKind,
    /// Degree of parallelism (number of instances) of the producing operator.
    pub dop: usize,
    /// Whether the data is local to its consumer's memory node.
    pub local: bool,
    /// Whether the data is packed into blocks (true) or flows tuple-at-a-time
    /// in registers (false).
    pub packed: bool,
}

impl PlanTraits {
    /// Traits of a freshly segmented base table: produced on the CPU by a
    /// single segmenter instance, packed into blocks, with no locality
    /// guarantee for whichever consumer ends up reading them.
    pub fn base_table() -> Self {
        Self { device: DeviceKind::CpuCore, dop: 1, local: false, packed: true }
    }
}

/// Traits of `node`'s output.
pub fn derive_traits(node: &HetNode) -> PlanTraits {
    match node {
        HetNode::Segmenter { .. } => PlanTraits::base_table(),
        // Control flow converters.
        HetNode::Router { input, targets, .. } => {
            let input = derive_traits(input);
            let dop: usize = targets.iter().map(|t| t.dop).sum();
            // The router changes only the degree of parallelism. Its
            // consumers' device types are decided by the device-crossing
            // operators above it, so the device trait is inherited.
            PlanTraits { dop: dop.max(1), ..input }
        }
        HetNode::Cpu2Gpu { input } => {
            let input = derive_traits(input);
            // Device crossings change only the target device; data locality is
            // the mem-move's concern (the parallelizer places mem-move *below*
            // cpu2gpu, so the data is already on the GPU when the kernel
            // launches — Figure 1e).
            PlanTraits { device: DeviceKind::Gpu, ..input }
        }
        HetNode::Gpu2Cpu { input } => {
            let input = derive_traits(input);
            PlanTraits { device: DeviceKind::CpuCore, ..input }
        }
        // Data flow converters.
        HetNode::MemMove { input, .. } => {
            let input = derive_traits(input);
            PlanTraits { local: true, ..input }
        }
        HetNode::Pack { input } => {
            let input = derive_traits(input);
            PlanTraits { packed: true, ..input }
        }
        HetNode::Unpack { input } => {
            let input = derive_traits(input);
            PlanTraits { packed: false, ..input }
        }
        // Relational operators preserve the traits of their (probe) input.
        HetNode::Filter { input, .. }
        | HetNode::Project { input, .. }
        | HetNode::Reduce { input, .. }
        | HetNode::GroupBy { input, .. } => derive_traits(input),
        HetNode::HashJoin { probe, .. } => derive_traits(probe),
    }
}

/// Verify that every relational operator in the plan receives local, unpacked
/// input (the optimizer-facing contract of §3.3).
pub fn check_relational_requirements(node: &HetNode) -> Result<()> {
    let check_input = |input: &HetNode, what: &str| -> Result<()> {
        let traits = derive_traits(input);
        if traits.packed {
            return Err(HetError::Plan(format!(
                "{what} receives packed input; an unpack operator is missing"
            )));
        }
        if !traits.local {
            return Err(HetError::Plan(format!(
                "{what} receives non-local input; a mem-move operator is missing"
            )));
        }
        Ok(())
    };

    match node {
        HetNode::Segmenter { .. } => Ok(()),
        HetNode::Filter { input, .. } => {
            check_input(input, "filter")?;
            check_relational_requirements(input)
        }
        HetNode::Project { input, .. } => {
            check_input(input, "project")?;
            check_relational_requirements(input)
        }
        HetNode::Reduce { input, .. } => {
            check_input(input, "reduce")?;
            check_relational_requirements(input)
        }
        HetNode::GroupBy { input, .. } => {
            check_input(input, "group-by")?;
            check_relational_requirements(input)
        }
        HetNode::HashJoin { build, probe, .. } => {
            check_input(build, "hash-join build")?;
            check_input(probe, "hash-join probe")?;
            check_relational_requirements(build)?;
            check_relational_requirements(probe)
        }
        // HetExchange operators have no locality/packing requirements of
        // their own; recurse into their input.
        other => match other.input() {
            Some(input) => check_relational_requirements(input),
            None => Ok(()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DeviceTarget, RouterPolicy};
    use hetex_jit::{AggSpec, Expr};

    fn segmenter() -> HetNode {
        HetNode::Segmenter { table: "t".into(), projection: vec!["a".into(), "b".into()] }
    }

    #[test]
    fn each_converter_changes_exactly_one_trait() {
        let base = derive_traits(&segmenter());
        assert_eq!(base, PlanTraits::base_table());

        // Router: only DOP changes.
        let routed = HetNode::Router {
            input: Box::new(segmenter()),
            policy: RouterPolicy::LeastLoaded,
            targets: vec![DeviceTarget::cpu(8), DeviceTarget::gpu(2)],
        };
        let t = derive_traits(&routed);
        assert_eq!(t.dop, 10);
        assert_eq!((t.device, t.local, t.packed), (base.device, base.local, base.packed));

        // Device crossing: only the device changes.
        let crossed = HetNode::Cpu2Gpu { input: Box::new(segmenter()) };
        let t = derive_traits(&crossed);
        assert_eq!(t.device, DeviceKind::Gpu);
        assert_eq!((t.dop, t.local, t.packed), (base.dop, base.local, base.packed));

        // Mem-move: only locality changes.
        let moved = HetNode::MemMove { input: Box::new(segmenter()), broadcast: false };
        let t = derive_traits(&moved);
        assert!(t.local);
        assert_eq!((t.device, t.dop, t.packed), (base.device, base.dop, base.packed));

        // Unpack: only packing changes.
        let unpacked = HetNode::Unpack { input: Box::new(segmenter()) };
        let t = derive_traits(&unpacked);
        assert!(!t.packed);
        assert_eq!((t.device, t.dop, t.local), (base.device, base.dop, base.local));

        // Pack restores the packed trait.
        let packed = HetNode::Pack { input: Box::new(unpacked) };
        assert!(derive_traits(&packed).packed);
    }

    #[test]
    fn gpu2cpu_returns_to_cpu() {
        let plan =
            HetNode::Gpu2Cpu { input: Box::new(HetNode::Cpu2Gpu { input: Box::new(segmenter()) }) };
        assert_eq!(derive_traits(&plan).device, DeviceKind::CpuCore);
    }

    #[test]
    fn relational_operators_require_local_unpacked_input() {
        // Missing unpack: filter directly over packed segmenter output.
        let bad = HetNode::Filter {
            input: Box::new(HetNode::MemMove { input: Box::new(segmenter()), broadcast: false }),
            predicate: Expr::col(0).gt_lit(0),
        };
        let err = check_relational_requirements(&bad).unwrap_err();
        assert!(err.to_string().contains("unpack"));

        // Missing mem-move: unpacked but non-local input.
        let bad = HetNode::Filter {
            input: Box::new(HetNode::Unpack { input: Box::new(segmenter()) }),
            predicate: Expr::col(0).gt_lit(0),
        };
        let err = check_relational_requirements(&bad).unwrap_err();
        assert!(err.to_string().contains("mem-move"));

        // Properly converted input passes.
        let good = HetNode::Reduce {
            input: Box::new(HetNode::Filter {
                input: Box::new(HetNode::Unpack {
                    input: Box::new(HetNode::MemMove {
                        input: Box::new(segmenter()),
                        broadcast: false,
                    }),
                }),
                predicate: Expr::col(0).gt_lit(0),
            }),
            aggs: vec![AggSpec::count()],
            names: vec!["cnt".into()],
        };
        assert!(check_relational_requirements(&good).is_ok());
    }

    #[test]
    fn traits_propagate_through_relational_operators() {
        let plan = HetNode::Reduce {
            input: Box::new(HetNode::Unpack {
                input: Box::new(HetNode::MemMove {
                    input: Box::new(HetNode::Cpu2Gpu {
                        input: Box::new(HetNode::Router {
                            input: Box::new(segmenter()),
                            policy: RouterPolicy::LeastLoaded,
                            targets: vec![DeviceTarget::gpu(2)],
                        }),
                    }),
                    broadcast: false,
                }),
            }),
            aggs: vec![AggSpec::count()],
            names: vec!["cnt".into()],
        };
        let t = derive_traits(&plan);
        assert_eq!(t.device, DeviceKind::Gpu);
        assert_eq!(t.dop, 2);
        assert!(t.local);
        assert!(!t.packed);
    }
}
