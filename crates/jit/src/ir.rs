//! The pipeline IR: the fused steps a compiled pipeline executes per tuple.
//!
//! A pipeline is a sequence of *transform* steps (filter, map, hash-join
//! probe) terminated by exactly one *terminal* step (pack an output block,
//! build a hash table, update an aggregate). HetExchange operators are
//! pipeline breakers, so this IR never contains them — they sit *between*
//! pipelines, which is exactly the paper's decomposition (Figure 2c).
//!
//! The IR is device-agnostic. The CPU and GPU lowerings interpret the same
//! steps; only how rows are distributed over workers and how terminal state is
//! updated differs (Figure 3).

use crate::expr::Expr;
use hetex_common::Result;
use hetex_topology::DeviceKind;

/// Discount applied to expression op counts on a CPU core, where the chunk
/// kernel runs column-at-a-time tight loops over dense lanes that amortize
/// per-node dispatch and let the compiler autovectorize, so one nominal
/// "simple operation" costs about half what a GPU thread's per-tuple
/// instruction stream pays. Hash-table work (probe/build/group-by lookups) is
/// *not* discounted — it is per-tuple random access on either device.
pub const VEC_OP_DISCOUNT: f64 = 0.5;

/// Ops charged per surviving lane for refining the selection vector at a
/// filter (one flag test + one compacting index write).
pub const VEC_SELECTION_OPS: f64 = 0.25;

/// Index of a shared state object (hash table, accumulator set, group-by
/// table) created for the query; see [`crate::state::SharedState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateSlot(pub usize);

impl StateSlot {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Aggregate functions supported by reduce / group-by steps. All of them are
/// decomposable, so partial aggregates computed per device can be merged by a
/// final aggregation pipeline (the paper's union router into pipeline 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    Min,
    Max,
}

impl AggFunc {
    /// Neutral element of the aggregate.
    pub fn identity(self) -> i64 {
        match self {
            AggFunc::Sum | AggFunc::Count => 0,
            AggFunc::Min => i64::MAX,
            AggFunc::Max => i64::MIN,
        }
    }

    /// Combine an accumulator with a new input value. Sums and counts wrap
    /// on overflow, like the device atomics the partials are merged with.
    #[inline]
    pub fn accumulate(self, acc: i64, value: i64) -> i64 {
        match self {
            AggFunc::Sum => acc.wrapping_add(value),
            AggFunc::Count => acc.wrapping_add(1),
            AggFunc::Min => acc.min(value),
            AggFunc::Max => acc.max(value),
        }
    }

    /// Merge two partial accumulators.
    #[inline]
    pub fn merge(self, a: i64, b: i64) -> i64 {
        match self {
            AggFunc::Sum | AggFunc::Count => a.wrapping_add(b),
            AggFunc::Min => a.min(b),
            AggFunc::Max => a.max(b),
        }
    }
}

/// One aggregate: a function applied to an expression over the input tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregated expression (ignored for `Count`).
    pub expr: Expr,
    /// The aggregate function.
    pub func: AggFunc,
}

impl AggSpec {
    /// `SUM(expr)`.
    pub fn sum(expr: Expr) -> Self {
        Self { expr, func: AggFunc::Sum }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self { expr: Expr::Lit(1), func: AggFunc::Count }
    }

    /// `MIN(expr)`.
    pub fn min(expr: Expr) -> Self {
        Self { expr, func: AggFunc::Min }
    }

    /// `MAX(expr)`.
    pub fn max(expr: Expr) -> Self {
        Self { expr, func: AggFunc::Max }
    }
}

/// A non-terminal, fused step of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Drop tuples for which the predicate evaluates to false.
    Filter { predicate: Expr },
    /// Replace the register file with the given expressions (projection /
    /// derived columns).
    Map { exprs: Vec<Expr> },
    /// Probe the hash table in `slot` with `key`; matching build payloads are
    /// appended to the registers. Tuples without a match are dropped
    /// (equi-join semantics); a key matching several build tuples fans out.
    HashJoinProbe {
        key: Expr,
        slot: StateSlot,
        /// Number of payload columns the build side stored (the probe's
        /// output width is input width + payload width).
        payload_width: usize,
    },
}

impl Step {
    /// Number of registers after this step, given the width before it.
    pub fn output_width(&self, input_width: usize) -> usize {
        match self {
            Step::Filter { .. } => input_width,
            Step::Map { exprs } => exprs.len(),
            Step::HashJoinProbe { payload_width, .. } => input_width + payload_width,
        }
    }

    /// Approximate simple-operation count per tuple reaching this step on
    /// `device`. A GPU thread runs the per-tuple instruction stream at full
    /// charge; on a CPU core expression work is discounted by
    /// [`VEC_OP_DISCOUNT`] (dense column-at-a-time loops) and a filter adds
    /// [`VEC_SELECTION_OPS`], while per-tuple random hash work keeps its
    /// full charge.
    pub fn ops_per_tuple(&self, device: DeviceKind) -> f64 {
        let (discount, selection_ops) = match device {
            DeviceKind::Gpu => (1.0, 0.0),
            DeviceKind::CpuCore => (VEC_OP_DISCOUNT, VEC_SELECTION_OPS),
        };
        match self {
            Step::Filter { predicate } => predicate.op_count() * discount + selection_ops,
            Step::Map { exprs } => exprs.iter().map(Expr::op_count).sum::<f64>() * discount,
            Step::HashJoinProbe { key, .. } => key.op_count() * discount + 4.0,
        }
    }

    /// Validate register references against the width flowing into this step.
    pub fn check_width(&self, input_width: usize) -> Result<()> {
        match self {
            Step::Filter { predicate } => predicate.check_width(input_width),
            Step::Map { exprs } => exprs.iter().try_for_each(|e| e.check_width(input_width)),
            Step::HashJoinProbe { key, .. } => key.check_width(input_width),
        }
    }
}

/// The terminal step of a pipeline — the materialization point that makes the
/// pipeline a pipeline (HetExchange operators and blocking relational
/// operators are pipeline breakers).
#[derive(Debug, Clone, PartialEq)]
pub enum TerminalStep {
    /// Pack surviving tuples into output blocks of the pipeline's output
    /// layout; this is the generated-code half of the pack operator.
    Pack {
        /// Expressions defining the output columns.
        exprs: Vec<Expr>,
    },
    /// Build the hash table in `slot` keyed by `key` with the given payload
    /// columns (the blocking side of a hash join).
    HashJoinBuild { key: Expr, payload: Vec<Expr>, slot: StateSlot },
    /// Update ungrouped aggregate accumulators in `slot`.
    Reduce { aggs: Vec<AggSpec>, slot: StateSlot },
    /// Update a grouped aggregation table in `slot`.
    GroupBy { keys: Vec<Expr>, aggs: Vec<AggSpec>, slot: StateSlot },
}

impl TerminalStep {
    /// Approximate simple-operation count per tuple reaching the terminal on
    /// `device`: CPU terminals evaluate their expressions column-at-a-time
    /// (discounted by [`VEC_OP_DISCOUNT`]) and accumulate in tight dense
    /// loops, GPU threads pay the full per-tuple charge, and hash-table
    /// inserts/updates stay per-tuple random work on both.
    pub fn ops_per_tuple(&self, device: DeviceKind) -> f64 {
        let expr_ops = match self {
            TerminalStep::Pack { exprs } => exprs.iter().map(Expr::op_count).sum::<f64>(),
            TerminalStep::HashJoinBuild { key, payload, .. } => {
                key.op_count() + payload.iter().map(Expr::op_count).sum::<f64>()
            }
            TerminalStep::Reduce { aggs, .. } => {
                aggs.iter().map(|a| a.expr.op_count()).sum::<f64>()
            }
            TerminalStep::GroupBy { keys, aggs, .. } => {
                keys.iter().map(Expr::op_count).sum::<f64>()
                    + aggs.iter().map(|a| a.expr.op_count()).sum::<f64>()
            }
        };
        // Accumulate/insert work on top of expression evaluation. The hash
        // constant (4.0) is per-tuple random access on either device; the
        // per-aggregate accumulate costs 1.0 per GPU thread, half that in a
        // dense CPU fold.
        let discount = match device {
            DeviceKind::Gpu => 1.0,
            DeviceKind::CpuCore => VEC_OP_DISCOUNT,
        };
        expr_ops * discount
            + match self {
                TerminalStep::Pack { .. } => 0.0,
                TerminalStep::HashJoinBuild { .. } => 4.0,
                TerminalStep::Reduce { aggs, .. } => aggs.len() as f64 * discount,
                TerminalStep::GroupBy { aggs, .. } => aggs.len() as f64 * discount + 4.0,
            }
    }

    /// Bytes of random state access per tuple reaching the terminal (hash
    /// inserts and group-by updates are random; packing and plain reduces are
    /// not).
    pub fn random_bytes_per_tuple(&self) -> f64 {
        match self {
            TerminalStep::Pack { .. } => 0.0,
            TerminalStep::HashJoinBuild { payload, .. } => 16.0 + payload.len() as f64 * 8.0,
            TerminalStep::Reduce { .. } => 0.0,
            TerminalStep::GroupBy { keys, aggs, .. } => {
                16.0 + (keys.len() + aggs.len()) as f64 * 8.0
            }
        }
    }

    /// Validate register references against the width reaching the terminal.
    pub fn check_width(&self, input_width: usize) -> Result<()> {
        let check_all = |exprs: &[Expr]| -> Result<()> {
            exprs.iter().try_for_each(|e| e.check_width(input_width))
        };
        match self {
            TerminalStep::Pack { exprs } => check_all(exprs),
            TerminalStep::HashJoinBuild { key, payload, .. } => {
                key.check_width(input_width)?;
                check_all(payload)
            }
            TerminalStep::Reduce { aggs, .. } => {
                aggs.iter().try_for_each(|a| a.expr.check_width(input_width))
            }
            TerminalStep::GroupBy { keys, aggs, .. } => {
                check_all(keys)?;
                aggs.iter().try_for_each(|a| a.expr.check_width(input_width))
            }
        }
    }

    /// Number of output columns the terminal produces when it emits blocks
    /// (pack: its layout; reduce/group-by: keys + aggregates when finalized;
    /// build: nothing).
    pub fn output_width(&self) -> usize {
        match self {
            TerminalStep::Pack { exprs } => exprs.len(),
            TerminalStep::HashJoinBuild { .. } => 0,
            TerminalStep::Reduce { aggs, .. } => aggs.len(),
            TerminalStep::GroupBy { keys, aggs, .. } => keys.len() + aggs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_identities_and_accumulation() {
        assert_eq!(AggFunc::Sum.identity(), 0);
        assert_eq!(AggFunc::Min.identity(), i64::MAX);
        assert_eq!(AggFunc::Max.identity(), i64::MIN);
        assert_eq!(AggFunc::Sum.accumulate(10, 5), 15);
        assert_eq!(AggFunc::Count.accumulate(10, 999), 11);
        assert_eq!(AggFunc::Min.accumulate(10, 5), 5);
        assert_eq!(AggFunc::Max.accumulate(10, 5), 10);
        assert_eq!(AggFunc::Sum.merge(3, 4), 7);
        assert_eq!(AggFunc::Min.merge(3, 4), 3);
        assert_eq!(AggFunc::Max.merge(3, 4), 4);
        assert_eq!(AggFunc::Count.merge(3, 4), 7);
        // Overflow wraps in every build profile, like `DeviceAtomicI64::fetch_add`.
        assert_eq!(AggFunc::Sum.accumulate(i64::MAX, 1), i64::MIN);
        assert_eq!(AggFunc::Count.accumulate(i64::MAX, 0), i64::MIN);
        assert_eq!(AggFunc::Sum.merge(i64::MIN, -1), i64::MAX);
    }

    #[test]
    fn step_output_widths() {
        assert_eq!(Step::Filter { predicate: Expr::lit(1) }.output_width(5), 5);
        assert_eq!(Step::Map { exprs: vec![Expr::col(0), Expr::col(2)] }.output_width(5), 2);
        let probe = Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 3 };
        assert_eq!(probe.output_width(2), 5);
    }

    #[test]
    fn width_checks_catch_bad_registers() {
        let bad_filter = Step::Filter { predicate: Expr::col(4).gt_lit(0) };
        assert!(bad_filter.check_width(3).is_err());
        assert!(bad_filter.check_width(5).is_ok());
        let bad_pack = TerminalStep::Pack { exprs: vec![Expr::col(9)] };
        assert!(bad_pack.check_width(2).is_err());
    }

    #[test]
    fn terminal_metadata() {
        let reduce = TerminalStep::Reduce {
            aggs: vec![AggSpec::sum(Expr::col(0)), AggSpec::count()],
            slot: StateSlot(1),
        };
        assert_eq!(reduce.output_width(), 2);
        assert!(reduce.random_bytes_per_tuple() == 0.0);
        let groupby = TerminalStep::GroupBy {
            keys: vec![Expr::col(0), Expr::col(1)],
            aggs: vec![AggSpec::sum(Expr::col(2))],
            slot: StateSlot(0),
        };
        assert_eq!(groupby.output_width(), 3);
        assert!(groupby.random_bytes_per_tuple() > 0.0);
        let build = TerminalStep::HashJoinBuild {
            key: Expr::col(0),
            payload: vec![Expr::col(1)],
            slot: StateSlot(0),
        };
        assert_eq!(build.output_width(), 0);
        assert!(build.ops_per_tuple(DeviceKind::Gpu) > 0.0);
    }

    #[test]
    fn vectorized_op_counts_discount_expressions_but_not_hash_work() {
        let (cpu, gpu) = (DeviceKind::CpuCore, DeviceKind::Gpu);
        let fat = Expr::col(0).between(1, 9).and(Expr::col(1).in_list(vec![1, 2, 3, 4]));
        let filter = Step::Filter { predicate: fat };
        // Filters are cheaper under the CPU's chunked shape.
        assert!(filter.ops_per_tuple(cpu) < filter.ops_per_tuple(gpu));

        // A probe's hash lookup keeps its full per-tuple charge: only the key
        // expression is discounted.
        let probe = Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 };
        assert!(probe.ops_per_tuple(cpu) >= 4.0);
        assert!(probe.ops_per_tuple(cpu) < probe.ops_per_tuple(gpu));

        // Terminals: group-by keeps its hash constant, reduce halves its
        // dense accumulate.
        let gb = TerminalStep::GroupBy {
            keys: vec![Expr::col(0)],
            aggs: vec![AggSpec::sum(Expr::col(1))],
            slot: StateSlot(0),
        };
        assert!(gb.ops_per_tuple(cpu) >= 4.0);
        assert!(gb.ops_per_tuple(cpu) < gb.ops_per_tuple(gpu));
        let red = TerminalStep::Reduce {
            aggs: vec![AggSpec::sum(Expr::col(0)), AggSpec::count()],
            slot: StateSlot(0),
        };
        assert!(red.ops_per_tuple(cpu) < red.ops_per_tuple(gpu));
    }

    #[test]
    fn agg_spec_constructors() {
        assert_eq!(AggSpec::count().func, AggFunc::Count);
        assert_eq!(AggSpec::sum(Expr::col(1)).func, AggFunc::Sum);
        assert_eq!(AggSpec::min(Expr::col(1)).func, AggFunc::Min);
        assert_eq!(AggSpec::max(Expr::col(1)).func, AggFunc::Max);
        assert_eq!(StateSlot(3).index(), 3);
    }
}
