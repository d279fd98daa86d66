//! The chunk kernel: chunked, selection-vector execution of the step IR.
//!
//! This is the CPU lowering, and the kernel the GPU lowering schedules. It
//! runs a pipeline's fused IR over chunks of [`VEC_CHUNK`] tuples:
//!
//! * every expression was specialised once, when the pipeline was compiled,
//!   to a [`Shape`]: an `And`-tree of column-vs-literal atoms, a value of at
//!   most two leaves (a column or a literal) under wrapping `+ − ×`, or the
//!   tree walker ([`Expr::eval_batch`]) for anything else. A leaf reads a
//!   lazy input register straight from the block's window at its physical
//!   width (`&[i32]` / `&[i64]`), any other register from its column;
//! * the chunk's registers are columns (`Vec<i64>`), indexed by row. An
//!   input register is *lazy* at chunk start: the first tree-walked
//!   expression that reads it widens it from the window at the selected rows
//!   only — the leading rows while the selection is the identity;
//! * `Step::Filter` refines a `u32` **selection vector** in place, one atom
//!   at a time; any other predicate is evaluated into a dense flag buffer
//!   that [`refine_selection`] compacts the selection with. No tuple moves;
//! * a probe is one pass over the selection, contiguous under the identity,
//!   that reads each row's key through the same leaves, resolves its chain
//!   head and emits its match (`JoinProbe::probe_rows`). Against unique
//!   keys it narrows the selection and the payload registers are written at
//!   the rows it keeps; `Step::Map` and a probe that fans out evaluate into
//!   pooled scratch ([`ScratchPool`]), producing a dense chunk under the
//!   identity selection (a fan-out reads every lazy register first);
//! * the terminal consumes the final selection in one pass, with chunk-local
//!   state merged into shared state once per *block* (the CPU provider's
//!   worker-scoped atomic): a reduce folds its values straight from their
//!   columns, a hash build appends its keys and payload straight to the
//!   block's build buffers for one insert per block, a group-by packs its
//!   keys into cell offsets and folds each aggregate from its leaves into
//!   the instance's partials (merged once, by `finalize_instance`), a pack
//!   writes its values straight into the instance's open output block,
//!   each value once.
//!
//! The scratch ([`VecScratch`]) lives in the instance's [`ExecCtx`], so every
//! chunk of every block reuses the same buffers. Row order is the depth-first
//! order of a per-tuple interpreter of the same steps; the unit tests below
//! pin rows, block boundaries and counters against one.
//!
//! The GPU lowering ([`crate::lower_gpu`]) runs this same chunk kernel over
//! tiles of 32 warps: the two devices share one kernel and differ in
//! schedule and in what is counted (one atomic per active warp, and the
//! launch).

use crate::expr::{Expr, ScratchPool};
use crate::ir::{AggFunc, AggSpec, Step, TerminalStep};
use crate::pipeline::{BlockCounters, CompiledPipeline, ExecCtx};
use crate::state::{FlatGroups, JoinMatches, JoinProbe, SharedState};
use hetex_common::{BlockHandle, ColumnRef, Result};

/// Tuples per chunk: a handful of `i64` register columns plus scratch (tens
/// of KiB) stay L1/L2-resident, and per-chunk setup is amortized over a
/// thousand tuples.
pub const VEC_CHUNK: usize = 1024;

/// Refine a selection vector in place: keep `sel[j]`, in order, exactly when
/// `flags[j] != 0` (`flags` is dense, aligned with `sel`).
pub fn refine_selection(sel: &mut Vec<u32>, flags: &[i64]) {
    debug_assert_eq!(sel.len(), flags.len());
    retain(sel, |j, _| flags[j] != 0);
}

/// The chunk kernel's scratch. It lives in the instance's [`ExecCtx`], so
/// every buffer grows to chunk size once per instance and the steady-state
/// chunk loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct VecScratch {
    /// The chunk's register columns, indexed by row: valid at the selected
    /// rows only. Columns past the current width are spares.
    regs: Vec<Vec<i64>>,
    /// Per input register: true while it is not yet read from the block.
    lazy: Vec<bool>,
    /// Surviving selection: row indexes into `regs`, ascending.
    sel: Vec<u32>,
    /// Dense predicate / tree-walked key / aggregate buffers.
    flags: Vec<i64>,
    /// The build rows of the chunk's last probe, and its probed rows after
    /// a fan-out.
    matches: JoinMatches,
    /// Rentable intermediate buffers for expression evaluation.
    pool: ScratchPool,
    /// Emptied column sets, so renting columns allocates no outer `Vec`.
    sets: Vec<Vec<Vec<i64>>>,
    /// A hash build's key column, then its payload columns: appended chunk
    /// by chunk and inserted once per block.
    pub(crate) build: Vec<Vec<i64>>,
    /// A group-by chunk's cell offsets or group indexes, one per lane; a
    /// pack's whole selection while it feeds it a piece at a time.
    ids: Vec<u32>,
}

/// The input rows of the current chunk: `columns[..][base..base + len]`.
#[derive(Clone, Copy)]
struct Window<'a> {
    columns: &'a [ColumnRef<'a>],
    base: usize,
    len: usize,
}

impl<'a> Window<'a> {
    /// Where `leaf` is read: a lazy input register from this window at its
    /// physical width, any other register from its column in `regs`.
    fn src(self, leaf: Leaf, lazy: &[bool], regs: &'a [Vec<i64>]) -> Src<'a> {
        let rows = self.base..self.base + self.len;
        match leaf {
            Leaf::Lit(v) => Src::Lit(v),
            Leaf::Reg(r) if lazy.get(r) != Some(&true) => Src::I64(&regs[r]),
            Leaf::Reg(r) => match self.columns[r] {
                ColumnRef::Int64(v) => Src::I64(&v[rows]),
                ColumnRef::Int32(v) => Src::I32(&v[rows]),
            },
        }
    }
}

/// The kernel one expression runs, chosen once per pipeline by [`shapes`]:
/// an `And`-tree of atoms, applied in order, each refining the selection;
/// `a op b` over two leaves (a lone leaf `a` is `a + 0`); or the tree walker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Shape {
    Atoms(Vec<Atom>),
    Value(Leaf, Op, Leaf),
    Tree,
}

/// `lo <= reg <= hi` in `i64` (empty when `lo > hi`), or `reg IN (list)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Atom {
    Range(usize, i64, i64),
    In(usize, Vec<i64>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Leaf {
    Reg(usize),
    Lit(i64),
}

/// Wrapping `+ − ×`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    Add,
    Sub,
    Mul,
}

impl std::fmt::Display for Shape {
    /// How [`CompiledPipeline::explain`] names an expression's kernel.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let leaf = |l: &Leaf| match l {
            Leaf::Reg(r) => format!("r{r}"),
            Leaf::Lit(v) => v.to_string(),
        };
        match self {
            Shape::Atoms(atoms) => write!(f, "specialised, {} atom(s)", atoms.len()),
            Shape::Value(a, op, b) => {
                let op = match op {
                    Op::Add => '+',
                    Op::Sub => '-',
                    Op::Mul => '*',
                };
                write!(f, "specialised, {} {op} {}", leaf(a), leaf(b))
            }
            Shape::Tree => f.write_str("tree-walked"),
        }
    }
}

fn leaf(expr: &Expr) -> Option<Leaf> {
    match *expr {
        Expr::Col(r) => Some(Leaf::Reg(r)),
        Expr::Lit(v) => Some(Leaf::Lit(v)),
        _ => None,
    }
}

/// A predicate's atoms, if it is an `And`-tree of them: `Lit op Col` is
/// `Col op' Lit` mirrored, and a bound past `i64` leaves the range empty.
fn atoms(expr: &Expr) -> Option<Vec<Atom>> {
    let reg = |e: &Expr| if let Expr::Col(r) = *e { Some(r) } else { None };
    let ((a, b), less, eq, greater) = match expr {
        Expr::And(a, b) => return Some([atoms(a)?, atoms(b)?].concat()),
        Expr::Between(a, lo, hi) => return Some(vec![Atom::Range(reg(a)?, *lo, *hi)]),
        Expr::InList(a, list) => return Some(vec![Atom::In(reg(a)?, list.clone())]),
        Expr::Eq(a, b) => ((a, b), false, true, false),
        Expr::Lt(a, b) => ((a, b), true, false, false),
        Expr::Le(a, b) => ((a, b), true, true, false),
        Expr::Gt(a, b) => ((a, b), false, false, true),
        Expr::Ge(a, b) => ((a, b), false, true, true),
        _ => return None,
    };
    let (r, v, less, greater) = match (leaf(a)?, leaf(b)?) {
        (Leaf::Reg(r), Leaf::Lit(v)) => (r, v, less, greater),
        (Leaf::Lit(v), Leaf::Reg(r)) => (r, v, greater, less),
        _ => return None,
    };
    let lo = if less { Some(i64::MIN) } else { eq.then_some(v).or(v.checked_add(1)) };
    let hi = if greater { Some(i64::MAX) } else { eq.then_some(v).or(v.checked_sub(1)) };
    Some(vec![lo.zip(hi).map_or(Atom::Range(r, 1, 0), |(lo, hi)| Atom::Range(r, lo, hi))])
}

/// A leaf, or two leaves under wrapping `+ − ×`.
fn value(expr: &Expr) -> Shape {
    let (a, op, b) = match expr {
        Expr::Add(a, b) => (leaf(a), Op::Add, leaf(b)),
        Expr::Sub(a, b) => (leaf(a), Op::Sub, leaf(b)),
        Expr::Mul(a, b) => (leaf(a), Op::Mul, leaf(b)),
        e => (leaf(e), Op::Add, Some(Leaf::Lit(0))),
    };
    a.zip(b).map_or(Shape::Tree, |(a, b)| Shape::Value(a, op, b))
}

/// The shapes of a pipeline's expressions: a list per step, then one for the
/// terminal, each in the order the kernel reads them.
pub(crate) fn shapes(steps: &[Step], terminal: &TerminalStep) -> Vec<Vec<Shape>> {
    let values = |exprs: Vec<&Expr>| exprs.into_iter().map(value).collect();
    let mut shapes: Vec<Vec<Shape>> = steps
        .iter()
        .map(|step| match step {
            Step::Filter { predicate } => vec![atoms(predicate).map_or(Shape::Tree, Shape::Atoms)],
            Step::Map { exprs } => values(exprs.iter().collect()),
            Step::HashJoinProbe { key, .. } => vec![value(key)],
        })
        .collect();
    shapes.push(values(match terminal {
        TerminalStep::Pack { exprs } => exprs.iter().collect(),
        TerminalStep::HashJoinBuild { key, payload, .. } => {
            [key].into_iter().chain(payload).collect()
        }
        TerminalStep::Reduce { aggs, .. } => aggs.iter().map(|a| &a.expr).collect(),
        TerminalStep::GroupBy { keys, aggs, .. } => {
            keys.iter().chain(aggs.iter().map(|a| &a.expr)).collect()
        }
    }));
    shapes
}

/// Where a leaf's rows are read.
#[derive(Clone, Copy)]
enum Src<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    Lit(i64),
}

/// One past the last selected row: `sel` is the identity exactly when as long.
fn end(sel: &[u32]) -> usize {
    sel.last().map_or(0, |&r| r as usize + 1)
}

/// A reader of the rows below `end` of a column, at its physical width and
/// sign-extended; cut at `end`, a dense loop up to it has no bounds checks.
fn wide<T: Copy + Into<i64>>(v: &[T], end: usize) -> impl Fn(usize) -> i64 + Copy + '_ {
    let v = &v[..end];
    move |r| v[r].into()
}

fn with<A, R>(at: A, body: impl FnOnce(A) -> R) -> R {
    body(at)
}

/// Run `$body` with `$at` bound to the reader of `$src`'s rows below `$end`.
macro_rules! reader {
    ($src:expr, $end:expr, $at:ident => $body:expr) => {
        match $src {
            Src::I32(v) => with(wide(v, $end), |$at| $body),
            Src::I64(v) => with(wide(v, $end), |$at| $body),
            Src::Lit(v) => with(move |_: usize| v, |$at| $body),
        }
    };
}

/// Run `$body` with `$at` bound to the reader of value shape `$a $op $b`'s
/// rows below `$end`.
macro_rules! value_reader {
    ($a:expr, $op:expr, $b:expr, $end:expr, $at:ident => $body:expr) => {
        reader!($a, $end, a => reader!($b, $end, b => match $op {
            Op::Add => with(move |r: usize| a(r).wrapping_add(b(r)), |$at| $body),
            Op::Sub => with(move |r: usize| a(r).wrapping_sub(b(r)), |$at| $body),
            Op::Mul => with(move |r: usize| a(r).wrapping_mul(b(r)), |$at| $body),
        }))
    };
}

/// What a value's lanes feed.
trait Lanes {
    fn take(self, lanes: impl Iterator<Item = i64>);
}

/// Where a value's lanes go: onto a buffer, or into a `SUM`/`MIN`/`MAX`.
enum Sink<'o> {
    Out(&'o mut Vec<i64>),
    Fold(AggFunc, &'o mut i64),
}

/// A group key's lanes pack into cell offsets (the flag clears if one is
/// outside the box), an aggregate's fold into those cells. A type of their
/// own keeps them out of the other terminals' kernels.
enum GroupSink<'o> {
    Pack(&'o FlatGroups, usize, &'o mut [u32], &'o mut bool),
    Fold(&'o mut FlatGroups, usize, &'o [u32]),
}

/// Feed `sink` with `at` of each selected row, all below `end`: the rows
/// `0..end` in a contiguous pass under the identity selection.
fn combine(at: impl Fn(usize) -> i64, sel: &[u32], end: usize, sink: impl Lanes) {
    if end == sel.len() {
        sink.take((0..end).map(at));
    } else {
        sink.take(sel.iter().map(|&r| at(r as usize)));
    }
}

impl Lanes for Sink<'_> {
    fn take(self, lanes: impl Iterator<Item = i64>) {
        match self {
            Sink::Out(out) => out.extend(lanes),
            Sink::Fold(AggFunc::Min, acc) => *acc = lanes.fold(*acc, i64::min),
            Sink::Fold(AggFunc::Max, acc) => *acc = lanes.fold(*acc, i64::max),
            Sink::Fold(_, acc) => *acc = lanes.fold(*acc, i64::wrapping_add),
        }
    }
}

impl Lanes for GroupSink<'_> {
    fn take(self, lanes: impl Iterator<Item = i64>) {
        match self {
            GroupSink::Pack(groups, c, ids, inside) => *inside &= groups.pack(c, lanes, ids),
            GroupSink::Fold(groups, i, ids) => groups.fold(i, lanes, ids),
        }
    }
}

/// Keep `sel[j]` exactly when `keep(j, sel[j])`, in order.
fn retain(sel: &mut Vec<u32>, keep: impl Fn(usize, usize) -> bool) {
    let mut kept = 0;
    for j in 0..sel.len() {
        let r = sel[j];
        sel[kept] = r;
        kept += keep(j, r as usize) as usize;
    }
    sel.truncate(kept);
}

impl VecScratch {
    /// Rent `n` cleared columns from the pool.
    fn rent_columns(&mut self, n: usize) -> Vec<Vec<i64>> {
        let mut cols = self.sets.pop().unwrap_or_default();
        cols.extend((0..n).map(|_| self.pool.acquire()));
        cols
    }

    /// Return rented columns to the pool.
    fn release_columns(&mut self, mut cols: Vec<Vec<i64>>) {
        for col in cols.drain(..) {
            self.pool.release(col);
        }
        self.sets.push(cols);
    }

    /// Make room for `width` registers.
    fn reserve_registers(&mut self, width: usize) {
        if self.regs.len() < width {
            self.regs.resize_with(width, Vec::new);
        }
    }

    /// Start a chunk of `len` rows: every input register lazy, every row
    /// selected.
    fn start_chunk(&mut self, width: usize, len: usize) {
        self.reserve_registers(width);
        self.lazy.clear();
        self.lazy.resize(width, true);
        self.sel.clear();
        self.sel.extend(0..len as u32);
    }

    /// Replace the chunk's first registers with `cols`, returning the old
    /// columns to the pool, and reset the selection to the identity over
    /// `len` dense lanes.
    fn install_dense(&mut self, mut cols: Vec<Vec<i64>>, len: usize) {
        self.reserve_registers(cols.len());
        for (reg, col) in self.regs.iter_mut().zip(cols.iter_mut()) {
            std::mem::swap(reg, col);
        }
        self.release_columns(cols);
        self.lazy.clear();
        self.sel.clear();
        self.sel.extend(0..len as u32);
    }

    /// Widen register `r` from the block window at the selected rows, if it
    /// is still lazy, leaving the other rows as they were.
    fn gather(&mut self, r: usize, window: Window<'_>) {
        if self.lazy.get(r) == Some(&true) {
            // A lazy register is read from the window, never from `regs`.
            let (s, sel, end) =
                (window.src(Leaf::Reg(r), &self.lazy, &[]), &self.sel, end(&self.sel));
            let dst = &mut self.regs[r];
            dst.resize(dst.len().max(end), 0);
            reader!(s, end, at => sel.iter().for_each(|&r| dst[r as usize] = at(r as usize)));
            self.lazy[r] = false;
        }
    }

    /// Narrow the selection to the rows that pass `atom`.
    fn refine(&mut self, atom: &Atom, window: Window<'_>) {
        let (Atom::Range(r, ..) | Atom::In(r, _)) = atom;
        let (s, sel) = (window.src(Leaf::Reg(*r), &self.lazy, &self.regs), &mut self.sel);
        let end = end(sel);
        match atom {
            _ if sel.is_empty() => {}
            Atom::Range(_, lo, hi) => {
                reader!(s, end, v => retain(sel, |_, r| (*lo..=*hi).contains(&v(r))))
            }
            Atom::In(_, list) => reader!(s, end, v => retain(sel, |_, r| list.contains(&v(r)))),
        }
    }

    /// Feed the value shape `a op b` at the selected rows to `sink`.
    fn value(&self, shape: &Shape, window: Window<'_>, sink: impl Lanes) {
        let &Shape::Value(a, op, b) = shape else { unreachable!("not a value: {shape:?}") };
        let (sel, end) = (&self.sel, end(&self.sel));
        let (a, b) = (window.src(a, &self.lazy, &self.regs), window.src(b, &self.lazy, &self.regs));
        value_reader!(a, op, b, end, at => combine(at, sel, end, sink))
    }

    /// Feed `expr`, of shape `shape`, at the selected rows to `sink`: a value
    /// straight from its leaves, any other shape through the flag buffer.
    fn feed(&mut self, expr: &Expr, shape: &Shape, window: Window<'_>, sink: impl Lanes) {
        if let Shape::Value(..) = shape {
            return self.value(shape, window, sink);
        }
        let mut values = std::mem::take(&mut self.flags);
        self.eval(expr, shape, window, &mut values);
        sink.take(values.iter().copied());
        self.flags = values;
    }

    /// Probe `table` with `key`, of shape `shape`, at the selected rows in
    /// one pass: a value reads each key straight from its leaves, a tree is
    /// evaluated into a buffer first.
    fn probe(&mut self, key: &Expr, shape: &Shape, table: &JoinProbe<'_>, window: Window<'_>) {
        if let &Shape::Value(a, op, b) = shape {
            let (a, b) =
                (window.src(a, &self.lazy, &self.regs), window.src(b, &self.lazy, &self.regs));
            let (end, sel, matches) = (end(&self.sel), &mut self.sel, &mut self.matches);
            value_reader!(a, op, b, end, at => table.probe_rows(sel, move |_, r| at(r), matches))
        } else {
            let mut keys = std::mem::take(&mut self.flags);
            self.eval(key, shape, window, &mut keys);
            table.probe_rows(&mut self.sel, |j, _| keys[j], &mut self.matches);
            self.flags = keys;
        }
    }

    /// Evaluate `expr`, of shape `shape`, over the selection into `out`.
    fn eval(&mut self, expr: &Expr, shape: &Shape, window: Window<'_>, out: &mut Vec<i64>) {
        if let Shape::Value(..) = shape {
            out.clear();
            return self.value(shape, window, Sink::Out(out));
        }
        expr.for_each_register(&mut |r| self.gather(r, window));
        expr.eval_batch(&self.regs, &self.sel, out, &mut self.pool);
    }

    /// Evaluate each of `exprs`, of its shape in `shapes`, into a rented column.
    fn eval_columns<'e>(
        &mut self,
        exprs: impl Iterator<Item = &'e Expr>,
        shapes: &[Shape],
        window: Window<'_>,
    ) -> Vec<Vec<i64>> {
        let mut cols = self.rent_columns(shapes.len());
        for ((col, expr), shape) in cols.iter_mut().zip(exprs).zip(shapes) {
            self.eval(expr, shape, window, col);
        }
        cols
    }
}

/// Process one block with the chunk kernel: the hot path is chunked and
/// column-at-a-time, and output rows, their order and the counters are those
/// of a per-tuple walk of the same steps.
pub(crate) fn process_block(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let mut scratch = std::mem::take(&mut ctx.scratch);
    let processed = process_chunks(pipeline, block, state, ctx, &mut scratch);
    ctx.scratch = scratch;
    processed
}

// Kept out of line: inlined into `process_block`, the chunk loop's code
// layout cost `scan_cpu` several percent.
#[inline(never)]
fn process_chunks(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
    scratch: &mut VecScratch,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let rows = block.rows();
    let data = block.block();
    let columns: Vec<ColumnRef<'_>> = data.columns().collect();
    let mut counters = BlockCounters {
        rows_in: rows as u64,
        bytes_in: data.byte_size() as u64,
        ..Default::default()
    };

    // Block-local terminal state, merged into shared state once per block
    // (the CPU provider's worker-scoped atomic); the group partials gather
    // every block of the instance. The group table, the build buffers and
    // the open pack blocks live in the context or the scratch: cleared or
    // carried over, not reallocated, per block.
    let mut partials = Vec::new();
    match pipeline.terminal() {
        TerminalStep::Reduce { aggs, .. } => {
            partials.extend(aggs.iter().map(|a| a.func.identity()))
        }
        TerminalStep::GroupBy { keys, aggs, .. } if ctx.local_groups.is_empty() => {
            ctx.local_groups.reset(keys.len(), aggs)
        }
        TerminalStep::HashJoinBuild { payload, .. } => {
            scratch.build.resize_with(1 + payload.len(), Vec::new);
            for buf in &mut scratch.build {
                buf.clear();
                ctx.arena.reserve(buf, rows);
            }
        }
        _ => {}
    }
    ctx.open_pack(pipeline.terminal());
    let mut outputs: Vec<BlockHandle> = Vec::new();

    let (steps, terminal) = (pipeline.steps(), pipeline.terminal());
    let (shapes, step_shapes) = pipeline.shapes.split_last().expect("the terminal's shapes");
    // One lookup and one read guard per probed table per block.
    let tables = steps.iter().map(|step| match step {
        Step::HashJoinProbe { slot, payload_width, .. } => {
            state.hash_table_of_width(*slot, *payload_width).map(|t| Some(t.read()))
        }
        _ => Ok(None),
    });
    let tables = tables.collect::<Result<Vec<_>>>()?;

    let mut base = 0usize;
    while base < rows {
        let len = (rows - base).min(VEC_CHUNK);
        let window = Window { columns: &columns, base, len };
        scratch.start_chunk(columns.len(), len);

        // The fused step chain over the chunk.
        let mut width = pipeline.input_width();
        for ((step, shapes), table) in steps.iter().zip(step_shapes).zip(&tables) {
            if scratch.sel.is_empty() {
                break;
            }
            match step {
                Step::Filter { predicate } => match &shapes[0] {
                    Shape::Atoms(atoms) => atoms.iter().for_each(|a| scratch.refine(a, window)),
                    shape => {
                        let mut flags = std::mem::take(&mut scratch.flags);
                        scratch.eval(predicate, shape, window, &mut flags);
                        refine_selection(&mut scratch.sel, &flags);
                        scratch.flags = flags;
                    }
                },
                Step::Map { exprs } => {
                    let lanes = scratch.sel.len();
                    let mapped = scratch.eval_columns(exprs.iter(), shapes, window);
                    scratch.install_dense(mapped, lanes);
                    width = exprs.len();
                }
                Step::HashJoinProbe { key, payload_width, .. } => {
                    let table = table.as_ref().expect("a probe step's table");
                    counters.probes += scratch.sel.len() as u64;
                    scratch.probe(key, &shapes[0], table, window);
                    let matches = std::mem::take(&mut scratch.matches);
                    let (lanes, matched) = (&matches.lanes, &matches.rows);
                    counters.probe_matches += matched.len() as u64;
                    if table.unique_keys() {
                        // At most one match per row: the registers stay
                        // where they are, and the payload lands at the
                        // narrowed selection.
                        let end = end(&scratch.sel);
                        scratch.reserve_registers(width + payload_width);
                        let payload = &mut scratch.regs[width..width + payload_width];
                        for (c, reg) in payload.iter_mut().enumerate() {
                            reg.resize(reg.len().max(end), 0);
                            table.scatter_payload(c, matched, &scratch.sel, reg);
                        }
                    } else {
                        // A fan-out re-gathers every register densely, the
                        // lazy ones straight from the window.
                        let mut out_cols = scratch.rent_columns(width + payload_width);
                        let end = end(&scratch.sel);
                        for (c, out) in out_cols.iter_mut().enumerate() {
                            if c < width {
                                let s = window.src(Leaf::Reg(c), &scratch.lazy, &scratch.regs);
                                let rows = lanes.iter().map(|&r| r as usize);
                                reader!(s, end, at => out.extend(rows.map(at)));
                            } else {
                                table.gather_payload(c - width, matched, out);
                            }
                        }
                        scratch.install_dense(out_cols, matched.len());
                    }
                    scratch.matches = matches;
                    width += payload_width;
                }
            }
        }

        // Terminal: consume the surviving selection in one pass.
        counters.rows_terminal += scratch.sel.len() as u64;
        if !scratch.sel.is_empty() {
            match terminal {
                TerminalStep::Pack { exprs } => {
                    pack_rows(scratch, ctx, (exprs, shapes), window, (&mut outputs, &mut counters))?
                }
                TerminalStep::HashJoinBuild { key, payload, .. } => {
                    // Each value lands straight in its build buffer.
                    let mut build = std::mem::take(&mut scratch.build);
                    let exprs = std::iter::once(key).chain(payload).zip(shapes);
                    for ((expr, shape), to) in exprs.zip(&mut build) {
                        scratch.feed(expr, shape, window, Sink::Out(to));
                    }
                    scratch.build = build;
                }
                TerminalStep::Reduce { aggs, .. } => {
                    // Dense folds into the block-local partials.
                    let lanes = scratch.sel.len() as i64;
                    for ((agg, shape), acc) in aggs.iter().zip(shapes).zip(&mut partials) {
                        match agg.func {
                            AggFunc::Count => *acc = acc.wrapping_add(lanes),
                            func => scratch.feed(&agg.expr, shape, window, Sink::Fold(func, acc)),
                        }
                    }
                }
                TerminalStep::GroupBy { keys, aggs, .. } => {
                    fold_groups(scratch, &mut ctx.local_groups, (keys, aggs), shapes, window)
                }
            }
        }
        base += len;
    }

    // One shared-state merge per block: the CPU provider's worker-scoped
    // atomic, after the probe guards are released; a group-by's is charged
    // here and made by `finalize_instance`.
    drop(tables);
    match terminal {
        TerminalStep::Reduce { aggs, slot } => {
            state.accumulators(*slot)?.merge_partials(&partials);
            counters.atomics += aggs.len() as u64;
        }
        TerminalStep::GroupBy { .. } => counters.atomics += u64::from(counters.rows_terminal > 0),
        TerminalStep::HashJoinBuild { payload, slot, .. } => {
            let (keys, payload_cols) = scratch.build.split_first().expect("the build's key column");
            state.hash_table_of_width(*slot, payload.len())?.insert_batch(keys, payload_cols);
            counters.atomics += keys.len() as u64;
        }
        TerminalStep::Pack { .. } => {}
    }

    Ok((outputs, counters))
}

/// Append the chunk's selected rows to the open block, emitting each block
/// the moment it fills, so blocks leave in fill order and each holds a run
/// of the lane order. Every value is written once, straight into the block
/// it lands in: a chunk that crosses a block boundary feeds one piece of its
/// selection per block, after gathering its registers over the whole
/// selection so that every piece reads them.
#[inline(never)]
fn pack_rows(
    scratch: &mut VecScratch,
    ctx: &mut ExecCtx,
    (exprs, shapes): (&[Expr], &[Shape]),
    window: Window<'_>,
    (outputs, counters): (&mut Vec<BlockHandle>, &mut BlockCounters),
) -> Result<()> {
    let (capacity, lanes) = (ctx.out_capacity.max(1), scratch.sel.len());
    let pieces = ctx.open.rows + lanes > capacity;
    if pieces {
        exprs.iter().for_each(|e| e.for_each_register(&mut |r| scratch.gather(r, window)));
        std::mem::swap(&mut scratch.sel, &mut scratch.ids);
    }
    let mut start = 0;
    while start < lanes {
        let end = lanes.min(start + capacity.saturating_sub(ctx.open.rows));
        if pieces {
            scratch.sel.clear();
            scratch.sel.extend_from_slice(&scratch.ids[start..end]);
        }
        for ((expr, shape), column) in exprs.iter().zip(shapes).zip(&mut ctx.open.columns) {
            scratch.feed(expr, shape, window, Sink::Out(column));
        }
        ctx.open.rows += end - start;
        start = end;
        if ctx.open.rows >= capacity {
            outputs.push(ctx.flush_full(counters)?);
        }
    }
    Ok(())
}

/// Fold the chunk's selected rows into a lane's group partials: keys pack
/// into cell offsets from their leaves while the table's box holds them all,
/// else they are evaluated and located; each aggregate then folds from its
/// leaves, and a `COUNT` reads nothing.
#[inline(never)]
fn fold_groups(
    scratch: &mut VecScratch,
    groups: &mut FlatGroups,
    (keys, aggs): (&[Expr], &[AggSpec]),
    shapes: &[Shape],
    window: Window<'_>,
) {
    let (key_shapes, agg_shapes) = shapes.split_at(keys.len());
    let mut ids = std::mem::take(&mut scratch.ids);
    ids.clear();
    ids.resize(scratch.sel.len(), 0);
    let mut inside = groups.is_boxed();
    for (c, (key, shape)) in keys.iter().zip(key_shapes).enumerate() {
        if inside {
            scratch.feed(key, shape, window, GroupSink::Pack(groups, c, &mut ids, &mut inside));
        }
    }
    if inside {
        groups.claim(&mut ids);
    } else {
        let cols = scratch.eval_columns(keys.iter(), key_shapes, window);
        groups.locate(&cols, &mut ids);
        scratch.release_columns(cols);
    }
    for (i, (agg, shape)) in aggs.iter().zip(agg_shapes).enumerate() {
        match agg.func {
            AggFunc::Count => groups.fold(i, std::iter::repeat(0), &ids),
            _ => scratch.feed(&agg.expr, shape, window, GroupSink::Fold(groups, i, &ids)),
        }
    }
    scratch.ids = ids;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot};
    use crate::state::StateArena;
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
    use hetex_topology::DeviceKind;
    use std::sync::Arc;

    fn block_of(cols: Vec<Vec<i64>>) -> BlockHandle {
        let rows = cols[0].len();
        let block = Block::new(cols.into_iter().map(ColumnData::Int64).collect(), rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    /// Run the same pipeline shape through the chunk kernel and the per-tuple
    /// interpreter and require byte-identical outputs (blocks, order,
    /// counters).
    fn assert_modes_agree(
        steps: Vec<Step>,
        terminal: TerminalStep,
        cols: Vec<Vec<i64>>,
        mk_state: impl Fn() -> SharedState,
        check: impl Fn(&SharedState, &[BlockHandle]),
    ) {
        let width = cols.len();
        let pipeline =
            CompiledPipeline::new(PipelineId::new(77), DeviceKind::CpuCore, width, steps, terminal)
                .unwrap();
        let block = block_of(cols);

        let run = |vectorized: bool| {
            let state = mk_state();
            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 100);
            let (mut blocks, counters) = if vectorized {
                process_block(&pipeline, &block, &state, &mut ctx).unwrap()
            } else {
                crate::lower_cpu::process_block(&pipeline, &block, &state, &mut ctx).unwrap()
            };
            let tail = pipeline.finalize_instance(&state, &mut ctx).unwrap();
            blocks.extend(tail.blocks);
            (state, blocks, counters)
        };
        let (vstate, vblocks, vcount) = run(true);
        let (tstate, tblocks, tcount) = run(false);

        assert_eq!(vcount, tcount, "counters diverged");
        assert_eq!(vblocks.len(), tblocks.len(), "block count diverged");
        for (vb, tb) in vblocks.iter().zip(&tblocks) {
            assert_eq!(vb.rows(), tb.rows());
            for c in 0..vb.block().width() {
                for r in 0..vb.rows() {
                    assert_eq!(
                        vb.block().column(c).unwrap().get_i64(r),
                        tb.block().column(c).unwrap().get_i64(r),
                        "col {c} row {r}"
                    );
                }
            }
        }
        check(&vstate, &vblocks);
        check(&tstate, &tblocks);
    }

    #[test]
    fn refine_selection_keeps_flagged_lanes_in_order() {
        let mut sel: Vec<u32> = vec![0, 3, 4, 9, 11];
        refine_selection(&mut sel, &[1, 0, 7, 0, -2]);
        assert_eq!(sel, vec![0, 4, 11]);
        refine_selection(&mut sel, &[0, 0, 0]);
        assert!(sel.is_empty());
        // Refining an empty selection is a no-op.
        refine_selection(&mut sel, &[]);
        assert!(sel.is_empty());
    }

    #[test]
    fn a_window_over_shared_columns_reads_like_an_owned_copy_of_its_rows() {
        let n = VEC_CHUNK * 3;
        let a: Vec<i32> = (0..n as i32).map(|i| i % 89 - 40).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| i * 7).collect();
        let (offset, rows) = (VEC_CHUNK + 3, VEC_CHUNK + 100);
        let rows_of = offset..offset + rows;
        let copy = Block::new(
            vec![
                ColumnData::Int32(a[rows_of.clone()].to_vec()),
                ColumnData::Int64(b[rows_of].to_vec()),
            ],
            rows,
        )
        .unwrap();
        let shared = vec![Arc::new(ColumnData::Int32(a)), Arc::new(ColumnData::Int64(b))];
        let window = Block::window(shared, offset, rows).unwrap();
        assert_eq!(window.byte_size(), copy.byte_size());
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let pipeline = CompiledPipeline::new(
            PipelineId::new(78),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(0) }],
            TerminalStep::Pack { exprs: vec![Expr::col(1), Expr::col(0)] },
        )
        .unwrap();
        let run = |block: Block| {
            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 1 << 20);
            let handle = BlockHandle::new(block, meta.clone());
            let (mut out, counters) =
                process_block(&pipeline, &handle, &SharedState::new(), &mut ctx).unwrap();
            out.extend(pipeline.finalize_instance(&SharedState::new(), &mut ctx).unwrap().blocks);
            let cols: Vec<Vec<Option<i64>>> = out
                .iter()
                .flat_map(|h| {
                    h.block()
                        .columns()
                        .map(|c| (0..c.len()).map(|r| c.get_i64(r)).collect())
                        .collect::<Vec<_>>()
                })
                .collect();
            (cols, counters)
        };
        let (from_copy, copy_counters) = run(copy);
        assert!(!from_copy.is_empty() && from_copy[0].len() < rows);
        assert_eq!(run(window), (from_copy, copy_counters));
    }

    #[test]
    fn filtered_reduce_matches_tuple_at_a_time_across_chunk_boundaries() {
        // > VEC_CHUNK rows so the chunk loop actually iterates; odd tail.
        let n = VEC_CHUNK * 2 + 345;
        let a: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| i * 3 - 1000).collect();
        assert_modes_agree(
            vec![Step::Filter { predicate: Expr::col(0).between(10, 60) }],
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(1)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(1)),
                ],
                slot: StateSlot(0),
            },
            vec![a, b],
            || {
                let mut s = SharedState::new();
                s.add_accumulators(&[
                    AggSpec::sum(Expr::col(1)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(1)),
                ]);
                s
            },
            |state, _| {
                let vals = state.accumulators(StateSlot(0)).unwrap().values();
                assert_eq!(
                    vals[1],
                    (0..(VEC_CHUNK * 2 + 345) as i64)
                        .filter(|i| (10..=60).contains(&(i % 97)))
                        .count() as i64
                );
            },
        );
    }

    #[test]
    fn probe_fan_out_and_group_by_match_tuple_at_a_time() {
        let n = VEC_CHUNK + 200;
        let keys: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
        let vals: Vec<i64> = (0..n as i64).collect();
        let mk_state = || {
            let mut s = SharedState::new();
            let ht = s.add_hash_table(1);
            // Key 7 fans out to two build rows; keys >= 40 have no match.
            for k in 0..40 {
                s.hash_table(ht).unwrap().insert(k, vec![k * 10]);
            }
            s.hash_table(ht).unwrap().insert(7, vec![70_000]);
            s.add_group_by(&[AggSpec::sum(Expr::col(2)), AggSpec::count()]);
            s
        };
        assert_modes_agree(
            vec![
                Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
                Step::Filter { predicate: Expr::col(2).gt_lit(-1) },
            ],
            TerminalStep::GroupBy {
                keys: vec![Expr::col(0)],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
                slot: StateSlot(1),
            },
            vec![keys, vals],
            mk_state,
            |state, _| {
                let groups = state.group_by(StateSlot(1)).unwrap().snapshot();
                assert_eq!(groups.len(), 40);
            },
        );
    }

    #[test]
    fn wide_fan_out_probe_packs_the_same_rows_in_the_same_order() {
        // Every build key carries three two-column payload rows inserted at
        // different times, so each matching probe fans out 3x and the output
        // of one chunk overflows the chunk size.
        let n = VEC_CHUNK * 2 + 10;
        let keys: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 300 - 20).collect();
        let vals: Vec<i64> = (0..n as i64).collect();
        let mk_state = || {
            let mut s = SharedState::new();
            let ht = s.add_hash_table(2);
            for copy in 0..3 {
                for k in 0..250 {
                    s.hash_table(ht).unwrap().insert(k, vec![k * 10 + copy, -k]);
                }
            }
            s
        };
        let matching = keys.iter().filter(|k| (0..250).contains(*k)).count();
        assert_modes_agree(
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 2 }],
            TerminalStep::Pack { exprs: vec![Expr::col(1), Expr::col(2), Expr::col(3)] },
            vec![keys, vals],
            mk_state,
            |_, blocks| {
                assert_eq!(blocks.iter().map(BlockHandle::rows).sum::<usize>(), matching * 3);
                // Matches of one probe tuple stay adjacent, in insertion order.
                let first = blocks[0].block();
                for r in 0..3 {
                    assert_eq!(
                        first.column(0).unwrap().get_i64(r),
                        first.column(0).unwrap().get_i64(0)
                    );
                    assert_eq!(first.column(1).unwrap().get_i64(r).unwrap() % 10, r as i64);
                }
            },
        );
    }

    #[test]
    fn a_block_of_64k_distinct_groups_matches_tuple_at_a_time() {
        // Every tuple starts its own group: the block-local table grows from
        // empty to 64k groups inside one block, then merges them all.
        let n = 64 * 1024;
        let keys: Vec<i64> =
            (0..n as i64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i << 40)).collect();
        let vals: Vec<i64> = (0..n as i64).map(|i| i - 7).collect();
        let aggs =
            || vec![AggSpec::sum(Expr::col(1)), AggSpec::count(), AggSpec::max(Expr::col(1))];
        assert_modes_agree(
            Vec::new(),
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs: aggs(), slot: StateSlot(0) },
            vec![keys.clone(), vals],
            || {
                let mut s = SharedState::new();
                s.add_group_by(&aggs());
                s
            },
            |state, _| {
                let groups = state.group_by(StateSlot(0)).unwrap().snapshot();
                assert_eq!(groups.len(), n);
                let row = keys.iter().position(|k| *k == groups[0].0[0]).unwrap() as i64;
                assert_eq!(groups[0].1, vec![row - 7, 1, row - 7]);
            },
        );
    }

    #[test]
    fn hash_join_build_matches_tuple_at_a_time() {
        let n = 500;
        let k: Vec<i64> = (0..n as i64).collect();
        let v: Vec<i64> = (0..n as i64).map(|i| i * 2).collect();
        assert_modes_agree(
            vec![Step::Filter { predicate: Expr::col(0).lt_lit(100) }],
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1)],
                slot: StateSlot(0),
            },
            vec![k, v],
            || {
                let mut s = SharedState::new();
                s.add_hash_table(1);
                s
            },
            |state, _| {
                assert_eq!(state.hash_table(StateSlot(0)).unwrap().len(), 100);
            },
        );
    }

    /// An emitted block as these tests compare it: id, weight, rows (the
    /// only content of a zero-width block) and column-major values.
    type Emitted = (BlockId, f64, usize, Vec<Vec<i64>>);

    fn dump(blocks: &[BlockHandle]) -> Vec<Emitted> {
        blocks
            .iter()
            .map(|h| {
                let cols = h
                    .block()
                    .columns()
                    .map(|c| (0..c.len()).map(|r| c.get_i64(r).unwrap()).collect())
                    .collect();
                (h.meta().id, h.meta().weight, h.rows(), cols)
            })
            .collect()
    }

    /// SplitMix64: the property tests' value source.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Feed `inputs` through one instance — the chunk kernel, or the
    /// per-tuple oracle filling the same open blocks a tuple at a time — and
    /// finalize it: every emitted block in emission order, and the counters
    /// of every call.
    fn run_instance(
        pipeline: &CompiledPipeline,
        inputs: &[BlockHandle],
        state: &SharedState,
        ctx: &mut ExecCtx,
        per_tuple: bool,
    ) -> (Vec<Emitted>, Vec<BlockCounters>) {
        let mut blocks = Vec::new();
        let mut counters = Vec::new();
        for input in inputs {
            let (out, c) = if per_tuple {
                ctx.current_weight = input.meta().weight;
                crate::lower_cpu::process_block(pipeline, input, state, ctx).unwrap()
            } else {
                let out = pipeline.process_block(input, state, ctx).unwrap();
                (out.blocks, out.counters)
            };
            blocks.extend(out);
            counters.push(c);
        }
        let tail = pipeline.finalize_instance(state, ctx).unwrap();
        blocks.extend(tail.blocks);
        counters.push(tail.counters);
        (dump(&blocks), counters)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(kernel_cases()))]

        /// The columnar Pack terminal emits what the per-tuple oracle emits —
        /// blocks, ids, weights, order, boundaries and counters — for every
        /// output width and capacity, with blocks of a few chunks each fed
        /// through one context before it is finalized, and again through
        /// the same context after `with_arena` gave it an arena that pools
        /// shorter columns.
        #[test]
        fn columnar_pack_matches_the_per_tuple_oracle(
            sizes in proptest::collection::vec(0usize..1_500, 2..5),
            seed in 0u64..u64::MAX,
            keep in 0i64..101,
        ) {
            let inputs: Vec<BlockHandle> = sizes
                .iter()
                .enumerate()
                .map(|(b, &rows)| {
                    let at =
                        |i: usize, salt: u64| mix(seed ^ mix((b * 4_096 + i) as u64 ^ salt));
                    let mut handle = block_of(vec![
                        (0..rows).map(|i| at(i, 1) as i64).collect(),
                        (0..rows).map(|i| (at(i, 2) % 1_000) as i64 - 500).collect(),
                        (0..rows).map(|i| (at(i, 3) % 100) as i64).collect(),
                    ]);
                    handle.meta_mut().weight = 1.0 + b as f64;
                    handle
                })
                .collect();
            let survivors: usize = inputs
                .iter()
                .map(|h| {
                    let f = h.block().column(2).unwrap();
                    (0..h.rows()).filter(|&r| f.get_i64(r).unwrap() < keep).count()
                })
                .sum();
            // Value shapes, and a tree that reads registers the filter left
            // lazy.
            let exprs = [
                Expr::col(1),
                Expr::col(0),
                Expr::col(0).mul(Expr::col(2)),
                Expr::lit(-7),
                Expr::col(2).sub(Expr::col(1)).mul(Expr::col(0)),
            ];
            let state = SharedState::new();
            let capacities = [1, 2, 1000, VEC_CHUNK - 1, VEC_CHUNK, VEC_CHUNK + 1, 64 * 1024];
            for width in 0..=exprs.len() {
                for capacity in capacities {
                    let pipeline = CompiledPipeline::new(
                        PipelineId::new(79),
                        DeviceKind::CpuCore,
                        3,
                        vec![Step::Filter { predicate: Expr::col(2).lt_lit(keep) }],
                        TerminalStep::Pack { exprs: exprs[..width].to_vec() },
                    )
                    .unwrap();
                    let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                    let (blocks, counters) =
                        run_instance(&pipeline, &inputs, &state, &mut ctx, false);
                    let case = format!("width {width}, capacity {capacity}");
                    let mut fresh = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                    let oracle = run_instance(&pipeline, &inputs, &state, &mut fresh, true);
                    proptest::prop_assert_eq!(&(blocks.clone(), counters), &oracle, "{}", case);
                    // What neither path may get wrong in the same way.
                    proptest::prop_assert_eq!(
                        blocks.iter().map(|b| b.2).sum::<usize>(), survivors, "{}", case
                    );
                    for (r, (id, _, rows, _)) in blocks.iter().enumerate() {
                        proptest::prop_assert_eq!(id.index(), r);
                        proptest::prop_assert!((1..=capacity).contains(rows));
                    }
                    // The reused context's ids run on; nothing else moves.
                    let arena = StateArena::new();
                    (0..width).for_each(|_| arena.give(Vec::<i64>::with_capacity(capacity / 2)));
                    let mut ctx = ctx.with_arena(&arena);
                    let (again, counters) =
                        run_instance(&pipeline, &inputs, &state, &mut ctx, false);
                    let again: Vec<Emitted> = again
                        .into_iter()
                        .map(|(id, w, rows, cols)| {
                            (BlockId::new(id.index() - blocks.len()), w, rows, cols)
                        })
                        .collect();
                    proptest::prop_assert_eq!(&(again, counters), &oracle, "reused, {}", case);
                }
            }
        }
    }

    /// Generated-case budget of the register-model property:
    /// `HETEX_KERNEL_CASES` cases (default 24).
    fn kernel_cases() -> u32 {
        std::env::var("HETEX_KERNEL_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    }

    /// How a generated join table stores its keys.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum TableKind {
        /// Unique dense keys, sealed with a direct index.
        Direct,
        /// Unique keys spread too far for a direct index, sealed hashed.
        Hashed,
        /// Unique dense keys, never sealed.
        Unsealed,
        /// Dense keys of one to three rows each, one key with two at least,
        /// sealed.
        FanOut,
    }

    /// The stride of a [`TableKind::Hashed`] table's keys.
    const SPARSE: i64 = 1 << 40;

    /// A join table to generate: its kind, payload width and rows.
    struct TableSpec {
        kind: TableKind,
        width: usize,
        rows: Vec<(i64, Vec<i64>)>,
    }

    /// A probe chain of one to four tables, filters and maps between the
    /// probes, and one terminal of each kind, drawn from `rng`. Payload values are keys of
    /// the next tables (0..72, of which 0..64 may be present), input column
    /// 0 is a key, 1 a filter column, and 2 and 3 are wide values that are
    /// read first by the terminal unless the chain holds a map.
    fn probe_chain(rng: &mut proptest::TestRng) -> (Vec<TableSpec>, Vec<Step>, Vec<TerminalStep>) {
        let kinds = [TableKind::Direct, TableKind::Hashed, TableKind::Unsealed, TableKind::FanOut];
        let maps = rng.below(2) == 0;
        let mut tables = Vec::new();
        let mut steps = Vec::new();
        let (mut width, mut keys) = (4, vec![0usize]);
        for slot in 0..1 + rng.below(4) as usize {
            let kind = kinds[rng.below(4) as usize];
            let pw = 1 + rng.below(2) as usize;
            let density = [5, 40, 80, 100][rng.below(4) as usize];
            let mut rows = Vec::new();
            for i in 0..64 {
                let k = (i * 37 + slot as i64) % 64;
                // The first two keys always land, the first twice in a
                // fan-out table.
                let copies = if i < 2 {
                    1 + usize::from(i == 0 && kind == TableKind::FanOut)
                } else if rng.below(100) >= density {
                    0
                } else if kind == TableKind::FanOut {
                    1 + rng.below(3) as usize
                } else {
                    1
                };
                for _ in 0..copies {
                    let stored = if kind == TableKind::Hashed { k * SPARSE } else { k };
                    rows.push((stored, (0..pw).map(|_| rng.below(72) as i64).collect()));
                }
            }
            tables.push(TableSpec { kind, width: pw, rows });
            if rng.below(2) == 0 {
                let r =
                    if rng.below(2) == 0 { 1 } else { keys[rng.below(keys.len() as u64) as usize] };
                steps.push(Step::Filter { predicate: Expr::col(r).lt_lit(rng.below(110) as i64) });
            }
            if maps && rng.below(2) == 0 {
                let mut exprs: Vec<Expr> = (0..width).map(Expr::col).collect();
                exprs.push(Expr::col(1).sub(Expr::col(3)));
                steps.push(Step::Map { exprs });
                width += 1;
            }
            let key = Expr::col(keys[rng.below(keys.len() as u64) as usize]);
            let key = if kind == TableKind::Hashed { key.mul(Expr::lit(SPARSE)) } else { key };
            steps.push(Step::HashJoinProbe { key, slot: StateSlot(slot), payload_width: pw });
            keys.extend(width..width + pw);
            width += pw;
        }
        if rng.below(3) == 0 {
            steps.push(Step::Filter { predicate: Expr::col(3).gt_lit(-500) });
        }
        let (last, slot) = (*keys.last().unwrap(), StateSlot(tables.len()));
        let terminals = vec![
            TerminalStep::Pack { exprs: vec![Expr::col(2), Expr::col(last), Expr::col(3)] },
            TerminalStep::HashJoinBuild {
                key: Expr::col(last),
                payload: vec![Expr::col(2), Expr::col(3)],
                slot,
            },
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(2)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(3)),
                    AggSpec::max(Expr::col(last)),
                ],
                slot,
            },
            TerminalStep::GroupBy {
                keys: vec![Expr::col(last), Expr::col(3)],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
                slot,
            },
        ];
        (tables, steps, terminals)
    }

    /// The generated tables, sealed as their kind says, then the terminal's
    /// state object.
    fn chain_state(tables: &[TableSpec], terminal: &TerminalStep) -> SharedState {
        let mut state = SharedState::new();
        for spec in tables {
            let slot = state.add_hash_table(spec.width);
            let table = state.hash_table(slot).unwrap();
            for (key, payload) in &spec.rows {
                table.insert(*key, payload.clone());
            }
            if spec.kind != TableKind::Unsealed {
                table.seal();
            }
            if spec.kind != TableKind::FanOut {
                assert_eq!(table.is_direct(), spec.kind == TableKind::Direct, "{:?}", spec.kind);
            }
            assert_eq!(table.len() == table.distinct_keys(), spec.kind != TableKind::FanOut);
        }
        match terminal {
            TerminalStep::Reduce { aggs, .. } => {
                state.add_accumulators(aggs);
            }
            TerminalStep::GroupBy { aggs, .. } => {
                state.add_group_by(aggs);
            }
            TerminalStep::HashJoinBuild { payload, .. } => {
                state.add_hash_table(payload.len());
            }
            TerminalStep::Pack { .. } => {}
        }
        state
    }

    /// One input block of `rows` rows: column `c` is `Int32` where
    /// `int32[c]`, values as [`probe_chain`] describes them.
    fn chain_input(rng: &mut proptest::TestRng, rows: usize, int32: [bool; 4]) -> BlockHandle {
        let columns = (0..4)
            .map(|c| {
                let values: Vec<i64> = (0..rows)
                    .map(|_| match c {
                        0 => rng.below(70) as i64,
                        1 => rng.below(100) as i64,
                        2 => rng.next_u64() as i32 as i64,
                        _ => rng.below(2_000) as i64 - 1_000,
                    })
                    .collect();
                if int32[c] {
                    ColumnData::Int32(values.into_iter().map(|v| v as i32).collect())
                } else {
                    ColumnData::Int64(values)
                }
            })
            .collect();
        let block = Block::new(columns, rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(kernel_cases()))]

        /// Lazy registers and in-place unique-key probes change nothing the
        /// per-tuple oracle can see: blocks, ids, tags, order, counters and
        /// the state left behind, for probe chains over every kind of join
        /// table with filters and maps between them, every terminal, `Int32`
        /// and `Int64` inputs, and blocks on and around the chunk size fed
        /// through one context.
        #[test]
        fn lazy_registers_match_the_per_tuple_oracle(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let (tables, steps, terminals) = probe_chain(&mut rng);
            let int32 = [0, 1, 2, 3].map(|_| rng.below(2) == 0);
            let sizes = [0, 1, 1_023, 1_024, 1_025, 2_900 + rng.below(200) as usize];
            let inputs: Vec<BlockHandle> = (0..1 + rng.below(3))
                .map(|b| {
                    let rows = sizes[rng.below(sizes.len() as u64) as usize];
                    let mut input = chain_input(&mut rng, rows, int32);
                    input.meta_mut().weight = 1.0 + b as f64;
                    input
                })
                .collect();
            let capacity = [1, 7, 1_023, 1_024, 4_096][rng.below(5) as usize];
            for terminal in terminals {
                let pipeline = CompiledPipeline::new(
                    PipelineId::new(81),
                    DeviceKind::CpuCore,
                    4,
                    steps.clone(),
                    terminal.clone(),
                )
                .unwrap();
                let run = |per_tuple| {
                    let state = chain_state(&tables, &terminal);
                    let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                    let (blocks, counters) =
                        run_instance(&pipeline, &inputs, &state, &mut ctx, per_tuple);
                    (blocks, counters, dump_state(&state))
                };
                let case = format!("seed {seed}: {steps:?} -> {terminal:?}, capacity {capacity}");
                proptest::prop_assert_eq!(run(false), run(true), "{}", case);
            }
        }
    }

    /// The probed key of [`fused_probes_match_the_per_tuple_oracle`]'s
    /// table, whose keys are `base + i × stride` for `i` in `0..64`: one of
    /// them, one just outside that span, an `i64` or `i32` edge, or any value.
    fn probe_key(rng: &mut proptest::TestRng, base: i64, stride: i64) -> i64 {
        let at = |i: i64| base.wrapping_add(i.wrapping_mul(stride));
        match rng.below(5) {
            0 | 1 => at(rng.below(64) as i64),
            2 => [at(-1), at(64), at(65)][rng.below(3) as usize],
            3 => EDGES[rng.below(EDGES.len() as u64) as usize],
            _ => rng.next_u64() as i64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(kernel_cases()))]

        /// The fused probe — each key read where it lives, the selection
        /// narrowed in the same pass, a contiguous pass under the identity
        /// selection — changes nothing the per-tuple oracle can see. Keys
        /// come from a lazy `Int32` window, a lazy `Int64` window, a register
        /// a map made dense, a unique probe's payload, a fan-out's dense
        /// payload or a tree-walked expression; the selection is the
        /// identity, sparse after a filter or emptied; the table is
        /// sealed-direct, sealed-hashed, unsealed or empty, of unique or
        /// chained keys, probed at its keys, just outside their span (where
        /// `key − base` wraps) and at the `i64` edges. Blocks, order,
        /// counters and state are the oracle's for blocks on and around the
        /// chunk size fed through one context, under every terminal.
        #[test]
        fn fused_probes_match_the_per_tuple_oracle(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let bases = [
                i64::MIN,
                i64::MIN + 1,
                i32::MIN as i64 - 5,
                -40,
                0,
                i32::MAX as i64 - 30,
                i64::MAX - 63,
            ];
            let base = bases[rng.below(bases.len() as u64) as usize];
            let (hashed, sealed) = (rng.below(3) == 0, rng.below(4) != 0);
            let (chained, empty) = (rng.below(3) == 0, rng.below(8) == 0);
            let stride = if hashed { SPARSE } else { 1 };
            // The probed table, slot 1: keys 0, 1 and 63 of its span always
            // land (0 twice when chained), so a direct index spans all 64.
            let mut tested = Vec::new();
            for i in 0..64 {
                let copies = match i {
                    _ if empty => 0,
                    0 => 1 + usize::from(chained),
                    1 | 63 => 1,
                    _ if rng.below(100) >= 60 => 0,
                    _ => 1 + if chained { rng.below(3) as usize } else { 0 },
                };
                for _ in 0..copies {
                    let key = base.wrapping_add((i as i64).wrapping_mul(stride));
                    tested.push((key, vec![rng.below(72) as i64]));
                }
            }
            // The key's source: what comes before the probe, and the key.
            let source = rng.below(6);
            // Slot 0: keys 0..100 of input column 2, one or two rows each,
            // whose payloads are probed keys.
            let mut prefix = Vec::new();
            for k in (0..100).filter(|k| k % 5 != 1) {
                for _ in 0..1 + usize::from(source == 4 && k % 3 == 0) {
                    prefix.push((k, vec![probe_key(&mut rng, base, stride)]));
                }
            }
            let probe =
                |slot, key| Step::HashJoinProbe { key, slot: StateSlot(slot), payload_width: 1 };
            let c = Expr::col;
            let map = Step::Map { exprs: [0, 1, 2, 3, 1].map(c).to_vec() };
            let (mut steps, key) = match source {
                0 => (vec![], c(0)),
                1 => (vec![], c(1)),
                2 => (vec![map], c(4)),
                3 | 4 => (vec![probe(0, c(2))], c(4)),
                // `(c1 − c2) + c2`, which is `c1` and tree-walked.
                _ => (vec![], Expr::Add(Box::new(c(1).sub(c(2))), Box::new(c(2)))),
            };
            let width = 4 + usize::from(!steps.is_empty());
            // Every row, a sparse selection, or none.
            let keep = [None, Some(1 + rng.below(98) as i64), Some(0)];
            if let Some(keep) = keep[rng.below(3) as usize] {
                steps.push(Step::Filter { predicate: c(2).lt_lit(keep) });
            }
            steps.push(probe(1, key));
            let int32 = [true, false, rng.below(2) == 0, false];
            let sizes = [0, 1, 1_023, 1_024, 1_025, 2_900 + rng.below(200) as usize];
            let inputs: Vec<BlockHandle> = (0..1 + rng.below(3))
                .map(|b| {
                    let rows = sizes[rng.below(sizes.len() as u64) as usize];
                    let columns = (0..4)
                        .map(|c| {
                            let values = (0..rows).map(|_| match c {
                                0 | 1 => probe_key(&mut rng, base, stride),
                                2 => rng.below(100) as i64,
                                _ => rng.below(2_000) as i64 - 1_000,
                            });
                            if int32[c] {
                                ColumnData::Int32(values.map(|v| v as i32).collect())
                            } else {
                                ColumnData::Int64(values.collect())
                            }
                        })
                        .collect();
                    let block = Block::new(columns, rows).unwrap();
                    let mut meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
                    meta.weight = 1.0 + b as f64;
                    BlockHandle::new(block, meta)
                })
                .collect();
            let capacity = [1, 7, 1_023, 1_024, 4_096][rng.below(5) as usize];
            let (p, slot) = (Expr::col(width), StateSlot(2));
            let terminals = vec![
                TerminalStep::Pack { exprs: vec![Expr::col(3), p.clone(), Expr::col(0)] },
                TerminalStep::HashJoinBuild {
                    key: p.clone(),
                    payload: vec![Expr::col(3), Expr::col(0)],
                    slot,
                },
                TerminalStep::Reduce {
                    aggs: vec![
                        AggSpec::sum(Expr::col(3)),
                        AggSpec::count(),
                        AggSpec::min(p.clone()),
                        AggSpec::max(Expr::col(0)),
                    ],
                    slot,
                },
                TerminalStep::GroupBy {
                    keys: vec![p.clone(), Expr::col(2)],
                    aggs: vec![AggSpec::sum(Expr::col(3)), AggSpec::count()],
                    slot,
                },
            ];
            for terminal in terminals {
                let pipeline = CompiledPipeline::new(
                    PipelineId::new(83),
                    DeviceKind::CpuCore,
                    4,
                    steps.clone(),
                    terminal.clone(),
                )
                .unwrap();
                let run = |per_tuple| {
                    let mut state = SharedState::new();
                    let direct = !empty && !hashed;
                    for (rows, seal, direct) in [(&prefix, true, true), (&tested, sealed, direct)] {
                        let table = state.add_hash_table(1);
                        let table = state.hash_table(table).unwrap();
                        rows.iter().for_each(|(key, payload)| table.insert(*key, payload.clone()));
                        if seal {
                            table.seal();
                            assert_eq!(table.is_direct(), direct);
                        }
                    }
                    match &terminal {
                        TerminalStep::Reduce { aggs, .. } => state.add_accumulators(aggs),
                        TerminalStep::GroupBy { aggs, .. } => state.add_group_by(aggs),
                        TerminalStep::HashJoinBuild { payload, .. } => {
                            state.add_hash_table(payload.len())
                        }
                        TerminalStep::Pack { .. } => slot,
                    };
                    let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                    let (blocks, counters) =
                        run_instance(&pipeline, &inputs, &state, &mut ctx, per_tuple);
                    (blocks, counters, dump_state(&state))
                };
                let case =
                    format!("seed {seed}: {steps:?} -> {terminal:?}, capacity {capacity}");
                proptest::prop_assert_eq!(run(false), run(true), "{}", case);
            }
        }
    }

    /// Per state slot: hash tables as their payloads for keys 0..128 in match
    /// order, accumulators, sorted groups.
    fn dump_state(state: &SharedState) -> Vec<String> {
        use crate::state::StateObject;
        (0..state.len())
            .map(|slot| match state.object(StateSlot(slot)).unwrap() {
                StateObject::HashTable(table) => {
                    let mut rows = Vec::new();
                    for k in 0..128 {
                        table.probe(k, |payload| rows.push((k, payload.to_vec())));
                    }
                    format!("{rows:?}")
                }
                StateObject::Accumulators(acc) => format!("{:?}", acc.values()),
                StateObject::GroupBy(groups) => format!("{:?}", groups.snapshot()),
            })
            .collect()
    }

    #[test]
    fn a_reused_context_gives_a_block_what_a_fresh_context_gives_it() {
        // Slot 0 holds three build rows per key in 0..40, so a matching probe
        // fans out 3x; the filter passes every row of a `pass` block and
        // none of another.
        let steps = vec![
            Step::Filter { predicate: Expr::col(1).gt_lit(29) },
            Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
        ];
        let input = |rows: usize, pass: bool| {
            block_of(vec![
                (0..rows as i64).map(|i| (i * 7) % 40).collect(),
                (0..rows as i64).map(|i| if pass { 30 + i % 50 } else { i % 30 }).collect(),
            ])
        };
        let terminals = [
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(2)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                ],
                slot: StateSlot(1),
            },
            TerminalStep::GroupBy {
                keys: vec![Expr::col(0), Expr::col(2)],
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
                slot: StateSlot(1),
            },
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1), Expr::col(2)],
                slot: StateSlot(1),
            },
            TerminalStep::Pack { exprs: vec![Expr::col(2), Expr::col(1)] },
            TerminalStep::Pack {
                exprs: vec![Expr::col(0), Expr::col(2).sub(Expr::col(0)).mul(Expr::col(1))],
            },
        ];
        let mk_state = |terminal: &TerminalStep| {
            let mut state = SharedState::new();
            let ht = state.add_hash_table(1);
            for copy in 0..3 {
                for k in 0..40 {
                    state.hash_table(ht).unwrap().insert(k, vec![k * 100 + copy]);
                }
            }
            match terminal {
                TerminalStep::Reduce { aggs, .. } => {
                    state.add_accumulators(aggs);
                }
                TerminalStep::GroupBy { aggs, .. } => {
                    state.add_group_by(aggs);
                }
                TerminalStep::HashJoinBuild { payload, .. } => {
                    state.add_hash_table(payload.len());
                }
                TerminalStep::Pack { .. } => {}
            }
            state
        };
        let gpu = Arc::new(hetex_gpu_sim::device::standalone_gpu());
        let ctx_for = |device: DeviceKind| match device {
            DeviceKind::CpuCore => ExecCtx::cpu(MemoryNodeId::new(0), 500),
            DeviceKind::Gpu => ExecCtx::gpu(Arc::clone(&gpu), 500),
        };
        // Block B alone, on a context that may have run other blocks: what
        // it emits (ids aside, which number the instance's blocks), every
        // counter, and the state it leaves.
        let observe = |pipeline: &CompiledPipeline, b: &BlockHandle, ctx: &mut ExecCtx| {
            let state = mk_state(pipeline.terminal());
            let (blocks, counters) =
                run_instance(pipeline, std::slice::from_ref(b), &state, ctx, false);
            let blocks: Vec<_> =
                blocks.into_iter().map(|(_, w, rows, cols)| (w, rows, cols)).collect();
            (blocks, counters, dump_state(&state))
        };
        let orders = [
            ((3_000, false), (700, true)),
            ((3_000, true), (700, true)),
            ((2_100, true), (500, false)),
        ];
        for terminal in &terminals {
            let pipeline = CompiledPipeline::new(
                PipelineId::new(80),
                DeviceKind::CpuCore,
                2,
                steps.clone(),
                terminal.clone(),
            )
            .unwrap();
            // One pipeline, run through a context of each kind.
            for device in [DeviceKind::CpuCore, DeviceKind::Gpu] {
                for ((a_rows, a_pass), (b_rows, b_pass)) in orders {
                    let (a, b) = (input(a_rows, a_pass), input(b_rows, b_pass));
                    let mut reused = ctx_for(device);
                    let state = mk_state(terminal);
                    let out = pipeline.process_block(&a, &state, &mut reused).unwrap();
                    assert_eq!(out.work, pipeline.work_profile_on(device, &out.counters, 1.0));
                    let tail = pipeline.finalize_instance(&state, &mut reused).unwrap();
                    assert_eq!(tail.work, pipeline.work_profile_on(device, &tail.counters, 1.0));
                    let seen = observe(&pipeline, &b, &mut reused);
                    assert_eq!(
                        seen,
                        observe(&pipeline, &b, &mut ctx_for(device)),
                        "{device:?} {terminal:?}"
                    );
                    if b_pass {
                        assert_eq!(seen.1[0].probe_matches, 3 * seen.1[0].probes, "3x fan-out");
                    } else {
                        assert_eq!(seen.1[0].rows_terminal, 0, "emptied selection");
                    }
                }
            }
        }
    }

    /// `out.work` of two fixed CPU blocks, as literals captured at the
    /// commit before the charge shape was keyed on the pipeline's device
    /// instead of a kernel-mode setting. CPU `sim_s` is a function of these
    /// (their GPU twins are `lower_gpu`'s `gpu_work_profiles_are_pinned`).
    #[test]
    fn cpu_work_profiles_are_pinned() {
        use hetex_topology::WorkProfile;
        let weighted = |cols: Vec<Vec<i64>>, weight: f64| {
            let mut handle = block_of(cols);
            handle.meta_mut().weight = weight;
            handle
        };
        let cpu_ctx = |capacity: usize| ExecCtx::cpu(MemoryNodeId::new(0), capacity);

        // (a) filter -> reduce, several chunks with an odd tail.
        let mut state = SharedState::new();
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let acc = state.add_accumulators(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(1),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter {
                predicate: Expr::col(0).between(10, 60).and(Expr::col(1).gt_lit(3)),
            }],
            TerminalStep::Reduce { aggs, slot: acc },
        )
        .unwrap();
        let block = weighted(
            vec![(0..2_393).map(|i| i % 97).collect(), (0..2_393).map(|i| i * 3 - 1000).collect()],
            1.0,
        );
        assert_eq!(
            p.process_block(&block, &state, &mut cpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 38288.0,
                bytes_written: 0.0,
                random_bytes: 0.0,
                tuples: 2393.0,
                ops: 8036.75,
                atomics: 2.0,
                kernel_launches: 0,
            }
        );

        // (b) probe -> group-by, weighted, with a fan-out key.
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        for k in 0..40 {
            state.hash_table(ht).unwrap().insert(k, vec![k * 10]);
        }
        state.hash_table(ht).unwrap().insert(7, vec![70_000]);
        let aggs = vec![AggSpec::sum(Expr::col(2)), AggSpec::max(Expr::col(1))];
        let slot = state.add_group_by(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(2),
            DeviceKind::CpuCore,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs, slot },
        )
        .unwrap();
        let block = weighted(vec![(0..1_224).map(|i| i % 50).collect(), (0..1_224).collect()], 2.5);
        assert_eq!(
            p.process_block(&block, &state, &mut cpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 48960.0,
                bytes_written: 0.0,
                random_bytes: 174340.0,
                tuples: 3060.0,
                ops: 26723.4375,
                atomics: 2.5,
                kernel_launches: 0,
            }
        );
    }

    #[test]
    fn the_lowering_specialises_each_listed_shape_and_walks_the_rest() {
        use Atom::{In, Range};
        let (c, l) = (Expr::col, Expr::lit);
        let bin =
            |f: fn(Box<Expr>, Box<Expr>) -> Expr, a: Expr, b: Expr| f(Box::new(a), Box::new(b));
        let (min, max) = (i64::MIN, i64::MAX);
        let predicates = [
            (c(2).between(5, 9), vec![Range(2, 5, 9)]),
            (c(1).in_list(vec![4, 2]), vec![In(1, vec![4, 2])]),
            (bin(Expr::Eq, c(1), l(7)), vec![Range(1, 7, 7)]),
            (bin(Expr::Eq, l(7), c(1)), vec![Range(1, 7, 7)]),
            (bin(Expr::Lt, c(0), l(7)), vec![Range(0, min, 6)]),
            (bin(Expr::Lt, l(7), c(0)), vec![Range(0, 8, max)]),
            (bin(Expr::Le, c(0), l(7)), vec![Range(0, min, 7)]),
            (bin(Expr::Le, l(7), c(0)), vec![Range(0, 7, max)]),
            (bin(Expr::Gt, c(0), l(7)), vec![Range(0, 8, max)]),
            (bin(Expr::Gt, l(7), c(0)), vec![Range(0, min, 6)]),
            (bin(Expr::Ge, c(0), l(7)), vec![Range(0, 7, max)]),
            (bin(Expr::Ge, l(7), c(0)), vec![Range(0, min, 7)]),
            // Bounds past the `i64` range: empty, without overflowing.
            (bin(Expr::Lt, c(3), l(min)), vec![Range(3, 1, 0)]),
            (bin(Expr::Gt, c(3), l(max)), vec![Range(3, 1, 0)]),
            (bin(Expr::Gt, l(min), c(3)), vec![Range(3, 1, 0)]),
            (bin(Expr::Le, c(3), l(max)), vec![Range(3, min, max)]),
            (
                c(0).lt_lit(3)
                    .and(c(1).between(1, 2))
                    .and(c(2).in_list(vec![5]).and(c(3).gt_lit(0))),
                vec![Range(0, min, 2), Range(1, 1, 2), In(2, vec![5]), Range(3, 1, max)],
            ),
        ];
        for (expr, atoms) in predicates {
            let pipeline = CompiledPipeline::new(
                PipelineId::new(90),
                DeviceKind::CpuCore,
                4,
                vec![Step::Filter { predicate: expr.clone() }],
                TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot: StateSlot(0) },
            )
            .unwrap();
            assert_eq!(pipeline.shapes[0], vec![Shape::Atoms(atoms)], "{expr:?}");
            assert_eq!(pipeline.tree_walked_exprs(), 0, "{expr:?}");
        }
        let walked = [
            c(0).lt_lit(3).or(c(1).gt_lit(4)),
            Expr::Not(Box::new(c(0).lt_lit(3))),
            bin(Expr::Ne, c(0), l(3)),
            bin(Expr::Lt, c(0), c(1)),
            bin(Expr::Lt, l(0), l(1)),
            c(0).lt_lit(3).and(c(1).lt_lit(2).or(c(2).lt_lit(1))),
            bin(Expr::Add, c(0), l(1)).between(0, 9),
            c(0),
        ];
        for expr in walked {
            assert_eq!(
                shapes(
                    &[Step::Filter { predicate: expr.clone() }],
                    &TerminalStep::Pack { exprs: vec![] }
                )[0],
                vec![Shape::Tree],
                "{expr:?}"
            );
        }
        let leaf = |r: usize| Leaf::Reg(r);
        let values = [
            (c(2), Shape::Value(leaf(2), Op::Add, Leaf::Lit(0))),
            (l(-3), Shape::Value(Leaf::Lit(-3), Op::Add, Leaf::Lit(0))),
            (bin(Expr::Add, c(0), c(1)), Shape::Value(leaf(0), Op::Add, leaf(1))),
            (c(3).sub(l(9)), Shape::Value(leaf(3), Op::Sub, Leaf::Lit(9))),
            (l(9).mul(c(3)), Shape::Value(Leaf::Lit(9), Op::Mul, leaf(3))),
            (c(0).mul(c(0).sub(c(1))), Shape::Tree),
            (bin(Expr::Add, c(0), c(1)).sub(l(1)), Shape::Tree),
            (bin(Expr::Div, c(0), c(1)), Shape::Tree),
            (Expr::Not(Box::new(c(0))), Shape::Tree),
            (c(0).lt_lit(4), Shape::Tree),
        ];
        for (expr, shape) in values {
            let terminals = [
                TerminalStep::Pack { exprs: vec![expr.clone()] },
                TerminalStep::HashJoinBuild {
                    key: expr.clone(),
                    payload: vec![],
                    slot: StateSlot(0),
                },
                TerminalStep::Reduce { aggs: vec![AggSpec::sum(expr.clone())], slot: StateSlot(0) },
                TerminalStep::GroupBy {
                    keys: vec![expr.clone()],
                    aggs: vec![],
                    slot: StateSlot(0),
                },
            ];
            let steps =
                [Step::HashJoinProbe { key: expr.clone(), slot: StateSlot(1), payload_width: 1 }];
            let map = Step::Map { exprs: vec![expr.clone()] };
            assert_eq!(
                shapes(&[map], &TerminalStep::Pack { exprs: vec![] })[0],
                vec![shape.clone()],
                "{expr:?}"
            );
            for terminal in &terminals {
                let pipeline = CompiledPipeline::new(
                    PipelineId::new(91),
                    DeviceKind::CpuCore,
                    4,
                    steps.to_vec(),
                    terminal.clone(),
                )
                .unwrap();
                let want = vec![vec![shape.clone()], vec![shape.clone()]];
                assert_eq!(pipeline.shapes, want, "{expr:?} -> {terminal:?}");
                let walked = 2 * usize::from(shape == Shape::Tree);
                assert_eq!(pipeline.tree_walked_exprs(), walked, "{expr:?}");
            }
        }
        // A pack's shapes are its expressions'; a group-by's aggregates
        // follow its keys; a build's payload follows its key.
        let shapes_of = |terminal| shapes(&[], &terminal).remove(0);
        let tree = c(0).mul(c(1).mul(c(2)));
        let value = Shape::Value(leaf(1), Op::Add, Leaf::Lit(0));
        assert_eq!(
            shapes_of(TerminalStep::Pack { exprs: vec![c(1), tree.clone()] }),
            vec![value.clone(), Shape::Tree]
        );
        assert_eq!(
            shapes_of(TerminalStep::GroupBy {
                keys: vec![tree.clone()],
                aggs: vec![AggSpec::max(c(1)), AggSpec::count()],
                slot: StateSlot(0)
            }),
            vec![Shape::Tree, value.clone(), Shape::Value(Leaf::Lit(1), Op::Add, Leaf::Lit(0))]
        );
        assert_eq!(
            shapes_of(TerminalStep::HashJoinBuild {
                key: c(1),
                payload: vec![tree, c(1)],
                slot: StateSlot(0)
            }),
            vec![value.clone(), Shape::Tree, value]
        );
    }

    /// The literals the specialised-shape property draws: the `i64` and `i32`
    /// edges, and values inside its columns' ranges.
    const EDGES: [i64; 11] = [
        i64::MIN,
        i64::MIN + 1,
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        -1,
        0,
        1,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];

    fn literal(rng: &mut proptest::TestRng) -> i64 {
        match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            3 => rng.next_u64() as i32 as i64,
            _ => rng.below(120) as i64 - 10,
        }
    }

    /// An atom of any kind, on one of registers `0..width`, in either operand
    /// order.
    fn atom_expr(rng: &mut proptest::TestRng, width: usize) -> Expr {
        let r = rng.below(width as u64) as usize;
        let (col, lit) = (Box::new(Expr::col(r)), Box::new(Expr::lit(literal(rng))));
        let (a, b) = if rng.below(2) == 0 { (col, lit) } else { (lit, col) };
        match rng.below(7) {
            0 => Expr::Eq(a, b),
            1 => Expr::Lt(a, b),
            2 => Expr::Le(a, b),
            3 => Expr::Gt(a, b),
            4 => Expr::Ge(a, b),
            5 => {
                let (lo, hi) = (literal(rng), literal(rng));
                Expr::col(r)
                    .between(lo.min(hi), if rng.below(8) == 0 { lo.min(hi) - 1 } else { hi })
            }
            _ => Expr::col(r).in_list((0..1 + rng.below(4)).map(|_| literal(rng)).collect()),
        }
    }

    /// An `And`-tree of one to four atoms over registers `0..width`.
    fn conjunction(rng: &mut proptest::TestRng, width: usize) -> Expr {
        let atoms = 1 + rng.below(4).min(rng.below(4)) as usize;
        let mut tree = atom_expr(rng, width);
        for _ in 1..atoms {
            let atom = atom_expr(rng, width);
            tree = if rng.below(2) == 0 { tree.and(atom) } else { atom.and(tree) };
        }
        tree
    }

    /// A value of every specialised kind over registers `0..width`: a column,
    /// a literal, or two of them under `+ − ×`.
    fn value_expr(rng: &mut proptest::TestRng, width: usize) -> Expr {
        let leaf = |rng: &mut proptest::TestRng| {
            if rng.below(3) == 0 {
                Expr::lit(literal(rng))
            } else {
                Expr::col(rng.below(width as u64) as usize)
            }
        };
        let (a, b) = (Box::new(leaf(rng)), Box::new(leaf(rng)));
        match rng.below(5) {
            0 => *a,
            1 => Expr::Add(a, b),
            2 => Expr::Sub(a, b),
            3 => Expr::Mul(a, b),
            _ => Expr::col(rng.below(width as u64) as usize),
        }
    }

    /// Input column `c` of [`chain_input`]'s layout, with the `i64` and `i32`
    /// edges mixed into columns 1 and 3.
    fn edge_input(rng: &mut proptest::TestRng, rows: usize, int32: [bool; 4]) -> BlockHandle {
        let base = chain_input(rng, rows, int32);
        let columns = (0..4)
            .map(|c| {
                let col = base.block().column(c).unwrap();
                let values = (0..rows).map(|r| {
                    let v = col.get_i64(r).unwrap();
                    if c % 2 == 1 && rng.below(4) == 0 {
                        EDGES[rng.below(EDGES.len() as u64) as usize]
                    } else {
                        v
                    }
                });
                if int32[c] {
                    ColumnData::Int32(values.map(|v| v as i32).collect())
                } else {
                    ColumnData::Int64(values.collect())
                }
            })
            .collect();
        let block = Block::new(columns, rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(kernel_cases()))]

        /// The specialised shapes change nothing the per-tuple oracle can
        /// see: `And`-trees of one to four atoms of every kind (both operand
        /// orders, literals at the `i64` and `i32` edges) at the chain start,
        /// after a unique probe, after a map and after a fan-out probe, then
        /// every terminal over values of every specialised kind, on `Int32`
        /// and `Int64` inputs, blocks on and around the chunk size fed through
        /// one context: blocks, order, counters and state are the oracle's.
        #[test]
        fn specialised_shapes_match_the_per_tuple_oracle(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let table = |kind, slot: i64| {
                let rows = (0..64)
                    .flat_map(|k| {
                        let copies = if kind == TableKind::FanOut { 1 + k % 3 } else { 1 };
                        (0..copies).map(move |c| (k, vec![(k * 7 + slot + c) % 90 - 5]))
                    })
                    .collect();
                TableSpec { kind, width: 1, rows }
            };
            let tables = vec![table(TableKind::Direct, 0), table(TableKind::FanOut, 1)];
            let probe =
                |slot| Step::HashJoinProbe { key: Expr::col(0), slot, payload_width: 1 };
            let int32 = [0, 1, 2, 3].map(|_| rng.below(2) == 0);
            let sizes = [0, 1, 1_023, 1_024, 1_025, 2_900 + rng.below(200) as usize];
            let inputs: Vec<BlockHandle> = (0..1 + rng.below(3))
                .map(|b| {
                    let rows = sizes[rng.below(sizes.len() as u64) as usize];
                    let mut input = edge_input(&mut rng, rows, int32);
                    input.meta_mut().weight = 1.0 + b as f64;
                    input
                })
                .collect();
            let capacity = [1, 7, 1_023, 1_024, 4_096][rng.below(5) as usize];
            for placement in 0..4 {
                let (prefix, width) = match placement {
                    0 => (vec![], 4),
                    1 => (vec![probe(StateSlot(0))], 5),
                    2 => {
                        // The map reverses the input registers, so a register
                        // it made dense differs from the window column of its
                        // index.
                        let mut exprs: Vec<Expr> = (0..4).rev().map(Expr::col).collect();
                        exprs.push(value_expr(&mut rng, 4));
                        exprs.push(Expr::col(1).mul(Expr::col(3)).sub(Expr::col(2)));
                        (vec![Step::Map { exprs }], 6)
                    }
                    _ => (vec![probe(StateSlot(1))], 5),
                };
                let mut steps = prefix;
                steps.push(Step::Filter { predicate: conjunction(&mut rng, width) });
                if rng.below(4) == 0 {
                    steps.push(Step::Filter { predicate: conjunction(&mut rng, width) });
                }
                let slot = StateSlot(2);
                let mut v = || value_expr(&mut rng, width);
                let terminals = vec![
                    TerminalStep::Pack { exprs: vec![v(), v(), v()] },
                    TerminalStep::HashJoinBuild { key: v(), payload: vec![v(), v()], slot },
                    TerminalStep::Reduce {
                        aggs: vec![
                            AggSpec::sum(v()),
                            AggSpec::count(),
                            AggSpec::min(v()),
                            AggSpec::max(v()),
                        ],
                        slot,
                    },
                    TerminalStep::GroupBy {
                        keys: vec![v(), v()],
                        aggs: vec![AggSpec::sum(v()), AggSpec::count(), AggSpec::max(v())],
                        slot,
                    },
                ];
                for terminal in terminals {
                    let pipeline = CompiledPipeline::new(
                        PipelineId::new(92),
                        DeviceKind::CpuCore,
                        4,
                        steps.clone(),
                        terminal.clone(),
                    )
                    .unwrap();
                    let run = |per_tuple| {
                        let state = chain_state(&tables, &terminal);
                        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                        let (blocks, counters) =
                            run_instance(&pipeline, &inputs, &state, &mut ctx, per_tuple);
                        // The built table as a whole, not only its keys 0..128.
                        let built = match state.object(slot) {
                            Some(crate::state::StateObject::HashTable(t)) => {
                                (t.len(), t.distinct_keys())
                            }
                            _ => (0, 0),
                        };
                        (blocks, counters, dump_state(&state), built)
                    };
                    let case =
                        format!("seed {seed}: {steps:?} -> {terminal:?}, capacity {capacity}");
                    // Only the map's nested arithmetic is left to the tree walker.
                    let walked = usize::from(width == 6);
                    proptest::prop_assert_eq!(pipeline.tree_walked_exprs(), walked, "{}", case);
                    proptest::prop_assert_eq!(run(false), run(true), "{}", case);
                }
            }
        }
    }
}
