//! Scalar expressions evaluated inside compiled pipelines.
//!
//! Expressions operate over the pipeline's *registers*: the values of the
//! current tuple, like the register-pipelined values a compiled engine keeps
//! in CPU registers. A column reference is a register index fixed at plan
//! time. This module is the tree walker, per chunk ([`Expr::eval_batch`]):
//! the chunk kernel specialises the common shapes once per pipeline and walks
//! the tree only for the rest. The per-tuple walker (`Expr::eval`) is built
//! for tests only, as the per-tuple kernel oracle's.
//!
//! All SSB columns are integers after dictionary encoding, so expressions are
//! evaluated in `i64`; booleans are represented as 0/1.

use hetex_common::{HetError, Result};

/// A scalar expression over the current tuple's registers.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of register `i` (a column of the pipeline's input layout).
    Col(usize),
    /// A literal.
    Lit(i64),
    /// Arithmetic.
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division (used by derived SSB expressions such as year from
    /// a yyyymmdd date key).
    Div(Box<Expr>, Box<Expr>),
    /// Comparisons, producing 0/1.
    Eq(Box<Expr>, Box<Expr>),
    Ne(Box<Expr>, Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
    Le(Box<Expr>, Box<Expr>),
    Gt(Box<Expr>, Box<Expr>),
    Ge(Box<Expr>, Box<Expr>),
    /// Boolean connectives over 0/1 operands.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// Inclusive range check, the shape of most SSB predicates.
    Between(Box<Expr>, i64, i64),
    /// Membership in a small literal list (e.g. `d_yearmonthnum IN (...)`).
    InList(Box<Expr>, Vec<i64>),
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Shorthand for a literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(other))
    }

    /// `self > v`.
    pub fn gt_lit(self, v: i64) -> Expr {
        Expr::Gt(Box::new(self), Box::new(Expr::Lit(v)))
    }

    /// `self < v`.
    pub fn lt_lit(self, v: i64) -> Expr {
        Expr::Lt(Box::new(self), Box::new(Expr::Lit(v)))
    }

    /// `lo <= self <= hi`.
    pub fn between(self, lo: i64, hi: i64) -> Expr {
        Expr::Between(Box::new(self), lo, hi)
    }

    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<i64>) -> Expr {
        Expr::InList(Box::new(self), list)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// Evaluate over the given registers (the per-tuple oracle's walker).
    #[cfg(test)]
    pub fn eval(&self, regs: &[i64]) -> i64 {
        match self {
            Expr::Col(i) => regs[*i],
            Expr::Lit(v) => *v,
            Expr::Add(a, b) => a.eval(regs).wrapping_add(b.eval(regs)),
            Expr::Sub(a, b) => a.eval(regs).wrapping_sub(b.eval(regs)),
            Expr::Mul(a, b) => a.eval(regs).wrapping_mul(b.eval(regs)),
            Expr::Div(a, b) => div_or_zero(a.eval(regs), b.eval(regs)),
            Expr::Eq(a, b) => (a.eval(regs) == b.eval(regs)) as i64,
            Expr::Ne(a, b) => (a.eval(regs) != b.eval(regs)) as i64,
            Expr::Lt(a, b) => (a.eval(regs) < b.eval(regs)) as i64,
            Expr::Le(a, b) => (a.eval(regs) <= b.eval(regs)) as i64,
            Expr::Gt(a, b) => (a.eval(regs) > b.eval(regs)) as i64,
            Expr::Ge(a, b) => (a.eval(regs) >= b.eval(regs)) as i64,
            Expr::And(a, b) => ((a.eval(regs) != 0) && (b.eval(regs) != 0)) as i64,
            Expr::Or(a, b) => ((a.eval(regs) != 0) || (b.eval(regs) != 0)) as i64,
            Expr::Not(a) | Expr::Between(a, ..) | Expr::InList(a, _) => self.unary(a.eval(regs)),
        }
    }

    /// This unary node (`Not`, `Between`, `InList`) of operand `v`.
    #[inline]
    fn unary(&self, v: i64) -> i64 {
        match self {
            Expr::Not(_) => (v == 0) as i64,
            Expr::Between(_, lo, hi) => (v >= *lo && v <= *hi) as i64,
            Expr::InList(_, list) => list.contains(&v) as i64,
            _ => unreachable!("not a unary expression: {self:?}"),
        }
    }

    /// Evaluate as a boolean predicate.
    #[cfg(test)]
    pub fn eval_bool(&self, regs: &[i64]) -> bool {
        self.eval(regs) != 0
    }

    /// Column-at-a-time evaluation over the selected lanes of a chunk, the
    /// chunk kernel's fallback for the shapes it does not specialise: `out[j]`
    /// is the value at row `sel[j]` of `cols`, intermediates are rented from
    /// `pool`. `And`/`Or` evaluate both sides, which pure expressions cannot
    /// tell apart from short-circuiting.
    pub fn eval_batch(
        &self,
        cols: &[Vec<i64>],
        sel: &[u32],
        out: &mut Vec<i64>,
        pool: &mut ScratchPool,
    ) {
        out.clear();
        match self {
            Expr::Col(i) => {
                let src = &cols[*i];
                out.extend(sel.iter().map(|&r| src[r as usize]));
            }
            Expr::Lit(v) => out.resize(sel.len(), *v),
            Expr::Add(a, b) => binary_batch(a, b, cols, sel, out, pool, i64::wrapping_add),
            Expr::Sub(a, b) => binary_batch(a, b, cols, sel, out, pool, i64::wrapping_sub),
            Expr::Mul(a, b) => binary_batch(a, b, cols, sel, out, pool, i64::wrapping_mul),
            Expr::Div(a, b) => binary_batch(a, b, cols, sel, out, pool, div_or_zero),
            Expr::Eq(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x == y) as i64),
            Expr::Ne(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x != y) as i64),
            Expr::Lt(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x < y) as i64),
            Expr::Le(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x <= y) as i64),
            Expr::Gt(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x > y) as i64),
            Expr::Ge(a, b) => binary_batch(a, b, cols, sel, out, pool, |x, y| (x >= y) as i64),
            Expr::And(a, b) => {
                binary_batch(a, b, cols, sel, out, pool, |x, y| ((x != 0) && (y != 0)) as i64)
            }
            Expr::Or(a, b) => {
                binary_batch(a, b, cols, sel, out, pool, |x, y| ((x != 0) || (y != 0)) as i64)
            }
            Expr::Not(a) | Expr::Between(a, ..) | Expr::InList(a, _) => {
                a.eval_batch(cols, sel, out, pool);
                out.iter_mut().for_each(|v| *v = self.unary(*v));
            }
        }
    }

    /// Call `visit` with every register the expression reads, depth first
    /// (a register read twice is visited twice).
    pub fn for_each_register(&self, visit: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(i) => visit(*i),
            Expr::Lit(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.for_each_register(visit);
                b.for_each_register(visit);
            }
            Expr::Not(a) | Expr::Between(a, _, _) | Expr::InList(a, _) => {
                a.for_each_register(visit)
            }
        }
    }

    /// The highest register index referenced, if any — used to validate that
    /// an expression fits a pipeline's input layout.
    pub fn max_register(&self) -> Option<usize> {
        let mut max = None;
        self.for_each_register(&mut |r| max = max.max(Some(r)));
        max
    }

    /// Validate that every referenced register exists in a layout of `width`
    /// registers.
    pub fn check_width(&self, width: usize) -> Result<()> {
        match self.max_register() {
            Some(max) if max >= width => Err(HetError::Codegen(format!(
                "expression references register {max}, pipeline input has {width}"
            ))),
            _ => Ok(()),
        }
    }

    /// Rough number of simple operations one evaluation performs; feeds the
    /// cost model's `ops` counter.
    pub fn op_count(&self) -> f64 {
        match self {
            Expr::Col(_) | Expr::Lit(_) => 0.25,
            Expr::Not(a) => 1.0 + a.op_count(),
            Expr::Between(a, _, _) => 2.0 + a.op_count(),
            Expr::InList(a, list) => list.len() as f64 * 0.5 + a.op_count(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => 1.0 + a.op_count() + b.op_count(),
        }
    }
}

/// Integer division as both evaluators define it: a zero divisor yields 0 and
/// `i64::MIN / -1` wraps, so no data value can panic a worker.
#[inline]
fn div_or_zero(x: i64, y: i64) -> i64 {
    if y == 0 {
        0
    } else {
        x.wrapping_div(y)
    }
}

/// Evaluate both operands of a binary expression into dense lane buffers and
/// combine them with `op` in one tight loop.
#[inline]
fn binary_batch<F: Fn(i64, i64) -> i64>(
    a: &Expr,
    b: &Expr,
    cols: &[Vec<i64>],
    sel: &[u32],
    out: &mut Vec<i64>,
    pool: &mut ScratchPool,
    op: F,
) {
    let mut rhs = pool.acquire();
    a.eval_batch(cols, sel, out, pool);
    b.eval_batch(cols, sel, &mut rhs, pool);
    for (l, r) in out.iter_mut().zip(&rhs) {
        *l = op(*l, *r);
    }
    pool.release(rhs);
}

/// A pool of reusable buffers: `i64` columns for chunk-local scratch, and
/// one size class of the engine's [`crate::state::StateArena`].
///
/// Batch evaluation of a nested expression needs one buffer per concurrently
/// live operand; the pool hands buffers out and takes them back so the
/// steady-state chunk loop performs no heap allocation at all (buffers grow
/// to the chunk size once and are reused for as long as the pool lives —
/// the chunk kernel's lives as long as its pipeline instance).
#[derive(Debug)]
pub struct ScratchPool<T = i64> {
    free: Vec<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self { free: Vec::new() }
    }
}

impl<T> ScratchPool<T> {
    /// Rent a buffer (empty, but with whatever capacity it last grew to).
    pub fn acquire(&mut self) -> Vec<T> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// The last returned buffer that `fits`, as its last user left it.
    pub(crate) fn pop_where(&mut self, fits: impl Fn(&Vec<T>) -> bool) -> Option<Vec<T>> {
        let i = self.free.iter().rposition(fits)?;
        Some(self.free.swap_remove(i))
    }

    /// Return a buffer to the pool.
    pub fn release(&mut self, buf: Vec<T>) {
        self.free.push(buf);
    }
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Multiplicative (Fibonacci) hash over an i64: the hash tables' slot hash.
#[inline]
pub fn hash_i64(v: i64) -> i64 {
    let x = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_comparisons() {
        let regs = [10, 3, -5];
        assert_eq!(Expr::col(0).eval(&regs), 10);
        assert_eq!(Expr::lit(7).eval(&regs), 7);
        assert_eq!(Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))).eval(&regs), 13);
        assert_eq!(Expr::col(0).sub(Expr::col(2)).eval(&regs), 15);
        assert_eq!(Expr::col(0).mul(Expr::col(1)).eval(&regs), 30);
        assert_eq!(Expr::Div(Box::new(Expr::col(0)), Box::new(Expr::lit(3))).eval(&regs), 3);
        assert_eq!(Expr::Div(Box::new(Expr::col(0)), Box::new(Expr::lit(0))).eval(&regs), 0);
        assert_eq!(Expr::col(0).gt_lit(9).eval(&regs), 1);
        assert_eq!(Expr::col(0).lt_lit(9).eval(&regs), 0);
        assert_eq!(Expr::col(1).eq(Expr::lit(3)).eval(&regs), 1);
    }

    #[test]
    fn boolean_connectives() {
        let regs = [50, 1993];
        let pred = Expr::col(0).between(26, 35).or(Expr::col(1).eq(Expr::lit(1993)));
        assert!(pred.eval_bool(&regs));
        let both = Expr::col(0).gt_lit(40).and(Expr::col(1).gt_lit(2000));
        assert!(!both.eval_bool(&regs));
        assert_eq!(Expr::Not(Box::new(Expr::lit(0))).eval(&regs), 1);
        assert_eq!(Expr::Ne(Box::new(Expr::col(0)), Box::new(Expr::lit(50))).eval(&regs), 0);
        assert_eq!(Expr::Le(Box::new(Expr::col(0)), Box::new(Expr::lit(50))).eval(&regs), 1);
        assert_eq!(Expr::Ge(Box::new(Expr::col(0)), Box::new(Expr::lit(51))).eval(&regs), 0);
    }

    #[test]
    fn between_and_in_list_match_ssb_predicates() {
        // Q1.1: d_year = 1993 AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25
        let regs = [1993, 2, 20];
        let pred = Expr::col(0)
            .eq(Expr::lit(1993))
            .and(Expr::col(1).between(1, 3))
            .and(Expr::col(2).lt_lit(25));
        assert!(pred.eval_bool(&regs));
        let q = Expr::col(1).in_list(vec![2, 4, 6]);
        assert!(q.eval_bool(&regs));
        assert!(!Expr::col(1).in_list(vec![5, 7]).eval_bool(&regs));
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let a = hash_i64(1);
        let b = hash_i64(2);
        assert_ne!(a, b);
        assert_eq!(a, hash_i64(1));
        assert!(a >= 0 && b >= 0, "hash must be non-negative for modulo routing");
    }

    #[test]
    fn max_register_and_width_check() {
        let e = Expr::col(3).eq(Expr::col(1)).and(Expr::lit(1));
        assert_eq!(e.max_register(), Some(3));
        assert!(e.check_width(4).is_ok());
        assert!(e.check_width(3).is_err());
        assert_eq!(Expr::lit(5).max_register(), None);
        assert!(Expr::lit(5).check_width(0).is_ok());
        let mut read = Vec::new();
        e.or(Expr::col(1).between(0, 9)).for_each_register(&mut |r| read.push(r));
        assert_eq!(read, vec![3, 1, 1]);
    }

    #[test]
    fn eval_batch_matches_scalar_eval_lane_for_lane() {
        // Every operator, evaluated over a sparse selection, must agree with
        // the scalar interpreter on each selected lane.
        let cols: Vec<Vec<i64>> = vec![
            (0..64).collect(),
            (0..64).map(|i| (i * 7) % 13 - 6).collect(),
            (0..64).map(|i| i % 3).collect(),
        ];
        let sel: Vec<u32> = (0..64).filter(|i| i % 5 != 0).collect();
        let exprs = vec![
            Expr::col(0),
            Expr::lit(-3),
            Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))),
            Expr::col(0).sub(Expr::col(2)),
            Expr::col(1).mul(Expr::col(1)),
            Expr::Div(Box::new(Expr::col(0)), Box::new(Expr::col(2))), // hits y == 0 lanes
            Expr::col(0).eq(Expr::lit(21)),
            Expr::Ne(Box::new(Expr::col(2)), Box::new(Expr::lit(1))),
            Expr::col(1).lt_lit(0).and(Expr::col(0).gt_lit(10)),
            Expr::col(1).gt_lit(3).or(Expr::col(2).eq(Expr::lit(0))),
            Expr::Not(Box::new(Expr::col(2))),
            Expr::Le(Box::new(Expr::col(1)), Box::new(Expr::col(2)))
                .and(Expr::Ge(Box::new(Expr::col(0)), Box::new(Expr::lit(7)))),
            Expr::col(0).between(10, 40),
            Expr::col(2).in_list(vec![0, 2]),
        ];
        let mut pool = ScratchPool::new();
        let mut out = Vec::new();
        for expr in &exprs {
            expr.eval_batch(&cols, &sel, &mut out, &mut pool);
            assert_eq!(out.len(), sel.len(), "{expr:?}");
            for (j, &row) in sel.iter().enumerate() {
                let regs: Vec<i64> = cols.iter().map(|c| c[row as usize]).collect();
                assert_eq!(out[j], expr.eval(&regs), "{expr:?} lane {j} (row {row})");
            }
        }
    }

    #[test]
    fn arithmetic_wraps_instead_of_panicking_in_both_evaluators() {
        // Overflowing operands in every lane: debug and release builds, and
        // the scalar and batch evaluators, must all produce the wrapped value.
        let cols: Vec<Vec<i64>> = vec![vec![i64::MAX, i64::MIN, i64::MIN], vec![1, -1, 0]];
        let sel: Vec<u32> = vec![0, 1, 2];
        let bin =
            |f: fn(Box<Expr>, Box<Expr>) -> Expr| f(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        let cases = [
            (bin(Expr::Add), [i64::MIN, i64::MAX, i64::MIN]),
            (bin(Expr::Sub), [i64::MAX - 1, i64::MIN + 1, i64::MIN]),
            (Expr::col(0).mul(Expr::lit(2)), [-2, 0, 0]),
            (bin(Expr::Div), [i64::MAX, i64::MIN, 0]),
        ];
        let mut pool = ScratchPool::new();
        let mut out = Vec::new();
        for (expr, expected) in &cases {
            expr.eval_batch(&cols, &sel, &mut out, &mut pool);
            assert_eq!(out, expected, "{expr:?} (batch)");
            for (lane, want) in expected.iter().enumerate() {
                let regs = [cols[0][lane], cols[1][lane]];
                assert_eq!(expr.eval(&regs), *want, "{expr:?} lane {lane} (scalar)");
            }
        }
    }

    #[test]
    fn op_count_grows_with_complexity() {
        let simple = Expr::col(0).gt_lit(5);
        let complex = Expr::col(0)
            .between(1, 3)
            .and(Expr::col(1).in_list(vec![1, 2, 3, 4, 5, 6, 7, 8]))
            .and(Expr::col(2).eq(Expr::lit(9)));
        assert!(complex.op_count() > simple.op_count());
    }
}
