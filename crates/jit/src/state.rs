//! Shared query state: hash tables, aggregate accumulators, group-by tables.
//!
//! State objects are what the paper's *memory managers* serve (§4.3). They are
//! shared between every instance of the pipelines that reference them —
//! regardless of the device the instance runs on — because they are the one
//! place where the lack of global cache coherence matters. We keep state in
//! host memory protected by device-scoped atomics / short critical sections;
//! the *cost* of those synchronizations is what the cost model charges (one
//! atomic per CPU block that reaches the terminal, one per GPU warp),
//! mirroring how the paper minimizes global atomics with neighborhood
//! reductions. The model prices the paper's per-block flush even though the
//! host merges a lane's group-by partials once, when the lane finishes, so
//! simulated time does not depend on how the host batches its merges.
//!
//! Both hash structures are *flat*: one contiguous, fixed-stride `i64` arena
//! indexed directly by key when the keys' span is short, and otherwise by a
//! power-of-two open-addressing slot array (linear probing, at most half
//! full, indexed by the top bits of [`hash_i64`]). A direct group table is
//! its accumulators, addressed by the key's offset in a box and marked by an
//! occupancy bitset. There is no per-row heap object, so a group-by result
//! leaves as columns in key order, and dropping a table gives a handful of
//! buffers back to the [`StateArena`] however many rows it holds. A join
//! table's build only appends, a block of rows at a time; its index is built
//! once, when the build finishes (or on the first read after an insert),
//! sized for every row. A table of unique keys is probed without walking
//! chains.
//! DESIGN.md, "Hash state layout", has the full picture.

use crate::expr::{hash_i64, ScratchPool};
use crate::ir::{AggFunc, AggSpec, StateSlot};
use hetex_common::{BlockHandle, ColumnData, HetError, Result};
use hetex_gpu_sim::DeviceAtomicI64;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::Arc;

/// "No row" / "no group": the empty-slot marker and the end of a match chain.
const NIL: u32 = u32::MAX;

/// The fewest slots a slot array holds: a group table's on its first
/// insert, a join table's hashed index at any size.
const MIN_SLOTS: usize = 16;

/// Key span up to which [`JoinHashTable::seal`] builds a direct index even
/// when it is larger than the slot array: 32 Ki `u32` heads are 128 KiB,
/// half the per-core L2 of the paper's Xeon E5-2650L v3.
pub const DIRECT_FLOOR: usize = 32 * 1024;

/// Packed key span up to which a group table addresses its accumulators
/// directly by key: 64 Ki cells, whose occupancy bitset is 8 KiB and whose
/// accumulators are 512 KiB per aggregate, started by a group's first fold.
pub const GROUP_DIRECT_SPAN: usize = 64 * 1024;

/// Cells a direct group table's first box, or a re-box, has at least, so a
/// small key domain is boxed once rather than doubled into place.
const MIN_GROUP_BOX: usize = 1024;

/// Bytes a [`StateArena`] keeps between queries: about three times the
/// ≈ 22 MB a 500k-row join grouped on a key of 64 Ki values leaves in it.
pub const STATE_ARENA_BYTES: usize = 64 << 20;

/// A [`StateArena`]'s pools: per element type, one [`ScratchPool`] per size
/// class (class `k` holds capacities in `2^k .. 2^(k+1)`); then the bytes
/// they hold and the count of fresh allocations.
#[derive(Debug, Default)]
pub(crate) struct Pools(Classes<i64>, Classes<u32>, Classes<JoinSlot>, usize, u64);

type Classes<T> = Vec<ScratchPool<T>>;

/// An element type a [`StateArena`] pools.
pub(crate) trait Pooled: Copy {
    fn classes(pools: &mut Pools) -> &mut Classes<Self>;
}

macro_rules! pooled {
    ($($t:ty => $at:tt),*) => {$(impl Pooled for $t {
        fn classes(pools: &mut Pools) -> &mut Classes<Self> { &mut pools.$at }
    })*};
}
pooled!(i64 => 0, u32 => 1, JoinSlot => 2);

/// Where query state gets its buffers: the engine-owned arena of §4.3's
/// memory managers, recycling what one query's state leaves to the next.
///
/// A detached arena (the default) allocates and frees like plain `Vec`s.
/// An engine's arena ([`Self::new`]) is shared by its queries: the join and
/// group tables take their keys, rows and indexes from it, a lane its group
/// partials, build buffers and pack columns, and each gives them back when
/// it drops (a consumed block's columns come back with [`Self::recycle`]),
/// so a stream of queries stops faulting in the same memory. A request for
/// `n` values gets a pooled buffer of the smallest size class whose buffers
/// all hold `n`, or a fresh one of capacity `next_pow2(n)`; the pool keeps
/// at most [`STATE_ARENA_BYTES`].
#[derive(Debug, Clone, Default)]
pub struct StateArena(Option<Arc<Mutex<Pools>>>);

impl StateArena {
    /// An arena that keeps buffers between the queries sharing it.
    pub fn new() -> Self {
        Self(Some(Arc::default()))
    }

    /// Buffers allocated afresh so far, and the bytes the pool keeps (both
    /// zero when detached).
    pub fn stats(&self) -> (u64, usize) {
        self.0.as_ref().map_or((0, 0), |pools| {
            let pools = pools.lock();
            (pools.4, pools.3)
        })
    }

    /// A pooled buffer with room for `n` values, as its last user left it —
    /// one of `n`'s own size class that holds at least `len` values if any
    /// does; otherwise the capacity a fresh one gets.
    fn reuse<T: Pooled>(&self, n: usize, len: usize) -> std::result::Result<Vec<T>, usize> {
        let Some(pools) = self.0.as_ref().filter(|_| n > 0) else { return Err(n) };
        let mut pools = pools.lock();
        let fits = n.next_power_of_two().ilog2() as usize;
        let classes = T::classes(&mut pools);
        let long = classes.get_mut(fits).and_then(|c| c.pop_where(|b| b.len() >= len));
        let any = || classes.iter_mut().skip(fits).find_map(|c| c.pop_where(|_| true));
        if let Some(buf) = long.or_else(any) {
            pools.3 -= buf.capacity() * std::mem::size_of::<T>();
            return Ok(buf);
        }
        pools.4 += 1;
        Err(n.next_power_of_two())
    }

    /// An empty buffer with room for `n` values.
    pub(crate) fn take<T: Pooled>(&self, n: usize) -> Vec<T> {
        let mut buf = self.reuse(n, 0).unwrap_or_else(Vec::with_capacity);
        buf.clear();
        buf
    }

    /// `n` values as a pooled buffer's last user left them (only those
    /// past its length are written, none if one holds `n`), or zeroed by
    /// the allocator.
    fn stale(&self, n: usize) -> Vec<i64> {
        let mut buf = self.reuse(n, n).unwrap_or_else(|capacity| vec![0; capacity]);
        buf.resize(n, 0);
        buf
    }

    /// `n` copies of `value`, in a buffer from the arena.
    fn filled<T: Pooled>(&self, n: usize, value: T) -> Vec<T> {
        let mut buf = self.take(n);
        buf.resize(n, value);
        buf
    }

    /// Give a buffer back: kept while the pool stays within its budget.
    pub(crate) fn give<T: Pooled>(&self, buf: Vec<T>) {
        let Some(pools) = self.0.as_ref().filter(|_| buf.capacity() > 0) else { return };
        let mut pools = pools.lock();
        let (bytes, class) = (buf.capacity() * std::mem::size_of::<T>(), buf.capacity().ilog2());
        if pools.3 + bytes <= STATE_ARENA_BYTES {
            let classes = T::classes(&mut pools);
            classes.resize_with(classes.len().max(class as usize + 1), ScratchPool::default);
            classes[class as usize].release(buf);
            pools.3 += bytes;
        }
    }

    /// Give back the `i64` columns only `block` holds, once its consumer is
    /// done with it.
    pub fn recycle(&self, block: BlockHandle) {
        for column in block.into_owned_columns() {
            if let ColumnData::Int64(values) = column {
                self.give(values);
            }
        }
    }

    /// Make room for `additional` more values in `buf`: a full buffer moves
    /// to one from the arena at least twice its capacity, and the old one
    /// goes back.
    pub(crate) fn reserve<T: Pooled>(&self, buf: &mut Vec<T>, additional: usize) {
        let need = buf.len() + additional;
        if need <= buf.capacity() {
            return;
        }
        if self.0.is_none() {
            return buf.reserve(additional);
        }
        let mut grown = self.take(need.max(2 * buf.capacity()));
        grown.extend_from_slice(buf);
        self.give(std::mem::replace(buf, grown));
    }
}

/// Shift that maps a 63-bit [`hash_i64`] value to the top bits indexing
/// `slots` (a power of two) slots.
fn shift_for(slots: usize) -> u32 {
    debug_assert!(slots.is_power_of_two());
    63 - slots.trailing_zeros()
}

/// Hash of a group key: [`hash_i64`] folded over its columns.
fn hash_key(key: &[i64]) -> i64 {
    key.iter().fold(0, |h, &k| hash_i64(h ^ k))
}

/// The next free row / group index, which must stay below [`NIL`].
fn next_index(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&i| i != NIL).expect("hash state holds fewer than 2^32 entries")
}

/// One slot of a hashed join index: a distinct key and the first row of its
/// match chain. Empty while `head` is [`NIL`].
#[derive(Debug, Clone, Copy)]
struct JoinSlot {
    key: i64,
    head: u32,
}

const EMPTY_JOIN_SLOT: JoinSlot = JoinSlot { key: 0, head: NIL };

/// The unsynchronized join table the lock in [`JoinHashTable`] protects.
///
/// Row `r` has key `keys[r]` and occupies `arena[r * stride .. (r + 1) *
/// stride]` with `stride = width + 1`: the payload columns, then the index
/// of the next row with the same key (`NIL` at the end of the chain).
///
/// Inserts only append. [`Self::seal`] links every row into its key's chain
/// and builds one index of the chain heads, sized for every row: `direct`,
/// the smallest key and, at `key − min`, each key's chain head (`NIL` for a
/// key it lacks), when the keys fit a short range, and the hashed `slots`
/// otherwise. The index and `distinct` cover the first `indexed` rows.
/// Every buffer comes from, and goes back to, `pool`.
#[derive(Debug, Default)]
struct FlatJoin {
    width: usize,
    keys: Vec<i64>,
    arena: Vec<i64>,
    indexed: usize,
    distinct: usize,
    slots: Vec<JoinSlot>,
    shift: u32,
    direct: Option<(i64, Vec<u32>)>,
    pool: StateArena,
}

impl Drop for FlatJoin {
    fn drop(&mut self) {
        self.drop_index();
        self.pool.give(std::mem::take(&mut self.keys));
        self.pool.give(std::mem::take(&mut self.arena));
    }
}

/// `key`'s chain head in the direct index `heads` of keys from `base` on:
/// one bounds check and one load.
fn direct_head(base: i64, heads: &[u32], key: i64) -> u32 {
    let off = key.wrapping_sub(base) as u64;
    if off < heads.len() as u64 {
        heads[off as usize]
    } else {
        NIL
    }
}

impl FlatJoin {
    /// Give the index's buffers back to the pool.
    fn drop_index(&mut self) {
        self.pool.give(std::mem::take(&mut self.slots));
        if let Some((_, heads)) = self.direct.take() {
            self.pool.give(heads);
        }
    }

    fn stride(&self) -> usize {
        self.width + 1
    }

    fn rows(&self) -> usize {
        self.keys.len()
    }

    /// True while the index covers every row.
    fn is_indexed(&self) -> bool {
        self.indexed == self.rows()
    }

    /// Index every row, once: a no-op on an empty or already indexed table.
    ///
    /// The index has `slots = next_pow2(2 × rows)` slots (at least
    /// [`MIN_SLOTS`]) and is direct when the keys' span is at most
    /// `max(4 × slots, DIRECT_FLOOR)`: no larger than the slot array, or
    /// within [`DIRECT_FLOOR`]. Only that index is allocated. Rows are
    /// linked from the last to the first, each at the front of its key's
    /// chain, so chains come out in insertion order without a tail pointer.
    fn seal(&mut self) {
        if self.is_indexed() {
            return;
        }
        let (min, max) =
            self.keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let len = (2 * self.rows()).next_power_of_two().max(MIN_SLOTS);
        let span = i128::from(max) - i128::from(min) + 1;
        let (stride, width) = (self.stride(), self.width);
        self.distinct = 0;
        self.drop_index();
        if span <= (4 * len).max(DIRECT_FLOOR) as i128 {
            let mut heads = self.pool.filled(span as usize, NIL);
            for (r, &key) in self.keys.iter().enumerate().rev() {
                let head = &mut heads[key.wrapping_sub(min) as u64 as usize];
                self.distinct += usize::from(*head == NIL);
                self.arena[r * stride + width] = i64::from(*head);
                *head = r as u32;
            }
            self.direct = Some((min, heads));
        } else {
            self.slots = self.pool.filled(len, EMPTY_JOIN_SLOT);
            self.shift = shift_for(len);
            for r in (0..self.rows()).rev() {
                let key = self.keys[r];
                let i = self.slot_from(self.home(key), key);
                let slot = &mut self.slots[i];
                self.distinct += usize::from(slot.head == NIL);
                self.arena[r * stride + width] = i64::from(slot.head);
                *slot = JoinSlot { key, head: r as u32 };
            }
        }
        self.indexed = self.rows();
    }

    fn home(&self, key: i64) -> usize {
        (hash_i64(key) as u64 >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go, scanning
    /// from slot `i` (its home slot or any slot of its probe run before that
    /// one). Terminates because the table is never more than half full.
    fn slot_from(&self, mut i: usize, key: i64) -> usize {
        let mask = self.slots.len() - 1;
        loop {
            let slot = self.slots[i];
            if slot.head == NIL || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn head_of(&self, key: i64) -> u32 {
        if let Some((base, heads)) = &self.direct {
            direct_head(*base, heads, key)
        } else if self.slots.is_empty() {
            NIL
        } else {
            self.slots[self.slot_from(self.home(key), key)].head
        }
    }

    /// The payload of row `row` and the row that follows it in its chain.
    fn row(&self, row: u32) -> (&[i64], u32) {
        let cells = &self.arena[row as usize * self.stride()..][..self.stride()];
        (&cells[..self.width], cells[self.width] as u32)
    }

    /// Append one row per key. `write_payload` fills the new rows' cells
    /// (`stride` per row, every cell `NIL` on entry) with their payloads.
    /// Nothing is hashed or linked until the next [`Self::seal`].
    fn insert_batch(&mut self, keys: &[i64], write_payload: impl FnOnce(&mut [i64])) {
        next_index(self.rows() + keys.len());
        self.pool.reserve(&mut self.keys, keys.len());
        self.keys.extend_from_slice(keys);
        let (start, cells) = (self.arena.len(), keys.len() * self.stride());
        self.pool.reserve(&mut self.arena, cells);
        self.arena.resize(start + cells, i64::from(NIL));
        write_payload(&mut self.arena[start..]);
    }

    fn bytes(&self) -> u64 {
        let direct = self.direct.as_ref().map_or(0, |(_, heads)| heads.len());
        (self.slots.len() * std::mem::size_of::<JoinSlot>()
            + (self.keys.len() + self.arena.len()) * std::mem::size_of::<i64>()
            + direct * std::mem::size_of::<u32>()) as u64
    }
}

/// A hash table built by the build side of an equi-join.
///
/// Builders and probers synchronize per *block*: [`Self::insert_batch`]
/// takes the write lock once to append a whole block of build tuples, and
/// [`Self::read`] hands out a guard under which a whole block of keys is
/// probed. The build stage [`Self::seal`]s the table when its last worker
/// finishes, which indexes every row at once. Sealing is not a state the
/// callers must sequence: a read of a table with rows its index does not
/// cover indexes them first, so a probe may follow an insert at any time.
#[derive(Debug)]
pub struct JoinHashTable {
    payload_width: usize,
    table: RwLock<FlatJoin>,
}

impl JoinHashTable {
    /// An empty hash table whose rows carry `payload_width` payload columns.
    pub fn new(payload_width: usize) -> Self {
        Self::in_arena(payload_width, StateArena::default())
    }

    /// An empty hash table whose buffers come from `arena`.
    pub fn in_arena(payload_width: usize, arena: StateArena) -> Self {
        let mut table = FlatJoin::default();
        (table.width, table.pool) = (payload_width, arena);
        Self { payload_width, table: RwLock::new(table) }
    }

    /// Payload columns per build row.
    pub fn payload_width(&self) -> usize {
        self.payload_width
    }

    /// Insert one build tuple: a one-row [`Self::insert_batch`].
    ///
    /// # Panics
    /// If `payload` does not have [`Self::payload_width`] columns.
    pub fn insert(&self, key: i64, payload: Vec<i64>) {
        assert_eq!(payload.len(), self.payload_width, "payload does not match the table's width");
        self.table.write().insert_batch(&[key], |cells| {
            cells[..payload.len()].copy_from_slice(&payload);
        });
    }

    /// Append a batch of build tuples under one write lock: tuple `j` is
    /// `(keys[j], payload_cols[..][j])`, appended in ascending `j`.
    ///
    /// # Panics
    /// If there are not [`Self::payload_width`] payload columns of
    /// `keys.len()` values each.
    pub fn insert_batch(&self, keys: &[i64], payload_cols: &[Vec<i64>]) {
        assert_eq!(
            payload_cols.len(),
            self.payload_width,
            "payload does not match the table's width"
        );
        assert!(payload_cols.iter().all(|c| c.len() == keys.len()), "ragged payload columns");
        let stride = self.payload_width + 1;
        self.table.write().insert_batch(keys, |cells| {
            for (c, column) in payload_cols.iter().enumerate() {
                for (row, &value) in cells.chunks_exact_mut(stride).zip(column) {
                    row[c] = value;
                }
            }
        });
    }

    /// A read guard to probe a block of keys under, indexing any rows
    /// appended since the last index first.
    pub fn read(&self) -> JoinProbe<'_> {
        loop {
            let table = self.table.read();
            if table.is_indexed() {
                return JoinProbe { table };
            }
            drop(table);
            self.seal();
        }
    }

    /// Visit the payloads matching `key`, in insertion order.
    pub fn probe<F: FnMut(&[i64])>(&self, key: i64, visit: F) -> usize {
        self.read().probe(key, visit)
    }

    /// Number of build tuples inserted.
    pub fn len(&self) -> usize {
        self.table.read().rows()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.read().table.distinct
    }

    /// Index every row: directly by `key − min` when the keys' span is at
    /// most `max(4 × slots, DIRECT_FLOOR)` for `slots = next_pow2(2 × rows)`
    /// — in bytes, no larger than a slot array for every row or at most
    /// 128 KiB — and hashed otherwise. Probes of a direct index resolve a
    /// chain head with one bounds check and one load instead of a linear
    /// probe. Sealing an empty or already indexed table does nothing; rows
    /// inserted later are indexed, with all the others, on the next read.
    #[cold]
    pub fn seal(&self) {
        self.table.write().seal();
    }

    /// True if the table's index covers every row and is direct.
    pub fn is_direct(&self) -> bool {
        let table = self.table.read();
        table.is_indexed() && table.direct.is_some()
    }

    /// Bytes of the table's key column, row arena and index, for
    /// state-memory accounting. The columns' growth slack is not counted.
    pub fn approx_bytes(&self) -> u64 {
        self.table.read().bytes()
    }
}

/// A probe's matches, reusable across chunks: match `m` pairs probed row
/// `lanes[m]` with build row `rows[m]`.
#[derive(Debug, Default)]
pub struct JoinMatches {
    /// The probed row of each match, ascending.
    pub lanes: Vec<u32>,
    /// Matching build row, for [`JoinProbe::gather_payload`].
    pub rows: Vec<u32>,
}

/// Narrow `sel` to the rows whose key `key(j, sel[j])` has a chain head
/// (`head`), writing each head to `rows` beside its row: the matches of a
/// table whose chains all hold one row. The loop writes every row and
/// advances past the ones that match, so it has no data-dependent branch;
/// under `IDENTITY` the row is `j` and `sel` is only written.
fn narrow<const IDENTITY: bool>(
    sel: &mut Vec<u32>,
    rows: &mut Vec<u32>,
    key: impl Fn(usize, usize) -> i64,
    head: impl Fn(i64) -> u32,
) {
    rows.resize(sel.len(), 0);
    let (mut kept, lanes, heads) = (0, sel.as_mut_slice(), rows.as_mut_slice());
    for j in 0..lanes.len() {
        let r = if IDENTITY { j as u32 } else { lanes[j] };
        let h = head(key(j, r as usize));
        lanes[kept] = r;
        heads[kept] = h;
        kept += usize::from(h != NIL);
    }
    sel.truncate(kept);
    rows.truncate(kept);
}

/// Shared read access to a [`JoinHashTable`], held for a block of probes.
pub struct JoinProbe<'a> {
    table: RwLockReadGuard<'a, FlatJoin>,
}

impl JoinProbe<'_> {
    /// Visit the payloads matching `key`, in insertion order.
    pub fn probe<F: FnMut(&[i64])>(&self, key: i64, mut visit: F) -> usize {
        let mut matches = 0;
        let mut row = self.table.head_of(key);
        while row != NIL {
            let (payload, next) = self.table.row(row);
            visit(payload);
            matches += 1;
            row = next;
        }
        matches
    }

    /// Probe a batch of keys, replacing `matches` with every match in key
    /// order and then insertion order: `Self::probe_rows` over the rows
    /// `0..keys.len()`, whose lanes are the keys' indexes.
    pub fn probe_batch(&self, keys: &[i64], matches: &mut JoinMatches) {
        let mut sel = std::mem::take(&mut matches.lanes);
        sel.clear();
        sel.extend(0..keys.len() as u32);
        self.probe_rows(&mut sel, |j, _| keys[j], matches);
        if self.unique_keys() {
            matches.lanes = sel;
        }
    }

    /// Probe the key `key(j, sel[j])` of each selected row `sel[j]` in one
    /// pass that resolves its chain head and emits its matches, in row order
    /// and then insertion order: against unique keys it narrows `sel` to the
    /// matched rows and sets `matches.rows` beside them — without reading
    /// `sel` while it is the identity — otherwise it sets `matches` to every
    /// `(row, build row)` pair.
    pub(crate) fn probe_rows(
        &self,
        sel: &mut Vec<u32>,
        key: impl Fn(usize, usize) -> i64,
        matches: &mut JoinMatches,
    ) {
        let table = &*self.table;
        matches.lanes.clear();
        matches.rows.clear();
        if let Some((base, heads)) = &table.direct {
            self.emit(sel, key, |k| direct_head(*base, heads, k), matches);
        } else if table.slots.is_empty() {
            sel.clear();
        } else {
            self.emit(sel, key, |k| table.slots[table.slot_from(table.home(k), k)].head, matches);
        }
    }

    /// [`Self::probe_rows`] with `head` resolving a key's chain head.
    fn emit(
        &self,
        sel: &mut Vec<u32>,
        key: impl Fn(usize, usize) -> i64,
        head: impl Fn(i64) -> u32,
        matches: &mut JoinMatches,
    ) {
        let identity = sel.last().map_or(0, |&r| r as usize + 1) == sel.len();
        match (self.unique_keys(), identity) {
            (true, true) => narrow::<true>(sel, &mut matches.rows, key, head),
            (true, false) => narrow::<false>(sel, &mut matches.rows, key, head),
            (false, _) => {
                for (j, &r) in sel.iter().enumerate() {
                    let mut row = head(key(j, r as usize));
                    while row != NIL {
                        matches.lanes.push(r);
                        matches.rows.push(row);
                        row = self.table.row(row).1;
                    }
                }
            }
        }
    }

    /// True if every key has one build row: a probe matches each key at
    /// most once.
    pub fn unique_keys(&self) -> bool {
        self.table.distinct == self.table.rows()
    }

    /// Append payload column `column` of each of `rows` to `out`.
    pub fn gather_payload(&self, column: usize, rows: &[u32], out: &mut Vec<i64>) {
        out.extend(self.payload(column, rows));
    }

    /// Write payload column `column` of row `rows[m]` to `out[at[m]]`.
    pub fn scatter_payload(&self, column: usize, rows: &[u32], at: &[u32], out: &mut [i64]) {
        for (value, &a) in self.payload(column, rows).zip(at) {
            out[a as usize] = value;
        }
    }

    fn payload<'r>(&'r self, column: usize, rows: &'r [u32]) -> impl Iterator<Item = i64> + 'r {
        let table = &*self.table;
        assert!(column < table.width, "payload column out of range");
        let stride = table.stride();
        rows.iter().map(move |&r| table.arena[r as usize * stride + column])
    }
}

/// Ungrouped aggregate accumulators, updated with device-scoped atomics.
#[derive(Debug)]
pub struct Accumulators {
    funcs: Vec<AggFunc>,
    values: Vec<DeviceAtomicI64>,
}

impl Accumulators {
    /// Accumulators matching `aggs`.
    pub fn new(aggs: &[AggSpec]) -> Self {
        Self {
            funcs: aggs.iter().map(|a| a.func).collect(),
            values: aggs.iter().map(|a| DeviceAtomicI64::new(a.func.identity())).collect(),
        }
    }

    /// Number of accumulators.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no accumulators.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merge a vector of partial values (one per aggregate) with one atomic
    /// update each — this is what the worker-scoped atomic of Listing 1 does.
    pub fn merge_partials(&self, partials: &[i64]) {
        debug_assert_eq!(partials.len(), self.values.len());
        for ((func, acc), partial) in self.funcs.iter().zip(&self.values).zip(partials) {
            match func {
                AggFunc::Sum | AggFunc::Count => {
                    acc.fetch_add(*partial);
                }
                AggFunc::Min => {
                    acc.fetch_min(*partial);
                }
                AggFunc::Max => {
                    acc.fetch_max(*partial);
                }
            }
        }
    }

    /// Snapshot of the accumulator values.
    pub fn values(&self) -> Vec<i64> {
        self.values.iter().map(DeviceAtomicI64::load).collect()
    }

    /// The aggregate functions.
    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }
}

/// A flat, unsynchronized group table: a lane's partials, and (behind a
/// mutex) the body of [`GroupByTable`].
///
/// While the keys' packed span (the product of each key column's observed
/// `min..=max`) is at most [`GROUP_DIRECT_SPAN`], the table is direct and is
/// its accumulators: a key's offset `off` is its row-major position in the
/// box `lo[c] .. lo[c] + width[c]` (column 0 most significant), bit `off` of
/// `index` marks its group, and `arena[off * aggs..][..aggs]` holds the
/// group's accumulators, first written by its first fold. A key outside the
/// box moves every group to a wider one; a key past the cap turns the table
/// hashed for good: group `g` is then `arena[g * stride..][..stride]`, its
/// key columns and accumulators in first-insertion order, and `index` a slot
/// array of group indexes, probed linearly from the top bits of the key's
/// hash. Buffers come from, and go back to, `pool`.
#[derive(Debug, Default)]
pub struct FlatGroups {
    key_arity: usize,
    funcs: Vec<AggFunc>,
    lo: Vec<i64>,
    width: Vec<u64>,
    index: Vec<u32>,
    hashed: bool,
    shift: u32,
    groups: usize,
    arena: Vec<i64>,
    pool: StateArena,
}

/// Flags a cell offset whose lane is the first to reach the cell: its
/// first fold starts from the identity, not from the cell.
const FRESH: u32 = 1 << 31;

impl Drop for FlatGroups {
    fn drop(&mut self) {
        self.pool.give(std::mem::take(&mut self.index));
        self.pool.give(std::mem::take(&mut self.arena));
    }
}

impl FlatGroups {
    /// An empty table of `key_arity`-column keys aggregated by `aggs`.
    pub fn new(key_arity: usize, aggs: &[AggSpec]) -> Self {
        let mut table = Self::default();
        table.reset(key_arity, aggs);
        table
    }

    /// Take buffers from `arena` from now on, and give them back to it.
    pub fn use_arena(&mut self, arena: &StateArena) {
        self.pool = arena.clone();
    }

    /// Empty the table and give it a new shape, keeping its allocations.
    pub fn reset(&mut self, key_arity: usize, aggs: &[AggSpec]) {
        self.funcs.clear();
        self.funcs.extend(aggs.iter().map(|a| a.func));
        self.clear(key_arity);
    }

    /// Empty the table for keys of `key_arity` columns, keeping its
    /// aggregates and allocations. It starts direct, with no box.
    pub(crate) fn clear(&mut self, key_arity: usize) {
        self.key_arity = key_arity;
        (self.hashed, self.groups) = (false, 0);
        self.index.clear();
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups
    }

    /// True if no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// True while keys are indexed directly rather than hashed.
    pub fn is_direct(&self) -> bool {
        !self.hashed
    }

    /// True while the table is direct and has a box.
    pub(crate) fn is_boxed(&self) -> bool {
        !self.hashed && !self.index.is_empty()
    }

    /// Call `visit` with each group's key and accumulators, in key order
    /// when direct and in first-insertion order when hashed.
    pub fn for_each(&self, mut visit: impl FnMut(&[i64], &[i64])) {
        let (arity, aggs) = (self.key_arity, self.funcs.len());
        if self.hashed {
            let rows = self.arena[..self.groups * (arity + aggs)].chunks_exact(arity + aggs);
            return rows.for_each(|row| visit(&row[..arity], &row[arity..]));
        }
        let mut key = vec![0; arity];
        for (w, &word) in self.index.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let off = w * 32 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Column 0 is what is left once the others are divided out.
                let mut rest = off;
                for c in (1..arity).rev() {
                    let width = self.width[c] as usize;
                    (key[c], rest) = (self.lo[c].wrapping_add((rest % width) as i64), rest / width);
                }
                if let Some(first) = key.first_mut() {
                    *first = self.lo[0].wrapping_add(rest as i64);
                }
                visit(&key, &self.arena[off * aggs..][..aggs]);
            }
        }
    }

    /// The accumulators of `key`'s group, starting a group of identities if
    /// the key is new.
    pub fn entry(&mut self, key: &[i64]) -> &mut [i64] {
        assert_eq!(key.len(), self.key_arity, "group key does not match the table's arity");
        let at = self.slot_of(&|c| key[c]);
        &mut self.arena[at..at + self.funcs.len()]
    }

    /// Pack key column `c` into the offsets `ids`, which hold the columns
    /// before it: false if a key falls outside the box.
    #[inline]
    pub(crate) fn pack(&self, c: usize, keys: impl Iterator<Item = i64>, ids: &mut [u32]) -> bool {
        let (lo, width, mut inside) = (self.lo[c], self.width[c], true);
        for (off, k) in ids.iter_mut().zip(keys) {
            let d = k.wrapping_sub(lo) as u64;
            inside &= d < width;
            *off = off.wrapping_mul(width as u32).wrapping_add(d as u32);
        }
        inside
    }

    /// Set lane `j` of `ids` to the claimed cell or the group of the key
    /// `key_cols[..][j]`, once the table covers them all.
    pub(crate) fn locate(&mut self, key_cols: &[Vec<i64>], ids: &mut [u32]) {
        assert_eq!(key_cols.len(), self.key_arity, "group key does not match the table's arity");
        if !ids.is_empty() {
            self.cover(key_cols.iter().map(|col| bounds_of(&col[..ids.len()])));
        }
        for (j, id) in ids.iter_mut().enumerate() {
            *id = self.cell_of(&|c| key_cols[c][j]);
        }
    }

    /// Mark a direct table's cells `offs` occupied, flagging [`FRESH`] each
    /// lane that is the first to reach its cell. Branch-free.
    pub(crate) fn claim(&mut self, offs: &mut [u32]) {
        for off in offs {
            let (word, bit) = (*off as usize / 32, 1 << (*off % 32));
            let fresh = self.index[word] & bit == 0;
            self.index[word] |= bit;
            self.groups += usize::from(fresh);
            *off |= u32::from(fresh) << 31;
        }
    }

    /// Fold `values`, one per lane of `ids`, into aggregate `i` of each
    /// lane's cell or group, matching the function once.
    #[inline]
    pub(crate) fn fold(&mut self, i: usize, values: impl Iterator<Item = i64>, ids: &[u32]) {
        let (stride, first, fresh) = match self.hashed {
            true => (self.stride(), self.key_arity, 0),
            false => (self.funcs.len(), 0, FRESH),
        };
        let (func, accs) = (self.funcs[i], &mut self.arena[first + i..]);
        let identity = func.identity();
        macro_rules! each {
            ($op:expr) => {
                for (&id, v) in ids.iter().zip(values) {
                    let acc = &mut accs[(id & !fresh) as usize * stride];
                    *acc = $op(std::hint::select_unpredictable(id & fresh == 0, *acc, identity), v);
                }
            };
        }
        match func {
            AggFunc::Sum => each!(i64::wrapping_add),
            AggFunc::Count => each!(|acc: i64, _| acc.wrapping_add(1)),
            AggFunc::Min => each!(i64::min),
            AggFunc::Max => each!(i64::max),
        }
    }

    /// Merge another table's partial accumulators into this one, group by
    /// group (a direct one's in key order, so a box grows in few steps). An
    /// empty table adopts `other`'s key arity.
    pub fn merge_from(&mut self, other: &FlatGroups) {
        if self.groups == 0 {
            self.clear(other.key_arity);
        }
        assert_eq!(self.key_arity, other.key_arity, "merging group tables of different arity");
        assert_eq!(self.funcs, other.funcs, "merging group tables of different aggregates");
        other.for_each(|key, partials| {
            let at = self.slot_of(&|c| key[c]);
            for (i, &partial) in partials.iter().enumerate() {
                self.arena[at + i] = self.funcs[i].merge(self.arena[at + i], partial);
            }
        });
    }

    /// Every group as columns — the key columns, then one column per
    /// aggregate — with rows in ascending key order (lexicographic over the
    /// key columns). A direct table visits its cells in that order. A hashed
    /// one sorts its group indexes by their key cells, which are distinct,
    /// so the order is total; the sort runs over contiguous `(first key
    /// cell, group)` pairs and reads the rest of a key from the arena only
    /// to break a tie on its first cell.
    pub fn sorted_columns(&self) -> Vec<Vec<i64>> {
        let stride = self.stride();
        let mut columns: Vec<Vec<i64>> = (0..stride).map(|_| self.pool.take(self.groups)).collect();
        let mut push = |key: &[i64], accs: &[i64]| {
            columns.iter_mut().zip(key.iter().chain(accs)).for_each(|(column, &v)| column.push(v))
        };
        if self.hashed {
            let key = |g: u32| &self.arena[g as usize * stride..][..self.key_arity];
            let mut order: Vec<(i64, u32)> = (0..self.groups as u32)
                .map(|g| (key(g).first().copied().unwrap_or(0), g))
                .collect();
            order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(key(b.1))));
            for (_, g) in order {
                let row = &self.arena[g as usize * stride..][..stride];
                push(&row[..self.key_arity], &row[self.key_arity..]);
            }
        } else {
            self.for_each(push);
        }
        columns
    }

    /// Bytes the table holds (index plus arena, at capacity).
    pub fn approx_bytes(&self) -> u64 {
        (self.index.capacity() * std::mem::size_of::<u32>()
            + self.arena.capacity() * std::mem::size_of::<i64>()) as u64
    }

    fn stride(&self) -> usize {
        self.key_arity + self.funcs.len()
    }

    /// The claimed cell (direct) or the group (hashed) of the key
    /// `key_at(0..key_arity)`.
    fn cell_of(&mut self, key_at: &impl Fn(usize) -> i64) -> u32 {
        self.cover((0..self.key_arity).map(|c| (key_at(c), key_at(c))));
        if self.hashed {
            return self.upsert(key_at) as u32;
        }
        let packed = |off, c| off * self.width[c] + key_at(c).wrapping_sub(self.lo[c]) as u64;
        let mut off = [(0..self.key_arity).fold(0, packed) as u32];
        self.claim(&mut off);
        off[0]
    }

    /// Where the accumulators of the key `key_at(..)` start in the arena,
    /// set to the identities if its group is new.
    fn slot_of(&mut self, key_at: &impl Fn(usize) -> i64) -> usize {
        let id = self.cell_of(key_at);
        if self.hashed {
            return id as usize * self.stride() + self.key_arity;
        }
        let (aggs, at) = (self.funcs.len(), (id & !FRESH) as usize * self.funcs.len());
        if id & FRESH != 0 {
            for (acc, func) in self.arena[at..at + aggs].iter_mut().zip(&self.funcs) {
                *acc = func.identity();
            }
        }
        at
    }

    /// Make a direct table cover the keys whose column `c` lies in the
    /// `c`-th of `bounds`: widen its box if they fall outside.
    fn cover(&mut self, bounds: impl Iterator<Item = (i64, i64)> + Clone) {
        let inside = |((&lo, &width), (min, max)): ((&i64, &u64), (i64, i64))| {
            (min.wrapping_sub(lo) as u64) < width && (max.wrapping_sub(lo) as u64) < width
        };
        let boxed = self.lo.iter().zip(&self.width);
        if !(self.hashed || self.is_boxed() && boxed.zip(bounds.clone()).all(inside)) {
            self.widen(bounds.collect());
        }
    }

    /// Move every group to a box over each column's observed `min..=max`
    /// (groups and `seen`), twice as wide or as much as [`GROUP_DIRECT_SPAN`]
    /// allows, from zero if that holds the column, else centred. Past the
    /// cap, the table turns hashed for good.
    #[cold]
    fn widen(&mut self, mut seen: Vec<(i64, i64)>) {
        self.for_each(|key, _| {
            for (range, &k) in seen.iter_mut().zip(key) {
                *range = (range.0.min(k), range.1.max(k));
            }
        });
        let span = |&(lo, hi): &(i64, i64)| (i128::from(hi) - i128::from(lo) + 1) as f64;
        let (cells, cap) =
            (|r: &[(i64, i64)]| r.iter().map(span).product::<f64>(), GROUP_DIRECT_SPAN as f64);
        let mut old = FlatGroups::default();
        std::mem::swap(self, &mut old);
        (self.key_arity, self.pool) = (old.key_arity, old.pool.clone());
        self.funcs.clone_from(&old.funcs);
        self.hashed = cells(&seen) > cap;
        if !self.hashed {
            // Small boxes grow to `MIN_GROUP_BOX` cells at once.
            let root = |n: f64| (n / cells(&seen)).powf(1.0 / seen.len().max(1) as f64);
            let factor = root(cap).min(root(MIN_GROUP_BOX as f64).max(2.0));
            let roomy: Vec<(i64, i64)> = seen
                .iter()
                .map(|range| {
                    let width = (span(range) * factor).round() as i128;
                    let lo = i128::from(range.0) - (width - span(range) as i128) / 2;
                    let lo = lo.clamp(i64::MIN.into(), i128::from(i64::MAX) - width + 1);
                    let lo = if range.0 >= 0 && width > range.1.into() { 0 } else { lo };
                    (lo as i64, (lo + width - 1) as i64)
                })
                .collect();
            let ranges = if cells(&roomy) <= cap { roomy } else { seen };
            self.lo = ranges.iter().map(|r| r.0).collect();
            self.width = ranges.iter().map(|r| span(r) as u64).collect();
            let cells = cells(&ranges) as usize;
            self.index = self.pool.filled(cells.div_ceil(32), 0);
            self.arena = self.pool.stale(cells * self.funcs.len());
        }
        old.for_each(|key, accs| {
            let at = self.slot_of(&|c| key[c]);
            self.arena[at..at + accs.len()].copy_from_slice(accs);
        });
    }

    /// Append a group of key `key_at(..)` with identity accumulators.
    fn append(&mut self, key_at: &impl Fn(usize) -> i64) -> usize {
        let (group, stride) = (next_index(self.groups) as usize, self.stride());
        self.pool.reserve(&mut self.arena, stride);
        self.arena.extend((0..self.key_arity).map(key_at));
        self.arena.extend(self.funcs.iter().map(|f| f.identity()));
        self.groups += 1;
        group
    }

    /// Index of the group whose key columns are `key_at(0..key_arity)`,
    /// appending it with identity accumulators if it is new.
    fn upsert(&mut self, key_at: &impl Fn(usize) -> i64) -> usize {
        if (self.groups + 1) * 2 > self.index.len() {
            self.rehash();
        }
        let mask = self.index.len() - 1;
        let stride = self.stride();
        let hash = (0..self.key_arity).fold(0, |h, c| hash_i64(h ^ key_at(c)));
        let mut i = (hash as u64 >> self.shift) as usize;
        loop {
            let group = self.index[i];
            if group == NIL {
                let group = self.append(key_at);
                self.index[i] = group as u32;
                return group;
            }
            let stored = &self.arena[group as usize * stride..][..self.key_arity];
            if stored.iter().enumerate().all(|(c, &k)| k == key_at(c)) {
                return group as usize;
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-index every group in slots for one more at most half full,
    /// re-deriving each group's hash from its key.
    fn rehash(&mut self) {
        let len = (2 * (self.groups + 1)).next_power_of_two().max(MIN_SLOTS);
        self.pool.give(std::mem::take(&mut self.index));
        self.index = self.pool.filled(len, NIL);
        self.shift = shift_for(len);
        let stride = self.stride();
        for group in 0..self.groups {
            let key = &self.arena[group * stride..][..self.key_arity];
            let mut i = (hash_key(key) as u64 >> self.shift) as usize;
            while self.index[i] != NIL {
                i = (i + 1) & (len - 1);
            }
            self.index[i] = group as u32;
        }
    }
}

/// The `(min, max)` of `keys`; `(MAX, MIN)` when there are none.
fn bounds_of<'a>(keys: impl IntoIterator<Item = &'a i64>) -> (i64, i64) {
    keys.into_iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)))
}

/// A grouped aggregation table.
#[derive(Debug)]
pub struct GroupByTable {
    funcs: Vec<AggFunc>,
    groups: Mutex<FlatGroups>,
}

impl GroupByTable {
    /// A table whose values follow `aggs`. Its key arity is that of the first
    /// partials merged into it.
    pub fn new(aggs: &[AggSpec]) -> Self {
        Self::in_arena(aggs, &StateArena::default())
    }

    /// A table whose values follow `aggs` and whose buffers come from
    /// `arena`.
    pub fn in_arena(aggs: &[AggSpec], arena: &StateArena) -> Self {
        let mut groups = FlatGroups::new(0, aggs);
        groups.use_arena(arena);
        Self { funcs: aggs.iter().map(|a| a.func).collect(), groups: Mutex::new(groups) }
    }

    /// Merge a lane's partials, leaving `partials` empty for keys of the
    /// same arity: into an empty table they move whole, with no per-group
    /// work. The chunk kernel merges each lane's once, when it finishes.
    pub fn absorb(&self, partials: &mut FlatGroups) {
        let (mut groups, key_arity) = (self.groups.lock(), partials.key_arity);
        if groups.is_empty() && groups.funcs == partials.funcs {
            std::mem::swap(&mut *groups, partials);
        } else {
            groups.merge_from(partials);
        }
        partials.clear(key_arity);
    }

    /// True while the table indexes its keys directly.
    pub fn is_direct(&self) -> bool {
        self.groups.lock().is_direct()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.lock().len()
    }

    /// True if no groups exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every group as [`FlatGroups::sorted_columns`] (key columns, then one
    /// column per aggregate, ascending by key) and the number of groups: the
    /// rows a group-by stage emits.
    pub fn sorted_columns(&self) -> (Vec<Vec<i64>>, usize) {
        let groups = self.groups.lock();
        (groups.sorted_columns(), groups.len())
    }

    /// The rows of [`Self::sorted_columns`] as `(key, values)` pairs, in the
    /// same order: a row view for tests and inspection.
    pub fn snapshot(&self) -> Vec<(Vec<i64>, Vec<i64>)> {
        let (columns, rows) = self.sorted_columns();
        let key_arity = columns.len() - self.funcs.len();
        (0..rows)
            .map(|r| {
                let (keys, values) = columns.split_at(key_arity);
                (keys.iter().map(|c| c[r]).collect(), values.iter().map(|c| c[r]).collect())
            })
            .collect()
    }

    /// The aggregate functions.
    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    /// Bytes the table holds (slot array plus group arena, at capacity), for
    /// state-memory accounting.
    pub fn approx_bytes(&self) -> u64 {
        self.groups.lock().approx_bytes()
    }
}

/// One shared state object referenced by a [`StateSlot`].
#[derive(Debug)]
pub enum StateObject {
    /// A join hash table.
    HashTable(JoinHashTable),
    /// Ungrouped aggregate accumulators.
    Accumulators(Accumulators),
    /// A grouped aggregation table.
    GroupBy(GroupByTable),
}

/// All state objects of one query, and the arena their buffers and their
/// lanes' come from.
#[derive(Debug, Default)]
pub struct SharedState {
    slots: Vec<StateObject>,
    arena: StateArena,
}

impl SharedState {
    /// An empty state set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take every table's buffers, and those of the lanes that run against
    /// this state, from `arena`.
    pub fn use_arena(&mut self, arena: &StateArena) {
        self.arena = arena.clone();
        for object in &mut self.slots {
            match object {
                StateObject::HashTable(table) => table.table.get_mut().pool = arena.clone(),
                StateObject::GroupBy(table) => table.groups.get_mut().use_arena(arena),
                StateObject::Accumulators(_) => {}
            }
        }
    }

    /// The arena this state's buffers come from.
    pub fn arena(&self) -> &StateArena {
        &self.arena
    }

    /// Add a state object, returning its slot.
    pub fn push(&mut self, object: StateObject) -> StateSlot {
        self.slots.push(object);
        StateSlot(self.slots.len() - 1)
    }

    /// Add a join hash table whose payloads have `payload_width` columns.
    pub fn add_hash_table(&mut self, payload_width: usize) -> StateSlot {
        self.push(StateObject::HashTable(JoinHashTable::in_arena(
            payload_width,
            self.arena.clone(),
        )))
    }

    /// Add accumulators for `aggs`.
    pub fn add_accumulators(&mut self, aggs: &[AggSpec]) -> StateSlot {
        self.push(StateObject::Accumulators(Accumulators::new(aggs)))
    }

    /// Add a group-by table for `aggs`.
    pub fn add_group_by(&mut self, aggs: &[AggSpec]) -> StateSlot {
        self.push(StateObject::GroupBy(GroupByTable::in_arena(aggs, &self.arena)))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no state has been registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The raw state object in `slot`, if any — structural inspection for
    /// static analysis (the typed accessors below are what executors use).
    pub fn object(&self, slot: StateSlot) -> Option<&StateObject> {
        self.slots.get(slot.index())
    }

    /// The hash table in `slot`.
    pub fn hash_table(&self, slot: StateSlot) -> Result<&JoinHashTable> {
        match self.slots.get(slot.index()) {
            Some(StateObject::HashTable(table)) => Ok(table),
            Some(_) => {
                Err(HetError::Execution(format!("state slot {} is not a hash table", slot.index())))
            }
            None => Err(HetError::Execution(format!("unknown state slot {}", slot.index()))),
        }
    }

    /// The hash table in `slot`, which a step expects to carry
    /// `payload_width` payload columns per row.
    pub fn hash_table_of_width(
        &self,
        slot: StateSlot,
        payload_width: usize,
    ) -> Result<&JoinHashTable> {
        let table = self.hash_table(slot)?;
        if table.payload_width() != payload_width {
            return Err(HetError::Execution(format!(
                "state slot {} holds {} payload columns per row, the pipeline expects {payload_width}",
                slot.index(),
                table.payload_width()
            )));
        }
        Ok(table)
    }

    /// The accumulators in `slot`.
    pub fn accumulators(&self, slot: StateSlot) -> Result<&Accumulators> {
        match self.slots.get(slot.index()) {
            Some(StateObject::Accumulators(acc)) => Ok(acc),
            Some(_) => Err(HetError::Execution(format!(
                "state slot {} is not an accumulator set",
                slot.index()
            ))),
            None => Err(HetError::Execution(format!("unknown state slot {}", slot.index()))),
        }
    }

    /// The group-by table in `slot`.
    pub fn group_by(&self, slot: StateSlot) -> Result<&GroupByTable> {
        match self.slots.get(slot.index()) {
            Some(StateObject::GroupBy(g)) => Ok(g),
            Some(_) => Err(HetError::Execution(format!(
                "state slot {} is not a group-by table",
                slot.index()
            ))),
            None => Err(HetError::Execution(format!("unknown state slot {}", slot.index()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn hash_table_insert_and_probe() {
        let t = JoinHashTable::new(2);
        t.insert_batch(&[], &[Vec::new(), Vec::new()]);
        assert!(t.is_empty());
        assert_eq!(t.approx_bytes(), 0, "an empty table owns no memory");
        assert_eq!(t.probe(10, |_| panic!("no match expected")), 0);
        t.insert(10, vec![1, 100]);
        t.insert(10, vec![2, 200]);
        t.insert(20, vec![3, 300]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.distinct_keys(), 2);
        let mut seen = Vec::new();
        let matches = t.probe(10, |row| seen.push(row.to_vec()));
        assert_eq!(matches, 2);
        assert_eq!(seen, vec![vec![1, 100], vec![2, 200]], "matches visit in insertion order");
        assert_eq!(t.probe(99, |_| panic!("no match expected")), 0);
        // Indexed, the table holds its key column, three rows of two payload
        // columns plus the chain link, and one index: keys 10..=20 direct.
        assert!(t.is_direct());
        assert_eq!(t.approx_bytes(), 3 * 8 + 3 * 3 * 8 + 4 * 11);
        // A far key makes the next index a hashed one of `MIN_SLOTS` slots,
        // and the direct one goes.
        t.insert(1 << 40, vec![4, 400]);
        assert_eq!(t.probe(1 << 40, |row| assert_eq!(row, [4, 400])), 1);
        assert!(!t.is_direct());
        assert_eq!(t.approx_bytes(), 4 * 8 + 4 * 3 * 8 + 16 * MIN_SLOTS as u64);
    }

    #[test]
    fn batch_build_and_probe_agree_with_the_single_tuple_calls() {
        let keys: Vec<i64> = (0..5_000).map(|i| (i * 7) % 1_500).collect();
        let payload: Vec<i64> = (0..5_000).collect();
        let batched = JoinHashTable::new(1);
        for chunk in 0..5 {
            let range = chunk * 1_000..(chunk + 1) * 1_000;
            batched.insert_batch(&keys[range.clone()], &[payload[range].to_vec()]);
        }
        let single = JoinHashTable::new(1);
        for (&k, &p) in keys.iter().zip(&payload) {
            single.insert(k, vec![p]);
        }
        assert_eq!(batched.len(), 5_000);
        assert_eq!(batched.distinct_keys(), 1_500);
        assert_eq!(single.distinct_keys(), 1_500);

        let probe_keys: Vec<i64> = (-10..1_600).collect();
        let mut matches = JoinMatches::default();
        let guard = batched.read();
        guard.probe_batch(&probe_keys, &mut matches);
        let mut gathered = Vec::new();
        guard.gather_payload(0, &matches.rows, &mut gathered);
        let mut expected = Vec::new();
        for (lane, &k) in probe_keys.iter().enumerate() {
            single.probe(k, |row| expected.push((lane as u32, row[0])));
        }
        let got: Vec<(u32, i64)> = matches.lanes.into_iter().zip(gathered).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn accumulators_merge_partials_atomically() {
        let aggs = vec![
            AggSpec::sum(Expr::col(0)),
            AggSpec::count(),
            AggSpec::min(Expr::col(0)),
            AggSpec::max(Expr::col(0)),
        ];
        let acc = Accumulators::new(&aggs);
        assert_eq!(acc.len(), 4);
        acc.merge_partials(&[100, 3, 5, 50]);
        acc.merge_partials(&[50, 2, 1, 99]);
        assert_eq!(acc.values(), vec![150, 5, 1, 99]);
        assert_eq!(acc.funcs()[1], AggFunc::Count);
    }

    #[test]
    fn concurrent_accumulator_merges() {
        use std::sync::Arc;
        use std::thread;
        let acc = Arc::new(Accumulators::new(&[AggSpec::sum(Expr::col(0)), AggSpec::count()]));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let acc = Arc::clone(&acc);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        acc.merge_partials(&[2, 1]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(acc.values(), vec![16_000, 8_000]);
    }

    #[test]
    fn group_by_merges_partials_per_key() {
        let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::max(Expr::col(0))];
        let g = GroupByTable::new(&aggs);
        assert!(g.is_empty());
        let partials = |rows: &[([i64; 2], [i64; 2])]| {
            let mut local = FlatGroups::new(2, &aggs);
            for (key, values) in rows {
                local.entry(key).copy_from_slice(values);
            }
            local
        };
        g.absorb(&mut partials(&[([1997, 1], [100, 10]), ([1998, 1], [50, 5])]));
        g.absorb(&mut partials(&[([1997, 1], [25, 99])]));
        assert_eq!(g.len(), 2);
        let rows = g.snapshot();
        assert_eq!(rows[0], (vec![1997, 1], vec![125, 99]));
        assert_eq!(rows[1], (vec![1998, 1], vec![50, 5]));
        assert!(g.approx_bytes() >= 2 * 4 * 8);
    }

    /// Every group of `table` as a `(key, accumulators)` row, in visit order.
    fn group_rows(table: &FlatGroups) -> Vec<(Vec<i64>, Vec<i64>)> {
        let mut rows = Vec::new();
        table.for_each(|key, accs| rows.push((key.to_vec(), accs.to_vec())));
        rows
    }

    #[test]
    fn local_groups_batch_matches_per_tuple_and_clears_in_place() {
        let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::count(), AggSpec::min(Expr::col(0))];
        let keys: Vec<i64> = (0..3_000).map(|i| (i * 31) % 700 - 350).collect();
        let vals: Vec<i64> = (0..3_000).map(|i| i * 3 - 4_000).collect();
        let ones = vec![1; 3_000];
        let mut batched = FlatGroups::new(1, &aggs);
        let mut ids = vec![0; 3_000];
        batched.locate(std::slice::from_ref(&keys), &mut ids);
        for (i, col) in [&vals, &ones, &vals].into_iter().enumerate() {
            batched.fold(i, col.iter().copied(), &ids);
        }
        let mut single = FlatGroups::new(1, &aggs);
        for (&k, &v) in keys.iter().zip(&vals) {
            let accs = single.entry(&[k]);
            for (acc, agg) in accs.iter_mut().zip(&aggs) {
                *acc = agg.func.accumulate(*acc, v);
            }
        }
        assert_eq!(batched.len(), 700);
        assert_eq!(group_rows(&batched), group_rows(&single), "same groups in key order");

        let bytes = batched.approx_bytes();
        batched.reset(1, &aggs);
        assert!(batched.is_empty());
        assert!(group_rows(&batched).is_empty());
        assert_eq!(batched.approx_bytes(), bytes, "clearing keeps the allocations");
        batched.entry(&[5])[1] = 9;
        assert_eq!(group_rows(&batched), vec![(vec![5], vec![0, 9, i64::MAX])]);
    }

    #[test]
    fn shared_state_slot_dispatch() {
        let mut state = SharedState::new();
        assert!(state.is_empty());
        let ht = state.add_hash_table(2);
        let acc = state.add_accumulators(&[AggSpec::count()]);
        let gb = state.add_group_by(&[AggSpec::sum(Expr::col(0))]);
        assert_eq!(state.len(), 3);
        assert!(state.hash_table(ht).is_ok());
        assert!(state.accumulators(acc).is_ok());
        assert!(state.group_by(gb).is_ok());
        // Wrong-type and out-of-range accesses fail loudly.
        assert!(state.hash_table(acc).is_err());
        assert!(state.accumulators(gb).is_err());
        assert!(state.group_by(ht).is_err());
        assert!(state.hash_table(StateSlot(99)).is_err());
        // A step that disagrees with the table about the payload is an
        // error, not a corrupted arena.
        assert!(state.hash_table_of_width(ht, 2).is_ok());
        assert!(state.hash_table_of_width(ht, 1).is_err());
    }
}
