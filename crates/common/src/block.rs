//! Data blocks and block handles.
//!
//! HetExchange moves data at *block* granularity: the pack operator groups
//! tuples into blocks, the mem-move operator copies blocks across memory
//! nodes, and the router routes **block handles** — lightweight descriptors —
//! rather than the data itself. This module provides both halves:
//!
//! * [`Block`] — an immutable columnar chunk of tuples residing on one memory
//!   node of the (simulated) server. A block is a row *window* over shared,
//!   immutable columns, so cutting a stored table into blocks copies no
//!   values: only mem-move decides whether data moves.
//! * [`BlockHandle`] — a cheaply clonable reference to a block plus the
//!   metadata the control-flow operators need: where the data lives, which
//!   broadcast target it belongs to, and at which simulated time the data
//!   becomes available (`ready_at_ns`, set by mem-move when it schedules an
//!   asynchronous DMA transfer).

use crate::column::{ColumnData, ColumnRef};
use crate::error::{HetError, Result};
use crate::ids::{BlockId, MemoryNodeId};
use std::sync::Arc;

/// An opaque staging charge attached to a [`BlockHandle`].
///
/// The executor leases staging memory from the block managers when it admits
/// a block into a consumer queue and attaches the lease here; the charge is
/// released when the last handle referencing it is dropped (RAII), so error
/// paths and panic unwinding cannot leak staging bytes. The type is erased
/// (`dyn Any`) because `hetex-common` sits below `hetex-storage` in the crate
/// graph and must not know the concrete lease type.
pub type StagingToken = Arc<dyn std::any::Any + Send + Sync>;

/// Default number of tuples per block. The paper uses block-shaped partitions
/// of roughly 1 MiB per column; with 4-byte columns that is 256 Ki tuples. We
/// default to a smaller block so small test datasets still produce several
/// blocks, and the engine configuration can override it.
pub const DEFAULT_BLOCK_CAPACITY: usize = 64 * 1024;

/// An immutable, columnar chunk of tuples located on a specific memory node:
/// rows `[offset, offset + rows)` of shared columns.
#[derive(Clone)]
pub struct Block {
    columns: Vec<Arc<ColumnData>>,
    offset: usize,
    rows: usize,
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Only the window: the shared columns may hold a whole table.
        f.debug_struct("Block")
            .field("offset", &self.offset)
            .field("rows", &self.rows)
            .field("columns", &self.columns().collect::<Vec<_>>())
            .finish()
    }
}

impl Block {
    /// Build a block that owns `columns`. All columns must have `rows` values.
    pub fn new(columns: Vec<ColumnData>, rows: usize) -> Result<Self> {
        for (i, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(HetError::Schema(format!(
                    "column {i} has {} rows, block expects {rows}",
                    col.len()
                )));
            }
        }
        Ok(Self { columns: columns.into_iter().map(Arc::new).collect(), offset: 0, rows })
    }

    /// A block viewing rows `[offset, offset + rows)` of shared `columns`,
    /// without copying them. Every column must hold the whole window.
    pub fn window(columns: Vec<Arc<ColumnData>>, offset: usize, rows: usize) -> Result<Self> {
        let end = offset.checked_add(rows);
        for (i, col) in columns.iter().enumerate() {
            if end.is_none_or(|end| end > col.len()) {
                return Err(HetError::Schema(format!(
                    "window of {rows} rows at {offset} overruns column {i} of {} rows",
                    col.len()
                )));
            }
        }
        Ok(Self { columns, offset, rows })
    }

    /// Number of tuples in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if the block contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The window of every column, in order.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = ColumnRef<'_>> + '_ {
        self.columns.iter().map(|c| self.view(c))
    }

    /// The window of the column at `idx`.
    pub fn column(&self, idx: usize) -> Result<ColumnRef<'_>> {
        self.columns
            .get(idx)
            .map(|c| self.view(c))
            .ok_or_else(|| HetError::Schema(format!("block has no column {idx}")))
    }

    /// Size of the window's data in bytes: rows × physical width per column.
    pub fn byte_size(&self) -> usize {
        self.columns().map(|c| c.byte_size()).sum()
    }

    /// In bounds by construction: [`Self::new`] and [`Self::window`] check
    /// every column against the window.
    fn view<'a>(&self, col: &'a ColumnData) -> ColumnRef<'a> {
        col.view(self.offset..self.offset + self.rows)
    }
}

/// Metadata carried alongside a block by its handle.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Identifier assigned by the producing block manager.
    pub id: BlockId,
    /// Memory node on which the block's data currently resides.
    pub location: MemoryNodeId,
    /// Broadcast target set by a multicasting mem-move; the router routes on
    /// this value for broadcast plans.
    pub broadcast_target: Option<usize>,
    /// Simulated timestamp (nanoseconds) at which the data is available on
    /// `location`; consumers start no earlier than this.
    pub ready_at_ns: u64,
    /// Logical byte multiplier used by the benchmark harness when a physically
    /// small dataset models a nominally larger one (scale extrapolation).
    pub weight: f64,
}

impl BlockMeta {
    /// Metadata for a freshly produced, immediately available block.
    pub fn new(id: BlockId, location: MemoryNodeId) -> Self {
        Self { id, location, broadcast_target: None, ready_at_ns: 0, weight: 1.0 }
    }
}

/// A cheaply clonable reference to a block plus routing metadata.
///
/// Handles are what flows through routers and device-crossing operators; the
/// data itself is shared behind an [`Arc`] and is only copied when a mem-move
/// materializes it on another memory node. A handle may additionally carry a
/// [`StagingToken`] — the staging-memory charge backing the block while it is
/// queued for a consumer; clones share the charge and the last drop releases
/// it.
#[derive(Clone)]
pub struct BlockHandle {
    data: Arc<Block>,
    meta: BlockMeta,
    staging: Option<StagingToken>,
}

impl std::fmt::Debug for BlockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockHandle")
            .field("data", &self.data)
            .field("meta", &self.meta)
            .field("staged", &self.staging.is_some())
            .finish()
    }
}

impl BlockHandle {
    /// Wrap a block in a handle.
    pub fn new(data: Block, meta: BlockMeta) -> Self {
        Self { data: Arc::new(data), meta, staging: None }
    }

    /// Wrap an already shared block.
    pub fn from_shared(data: Arc<Block>, meta: BlockMeta) -> Self {
        Self { data, meta, staging: None }
    }

    /// Attach a staging charge to this handle (replacing any prior charge,
    /// which is thereby released).
    pub fn attach_staging(&mut self, token: StagingToken) {
        self.staging = Some(token);
    }

    /// Detach and return the staging charge, if any. Dropping the returned
    /// token releases the charge; this is the "release on the source node"
    /// half of a lease transfer across a device crossing.
    pub fn take_staging(&mut self) -> Option<StagingToken> {
        self.staging.take()
    }

    /// True while the handle carries a staging charge.
    pub fn is_staged(&self) -> bool {
        self.staging.is_some()
    }

    /// The referenced block.
    pub fn block(&self) -> &Block {
        &self.data
    }

    /// The columns only this handle holds, taken out of it — the buffers a
    /// consumer that is done with the block may reuse. A block or column
    /// shared with another handle or a table is left to its other holders.
    /// The staging charge, if any, is released.
    pub fn into_owned_columns(self) -> Vec<ColumnData> {
        let Ok(block) = Arc::try_unwrap(self.data) else { return Vec::new() };
        block.columns.into_iter().filter_map(|column| Arc::try_unwrap(column).ok()).collect()
    }

    /// The shared block pointer (used by mem-move when forwarding without copy).
    pub fn shared(&self) -> Arc<Block> {
        Arc::clone(&self.data)
    }

    /// The handle metadata.
    pub fn meta(&self) -> &BlockMeta {
        &self.meta
    }

    /// Mutable metadata access (used by mem-move/pack to retag handles).
    pub fn meta_mut(&mut self) -> &mut BlockMeta {
        &mut self.meta
    }

    /// Convenience: number of tuples.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Convenience: payload size in bytes (physical, before weighting).
    pub fn byte_size(&self) -> usize {
        self.data.byte_size()
    }

    /// Payload size in *modeled* bytes: physical bytes times the handle weight.
    pub fn weighted_bytes(&self) -> f64 {
        self.data.byte_size() as f64 * self.meta.weight
    }

    /// A copy of this handle relocated to `node` and available at `ready_at_ns`.
    /// The underlying data is shared; only the metadata changes. The simulated
    /// DMA cost is accounted by the transfer engine, not here. Any staging
    /// charge stays behind with the source handle: the block now occupies
    /// memory on a different node, so whoever relocates it must acquire a
    /// fresh charge at the destination (lease transfer).
    pub fn relocated(&self, node: MemoryNodeId, ready_at_ns: u64) -> BlockHandle {
        let mut meta = self.meta.clone();
        meta.location = node;
        meta.ready_at_ns = ready_at_ns;
        BlockHandle { data: Arc::clone(&self.data), meta, staging: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        Block::new(vec![ColumnData::Int32(vec![1, 2, 3]), ColumnData::Int64(vec![10, 20, 30])], 3)
            .unwrap()
    }

    #[test]
    fn block_rejects_ragged_columns() {
        let err = Block::new(vec![ColumnData::Int32(vec![1, 2]), ColumnData::Int64(vec![1])], 2);
        assert!(err.is_err());
    }

    #[test]
    fn block_byte_size_and_slice() {
        let b = sample_block();
        assert_eq!(b.byte_size(), 3 * 4 + 3 * 8);
        let columns = vec![
            Arc::new(ColumnData::Int32(vec![1, 2, 3])),
            Arc::new(ColumnData::Int64(vec![10, 20, 30])),
        ];
        let w = Block::window(columns.clone(), 1, 2).unwrap();
        assert_eq!(w.rows(), 2);
        // The window's bytes, not the shared columns'.
        assert_eq!(w.byte_size(), 2 * 4 + 2 * 8);
        assert_eq!(w.column(0).unwrap(), ColumnRef::Int32(&[2, 3]));
        assert_eq!(w.column(1).unwrap().get_i64(0), Some(20));
        assert!(w.column(2).is_err());
        // No values were copied: the window reads the shared allocation.
        let ColumnRef::Int64(view) = w.column(1).unwrap() else { panic!("Int64 column") };
        let ColumnData::Int64(stored) = columns[1].as_ref() else { panic!("Int64 column") };
        assert!(std::ptr::eq(view.as_ptr(), &stored[1]));
        assert_eq!(Arc::strong_count(&columns[0]), 2);
        drop(w);
        assert_eq!(Arc::strong_count(&columns[0]), 1);
    }

    #[test]
    fn windows_outside_their_columns_are_schema_errors() {
        let columns = vec![Arc::new(ColumnData::Int32(vec![1, 2, 3]))];
        for (offset, rows) in [(2, 2), (4, 0), (usize::MAX, 2), (1, usize::MAX)] {
            let err = Block::window(columns.clone(), offset, rows).unwrap_err();
            assert!(matches!(err, HetError::Schema(_)), "({offset}, {rows}): {err:?}");
        }
        assert!(Block::window(columns.clone(), 3, 0).unwrap().is_empty());
        assert_eq!(Block::window(Vec::new(), 7, 5).unwrap().byte_size(), 0);
    }

    #[test]
    fn handle_relocation_shares_data() {
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let h = BlockHandle::new(sample_block(), meta);
        let moved = h.relocated(MemoryNodeId::new(2), 1_000);
        assert_eq!(moved.meta().location, MemoryNodeId::new(2));
        assert_eq!(moved.meta().ready_at_ns, 1_000);
        assert_eq!(moved.rows(), h.rows());
        // Data is shared, not copied.
        assert!(Arc::ptr_eq(&h.shared(), &moved.shared()));
    }

    #[test]
    fn staging_tokens_are_released_on_drop_and_left_behind_by_relocation() {
        struct Counter(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counter {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let released = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let mut h = BlockHandle::new(sample_block(), meta);
        assert!(!h.is_staged());
        h.attach_staging(Arc::new(Counter(Arc::clone(&released))));
        assert!(h.is_staged());
        // A relocated copy does not carry the source charge.
        let moved = h.relocated(MemoryNodeId::new(1), 0);
        assert!(!moved.is_staged());
        // A clone shares the charge: only the last drop releases it.
        let clone = h.clone();
        drop(h);
        assert_eq!(released.load(std::sync::atomic::Ordering::SeqCst), 0);
        drop(clone);
        assert_eq!(released.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Attaching over an existing charge releases the old one.
        let mut h =
            BlockHandle::new(sample_block(), BlockMeta::new(BlockId::new(1), MemoryNodeId::new(0)));
        h.attach_staging(Arc::new(Counter(Arc::clone(&released))));
        h.attach_staging(Arc::new(Counter(Arc::clone(&released))));
        assert_eq!(released.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert!(h.take_staging().is_some());
        assert_eq!(released.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn weighted_bytes_scale_with_weight() {
        let mut meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        meta.weight = 10.0;
        let h = BlockHandle::new(sample_block(), meta);
        assert_eq!(h.weighted_bytes(), (3 * 4 + 3 * 8) as f64 * 10.0);
    }
}
