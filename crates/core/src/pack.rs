//! Pack / unpack.
//!
//! §3.2: "The pack operator groups tuples into a block and flushes it to the
//! next operator whenever it fills up. The unpack operator takes a block of
//! tuples as input and feeds them one tuple at a time to the next operator."
//!
//! Inside compiled pipelines the packing is fused into the generated code (the
//! `Pack` terminal step of `hetex-jit`); the standalone [`Packer`]/[`Unpacker`]
//! here are used by the interpreted baseline engines, by tests of the
//! pack-invariants, and wherever blocks need to be (re)built outside a
//! pipeline.

use hetex_common::{
    Block, BlockHandle, BlockId, BlockMeta, ColumnData, HetError, MemoryNodeId, Result,
};

/// Groups row-major tuples into blocks.
#[derive(Debug)]
pub struct Packer {
    capacity: usize,
    node: MemoryNodeId,
    weight: f64,
    open: Vec<Vec<i64>>,
    next_id: usize,
}

impl Packer {
    /// A pack operator producing `capacity`-row blocks on `node`.
    pub fn new(capacity: usize, node: MemoryNodeId) -> Self {
        Self { capacity, node, weight: 1.0, open: Vec::new(), next_id: 0 }
    }

    /// Set the scale-extrapolation weight stamped on produced blocks.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    fn seal(&mut self) -> Result<BlockHandle> {
        let rows = std::mem::take(&mut self.open);
        let width = rows.first().map(Vec::len).unwrap_or(0);
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for row in &rows {
            if row.len() != width {
                return Err(HetError::Execution("ragged tuple pushed into pack".into()));
            }
            for (c, v) in row.iter().enumerate() {
                columns[c].push(*v);
            }
        }
        let block = Block::new(columns.into_iter().map(ColumnData::Int64).collect(), rows.len())?;
        let mut meta = BlockMeta::new(BlockId::new(self.next_id), self.node);
        self.next_id += 1;
        meta.weight = self.weight;
        Ok(BlockHandle::new(block, meta))
    }

    /// Push one tuple; returns a sealed block if it filled the open one.
    pub fn push(&mut self, row: Vec<i64>) -> Result<Option<BlockHandle>> {
        self.open.push(row);
        if self.open.len() >= self.capacity {
            return self.seal().map(Some);
        }
        Ok(None)
    }

    /// Flush the partially filled block, if any.
    pub fn flush(&mut self) -> Result<Vec<BlockHandle>> {
        if self.open.is_empty() {
            return Ok(Vec::new());
        }
        Ok(vec![self.seal()?])
    }

    /// Number of tuples currently buffered in the open block.
    pub fn buffered(&self) -> usize {
        self.open.len()
    }
}

/// Feeds a block's tuples one at a time to the next operator.
#[derive(Debug, Default)]
pub struct Unpacker;

impl Unpacker {
    /// Iterate the tuples of a block as row-major `Vec<i64>`s.
    pub fn rows(handle: &BlockHandle) -> impl Iterator<Item = Vec<i64>> + '_ {
        let block = handle.block();
        (0..block.rows())
            .map(move |row| block.columns().map(|c| c.get_i64(row).unwrap_or(0)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rows(n: usize, width: usize) -> Vec<Vec<i64>> {
        (0..n).map(|i| (0..width).map(|c| (i * 10 + c) as i64).collect()).collect()
    }

    #[test]
    fn pack_flushes_full_blocks_and_remainder() {
        let mut packer = Packer::new(4, MemoryNodeId::new(0));
        let mut sealed = Vec::new();
        for row in rows(10, 3) {
            if let Some(block) = packer.push(row).unwrap() {
                sealed.push(block);
            }
        }
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|b| b.rows() == 4));
        assert_eq!(packer.buffered(), 2);
        let tail = packer.flush().unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].rows(), 2);
        assert_eq!(packer.buffered(), 0);
    }

    #[test]
    fn pack_then_unpack_is_identity() {
        let input = rows(57, 4);
        let mut packer = Packer::new(8, MemoryNodeId::new(1)).with_weight(3.0);
        let mut blocks = Vec::new();
        for row in input.clone() {
            if let Some(b) = packer.push(row).unwrap() {
                blocks.push(b);
            }
        }
        blocks.extend(packer.flush().unwrap());
        let unpacked: Vec<Vec<i64>> =
            blocks.iter().flat_map(|b| Unpacker::rows(b).collect::<Vec<_>>()).collect();
        assert_eq!(unpacked, input);
        assert!(blocks.iter().all(|b| (b.meta().weight - 3.0).abs() < f64::EPSILON));
        assert!(blocks.iter().all(|b| b.meta().location == MemoryNodeId::new(1)));
    }

    #[test]
    fn invalid_configurations_error() {
        let mut plain = Packer::new(2, MemoryNodeId::new(0));
        plain.push(vec![1, 2]).unwrap();
        // A ragged tuple is caught when the block is sealed.
        plain.push(vec![9]).unwrap_err();
    }

    proptest! {
        #[test]
        fn prop_pack_unpack_identity(
            tuples in proptest::collection::vec(proptest::collection::vec(-1000i64..1000, 3), 0..200),
            capacity in 1usize..32,
        ) {
            let mut packer = Packer::new(capacity, MemoryNodeId::new(0));
            let mut blocks = Vec::new();
            for row in tuples.clone() {
                if let Some(b) = packer.push(row).unwrap() {
                    blocks.push(b);
                }
            }
            blocks.extend(packer.flush().unwrap());
            let unpacked: Vec<Vec<i64>> =
                blocks.iter().flat_map(|b| Unpacker::rows(b).collect::<Vec<_>>()).collect();
            prop_assert_eq!(unpacked, tuples);
        }
    }
}
