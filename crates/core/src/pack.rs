//! Pack / unpack / hash-pack.
//!
//! §3.2: "The pack operator groups tuples into a block and flushes it to the
//! next operator whenever it fills up. The unpack operator takes a block of
//! tuples as input and feeds them one tuple at a time to the next operator."
//! Hash-pack additionally keeps one open block per hash value so every emitted
//! block is hash-homogeneous, which is what lets the router route whole blocks
//! without touching tuples.
//!
//! Inside compiled pipelines the packing is fused into the generated code (the
//! `Pack` terminal step of `hetex-jit`); the standalone [`Packer`]/[`Unpacker`]
//! here are used by the interpreted baseline engines, by tests of the
//! pack-invariants, and wherever blocks need to be (re)built outside a
//! pipeline.

use hetex_common::{
    Block, BlockHandle, BlockId, BlockMeta, ColumnData, HetError, MemoryNodeId, Result,
};
use std::collections::HashMap;

/// Groups row-major tuples into blocks, optionally hash-partitioned.
#[derive(Debug)]
pub struct Packer {
    capacity: usize,
    node: MemoryNodeId,
    weight: f64,
    /// `Some((key_column, partition_count))` makes this a hash-pack.
    hash: Option<(usize, usize)>,
    open: HashMap<usize, Vec<Vec<i64>>>,
    next_id: usize,
}

impl Packer {
    /// A plain pack operator producing `capacity`-row blocks on `node`.
    pub fn new(capacity: usize, node: MemoryNodeId) -> Self {
        Self { capacity, node, weight: 1.0, hash: None, open: HashMap::new(), next_id: 0 }
    }

    /// A hash-pack keyed on `key_column` with `partitions` partitions.
    pub fn hash_partitioned(
        capacity: usize,
        node: MemoryNodeId,
        key_column: usize,
        partitions: usize,
    ) -> Result<Self> {
        if partitions == 0 {
            return Err(HetError::Plan("hash-pack needs at least one partition".into()));
        }
        Ok(Self {
            capacity,
            node,
            weight: 1.0,
            hash: Some((key_column, partitions)),
            open: HashMap::new(),
            next_id: 0,
        })
    }

    /// Set the scale-extrapolation weight stamped on produced blocks.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    fn partition_of(&self, row: &[i64]) -> Result<usize> {
        match self.hash {
            None => Ok(0),
            Some((col, partitions)) => {
                let key = *row.get(col).ok_or_else(|| {
                    HetError::Execution(format!("hash-pack key column {col} missing from tuple"))
                })?;
                Ok((hetex_jit::expr::hash_i64(key).unsigned_abs() % partitions as u64) as usize)
            }
        }
    }

    fn seal(&mut self, partition: usize, rows: Vec<Vec<i64>>) -> Result<BlockHandle> {
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
        meta.hash_partition = self.hash.map(|_| partition as u64);
        Ok(BlockHandle::new(block, meta))
    }

    /// Push one tuple; returns a sealed block if the tuple's partition filled up.
    pub fn push(&mut self, row: Vec<i64>) -> Result<Option<BlockHandle>> {
        let partition = self.partition_of(&row)?;
        let bucket = self.open.entry(partition).or_default();
        bucket.push(row);
        if bucket.len() >= self.capacity {
            let full = self.open.remove(&partition).unwrap_or_default();
            return Ok(Some(self.seal(partition, full)?));
        }
        Ok(None)
    }

    /// Flush every partially filled block.
    pub fn flush(&mut self) -> Result<Vec<BlockHandle>> {
        let mut partitions: Vec<usize> = self.open.keys().copied().collect();
        partitions.sort_unstable();
        let mut out = Vec::new();
        for p in partitions {
            let rows = self.open.remove(&p).unwrap_or_default();
            if !rows.is_empty() {
                out.push(self.seal(p, rows)?);
            }
        }
        Ok(out)
    }

    /// Number of tuples currently buffered in open blocks.
    pub fn buffered(&self) -> usize {
        self.open.values().map(Vec::len).sum()
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
    fn hash_pack_blocks_are_homogeneous_and_tagged() {
        let mut packer = Packer::hash_partitioned(16, MemoryNodeId::new(0), 0, 5).unwrap();
        let mut blocks = Vec::new();
        for i in 0..500 {
            if let Some(b) = packer.push(vec![i % 37, i]).unwrap() {
                blocks.push(b);
            }
        }
        blocks.extend(packer.flush().unwrap());
        assert!(!blocks.is_empty());
        for block in &blocks {
            let tag = block.meta().hash_partition.expect("hash-pack must tag blocks");
            for row in Unpacker::rows(block) {
                let expected = hetex_jit::expr::hash_i64(row[0]).unsigned_abs() % 5;
                assert_eq!(expected, tag, "tuple in block with a different hash partition");
            }
        }
    }

    #[test]
    fn invalid_configurations_error() {
        assert!(Packer::hash_partitioned(8, MemoryNodeId::new(0), 0, 0).is_err());
        let mut packer = Packer::hash_partitioned(8, MemoryNodeId::new(0), 3, 2).unwrap();
        assert!(packer.push(vec![1, 2]).is_err());
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

        #[test]
        fn prop_hash_pack_never_drops_or_mixes(
            keys in proptest::collection::vec(-500i64..500, 1..300),
            partitions in 1usize..8,
            capacity in 1usize..16,
        ) {
            let mut packer =
                Packer::hash_partitioned(capacity, MemoryNodeId::new(0), 0, partitions).unwrap();
            let mut blocks = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                if let Some(b) = packer.push(vec![*k, i as i64]).unwrap() {
                    blocks.push(b);
                }
            }
            blocks.extend(packer.flush().unwrap());
            // No tuple dropped or duplicated.
            let total: usize = blocks.iter().map(|b| b.rows()).sum();
            prop_assert_eq!(total, keys.len());
            // Every block is homogeneous with respect to the partition function.
            for block in &blocks {
                let tag = block.meta().hash_partition.unwrap();
                for row in Unpacker::rows(block) {
                    prop_assert_eq!(
                        hetex_jit::expr::hash_i64(row[0]).unsigned_abs() % partitions as u64,
                        tag
                    );
                }
            }
        }
    }
}
