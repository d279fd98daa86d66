//! The segmenter: the leaf of every HetExchange plan.
//!
//! In the paper's running example (Figure 1c and Listing 1, pipeline 6) the
//! segmenter "splits the input file into small block-shaped partitions, that
//! are treated as normal blocks. Partitions' block handles will be propagated
//! to the router". The segmenter therefore runs single-threaded, touches no
//! tuple data, and produces a stream of block handles tagged with the memory
//! node their data lives on. It hands out views: every block is a row window
//! over the stored columns, and no values are copied.

use crate::catalog::StoredTable;
use hetex_common::{BlockHandle, Result};
use std::sync::Arc;

/// Produces the block-shaped partitions of one table scan.
#[derive(Debug)]
pub struct Segmenter {
    table: Arc<StoredTable>,
    projection: Vec<String>,
    block_capacity: usize,
    weight: f64,
}

impl Segmenter {
    /// A segmenter over `table` reading only `projection` columns and cutting
    /// `block_capacity`-row blocks.
    pub fn new(table: Arc<StoredTable>, projection: &[&str], block_capacity: usize) -> Self {
        Self {
            table,
            projection: projection.iter().map(|s| s.to_string()).collect(),
            block_capacity,
            weight: 1.0,
        }
    }

    /// Apply a scale-extrapolation weight to every produced handle (see the
    /// `scale_weight` engine configuration knob).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// The table being segmented.
    pub fn table(&self) -> &Arc<StoredTable> {
        &self.table
    }

    /// Produce every block handle of the scan, in storage order.
    pub fn segments(&self) -> Result<Vec<BlockHandle>> {
        let projection: Vec<&str> = self.projection.iter().map(String::as_str).collect();
        let mut handles = self.table.scan_blocks(&projection, self.block_capacity)?;
        if (self.weight - 1.0).abs() > f64::EPSILON {
            for h in &mut handles {
                h.meta_mut().weight = self.weight;
            }
        }
        Ok(handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableBuilder;
    use hetex_common::{ColumnData, DataType, MemoryNodeId};

    fn table() -> Arc<StoredTable> {
        Arc::new(
            TableBuilder::new("t")
                .column("a", DataType::Int32, ColumnData::Int32((0..1000).collect()))
                .column(
                    "b",
                    DataType::Int64,
                    ColumnData::Int64((0..1000).map(|i| i as i64).collect()),
                )
                .build(&[MemoryNodeId::new(0), MemoryNodeId::new(1)], 256)
                .unwrap(),
        )
    }

    #[test]
    fn segmenter_produces_all_rows_once() {
        let seg = Segmenter::new(table(), &["a", "b"], 100);
        let blocks = seg.segments().unwrap();
        let rows: usize = blocks.iter().map(|b| b.rows()).sum();
        assert_eq!(rows, 1000);
        // Projection controls block width.
        let narrow = Segmenter::new(table(), &["b"], 100);
        assert_eq!(narrow.segments().unwrap()[0].block().width(), 1);
    }

    #[test]
    fn weight_is_stamped_on_handles() {
        let seg = Segmenter::new(table(), &["a"], 100).with_weight(50.0);
        let blocks = seg.segments().unwrap();
        assert!(blocks.iter().all(|b| (b.meta().weight - 50.0).abs() < f64::EPSILON));
        let unweighted = Segmenter::new(table(), &["a"], 100);
        assert!(unweighted
            .segments()
            .unwrap()
            .iter()
            .all(|b| (b.meta().weight - 1.0).abs() < f64::EPSILON));
    }

    #[test]
    fn blocks_preserve_segment_placement() {
        let seg = Segmenter::new(table(), &["a"], 128);
        let blocks = seg.segments().unwrap();
        let nodes: std::collections::HashSet<_> =
            blocks.iter().map(|b| b.meta().location).collect();
        assert_eq!(nodes.len(), 2, "both placement nodes appear");
    }

    #[test]
    fn unknown_projection_errors() {
        let seg = Segmenter::new(table(), &["zzz"], 128);
        assert!(seg.segments().is_err());
    }
}
