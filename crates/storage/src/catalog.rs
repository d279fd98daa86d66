//! The columnar table catalog.
//!
//! Tables are fully resident in (host) memory, stored column-wise. Each table
//! is split into contiguous row *segments*, and every segment is assigned to a
//! memory node of the simulated server — socket DRAM for CPU-resident
//! placements, GPU device memory for GPU-resident placements (the SF100
//! experiments pre-load the working set into the GPUs' memories). Scans hand
//! out views: each scan block is a row window over the stored columns a query
//! needs, so a scan copies no values and the cost model charges exactly the
//! bytes a columnar engine would read.

use hetex_common::{
    Block, BlockHandle, BlockId, BlockMeta, ColumnData, DataType, DictionaryBuilder, Field,
    HetError, MemoryNodeId, Result, Schema,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One contiguous range of rows assigned to a memory node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// First row of the segment (inclusive).
    pub start: usize,
    /// One past the last row of the segment.
    pub end: usize,
    /// Memory node the segment resides on.
    pub node: MemoryNodeId,
}

impl SegmentInfo {
    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.end - self.start
    }
}

/// A fully loaded, immutable columnar table.
#[derive(Debug)]
pub struct StoredTable {
    name: String,
    schema: Arc<Schema>,
    rows: usize,
    columns: Vec<Arc<ColumnData>>,
    segments: Vec<SegmentInfo>,
    dictionaries: HashMap<String, Arc<DictionaryBuilder>>,
}

impl StoredTable {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The row segments and their placement.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// Full column data by name (used by the operator-at-a-time baselines and
    /// by dimension-array joins).
    pub fn column(&self, name: &str) -> Result<Arc<ColumnData>> {
        let idx = self.schema.index_of(name)?;
        Ok(Arc::clone(&self.columns[idx]))
    }

    /// Dictionary of a string column, if the column is dictionary-encoded.
    pub fn dictionary(&self, column: &str) -> Option<Arc<DictionaryBuilder>> {
        self.dictionaries.get(column).cloned()
    }

    /// Total bytes of the given columns (what a scan of those columns reads).
    pub fn projected_bytes(&self, projection: &[&str]) -> Result<usize> {
        let mut total = 0;
        for name in projection {
            let field = self.schema.field(name)?;
            total += self.rows * field.data_type.byte_width();
        }
        Ok(total)
    }

    /// Scan blocks for `projection`, `block_capacity` rows each, respecting
    /// segment boundaries and placements. Each block views the stored columns
    /// in projection order; no values are copied. Block ids are assigned
    /// sequentially from 0 for this scan.
    pub fn scan_blocks(
        &self,
        projection: &[&str],
        block_capacity: usize,
    ) -> Result<Vec<BlockHandle>> {
        if block_capacity == 0 {
            return Err(HetError::Config("block_capacity must be positive".into()));
        }
        let columns = projection
            .iter()
            .map(|name| Ok(Arc::clone(&self.columns[self.schema.index_of(name)?])))
            .collect::<Result<Vec<_>>>()?;
        let mut handles = Vec::new();
        for seg in &self.segments {
            let mut start = seg.start;
            while start < seg.end {
                let end = (start + block_capacity).min(seg.end);
                let block = Block::window(columns.clone(), start, end - start)?;
                let meta = BlockMeta::new(BlockId::new(handles.len()), seg.node);
                handles.push(BlockHandle::new(block, meta));
                start = end;
            }
        }
        Ok(handles)
    }
}

/// Builder for [`StoredTable`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    fields: Vec<Field>,
    columns: Vec<ColumnData>,
    dictionaries: HashMap<String, Arc<DictionaryBuilder>>,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
            columns: Vec::new(),
            dictionaries: HashMap::new(),
        }
    }

    /// Add a column with its data.
    pub fn column(
        mut self,
        name: impl Into<String>,
        data_type: DataType,
        data: ColumnData,
    ) -> Self {
        self.fields.push(Field::new(name, data_type));
        self.columns.push(data);
        self
    }

    /// Add a dictionary-encoded string column: codes plus the dictionary.
    pub fn dict_column(
        mut self,
        name: impl Into<String>,
        codes: Vec<i32>,
        dictionary: Arc<DictionaryBuilder>,
    ) -> Self {
        let name = name.into();
        self.fields.push(Field::new(name.clone(), DataType::Dictionary));
        self.columns.push(ColumnData::Int32(codes));
        self.dictionaries.insert(name, dictionary);
        self
    }

    /// Finish the table, splitting it into `segment_rows`-row segments placed
    /// round-robin over `placement` memory nodes.
    pub fn build(self, placement: &[MemoryNodeId], segment_rows: usize) -> Result<StoredTable> {
        if self.columns.is_empty() {
            return Err(HetError::Schema(format!("table {} has no columns", self.name)));
        }
        if placement.is_empty() {
            return Err(HetError::Config("placement needs at least one memory node".into()));
        }
        if segment_rows == 0 {
            return Err(HetError::Config("segment_rows must be positive".into()));
        }
        let rows = self.columns[0].len();
        for (field, col) in self.fields.iter().zip(&self.columns) {
            if col.len() != rows {
                return Err(HetError::Schema(format!(
                    "column {} of table {} has {} rows, expected {rows}",
                    field.name,
                    self.name,
                    col.len()
                )));
            }
            // Scans are priced from the declared widths (`projected_bytes`)
            // and charged from the physical ones: they must agree.
            let (declared, physical) = (field.data_type, col.data_type());
            let dictionary_codes = declared == DataType::Dictionary && physical == DataType::Int32;
            if declared != physical && !dictionary_codes {
                return Err(HetError::Schema(format!(
                    "column {} of table {} is declared {declared} but holds {physical} values",
                    field.name, self.name
                )));
            }
        }
        let mut segments = Vec::new();
        let mut start = 0;
        let mut node_cursor = 0;
        while start < rows {
            let end = (start + segment_rows).min(rows);
            segments.push(SegmentInfo {
                start,
                end,
                node: placement[node_cursor % placement.len()],
            });
            node_cursor += 1;
            start = end;
        }
        if rows == 0 {
            // Empty tables still get one empty segment so scans behave uniformly.
            segments.push(SegmentInfo { start: 0, end: 0, node: placement[0] });
        }
        Ok(StoredTable {
            name: self.name,
            schema: Arc::new(Schema::new(self.fields)),
            rows,
            columns: self.columns.into_iter().map(Arc::new).collect(),
            segments,
            dictionaries: self.dictionaries,
        })
    }
}

/// A thread-safe registry of loaded tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<StoredTable>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table, replacing any previous table of the same name.
    pub fn register(&self, table: StoredTable) -> Arc<StoredTable> {
        let table = Arc::new(table);
        self.register_arc(Arc::clone(&table));
        table
    }

    /// Register an already shared table (tables are immutable, so several
    /// catalogs — e.g. one per compared engine — can share the same data).
    pub fn register_arc(&self, table: Arc<StoredTable>) {
        self.tables.write().insert(table.name().to_owned(), table);
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<StoredTable>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| HetError::CatalogMissing(format!("table `{name}` is not loaded")))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::ColumnRef;
    use proptest::prelude::*;

    fn nodes() -> Vec<MemoryNodeId> {
        vec![MemoryNodeId::new(0), MemoryNodeId::new(1)]
    }

    fn small_table() -> StoredTable {
        TableBuilder::new("t")
            .column("k", DataType::Int32, ColumnData::Int32((0..100).collect()))
            .column(
                "v",
                DataType::Int64,
                ColumnData::Int64((0..100).map(|i| i as i64 * 10).collect()),
            )
            .build(&nodes(), 30)
            .unwrap()
    }

    #[test]
    fn builder_segments_round_robin() {
        let t = small_table();
        assert_eq!(t.rows(), 100);
        assert_eq!(t.segments().len(), 4); // 30+30+30+10
        assert_eq!(t.segments()[0].node, MemoryNodeId::new(0));
        assert_eq!(t.segments()[1].node, MemoryNodeId::new(1));
        assert_eq!(t.segments()[3].rows(), 10);
    }

    #[test]
    fn builder_rejects_bad_input() {
        assert!(TableBuilder::new("x").build(&nodes(), 10).is_err());
        let ragged = TableBuilder::new("x")
            .column("a", DataType::Int32, ColumnData::Int32(vec![1, 2]))
            .column("b", DataType::Int32, ColumnData::Int32(vec![1]))
            .build(&nodes(), 10);
        assert!(ragged.is_err());
        let no_nodes = TableBuilder::new("x")
            .column("a", DataType::Int32, ColumnData::Int32(vec![1]))
            .build(&[], 10);
        assert!(no_nodes.is_err());
    }

    #[test]
    fn builder_rejects_physical_types_that_contradict_the_declared_ones() {
        let build =
            |declared, data| TableBuilder::new("x").column("c", declared, data).build(&nodes(), 10);
        for (declared, data) in [
            (DataType::Int64, ColumnData::Int32(vec![1])),
            (DataType::Int32, ColumnData::Int64(vec![1])),
            (DataType::Dictionary, ColumnData::Int64(vec![1])),
        ] {
            match build(declared, data.clone()) {
                Err(HetError::Schema(msg)) => {
                    assert!(msg.contains("column c of table x"), "{msg}");
                }
                other => panic!("{declared} over {data:?} built: {other:?}"),
            }
        }
        for (declared, data) in [
            (DataType::Int32, ColumnData::Int32(vec![1])),
            (DataType::Dictionary, ColumnData::Int32(vec![1])),
            (DataType::Int64, ColumnData::Int64(vec![1])),
        ] {
            let t = build(declared, data.clone()).unwrap();
            // The bytes a scan is priced at are the bytes its blocks carry.
            assert_eq!(t.projected_bytes(&["c"]).unwrap(), data.byte_size());
        }
    }

    #[test]
    fn scan_blocks_respect_projection_and_segments() {
        let t = small_table();
        let blocks = t.scan_blocks(&["v"], 25).unwrap();
        // Segments of 30/30/30/10 rows split into 25-row blocks: 2+2+2+1.
        assert_eq!(blocks.len(), 7);
        let total_rows: usize = blocks.iter().map(|b| b.rows()).sum();
        assert_eq!(total_rows, 100);
        // Only the projected column is materialized.
        assert_eq!(blocks[0].block().width(), 1);
        assert_eq!(blocks[0].block().column(0).unwrap().get_i64(0), Some(0));
        // Blocks inherit the placement of their segment.
        assert_eq!(blocks[0].meta().location, MemoryNodeId::new(0));
        assert_eq!(blocks[2].meta().location, MemoryNodeId::new(1));
        assert!(t.scan_blocks(&["missing"], 25).is_err());
        assert!(t.scan_blocks(&["v"], 0).is_err());
    }

    #[test]
    fn projected_bytes_counts_only_projection() {
        let t = small_table();
        assert_eq!(t.projected_bytes(&["k"]).unwrap(), 400);
        assert_eq!(t.projected_bytes(&["k", "v"]).unwrap(), 400 + 800);
    }

    #[test]
    fn dictionary_columns_round_trip() {
        let dict = Arc::new(DictionaryBuilder::from_domain(["ASIA", "EUROPE", "AMERICA"]));
        let codes = vec![dict.encode("ASIA").unwrap(), dict.encode("EUROPE").unwrap()];
        let t = TableBuilder::new("region")
            .dict_column("r_name", codes, Arc::clone(&dict))
            .build(&nodes(), 10)
            .unwrap();
        assert_eq!(t.schema().field("r_name").unwrap().data_type, DataType::Dictionary);
        let d = t.dictionary("r_name").unwrap();
        assert_eq!(d.decode(0), Some("AMERICA"));
        assert!(t.dictionary("missing").is_none());
    }

    #[test]
    fn catalog_register_and_lookup() {
        let catalog = Catalog::new();
        catalog.register(small_table());
        assert!(catalog.get("t").is_ok());
        assert!(catalog.get("nope").is_err());
        assert_eq!(catalog.table_names(), vec!["t".to_string()]);
    }

    /// The byte addresses a column view spans.
    fn addresses(col: ColumnRef<'_>) -> std::ops::Range<usize> {
        let start = match col {
            ColumnRef::Int32(v) => v.as_ptr() as usize,
            ColumnRef::Int64(v) => v.as_ptr() as usize,
        };
        start..start + col.byte_size()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Scans are exact and free: `scan_blocks` cuts the blocks a plain
        /// copy loop would, each block carries exactly its window's bytes,
        /// and every block column points into the stored column.
        #[test]
        fn prop_scan_blocks_are_exact_zero_copy_views(
            kinds in proptest::collection::vec(0u8..2, 1..4),
            projection in proptest::collection::vec(0usize..3, 1..4),
            row_class in 0u8..3,
            many in 2usize..400,
            segment_rows in 1usize..80,
            block_capacity in 1usize..80,
            node_count in 1usize..4,
            seed in 0i64..1_000_000,
        ) {
            let rows = [0, 1, many][row_class as usize];
            let placement: Vec<MemoryNodeId> = (0..node_count).map(MemoryNodeId::new).collect();
            let names: Vec<String> = (0..kinds.len()).map(|c| format!("c{c}")).collect();
            // The value stored at (column, row), as its column's type holds it.
            let value = |c: usize, r: usize| {
                let v = seed.wrapping_mul(31).wrapping_add((c * 1_000 + r) as i64 * 7 - 500);
                if kinds[c] == 0 { v as i32 as i64 } else { v }
            };
            let mut builder = TableBuilder::new("p");
            for (c, kind) in kinds.iter().enumerate() {
                builder = if *kind == 0 {
                    let v = (0..rows).map(|r| value(c, r) as i32).collect();
                    builder.column(names[c].clone(), DataType::Int32, ColumnData::Int32(v))
                } else {
                    let v = (0..rows).map(|r| value(c, r)).collect();
                    builder.column(names[c].clone(), DataType::Int64, ColumnData::Int64(v))
                };
            }
            let table = builder.build(&placement, segment_rows).unwrap();
            let projection: Vec<&str> =
                projection.iter().map(|&p| names[p % kinds.len()].as_str()).collect();
            let blocks = table.scan_blocks(&projection, block_capacity).unwrap();

            // The reference: a plain copy loop over segments and capacities.
            let mut expected = Vec::new();
            for (s, seg_start) in (0..rows).step_by(segment_rows).enumerate() {
                let seg_end = (seg_start + segment_rows).min(rows);
                for start in (seg_start..seg_end).step_by(block_capacity) {
                    let end = (start + block_capacity).min(seg_end);
                    let values: Vec<Vec<i64>> = projection
                        .iter()
                        .map(|name| {
                            let c = names.iter().position(|n| n == name).unwrap();
                            (start..end).map(|r| value(c, r)).collect()
                        })
                        .collect();
                    expected.push((start, placement[s % node_count], values));
                }
            }
            prop_assert_eq!(blocks.len(), expected.len());

            let widths: usize = projection
                .iter()
                .map(|n| table.schema().field(n).unwrap().data_type.byte_width())
                .sum();
            let mut total_bytes = 0;
            for (i, (handle, (start, node, values))) in blocks.iter().zip(&expected).enumerate() {
                prop_assert_eq!(handle.meta().id, BlockId::new(i));
                prop_assert_eq!(handle.meta().location, *node);
                let block = handle.block();
                prop_assert_eq!(block.rows(), values[0].len());
                prop_assert_eq!(block.byte_size(), block.rows() * widths);
                total_bytes += block.byte_size();
                for (c, (col, name)) in block.columns().zip(&projection).enumerate() {
                    let got: Vec<i64> = (0..col.len()).map(|r| col.get_i64(r).unwrap()).collect();
                    prop_assert_eq!(&got, &values[c]);
                    // A view into the stored allocation, at the window's rows.
                    let stored = table.column(name).unwrap();
                    let stored = addresses(stored.values());
                    let view = addresses(col);
                    let width = col.data_type().byte_width();
                    prop_assert!(stored.start <= view.start && view.end <= stored.end);
                    prop_assert_eq!(view.start, stored.start + start * width);
                }
            }
            prop_assert_eq!(total_bytes, table.projected_bytes(&projection).unwrap());
        }
    }

    #[test]
    fn empty_table_has_single_empty_segment() {
        let t = TableBuilder::new("empty")
            .column("a", DataType::Int32, ColumnData::Int32(vec![]))
            .build(&nodes(), 10)
            .unwrap();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.segments().len(), 1);
        assert!(t.scan_blocks(&["a"], 10).unwrap().is_empty());
    }
}
