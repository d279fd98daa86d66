//! The SSB data generator.
//!
//! Produces the five SSB tables as dictionary-encoded columnar
//! [`StoredTable`]s. The generator is deterministic for a given seed, and the
//! physical size is decoupled from the *nominal* scale factor the benchmark
//! harness models (see the crate docs): `SsbGenerator::scale_factor` controls
//! the physical row counts, and the engine's `scale_weight` knob scales the
//! modeled bytes up to the nominal SF100 / SF1000 datasets of the paper.

use hetex_common::{ColumnData, DataType, DictionaryBuilder, MemoryNodeId, Result};
use hetex_storage::{Catalog, StoredTable, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The 25 TPC-H / SSB nations and the region each belongs to.
pub const NATIONS: [(&str, &str); 25] = [
    ("ALGERIA", "AFRICA"),
    ("ARGENTINA", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"),
    ("EGYPT", "MIDDLE EAST"),
    ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"),
    ("GERMANY", "EUROPE"),
    ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"),
    ("IRAN", "MIDDLE EAST"),
    ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"),
    ("JORDAN", "MIDDLE EAST"),
    ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"),
    ("MOZAMBIQUE", "AFRICA"),
    ("PERU", "AMERICA"),
    ("CHINA", "ASIA"),
    ("ROMANIA", "EUROPE"),
    ("SAUDI ARABIA", "MIDDLE EAST"),
    ("VIETNAM", "ASIA"),
    ("RUSSIA", "EUROPE"),
    ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
];

/// The five SSB regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// SSB city name: the nation name truncated/padded to 9 characters plus a
/// digit 0-9 (e.g. `UNITED KI1`).
pub fn city_name(nation: usize, digit: usize) -> String {
    let name = NATIONS[nation].0;
    let mut prefix: String = name.chars().take(9).collect();
    while prefix.len() < 9 {
        prefix.push(' ');
    }
    format!("{prefix}{digit}")
}

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct SsbGenerator {
    /// Physical scale factor (SF1 ≈ 6 M lineorder rows).
    pub scale_factor: f64,
    /// Override the lineorder row count directly (used by the
    /// microbenchmarks, which size inputs in bytes rather than SF).
    pub fact_rows: Option<usize>,
    /// RNG seed; the same seed always generates the same dataset.
    pub seed: u64,
    /// Rows per storage segment (segments are placed round-robin over the
    /// placement nodes).
    pub segment_rows: usize,
}

impl Default for SsbGenerator {
    fn default() -> Self {
        Self { scale_factor: 0.01, fact_rows: None, seed: 42, segment_rows: 1 << 20 }
    }
}

/// The generated dataset: the five tables plus the dictionaries needed to
/// encode query literals.
#[derive(Debug)]
pub struct SsbDataset {
    /// The `lineorder` fact table.
    pub lineorder: Arc<StoredTable>,
    /// The `date` dimension.
    pub date: Arc<StoredTable>,
    /// The `customer` dimension.
    pub customer: Arc<StoredTable>,
    /// The `supplier` dimension.
    pub supplier: Arc<StoredTable>,
    /// The `part` dimension.
    pub part: Arc<StoredTable>,
}

impl SsbDataset {
    /// Register every table into a catalog. Tables are shared, not copied, so
    /// several engines under comparison can use the same dataset.
    pub fn register_into(&self, catalog: &Catalog) {
        catalog.register_arc(Arc::clone(&self.lineorder));
        catalog.register_arc(Arc::clone(&self.date));
        catalog.register_arc(Arc::clone(&self.customer));
        catalog.register_arc(Arc::clone(&self.supplier));
        catalog.register_arc(Arc::clone(&self.part));
    }

    /// Total physical bytes of the listed `lineorder` columns plus every
    /// dimension column a query touches — the "working set" used for
    /// throughput numbers.
    pub fn working_set_bytes(&self, lineorder_columns: &[&str]) -> Result<usize> {
        self.lineorder.projected_bytes(lineorder_columns)
    }

    /// Number of fact rows.
    pub fn fact_rows(&self) -> usize {
        self.lineorder.rows()
    }
}

impl SsbGenerator {
    /// A generator at the given physical scale factor.
    pub fn new(scale_factor: f64) -> Self {
        Self { scale_factor, ..Self::default() }
    }

    /// Override the number of lineorder rows.
    pub fn with_fact_rows(mut self, rows: usize) -> Self {
        self.fact_rows = Some(rows);
        self
    }

    /// Physical row counts derived from the scale factor.
    pub fn row_counts(&self) -> (usize, usize, usize, usize, usize) {
        let sf = self.scale_factor.max(1e-4);
        let fact = self.fact_rows.unwrap_or(((6_000_000.0 * sf) as usize).max(1_000));
        let customer = ((30_000.0 * sf) as usize).max(100);
        let supplier = ((2_000.0 * sf) as usize).max(40);
        let part = if sf >= 1.0 {
            (200_000.0 * (1.0 + sf.log2())) as usize
        } else {
            ((200_000.0 * sf) as usize).max(200)
        };
        (fact, 2_557, customer, supplier, part)
    }

    /// Generate the dataset, placing segments round-robin over `placement`.
    pub fn generate(&self, placement: &[MemoryNodeId]) -> Result<SsbDataset> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (fact_rows, date_rows, customer_rows, supplier_rows, part_rows) = self.row_counts();

        let date = self.gen_date(placement)?;
        let customer = self.gen_customer(customer_rows, placement, &mut rng)?;
        let supplier = self.gen_supplier(supplier_rows, placement, &mut rng)?;
        let part = self.gen_part(part_rows, placement, &mut rng)?;
        let lineorder = self.gen_lineorder(
            fact_rows,
            date_rows,
            customer_rows,
            supplier_rows,
            part_rows,
            placement,
            &mut rng,
        )?;

        Ok(SsbDataset {
            lineorder: Arc::new(lineorder),
            date: Arc::new(date),
            customer: Arc::new(customer),
            supplier: Arc::new(supplier),
            part: Arc::new(part),
        })
    }

    fn gen_date(&self, placement: &[MemoryNodeId]) -> Result<StoredTable> {
        let mut datekey = Vec::new();
        let mut year = Vec::new();
        let mut yearmonthnum = Vec::new();
        let mut weeknuminyear = Vec::new();
        for y in 1992..=1998 {
            let leap = y % 4 == 0;
            let months = [31, if leap { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
            let mut day_of_year = 0;
            for (m, &days) in months.iter().enumerate() {
                for d in 1..=days {
                    day_of_year += 1;
                    datekey.push(y * 10_000 + (m as i32 + 1) * 100 + d);
                    year.push(y);
                    yearmonthnum.push(y * 100 + m as i32 + 1);
                    weeknuminyear.push((day_of_year - 1) / 7 + 1);
                }
            }
        }
        TableBuilder::new("date")
            .column("d_datekey", DataType::Int32, ColumnData::Int32(datekey))
            .column("d_year", DataType::Int32, ColumnData::Int32(year))
            .column("d_yearmonthnum", DataType::Int32, ColumnData::Int32(yearmonthnum))
            .column("d_weeknuminyear", DataType::Int32, ColumnData::Int32(weeknuminyear))
            .build(placement, self.segment_rows)
    }

    fn gen_customer(
        &self,
        rows: usize,
        placement: &[MemoryNodeId],
        rng: &mut StdRng,
    ) -> Result<StoredTable> {
        let (nation_dict, region_dict, city_dict) = geo_dictionaries();
        let mut custkey = Vec::with_capacity(rows);
        let mut city = Vec::with_capacity(rows);
        let mut nation = Vec::with_capacity(rows);
        let mut region = Vec::with_capacity(rows);
        for i in 0..rows {
            let n = rng.random_range(0..NATIONS.len());
            let digit = rng.random_range(0..10);
            custkey.push(i as i32 + 1);
            nation.push(nation_dict.encode(NATIONS[n].0).unwrap());
            region.push(region_dict.encode(NATIONS[n].1).unwrap());
            city.push(city_dict.encode(&city_name(n, digit)).unwrap());
        }
        TableBuilder::new("customer")
            .column("c_custkey", DataType::Int32, ColumnData::Int32(custkey))
            .dict_column("c_city", city, Arc::new(city_dict))
            .dict_column("c_nation", nation, Arc::new(nation_dict))
            .dict_column("c_region", region, Arc::new(region_dict))
            .build(placement, self.segment_rows)
    }

    fn gen_supplier(
        &self,
        rows: usize,
        placement: &[MemoryNodeId],
        rng: &mut StdRng,
    ) -> Result<StoredTable> {
        let (nation_dict, region_dict, city_dict) = geo_dictionaries();
        let mut suppkey = Vec::with_capacity(rows);
        let mut city = Vec::with_capacity(rows);
        let mut nation = Vec::with_capacity(rows);
        let mut region = Vec::with_capacity(rows);
        for i in 0..rows {
            let n = rng.random_range(0..NATIONS.len());
            let digit = rng.random_range(0..10);
            suppkey.push(i as i32 + 1);
            nation.push(nation_dict.encode(NATIONS[n].0).unwrap());
            region.push(region_dict.encode(NATIONS[n].1).unwrap());
            city.push(city_dict.encode(&city_name(n, digit)).unwrap());
        }
        TableBuilder::new("supplier")
            .column("s_suppkey", DataType::Int32, ColumnData::Int32(suppkey))
            .dict_column("s_city", city, Arc::new(city_dict))
            .dict_column("s_nation", nation, Arc::new(nation_dict))
            .dict_column("s_region", region, Arc::new(region_dict))
            .build(placement, self.segment_rows)
    }

    fn gen_part(
        &self,
        rows: usize,
        placement: &[MemoryNodeId],
        rng: &mut StdRng,
    ) -> Result<StoredTable> {
        let (mfgr_dict, category_dict, brand_dict) = part_dictionaries();
        let mut partkey = Vec::with_capacity(rows);
        let mut mfgr = Vec::with_capacity(rows);
        let mut category = Vec::with_capacity(rows);
        let mut brand = Vec::with_capacity(rows);
        for i in 0..rows {
            let m = rng.random_range(1..=5u32);
            let c = rng.random_range(1..=5u32);
            let b = rng.random_range(1..=40u32);
            partkey.push(i as i32 + 1);
            mfgr.push(mfgr_dict.encode(&format!("MFGR#{m}")).unwrap());
            category.push(category_dict.encode(&format!("MFGR#{m}{c}")).unwrap());
            brand.push(brand_dict.encode(&format!("MFGR#{m}{c}{b}")).unwrap());
        }
        TableBuilder::new("part")
            .column("p_partkey", DataType::Int32, ColumnData::Int32(partkey))
            .dict_column("p_mfgr", mfgr, Arc::new(mfgr_dict))
            .dict_column("p_category", category, Arc::new(category_dict))
            .dict_column("p_brand1", brand, Arc::new(brand_dict))
            .build(placement, self.segment_rows)
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_lineorder(
        &self,
        rows: usize,
        date_rows: usize,
        customer_rows: usize,
        supplier_rows: usize,
        part_rows: usize,
        placement: &[MemoryNodeId],
        rng: &mut StdRng,
    ) -> Result<StoredTable> {
        // Order dates are drawn from the date dimension's keys.
        let mut date_keys = Vec::with_capacity(date_rows);
        for y in 1992..=1998i32 {
            let leap = y % 4 == 0;
            let months = [31, if leap { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
            for (m, &days) in months.iter().enumerate() {
                for d in 1..=days {
                    date_keys.push(y * 10_000 + (m as i32 + 1) * 100 + d);
                }
            }
        }

        let mut orderdate = Vec::with_capacity(rows);
        let mut custkey = Vec::with_capacity(rows);
        let mut suppkey = Vec::with_capacity(rows);
        let mut partkey = Vec::with_capacity(rows);
        let mut quantity = Vec::with_capacity(rows);
        let mut discount = Vec::with_capacity(rows);
        let mut extendedprice = Vec::with_capacity(rows);
        let mut revenue = Vec::with_capacity(rows);
        let mut supplycost = Vec::with_capacity(rows);
        for _ in 0..rows {
            orderdate.push(date_keys[rng.random_range(0..date_keys.len())]);
            custkey.push(rng.random_range(1..=customer_rows as i32));
            suppkey.push(rng.random_range(1..=supplier_rows as i32));
            partkey.push(rng.random_range(1..=part_rows as i32));
            let q = rng.random_range(1..=50i32);
            quantity.push(q);
            discount.push(rng.random_range(0..=10i32));
            let price = rng.random_range(90_000..=100_000i64);
            extendedprice.push(price);
            revenue.push(price * q as i64 / 10);
            supplycost.push(price * 6 / 10);
        }
        TableBuilder::new("lineorder")
            .column("lo_orderdate", DataType::Int32, ColumnData::Int32(orderdate))
            .column("lo_custkey", DataType::Int32, ColumnData::Int32(custkey))
            .column("lo_suppkey", DataType::Int32, ColumnData::Int32(suppkey))
            .column("lo_partkey", DataType::Int32, ColumnData::Int32(partkey))
            .column("lo_quantity", DataType::Int32, ColumnData::Int32(quantity))
            .column("lo_discount", DataType::Int32, ColumnData::Int32(discount))
            .column("lo_extendedprice", DataType::Int64, ColumnData::Int64(extendedprice))
            .column("lo_revenue", DataType::Int64, ColumnData::Int64(revenue))
            .column("lo_supplycost", DataType::Int64, ColumnData::Int64(supplycost))
            .build(placement, self.segment_rows)
    }
}

/// Dictionaries shared by customer and supplier: nation, region, city.
fn geo_dictionaries() -> (DictionaryBuilder, DictionaryBuilder, DictionaryBuilder) {
    let nation = DictionaryBuilder::from_domain(NATIONS.iter().map(|(n, _)| *n));
    let region = DictionaryBuilder::from_domain(REGIONS);
    let mut cities = Vec::new();
    for n in 0..NATIONS.len() {
        for d in 0..10 {
            cities.push(city_name(n, d));
        }
    }
    let city = DictionaryBuilder::from_domain(cities);
    (nation, region, city)
}

/// Dictionaries for the part table: manufacturer, category, brand.
fn part_dictionaries() -> (DictionaryBuilder, DictionaryBuilder, DictionaryBuilder) {
    let mfgr = DictionaryBuilder::from_domain((1..=5).map(|m| format!("MFGR#{m}")));
    let category = DictionaryBuilder::from_domain(
        (1..=5).flat_map(|m| (1..=5).map(move |c| format!("MFGR#{m}{c}"))),
    );
    let brand =
        DictionaryBuilder::from_domain((1..=5).flat_map(|m| {
            (1..=5).flat_map(move |c| (1..=40).map(move |b| format!("MFGR#{m}{c}{b}")))
        }));
    (mfgr, category, brand)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> Vec<MemoryNodeId> {
        vec![MemoryNodeId::new(0), MemoryNodeId::new(1)]
    }

    fn tiny() -> SsbDataset {
        SsbGenerator { scale_factor: 0.001, seed: 7, segment_rows: 2048, fact_rows: None }
            .generate(&nodes())
            .unwrap()
    }

    #[test]
    fn row_counts_scale_with_sf() {
        let small = SsbGenerator::new(0.01).row_counts();
        let big = SsbGenerator::new(1.0).row_counts();
        assert_eq!(small.1, 2557);
        assert_eq!(big.0, 6_000_000);
        assert_eq!(big.2, 30_000);
        assert_eq!(big.3, 2_000);
        assert!(big.4 >= 200_000);
        assert!(small.0 < big.0);
        let overridden = SsbGenerator::new(1.0).with_fact_rows(1234).row_counts();
        assert_eq!(overridden.0, 1234);
    }

    #[test]
    fn date_dimension_covers_seven_years() {
        let data = tiny();
        assert_eq!(data.date.rows(), 2557);
        let years = data.date.column("d_year").unwrap();
        assert_eq!(years.get_i64(0), Some(1992));
        assert_eq!(years.get_i64(2556), Some(1998));
        let weeks = data.date.column("d_weeknuminyear").unwrap();
        for i in 0..data.date.rows() {
            let w = weeks.get_i64(i).unwrap();
            assert!((1..=53).contains(&w));
        }
    }

    #[test]
    fn foreign_keys_reference_dimensions() {
        let data = tiny();
        let custkeys = data.lineorder.column("lo_custkey").unwrap();
        let suppkeys = data.lineorder.column("lo_suppkey").unwrap();
        let partkeys = data.lineorder.column("lo_partkey").unwrap();
        let dates = data.lineorder.column("lo_orderdate").unwrap();
        for i in 0..data.lineorder.rows() {
            assert!(custkeys.get_i64(i).unwrap() <= data.customer.rows() as i64);
            assert!(suppkeys.get_i64(i).unwrap() <= data.supplier.rows() as i64);
            assert!(partkeys.get_i64(i).unwrap() <= data.part.rows() as i64);
            let d = dates.get_i64(i).unwrap();
            assert!((19920101..=19981231).contains(&d));
        }
    }

    #[test]
    fn dictionaries_are_order_preserving_for_brand_ranges() {
        let data = tiny();
        let brand_dict = data.part.dictionary("p_brand1").unwrap();
        let lo = brand_dict.encode("MFGR#2221").unwrap();
        let hi = brand_dict.encode("MFGR#2228").unwrap();
        assert!(lo < hi);
        // Exactly eight brands fall lexically in the Q2.2 range.
        let count = (lo..=hi).count();
        assert_eq!(count, 8);
        let region_dict = data.customer.dictionary("c_region").unwrap();
        assert!(region_dict.encode("ASIA").is_some());
        assert_eq!(region_dict.len(), 5);
        let city_dict = data.supplier.dictionary("s_city").unwrap();
        assert!(city_dict.encode("UNITED KI1").is_some());
        assert_eq!(city_dict.len(), 250);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SsbGenerator { scale_factor: 0.001, seed: 9, ..Default::default() }
            .generate(&nodes())
            .unwrap();
        let b = SsbGenerator { scale_factor: 0.001, seed: 9, ..Default::default() }
            .generate(&nodes())
            .unwrap();
        let ca = a.lineorder.column("lo_revenue").unwrap();
        let cb = b.lineorder.column("lo_revenue").unwrap();
        assert_eq!(ca.get_i64(100), cb.get_i64(100));
        let c = SsbGenerator { scale_factor: 0.001, seed: 10, ..Default::default() }
            .generate(&nodes())
            .unwrap();
        let cc = c.lineorder.column("lo_revenue").unwrap();
        assert_ne!(
            (0..50).map(|i| ca.get_i64(i)).collect::<Vec<_>>(),
            (0..50).map(|i| cc.get_i64(i)).collect::<Vec<_>>()
        );
    }

    /// Every value of every column of the SF 0.01, seed 42 dataset, in
    /// table, column and row order, folded into one `u64`: a change to the
    /// generator or to how it draws (the vendored `Rng::below`) that moves
    /// a single value moves the digest.
    #[test]
    fn the_sf_001_seed_42_dataset_is_pinned() {
        let data = SsbGenerator { seed: 42, ..SsbGenerator::new(0.01) }.generate(&nodes()).unwrap();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for table in [&data.lineorder, &data.date, &data.customer, &data.supplier, &data.part] {
            for field in table.schema().fields() {
                let column = table.column(&field.name).unwrap();
                for row in 0..table.rows() {
                    let value = column.get_i64(row).unwrap() as u64;
                    digest = (digest ^ value).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(5);
                }
            }
        }
        assert_eq!(digest, 0x8BD2_4719_FBDF_FCE9);
    }

    #[test]
    fn measures_are_in_documented_ranges() {
        let data = tiny();
        let quantity = data.lineorder.column("lo_quantity").unwrap();
        let discount = data.lineorder.column("lo_discount").unwrap();
        for i in 0..data.lineorder.rows() {
            assert!((1..=50).contains(&quantity.get_i64(i).unwrap()));
            assert!((0..=10).contains(&discount.get_i64(i).unwrap()));
        }
    }

    #[test]
    fn working_set_bytes_counts_projection() {
        let data = tiny();
        let bytes = data.working_set_bytes(&["lo_orderdate", "lo_revenue"]).unwrap();
        assert_eq!(bytes, data.fact_rows() * (4 + 8));
    }
}
