//! # hetex-ssb
//!
//! The Star Schema Benchmark (O'Neil et al., TPCTC 2009), which the paper uses
//! for its entire evaluation (§6): a `lineorder` fact table joined with the
//! `date`, `customer`, `supplier` and `part` dimensions, queried by thirteen
//! queries in four groups.
//!
//! * [`gen`] — a deterministic, seedable data generator producing
//!   dictionary-encoded columnar tables at a configurable *physical* scale
//!   factor. The benchmark harness models the paper's nominal scale factors
//!   (SF100, SF1000) by generating a smaller physical dataset and setting the
//!   engine's `scale_weight` to `nominal / physical` (see `DESIGN.md` §2);
//!   SSB's filter selectivities are scale-invariant, so the modeled work
//!   scales faithfully.
//! * [`queries`] — the thirteen SSB queries expressed as [`RelNode`] plans
//!   over the generated schema, with string literals encoded through the
//!   generated dictionaries (Q2.2's string range becomes a code range thanks
//!   to order-preserving dictionary encoding).
//!
//! [`RelNode`]: hetex_core::RelNode

pub mod gen;
pub mod queries;

pub use gen::{SsbDataset, SsbGenerator};
pub use queries::{all_queries, query_by_name, query_group, SsbQuery};
