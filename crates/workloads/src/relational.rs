//! The Pavlo performance benchmark's `uservisits` web-log table, which the
//! Section 5.2 hybrid mix scans. The benchmark's tasks (select, aggregate,
//! join) are repository prescriptions.

use bdb_common::value::{DataType, Field, Schema};
use bdb_datagen::table::{ColumnModel, TableGenerator};

/// The `uservisits` table generator: sourceIP (as int), destination page,
/// visit date, ad revenue.
pub fn uservisits_generator(num_pages: u64) -> TableGenerator {
    let schema = Schema::new(vec![
        Field::new("source_ip", DataType::Int),
        Field::new("dest_page", DataType::Int),
        Field::new("visit_ts", DataType::Timestamp),
        Field::new("ad_revenue", DataType::Float),
    ]);
    TableGenerator::new(
        "uservisits",
        schema,
        vec![
            ColumnModel::SkewedKey { cardinality: 100_000, exponent: 0.5 },
            // Visits concentrate on popular pages.
            ColumnModel::SkewedKey { cardinality: num_pages, exponent: 0.9 },
            ColumnModel::MonotonicTimestamp { start: 0, mean_gap_ms: 500.0 },
            ColumnModel::LogNormalFloat { mu: 0.0, sigma: 1.0 },
        ],
    )
    .expect("valid uservisits generator")
}
