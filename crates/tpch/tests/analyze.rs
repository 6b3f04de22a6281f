//! `ANALYZE` over typed lanes builds exactly the distribution of the boxed
//! reference, `ColumnDistribution::build` over every cell as a `Value`:
//! on every TPC-H column, memory-resident and paged, and on a table of edge
//! values (CHAR bytes below the pad, non-ASCII text, signed zeros, NaNs,
//! infinities, Int64 values that one `f64` cannot tell apart).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_storage::Catalog;
use hique_types::tuple::read_value;
use hique_types::{Column, ColumnDistribution, DataType, Row, Schema, Value};

/// Assert every analyzed column of `table` equals the boxed reference, bit
/// for bit: `==` orders floats by `total_cmp` (so NaN payloads and the
/// sign of zero count) and the debug form tells the value kinds apart.
fn assert_matches_reference(catalog: &Catalog, table: &str) {
    let info = catalog.table(table).unwrap();
    assert_eq!(info.column_stats.len(), info.schema.len(), "{table}");
    for (c, analyzed) in info.column_stats.iter().enumerate() {
        let mut values = Vec::new();
        info.heap
            .for_each_record(|r| values.push(read_value(r, &info.schema, c)))
            .unwrap();
        let reference = ColumnDistribution::build(values);
        let column = &info.schema.column(c).name;
        assert_eq!(analyzed, &reference, "{table}.{column}");
        assert_eq!(
            format!("{analyzed:?}"),
            format!("{reference:?}"),
            "{table}.{column}"
        );
    }
}

#[test]
fn every_tpch_column_matches_the_boxed_reference() {
    let mut catalog = hique_tpch::generate_into_catalog(0.01).unwrap();
    let tables: Vec<String> = catalog
        .table_names()
        .iter()
        .map(|t| t.to_string())
        .collect();
    assert_eq!(tables.len(), 7);
    for table in &tables {
        assert_matches_reference(&catalog, table);
    }
    // Through a 64-page pool: the lanes read every page back from disk.
    catalog.spill_to_disk(64).unwrap();
    for table in &tables {
        catalog.analyze_table(table).unwrap();
        assert_matches_reference(&catalog, table);
    }
    assert!(catalog.pool_stats().evictions > 0);
}

#[test]
fn edge_values_match_the_boxed_reference() {
    let schema = Schema::new(vec![
        Column::new("text", DataType::Char(6)),
        Column::new("x", DataType::Float64),
        Column::new("big", DataType::Int64),
        Column::new("skew", DataType::Int32),
        Column::new("one", DataType::Date),
    ]);
    let texts = [
        "a", "a  ", "a\u{1}", "a\u{1f}b", "é", "naïve", "", " x", "zz", "A",
    ];
    let floats = [
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25,
    ];
    let bigs = [(1i64 << 53) + 1, (1i64 << 53) + 3, -(1i64 << 53) - 1];
    let mut catalog = Catalog::new();
    catalog.create_table("edge", schema.clone()).unwrap();
    catalog.create_table("empty", schema).unwrap();
    for i in 0..2_000usize {
        // Half zeros, a few frequent values, and 500 that occur once.
        let skew = match i % 4 {
            0 | 1 => 0,
            2 => (i % 11) as i32,
            _ => i as i32,
        };
        let row = Row::new(vec![
            Value::Str(texts[i % texts.len()].into()),
            Value::Float64(floats[i % floats.len()]),
            Value::Int64(bigs[i % bigs.len()]),
            Value::Int32(skew),
            Value::Date(8_000),
        ]);
        let info = catalog.table_mut("edge").unwrap();
        info.heap.append_row(&row).unwrap();
    }
    catalog.analyze_table("edge").unwrap();
    catalog.analyze_table("empty").unwrap();
    assert_matches_reference(&catalog, "edge");
    assert_matches_reference(&catalog, "empty");

    let stats = &catalog.table("edge").unwrap().column_stats;
    // Trailing spaces are the pad: "a" and "a  " are one value.
    assert_eq!(stats[0].distinct, texts.len() - 1);
    // Signed zeros and NaNs of either sign are four values.
    assert_eq!(stats[1].distinct, floats.len());
    assert_eq!(stats[2].distinct, bigs.len());
    assert!(stats[3].distinct > 32 && !stats[3].buckets.is_empty());
    assert_eq!(stats[3].mcv[0], (Value::Int32(0), 1_000 + 45));
    assert_eq!(stats[4].mcv, [(Value::Date(8_000), 2_000)]);
    assert!(catalog.table("empty").unwrap().column_stats[0]
        .mcv
        .is_empty());
}
