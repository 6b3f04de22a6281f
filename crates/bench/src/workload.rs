//! Synthetic workload generators reproducing the paper's micro-benchmark
//! data-sets (§VI-A and §VI-B).
//!
//! All tables use 72-byte tuples (the paper's tuple width): a 4-byte integer
//! key, a 4-byte sequence number, two 8-byte doubles used as aggregate
//! inputs, and a 48-byte pad.

use hique_storage::{Catalog, TableHeap};
use hique_types::{Column, DataType, Result, Row, Schema, Value};

/// Schema of every micro-benchmark table: 72-byte tuples.
pub fn micro_schema() -> Schema {
    Schema::new(vec![
        Column::new("key", DataType::Int32),
        Column::new("seq", DataType::Int32),
        Column::new("val1", DataType::Float64),
        Column::new("val2", DataType::Float64),
        Column::new("pad", DataType::Char(48)),
    ])
}

/// Build a micro-benchmark table whose `key` column is `key_of(i)` for row i.
pub fn micro_table(rows: usize, key_of: impl Fn(usize) -> i32) -> Result<TableHeap> {
    let schema = micro_schema();
    let mut heap = TableHeap::new(schema)?;
    let pad = "x".repeat(8);
    for i in 0..rows {
        heap.append_row(&Row::new(vec![
            Value::Int32(key_of(i)),
            Value::Int32(i as i32),
            Value::Float64((i % 100) as f64),
            Value::Float64((i % 1000) as f64 * 0.5),
            Value::Str(pad.clone()),
        ]))?;
    }
    Ok(heap)
}

/// The paper's join micro-benchmark: two tables of 72-byte tuples where each
/// outer tuple matches `matches_per_outer` inner tuples on an integer key.
///
/// Registered as tables `outer_t` and `inner_t`.
pub fn join_workload(
    outer_rows: usize,
    inner_rows: usize,
    matches_per_outer: usize,
) -> Result<Catalog> {
    let domain = (inner_rows / matches_per_outer.max(1)).max(1);
    let outer = micro_table(outer_rows, |i| (i % domain) as i32)?;
    let inner = micro_table(inner_rows, |i| (i % domain) as i32)?;
    let mut catalog = Catalog::new();
    catalog.register_table("outer_t", outer)?;
    catalog.register_table("inner_t", inner)?;
    catalog.analyze_table("outer_t")?;
    catalog.analyze_table("inner_t")?;
    Ok(catalog)
}

/// The paper's aggregation micro-benchmark: one table of 72-byte tuples with
/// `distinct_groups` distinct values in the grouping column, registered as
/// `agg_t`.
pub fn agg_workload(rows: usize, distinct_groups: usize) -> Result<Catalog> {
    let table = micro_table(rows, |i| (i % distinct_groups.max(1)) as i32)?;
    let mut catalog = Catalog::new();
    catalog.register_table("agg_t", table)?;
    catalog.analyze_table("agg_t")?;
    Ok(catalog)
}

/// The multi-way join workload of Figure 7(b): one `fact` table joined with
/// `num_dims` dimension tables on a single common key, with output
/// cardinality equal to the fact table's cardinality.
pub fn multiway_workload(fact_rows: usize, dim_rows: usize, num_dims: usize) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    let fact = micro_table(fact_rows, |i| (i % dim_rows.max(1)) as i32)?;
    catalog.register_table("fact", fact)?;
    catalog.analyze_table("fact")?;
    for d in 0..num_dims {
        let dim = micro_table(dim_rows, |i| i as i32)?;
        let name = format!("dim{d}");
        catalog.register_table(&name, dim)?;
        catalog.analyze_table(&name)?;
    }
    Ok(catalog)
}

/// SQL text of the binary join micro-benchmark query (projects the two
/// sequence numbers so both inputs contribute payload).
pub fn join_query_sql() -> &'static str {
    "select o.seq, i.seq from outer_t o, inner_t i where o.key = i.key"
}

/// SQL text of the aggregation micro-benchmark query: two SUMs over one
/// grouping attribute (the paper's configuration).
pub fn agg_query_sql() -> &'static str {
    "select key, sum(val1) as s1, sum(val2) as s2 from agg_t group by key"
}

/// SQL text of the multi-way join query over `num_dims` dimension tables.
pub fn multiway_query_sql(num_dims: usize) -> String {
    let mut from = vec!["fact".to_string()];
    let mut preds = Vec::new();
    for d in 0..num_dims {
        from.push(format!("dim{d}"));
        preds.push(format!("fact.key = dim{d}.key"));
    }
    format!(
        "select fact.seq from {} where {}",
        from.join(", "),
        preds.join(" and ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_tuples_are_72_bytes() {
        assert_eq!(micro_schema().tuple_size(), 72);
    }

    #[test]
    fn join_workload_has_expected_match_counts() {
        let catalog = join_workload(100, 1000, 10).unwrap();
        let outer = catalog.table("outer_t").unwrap();
        let inner = catalog.table("inner_t").unwrap();
        assert_eq!(outer.row_count(), 100);
        assert_eq!(inner.row_count(), 1000);
        // key domain = 1000 / 10 = 100 distinct keys.
        assert_eq!(outer.column_stats[0].distinct, 100);
        assert_eq!(inner.column_stats[0].distinct, 100);
    }

    #[test]
    fn agg_workload_group_domain() {
        let catalog = agg_workload(1000, 10).unwrap();
        assert_eq!(catalog.table("agg_t").unwrap().column_stats[0].distinct, 10);
    }

    #[test]
    fn multiway_workload_and_sql() {
        let catalog = multiway_workload(500, 100, 3).unwrap();
        assert!(catalog.has_table("fact"));
        assert!(catalog.has_table("dim2"));
        let sql = multiway_query_sql(3);
        assert!(sql.contains("dim0") && sql.contains("dim2"));
        assert!(hique_sql::parse_query(&sql).is_ok());
        assert!(hique_sql::parse_query(join_query_sql()).is_ok());
        assert!(hique_sql::parse_query(agg_query_sql()).is_ok());
    }
}
