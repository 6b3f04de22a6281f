//! TPC-H correctness: Q1, Q3 and Q10 produce identical results on all three
//! engines, and Q1's aggregates match a reference computed directly from the
//! raw lineitem data.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique::dsm::DsmDatabase;
use hique::iter::ExecMode;
use hique::plan::{plan_query, CatalogProvider, PlannerConfig};
use hique::storage::Catalog;
use hique::tpch;
use hique::types::tuple::read_value;
use hique::types::{QueryResult, Value};

const SF: f64 = 0.004;

fn plan_for(sql: &str, catalog: &Catalog) -> hique::plan::PhysicalPlan {
    let parsed = hique::sql::parse_query(sql).unwrap();
    let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(catalog)).unwrap();
    plan_query(&bound, catalog, &PlannerConfig::default()).unwrap()
}

fn assert_close(a: &Value, b: &Value, context: &str) {
    match (a.as_f64(), b.as_f64()) {
        (Ok(fa), Ok(fb)) => assert!(
            (fa - fb).abs() <= 1e-6 * (1.0 + fa.abs()),
            "{context}: {fa} vs {fb}"
        ),
        _ => assert_eq!(a, b, "{context}"),
    }
}

fn assert_same_results(a: &QueryResult, b: &QueryResult, context: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row counts");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for (va, vb) in ra.values().iter().zip(rb.values()) {
            assert_close(va, vb, context);
        }
    }
}

#[test]
fn all_engines_agree_on_q1_q3_q10() {
    let catalog = tpch::generate_into_catalog(SF).unwrap();
    let db = DsmDatabase::from_catalog(&catalog).unwrap();
    for (name, sql) in tpch::queries::all_queries() {
        let plan = plan_for(sql, &catalog);
        let iter =
            hique::iter::execute_plan(&plan, &catalog, ExecMode::Optimized, &Default::default())
                .unwrap();
        let dsm = hique::dsm::execute_plan(&plan, &db, &Default::default()).unwrap();
        let hiq = hique::holistic::execute_plan(&plan, &catalog).unwrap();
        assert!(hiq.num_rows() > 0, "{name} returned no rows at SF {SF}");
        assert_same_results(&iter, &hiq, &format!("{name}: iterators vs HIQUE"));
        assert_same_results(&dsm, &hiq, &format!("{name}: DSM vs HIQUE"));
    }
}

#[test]
fn q1_matches_a_hand_computed_reference() {
    let catalog = tpch::generate_into_catalog(SF).unwrap();
    let plan = plan_for(tpch::Q1_SQL, &catalog);
    let result = hique::holistic::execute_plan(&plan, &catalog).unwrap();

    // Reference computation straight from the heap.
    let info = catalog.table("lineitem").unwrap();
    let schema = &info.schema;
    let idx = |name: &str| schema.index_of(name).unwrap();
    let cutoff = hique::types::value::parse_date("1998-12-01").unwrap() - 90;
    use std::collections::BTreeMap;
    // (returnflag, linestatus) -> (sum_qty, sum_base, sum_disc, sum_charge, sum_disc_only, count)
    let mut groups: BTreeMap<(String, String), (f64, f64, f64, f64, f64, i64)> = BTreeMap::new();
    for record in info.heap.records() {
        let shipdate = read_value(record, schema, idx("l_shipdate"))
            .as_i64()
            .unwrap() as i32;
        if shipdate > cutoff {
            continue;
        }
        let qty = read_value(record, schema, idx("l_quantity"))
            .as_f64()
            .unwrap();
        let price = read_value(record, schema, idx("l_extendedprice"))
            .as_f64()
            .unwrap();
        let disc = read_value(record, schema, idx("l_discount"))
            .as_f64()
            .unwrap();
        let tax = read_value(record, schema, idx("l_tax")).as_f64().unwrap();
        let rf = read_value(record, schema, idx("l_returnflag")).to_string();
        let ls = read_value(record, schema, idx("l_linestatus")).to_string();
        let e = groups
            .entry((rf, ls))
            .or_insert((0.0, 0.0, 0.0, 0.0, 0.0, 0));
        e.0 += qty;
        e.1 += price;
        e.2 += price * (1.0 - disc);
        e.3 += price * (1.0 - disc) * (1.0 + tax);
        e.4 += disc;
        e.5 += 1;
    }

    assert_eq!(result.num_rows(), groups.len());
    // Output is ordered by (returnflag, linestatus), as is the BTreeMap.
    for (row, ((rf, ls), (qty, base, disc_price, charge, disc_sum, count))) in
        result.rows.iter().zip(groups.iter())
    {
        assert_eq!(row.get(0), &Value::Str(rf.clone()));
        assert_eq!(row.get(1), &Value::Str(ls.clone()));
        assert_close(row.get(2), &Value::Float64(*qty), "sum_qty");
        assert_close(row.get(3), &Value::Float64(*base), "sum_base_price");
        assert_close(row.get(4), &Value::Float64(*disc_price), "sum_disc_price");
        assert_close(row.get(5), &Value::Float64(*charge), "sum_charge");
        assert_close(row.get(6), &Value::Float64(qty / *count as f64), "avg_qty");
        assert_close(
            row.get(7),
            &Value::Float64(base / *count as f64),
            "avg_price",
        );
        assert_close(
            row.get(8),
            &Value::Float64(disc_sum / *count as f64),
            "avg_disc",
        );
        assert_eq!(row.get(9), &Value::Int64(*count), "count_order");
    }
}

#[test]
fn q3_and_q10_respect_their_limits_and_ordering() {
    let catalog = tpch::generate_into_catalog(SF).unwrap();
    for (sql, limit) in [(tpch::Q3_SQL, 10usize), (tpch::Q10_SQL, 20usize)] {
        let plan = plan_for(sql, &catalog);
        let result = hique::holistic::execute_plan(&plan, &catalog).unwrap();
        assert!(result.num_rows() <= limit);
        // revenue column (index 1 in Q3, 2 in Q10) is non-increasing.
        let rev_idx = if sql == tpch::Q3_SQL { 1 } else { 2 };
        let revenues: Vec<f64> = result
            .rows
            .iter()
            .map(|r| r.get(rev_idx).as_f64().unwrap())
            .collect();
        assert!(
            revenues.windows(2).all(|w| w[0] >= w[1] - 1e-9),
            "revenue ordering"
        );
    }
}
