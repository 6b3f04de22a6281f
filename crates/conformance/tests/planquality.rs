//! The plan-quality gate: histogram/MCV cardinality estimates held
//! accountable against measured cardinalities at TPC-H scale factor 0.1.
//!
//! Three properties are enforced:
//!
//! 1. **q-error on filtered scans** — over a stream of generated
//!    single-table filtered scans, the planner's post-filter row estimates
//!    must reach median q-error ≤ 2 and p95 ≤ 10 against exact counts;
//! 2. **pinned join orders** — TPC-H Q3 and Q10 must keep the join orders
//!    the estimates are expected to produce (most selective pair first,
//!    cheap dimension joins early, lineitem last);
//! 3. **estimates don't depend on threads** — the same query planned at
//!    `threads ∈ {1, 2, 4}` yields identical staging estimates and join
//!    order, so parallel conformance stays bit-stable with histograms on
//!    (execution-level equality is enforced by `tests/parallel.rs`).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use std::sync::OnceLock;

use hique_conformance::genquery::scan_query_for_seed;
use hique_conformance::planquality::{
    measure_actuals, QualityReport, GATE_MEDIAN_Q_ERROR, GATE_P95_Q_ERROR,
};
use hique_plan::{explain_with_actuals, plan_sql, PlannerConfig};
use hique_storage::Catalog;

const SF: f64 = 0.1;
const SCAN_SEED: u64 = 0xCA7D;
const SCAN_QUERIES: u64 = 80;

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| hique_tpch::generate_into_catalog(SF).expect("catalog generation"))
}

#[test]
fn filtered_scan_estimates_meet_the_q_error_gate() {
    let catalog = catalog();
    let mut report = QualityReport::default();
    for i in 0..SCAN_QUERIES {
        let query = scan_query_for_seed(SCAN_SEED, i, SF);
        let plan = plan_sql(&query.sql, catalog, &query.config)
            .unwrap_or_else(|e| panic!("{}: {e}", query.sql));
        report
            .record(&query.sql, &plan, catalog)
            .unwrap_or_else(|e| panic!("{}: {e}", query.sql));

        // A slice of the stream is also executed end-to-end: the holistic
        // engine's count(*) must equal the independently measured actual.
        if i % 8 == 0 {
            let result = hique_holistic::execute_plan(&plan, catalog)
                .unwrap_or_else(|e| panic!("{}: {e}", query.sql));
            // Global aggregates over empty inputs return zero rows (the
            // cross-engine convention pinned in DESIGN.md §6).
            let counted = result
                .rows
                .first()
                .map_or(0, |r| r.values()[0].as_i64().unwrap() as usize);
            let measured = report.samples.last().unwrap().actual;
            assert_eq!(counted, measured, "engine vs harness count: {}", query.sql);
        }
    }
    assert_eq!(report.samples.len(), SCAN_QUERIES as usize);

    let median = report.median();
    let p95 = report.quantile(0.95);
    let worst: Vec<String> = report
        .worst(5)
        .iter()
        .map(|s| {
            format!(
                "  q={:.1} est={} actual={} [{}] {}",
                s.q_error(),
                s.estimated,
                s.actual,
                s.operator,
                s.sql
            )
        })
        .collect();
    println!("plan-quality scans @ SF {SF}: {}", report.summary());
    assert!(
        median <= GATE_MEDIAN_Q_ERROR,
        "median q-error {median:.2} > {GATE_MEDIAN_Q_ERROR} over {SCAN_QUERIES} filtered scans; \
         worst:\n{}",
        worst.join("\n")
    );
    assert!(
        p95 <= GATE_P95_Q_ERROR,
        "p95 q-error {p95:.2} > {GATE_P95_Q_ERROR} over {SCAN_QUERIES} filtered scans; worst:\n{}",
        worst.join("\n")
    );
    assert!(report.passes_gate());
}

/// The join order of a plan as staged table names.
fn join_order_names(sql: &str) -> Vec<String> {
    let plan = plan_sql(sql, catalog(), &PlannerConfig::default()).unwrap();
    plan.join_order
        .iter()
        .map(|&t| plan.staged[t].table_name.clone())
        .collect()
}

#[test]
fn q3_join_order_is_pinned() {
    // Q3: customer is cut to one market segment (1/5) and drives the pair
    // with orders; the big lineitem input joins last.
    assert_eq!(
        join_order_names(hique_tpch::queries::Q3_SQL),
        vec!["customer", "orders", "lineitem"]
    );
}

#[test]
fn q10_join_order_is_pinned() {
    // Q10: the three-month orderdate window makes orders the most selective
    // input (~5.7k of 150k rows); joining the returnflag-filtered lineitem
    // next keeps the intermediate at the same scale (each windowed order
    // contributes few 'R' lines), and the unfiltered customer and the
    // 25-row nation dimension attach afterwards without growing it.
    assert_eq!(
        join_order_names(hique_tpch::queries::Q10_SQL),
        vec!["orders", "lineitem", "customer", "nation"]
    );
}

#[test]
fn q3_and_q10_estimates_track_join_actuals() {
    // Beyond the pinned order, the per-operator estimates behind it must be
    // in the right ballpark: staged scans within the scan gate's p95 bound,
    // join steps within a loose factor (joins compound estimation error).
    let catalog = catalog();
    for (name, sql) in [
        ("Q3", hique_tpch::queries::Q3_SQL),
        ("Q10", hique_tpch::queries::Q10_SQL),
    ] {
        let plan = plan_sql(sql, catalog, &PlannerConfig::default()).unwrap();
        let actuals = measure_actuals(&plan, catalog).unwrap();
        let rendered = explain_with_actuals(&plan, &actuals);
        println!("{name} @ SF {SF}:\n{rendered}");
        assert!(rendered.contains("actual"), "{name}: actuals not rendered");
        let mut report = QualityReport::default();
        report.record(sql, &plan, catalog).unwrap();
        for sample in &report.samples {
            let bound = if sample.operator.starts_with("stage") {
                10.0
            } else if name == "Q3" {
                // The correlated-date-pair clamp (o_orderdate vs l_shipdate)
                // brings the final join estimate from q ≈ 10.6 down to
                // q ≈ 5.4 at SF 0.1; the tightened bound locks the fix.
                8.0
            } else {
                32.0
            };
            assert!(
                sample.q_error() <= bound,
                "{name} {}: est {} vs actual {} (q {:.1})",
                sample.operator,
                sample.estimated,
                sample.actual,
                sample.q_error()
            );
        }
    }
}

#[test]
fn estimates_are_identical_across_thread_counts() {
    let catalog = catalog();
    for sql in [
        hique_tpch::queries::Q3_SQL,
        hique_tpch::queries::Q10_SQL,
        "select count(*) as n from lineitem where lineitem.l_shipdate < date '1995-06-17'",
    ] {
        let base = plan_sql(sql, catalog, &PlannerConfig::default()).unwrap();
        for threads in [2, 4] {
            let config = PlannerConfig {
                threads,
                ..PlannerConfig::default()
            };
            let plan = plan_sql(sql, catalog, &config).unwrap();
            assert_eq!(plan.join_order, base.join_order, "{sql}");
            assert_eq!(
                plan.staged
                    .iter()
                    .map(|s| s.estimated_rows)
                    .collect::<Vec<_>>(),
                base.staged
                    .iter()
                    .map(|s| s.estimated_rows)
                    .collect::<Vec<_>>(),
                "{sql}"
            );
            assert_eq!(
                plan.joins
                    .iter()
                    .map(|j| j.estimated_rows)
                    .collect::<Vec<_>>(),
                base.joins
                    .iter()
                    .map(|j| j.estimated_rows)
                    .collect::<Vec<_>>(),
                "{sql}"
            );
        }
    }
}
