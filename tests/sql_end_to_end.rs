//! End-to-end SQL behaviour through the full pipeline
//! (parse → analyze → optimize → generate → execute).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique::plan::{plan_query, CatalogProvider, PlannerConfig};
use hique::storage::Catalog;
use hique::types::{Column, DataType, HiqueError, QueryResult, Result, Row, Schema, Value};

fn catalog() -> Result<Catalog> {
    let mut catalog = Catalog::new();
    catalog.create_table(
        "emp",
        Schema::new(vec![
            Column::new("id", DataType::Int32),
            Column::new("dept", DataType::Int32),
            Column::new("name", DataType::Char(12)),
            Column::new("salary", DataType::Float64),
            Column::new("hired", DataType::Date),
        ]),
    )?;
    catalog.create_table(
        "dept",
        Schema::new(vec![
            Column::new("id", DataType::Int32),
            Column::new("dname", DataType::Char(12)),
        ]),
    )?;
    let names = ["ada", "grace", "edsger", "donald", "barbara"];
    for i in 0..100i32 {
        catalog.table_mut("emp")?.heap.append_row(&Row::new(vec![
            Value::Int32(i),
            Value::Int32(i % 5),
            Value::Str(format!("{}{}", names[(i % 5) as usize], i)),
            Value::Float64(1000.0 + (i * 13 % 500) as f64),
            Value::Date(10_000 + i),
        ]))?;
    }
    for d in 0..5i32 {
        catalog.table_mut("dept")?.heap.append_row(&Row::new(vec![
            Value::Int32(d),
            Value::Str(format!("dept{d}")),
        ]))?;
    }
    catalog.analyze_table("emp")?;
    catalog.analyze_table("dept")?;
    Ok(catalog)
}

fn run(sql: &str, catalog: &Catalog) -> Result<QueryResult> {
    let parsed = hique::sql::parse_query(sql)?;
    let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(catalog))?;
    let plan = plan_query(&bound, catalog, &PlannerConfig::default())?;
    hique::holistic::execute_plan(&plan, catalog)
}

#[test]
fn select_star_and_limit() {
    let catalog = catalog().unwrap();
    let res = run("select * from dept order by id limit 3", &catalog).unwrap();
    assert_eq!(res.num_rows(), 3);
    assert_eq!(res.schema.len(), 2);
    assert_eq!(res.rows[0].get(1), &Value::Str("dept0".into()));
}

#[test]
fn filters_on_every_type() {
    let catalog = catalog().unwrap();
    let res = run(
        "select id from emp where salary >= 1000 and name <> 'ada0' and hired < '1997-06-01' and dept = 2 order by id",
        &catalog,
    )
    .unwrap();
    assert!(res.num_rows() > 0);
    assert!(res.rows.iter().all(|r| r.get(0).as_i64().unwrap() % 5 == 2));
}

#[test]
fn join_group_order_limit_pipeline() {
    let catalog = catalog().unwrap();
    let res = run(
        "select d.dname, count(*) as n, avg(e.salary) as pay from emp e, dept d \
         where e.dept = d.id group by d.dname order by d.dname",
        &catalog,
    )
    .unwrap();
    assert_eq!(res.num_rows(), 5);
    assert!(res.rows.iter().all(|r| r.get(1) == &Value::Int64(20)));
    let text = res.to_text();
    assert!(text.starts_with("d.dname|n|pay"));
}

#[test]
fn arithmetic_in_select_and_aggregates() {
    let catalog = catalog().unwrap();
    let res = run(
        "select dept, sum(salary * (1 + 0.10)) as with_bonus, max(salary) - 0 as mx \
         from emp group by dept order by dept",
        &catalog,
    );
    // max(salary) - 0 is an expression over an aggregate, which the dialect
    // rejects; the plain aggregate version must work.
    assert!(res.is_err());
    let res = run(
        "select dept, sum(salary * (1 + 0.10)) as with_bonus from emp group by dept order by dept",
        &catalog,
    )
    .unwrap();
    assert_eq!(res.num_rows(), 5);
}

#[test]
fn useful_error_messages() {
    let catalog = catalog().unwrap();
    // Unknown table.
    let err = run("select x from missing", &catalog).unwrap_err();
    assert!(matches!(err, HiqueError::Analysis(_)));
    // Unknown column.
    let err = run("select nothere from emp", &catalog).unwrap_err();
    assert!(matches!(err, HiqueError::Analysis(_)));
    // Syntax error.
    let err = run("selec id from emp", &catalog).unwrap_err();
    assert!(matches!(err, HiqueError::Parse(_)));
    // Unsupported: non-equi join.
    let err = run(
        "select e.id from emp e, dept d where e.dept < d.id",
        &catalog,
    )
    .unwrap_err();
    assert!(matches!(err, HiqueError::Unsupported(_)));
    // Cross product without a join predicate.
    let err = run("select e.id from emp e, dept d", &catalog).unwrap_err();
    assert!(matches!(err, HiqueError::Plan(_)));
}

#[test]
fn date_arithmetic_in_predicates() {
    let catalog = catalog().unwrap();
    let all = run("select count(*) as n from emp", &catalog).unwrap();
    assert_eq!(all.rows[0].get(0), &Value::Int64(100));
    // Hire dates span 1997-05-19 .. 1997-08-26; the bound below lands inside
    // that range after subtracting the interval.
    let bounded = run(
        "select count(*) as n from emp where hired <= date '1997-08-01' - interval '30' day",
        &catalog,
    )
    .unwrap();
    let n = bounded.rows[0].get(0).as_i64().unwrap();
    assert!(n > 0 && n < 100);
}

#[test]
fn impossible_filters_estimate_zero_and_return_empty() {
    // The catalog is analyzed, so the planner's histogram/MCV statistics
    // know the observed domains: a constant outside them estimates zero
    // staged rows, and execution agrees with an empty result.
    let catalog = catalog().unwrap();
    for sql in [
        "select id from emp where dept = 99 order by id",
        "select id from emp where id > 50 and id < 10 order by id",
        "select name from emp where name = 'nobody' order by name",
    ] {
        let parsed = hique::sql::parse_query(sql).unwrap();
        let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(&catalog)).unwrap();
        let plan = plan_query(&bound, &catalog, &PlannerConfig::default()).unwrap();
        assert_eq!(
            plan.staged[0].estimated_rows, 0,
            "{sql}: analyzed stats must recognize an impossible filter"
        );
        let res = hique::holistic::execute_plan(&plan, &catalog).unwrap();
        assert_eq!(res.num_rows(), 0, "{sql}");
    }

    // A possible equality keeps its exact MCV-backed estimate.
    let parsed = hique::sql::parse_query("select id from emp where dept = 3 order by id").unwrap();
    let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(&catalog)).unwrap();
    let plan = plan_query(&bound, &catalog, &PlannerConfig::default()).unwrap();
    assert_eq!(plan.staged[0].estimated_rows, 20);
    let res = hique::holistic::execute_plan(&plan, &catalog).unwrap();
    assert_eq!(res.num_rows(), 20);
}

#[test]
fn self_join_via_aliases_runs_end_to_end() {
    // dept joined with itself through two aliases: every row matches
    // exactly itself on the key, so the join is the identity.
    let catalog = catalog().unwrap();
    let res = run(
        "select a.id, b.dname from dept a, dept b where a.id = b.id order by a.id, b.dname",
        &catalog,
    )
    .unwrap();
    assert_eq!(res.num_rows(), 5);
    assert_eq!(res.rows[0].values()[1], Value::Str("dept0".into()));
    assert_eq!(res.rows[4].values()[0], Value::Int32(4));
}
