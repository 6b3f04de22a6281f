//! Differential tests for the bytecode engine: every program the compiler
//! emits — specialized or pooled, fresh or rebound from a classmate's
//! template — must compute exactly what the generic iterator baseline
//! computes for the same physical plan.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_holistic::{generate, GeneratedQuery};
use hique_iter::ExecMode;
use hique_plan::{plan_sql, PlannerConfig};
use hique_storage::Catalog;
use hique_types::{Column, DataType, HiqueError, Row, Schema, Value};
use hique_vm::{compile, CompileMode, VmProgram};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        "r",
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("tag", DataType::Char(4)),
            Column::new("v", DataType::Float64),
        ]),
    )
    .unwrap();
    cat.create_table(
        "s",
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("w", DataType::Int64),
        ]),
    )
    .unwrap();
    let tags = ["AAA", "BBB", "CCC", "DDD"];
    for i in 0..400 {
        cat.table_mut("r")
            .unwrap()
            .heap
            .append_row(&Row::new(vec![
                Value::Int32(i % 40),
                Value::Str(tags[(i as usize) % tags.len()].to_string()),
                Value::Float64(i as f64 * 0.5),
            ]))
            .unwrap();
    }
    for i in 0..40 {
        cat.table_mut("s")
            .unwrap()
            .heap
            .append_row(&Row::new(vec![
                Value::Int32(i),
                Value::Int64(i as i64 * 100),
            ]))
            .unwrap();
    }
    cat.analyze_table("r").unwrap();
    cat.analyze_table("s").unwrap();
    cat
}

/// A program's code, constant pool and fragment tables: its `Debug` form
/// up to the measured compile and verify costs, its last fields.
fn program_parts(p: &VmProgram) -> String {
    let text = format!("{p:?}");
    let end = text
        .find(", compile_cost")
        .expect("a program records its costs");
    text[..end].to_string()
}

fn prepare(sql: &str, cat: &Catalog) -> GeneratedQuery {
    generate(&plan_sql(sql, cat, &PlannerConfig::default()).unwrap()).unwrap()
}

fn run_vm(generated: &GeneratedQuery, cat: &Catalog, mode: CompileMode) -> Vec<Row> {
    let program = compile(generated, cat, mode).unwrap();
    program
        .execute(generated, cat, &Default::default())
        .unwrap()
        .rows
}

/// Both compile modes must agree with the iterator baseline row-for-row
/// (the shared plan fixes the output order, so no canonicalization).
fn assert_vm_matches_baseline(sql: &str, cat: &Catalog) {
    let generated = prepare(sql, cat);
    let baseline = hique_iter::execute_plan(
        generated.plan(),
        cat,
        ExecMode::Generic,
        &Default::default(),
    )
    .unwrap()
    .rows;
    assert!(!baseline.is_empty(), "vacuous differential: {sql}");
    assert_eq!(
        run_vm(&generated, cat, CompileMode::Specialized),
        baseline,
        "{sql}"
    );
    assert_eq!(
        run_vm(&generated, cat, CompileMode::Pooled),
        baseline,
        "{sql}"
    );
}

#[test]
fn filters_projections_and_string_predicates_match_baseline() {
    let cat = catalog();
    for sql in [
        "select k, v from r where v < 120.5 order by v",
        "select k from r where k >= 35 order by k",
        "select k, tag from r where tag = 'BBB' and k < 20 order by k",
        "select v from r where tag <> 'AAA' and v >= 10 and v < 30 order by v",
    ] {
        assert_vm_matches_baseline(sql, &cat);
    }
}

#[test]
fn joins_and_aggregates_match_baseline() {
    let cat = catalog();
    for sql in [
        "select r.k, s.w from r, s where r.k = s.k and r.v < 50 order by r.k, s.w",
        "select k, count(*) as n, sum(v) as sv from r group by k order by k",
        "select r.tag, count(*) as n, min(s.w) as lo, max(s.w) as hi \
         from r, s where r.k = s.k group by r.tag order by r.tag",
        "select k, sum(v * 2.5 + 1) as adj from r where k < 10 group by k order by k",
        "select avg(v) as m from r where tag = 'CCC'",
    ] {
        assert_vm_matches_baseline(sql, &cat);
    }
}

#[test]
fn specialization_folds_numeric_constants_but_pooling_keeps_them() {
    let cat = catalog();
    let generated = prepare("select k from r where k < 25 and v >= 3.5 order by k", &cat);
    let specialized = compile(&generated, &cat, CompileMode::Specialized).unwrap();
    let pooled = compile(&generated, &cat, CompileMode::Pooled).unwrap();
    assert!(
        !specialized.has_pool_refs(),
        "numeric predicate constants must fold to immediates"
    );
    assert!(
        pooled.has_pool_refs(),
        "pooled program must stay rebindable"
    );
    // The pooled program with its own constants folded is the specialized
    // one: same code, pool and fragment tables.
    let folded = pooled.bind(&generated, &cat).unwrap();
    assert_eq!(program_parts(&folded), program_parts(&specialized));
}

#[test]
fn rebound_template_matches_a_fresh_compile() {
    let cat = catalog();
    let template_query = prepare(
        "select k, count(*) as n from r where v < 50 and tag = 'AAA' group by k order by k",
        &cat,
    );
    let template = compile(&template_query, &cat, CompileMode::Pooled).unwrap();

    // A literal-varying classmate: same structure, different constants.
    let classmate = prepare(
        "select k, count(*) as n from r where v < 125 and tag = 'DDD' group by k order by k",
        &cat,
    );
    let rebound = template.bind(&classmate, &cat).unwrap();
    let fresh = compile(&classmate, &cat, CompileMode::Specialized).unwrap();
    assert_eq!(program_parts(&rebound), program_parts(&fresh));
    let opts = Default::default();
    assert_eq!(
        rebound.execute(&classmate, &cat, &opts).unwrap().rows,
        fresh.execute(&classmate, &cat, &opts).unwrap().rows
    );
}

#[test]
fn binding_a_structurally_different_query_is_a_typed_error() {
    let cat = catalog();
    let template = compile(
        &prepare("select k from r where v < 50 order by k", &cat),
        &cat,
        CompileMode::Pooled,
    )
    .unwrap();
    // Another projection → the template does not decode to the query's
    // kernels → refuse to rebind, naming the first component that diverged
    // and both sides of it.
    let other = prepare("select v from r where v < 5 order by v", &cat);
    match template.bind(&other, &cat) {
        Err(HiqueError::Unsupported(msg)) => {
            assert!(
                msg.contains("component scan[0].projection"),
                "divergence error must name the first mismatched component, got: {msg}"
            );
            assert!(
                msg.contains("expected") && msg.contains("found"),
                "divergence error must show both sides, got: {msg}"
            );
        }
        Err(e) => panic!("expected a typed divergence, got {e}"),
        Ok(_) => panic!("bind must refuse a structurally different query"),
    }
    // A filter on an integer column → the query's constants do not fill the
    // template's float slot: refused at the filter that names it.
    let other = prepare("select k from r where k < 5 order by k", &cat);
    match template.bind(&other, &cat) {
        Err(HiqueError::Unsupported(msg)) => {
            assert!(msg.contains("component scan[0].filter"), "got: {msg}")
        }
        Err(e) => panic!("expected a typed divergence, got {e}"),
        Ok(_) => panic!("bind must refuse a structurally different query"),
    }
}

#[test]
fn executing_against_a_mismatched_plan_is_a_typed_error() {
    let cat = catalog();
    let generated = prepare("select k from r where v < 50 order by k", &cat);
    let program: VmProgram = compile(&generated, &cat, CompileMode::Specialized).unwrap();
    let other = prepare("select v from r where k < 5 order by v", &cat);
    match program.execute(&other, &cat, &Default::default()) {
        Err(HiqueError::Unsupported(msg)) => {
            assert!(msg.contains("component scan[0]"), "got: {msg}")
        }
        Err(e) => panic!("expected a typed divergence, got {e}"),
        Ok(_) => panic!("executing a mismatched plan must fail"),
    }
}

#[test]
fn shared_dag_nodes_rebind_as_one_definition_or_refuse() {
    let cat = catalog();
    let sql = |a: &str, b: &str| {
        format!(
            "select k, sum(v * {a}) as x, avg(v * {b} + 1) as y, sum(v) as z \
             from r group by k order by k"
        )
    };
    // `2.5` and `v * 2.5` are one node each, read by both aggregates.
    let template_query = prepare(&sql("2.5", "2.5"), &cat);
    let template = compile(&template_query, &cat, CompileMode::Pooled).unwrap();
    let unshared = compile(
        &prepare(&sql("2.5", "4.0"), &cat),
        &cat,
        CompileMode::Pooled,
    )
    .unwrap();
    assert!(template.code_len() < unshared.code_len());

    // A classmate whose literals are equal where the template's were
    // rebinds: the one folded constant reaches both aggregates.
    let classmate = prepare(&sql("4.0", "4.0"), &cat);
    let rebound = template.bind(&classmate, &cat).unwrap();
    assert!(!rebound.has_pool_refs());
    let opts = Default::default();
    let baseline = hique_iter::execute_plan(classmate.plan(), &cat, ExecMode::Generic, &opts)
        .unwrap()
        .rows;
    assert_eq!(
        rebound.execute(&classmate, &cat, &opts).unwrap().rows,
        baseline
    );
    assert_eq!(run_vm(&classmate, &cat, CompileMode::Specialized), baseline);

    // A classmate whose literals differ there has another DAG: a constant
    // folded for one aggregate must not reach the sibling, so the bind is
    // refused (typed) and the caller compiles afresh.
    let diverged = prepare(&sql("2.5", "4.0"), &cat);
    match template.bind(&diverged, &cat) {
        Err(HiqueError::Unsupported(msg)) => {
            assert!(msg.contains("component agg.node["), "got: {msg}")
        }
        Err(e) => panic!("expected a typed divergence, got {e}"),
        Ok(_) => panic!("bind must refuse a differently shared DAG"),
    }
    assert_vm_matches_baseline(&sql("2.5", "4.0"), &cat);
}
