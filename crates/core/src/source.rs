//! Emission of the query-specific source artifact.
//!
//! The paper's generator writes a C file per query (Listing 1 / Listing 2
//! templates instantiated with the query's offsets, types and constants),
//! compiles it with `gcc` and `dlopen`s the result.  This module emits the
//! equivalent C-style source text so that (a) users can inspect exactly what
//! code the holistic model generates for their query, and (b) the
//! preparation-cost experiment (Table III: source size, generation time) can
//! be reproduced.  Execution in this reproduction happens through the
//! specialized kernels of [`crate::kernel`]; the emitted text is the
//! faithful, human-readable record of what those kernels do.

use std::fmt::Write as _;

use hique_plan::{JoinAlgorithm, PhysicalPlan, StagingStrategy};
use hique_sql::ast::AggFunc;

/// The generated source file: an ordered list of named functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedSource {
    functions: Vec<(String, String)>,
}

impl GeneratedSource {
    /// Function (name, body) pairs in emission order.
    pub fn functions(&self) -> &[(String, String)] {
        &self.functions
    }

    /// The full source file text.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        out.push_str("/* Query-specific code generated by HIQUE-rs.\n");
        out.push_str(" * Holistic evaluation: staging + operator templates instantiated\n");
        out.push_str(" * for this query's schemas, offsets, predicates and algorithms. */\n");
        out.push_str("#include \"hique_runtime.h\"\n\n");
        for (_, body) in &self.functions {
            out.push_str(body);
            out.push('\n');
        }
        out
    }

    /// Size of the full source text in bytes (Table III's "Source" column).
    pub fn size_bytes(&self) -> usize {
        self.full_text().len()
    }
}

/// Emit the source artifact for a physical plan.
pub fn emit_source(plan: &PhysicalPlan) -> GeneratedSource {
    let mut functions = Vec::new();
    for (i, &t) in plan.join_order.iter().enumerate() {
        let st = &plan.staged[t];
        functions.push((
            format!("stage_{}", st.table_name),
            emit_staging_function(plan, i, t),
        ));
    }
    if let Some(team) = &plan.join_team {
        functions.push(("join_team".to_string(), emit_team_function(plan, team)));
    }
    for (i, step) in plan.joins.iter().enumerate() {
        functions.push((format!("join_{i}"), emit_join_function(plan, i, step)));
    }
    if plan.aggregate.is_some() {
        functions.push(("aggregate".to_string(), emit_agg_function(plan)));
    }
    if !plan.order_by.is_empty() {
        functions.push(("order_output".to_string(), emit_order_function(plan)));
    }
    functions.push(("evaluate_query".to_string(), emit_main_function(plan)));
    GeneratedSource { functions }
}

fn emit_staging_function(plan: &PhysicalPlan, order_pos: usize, t: usize) -> String {
    let st = &plan.staged[t];
    let base = &plan.query.tables[t].schema;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* Data staging for input {} ('{}'): scan, filter, project{} */",
        order_pos,
        st.table_name,
        match &st.strategy {
            StagingStrategy::None => "".to_string(),
            StagingStrategy::Sort { key_columns } => format!(", sort on columns {key_columns:?}"),
            StagingStrategy::PartitionFine {
                key_column,
                partitions,
            } => format!(", fine-partition on column {key_column} into {partitions} partitions"),
            StagingStrategy::PartitionThenSort {
                key_column,
                partitions,
            } => format!(
                ", hash-partition on column {key_column} into {partitions} partitions and sort each"
            ),
        }
    );
    let _ = writeln!(s, "static temp_table_t *stage_{}(void) {{", st.table_name);
    let _ = writeln!(
        s,
        "    temp_table_t *out = temp_table_new({} /* tuple size */);",
        st.schema.tuple_size()
    );
    let _ = writeln!(s, "    for (int p = start_page; p <= end_page; p++) {{");
    let _ = writeln!(
        s,
        "        page_str *page = read_page(p, {});",
        st.table_name
    );
    let _ = writeln!(s, "        for (int t = 0; t < page->num_tuples; t++) {{");
    let _ = writeln!(
        s,
        "            void *tuple = page->data + t * {};",
        base.tuple_size()
    );
    for f in &st.filters {
        let col = base.column(f.column);
        let _ = writeln!(
            s,
            "            {} *v_{} = tuple + {}; /* {} */",
            col.dtype.c_name(),
            f.column,
            base.offset(f.column),
            col.name
        );
        let _ = writeln!(
            s,
            "            if (!(*v_{} {} {})) continue;",
            f.column,
            f.op.symbol(),
            c_constant(&f.value)
        );
    }
    for (k, &c) in st.keep.iter().enumerate() {
        let col = base.column(c);
        let _ = writeln!(
            s,
            "            memcpy(out_tuple + {}, tuple + {}, {}); /* {} */",
            st.schema.offset(k),
            base.offset(c),
            col.dtype.width(),
            col.name
        );
    }
    match &st.strategy {
        StagingStrategy::PartitionFine { key_column, .. } => {
            let _ = writeln!(
                s,
                "            part = directory_lookup(dir, *(key at offset {}));",
                st.schema.offset(*key_column)
            );
            let _ = writeln!(
                s,
                "            temp_table_append(out->partition[part], out_tuple);"
            );
        }
        StagingStrategy::PartitionThenSort {
            key_column,
            partitions,
        } => {
            let _ = writeln!(
                s,
                "            part = hash(*(key at offset {})) % {};",
                st.schema.offset(*key_column),
                partitions
            );
            let _ = writeln!(
                s,
                "            temp_table_append(out->partition[part], out_tuple);"
            );
        }
        _ => {
            let _ = writeln!(s, "            temp_table_append(out, out_tuple);");
        }
    }
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    match &st.strategy {
        StagingStrategy::Sort { key_columns } => {
            let _ = writeln!(s, "    quicksort_merge(out, /* keys */ {key_columns:?});");
        }
        StagingStrategy::PartitionThenSort { key_column, .. } => {
            let _ = writeln!(
                s,
                "    for (int k = 0; k < out->num_partitions; k++) quicksort(out->partition[k], {key_column});"
            );
        }
        _ => {}
    }
    let _ = writeln!(s, "    return out;");
    let _ = writeln!(s, "}}");
    s
}

fn emit_join_function(plan: &PhysicalPlan, i: usize, step: &hique_plan::JoinStep) -> String {
    let right = &plan.staged[step.right];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* Join step {i}: {} with staged '{}' (left key offset {}, right key offset {}) */",
        step.algorithm.name(),
        right.table_name,
        plan.joined_schema.offset(step.left_key),
        right.schema.offset(step.right_key)
    );
    let _ = writeln!(
        s,
        "static temp_table_t *join_{i}(temp_table_t *left, temp_table_t *right) {{"
    );
    let _ = writeln!(
        s,
        "    temp_table_t *out = temp_table_new(left->tuple_size + right->tuple_size);"
    );
    match step.algorithm {
        JoinAlgorithm::Merge => {
            let _ = writeln!(s, "    /* merge join: inputs sorted; M = 1 */");
        }
        JoinAlgorithm::Partition => {
            let _ = writeln!(
                s,
                "    /* fine partition join: corresponding partitions cross-join */"
            );
        }
        JoinAlgorithm::HybridHashSortMerge => {
            let _ = writeln!(
                s,
                "    /* hybrid hash-sort-merge: sort partition pairs, then merge */"
            );
            let _ = writeln!(s, "    for (int k = 0; k < M; k++) {{ quicksort(left->partition[k]); quicksort(right->partition[k]); }}");
        }
    }
    let _ = writeln!(s, "    for (int k = 0; k < M; k++) {{");
    let _ = writeln!(
        s,
        "        for (p_1 = start_page_1; p_1 <= end_page_1; p_1++) {{"
    );
    let _ = writeln!(
        s,
        "            for (p_2 = start_page_2; p_2 <= end_page_2; p_2++) {{"
    );
    let _ = writeln!(
        s,
        "                for (t_1 = 0; t_1 < page_1->num_tuples; t_1++) {{"
    );
    let _ = writeln!(
        s,
        "                    for (t_2 = 0; t_2 < page_2->num_tuples; t_2++) {{"
    );
    let _ = writeln!(
        s,
        "                        int *v_1 = tuple_1 + {}; int *v_2 = tuple_2 + {};",
        plan.joined_schema.offset(step.left_key),
        right.schema.offset(step.right_key)
    );
    let _ = writeln!(
        s,
        "                        if (*v_1 != *v_2) {{ update_bounds(); continue; }}"
    );
    let _ = writeln!(
        s,
        "                        add_to_result(out, tuple_1, tuple_2); /* inlined */"
    );
    let _ = writeln!(s, "    }}}}}}}}}}");
    let _ = writeln!(s, "    return out;");
    let _ = writeln!(s, "}}");
    s
}

fn emit_team_function(plan: &PhysicalPlan, team: &hique_plan::JoinTeam) -> String {
    let mut s = String::new();
    let names: Vec<&str> = team
        .members
        .iter()
        .map(|&m| plan.staged[m].table_name.as_str())
        .collect();
    let _ = writeln!(
        s,
        "/* Join team over a common key: {} ({}) — one set of deeply nested loops,\n * no intermediate materialization */",
        names.join(", "),
        team.algorithm.name()
    );
    let _ = writeln!(
        s,
        "static void join_team(temp_table_t *inputs[], int n, result_sink_t *sink) {{"
    );
    let _ = writeln!(s, "    for (int k = 0; k < M; k++) {{");
    for i in 0..team.members.len() {
        let indent = "    ".repeat(i + 2);
        let _ = writeln!(
            s,
            "{indent}for (p_{i} = start_page_{i}; p_{i} <= end_page_{i}; p_{i}++)"
        );
    }
    for (i, &m) in team.members.iter().enumerate() {
        let indent = "    ".repeat(team.members.len() + i + 2);
        let _ = writeln!(
            s,
            "{indent}for (t_{i} = 0; t_{i} < page_{i}->num_tuples; t_{i}++) /* key offset {} of {} */",
            plan.staged[m].schema.offset(team.key_columns[i]),
            plan.staged[m].table_name
        );
    }
    let indent = "    ".repeat(2 * team.members.len() + 2);
    let _ = writeln!(
        s,
        "{indent}if (keys_all_equal()) sink_emit(sink, tuples...); else update_bounds();"
    );
    let _ = writeln!(s, "}}");
    s
}

fn emit_agg_function(plan: &PhysicalPlan) -> String {
    let spec = plan.aggregate.as_ref().expect("aggregate present");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* Aggregation: {} over {} grouping column(s), {} aggregate(s) */",
        spec.algorithm.name(),
        spec.group_columns.len(),
        spec.aggregates.len()
    );
    let _ = writeln!(s, "static temp_table_t *aggregate(temp_table_t *in) {{");
    for (i, &g) in spec.group_columns.iter().enumerate() {
        let col = plan.joined_schema.column(g);
        let _ = writeln!(
            s,
            "    /* group attribute {i}: {} at offset {} ({}) */",
            col.name,
            plan.joined_schema.offset(g),
            col.dtype
        );
    }
    match spec.algorithm {
        hique_plan::AggAlgorithm::Map => {
            let _ = writeln!(
                s,
                "    /* value directories grown on first occurrence; offset = sum(M_i[v_i] * prod |M_j|) */"
            );
        }
        hique_plan::AggAlgorithm::Sort => {
            let _ = writeln!(
                s,
                "    /* input sorted on grouping attributes; linear scan */"
            );
        }
        hique_plan::AggAlgorithm::HybridHashSort => {
            let _ = writeln!(
                s,
                "    /* hash-partition on first grouping attribute, sort partitions, scan */"
            );
        }
    }
    let _ = writeln!(s, "    for (int t = 0; t < in->num_tuples; t++) {{");
    let _ = writeln!(s, "        int g = group_offset(tuple);");
    for (i, a) in spec.aggregates.iter().enumerate() {
        let expr = a
            .arg
            .as_ref()
            .map(|e| render_scalar(e, plan))
            .unwrap_or_else(|| "1".to_string());
        let update = match a.func {
            AggFunc::Sum => format!("agg_{i}[g] += {expr};"),
            AggFunc::Count => format!("agg_{i}[g] += 1;"),
            AggFunc::Avg => format!("agg_{i}_sum[g] += {expr}; agg_{i}_cnt[g] += 1;"),
            AggFunc::Min => format!("if ({expr} < agg_{i}[g]) agg_{i}[g] = {expr};"),
            AggFunc::Max => format!("if ({expr} > agg_{i}[g]) agg_{i}[g] = {expr};"),
        };
        let _ = writeln!(s, "        {update}");
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "    return groups_to_table();");
    let _ = writeln!(s, "}}");
    s
}

fn emit_order_function(plan: &PhysicalPlan) -> String {
    let keys: Vec<String> = plan
        .order_by
        .iter()
        .map(|(i, asc)| {
            format!(
                "{} {}",
                plan.output_schema.column(*i).name,
                if *asc { "ASC" } else { "DESC" }
            )
        })
        .collect();
    let mut s = String::new();
    let _ = writeln!(s, "/* Final ordering: {} */", keys.join(", "));
    let _ = writeln!(s, "static void order_output(temp_table_t *out) {{");
    let _ = writeln!(s, "    quicksort_merge(out, /* output keys */);");
    if let Some(l) = plan.limit {
        let _ = writeln!(s, "    truncate(out, {l});");
    }
    let _ = writeln!(s, "}}");
    s
}

fn emit_main_function(plan: &PhysicalPlan) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* Composing function: calls the generated operators in order,"
    );
    let _ = writeln!(
        s,
        " * manages temporary tables and sends the output to the client. */"
    );
    let _ = writeln!(s, "void evaluate_query(client_t *client) {{");
    if plan.threads > 1 {
        let _ = writeln!(
            s,
            "    /* partition-parallel execution: {} worker threads; staging scans,\n\
             \x20    * join partition pairs and aggregation partitions are divided across\n\
             \x20    * the pool with deterministic chunking and merge order. */",
            plan.threads
        );
        let _ = writeln!(
            s,
            "    worker_pool_t *pool = pool_create({});",
            plan.threads
        );
    }
    for &t in &plan.join_order {
        let name = &plan.staged[t].table_name;
        if plan.threads > 1 {
            let _ = writeln!(
                s,
                "    temp_table_t *staged_{name} = pool_run(pool, stage_{name});"
            );
        } else {
            let _ = writeln!(s, "    temp_table_t *staged_{name} = stage_{name}();");
        }
    }
    if let Some(team) = &plan.join_team {
        let names: Vec<String> = team
            .members
            .iter()
            .map(|&m| format!("staged_{}", plan.staged[m].table_name))
            .collect();
        let _ = writeln!(
            s,
            "    temp_table_t *joined = join_team(({}), {});",
            names.join(", "),
            names.len()
        );
    }
    for (i, step) in plan.joins.iter().enumerate() {
        let right = &plan.staged[step.right].table_name;
        let left = if i == 0 {
            format!("staged_{}", plan.staged[plan.join_order[0]].table_name)
        } else {
            format!("joined_{}", i - 1)
        };
        let _ = writeln!(
            s,
            "    temp_table_t *joined_{i} = join_{i}({left}, staged_{right});"
        );
    }
    let last = if plan.join_team.is_some() {
        "joined".to_string()
    } else if plan.joins.is_empty() {
        format!("staged_{}", plan.staged[plan.join_order[0]].table_name)
    } else {
        format!("joined_{}", plan.joins.len() - 1)
    };
    if plan.aggregate.is_some() {
        let _ = writeln!(s, "    temp_table_t *result = aggregate({last});");
    } else {
        let _ = writeln!(s, "    temp_table_t *result = project({last});");
    }
    if !plan.order_by.is_empty() {
        let _ = writeln!(s, "    order_output(result);");
    }
    let _ = writeln!(s, "    send_to_client(client, result);");
    let _ = writeln!(s, "    release_temp_tables();");
    let _ = writeln!(s, "}}");
    s
}

fn render_scalar(e: &hique_sql::analyze::ScalarExpr, plan: &PhysicalPlan) -> String {
    use hique_sql::analyze::ScalarExpr;
    match e {
        ScalarExpr::Column { index, .. } => format!(
            "*({} *)(tuple + {})",
            plan.joined_schema.column(*index).dtype.c_name(),
            plan.joined_schema.offset(*index)
        ),
        ScalarExpr::Literal(v) => c_constant(v),
        ScalarExpr::Binary {
            op, left, right, ..
        } => format!(
            "({} {} {})",
            render_scalar(left, plan),
            op,
            render_scalar(right, plan)
        ),
    }
}

fn c_constant(v: &hique_types::Value) -> String {
    match v {
        hique_types::Value::Str(s) => format!("\"{s}\""),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_storage::Catalog;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
                Column::new("tag", DataType::Char(4)),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..100 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 10),
                    Value::Float64(i as f64),
                    Value::Str("abcd".into()),
                ]))
                .unwrap();
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i % 10), Value::Float64(1.0)]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        cat
    }

    fn plan_for(sql: &str) -> PhysicalPlan {
        let cat = catalog();
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        plan_query(&bound, &cat, &PlannerConfig::default()).unwrap()
    }

    #[test]
    fn source_contains_staging_join_agg_and_main() {
        let plan = plan_for(
            "select r.tag, sum(r.v * (1 - s.w)) as x, count(*) as n from r, s \
             where r.k = s.k and r.v > 10 group by r.tag order by r.tag",
        );
        let src = emit_source(&plan);
        let text = src.full_text();
        assert!(text.contains("stage_r"));
        assert!(text.contains("stage_s"));
        assert!(text.contains("join_0"));
        assert!(text.contains("aggregate"));
        assert!(text.contains("order_output"));
        assert!(text.contains("evaluate_query"));
        assert!(text.contains("if (!(*v_1 > 10"));
        assert!(src.size_bytes() > 1000);
        assert!(src.functions().len() >= 6);
    }

    #[test]
    fn parallel_plans_mention_the_worker_pool() {
        let cat = catalog();
        let q = hique_sql::parse_query("select r.v from r where r.k = 1").unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let serial =
            emit_source(&plan_query(&bound, &cat, &PlannerConfig::default()).unwrap()).full_text();
        let parallel = emit_source(
            &plan_query(&bound, &cat, &PlannerConfig::default().with_threads(4)).unwrap(),
        )
        .full_text();
        assert!(!serial.contains("pool_create"));
        assert!(parallel.contains("pool_create(4)"));
        assert!(parallel.contains("partition-parallel execution: 4 worker threads"));
        assert!(parallel.contains("pool_run(pool, stage_r)"));
    }

    #[test]
    fn more_complex_queries_generate_larger_sources() {
        let simple = emit_source(&plan_for("select count(*) as n from r"));
        let complex = emit_source(&plan_for(
            "select r.tag, sum(r.v) as a, avg(s.w) as b, count(*) as n from r, s \
             where r.k = s.k and r.v > 5 and s.w < 100 group by r.tag order by a desc limit 3",
        ));
        assert!(complex.size_bytes() > simple.size_bytes());
    }
}
