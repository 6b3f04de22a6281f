//! The bytecode front end's execution: a compiled [`VmProgram`] resolved
//! into the kernel set the evaluate-query driver
//! ([`hique_holistic::exec::run`]) runs.
//!
//! The driver is the one the holistic engine runs — stage every input
//! with the plan's strategy, the plan's join algorithms (a join team in
//! one call), the plan's aggregation algorithm, output — and owns
//! everything around the kernels: options, run envelope, slot spilling,
//! sinks, timings, finalization.  What is the VM's own is where the kernels
//! come from: once per execution the verified fragments and the constant
//! pool decode into the objects the generator builds from the plan, each
//! held to the generator's as it is read (`vector::resolve`, the
//! verifier's decode), so `engine=vm` returns the holistic engine's rows
//! and counts its work, bit for bit.

use hique_holistic::exec;
use hique_holistic::GeneratedQuery;
use hique_storage::Catalog;
use hique_types::{ExecOptions, QueryResult, Result};

use crate::program::VmProgram;
use crate::vector::resolve;
use crate::verify::VerifyError;

impl VmProgram {
    /// Execute this program.
    ///
    /// `generated` must be the query the program was compiled for (or
    /// rebound to via [`VmProgram::bind`]): the program is decoded and
    /// held to `generated`'s kernels — the verifier's decode-and-compare —
    /// so executing bytecode against a foreign plan is a typed
    /// [`hique_types::HiqueError::Unsupported`] naming the first diverging
    /// component instead of garbage decoding.  `vm_batches` counts the
    /// pages the resolved scans swept: every staged table's, once.
    pub fn execute(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
        options: &ExecOptions,
    ) -> Result<QueryResult> {
        let plan = generated.plan();
        let kernels = resolve(self, generated).map_err(VerifyError::refusal)?;
        let mut result = exec::run(&kernels, plan, catalog, options)?;
        for staged in &plan.staged {
            result.stats.vm_batches += catalog.table(&staged.table_name)?.heap.num_pages() as u64;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_holistic::staging::{stage_table, ScanKernels};
    use hique_par::ScopedPool;
    use hique_plan::{plan_query, AggAlgorithm, CatalogProvider, PlannerConfig};
    use hique_types::{CancelToken, Column, DataType, ExecStats, Row, Schema, Value};

    /// One table with a column of every type a test op exists for, values
    /// drawn (seeded) from small domains that include the extremes.
    fn catalog(paged: bool) -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Column::new("i", DataType::Int32),
                Column::new("l", DataType::Int64),
                Column::new("d", DataType::Date),
                Column::new("f", DataType::Float64),
                Column::new("c1", DataType::Char(1)),
                Column::new("c12", DataType::Char(12)),
                Column::new("pad", DataType::Char(30)),
            ]),
        )
        .unwrap();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % n
        };
        let heap = &mut cat.table_mut("t").unwrap().heap;
        for _ in 0..700 {
            heap.append_row(&Row::new(vec![
                Value::Int32([i32::MIN, -3, 0, 4, i32::MAX][pick(5)]),
                Value::Int64([i64::MIN, -1, 0, 1 << 40, i64::MAX][pick(5)]),
                Value::Date([8000, 9000, 9001, 9500][pick(4)]),
                Value::Float64([-2.5, -0.0, 0.0, 1e300][pick(4)]),
                Value::Str(["A", "N", "R"][pick(3)].into()),
                Value::Str(["prefix01", "prefix01AAAA", "prefix01AAAB", ""][pick(4)].into()),
                Value::Str("x".into()),
            ]))
            .unwrap();
        }
        cat.analyze_table("t").unwrap();
        if paged {
            // Two frames: guards come back pinned, evicted and bypassed.
            cat.spill_to_disk(2).unwrap();
        }
        cat
    }

    /// The scans resolved from the filter and projection fragments stage,
    /// at every pool width and with the plan's own strategy, exactly what
    /// the generator's scans stage — bytes and work counters — which
    /// `core::staging`'s tests hold to the tuple-at-a-time reference.
    #[test]
    fn resolved_scans_stage_what_the_compiled_scans_stage() {
        let predicates = [
            "",
            "where i < 4",
            "where l >= 0 and d <> date '1994-08-23'",
            "where f <= 0.0",
            "where c1 = 'R'",
            "where c1 <> 'N' and i > -3 and f > -1.0",
            "where c12 > 'prefix01AAAA'",
            "where c12 = 'prefix01' and l < 0",
            "where d >= date '1994-08-23' and d < date '1994-08-24' and c1 = 'A' and i = 0",
            "where i > 2147483646 and l = 5",
        ];
        let selects = [
            "select f, c1, c12 from t",
            "select l, i from t",
            "select c12, d, i, l from t",
        ];
        let cancel = CancelToken::disabled();
        for paged in [false, true] {
            let cat = catalog(paged);
            let heap = &cat.table("t").unwrap().heap;
            for (select, predicate) in selects.iter().flat_map(|s| predicates.map(|p| (*s, p))) {
                let sql = format!("{select} {predicate}");
                let parsed = hique_sql::parse_query(&sql).unwrap();
                let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(&cat)).unwrap();
                let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
                let generated = hique_holistic::generate(&plan).unwrap();
                let desc = &plan.staged[0];
                assert_eq!(desc.filters.is_empty(), predicate.is_empty(), "{sql}");
                // Every partition's bytes, and the run's counters.
                let stage = |scan: &ScanKernels, threads: usize| {
                    let mut stats = ExecStats::new();
                    let pool = ScopedPool::new(threads);
                    let staged = stage_table(heap, scan, desc, &mut stats, &pool, &cancel).unwrap();
                    let rel = staged.relation;
                    let parts: Vec<Vec<u8>> = (0..rel.num_partitions())
                        .map(|p| rel.partition(p).to_vec())
                        .collect();
                    (parts, stats)
                };
                let expected = stage(&ScanKernels::compile(desc, heap.schema()).unwrap(), 1);
                for mode in [crate::CompileMode::Specialized, crate::CompileMode::Pooled] {
                    let program = crate::compile(&generated, &cat, mode).unwrap();
                    let resolved = resolve(&program, &generated).unwrap();
                    for threads in [1, 2, 3, 4, 16] {
                        let context = format!("{sql} paged={paged} {mode:?} x{threads}");
                        let (parts, stats) = stage(&resolved.scans[0], threads);
                        assert_eq!(parts, expected.0, "{context}: bytes");
                        assert_eq!(stats, expected.1, "{context}: stats");
                    }
                }
            }
        }
    }

    // ---- The bytecode and the compiled kernels, one answer ------------------

    /// Rows as exact text: floats by bit pattern.
    fn exact(rows: &[Row]) -> Vec<String> {
        rows.iter()
            .map(|row| {
                let values = row.values().iter().map(|v| match v {
                    Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                });
                values.collect::<Vec<_>>().join("|")
            })
            .collect()
    }

    /// The same plan on both front ends is the same execution: rows in the
    /// same order with the same bits, and every work counter equal but the
    /// VM's own `vm_batches`, under every aggregation algorithm, pool width
    /// and budget.
    #[test]
    fn the_bytecode_and_the_compiled_kernels_aggregate_bit_identically() {
        // `(g, tag, v, d, n)`: sums that cancel differently in another order,
        // signed zeros and — in every fourth group — NaN and infinities;
        // more groups than a page has rows; a join cascade underneath (the
        // three steps of a Q10-shaped query) in the last statement.
        let mut cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Column::new("g", DataType::Int32),
                Column::new("tag", DataType::Char(10)),
                Column::new("v", DataType::Float64),
                Column::new("d", DataType::Date),
                Column::new("n", DataType::Int32),
            ]),
        )
        .unwrap();
        for (name, payload) in [("c", "nk"), ("o", "ck"), ("nat", "name")] {
            cat.create_table(
                name,
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new(payload, DataType::Int32),
                ]),
            )
            .unwrap();
        }
        let floats = [0.1, -0.0, 0.0, 1e16, -1e16, 2.5, -7.25, 1.0, 3e-9];
        let specials = [f64::NAN, f64::INFINITY, 0.5, f64::NEG_INFINITY, -0.0];
        let mut append = |table: &str, values: Vec<Value>| {
            let heap = &mut cat.table_mut(table).unwrap().heap;
            heap.append_row(&Row::new(values)).unwrap();
        };
        for i in 0..3000usize {
            let g = (i * 7919 % 400) as i32 - 200;
            let v = if g % 4 == 0 && i % 3 == 0 {
                specials[(i * 7 + i / 13) % specials.len()]
            } else {
                floats[(i * 7 + i / 13) % floats.len()]
            };
            append(
                "t",
                vec![
                    Value::Int32(g),
                    Value::Str(["east", "west", "north"][i % 3].into()),
                    Value::Float64(v),
                    Value::Date(8000 + (i as i32 * 37) % 2000 - 1000),
                    Value::Int32((i as i32 * 7919) % 1000 - 500),
                ],
            );
        }
        for i in 0..400 {
            append("o", vec![Value::Int32(i - 200), Value::Int32(i % 37)]);
        }
        for i in 0..37 {
            append("c", vec![Value::Int32(i), Value::Int32(i % 5)]);
        }
        for i in 0..5 {
            append("nat", vec![Value::Int32(i), Value::Int32(100 + i)]);
        }
        for table in ["t", "c", "o", "nat"] {
            cat.analyze_table(table).unwrap();
        }
        cat.spill_to_disk(64).unwrap();

        let aggregates = "sum(t.v) as s, sum(t.v * (1 - t.n)) as s2, avg(t.v) as a,                           count(*) as c, min(t.n) as lo, max(t.d) as hi, min(t.v) as lo_v,                           max(t.v * (1 - t.n)) as hi_v";
        let statements = [
            format!("select g, tag, {aggregates} from t group by g, tag"),
            format!("select tag, {aggregates} from t group by tag"),
            format!("select {aggregates} from t"),
            format!(
                "select nat.name, c.k, {aggregates} from t, o, c, nat \
                 where t.g = o.k and o.ck = c.k and c.nk = nat.k group by nat.name, c.k"
            ),
        ];
        let options = ExecOptions::default();
        let algorithms = [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ];
        for sql in &statements {
            // Resident, and with every temporary spilled (a one-page budget).
            for (budget, algorithm, threads) in [0, 1]
                .into_iter()
                .flat_map(|b| algorithms.map(|a| (b, a)))
                .flat_map(|(b, a)| [1, 4].map(|t| (b, a, t)))
            {
                let context = format!("{sql}: budget {budget} {algorithm:?} x{threads}");
                let config = PlannerConfig::default()
                    .with_memory_budget_pages(budget)
                    .with_agg_algorithm(algorithm)
                    .with_threads(threads);
                let plan = hique_plan::plan_sql(sql, &cat, &config).unwrap();
                let generated = hique_holistic::generate(&plan).unwrap();
                let program =
                    crate::compile(&generated, &cat, crate::CompileMode::Specialized).unwrap();
                let vm = program.execute(&generated, &cat, &options).unwrap();
                let compiled = generated.execute_with(&cat, &options).unwrap();
                assert!(!vm.rows.is_empty(), "{context}");
                assert_eq!(exact(&vm.rows), exact(&compiled.rows), "{context}");
                assert_eq!(vm.stats.spilled_temporaries > 0, budget > 0, "{context}");
                let pages: usize = plan
                    .staged
                    .iter()
                    .map(|st| cat.table(&st.table_name).unwrap().heap.num_pages())
                    .sum();
                assert_eq!(vm.stats.vm_batches, pages as u64, "{context}");
                // The pool's traffic depends on what the previous run left
                // resident, so it stays out with the VM's own counter.
                let masked = |stats: ExecStats| ExecStats {
                    vm_batches: 0,
                    io: Default::default(),
                    ..stats
                };
                assert_eq!(masked(vm.stats), masked(compiled.stats), "{context}");
            }
        }
    }

    /// A NaN an expression or an aggregate computes — at run time x86's
    /// default NaN is negative — comes back from both front ends as the
    /// canonical one (`Value::from_f64`).
    #[test]
    fn a_computed_nan_comes_back_canonical_from_both_front_ends() {
        let mut cat = Catalog::new();
        cat.create_table("t", Schema::new(vec![Column::new("v", DataType::Float64)]))
            .unwrap();
        for v in [f64::INFINITY, 0.0, f64::NEG_INFINITY] {
            let heap = &mut cat.table_mut("t").unwrap().heap;
            heap.append_row(&Row::new(vec![Value::Float64(v)])).unwrap();
        }
        cat.analyze_table("t").unwrap();
        let options = ExecOptions::default();
        for sql in [
            "select v - v as d, v / v as q, v * 0.0 as z from t",
            "select sum(v) as s, avg(v - v) as a, max(v * 0.0) as m from t",
        ] {
            let plan = hique_plan::plan_sql(sql, &cat, &PlannerConfig::default()).unwrap();
            let generated = hique_holistic::generate(&plan).unwrap();
            let program =
                crate::compile(&generated, &cat, crate::CompileMode::Specialized).unwrap();
            let vm = program.execute(&generated, &cat, &options).unwrap();
            let holistic = generated.execute_with(&cat, &options).unwrap();
            for (engine, rows) in [("vm", &vm.rows), ("holistic", &holistic.rows)] {
                let nans: Vec<u64> = rows
                    .iter()
                    .flat_map(|row| row.values())
                    .filter_map(|v| match v {
                        Value::Float64(f) if f.is_nan() => Some(f.to_bits()),
                        _ => None,
                    })
                    .collect();
                assert!(!nans.is_empty(), "{engine}: {sql} computes no NaN");
                assert!(
                    nans.iter().all(|&b| b == f64::NAN.to_bits()),
                    "{engine}: {sql}: {nans:x?}"
                );
            }
        }
    }
}
