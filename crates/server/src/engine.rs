//! The engine modes, and running a plan on one of them from scratch.

use hique_dsm::DsmDatabase;
use hique_iter::ExecMode;
use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{ExecOptions, HiqueError, QueryResult, Result};

/// Which engine mode a session executes on.  All five share the catalog,
/// the cached plan and the spill/peak-window contracts; the differential
/// harness relies on their results being canonically identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Holistic generated kernels (the paper's engine).
    Holistic,
    /// Generic Volcano iterators.
    IterGeneric,
    /// Type-specialized iterators.
    IterOptimized,
    /// Column-at-a-time DSM engine.
    Dsm,
    /// Query-time-compiled bytecode interpreted by the register VM.
    Vm,
}

impl Engine {
    /// Every engine mode, in the canonical differential-test order: the
    /// independent baseline (generic iterators) first, the kernel engines
    /// under test last.
    pub const ALL: [Engine; 5] = [
        Engine::IterGeneric,
        Engine::IterOptimized,
        Engine::Dsm,
        Engine::Holistic,
        Engine::Vm,
    ];

    /// Stable lowercase name (wire protocol `.engine` argument).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Holistic => "holistic",
            Engine::IterGeneric => "iter-generic",
            Engine::IterOptimized => "iter-optimized",
            Engine::Dsm => "dsm",
            Engine::Vm => "vm",
        }
    }

    /// Parse a wire-protocol engine name.
    pub fn parse(name: &str) -> Result<Engine> {
        Engine::ALL
            .into_iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| {
                HiqueError::Unsupported(format!(
                    "unknown engine '{name}' (expected one of: holistic, iter-generic, \
                     iter-optimized, dsm, vm)"
                ))
            })
    }
}

/// Execute a physical plan on one engine mode, paying that engine's whole
/// preparation (the holistic generator; for `vm` also the lowering to
/// bytecode with constants specialized to immediates, which every plan the
/// generator accepts has) — what the differential harness, the figure
/// binaries and an uncached session do.
///
/// Every engine takes the one `options`, so `cancel` and `collect_rows`
/// reach all five; threads and budget come from the plan.  `dsm` is the
/// catalog's column decomposition, needed by [`Engine::Dsm`] only.
pub fn run_plan(
    engine: Engine,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    dsm: Option<&DsmDatabase>,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let iter = |mode| hique_iter::execute_plan(plan, catalog, mode, options);
    match engine {
        Engine::IterGeneric => iter(ExecMode::Generic),
        Engine::IterOptimized => iter(ExecMode::Optimized),
        Engine::Dsm => {
            let dsm = dsm.ok_or_else(|| {
                HiqueError::Execution("the dsm engine needs the decomposed database".into())
            })?;
            hique_dsm::execute_plan(plan, dsm, options)
        }
        Engine::Holistic => hique_holistic::generate(plan)?.execute_with(catalog, options),
        Engine::Vm => {
            let generated = hique_holistic::generate(plan)?;
            hique_vm::compile(&generated, catalog, hique_vm::CompileMode::Specialized)?
                .execute(&generated, catalog, options)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_sql, PlannerConfig};
    use hique_types::{Column, DataType, Row, Schema, Value};

    /// Count-only execution reaches every engine: a non-aggregate query
    /// without LIMIT returns no rows and counts exactly the rows a
    /// collecting run returns.
    #[test]
    fn count_only_runs_count_every_row_and_return_none_on_every_engine() {
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ]);
        catalog.create_table("r", schema).unwrap();
        for i in 0..300 {
            let row = Row::new(vec![Value::Int32(i % 7), Value::Float64(i as f64)]);
            catalog
                .table_mut("r")
                .unwrap()
                .heap
                .append_row(&row)
                .unwrap();
        }
        catalog.analyze_table("r").unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        let sql = "select k, v * 2 as d from r where v < 250 order by k, d";
        let plan = plan_sql(sql, &catalog, &PlannerConfig::default()).unwrap();
        let count_only = ExecOptions {
            collect_rows: false,
            ..ExecOptions::default()
        };
        for engine in Engine::ALL {
            let run = |options| run_plan(engine, &plan, &catalog, Some(&dsm), options).unwrap();
            let (collected, counted) = (run(&ExecOptions::default()), run(&count_only));
            assert_eq!(collected.rows.len(), 250, "{}", engine.name());
            assert!(counted.rows.is_empty(), "{}", engine.name());
            assert_eq!(counted.stats.rows_out, 250, "{}", engine.name());
        }
    }
}
