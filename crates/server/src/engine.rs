//! The engine modes, and running a plan on one of them from scratch.

use hique_dsm::DsmDatabase;
use hique_holistic::ExecOptions;
use hique_iter::ExecMode;
use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{HiqueError, QueryResult, Result};

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
/// bytecode with constants specialized to immediates) — what the
/// differential harness, the figure binaries and an uncached session do.
///
/// `options.cancel` and `options.collect_rows` reach every engine; the
/// iterator and DSM engines take threads and budget from the plan.  `dsm`
/// is the catalog's column decomposition, needed by [`Engine::Dsm`] only.
pub fn run_plan(
    engine: Engine,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    dsm: Option<&DsmDatabase>,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let iter = |mode| {
        hique_iter::execute_plan_cancellable(
            plan,
            catalog,
            mode,
            options.collect_rows,
            options.cancel.clone(),
        )
    };
    match engine {
        Engine::IterGeneric => iter(ExecMode::Generic),
        Engine::IterOptimized => iter(ExecMode::Optimized),
        Engine::Dsm => {
            let dsm = dsm.ok_or_else(|| {
                HiqueError::Execution("the dsm engine needs the decomposed database".into())
            })?;
            hique_dsm::execute_plan_cancellable(plan, dsm, options.cancel.clone())
        }
        Engine::Holistic => hique_holistic::generate(plan)?.execute_with(catalog, options),
        Engine::Vm => {
            let generated = hique_holistic::generate(plan)?;
            hique_vm::compile(&generated, catalog, hique_vm::CompileMode::Specialized)?
                .execute(&generated, catalog, options)
        }
    }
}
