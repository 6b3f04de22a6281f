//! The code generator: from a physical plan to a [`GeneratedQuery`].
//!
//! Mirrors the paper's Figure 3: walk the topologically sorted operator
//! descriptors, retrieve the code template of each operator's algorithm,
//! instantiate it with the operator's parameters, and compose a main
//! function calling everything in order.  Templates are instantiated once,
//! as the kernels that run; callers that report generation cost (Table III,
//! the benchmark's trace) time the call themselves.

use hique_plan::PhysicalPlan;
use hique_sql::analyze::OutputExpr;
use hique_storage::Catalog;
use hique_types::{DataType, ExecOptions, HiqueError, QueryResult, Result};

use crate::agg::CompiledAgg;
use crate::agg_program::intern;
use crate::compiled::KernelSet;
use crate::exec;
use crate::kernel::CompiledKey;
use crate::staging::ScanKernels;

/// How one output column of the query is produced by the generated code.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputKernel {
    /// Decode the column at the compiled key's offset (any type).
    Column(CompiledKey),
    /// Register of the output program holding an arithmetic expression's
    /// value, cast to the output type.
    Expr(u16, DataType),
    /// The `i`-th grouping column of the aggregation output.
    GroupPosition(usize),
    /// The `i`-th aggregate of the aggregation output.
    AggregatePosition(usize),
}

/// A query-specific generated program: the plan's templates instantiated as
/// compiled kernels.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    pub(crate) plan: PhysicalPlan,
    pub(crate) kernels: KernelSet,
}

impl GeneratedQuery {
    /// The physical plan this program was generated from.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The instantiated kernels.  Exposed so an alternative back end (the
    /// bytecode VM) lowers the *same* kernels instead of re-deriving them
    /// from the plan, and holds what it decodes to them.
    pub fn kernels(&self) -> &KernelSet {
        &self.kernels
    }

    /// Execute the generated program against the catalog's data.
    pub fn execute(&self, catalog: &Catalog) -> Result<QueryResult> {
        self.execute_with(catalog, &ExecOptions::default())
    }

    /// Execute with explicit options (e.g. counting-only output for the
    /// inflationary-join micro-benchmarks, matching the paper's
    /// "we did not materialize the output" methodology).
    pub fn execute_with(&self, catalog: &Catalog, options: &ExecOptions) -> Result<QueryResult> {
        exec::run(&self.kernels, &self.plan, catalog, options)
    }
}

/// Generate the query-specific program for a plan.
pub fn generate(plan: &PhysicalPlan) -> Result<GeneratedQuery> {
    // Scans over each staged table's base record, as the analyzer bound it.
    let scans = plan
        .staged
        .iter()
        .map(|staged| ScanKernels::compile(staged, &plan.query.tables[staged.table].schema))
        .collect::<Result<_>>()?;

    // Join keys per binary step, the left one over the intermediate the
    // step extends (a team's member 0 stays its prefix).
    let steps = plan.binary_steps();
    let mut joins = Vec::with_capacity(steps.len());
    if let Some(&first) = plan.join_order.first() {
        let mut current = plan.staged[first].schema.clone();
        for step in &steps {
            let right = &plan.staged[step.right].schema;
            joins.push((
                CompiledKey::compile(&current, step.left_key),
                CompiledKey::compile(right, step.right_key),
            ));
            current = current.join(right);
        }
    }

    // Aggregation kernels (if any) are instantiated over the joined schema.
    let aggregation = plan
        .aggregate
        .as_ref()
        .map(|spec| CompiledAgg::compile(spec, &plan.joined_schema))
        .transpose()?;

    // Output kernels; arithmetic outputs intern into one register program.
    let mut outputs = Vec::with_capacity(plan.output.len());
    let mut output_program = Vec::new();
    for (o, col) in plan.output.iter().zip(plan.output_schema.columns()) {
        let kernel = match o {
            OutputExpr::GroupColumn(ci) => {
                let spec = plan.aggregate.as_ref().ok_or_else(|| {
                    HiqueError::Codegen("group column output without aggregation".into())
                })?;
                let pos = spec
                    .group_columns
                    .iter()
                    .position(|g| g == ci)
                    .ok_or_else(|| {
                        HiqueError::Codegen(format!(
                            "output column '{}' is not a grouping column",
                            col.name
                        ))
                    })?;
                OutputKernel::GroupPosition(pos)
            }
            OutputExpr::Aggregate(i) => OutputKernel::AggregatePosition(*i),
            OutputExpr::Scalar(e) => match e {
                hique_sql::analyze::ScalarExpr::Column { index, .. } => {
                    OutputKernel::Column(CompiledKey::compile(&plan.joined_schema, *index))
                }
                other => OutputKernel::Expr(
                    intern(other, &plan.joined_schema, &mut output_program)?,
                    col.dtype,
                ),
            },
        };
        outputs.push(kernel);
    }

    Ok(GeneratedQuery {
        plan: plan.clone(),
        kernels: KernelSet {
            scans,
            joins,
            aggregation,
            outputs,
            output_program,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_types::{Column, Row, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Column::new("g", DataType::Char(1)),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..50 {
            cat.table_mut("t")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
                    Value::Float64(i as f64),
                ]))
                .unwrap();
        }
        cat.analyze_table("t").unwrap();
        cat
    }

    #[test]
    fn generation_produces_kernels() {
        let cat = catalog();
        let q = hique_sql::parse_query(
            "select g, sum(v) as s, count(*) as n from t group by g order by g",
        )
        .unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        let generated = generate(&plan).unwrap();
        let kernels = generated.kernels();
        assert!(kernels.aggregation.is_some());
        assert_eq!(kernels.outputs.len(), 3);
        assert_eq!(kernels.outputs[0], OutputKernel::GroupPosition(0));
        assert_eq!(kernels.outputs[1], OutputKernel::AggregatePosition(0));
        assert_eq!(generated.plan().output_schema.names(), vec!["g", "s", "n"]);
    }

    #[test]
    fn scalar_outputs_compile_to_column_or_expr_kernels() {
        let cat = catalog();
        let q = hique_sql::parse_query("select g, v * 2 as dbl from t where v < 10").unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        let generated = generate(&plan).unwrap();
        let kernels = generated.kernels();
        assert!(matches!(kernels.outputs[0], OutputKernel::Column(_)));
        // `v * 2` is register 2 of the output program: load, constant, product.
        assert_eq!(kernels.outputs[1], OutputKernel::Expr(2, DataType::Float64));
        assert_eq!(kernels.output_program.len(), 3);
        assert!(kernels.aggregation.is_none());
    }
}
