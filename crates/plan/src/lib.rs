//! # hique-plan
//!
//! Query optimizer for the HIQUE reproduction.  Mirroring the paper (§IV),
//! the optimizer "chooses the optimal evaluation plan using a greedy
//! approach, with the objective of minimizing the size of intermediate
//! results", selects the evaluation algorithm for every operator, keeps
//! track of interesting orders and **join teams**, and emits the parameters
//! each engine needs to instantiate its operators.
//!
//! The optimizer's output is a [`physical::PhysicalPlan`]:
//!
//! * one [`physical::StagedTable`] per base table — which filters to apply,
//!   which columns to keep (projection during staging, the paper's trick for
//!   shrinking tuples before joins), and how to stage (sort / fine
//!   partition / hash partition then sort);
//! * a join order with a [`physical::JoinStep`] per join and the chosen
//!   [`physical::JoinAlgorithm`], or a [`physical::JoinTeam`] when every
//!   join shares a common key;
//! * the aggregation specification and [`physical::AggAlgorithm`];
//! * the final ordering, limit and output expressions rebound over the
//!   joined record layout.
//!
//! All engines (iterator, DSM, holistic, bytecode VM) execute this same
//! plan, so measured differences come from the execution model, not plan
//! quality — the comparison the paper is designed around.

pub mod config;
pub mod explain;
pub mod joinorder;
pub mod optimizer;
pub mod physical;
pub mod provider;
pub mod shape;
pub mod stats;

pub use config::PlannerConfig;
pub use explain::{explain, explain_with_actuals, explain_with_stats, PlanActuals};
pub use optimizer::{plan_query, plan_sql};
pub use physical::{
    AggAlgorithm, AggregateSpec, JoinAlgorithm, JoinStep, JoinTeam, PhysicalPlan, StagedTable,
    StagingStrategy,
};
pub use provider::CatalogProvider;
pub use shape::shape_class_and_consts;
