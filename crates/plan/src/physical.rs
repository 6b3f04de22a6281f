//! Physical plan structures: the optimizer's output.
//!
//! A [`PhysicalPlan`] corresponds to the paper's "topologically sorted list
//! of operator descriptors": data staging for every input, join steps in a
//! chosen order (or a fused join team), at most one aggregation and one
//! ordering operator, and the parameters each code template needs for
//! instantiation (key offsets, predicate constants, partition counts).

use hique_sql::analyze::{BoundAggregate, BoundQuery, ColumnFilter, OutputExpr};
use hique_types::Schema;

/// How a staged input is physically organised before its consumer runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StagingStrategy {
    /// Scan/filter/project only; no ordering or partitioning.
    None,
    /// Sort the staged table on the given staged-schema columns.
    Sort {
        /// Staged-schema column indexes to sort by, major first.
        key_columns: Vec<usize>,
    },
    /// Fine-grained partitioning: a value→partition directory on the key.
    PartitionFine {
        /// Staged-schema column index of the partitioning key.
        key_column: usize,
        /// Number of partitions (= number of distinct key values).
        partitions: usize,
    },
    /// Coarse-grained partitioning: hash & modulo on the key.
    PartitionCoarse {
        /// Staged-schema column index of the partitioning key.
        key_column: usize,
        /// Number of partitions.
        partitions: usize,
    },
    /// Coarse partitioning followed by sorting each partition on the key —
    /// the staging of the paper's *hybrid hash-sort* algorithms.
    PartitionThenSort {
        /// Staged-schema column index of the partitioning key.
        key_column: usize,
        /// Number of partitions.
        partitions: usize,
    },
}

/// Join evaluation algorithms (paper §V-B).
///
/// All of them instantiate the same nested-loops code template; they differ
/// in how their inputs are staged and which bound-update steps are enabled
/// inside the loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Inputs sorted on the join key; linear merge with backtracking over
    /// groups of equal inner keys.
    Merge,
    /// Inputs partitioned (Grace-style); corresponding partitions joined
    /// with nested loops.  With fine-grained partitioning every pair in
    /// corresponding partitions matches.
    Partition,
    /// Inputs coarsely partitioned, each partition pair sorted just before
    /// joining, then merge-joined: the paper's *hybrid hash-sort-merge*.
    HybridHashSortMerge,
    /// Plain blocked nested loops (fallback when no equi-join key exists).
    NestedLoops,
}

impl JoinAlgorithm {
    /// Human-readable name used in plan explanations and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            JoinAlgorithm::Merge => "merge join",
            JoinAlgorithm::Partition => "partition join",
            JoinAlgorithm::HybridHashSortMerge => "hybrid hash-sort-merge join",
            JoinAlgorithm::NestedLoops => "nested-loops join",
        }
    }
}

/// Aggregation algorithms (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggAlgorithm {
    /// Input staged (sorted on the grouping attributes); groups found in a
    /// single linear scan.
    Sort,
    /// Input hash-partitioned on the first grouping attribute, each
    /// partition sorted on all grouping attributes, then scanned.
    HybridHashSort,
    /// Value directories per grouping attribute map each tuple to a slot of
    /// the aggregate arrays; single pass, no staging.
    Map,
}

impl AggAlgorithm {
    /// Human-readable name used in plan explanations and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            AggAlgorithm::Sort => "sort aggregation",
            AggAlgorithm::HybridHashSort => "hybrid hash-sort aggregation",
            AggAlgorithm::Map => "map aggregation",
        }
    }
}

/// The staging descriptor of one base table.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedTable {
    /// Index of the table in [`BoundQuery::tables`].
    pub table: usize,
    /// Catalog name of the table.
    pub table_name: String,
    /// Filters to apply while scanning (columns are base-table indexes).
    pub filters: Vec<ColumnFilter>,
    /// Base-table column indexes to keep, in staged order (projection during
    /// staging; the paper drops unneeded fields to shrink tuples).
    pub keep: Vec<usize>,
    /// Schema of the staged output (qualified column names).
    pub schema: Schema,
    /// Physical organisation of the staged output.
    pub strategy: StagingStrategy,
    /// Estimated number of rows surviving the filters.
    pub estimated_rows: usize,
}

/// One binary join step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// Index into [`PhysicalPlan::staged`] of the input joined in this step.
    pub right: usize,
    /// Join-key column index in the *current joined schema* (left side).
    pub left_key: usize,
    /// Join-key column index in the staged right table's schema.
    pub right_key: usize,
    /// Chosen algorithm.
    pub algorithm: JoinAlgorithm,
    /// Estimated output cardinality of this step.
    pub estimated_rows: usize,
}

/// A fused multi-way join over a common key (paper §V-B "join teams").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTeam {
    /// Indexes into [`PhysicalPlan::staged`], in team evaluation order.
    pub members: Vec<usize>,
    /// For each member, the join-key column index in its staged schema.
    pub key_columns: Vec<usize>,
    /// Algorithm used to stage and walk the members (Merge or
    /// HybridHashSortMerge).
    pub algorithm: JoinAlgorithm,
}

/// Aggregation specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Grouping columns as joined-schema indexes.
    pub group_columns: Vec<usize>,
    /// Aggregates with arguments rebound over the joined schema.
    pub aggregates: Vec<BoundAggregate>,
    /// Chosen algorithm.
    pub algorithm: AggAlgorithm,
    /// For map aggregation: the per-grouping-column distinct counts the
    /// planner believes (sizes of the value directories).
    pub group_domain_sizes: Vec<usize>,
}

/// The optimizer's output for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The analyzed query this plan was derived from.
    pub query: BoundQuery,
    /// Staging descriptor per base table, in `FROM` order.
    pub staged: Vec<StagedTable>,
    /// Join order: indexes into `staged`; the first element is the initial
    /// (build) input, subsequent elements are added by `joins[i-1]`.
    pub join_order: Vec<usize>,
    /// Binary join steps (`join_order.len() - 1` entries, empty for
    /// single-table queries or when a join team covers all joins).
    pub joins: Vec<JoinStep>,
    /// Fused join team, when every join shares a common key and teams are
    /// enabled.
    pub join_team: Option<JoinTeam>,
    /// Record layout after all joins: concatenation of staged schemas in
    /// `join_order`.
    pub joined_schema: Schema,
    /// Aggregation, if the query has one.
    pub aggregate: Option<AggregateSpec>,
    /// Output expressions rebound over the joined schema (for non-aggregate
    /// queries) or referencing group columns/aggregates (for aggregate
    /// queries).
    pub output: Vec<OutputExpr>,
    /// Result schema.
    pub output_schema: Schema,
    /// Final ordering over output columns.
    pub order_by: Vec<(usize, bool)>,
    /// Row limit.
    pub limit: Option<u64>,
    /// Worker threads the generated program should execute with (from
    /// [`crate::PlannerConfig::threads`]; 1 = serial).
    pub threads: usize,
    /// Memory budget in buffer-pool pages (from
    /// [`crate::PlannerConfig::memory_budget_pages`]; 0 = unbounded).  The
    /// executor spills staged intermediates through the catalog's buffer
    /// pool once they outgrow a fraction of this budget.
    pub memory_budget_pages: usize,
}

impl PhysicalPlan {
    /// True when the plan contains at least one join.
    pub fn has_joins(&self) -> bool {
        self.staged.len() > 1
    }

    /// The joins as a cascade of binary steps, for engines without a fused
    /// join-team kernel: the plan's own steps, or — for a team — one step
    /// per further member over the shared key.  A team step's left key is
    /// member 0's key column, whose offset is stable because member 0 stays
    /// the record prefix as the intermediate grows; team steps carry no
    /// row estimate.
    pub fn binary_steps(&self) -> Vec<JoinStep> {
        let Some(team) = &self.join_team else {
            return self.joins.clone();
        };
        team.members
            .iter()
            .zip(&team.key_columns)
            .skip(1)
            .map(|(&right, &right_key)| JoinStep {
                right,
                left_key: team.key_columns[0],
                right_key,
                algorithm: team.algorithm,
                estimated_rows: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(JoinAlgorithm::Merge.name(), "merge join");
        assert_eq!(
            JoinAlgorithm::HybridHashSortMerge.name(),
            "hybrid hash-sort-merge join"
        );
        assert_eq!(JoinAlgorithm::Partition.name(), "partition join");
        assert_eq!(JoinAlgorithm::NestedLoops.name(), "nested-loops join");
        assert_eq!(AggAlgorithm::Map.name(), "map aggregation");
        assert_eq!(AggAlgorithm::Sort.name(), "sort aggregation");
        assert_eq!(
            AggAlgorithm::HybridHashSort.name(),
            "hybrid hash-sort aggregation"
        );
    }

    #[test]
    fn staging_strategy_equality() {
        assert_eq!(StagingStrategy::None, StagingStrategy::None);
        assert_ne!(
            StagingStrategy::Sort {
                key_columns: vec![0]
            },
            StagingStrategy::Sort {
                key_columns: vec![1]
            }
        );
        assert_ne!(
            StagingStrategy::PartitionFine {
                key_column: 0,
                partitions: 4
            },
            StagingStrategy::PartitionCoarse {
                key_column: 0,
                partitions: 4
            }
        );
    }
}
