//! Planner configuration: hardware parameters and algorithm overrides.
//!
//! The paper's generated code is customized to the host's cache hierarchy
//! (Table I: 2 MiB L2).  The planner carries that parameter and uses it to
//! size staging partitions and to decide between map aggregation and
//! staged aggregation.  Benchmarks can force particular algorithms to
//! reproduce individual curves of Figures 5–7.

use crate::physical::{AggAlgorithm, JoinAlgorithm};

/// Tunables for plan generation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Size of the second-level cache in bytes (paper's testbed: 2 MiB).
    pub l2_cache_bytes: usize,
    /// Force every join to use this algorithm (benchmarks only).  A forced
    /// `Partition` over a key whose order image is not the whole key (a
    /// string wider than eight bytes,
    /// [`hique_types::DataType::has_exact_key_image`]) and over a join team
    /// plans `HybridHashSortMerge` instead.
    pub force_join_algorithm: Option<JoinAlgorithm>,
    /// Force aggregation to use this algorithm (benchmarks only).  A forced
    /// `Map` over a grouping key whose order image is not the whole key
    /// plans `HybridHashSort` instead: value directories index by image.
    pub force_agg_algorithm: Option<AggAlgorithm>,
    /// Allow multi-way joins over a common key to be fused into a join team
    /// (paper §V-B, Figure 7(b)).
    pub enable_join_teams: bool,
    /// Worker threads for partition-parallel execution (1 = serial).  The
    /// generated program divides staging scans, join partition pairs and
    /// aggregation across this many workers with deterministic chunking and
    /// merge order, so `threads = N` returns the same result as `threads = 1`
    /// for every query (see DESIGN.md §7).
    pub threads: usize,
    /// Memory budget in buffer-pool pages (0 = unbounded).  On a catalog
    /// running in paged mode this is the budget the pool was sized with;
    /// carrying it through the plan lets the executor spill staged
    /// intermediates ("temporary tables inside the buffer pool", paper §IV)
    /// once they outgrow a fraction of the budget.  Purely an execution
    /// knob: results are identical for every value (see DESIGN.md §9).
    pub memory_budget_pages: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            l2_cache_bytes: 2 * 1024 * 1024,
            force_join_algorithm: None,
            force_agg_algorithm: None,
            enable_join_teams: true,
            threads: 1,
            memory_budget_pages: 0,
        }
    }
}

impl PlannerConfig {
    /// Builder-style override of the forced join algorithm.
    pub fn with_join_algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.force_join_algorithm = Some(algorithm);
        self
    }

    /// Builder-style override of the forced aggregation algorithm.
    pub fn with_agg_algorithm(mut self, algorithm: AggAlgorithm) -> Self {
        self.force_agg_algorithm = Some(algorithm);
        self
    }

    /// Builder-style toggle for join teams.
    pub fn with_join_teams(mut self, enabled: bool) -> Self {
        self.enable_join_teams = enabled;
        self
    }

    /// Builder-style override of the worker-thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style override of the page budget (0 = unbounded).
    pub fn with_memory_budget_pages(mut self, pages: usize) -> Self {
        self.memory_budget_pages = pages;
        self
    }

    /// Number of groups up to which the map-aggregation value directories
    /// and aggregate arrays comfortably fit in the L2 cache.
    ///
    /// Each group needs roughly one directory entry plus one accumulator per
    /// aggregate; we charge 64 bytes per group per aggregate as a
    /// conservative estimate (paper §VI-B observes the crossover when the
    /// auxiliary structures span the L2 cache).
    pub fn map_agg_group_limit(&self, num_aggregates: usize) -> usize {
        self.l2_cache_bytes / (64 * num_aggregates.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_testbed_of_table_i() {
        let c = PlannerConfig::default();
        assert_eq!(c.l2_cache_bytes, 2 * 1024 * 1024);
        assert!(c.enable_join_teams);
        assert!(c.force_join_algorithm.is_none());
        assert_eq!(c.threads, 1);
        assert_eq!(c.memory_budget_pages, 0);
    }

    #[test]
    fn builders_set_fields() {
        let c = PlannerConfig::default()
            .with_join_algorithm(JoinAlgorithm::Merge)
            .with_agg_algorithm(AggAlgorithm::Map)
            .with_join_teams(false)
            .with_threads(4)
            .with_memory_budget_pages(256);
        assert_eq!(c.force_join_algorithm, Some(JoinAlgorithm::Merge));
        assert_eq!(c.force_agg_algorithm, Some(AggAlgorithm::Map));
        assert!(!c.enable_join_teams);
        assert_eq!(c.threads, 4);
        assert_eq!(c.memory_budget_pages, 256);
        assert_eq!(PlannerConfig::default().with_threads(0).threads, 1);
    }

    #[test]
    fn map_agg_limit_scales_with_cache_and_aggs() {
        let c = PlannerConfig::default();
        assert_eq!(c.map_agg_group_limit(1), 32 * 1024);
        assert_eq!(c.map_agg_group_limit(2), 16 * 1024);
        assert_eq!(c.map_agg_group_limit(0), 32 * 1024);
    }
}
