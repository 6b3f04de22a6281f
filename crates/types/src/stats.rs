//! Software execution counters.
//!
//! The paper explains its response-time results with hardware performance
//! events (retired instructions, function calls, D1-cache accesses, CPI,
//! prefetcher efficiency) collected with OProfile.  Portable access to those
//! counters is not available here, so every engine in this repository is
//! instrumented with *software* counters that capture the same explanatory
//! quantities at the engine level:
//!
//! | paper metric                | ExecStats analogue                         |
//! |-----------------------------|--------------------------------------------|
//! | function calls              | `function_calls` (iterator/dispatch calls) |
//! | retired instructions        | `tuples_processed`, `comparisons`, `hash_ops` (work proxy) |
//! | D1-cache accesses           | `bytes_touched`                            |
//! | memory stalls from staging  | `bytes_materialized`, `partition_passes`, `sort_passes` |
//!
//! The absolute numbers are not comparable with the paper's; their *ratios
//! across engine configurations* are what the reproduction tracks.

use std::fmt;
use std::ops::AddAssign;

/// Buffer-pool and disk I/O counters of one query execution.
///
/// Filled from the buffer-pool counter delta when the catalog runs in paged
/// mode ([`crate::ExecStats::io`]); all-zero for memory-resident heaps.
/// Unlike the work counters, these depend on cross-worker interleaving when
/// `threads > 1` shares one LRU pool, so equality assertions between serial
/// and parallel runs hold only on memory-resident catalogs (where they are
/// zero on both sides).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served from a resident buffer-pool frame.
    pub pool_hits: u64,
    /// Page requests that had to go to disk.
    pub pool_misses: u64,
    /// Frames evicted from the pool to make room.
    pub pool_evictions: u64,
    /// Whole pages read from disk (misses plus pool-bypass reads).
    pub pages_read: u64,
    /// Whole pages written to disk (eviction write-back, flush, spill).
    pub pages_written: u64,
}

impl IoStats {
    /// True when no buffer-pool or disk traffic was recorded.
    pub fn is_zero(&self) -> bool {
        *self == IoStats::default()
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: Self) {
        self.pool_hits += rhs.pool_hits;
        self.pool_misses += rhs.pool_misses;
        self.pool_evictions += rhs.pool_evictions;
        self.pages_read += rhs.pages_read;
        self.pages_written += rhs.pages_written;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool_hits={} pool_misses={} pool_evictions={} pages_read={} pages_written={}",
            self.pool_hits,
            self.pool_misses,
            self.pool_evictions,
            self.pages_read,
            self.pages_written
        )
    }
}

/// Counters accumulated while executing one query (or one operator).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic-dispatch / iterator-interface calls (`open`/`next`/`close`,
    /// per-field accessor calls, comparator callbacks).  The holistic
    /// engine's generated kernels keep this near zero by construction.
    pub function_calls: u64,
    /// Tuples that entered any operator.
    pub tuples_processed: u64,
    /// Bytes of record data read or written by operators.
    pub bytes_touched: u64,
    /// Predicate / key comparisons evaluated.
    pub comparisons: u64,
    /// Hash computations (partitioning, hash joins, hash aggregation).
    pub hash_ops: u64,
    /// Bytes written into materialized intermediate results (staging areas,
    /// partitions, sort buffers, temporary tables).
    pub bytes_materialized: u64,
    /// Number of partitioning passes performed while staging inputs.
    pub partition_passes: u64,
    /// Number of sort passes (quicksort runs + merges) while staging.
    pub sort_passes: u64,
    /// Result rows produced.
    pub rows_out: u64,
    /// Temporaries (staged inputs, join intermediates, sort runs, alignment
    /// vectors) written through the buffer pool under a memory budget.  The
    /// spill decision is size-only, so this count is identical for every
    /// thread count.
    pub spilled_temporaries: u64,
    /// 1 when this execution's spill-namespace claim was initially denied
    /// by admission control and had to queue for a slot (0 otherwise; sums
    /// across merged executions).  A denied claim *waits* — it never runs
    /// unbounded without spill capability — and this counter is how the
    /// wait stays observable instead of silent.
    pub spill_claim_denied: u64,
    /// High-water mark of resident buffer-pool frames *during this
    /// execution* (the executor opens an epoch-tagged peak window on the
    /// pool at start and closes it at the end; zero for memory-resident
    /// catalogs).  Always ≤ `memory_budget_pages`.
    pub peak_resident_pages: u64,
    /// High-water mark of spilled pages a consumer held materialized
    /// *outside* the pool at once (the pipeline `ResidencyMeter`):
    /// streaming consumers hold one page per pin, gathering consumers a
    /// whole partition/relation.  This is the counter that proves
    /// page-at-a-time reload stays small where whole-partition reload
    /// could not — the pool capacity bounds `peak_resident_pages` by
    /// construction, but nothing bounds this one except the consumption
    /// style.
    pub spill_consumer_peak_pages: u64,
    /// 1 when this execution was stopped by cooperative cancellation
    /// (deadline, explicit cancel, shutdown drain) before completing; sums
    /// across merged executions, so a server-level roll-up counts cancelled
    /// statements.  A successful run always reports 0.
    pub cancelled: u64,
    /// Storage faults injected by an installed
    /// `FaultPlan` while this execution ran (failed/short reads, failed
    /// writes, disk-full spill allocations).  Zero outside chaos testing.
    pub faults_injected: u64,
    /// Tuple batches dispatched by the bytecode VM's vectorized tier
    /// (one per heap page staged, per pinned spill page consumed, or per
    /// in-memory chunk of at most the batch width).  Zero when the scalar
    /// row-at-a-time interpreter ran — which tier executed is visible in
    /// EXPLAIN through this counter.
    pub vm_batches: u64,
    /// Retired: the vectorized tier no longer fuses ops, so this reads 0.
    /// The field stays only while the benchmark's trace still reports it.
    pub vm_fused_ops: u64,
    /// Buffer-pool and disk I/O of the execution (zero for memory-resident
    /// catalogs; see [`IoStats`] for the interleaving caveat under
    /// `threads > 1`).
    pub io: IoStats,
}

impl ExecStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` iterator-style function calls.
    #[inline(always)]
    pub fn add_calls(&mut self, n: u64) {
        self.function_calls += n;
    }

    /// Record one processed tuple of `bytes` width.
    #[inline(always)]
    pub fn add_tuple(&mut self, bytes: usize) {
        self.tuples_processed += 1;
        self.bytes_touched += bytes as u64;
    }

    /// Record `n` comparisons.
    #[inline(always)]
    pub fn add_comparisons(&mut self, n: u64) {
        self.comparisons += n;
    }

    /// Record `n` hash computations.
    #[inline(always)]
    pub fn add_hashes(&mut self, n: u64) {
        self.hash_ops += n;
    }

    /// Record materialization of `bytes` into an intermediate.
    #[inline(always)]
    pub fn add_materialized(&mut self, bytes: usize) {
        self.bytes_materialized += bytes as u64;
    }

    /// Merge another counter set into this one.
    ///
    /// This is the combine step of partition-parallel execution: every
    /// worker accumulates into a fresh `ExecStats` and the executor merges
    /// the per-worker sets in deterministic task order.  All counters are
    /// plain sums, so for the same query the merged counters are *exactly*
    /// the serial engine's — kernels maintain this by counting real work
    /// per record and computing estimated quantities (e.g. sort-cost
    /// formulas) from totals rather than per-chunk.
    pub fn merge(&mut self, other: &ExecStats) {
        *self += *other;
    }
}

impl std::iter::Sum for ExecStats {
    fn sum<I: Iterator<Item = ExecStats>>(iter: I) -> Self {
        iter.fold(ExecStats::new(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: Self) {
        self.function_calls += rhs.function_calls;
        self.tuples_processed += rhs.tuples_processed;
        self.bytes_touched += rhs.bytes_touched;
        self.comparisons += rhs.comparisons;
        self.hash_ops += rhs.hash_ops;
        self.bytes_materialized += rhs.bytes_materialized;
        self.partition_passes += rhs.partition_passes;
        self.sort_passes += rhs.sort_passes;
        self.rows_out += rhs.rows_out;
        self.spilled_temporaries += rhs.spilled_temporaries;
        self.spill_claim_denied += rhs.spill_claim_denied;
        self.cancelled += rhs.cancelled;
        self.faults_injected += rhs.faults_injected;
        self.vm_batches += rhs.vm_batches;
        self.vm_fused_ops += rhs.vm_fused_ops;
        // High-water marks combine by max, not by sum: merging worker
        // counter sets must not inflate peak residency.
        self.peak_resident_pages = self.peak_resident_pages.max(rhs.peak_resident_pages);
        self.spill_consumer_peak_pages = self
            .spill_consumer_peak_pages
            .max(rhs.spill_consumer_peak_pages);
        self.io += rhs.io;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} tuples={} bytes={} cmps={} hashes={} mat_bytes={} part_passes={} sort_passes={} rows_out={} spilled={} spill_claim_denied={} peak_resident={} spill_consumer_peak={} cancelled={} faults_injected={} vm_batches={} vm_fused_ops={} {}",
            self.function_calls,
            self.tuples_processed,
            self.bytes_touched,
            self.comparisons,
            self.hash_ops,
            self.bytes_materialized,
            self.partition_passes,
            self.sort_passes,
            self.rows_out,
            self.spilled_temporaries,
            self.spill_claim_denied,
            self.peak_resident_pages,
            self.spill_consumer_peak_pages,
            self.cancelled,
            self.faults_injected,
            self.vm_batches,
            self.vm_fused_ops,
            self.io
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = ExecStats::new();
        s.add_calls(3);
        s.add_tuple(72);
        s.add_tuple(72);
        s.add_comparisons(5);
        s.add_hashes(2);
        s.add_materialized(144);
        assert_eq!(s.function_calls, 3);
        assert_eq!(s.tuples_processed, 2);
        assert_eq!(s.bytes_touched, 144);
        assert_eq!(s.comparisons, 5);
        assert_eq!(s.hash_ops, 2);
        assert_eq!(s.bytes_materialized, 144);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ExecStats::new();
        a.add_calls(1);
        a.add_tuple(10);
        let mut b = ExecStats::new();
        b.add_calls(2);
        b.add_tuple(20);
        b.rows_out = 7;
        a.merge(&b);
        assert_eq!(a.function_calls, 3);
        assert_eq!(a.tuples_processed, 2);
        assert_eq!(a.bytes_touched, 30);
        assert_eq!(a.rows_out, 7);
    }

    #[test]
    fn sum_folds_worker_counter_sets() {
        let workers: Vec<ExecStats> = (1..=4)
            .map(|i| {
                let mut s = ExecStats::new();
                s.add_tuple(10 * i);
                s.add_comparisons(i as u64);
                s
            })
            .collect();
        let total: ExecStats = workers.into_iter().sum();
        assert_eq!(total.tuples_processed, 4);
        assert_eq!(total.bytes_touched, 100);
        assert_eq!(total.comparisons, 10);
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = ExecStats::new();
        let out = s.to_string();
        for key in [
            "calls=",
            "tuples=",
            "bytes=",
            "cmps=",
            "hashes=",
            "mat_bytes=",
            "part_passes=",
            "sort_passes=",
            "rows_out=",
            "spilled=",
            "spill_claim_denied=",
            "peak_resident=",
            "spill_consumer_peak=",
            "cancelled=",
            "faults_injected=",
            "vm_batches=",
            "vm_fused_ops=",
            "pool_hits=",
            "pool_misses=",
            "pool_evictions=",
            "pages_read=",
            "pages_written=",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn spill_counters_merge_sum_and_peak_merges_by_max() {
        let mut a = ExecStats::new();
        a.spilled_temporaries = 2;
        a.spill_claim_denied = 1;
        a.peak_resident_pages = 40;
        a.spill_consumer_peak_pages = 7;
        let mut b = ExecStats::new();
        b.spilled_temporaries = 3;
        b.spill_claim_denied = 4;
        b.peak_resident_pages = 25;
        b.spill_consumer_peak_pages = 12;
        a.merge(&b);
        // Event counters accumulate across workers.
        assert_eq!(a.spilled_temporaries, 5);
        assert_eq!(a.spill_claim_denied, 5);
        // High-water marks are maxes, not sums: two workers sharing one
        // pool (or one spill consumer window) do not double its residency.
        assert_eq!(a.peak_resident_pages, 40);
        assert_eq!(a.spill_consumer_peak_pages, 12);
        // Merging in the other direction agrees (max is symmetric even
        // when the larger peak sits on the right-hand side).
        let mut c = ExecStats::new();
        c.spill_consumer_peak_pages = 3;
        c.peak_resident_pages = 10;
        c.merge(&a);
        assert_eq!(c.peak_resident_pages, 40);
        assert_eq!(c.spill_consumer_peak_pages, 12);
    }

    #[test]
    fn io_counters_merge_and_compare() {
        let mut a = ExecStats::new();
        a.io.pool_hits = 3;
        a.io.pages_written = 1;
        let mut b = ExecStats::new();
        b.io.pool_hits = 2;
        b.io.pool_misses = 5;
        b.io.pool_evictions = 4;
        b.io.pages_read = 5;
        a.merge(&b);
        assert_eq!(a.io.pool_hits, 5);
        assert_eq!(a.io.pool_misses, 5);
        assert_eq!(a.io.pool_evictions, 4);
        assert_eq!(a.io.pages_read, 5);
        assert_eq!(a.io.pages_written, 1);
        assert!(!a.io.is_zero());
        assert!(ExecStats::new().io.is_zero());
    }
}
