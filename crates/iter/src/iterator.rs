//! The iterator (Volcano) interface and shared execution context.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hique_par::ScopedPool;
use hique_pipeline::SpillContext;
use hique_types::{CancelToken, ExecStats, Result, Row, Schema};

/// How "generic" the iterator implementations behave.
///
/// The paper's §VI-A compares *generic iterators* (separate function calls
/// for field access and predicate evaluation, fully dynamic) with *optimized
/// iterators* (type-specific, inlined predicate evaluation but still
/// tuple-at-a-time).  The mode controls how much call overhead the engine
/// models and counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Generic iterators: every field access and comparison is a counted
    /// "function call" and goes through boxed values.
    Generic,
    /// Optimized iterators: predicate evaluation is type-specialized and
    /// inlined; only the iterator-interface calls remain.
    Optimized,
}

/// Shared per-query execution context: mode + counters + the partition
/// pipeline runtime (worker pool for the blocking operators' sorts and
/// scatters, spill policy for pool-backed intermediates).
#[derive(Clone)]
pub struct ExecContext {
    mode: ExecMode,
    stats: Rc<RefCell<ExecStats>>,
    /// Worker pool for the blocking operators (sort runs, partition sorts,
    /// scatter passes).  Serial by default; every width produces identical
    /// results (deterministic chunking + stable merges).
    pool: ScopedPool,
    /// Spill policy when the plan carries a memory budget and the catalog
    /// runs in paged mode: sort runs and hash-partitioned join inputs above
    /// the size threshold go through the buffer pool.
    spill: Option<Arc<SpillContext>>,
    /// Cooperative cancellation, polled at page boundaries (scan page
    /// fetches, spilled partition pulls, output batches).
    cancel: CancelToken,
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("mode", &self.mode)
            .field("threads", &self.pool.threads())
            .field("spill", &self.spill.is_some())
            .finish()
    }
}

impl ExecContext {
    /// New context for the given mode (serial, no spilling).
    pub fn new(mode: ExecMode) -> Self {
        ExecContext {
            mode,
            stats: Rc::new(RefCell::new(ExecStats::new())),
            pool: ScopedPool::serial(),
            spill: None,
            cancel: CancelToken::disabled(),
        }
    }

    /// Use `pool` for the blocking operators' parallel phases.
    pub fn with_pool(mut self, pool: ScopedPool) -> Self {
        self.pool = pool;
        self
    }

    /// Route oversized intermediates through `spill`.
    pub fn with_spill(mut self, spill: Option<Arc<SpillContext>>) -> Self {
        self.spill = spill;
        self
    }

    /// Observe `cancel` at the engine's page-granularity check points.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The cancellation token this execution observes.
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Cooperative cancellation check point.
    #[inline]
    pub fn check_cancel(&self) -> Result<()> {
        self.cancel.check()
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The worker pool for blocking operators.
    pub fn pool(&self) -> &ScopedPool {
        &self.pool
    }

    /// The active spill policy, if any.
    pub fn spill(&self) -> Option<&Arc<SpillContext>> {
        self.spill.as_ref()
    }

    /// Snapshot of the counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        *self.stats.borrow()
    }

    /// Count `n` iterator-interface / dispatch calls.
    #[inline]
    pub fn add_calls(&self, n: u64) {
        self.stats.borrow_mut().add_calls(n);
    }

    /// Count a per-field accessor or comparator call — only charged in
    /// [`ExecMode::Generic`], mirroring the paper's distinction between the
    /// generic and optimized iterator implementations.
    #[inline]
    pub fn add_generic_call(&self, n: u64) {
        if self.mode == ExecMode::Generic {
            self.stats.borrow_mut().add_calls(n);
        }
    }

    /// Count one processed tuple of `bytes` width.
    #[inline]
    pub fn add_tuple(&self, bytes: usize) {
        self.stats.borrow_mut().add_tuple(bytes);
    }

    /// Count `n` comparisons.
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        self.stats.borrow_mut().add_comparisons(n);
    }

    /// Count `n` hash operations.
    #[inline]
    pub fn add_hashes(&self, n: u64) {
        self.stats.borrow_mut().add_hashes(n);
    }

    /// Count `bytes` written to a materialized intermediate.
    #[inline]
    pub fn add_materialized(&self, bytes: usize) {
        self.stats.borrow_mut().add_materialized(bytes);
    }

    /// Count a partitioning pass.
    #[inline]
    pub fn add_partition_pass(&self) {
        self.stats.borrow_mut().partition_passes += 1;
    }

    /// Count a sort pass.
    #[inline]
    pub fn add_sort_pass(&self) {
        self.stats.borrow_mut().sort_passes += 1;
    }

    /// Record the number of rows returned to the client.
    pub fn set_rows_out(&self, rows: u64) {
        self.stats.borrow_mut().rows_out = rows;
    }
}

/// The Volcano iterator interface (paper §II-B): `open`, `get_next`,
/// `close`, with tuples pulled one at a time through virtual calls.
pub trait QueryIterator {
    /// Prepare internal state; called once before the first `next`.
    fn open(&mut self) -> Result<()>;

    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;

    /// Release resources; called once after the consumer is done.
    fn close(&mut self);

    /// Schema of the rows this iterator produces.
    fn schema(&self) -> &Schema;
}

/// Drain an iterator to completion (open → next* → close), returning all
/// rows.  Used by blocking operators (sort, staging) and by tests.
pub fn drain<'a>(iter: &mut (dyn QueryIterator + 'a), ctx: &ExecContext) -> Result<Vec<Row>> {
    iter.open()?;
    ctx.add_calls(1);
    let mut rows = Vec::new();
    while let Some(row) = iter.next()? {
        rows.push(row);
    }
    iter.close();
    ctx.add_calls(1);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_counts_by_mode() {
        let generic = ExecContext::new(ExecMode::Generic);
        generic.add_calls(2);
        generic.add_generic_call(3);
        assert_eq!(generic.stats().function_calls, 5);

        let optimized = ExecContext::new(ExecMode::Optimized);
        optimized.add_calls(2);
        optimized.add_generic_call(3);
        assert_eq!(optimized.stats().function_calls, 2);
        assert_eq!(optimized.mode(), ExecMode::Optimized);
    }

    #[test]
    fn context_clone_shares_counters() {
        let ctx = ExecContext::new(ExecMode::Generic);
        let clone = ctx.clone();
        clone.add_tuple(72);
        clone.add_comparisons(4);
        clone.add_hashes(1);
        clone.add_materialized(100);
        clone.add_partition_pass();
        clone.add_sort_pass();
        clone.set_rows_out(9);
        let s = ctx.stats();
        assert_eq!(s.tuples_processed, 1);
        assert_eq!(s.bytes_touched, 72);
        assert_eq!(s.comparisons, 4);
        assert_eq!(s.hash_ops, 1);
        assert_eq!(s.bytes_materialized, 100);
        assert_eq!(s.partition_passes, 1);
        assert_eq!(s.sort_passes, 1);
        assert_eq!(s.rows_out, 9);
    }
}
