//! Blocking sort iterator.

use std::sync::Arc;

use hique_par::{chunk_ranges, ScopedPool};
use hique_types::{
    result::{cmp_rows, sort_rows},
    Result, Row, Schema,
};

use crate::iterator::{ExecContext, QueryIterator};
use crate::spill::{RowCursor, SpilledRows};
use crate::BoxedIterator;

/// Stable parallel sort: contiguous chunks are stable-sorted across the
/// pool and merged with lowest-run-wins ties, which is byte-identical to a
/// serial stable [`sort_rows`] of the whole vector — the same
/// chunking/merge rule the holistic kernels use, applied to row runs.
/// Chunks move into their tasks ([`ScopedPool::map_owned`]): the parallel
/// mode sorts the same rows the serial mode would, never clones of them.
pub(crate) fn par_sort_rows(
    mut rows: Vec<Row>,
    keys: &[(usize, bool)],
    pool: &ScopedPool,
) -> Vec<Row> {
    if pool.is_serial() || rows.len() <= 1 {
        sort_rows(&mut rows, keys);
        return rows;
    }
    let ranges = chunk_ranges(rows.len(), pool.threads());
    let mut chunks: Vec<Vec<Row>> = Vec::with_capacity(ranges.len());
    let mut it = rows.into_iter();
    for r in &ranges {
        chunks.push(it.by_ref().take(r.len()).collect());
    }
    let runs: Vec<Vec<Row>> = pool.map_owned(chunks, |_, mut run| {
        sort_rows(&mut run, keys);
        run
    });
    merge_sorted_row_runs(runs, keys)
}

/// Merge stable-sorted runs, preferring the lowest run index on ties (the
/// mergesort equivalence that makes chunked sorting reproduce the serial
/// stable sort exactly).
pub(crate) fn merge_sorted_row_runs(runs: Vec<Vec<Row>>, keys: &[(usize, bool)]) -> Vec<Row> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut live: Vec<usize> = (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect();
    match live.len() {
        0 => return Vec::new(),
        1 => return runs.into_iter().nth(live[0]).expect("live run exists"),
        _ => {}
    }
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(total);
    while !live.is_empty() {
        let mut best = live[0];
        for &r in &live[1..] {
            // Strictly-less comparison keeps ties on the lowest run index.
            if cmp_rows(&runs[r][cursors[r]], &runs[best][cursors[best]], keys)
                == std::cmp::Ordering::Less
            {
                best = r;
            }
        }
        out.push(runs[best][cursors[best]].clone());
        cursors[best] += 1;
        if cursors[best] >= runs[best].len() {
            live.retain(|&r| r != best);
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// The sorted run waiting to be emitted: resident rows, or a spilled run
/// streamed back one pool page at a time.
enum SortedRun {
    Rows(Vec<Row>),
    Spilled(RowCursor),
}

/// Materializes its child on `open()` and emits the rows sorted by the given
/// keys.  Used for merge-join inputs, sort aggregation inputs and the final
/// `ORDER BY`.
///
/// The sort itself runs chunk-parallel across the context's pool
/// (deterministically — see `par_sort_rows`); under a memory budget a run
/// larger than the spill threshold is encoded into buffer-pool pages after
/// sorting and decoded back **page-at-a-time** while the parent consumes
/// it, so the emit phase holds one page of rows instead of the whole run.
pub struct SortIterator<'a> {
    child: BoxedIterator<'a>,
    keys: Vec<(usize, bool)>,
    ctx: ExecContext,
    run: SortedRun,
    pos: usize,
    schema: Schema,
}

impl<'a> SortIterator<'a> {
    /// Sort `child` by `keys` (column index, ascending), major key first.
    pub fn new(child: BoxedIterator<'a>, keys: Vec<(usize, bool)>, ctx: ExecContext) -> Self {
        let schema = child.schema().clone();
        SortIterator {
            child,
            keys,
            ctx,
            run: SortedRun::Rows(Vec::new()),
            pos: 0,
            schema,
        }
    }

    /// Sort ascending on the given columns.
    pub fn ascending(child: BoxedIterator<'a>, columns: &[usize], ctx: ExecContext) -> Self {
        Self::new(child, columns.iter().map(|&c| (c, true)).collect(), ctx)
    }
}

impl QueryIterator for SortIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        self.child.open()?;
        let mut rows = Vec::new();
        while let Some(row) = self.child.next()? {
            self.ctx.add_materialized(self.schema.tuple_size());
            rows.push(row);
        }
        self.child.close();
        let n = rows.len() as u64;
        self.ctx.add_sort_pass();
        // n log n comparisons, derived from the total row count so the
        // counter is identical for every pool width.
        if n > 1 {
            self.ctx
                .add_comparisons((n as f64 * (n as f64).log2()).ceil() as u64);
        }
        let sorted = par_sort_rows(rows, &self.keys, self.ctx.pool());
        // Size-only spill decision: a run above the threshold goes out as
        // pool pages and streams back during the emit phase.
        self.run = match self.ctx.spill() {
            Some(spill) if spill.should_spill(sorted.len() * self.schema.tuple_size()) => {
                let spilled = SpilledRows::spill(&sorted, &self.schema, spill)?;
                drop(sorted);
                SortedRun::Spilled(spilled.cursor(Arc::clone(spill)))
            }
            _ => SortedRun::Rows(sorted),
        };
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.ctx.add_calls(2);
        match &mut self.run {
            SortedRun::Rows(rows) => {
                if self.pos < rows.len() {
                    let row = rows[self.pos].clone();
                    self.pos += 1;
                    Ok(Some(row))
                } else {
                    Ok(None)
                }
            }
            SortedRun::Spilled(cursor) => cursor.next(),
        }
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.run = SortedRun::Rows(Vec::new());
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::{drain, ExecMode};
    use crate::scan::ScanIterator;
    use hique_pipeline::SpillContext;
    use hique_plan::{StagedTable, StagingStrategy};
    use hique_storage::{BufferPool, TableHeap, TempSpace};
    use hique_types::{Column, DataType, Value};

    fn make_scan<'a>(heap: &'a TableHeap, ctx: &ExecContext) -> BoxedIterator<'a> {
        let staged = StagedTable {
            table: 0,
            table_name: "t".into(),
            filters: vec![],
            keep: vec![0, 1],
            schema: heap.schema().clone(),
            strategy: StagingStrategy::None,
            estimated_rows: 0,
        };
        Box::new(ScanIterator::new(heap, staged, ctx.clone()))
    }

    fn heap() -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Int32),
        ]);
        TableHeap::from_rows(
            schema,
            [5, 3, 9, 1, 3]
                .iter()
                .enumerate()
                .map(|(i, &k)| Row::new(vec![Value::Int32(k), Value::Int32(i as i32)])),
        )
        .unwrap()
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut sorted = SortIterator::ascending(make_scan(&heap, &ctx), &[0], ctx.clone());
        let rows = drain(&mut sorted, &ctx).unwrap();
        let keys: Vec<i32> = rows
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as i32)
            .collect();
        assert_eq!(keys, vec![1, 3, 3, 5, 9]);
        assert!(ctx.stats().sort_passes >= 1);
        assert!(ctx.stats().bytes_materialized > 0);

        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut sorted = SortIterator::new(make_scan(&heap, &ctx), vec![(0, false)], ctx.clone());
        let rows = drain(&mut sorted, &ctx).unwrap();
        let keys: Vec<i32> = rows
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as i32)
            .collect();
        assert_eq!(keys, vec![9, 5, 3, 3, 1]);
    }

    #[test]
    fn stable_for_equal_keys() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Generic);
        let mut sorted = SortIterator::ascending(make_scan(&heap, &ctx), &[0], ctx.clone());
        let rows = drain(&mut sorted, &ctx).unwrap();
        // The two k=3 rows keep their original relative order (v=1 then v=4).
        assert_eq!(rows[1].get(1), &Value::Int32(1));
        assert_eq!(rows[2].get(1), &Value::Int32(4));
    }

    fn big_heap(n: i32) -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Int32),
        ]);
        TableHeap::from_rows(
            schema,
            (0..n).map(|i| Row::new(vec![Value::Int32((i * 7) % 23), Value::Int32(i)])),
        )
        .unwrap()
    }

    #[test]
    fn parallel_sort_is_byte_identical_to_serial_with_equal_stats() {
        let heap = big_heap(500);
        let serial_ctx = ExecContext::new(ExecMode::Optimized);
        let mut serial =
            SortIterator::ascending(make_scan(&heap, &serial_ctx), &[0], serial_ctx.clone());
        let expected = drain(&mut serial, &serial_ctx).unwrap();
        for threads in [2, 3, 4, 16] {
            let ctx = ExecContext::new(ExecMode::Optimized).with_pool(ScopedPool::new(threads));
            let mut sorted = SortIterator::ascending(make_scan(&heap, &ctx), &[0], ctx.clone());
            let rows = drain(&mut sorted, &ctx).unwrap();
            assert_eq!(rows, expected, "threads={threads}");
            // Counters are derived from totals, so they match serial exactly.
            assert_eq!(ctx.stats(), serial_ctx.stats(), "threads={threads}");
        }
    }

    #[test]
    fn spilled_sort_run_streams_back_identically() {
        let heap = big_heap(2000);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hique_iter_sort_spill_{}.spill",
            std::process::id()
        ));
        let pool = Arc::new(BufferPool::new(2).unwrap());
        let temp = Arc::new(TempSpace::create(pool, &path).unwrap());

        let plain_ctx = ExecContext::new(ExecMode::Optimized);
        let mut plain =
            SortIterator::ascending(make_scan(&heap, &plain_ctx), &[0], plain_ctx.clone());
        let expected = drain(&mut plain, &plain_ctx).unwrap();

        for threads in [1, 4] {
            // Budget 1 page: every run spills.
            let spill = Arc::new(SpillContext::acquire(&temp, 1).expect("space free"));
            let ctx = ExecContext::new(ExecMode::Optimized)
                .with_pool(ScopedPool::new(threads))
                .with_spill(Some(Arc::clone(&spill)));
            let mut sorted = SortIterator::ascending(make_scan(&heap, &ctx), &[0], ctx.clone());
            let rows = drain(&mut sorted, &ctx).unwrap();
            assert_eq!(rows, expected, "threads={threads}");
            assert_eq!(spill.spill_count(), 1, "run must have spilled");
            // The emit phase decoded one pinned page at a time.
            assert_eq!(spill.meter().peak(), 1, "threads={threads}");
            drop(ctx);
            drop(sorted);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_of_row_runs_handles_empties_and_ties() {
        let mk = |ks: &[i32]| -> Vec<Row> {
            ks.iter()
                .enumerate()
                .map(|(i, &k)| Row::new(vec![Value::Int32(k), Value::Int32(i as i32)]))
                .collect()
        };
        let keys = [(0usize, true)];
        assert!(merge_sorted_row_runs(vec![], &keys).is_empty());
        assert!(merge_sorted_row_runs(vec![vec![], vec![]], &keys).is_empty());
        let single = merge_sorted_row_runs(vec![vec![], mk(&[1, 2]), vec![]], &keys);
        assert_eq!(single.len(), 2);
        // Tie on k: the run-0 row must come first (stability).
        let merged = merge_sorted_row_runs(vec![mk(&[1, 5]), mk(&[1, 3])], &keys);
        let pairs: Vec<(i64, i64)> = merged
            .iter()
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(1, 0), (1, 0), (3, 1), (5, 1)]);
    }
}
