//! Join iterators: merge join, hybrid hash-sort-merge join and fine
//! partition join.
//!
//! All three implement the same logical equi-join; they differ in how they
//! stage their inputs, mirroring the paper's observation that every join
//! algorithm instantiates the same nested-loops template with different
//! staging.  In the iterator engine each output tuple still travels through
//! a `next()` call and is materialized as a `Row`, which is the overhead the
//! holistic engine eliminates.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use hique_types::{result::sort_rows, Result, Row, Schema};

use crate::iterator::{ExecContext, QueryIterator};
use crate::spill::SpilledRows;
use crate::BoxedIterator;

/// Shared merge cursor: walks two key-sorted row vectors and yields joined
/// rows, backtracking over groups of equal inner keys (paper Listing 2's
/// merge-join bound updates).
struct MergeCursor {
    left: Vec<Row>,
    right: Vec<Row>,
    left_key: usize,
    right_key: usize,
    li: usize,
    rj: usize,
    group_start: usize,
    in_group: bool,
}

impl MergeCursor {
    fn new(left: Vec<Row>, right: Vec<Row>, left_key: usize, right_key: usize) -> Self {
        MergeCursor {
            left,
            right,
            left_key,
            right_key,
            li: 0,
            rj: 0,
            group_start: 0,
            in_group: false,
        }
    }

    fn next_pair(&mut self, ctx: &ExecContext) -> Option<Row> {
        loop {
            if self.li >= self.left.len() {
                return None;
            }
            if self.in_group {
                let group_ended = self.rj >= self.right.len() || {
                    ctx.add_comparisons(1);
                    ctx.add_generic_call(2);
                    self.left[self.li]
                        .get(self.left_key)
                        .total_cmp(self.right[self.rj].get(self.right_key))
                        != std::cmp::Ordering::Equal
                };
                if group_ended {
                    // Advance the outer tuple and backtrack to the start of
                    // the group of matching inner tuples.
                    self.li += 1;
                    self.rj = self.group_start;
                    self.in_group = false;
                    continue;
                }
                let out = self.left[self.li].concat(&self.right[self.rj]);
                self.rj += 1;
                return Some(out);
            }
            if self.rj >= self.right.len() {
                return None;
            }
            ctx.add_comparisons(1);
            ctx.add_generic_call(2);
            match self.left[self.li]
                .get(self.left_key)
                .total_cmp(self.right[self.rj].get(self.right_key))
            {
                std::cmp::Ordering::Less => self.li += 1,
                std::cmp::Ordering::Greater => self.rj += 1,
                std::cmp::Ordering::Equal => {
                    self.group_start = self.rj;
                    self.in_group = true;
                }
            }
        }
    }
}

fn drain_child<'a>(
    child: &mut BoxedIterator<'a>,
    ctx: &ExecContext,
    schema_width: usize,
) -> Result<Vec<Row>> {
    child.open()?;
    ctx.add_calls(1);
    let mut rows = Vec::new();
    while let Some(r) = child.next()? {
        ctx.add_materialized(schema_width);
        rows.push(r);
    }
    child.close();
    ctx.add_calls(1);
    Ok(rows)
}

/// Merge join over inputs already sorted on the join keys.
pub struct MergeJoinIterator<'a> {
    left: BoxedIterator<'a>,
    right: BoxedIterator<'a>,
    left_key: usize,
    right_key: usize,
    ctx: ExecContext,
    cursor: Option<MergeCursor>,
    schema: Schema,
}

impl<'a> MergeJoinIterator<'a> {
    /// Join `left` and `right` (both sorted on their key columns).
    pub fn new(
        left: BoxedIterator<'a>,
        right: BoxedIterator<'a>,
        left_key: usize,
        right_key: usize,
        ctx: ExecContext,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        MergeJoinIterator {
            left,
            right,
            left_key,
            right_key,
            ctx,
            cursor: None,
            schema,
        }
    }
}

impl QueryIterator for MergeJoinIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        let lw = self.left.schema().tuple_size();
        let rw = self.right.schema().tuple_size();
        let left = drain_child(&mut self.left, &self.ctx, lw)?;
        let right = drain_child(&mut self.right, &self.ctx, rw)?;
        self.cursor = Some(MergeCursor::new(left, right, self.left_key, self.right_key));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.ctx.add_calls(2);
        Ok(self.cursor.as_mut().and_then(|c| c.next_pair(&self.ctx)))
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.cursor = None;
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// One side's hash partitions: resident row vectors, or runs spilled
/// through the buffer pool and reloaded one partition pair at a time.
enum PartStore {
    Rows(Vec<Vec<Row>>),
    Spilled(Vec<SpilledRows>),
}

impl PartStore {
    fn is_partition_empty(&self, p: usize) -> bool {
        match self {
            PartStore::Rows(parts) => parts[p].is_empty(),
            PartStore::Spilled(runs) => runs[p].num_rows() == 0,
        }
    }

    /// Take partition `p` out for its merge (spilled runs decode through
    /// pin guards here — one partition pair resident at a time).
    fn take_partition(&mut self, p: usize, ctx: &ExecContext) -> Result<Vec<Row>> {
        match self {
            PartStore::Rows(parts) => Ok(std::mem::take(&mut parts[p])),
            PartStore::Spilled(runs) => {
                #[expect(
                    clippy::expect_used,
                    reason = "spilled partitions only exist when staging ran under a spill context"
                )]
                let spill = ctx
                    .spill()
                    .expect("spilled partitions require an active spill context");
                runs[p].load(spill)
            }
        }
    }
}

/// Hybrid hash-sort-merge join: both inputs are hash-partitioned on the join
/// key, each pair of corresponding partitions is sorted just before being
/// merge-joined (paper §V-B).
///
/// The scatter pass runs chunk-parallel across the context's pool with the
/// deterministic chunk-order merge, so every pool width produces the serial
/// partition contents.  Under a memory budget a side larger than the spill
/// threshold writes its partitions through the buffer pool after the
/// scatter; `advance_partition` then reloads exactly one partition pair at
/// a time — the join's peak resident set shrinks from both inputs to one
/// cache-sized pair.
pub struct HybridJoinIterator<'a> {
    left: BoxedIterator<'a>,
    right: BoxedIterator<'a>,
    left_key: usize,
    right_key: usize,
    partitions: usize,
    ctx: ExecContext,
    left_parts: PartStore,
    right_parts: PartStore,
    current: usize,
    cursor: Option<MergeCursor>,
    schema: Schema,
}

impl<'a> HybridJoinIterator<'a> {
    /// Join `left` and `right` using `partitions` hash partitions.
    pub fn new(
        left: BoxedIterator<'a>,
        right: BoxedIterator<'a>,
        left_key: usize,
        right_key: usize,
        partitions: usize,
        ctx: ExecContext,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        HybridJoinIterator {
            left,
            right,
            left_key,
            right_key,
            partitions: partitions.max(1),
            ctx,
            left_parts: PartStore::Rows(Vec::new()),
            right_parts: PartStore::Rows(Vec::new()),
            current: 0,
            cursor: None,
            schema,
        }
    }

    /// Hash-scatter `rows` into `partitions` buckets, chunk-parallel across
    /// the context's pool: each worker scatters a contiguous chunk and the
    /// per-chunk buckets concatenate in chunk order, reproducing the serial
    /// scatter order for any pool width.
    fn partition(
        rows: Vec<Row>,
        key: usize,
        partitions: usize,
        ctx: &ExecContext,
    ) -> Vec<Vec<Row>> {
        ctx.add_partition_pass();
        ctx.add_hashes(rows.len() as u64);
        let hash_of = |row: &Row| {
            let mut h = DefaultHasher::new();
            row.get(key).hash(&mut h);
            (h.finish() as usize) % partitions
        };
        let pool = ctx.pool();
        if pool.is_serial() || rows.len() <= 1 {
            let mut parts = vec![Vec::new(); partitions];
            for row in rows {
                let p = hash_of(&row);
                parts[p].push(row);
            }
            return parts;
        }
        let ranges = hique_par::chunk_ranges(rows.len(), pool.threads());
        let mut chunks: Vec<Vec<Row>> = Vec::with_capacity(ranges.len());
        let mut it = rows.into_iter();
        for r in &ranges {
            chunks.push(it.by_ref().take(r.len()).collect());
        }
        let locals: Vec<Vec<Vec<Row>>> = pool.map_owned(chunks, |_, chunk| {
            let mut parts = vec![Vec::new(); partitions];
            for row in chunk {
                let p = hash_of(&row);
                parts[p].push(row);
            }
            parts
        });
        let mut parts: Vec<Vec<Row>> = vec![Vec::new(); partitions];
        for local in locals {
            for (bucket, mut rows) in parts.iter_mut().zip(local) {
                bucket.append(&mut rows);
            }
        }
        parts
    }

    /// Wrap one side's partitions, spilling them through the pool when the
    /// side exceeds the spill threshold (size-only decision).
    fn store_side(parts: Vec<Vec<Row>>, schema: &Schema, ctx: &ExecContext) -> Result<PartStore> {
        let bytes: usize = parts.iter().map(|p| p.len()).sum::<usize>() * schema.tuple_size();
        match ctx.spill() {
            Some(spill) if spill.should_spill(bytes) => {
                let runs: Vec<SpilledRows> = parts
                    .iter()
                    .map(|p| SpilledRows::spill(p, schema, spill))
                    .collect::<Result<_>>()?;
                Ok(PartStore::Spilled(runs))
            }
            _ => Ok(PartStore::Rows(parts)),
        }
    }

    fn advance_partition(&mut self) -> Result<bool> {
        while self.current < self.partitions {
            let k = self.current;
            self.current += 1;
            if self.left_parts.is_partition_empty(k) || self.right_parts.is_partition_empty(k) {
                continue;
            }
            let mut l = self.left_parts.take_partition(k, &self.ctx)?;
            let mut r = self.right_parts.take_partition(k, &self.ctx)?;
            // Sort the pair of corresponding partitions just before joining
            // them so both are cache-resident during the merge.
            self.ctx.add_sort_pass();
            self.ctx.add_sort_pass();
            let lk = self.left_key;
            let rk = self.right_key;
            sort_rows(&mut l, &[(lk, true)]);
            sort_rows(&mut r, &[(rk, true)]);
            self.cursor = Some(MergeCursor::new(l, r, lk, rk));
            return Ok(true);
        }
        Ok(false)
    }
}

impl QueryIterator for HybridJoinIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        let lschema = self.left.schema().clone();
        let rschema = self.right.schema().clone();
        let left = drain_child(&mut self.left, &self.ctx, lschema.tuple_size())?;
        let right = drain_child(&mut self.right, &self.ctx, rschema.tuple_size())?;
        let left_parts = Self::partition(left, self.left_key, self.partitions, &self.ctx);
        let right_parts = Self::partition(right, self.right_key, self.partitions, &self.ctx);
        self.left_parts = Self::store_side(left_parts, &lschema, &self.ctx)?;
        self.right_parts = Self::store_side(right_parts, &rschema, &self.ctx)?;
        self.current = 0;
        self.cursor = None;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.ctx.add_calls(2);
        loop {
            if let Some(cursor) = self.cursor.as_mut() {
                if let Some(row) = cursor.next_pair(&self.ctx) {
                    return Ok(Some(row));
                }
                self.cursor = None;
            }
            if !self.advance_partition()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.left_parts = PartStore::Rows(Vec::new());
        self.right_parts = PartStore::Rows(Vec::new());
        self.cursor = None;
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Fine-grained partition join: inputs are partitioned by join-key *value*,
/// so every pair of tuples in corresponding partitions joins (paper §V-B).
pub struct PartitionJoinIterator<'a> {
    left: BoxedIterator<'a>,
    right: BoxedIterator<'a>,
    left_key: usize,
    right_key: usize,
    ctx: ExecContext,
    /// (left rows, right rows) per join-key value present on both sides.
    groups: Vec<(Vec<Row>, Vec<Row>)>,
    gi: usize,
    li: usize,
    rj: usize,
    schema: Schema,
}

impl<'a> PartitionJoinIterator<'a> {
    /// Join `left` and `right` by partitioning on the key value.
    pub fn new(
        left: BoxedIterator<'a>,
        right: BoxedIterator<'a>,
        left_key: usize,
        right_key: usize,
        ctx: ExecContext,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        PartitionJoinIterator {
            left,
            right,
            left_key,
            right_key,
            ctx,
            groups: Vec::new(),
            gi: 0,
            li: 0,
            rj: 0,
            schema,
        }
    }
}

impl QueryIterator for PartitionJoinIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        let lw = self.left.schema().tuple_size();
        let rw = self.right.schema().tuple_size();
        let left = drain_child(&mut self.left, &self.ctx, lw)?;
        let right = drain_child(&mut self.right, &self.ctx, rw)?;
        self.ctx.add_partition_pass();
        self.ctx.add_partition_pass();
        let mut lmap: BTreeMap<hique_types::Value, Vec<Row>> = BTreeMap::new();
        for r in left {
            self.ctx.add_hashes(1);
            lmap.entry(r.get(self.left_key).clone())
                .or_default()
                .push(r);
        }
        let mut rmap: BTreeMap<hique_types::Value, Vec<Row>> = BTreeMap::new();
        for r in right {
            self.ctx.add_hashes(1);
            rmap.entry(r.get(self.right_key).clone())
                .or_default()
                .push(r);
        }
        self.groups = lmap
            .into_iter()
            .filter_map(|(k, lrows)| rmap.remove(&k).map(|rrows| (lrows, rrows)))
            .collect();
        self.gi = 0;
        self.li = 0;
        self.rj = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.ctx.add_calls(2);
        loop {
            if self.gi >= self.groups.len() {
                return Ok(None);
            }
            let (lrows, rrows) = &self.groups[self.gi];
            if self.li >= lrows.len() {
                self.gi += 1;
                self.li = 0;
                self.rj = 0;
                continue;
            }
            if self.rj >= rrows.len() {
                self.li += 1;
                self.rj = 0;
                continue;
            }
            let out = lrows[self.li].concat(&rrows[self.rj]);
            self.rj += 1;
            return Ok(Some(out));
        }
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.groups.clear();
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
    use crate::sort::SortIterator;
    use hique_plan::{StagedTable, StagingStrategy};
    use hique_storage::TableHeap;
    use hique_types::{Column, DataType, Value};

    fn heap_from(keys: &[i32], payload_base: i32) -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("p", DataType::Int32),
        ]);
        TableHeap::from_rows(
            schema,
            keys.iter().enumerate().map(|(i, &k)| {
                Row::new(vec![Value::Int32(k), Value::Int32(payload_base + i as i32)])
            }),
        )
        .unwrap()
    }

    fn scan<'a>(heap: &'a TableHeap, ctx: &ExecContext) -> BoxedIterator<'a> {
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

    fn sorted_scan<'a>(heap: &'a TableHeap, ctx: &ExecContext) -> BoxedIterator<'a> {
        Box::new(SortIterator::ascending(scan(heap, ctx), &[0], ctx.clone()))
    }

    /// Expected join size computed naively.
    fn expected_pairs(l: &[i32], r: &[i32]) -> usize {
        l.iter()
            .map(|lk| r.iter().filter(|rk| *rk == lk).count())
            .sum()
    }

    #[test]
    fn merge_join_matches_the_naive_pair_count() {
        let lkeys = vec![1, 2, 2, 3, 5, 7, 7, 7];
        let rkeys = vec![2, 2, 3, 3, 4, 7];
        let lheap = heap_from(&lkeys, 100);
        let rheap = heap_from(&rkeys, 200);
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut join = MergeJoinIterator::new(
            sorted_scan(&lheap, &ctx),
            sorted_scan(&rheap, &ctx),
            0,
            0,
            ctx.clone(),
        );
        let rows = drain(&mut join, &ctx).unwrap();
        assert_eq!(rows.len(), expected_pairs(&lkeys, &rkeys));
        // Every output row has equal keys on both sides.
        assert!(rows.iter().all(|r| r.get(0) == r.get(2)));
        assert_eq!(join.schema().len(), 4);
    }

    #[test]
    fn merge_join_empty_inputs() {
        let lheap = heap_from(&[], 0);
        let rheap = heap_from(&[1, 2], 0);
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut join = MergeJoinIterator::new(
            sorted_scan(&lheap, &ctx),
            sorted_scan(&rheap, &ctx),
            0,
            0,
            ctx.clone(),
        );
        assert!(drain(&mut join, &ctx).unwrap().is_empty());
    }

    #[test]
    fn hybrid_join_agrees_with_merge_join() {
        let lkeys: Vec<i32> = (0..500).map(|i| i % 50).collect();
        let rkeys: Vec<i32> = (0..200).map(|i| (i * 3) % 60).collect();
        let lheap = heap_from(&lkeys, 0);
        let rheap = heap_from(&rkeys, 1000);
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut hybrid =
            HybridJoinIterator::new(scan(&lheap, &ctx), scan(&rheap, &ctx), 0, 0, 8, ctx.clone());
        let mut rows = drain(&mut hybrid, &ctx).unwrap();
        assert_eq!(rows.len(), expected_pairs(&lkeys, &rkeys));
        assert!(ctx.stats().hash_ops >= 700);
        assert!(ctx.stats().partition_passes >= 2);

        let ctx2 = ExecContext::new(ExecMode::Optimized);
        let mut merge = MergeJoinIterator::new(
            sorted_scan(&lheap, &ctx2),
            sorted_scan(&rheap, &ctx2),
            0,
            0,
            ctx2.clone(),
        );
        let mut expected = drain(&mut merge, &ctx2).unwrap();
        // Same multiset of joined rows.
        sort_rows(&mut rows, &[(0, true), (1, true), (3, true)]);
        sort_rows(&mut expected, &[(0, true), (1, true), (3, true)]);
        assert_eq!(rows, expected);
    }

    #[test]
    fn partition_join_handles_duplicates_on_both_sides() {
        let lkeys = vec![1, 1, 2, 3, 3, 3];
        let rkeys = vec![1, 3, 3, 4];
        let lheap = heap_from(&lkeys, 0);
        let rheap = heap_from(&rkeys, 50);
        let ctx = ExecContext::new(ExecMode::Generic);
        let mut join =
            PartitionJoinIterator::new(scan(&lheap, &ctx), scan(&rheap, &ctx), 0, 0, ctx.clone());
        let rows = drain(&mut join, &ctx).unwrap();
        assert_eq!(rows.len(), expected_pairs(&lkeys, &rkeys));
        assert!(rows.iter().all(|r| r.get(0) == r.get(2)));
    }

    #[test]
    fn single_partition_hybrid_still_correct() {
        let lkeys = vec![5, 1, 3];
        let rkeys = vec![3, 3, 5];
        let lheap = heap_from(&lkeys, 0);
        let rheap = heap_from(&rkeys, 0);
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut join =
            HybridJoinIterator::new(scan(&lheap, &ctx), scan(&rheap, &ctx), 0, 0, 1, ctx.clone());
        let rows = drain(&mut join, &ctx).unwrap();
        assert_eq!(rows.len(), 3);
    }
}
