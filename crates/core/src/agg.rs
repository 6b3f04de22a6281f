//! Aggregation kernels: sort, hybrid hash-sort and map aggregation over
//! packed record buffers (paper §V-B).
//!
//! The kernels are instantiated with compiled group-key accessors and the
//! query's aggregate program ([`AggProgram`]: every aggregate's argument in
//! one shared-subexpression register DAG, plus function-specialised
//! accumulator slots), so the per-tuple work is a few primitive reads,
//! arithmetic operations and accumulator updates — no function calls, no
//! boxed values (those appear only when the handful of result groups is
//! converted to output rows).

use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::PartitionSet;
use hique_plan::AggregateSpec;
use hique_types::{ExecStats, Result, Row, Schema, Value};

pub use crate::agg_program::{Accum, AccumLayout, AccumSlot, AggNode, AggProgram};
use crate::kernel::{compare_keys, CompiledKey};
use crate::relation::StagedRelation;

/// A compiled aggregation: group-key accessors plus the query's aggregate
/// program, instantiated against the input relation's schema.
#[derive(Debug, Clone)]
pub struct CompiledAgg {
    group_keys: Vec<CompiledKey>,
    program: AggProgram,
}

/// The single group of a global aggregate (no grouping columns): one
/// accumulator set plus the tuples and bytes it has seen.  Empty input
/// yields no group, the convention shared by the iterator and DSM engines.
struct GlobalGroup {
    accums: Vec<Accum>,
    regs: Vec<f64>,
    tuples: u64,
    bytes: u64,
}

impl GlobalGroup {
    fn new(agg: &CompiledAgg) -> Self {
        GlobalGroup {
            accums: agg.fresh_accums(),
            regs: agg.program.frame(),
            tuples: 0,
            bytes: 0,
        }
    }

    #[inline(always)]
    fn update(&mut self, agg: &CompiledAgg, record: &[u8]) {
        self.tuples += 1;
        self.bytes += record.len() as u64;
        agg.update_all(&mut self.regs, &mut self.accums, record);
    }

    fn combine(&mut self, other: &GlobalGroup) {
        self.tuples += other.tuples;
        self.bytes += other.bytes;
        for (a, o) in self.accums.iter_mut().zip(&other.accums) {
            a.combine(o);
        }
    }

    fn finish(self, agg: &CompiledAgg, stats: &mut ExecStats) -> Vec<Row> {
        stats.tuples_processed += self.tuples;
        stats.bytes_touched += self.bytes;
        if self.tuples == 0 {
            return Vec::new();
        }
        vec![agg.finish_row(Vec::new(), &self.accums)]
    }
}

/// The value directories of map aggregation (paper Figure 4), grown on
/// first occurrence during the one scan: per grouping attribute the
/// distinct key images seen so far, sorted, each with the id it was given
/// on discovery.  A tuple's ids, weighted by the |M_i| products of Figure
/// 4(b), are its offset in the dense cell array, which names its group.
///
/// The products are taken over per-attribute *capacities* (powers of two)
/// rather than the current directory sizes, so the array is laid out again
/// only when a directory outgrows its capacity — a handful of times per
/// attribute — and accumulators never move.
struct MapDirectory {
    values: Vec<Vec<(i64, u32)>>,
    /// Per attribute, a direct-mapped memo of recent `(image, id)` pairs in
    /// front of the directory's binary search.
    memo: Vec<[(i64, u32); MEMO]>,
    capacity: Vec<usize>,
    multipliers: Vec<usize>,
    /// Group number + 1 per offset; 0 = no tuple seen yet.
    cells: Vec<u32>,
}

/// Entries per directory memo.
const MEMO: usize = 64;
/// No directory hands this id out, so it marks an empty memo entry.
const NO_ID: u32 = u32::MAX;

impl MapDirectory {
    fn new(group_keys: usize) -> Self {
        MapDirectory {
            values: vec![Vec::new(); group_keys],
            memo: vec![[(0, NO_ID); MEMO]; group_keys],
            capacity: vec![1; group_keys],
            multipliers: vec![1; group_keys],
            cells: vec![0],
        }
    }

    /// The offset of the tuple whose `i`-th key image is `image(i)`,
    /// entering unseen values — and, when that makes a directory outgrow
    /// its capacity, laying the cell array out again for `groups` (one
    /// image per attribute per group seen so far, in group order).
    #[inline(always)]
    fn offset(&mut self, image: impl Fn(usize) -> i64, groups: &[i64]) -> usize {
        match self.probe(&image) {
            (offset, true) => offset,
            _ => {
                self.grow(groups);
                self.probe(&image).0
            }
        }
    }

    /// One look at every directory: the offset under the current layout,
    /// and whether every directory still fits its capacity (when not, the
    /// offset is meaningless until [`MapDirectory::grow`] ran).
    #[inline(always)]
    fn probe(&mut self, image: impl Fn(usize) -> i64) -> (usize, bool) {
        let (mut offset, mut fits) = (0usize, true);
        for (i, d) in self.values.iter_mut().enumerate() {
            let v = image(i);
            // Fibonacci hashing: the top bits of the product.
            let slot = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO.ilog2());
            let memo = &mut self.memo[i][slot as usize];
            if memo.0 != v || memo.1 == NO_ID {
                let id = match d.binary_search_by_key(&v, |&(value, _)| value) {
                    Ok(pos) => d[pos].1,
                    Err(pos) => {
                        let id = d.len() as u32;
                        d.insert(pos, (v, id));
                        fits &= d.len() <= self.capacity[i];
                        id
                    }
                };
                *memo = (v, id);
            }
            offset += memo.1 as usize * self.multipliers[i];
        }
        (offset, fits)
    }

    /// Size the cell array for the grown directories and re-enter `groups`.
    #[cold]
    fn grow(&mut self, groups: &[i64]) {
        for (cap, d) in self.capacity.iter_mut().zip(&self.values) {
            *cap = d.len().next_power_of_two();
        }
        let n = self.values.len();
        for i in (0..n.saturating_sub(1)).rev() {
            self.multipliers[i] = self.multipliers[i + 1] * self.capacity[i + 1];
        }
        self.cells = vec![0; self.capacity.iter().product()];
        for (g, group) in groups.chunks_exact(n).enumerate() {
            let (offset, _) = self.probe(|i| group[i]);
            self.cells[offset] = g as u32 + 1;
        }
    }

    /// Directory searches one tuple costs: Σ⌈log₂|dᵢ|⌉, a one-value
    /// directory counting as one probe.
    fn comparisons_per_tuple(&self) -> u64 {
        self.values
            .iter()
            .map(|d| u64::from((d.len().max(2) - 1).ilog2() + 1))
            .sum()
    }
}

/// The groups of map aggregation in discovery order: per group its key
/// images, its accumulator slots and a copy of its first record (to decode
/// the group's attribute values for the output).
struct MapGroups {
    dir: MapDirectory,
    images: Vec<i64>,
    accums: Vec<Accum>,
    representatives: Vec<u8>,
    /// Record width (known once a group exists).
    width: usize,
    regs: Vec<f64>,
    tuples: u64,
}

impl MapGroups {
    fn new(agg: &CompiledAgg) -> Self {
        MapGroups {
            dir: MapDirectory::new(agg.group_keys.len()),
            images: Vec::new(),
            accums: Vec::new(),
            representatives: Vec::new(),
            width: 0,
            regs: agg.program.frame(),
            tuples: 0,
        }
    }

    /// The group of the tuple with key images `image(i)`, entered with
    /// `record` as its representative when it is the group's first.
    #[inline(always)]
    fn group(&mut self, agg: &CompiledAgg, image: impl Fn(usize) -> i64, record: &[u8]) -> usize {
        let offset = self.dir.offset(&image, &self.images);
        match self.dir.cells[offset] {
            0 => {
                let k = agg.group_keys.len();
                let g = self.images.len() / k;
                self.images.extend((0..k).map(image));
                self.accums.extend(agg.fresh_accums());
                self.representatives.extend_from_slice(record);
                self.width = record.len();
                self.dir.cells[offset] = g as u32 + 1;
                g
            }
            cell => cell as usize - 1,
        }
    }

    #[inline(always)]
    fn update(&mut self, agg: &CompiledAgg, record: &[u8]) {
        self.tuples += 1;
        let g = self.group(agg, |i| agg.group_keys[i].as_i64(record), record);
        let s = agg.slots();
        agg.update_all(&mut self.regs, &mut self.accums[g * s..(g + 1) * s], record);
    }

    /// Fold a later chunk's groups in; the earlier representative wins.
    fn combine(&mut self, agg: &CompiledAgg, other: &MapGroups) {
        self.tuples += other.tuples;
        let (k, s, ts) = (agg.group_keys.len(), agg.slots(), other.width);
        for (g, images) in other.images.chunks_exact(k).enumerate() {
            let rep = &other.representatives[g * ts..(g + 1) * ts];
            let merged = self.group(agg, |i| images[i], rep);
            let local = &other.accums[g * s..(g + 1) * s];
            for (a, l) in self.accums[merged * s..(merged + 1) * s]
                .iter_mut()
                .zip(local)
            {
                a.combine(l);
            }
        }
    }

    /// One output row per group, in offset order of the sorted directories
    /// (= lexicographic order of the groups' key images), charging the
    /// scan's work to `stats`: every tuple searched every final directory.
    fn emit(&self, agg: &CompiledAgg, stats: &mut ExecStats) -> Vec<Row> {
        stats.tuples_processed += self.tuples;
        stats.bytes_touched += self.tuples * self.width as u64;
        stats.comparisons += self.tuples * self.dir.comparisons_per_tuple();
        let (k, s, ts) = (agg.group_keys.len(), agg.slots(), self.width);
        let mut order: Vec<usize> = (0..self.images.len() / k).collect();
        order.sort_unstable_by_key(|&g| &self.images[g * k..(g + 1) * k]);
        order
            .into_iter()
            .map(|g| {
                let rep = &self.representatives[g * ts..(g + 1) * ts];
                agg.finish_row(agg.group_values(rep), &self.accums[g * s..(g + 1) * s])
            })
            .collect()
    }
}

impl CompiledAgg {
    /// Instantiate the aggregation templates for `spec` over `input_schema`.
    pub fn compile(spec: &AggregateSpec, input_schema: &Schema) -> Result<Self> {
        Ok(CompiledAgg {
            group_keys: spec
                .group_columns
                .iter()
                .map(|&c| CompiledKey::compile(input_schema, c))
                .collect(),
            program: AggProgram::compile(spec, input_schema)?,
        })
    }

    /// Number of aggregates.
    pub fn num_aggregates(&self) -> usize {
        self.program.layout().num_aggregates()
    }

    /// The aggregate program — exposed so alternative back ends (the
    /// bytecode VM) lower the *same* DAG and slots instead of re-deriving
    /// them from the plan.
    pub fn program(&self) -> &AggProgram {
        &self.program
    }

    /// Accumulator slots per group.
    fn slots(&self) -> usize {
        self.program.layout().slots().len()
    }

    fn fresh_accums(&self) -> Vec<Accum> {
        vec![Accum::new(); self.slots()]
    }

    /// Fold `record` into its group's slots: the one place aggregate
    /// arguments are evaluated, once per distinct DAG node.
    #[inline(always)]
    fn update_all(&self, regs: &mut [f64], accums: &mut [Accum], record: &[u8]) {
        self.program.eval(record, regs);
        self.program
            .layout()
            .accumulate(accums, |r| regs[r as usize]);
    }

    fn group_values(&self, record: &[u8]) -> Vec<Value> {
        self.group_keys.iter().map(|k| k.value(record)).collect()
    }

    fn finish_row(&self, group: Vec<Value>, accums: &[Accum]) -> Row {
        let mut values = group;
        let layout = self.program.layout();
        values.extend((0..layout.num_aggregates()).map(|i| layout.finish(i, accums)));
        Row::new(values)
    }

    // ---- Resident-input kernels ------------------------------------------
    //
    // Each divides its work across `pool`; a serial pool runs the same code
    // inline, which is the serial form.

    /// Sort aggregation: the input must already be ordered on the grouping
    /// columns (each partition independently); a single linear scan per
    /// partition detects group boundaries.
    ///
    /// Each partition's groups are found and accumulated entirely by one
    /// task and the per-partition row vectors are concatenated in partition
    /// order, so the output — including floating-point accumulation order —
    /// is the same for every pool width.  A global aggregate (no grouping
    /// columns) is one group spanning every partition and is scanned
    /// serially.
    pub fn sort_aggregate(
        &self,
        input: &StagedRelation,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            let mut group = GlobalGroup::new(self);
            for rec in input.records() {
                group.update(self, rec);
            }
            return group.finish(self, stats);
        }
        let ts = input.tuple_size();
        let results: Vec<(Vec<Row>, ExecStats)> = pool.map(input.num_partitions(), |p| {
            let mut local = ExecStats::new();
            let mut rows = Vec::new();
            self.sort_aggregate_partition(input.partition(p), ts, &mut local, &mut rows);
            (rows, local)
        });
        let mut out = Vec::new();
        for (rows, local) in results {
            stats.merge(&local);
            out.extend(rows);
        }
        out
    }

    /// Linear group-boundary scan over one sorted partition, appending one
    /// output row per group.  Groups never span partitions (hash or fine
    /// partitioning is on a grouping attribute), so partitions aggregate
    /// independently — the unit of work of the partition-parallel mode.
    fn sort_aggregate_partition(
        &self,
        buf: &[u8],
        ts: usize,
        stats: &mut ExecStats,
        out: &mut Vec<Row>,
    ) {
        let n = buf.len() / ts;
        if n == 0 {
            return;
        }
        let mut regs = self.program.frame();
        let mut accums = self.fresh_accums();
        let mut group_start = 0usize;
        for i in 0..n {
            let rec = &buf[i * ts..(i + 1) * ts];
            stats.tuples_processed += 1;
            stats.bytes_touched += ts as u64;
            if i > group_start {
                let prev = &buf[(i - 1) * ts..i * ts];
                stats.comparisons += self.group_keys.len() as u64;
                if compare_keys(&self.group_keys, prev, rec) != std::cmp::Ordering::Equal {
                    out.push(self.finish_row(self.group_values(prev), &accums));
                    accums.fill(Accum::new());
                    group_start = i;
                }
            }
            self.update_all(&mut regs, &mut accums, rec);
        }
        let last = &buf[(n - 1) * ts..n * ts];
        out.push(self.finish_row(self.group_values(last), &accums));
    }

    /// Hybrid hash-sort aggregation: partition on the first grouping column,
    /// sort each partition on all grouping columns, then scan (paper §V-B),
    /// with the scatter, the per-partition sorts and the per-partition scans
    /// divided across `pool`.
    ///
    /// The scatter chunks each source partition's records in scan order and
    /// concatenates the per-chunk buckets in chunk order, so every staged
    /// partition holds its records in exactly the serial scatter order; the
    /// sorts are stable and the scans partition-local, making the result
    /// (including float accumulation) the same for every pool width.
    pub fn hybrid_aggregate(
        &self,
        input: &StagedRelation,
        partitions: usize,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.sort_aggregate(input, pool, stats);
        }
        let first = self.group_keys[0];
        let m = partitions.max(1);
        let mut staged = if input.num_partitions() == m {
            input.clone()
        } else {
            stats.partition_passes += 1;
            let parts = par_scatter(input, first, m, pool, stats);
            stats.add_materialized(parts.iter().map(|p| p.len()).sum());
            StagedRelation::from_partitions(input.schema().clone(), parts)
        };
        stats.sort_passes += staged.num_partitions() as u64;
        staged.sort_all(&self.group_keys, pool);
        self.sort_aggregate(&staged, pool, stats)
    }

    /// Map aggregation: one value directory per grouping attribute maps each
    /// tuple to an offset in a dense array; a single scan, no staging
    /// (paper §V-B, Figure 4).  The directories grow on first occurrence
    /// during that scan ([`MapDirectory`]) — the paper assumes the domains
    /// are known from the catalogue; here they are discovered as they
    /// appear, without a second look at the input.
    ///
    /// The scan divides across `pool`: workers process contiguous record
    /// chunks (deterministic chunking) into thread-local directories and
    /// groups, merged in chunk order — the union of the directories,
    /// [`Accum::combine`] of the slots, the lowest-index representative —
    /// so groups, representatives and integer aggregates are the same for
    /// every pool width, while SUM/AVG re-associate floating-point addition
    /// deterministically per width (DESIGN.md §7).
    pub fn map_aggregate(
        &self,
        input: &StagedRelation,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        stats.add_calls(1);
        let ts = input.tuple_size();
        let ranges = chunk_ranges(input.num_records(), pool.threads());

        if self.group_keys.is_empty() {
            let chunks: Vec<GlobalGroup> = pool.map_items(&ranges, |_, range| {
                let mut group = GlobalGroup::new(self);
                for run in input.packed_runs(range.clone()) {
                    for rec in run.chunks_exact(ts) {
                        group.update(self, rec);
                    }
                }
                group
            });
            let mut group = GlobalGroup::new(self);
            for chunk in &chunks {
                group.combine(chunk);
            }
            return group.finish(self, stats);
        }

        let chunks: Vec<MapGroups> = pool.map_items(&ranges, |_, range| {
            let mut groups = MapGroups::new(self);
            for run in input.packed_runs(range.clone()) {
                for rec in run.chunks_exact(ts) {
                    groups.update(self, rec);
                }
            }
            groups
        });
        let mut chunks = chunks.into_iter();
        let mut groups = chunks.next().unwrap_or_else(|| MapGroups::new(self));
        for chunk in chunks {
            groups.combine(self, &chunk);
        }
        groups.emit(self, stats)
    }

    // ---- Page-at-a-time stream kernels -----------------------------------
    //
    // The stream entry points consume a spilled (or memory) relation through
    // the pipeline substrate's `PartitionSet`: records arrive one pinned
    // pool page at a time and are never re-materialized as a whole
    // partition.  They run the *serial* accumulation order, so a budgeted
    // execution is identical for every thread count (and agrees with the
    // unbudgeted kernels up to the documented SUM/AVG re-association of the
    // parallel map path).

    /// [`CompiledAgg::sort_aggregate`] over a partition-sorted stream: the
    /// linear group-boundary scan, keeping only the previous record (not
    /// the partition) resident.
    pub fn sort_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let mut out = Vec::new();
        for stream in set.streams() {
            let ts = stream.tuple_size();
            let mut prev: Vec<u8> = Vec::new();
            let mut regs = self.program.frame();
            let mut accums = self.fresh_accums();
            let mut in_group = false;
            stream.for_each_record(|rec| {
                stats.tuples_processed += 1;
                stats.bytes_touched += ts as u64;
                if in_group {
                    stats.comparisons += self.group_keys.len() as u64;
                    if compare_keys(&self.group_keys, &prev, rec) != std::cmp::Ordering::Equal {
                        out.push(self.finish_row(self.group_values(&prev), &accums));
                        accums.fill(Accum::new());
                    }
                }
                self.update_all(&mut regs, &mut accums, rec);
                prev.clear();
                prev.extend_from_slice(rec);
                in_group = true;
            })?;
            if in_group {
                out.push(self.finish_row(self.group_values(&prev), &accums));
            }
        }
        Ok(out)
    }

    /// [`CompiledAgg::map_aggregate`] over a stream: the same single scan,
    /// walking the pages once; only the directories, the groups' slots and
    /// one representative record per group stay resident.
    pub fn map_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let mut groups = MapGroups::new(self);
        set.for_each_record(|rec| groups.update(self, rec))?;
        Ok(groups.emit(self, stats))
    }

    /// [`CompiledAgg::hybrid_aggregate`] over a stream: one streaming
    /// scatter pass hash-partitions the records on the first grouping
    /// column, then the partitions sort and scan as resident input
    /// (deterministic for any pool width).
    pub fn hybrid_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        schema: &Schema,
        partitions: usize,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let first = self.group_keys[0];
        let m = partitions.max(1);
        stats.partition_passes += 1;
        let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
        set.for_each_record(|rec| {
            stats.hash_ops += 1;
            parts[(first.hash(rec) as usize) % m].extend_from_slice(rec);
        })?;
        stats.add_materialized(parts.iter().map(|p| p.len()).sum());
        let mut staged = StagedRelation::from_partitions(schema.clone(), parts);
        stats.sort_passes += staged.num_partitions() as u64;
        staged.sort_all(&self.group_keys, pool);
        Ok(self.sort_aggregate(&staged, pool, stats))
    }

    /// Global aggregate (no grouping columns) over a stream: one pass, one
    /// accumulator set.
    fn global_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        let mut group = GlobalGroup::new(self);
        set.for_each_record(|rec| group.update(self, rec))?;
        Ok(group.finish(self, stats))
    }
}

/// Hash-scatter `rel`'s records into `m` buckets across `pool`,
/// reproducing the serial scatter order: tasks are (partition, record
/// range) chunks in partition-major scan order and each bucket
/// concatenates the per-task buckets in that order.
fn par_scatter(
    rel: &StagedRelation,
    key: CompiledKey,
    m: usize,
    pool: &ScopedPool,
    stats: &mut ExecStats,
) -> Vec<Vec<u8>> {
    let ts = rel.tuple_size();
    let mut tasks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for p in 0..rel.num_partitions() {
        for range in chunk_ranges(rel.partition_len(p), pool.threads()) {
            tasks.push((p, range));
        }
    }
    let locals: Vec<(Vec<Vec<u8>>, u64)> = pool.map_items(&tasks, |_, (p, range)| {
        let buf = &rel.partition(*p)[range.start * ts..range.end * ts];
        let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
        let mut hashes = 0u64;
        for rec in buf.chunks_exact(ts) {
            hashes += 1;
            parts[(key.hash(rec) as usize) % m].extend_from_slice(rec);
        }
        (parts, hashes)
    });
    // The first task's buckets become the result (a serial pool over an
    // unpartitioned input has no other task, so nothing is copied twice).
    let mut locals = locals.into_iter();
    let (mut parts, hashes) = locals.next().unwrap_or_else(|| (vec![Vec::new(); m], 0));
    stats.add_hashes(hashes);
    for (local_parts, hashes) in locals {
        stats.add_hashes(hashes);
        for (bucket, local) in parts.iter_mut().zip(&local_parts) {
            bucket.extend_from_slice(local);
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CompiledExpr;
    use hique_plan::AggAlgorithm;
    use hique_sql::analyze::{BoundAggregate, ScalarExpr};
    use hique_sql::ast::{AggFunc, BinOp};
    use hique_types::{result::sort_rows, Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("g1", DataType::Int32),
            Column::new("g2", DataType::Char(1)),
            Column::new("v", DataType::Float64),
        ])
    }

    fn relation(n: usize) -> StagedRelation {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32((i % 5) as i32),
                    Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
                    Value::Float64((i % 10) as f64),
                ])
            })
            .collect();
        StagedRelation::from_rows(schema(), &rows).unwrap()
    }

    fn spec() -> AggregateSpec {
        AggregateSpec {
            group_columns: vec![0, 1],
            aggregates: vec![
                BoundAggregate {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Count,
                    arg: None,
                    dtype: DataType::Int64,
                },
                BoundAggregate {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::Binary {
                        op: BinOp::Mul,
                        left: Box::new(ScalarExpr::Column {
                            index: 2,
                            dtype: DataType::Float64,
                        }),
                        right: Box::new(ScalarExpr::Literal(Value::Int32(2))),
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Min,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
            ],
            algorithm: AggAlgorithm::Map,
            group_domain_sizes: vec![5, 2],
        }
    }

    fn normalized(mut rows: Vec<Row>) -> Vec<Row> {
        sort_rows(&mut rows, &[(0, true), (1, true)]);
        rows
    }

    #[test]
    fn all_three_algorithms_agree() {
        let input = relation(1000);
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        assert_eq!(compiled.num_aggregates(), 5);
        let pool = ScopedPool::serial();

        let mut s1 = ExecStats::new();
        let mut sorted_input = input.clone();
        sorted_input.sort_all(
            &[
                CompiledKey::compile(input.schema(), 0),
                CompiledKey::compile(input.schema(), 1),
            ],
            &pool,
        );
        let sort_res = normalized(compiled.sort_aggregate(&sorted_input, &pool, &mut s1));

        let mut s2 = ExecStats::new();
        let hybrid_res = normalized(compiled.hybrid_aggregate(&input, 16, &pool, &mut s2));

        let mut s3 = ExecStats::new();
        let map_res = normalized(compiled.map_aggregate(&input, &pool, &mut s3));

        assert_eq!(sort_res.len(), 10);
        assert_eq!(sort_res, hybrid_res);
        assert_eq!(sort_res, map_res);
        // Group (0, "A"): i in {0,10,20,...,990} intersect i%5==0 and even ->
        // i % 10 == 0, 100 rows, each v = 0.0.
        let g0a = &sort_res[0];
        assert_eq!(g0a.get(0), &Value::Int32(0));
        assert_eq!(g0a.get(1), &Value::Str("A".into()));
        assert_eq!(g0a.get(2), &Value::Float64(0.0));
        assert_eq!(g0a.get(3), &Value::Int64(100));
        assert!(s2.sort_passes > 0);
        assert!(s3.comparisons > 0);
    }

    fn global_spec() -> AggregateSpec {
        let mut s = spec();
        s.group_columns = vec![];
        s.group_domain_sizes = vec![];
        s
    }

    #[test]
    fn global_aggregate_without_groups() {
        let input = relation(100);
        let compiled = CompiledAgg::compile(&global_spec(), input.schema()).unwrap();
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        for rows in [
            compiled.map_aggregate(&input, &pool, &mut stats),
            compiled.sort_aggregate(&input, &pool, &mut stats),
            compiled.hybrid_aggregate(&input, 4, &pool, &mut stats),
        ] {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].get(1), &Value::Int64(100));
        }
    }

    #[test]
    fn empty_input_produces_no_groups_at_any_pool_width() {
        // The PR-1 bug class × N threads: zero rows in must be zero rows out
        // on every kernel, grouped or global.
        let input = StagedRelation::new(schema());
        for s in [spec(), global_spec()] {
            let compiled = CompiledAgg::compile(&s, input.schema()).unwrap();
            for threads in [1, 2, 4, 16] {
                let pool = ScopedPool::new(threads);
                let mut stats = ExecStats::new();
                assert!(compiled
                    .sort_aggregate(&input, &pool, &mut stats)
                    .is_empty());
                assert!(compiled
                    .hybrid_aggregate(&input, 4, &pool, &mut stats)
                    .is_empty());
                assert!(compiled.map_aggregate(&input, &pool, &mut stats).is_empty());
            }
        }
        // And a non-empty global aggregate still yields exactly one row.
        let filled = relation(100);
        let compiled = CompiledAgg::compile(&global_spec(), filled.schema()).unwrap();
        let rows = compiled.map_aggregate(&filled, &ScopedPool::new(4), &mut ExecStats::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(100));
    }

    #[test]
    fn every_algorithm_is_identical_across_pool_widths() {
        let input = relation(1000);
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        let group_keys = [
            CompiledKey::compile(input.schema(), 0),
            CompiledKey::compile(input.schema(), 1),
        ];
        // Sort aggregation over a partitioned, per-partition-sorted input.
        let mut staged = {
            let mut s = ExecStats::new();
            let parts = super::par_scatter(&input, group_keys[0], 8, &ScopedPool::serial(), &mut s);
            StagedRelation::from_partitions(input.schema().clone(), parts)
        };
        staged.sort_all(&group_keys, &ScopedPool::serial());
        let run = |threads: usize| {
            let pool = ScopedPool::new(threads);
            let (mut s, mut h, mut m) = (ExecStats::new(), ExecStats::new(), ExecStats::new());
            let sort = compiled.sort_aggregate(&staged, &pool, &mut s);
            let hybrid = compiled.hybrid_aggregate(&input, 16, &pool, &mut h);
            // Map: thread-local arrays merged with the combine logic.  The
            // test values are integer-valued floats, so even the SUM/AVG
            // accumulators match exactly here.
            let map = compiled.map_aggregate(&input, &pool, &mut m);
            ((sort, s), (hybrid, h), (map, m))
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            // Partitions aggregate independently and the scatter, the sorts
            // and the scans are order-preserving: rows and stats both match.
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_groups() {
        // 2 groups (g2 only), 16 threads: the merge must not invent or drop
        // groups when most thread-locals stay empty.
        let input = relation(500);
        let mut s = spec();
        s.group_columns = vec![1];
        s.group_domain_sizes = vec![2];
        let compiled = CompiledAgg::compile(&s, input.schema()).unwrap();
        let (serial, wide) = (ScopedPool::serial(), ScopedPool::new(16));
        let mut st = ExecStats::new();
        let expected = normalized(compiled.map_aggregate(&input, &serial, &mut st));
        assert_eq!(expected.len(), 2);
        let map = normalized(compiled.map_aggregate(&input, &wide, &mut st));
        assert_eq!(map, expected);
        let hybrid = normalized(compiled.hybrid_aggregate(&input, 8, &wide, &mut st));
        assert_eq!(hybrid, expected);
    }

    #[test]
    fn skew_into_one_group() {
        // Every record in one group: a single partition/offset receives all
        // updates from every worker.
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(1),
                    Value::Str("A".into()),
                    Value::Float64((i % 10) as f64),
                ])
            })
            .collect();
        let input = StagedRelation::from_rows(schema(), &rows).unwrap();
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        let (serial, wide) = (ScopedPool::serial(), ScopedPool::new(4));
        let expected = compiled.map_aggregate(&input, &serial, &mut ExecStats::new());
        assert_eq!(expected.len(), 1);
        assert_eq!(expected[0].get(3), &Value::Int64(600));
        let map = compiled.map_aggregate(&input, &wide, &mut ExecStats::new());
        assert_eq!(map, expected);
        let hybrid = compiled.hybrid_aggregate(&input, 8, &wide, &mut ExecStats::new());
        assert_eq!(hybrid, expected);
    }

    #[test]
    fn string_min_max_rejected() {
        let mut s = spec();
        s.aggregates.push(BoundAggregate {
            func: AggFunc::Min,
            arg: Some(ScalarExpr::Column {
                index: 1,
                dtype: DataType::Char(1),
            }),
            dtype: DataType::Char(1),
        });
        assert!(CompiledAgg::compile(&s, &schema()).is_err());
    }

    // ---- Single-pass map aggregation ≡ the two-pass form ------------------

    /// The map aggregation this crate shipped before the single scan, kept
    /// as the oracle: a directory pre-pass over every record, sealed
    /// directories, dense per-chunk arrays of four-field accumulators fed
    /// by tree-walking argument evaluation, merged in chunk order onto
    /// fresh arrays, one row per occupied offset.
    fn two_pass_map_aggregate(
        spec: &AggregateSpec,
        input: &StagedRelation,
        threads: usize,
    ) -> (Vec<Row>, ExecStats) {
        #[derive(Clone, Copy)]
        struct Old {
            sum: f64,
            count: i64,
            min: f64,
            max: f64,
        }
        let fresh = Old {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        let keys: Vec<CompiledKey> = spec
            .group_columns
            .iter()
            .map(|&c| CompiledKey::compile(input.schema(), c))
            .collect();
        let args: Vec<Option<CompiledExpr>> = spec
            .aggregates
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| CompiledExpr::compile(e, input.schema()).unwrap())
            })
            .collect();
        let records: Vec<&[u8]> = input.records().collect();
        let mut stats = ExecStats::new();
        stats.add_calls(1);

        let mut dirs: Vec<Vec<i64>> = vec![Vec::new(); keys.len()];
        for rec in &records {
            for (d, k) in dirs.iter_mut().zip(&keys) {
                if let Err(pos) = d.binary_search(&k.as_i64(rec)) {
                    d.insert(pos, k.as_i64(rec));
                }
            }
        }
        let mut multipliers = vec![1usize; keys.len()];
        for i in (0..keys.len().saturating_sub(1)).rev() {
            multipliers[i] = multipliers[i + 1] * dirs[i + 1].len().max(1);
        }
        let total: usize = dirs.iter().map(|d| d.len().max(1)).product();

        let mut merged = vec![vec![fresh; args.len()]; total];
        let mut reps: Vec<Option<usize>> = vec![None; total];
        for range in chunk_ranges(records.len(), threads) {
            let mut local = vec![vec![fresh; args.len()]; total];
            let mut local_reps: Vec<Option<usize>> = vec![None; total];
            for ri in range {
                let rec = records[ri];
                stats.add_tuple(rec.len());
                let mut offset = 0usize;
                for ((d, k), m) in dirs.iter().zip(&keys).zip(&multipliers) {
                    stats.comparisons += (d.len().max(2) as f64).log2().ceil() as u64;
                    offset += d.binary_search(&k.as_i64(rec)).unwrap() * m;
                }
                for (acc, arg) in local[offset].iter_mut().zip(&args) {
                    match arg {
                        Some(expr) => {
                            let v = expr.eval(rec);
                            acc.sum += v;
                            acc.count += 1;
                            if v < acc.min {
                                acc.min = v;
                            }
                            if v > acc.max {
                                acc.max = v;
                            }
                        }
                        None => acc.count += 1,
                    }
                }
                local_reps[offset].get_or_insert(ri);
            }
            for (m, l) in merged.iter_mut().zip(&local) {
                for (a, o) in m.iter_mut().zip(l) {
                    a.sum += o.sum;
                    a.count += o.count;
                    if o.min < a.min {
                        a.min = o.min;
                    }
                    if o.max > a.max {
                        a.max = o.max;
                    }
                }
            }
            for (m, l) in reps.iter_mut().zip(&local_reps) {
                if m.is_none() {
                    *m = *l;
                }
            }
        }

        let mut rows = Vec::new();
        for (offset, rep) in reps.iter().enumerate() {
            let Some(ri) = *rep else { continue };
            let mut values: Vec<Value> = keys.iter().map(|k| k.value(records[ri])).collect();
            for (acc, a) in merged[offset].iter().zip(&spec.aggregates) {
                values.push(match a.func {
                    AggFunc::Count => Value::Int64(acc.count),
                    AggFunc::Sum => Value::from_f64(acc.sum, a.dtype),
                    AggFunc::Avg => Value::Float64(acc.sum / acc.count as f64),
                    // Typed since this PR (the old form answered Float64).
                    AggFunc::Min => Value::from_f64(acc.min, a.dtype),
                    AggFunc::Max => Value::from_f64(acc.max, a.dtype),
                });
            }
            rows.push(Row::new(values));
        }
        (rows, stats)
    }

    /// Rows as exact text: floats by bit pattern, every other value with
    /// its variant (`Value`'s own equality compares across numeric types).
    fn exact(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// [`schema`] with a string key wider than its 8-byte image.
    fn wide_schema() -> Schema {
        Schema::new(vec![
            Column::new("g1", DataType::Int32),
            Column::new("g2", DataType::Char(10)),
            Column::new("v", DataType::Float64),
        ])
    }

    /// `(g1, g2, v)` rows.  `g2` repeats its letter eight times and then
    /// spells the record number: records of one letter are one group (the
    /// key image is the first eight bytes) whose output spelling tells
    /// which record represented it.
    fn relation_of(keys: impl Iterator<Item = (i32, char)>) -> StagedRelation {
        let rows: Vec<Row> = keys
            .enumerate()
            .map(|(i, (g1, g2))| {
                Row::new(vec![
                    Value::Int32(g1),
                    Value::Str(format!("{}{:02}", g2.to_string().repeat(8), i % 100)),
                    Value::Float64(i as f64 * 0.125 - 7.0),
                ])
            })
            .collect();
        StagedRelation::from_rows(wide_schema(), &rows).unwrap()
    }

    /// A spec over [`schema`] whose aggregates share nodes and slots.
    fn sharing_spec(group_columns: Vec<usize>) -> AggregateSpec {
        let v = || ScalarExpr::Column {
            index: 2,
            dtype: DataType::Float64,
        };
        let g1 = || ScalarExpr::Column {
            index: 0,
            dtype: DataType::Int32,
        };
        let bin = |op, l: ScalarExpr, r: ScalarExpr| ScalarExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
            dtype: DataType::Float64,
        };
        let one = || ScalarExpr::Literal(Value::Int32(1));
        let disc = || bin(BinOp::Mul, v(), bin(BinOp::Sub, one(), g1()));
        let agg = |func, arg: Option<ScalarExpr>, dtype| BoundAggregate { func, arg, dtype };
        AggregateSpec {
            group_domain_sizes: vec![0; group_columns.len()],
            group_columns,
            aggregates: vec![
                agg(AggFunc::Sum, Some(v()), DataType::Float64),
                agg(AggFunc::Sum, Some(disc()), DataType::Float64),
                agg(
                    AggFunc::Sum,
                    Some(bin(BinOp::Div, disc(), bin(BinOp::Add, one(), g1()))),
                    DataType::Float64,
                ),
                agg(AggFunc::Avg, Some(v()), DataType::Float64),
                agg(AggFunc::Count, None, DataType::Int64),
                agg(AggFunc::Min, Some(g1()), DataType::Int32),
                agg(AggFunc::Max, Some(disc()), DataType::Float64),
                agg(AggFunc::Sum, Some(g1()), DataType::Int64),
            ],
            algorithm: AggAlgorithm::Map,
        }
    }

    fn assert_single_pass_matches_two_pass(spec: &AggregateSpec, input: &StagedRelation) {
        let compiled = CompiledAgg::compile(spec, input.schema()).unwrap();
        for threads in [1, 2, 3, 4, 16] {
            let (rows, stats) = two_pass_map_aggregate(spec, input, threads);
            let mut got_stats = ExecStats::new();
            let got = compiled.map_aggregate(input, &ScopedPool::new(threads), &mut got_stats);
            // Rows, their order, and (through `g2`'s spelling) which record
            // represents each group.
            assert_eq!(exact(&got), exact(&rows), "rows, threads={threads}");
            assert_eq!(got_stats, stats, "stats, threads={threads}");
        }
    }

    #[test]
    fn single_pass_map_aggregation_matches_the_two_pass_form() {
        let mut rng = XorShift(0x5EED_CAFE);
        // Random keys over a small domain: every directory is complete early.
        let random = relation_of((0..3000).map(|_| {
            let r = rng.next();
            ((r % 7) as i32 - 3, (b'A' + (r >> 8) as u8 % 5) as char)
        }));
        // Directories that keep growing until the last record: each record
        // brings a new g1 value (descending, so every insert lands at the
        // front) and the last one a new g2 value.
        let n = 700;
        let growing = relation_of((0..n).map(|i| (n - i, if i + 1 == n { 'Z' } else { 'A' })));
        // One-group skew, and more threads than groups (or records).
        let skew = relation_of((0..600).map(|_| (1, 'A')));
        let tiny = relation_of([(5, 'B'), (5, 'A'), (4, 'B')].into_iter());
        let empty = StagedRelation::new(wide_schema());
        for input in [&random, &growing, &skew, &tiny, &empty] {
            for group_columns in [vec![0, 1], vec![1, 0], vec![1], vec![0]] {
                assert_single_pass_matches_two_pass(&sharing_spec(group_columns), input);
            }
        }
    }

    #[test]
    fn multi_partition_input_chunks_like_the_flat_record_sequence() {
        // `packed_runs` must cut exactly the ranges a flat record vector
        // would: partitions of uneven size, chunk boundaries inside them.
        let flat = relation_of((0..1000).map(|i| (i % 11, (b'A' + (i % 3) as u8) as char)));
        let ts = flat.tuple_size();
        let buf = flat.partition(0);
        let cuts = [0, 13, 13, 400, 1000];
        let parts: Vec<Vec<u8>> = cuts
            .windows(2)
            .map(|w| buf[w[0] * ts..w[1] * ts].to_vec())
            .collect();
        let partitioned = StagedRelation::from_partitions(wide_schema(), parts);
        assert_single_pass_matches_two_pass(&sharing_spec(vec![0, 1]), &partitioned);
    }

    #[test]
    fn streamed_map_aggregation_reads_a_spilled_input_once() {
        use hique_pipeline::SpillContext;
        use hique_storage::{BufferPool, TempSpace};
        use std::sync::Arc;

        let input = relation_of((0..4000).map(|i| (i % 13, (b'A' + (i % 4) as u8) as char)));
        let spec = sharing_spec(vec![0, 1]);
        let compiled = CompiledAgg::compile(&spec, input.schema()).unwrap();
        let (rows, stats) = two_pass_map_aggregate(&spec, &input, 1);

        let mut path = std::env::temp_dir();
        path.push(format!("hique_agg_stream_{}.spill", std::process::id()));
        // Two frames: no page of the first pass could survive to a second.
        let pool = Arc::new(BufferPool::new(2).unwrap());
        let temp = Arc::new(TempSpace::create(Arc::clone(&pool), &path).unwrap());
        let ctx = SpillContext::acquire(&temp, 1).expect("space is free");
        let slot = crate::spill::StagedSlot::stage(
            crate::staging::StagedInput::unpartitioned(input.clone()),
            Some(&ctx),
        )
        .unwrap();
        assert!(slot.is_spilled());
        let pages = slot
            .data_bytes()
            .div_ceil(hique_pipeline::page_data_bytes() / input.tuple_size() * input.tuple_size());

        let before = pool.stats();
        let mut got_stats = ExecStats::new();
        let got = compiled
            .map_aggregate_stream(&slot.partitions(Some(&ctx)).unwrap(), &mut got_stats)
            .unwrap();
        let io = pool.stats().since(&before);
        assert_eq!(exact(&got), exact(&rows));
        assert_eq!(got_stats, stats);
        assert_eq!(
            io.pages_read, pages as u64,
            "one pass over the spilled pages"
        );
        assert_eq!(ctx.meter().peak(), 1);
        drop(slot);
        std::fs::remove_file(&path).ok();
    }
}
