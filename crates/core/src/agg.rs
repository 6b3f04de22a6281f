//! Aggregation kernels: sort, hybrid hash-sort and map aggregation over
//! packed record buffers (paper §V-B).
//!
//! The kernels are instantiated with compiled group-key accessors and
//! compiled aggregate argument expressions, so the per-tuple work is a few
//! primitive reads, arithmetic operations and accumulator updates — no
//! function calls, no boxed values (those appear only when the handful of
//! result groups is converted to output rows).

use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::PartitionSet;
use hique_plan::AggregateSpec;
use hique_sql::ast::AggFunc;
use hique_types::{DataType, ExecStats, HiqueError, Result, Row, Schema, Value};

use crate::kernel::{compare_keys, CompiledExpr, CompiledKey};
use crate::relation::StagedRelation;

/// A compiled aggregation: group-key accessors + per-aggregate argument
/// kernels, instantiated against the input relation's schema.
#[derive(Debug, Clone)]
pub struct CompiledAgg {
    group_keys: Vec<CompiledKey>,
    funcs: Vec<AggFunc>,
    args: Vec<Option<CompiledExpr>>,
    dtypes: Vec<DataType>,
}

/// Fixed-size numeric accumulator (one per aggregate per group), shared by
/// the compiled kernels and the bytecode interpreter so both finish every
/// aggregate function the same way.
#[derive(Debug, Clone, Copy)]
pub struct Accum {
    sum: f64,
    count: i64,
    min: f64,
    max: f64,
}

impl Default for Accum {
    fn default() -> Self {
        Accum::new()
    }
}

impl Accum {
    /// The empty accumulator.
    pub fn new() -> Self {
        Accum {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one argument value in.
    #[inline(always)]
    pub fn update(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Count one tuple of an argument-less aggregate (`COUNT(*)`).
    #[inline(always)]
    pub fn update_count_only(&mut self) {
        self.count += 1;
    }

    /// Fold another accumulator into this one (the combine step of the
    /// thread-local aggregation merge).  COUNT/MIN/MAX combine exactly; SUM
    /// (and AVG through it) re-associates the floating-point addition, which
    /// is deterministic for a fixed chunking but may differ from the serial
    /// accumulation order in the final bits (DESIGN.md §7).  Combining onto
    /// a fresh accumulator reproduces `other` bit for bit — which is what
    /// lets a serial pool run the chunked kernels as the serial form.
    #[inline(always)]
    fn combine(&mut self, other: &Accum) {
        self.sum += other.sum;
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The aggregate's result value for `func` with result type `dtype`.
    pub fn finish(&self, func: AggFunc, dtype: DataType) -> Value {
        match func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => match dtype {
                DataType::Int64 => Value::Int64(self.sum as i64),
                DataType::Int32 => Value::Int32(self.sum as i32),
                _ => Value::Float64(self.sum),
            },
            AggFunc::Avg => Value::Float64(if self.count == 0 {
                f64::NAN
            } else {
                self.sum / self.count as f64
            }),
            AggFunc::Min => Value::Float64(self.min),
            AggFunc::Max => Value::Float64(self.max),
        }
    }
}

/// The single group of a global aggregate (no grouping columns): one
/// accumulator set plus the tuples and bytes it has seen.  Empty input
/// yields no group, the convention shared by the iterator and DSM engines.
struct GlobalGroup {
    accums: Vec<Accum>,
    tuples: u64,
    bytes: u64,
}

impl GlobalGroup {
    fn new(agg: &CompiledAgg) -> Self {
        GlobalGroup {
            accums: vec![Accum::new(); agg.funcs.len()],
            tuples: 0,
            bytes: 0,
        }
    }

    #[inline(always)]
    fn update(&mut self, agg: &CompiledAgg, record: &[u8]) {
        self.tuples += 1;
        self.bytes += record.len() as u64;
        agg.update_all(&mut self.accums, record);
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

/// The value directories of map aggregation (paper Figure 4): one sorted
/// array of distinct key images per grouping attribute, and — once sealed —
/// the |M_i| products that turn a tuple's directory positions into its
/// offset in the dense aggregate arrays.
struct MapDirectory {
    values: Vec<Vec<i64>>,
    multipliers: Vec<usize>,
    total: usize,
}

impl MapDirectory {
    fn new(group_keys: usize) -> Self {
        MapDirectory {
            values: vec![Vec::new(); group_keys],
            multipliers: Vec::new(),
            total: 0,
        }
    }

    fn insert(&mut self, attribute: usize, v: i64) {
        let d = &mut self.values[attribute];
        if let Err(pos) = d.binary_search(&v) {
            d.insert(pos, v);
        }
    }

    /// Pre-pass step: enter `record`'s grouping values.
    fn observe(&mut self, keys: &[CompiledKey], record: &[u8]) {
        for (i, k) in keys.iter().enumerate() {
            self.insert(i, k.as_i64(record));
        }
    }

    /// Merge a worker's partial directories in (set union, so the result is
    /// the directory a single pre-pass over all records builds).
    fn absorb(&mut self, partial: &MapDirectory) {
        for (i, d) in partial.values.iter().enumerate() {
            for &v in d {
                self.insert(i, v);
            }
        }
    }

    /// Close the pre-pass: fix the offset formula of Figure 4(b).
    fn seal(&mut self) {
        let n = self.values.len();
        self.multipliers = vec![1usize; n];
        for i in (0..n.saturating_sub(1)).rev() {
            self.multipliers[i] = self.multipliers[i + 1] * self.values[i + 1].len().max(1);
        }
        self.total = self.values.iter().map(|d| d.len().max(1)).product();
    }

    /// Main-pass step: `record`'s offset, counting the directory searches.
    #[inline(always)]
    fn offset(&self, keys: &[CompiledKey], record: &[u8], comparisons: &mut u64) -> usize {
        let mut offset = 0usize;
        for ((d, k), m) in self.values.iter().zip(keys).zip(&self.multipliers) {
            *comparisons += (d.len().max(2) as f64).log2().ceil() as u64;
            let id = d
                .binary_search(&k.as_i64(record))
                .expect("value present in directory");
            offset += id * m;
        }
        offset
    }
}

/// The dense aggregate arrays of map aggregation plus one representative
/// per occupied group (to decode the group's attribute values for the
/// output): a record index when the input is resident, an owned copy when
/// it streams past one page at a time.
struct MapGroups<R> {
    accums: Vec<Vec<Accum>>,
    representative: Vec<Option<R>>,
}

impl<R: Clone> MapGroups<R> {
    fn new(agg: &CompiledAgg, dir: &MapDirectory) -> Self {
        MapGroups {
            accums: vec![vec![Accum::new(); agg.funcs.len()]; dir.total],
            representative: vec![None; dir.total],
        }
    }

    #[inline(always)]
    fn update(
        &mut self,
        agg: &CompiledAgg,
        dir: &MapDirectory,
        record: &[u8],
        stats: &mut ExecStats,
        representative: impl FnOnce() -> R,
    ) {
        stats.add_tuple(record.len());
        let offset = dir.offset(&agg.group_keys, record, &mut stats.comparisons);
        agg.update_all(&mut self.accums[offset], record);
        if self.representative[offset].is_none() {
            self.representative[offset] = Some(representative());
        }
    }

    /// Fold a later chunk's arrays in; the earlier representative wins.
    fn combine(&mut self, other: &MapGroups<R>) {
        for (merged, local) in self.accums.iter_mut().zip(&other.accums) {
            for (a, l) in merged.iter_mut().zip(local) {
                a.combine(l);
            }
        }
        for (merged, local) in self.representative.iter_mut().zip(&other.representative) {
            if merged.is_none() {
                merged.clone_from(local);
            }
        }
    }

    /// One output row per occupied group, in offset order.
    fn emit<'r>(&'r self, agg: &CompiledAgg, record: impl Fn(&'r R) -> &'r [u8]) -> Vec<Row> {
        let mut out = Vec::new();
        for (offset, rep) in self.representative.iter().enumerate() {
            if let Some(rep) = rep {
                out.push(agg.finish_row(agg.group_values(record(rep)), &self.accums[offset]));
            }
        }
        out
    }
}

impl CompiledAgg {
    /// Instantiate the aggregation templates for `spec` over `input_schema`.
    pub fn compile(spec: &AggregateSpec, input_schema: &Schema) -> Result<Self> {
        let group_keys = spec
            .group_columns
            .iter()
            .map(|&c| CompiledKey::compile(input_schema, c))
            .collect();
        let mut funcs = Vec::new();
        let mut args = Vec::new();
        let mut dtypes = Vec::new();
        for a in &spec.aggregates {
            if matches!(a.func, AggFunc::Min | AggFunc::Max) {
                if let Some(arg) = &a.arg {
                    if matches!(arg.dtype(), DataType::Char(_)) {
                        return Err(HiqueError::Codegen(
                            "MIN/MAX over string columns is not supported by the holistic kernels"
                                .into(),
                        ));
                    }
                }
            }
            funcs.push(a.func);
            args.push(match &a.arg {
                Some(e) => Some(CompiledExpr::compile(e, input_schema)?),
                None => None,
            });
            dtypes.push(a.dtype);
        }
        Ok(CompiledAgg {
            group_keys,
            funcs,
            args,
            dtypes,
        })
    }

    /// Number of aggregates.
    pub fn num_aggregates(&self) -> usize {
        self.funcs.len()
    }

    #[inline(always)]
    fn update_all(&self, accums: &mut [Accum], record: &[u8]) {
        for (i, arg) in self.args.iter().enumerate() {
            match arg {
                Some(expr) => accums[i].update(expr.eval(record)),
                None => accums[i].update_count_only(),
            }
        }
    }

    fn group_values(&self, record: &[u8]) -> Vec<Value> {
        self.group_keys.iter().map(|k| k.value(record)).collect()
    }

    fn finish_row(&self, group: Vec<Value>, accums: &[Accum]) -> Row {
        let mut values = group;
        for (i, acc) in accums.iter().enumerate() {
            values.push(acc.finish(self.funcs[i], self.dtypes[i]));
        }
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
        let mut accums = vec![Accum::new(); self.funcs.len()];
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
                    accums = vec![Accum::new(); self.funcs.len()];
                    group_start = i;
                }
            }
            self.update_all(&mut accums, rec);
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
    /// tuple to an offset in dense aggregate arrays; a single scan, no
    /// staging (paper §V-B, Figure 4).  The directories are built in a light
    /// pre-pass over the grouping columns (the paper assumes the domains are
    /// known from the catalogue); the main pass is pure offset arithmetic.
    ///
    /// Both passes divide across `pool`: workers process contiguous record
    /// chunks (deterministic chunking) into thread-local directories and
    /// dense arrays, merged in chunk order — the union of the directories,
    /// [`Accum::combine`] of the arrays, the lowest-index representative —
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
        let records: Vec<&[u8]> = input.records().collect();
        let ranges = chunk_ranges(records.len(), pool.threads());

        if self.group_keys.is_empty() {
            let chunks: Vec<GlobalGroup> = pool.map_items(&ranges, |_, range| {
                let mut group = GlobalGroup::new(self);
                for rec in &records[range.clone()] {
                    group.update(self, rec);
                }
                group
            });
            let mut group = GlobalGroup::new(self);
            for chunk in &chunks {
                group.combine(chunk);
            }
            return group.finish(self, stats);
        }

        let partial_dirs: Vec<MapDirectory> = pool.map_items(&ranges, |_, range| {
            let mut dir = MapDirectory::new(self.group_keys.len());
            for rec in &records[range.clone()] {
                dir.observe(&self.group_keys, rec);
            }
            dir
        });
        let mut dir = MapDirectory::new(self.group_keys.len());
        for partial in &partial_dirs {
            dir.absorb(partial);
        }
        dir.seal();

        // Representatives are global record positions.
        let chunks: Vec<(MapGroups<usize>, ExecStats)> = pool.map_items(&ranges, |_, range| {
            let mut local = ExecStats::new();
            let mut groups = MapGroups::new(self, &dir);
            for ri in range.clone() {
                groups.update(self, &dir, records[ri], &mut local, || ri);
            }
            (groups, local)
        });
        let mut groups = MapGroups::new(self, &dir);
        for (chunk, local) in &chunks {
            stats.merge(local);
            groups.combine(chunk);
        }
        groups.emit(self, |&ri| records[ri])
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
            let mut accums = vec![Accum::new(); self.funcs.len()];
            let mut in_group = false;
            stream.for_each_record(|rec| {
                stats.tuples_processed += 1;
                stats.bytes_touched += ts as u64;
                if in_group {
                    stats.comparisons += self.group_keys.len() as u64;
                    if compare_keys(&self.group_keys, &prev, rec) != std::cmp::Ordering::Equal {
                        out.push(self.finish_row(self.group_values(&prev), &accums));
                        accums = vec![Accum::new(); self.funcs.len()];
                    }
                }
                self.update_all(&mut accums, rec);
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

    /// [`CompiledAgg::map_aggregate`] over a stream: the directory pre-pass
    /// and the offset-arithmetic main pass each walk the pages once; only
    /// the directories, the dense aggregate arrays and one owned
    /// representative record per occupied group stay resident (a stream
    /// cannot hand out borrows).
    pub fn map_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let mut dir = MapDirectory::new(self.group_keys.len());
        set.for_each_record(|rec| dir.observe(&self.group_keys, rec))?;
        dir.seal();
        let mut groups: MapGroups<Vec<u8>> = MapGroups::new(self, &dir);
        set.for_each_record(|rec| groups.update(self, &dir, rec, stats, || rec.to_vec()))?;
        Ok(groups.emit(self, |rep| rep.as_slice()))
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
    use hique_plan::AggAlgorithm;
    use hique_sql::analyze::{BoundAggregate, ScalarExpr};
    use hique_types::{result::sort_rows, Column};

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
                        op: hique_sql::ast::BinOp::Mul,
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
    fn combining_onto_a_fresh_accumulator_is_bit_exact() {
        // What lets a serial pool run the chunked kernels as the serial
        // form: one chunk folded into a fresh accumulator must reproduce the
        // chunk's own bits, signed zeros, infinities and NaN included.
        let cases: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.1, 0.2, 0.3, -0.6],
            &[f64::INFINITY, 1.0],
            &[f64::NAN, 1.0],
        ];
        for values in cases {
            let mut chunk = Accum::new();
            for &v in values {
                chunk.update(v);
            }
            let mut merged = Accum::new();
            merged.combine(&chunk);
            assert_eq!(merged.sum.to_bits(), chunk.sum.to_bits(), "{values:?}");
            assert_eq!(merged.min.to_bits(), chunk.min.to_bits(), "{values:?}");
            assert_eq!(merged.max.to_bits(), chunk.max.to_bits(), "{values:?}");
            assert_eq!(merged.count, chunk.count, "{values:?}");
        }
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

    #[test]
    fn sum_int_and_accumulator_finishes() {
        let mut acc = Accum::new();
        for v in [1.0, 2.0, 5.0] {
            acc.update(v);
        }
        assert_eq!(acc.finish(AggFunc::Sum, DataType::Int64), Value::Int64(8));
        assert_eq!(acc.finish(AggFunc::Sum, DataType::Int32), Value::Int32(8));
        assert_eq!(acc.finish(AggFunc::Count, DataType::Int64), Value::Int64(3));
        assert_eq!(
            acc.finish(AggFunc::Min, DataType::Float64),
            Value::Float64(1.0)
        );
        assert_eq!(
            acc.finish(AggFunc::Max, DataType::Float64),
            Value::Float64(5.0)
        );
        let avg = acc.finish(AggFunc::Avg, DataType::Float64);
        assert!((avg.as_f64().unwrap() - 8.0 / 3.0).abs() < 1e-12);
    }
}
