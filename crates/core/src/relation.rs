//! Staged relations: packed arrays of fixed-length records.
//!
//! The holistic engine materializes staged inputs and intermediate results
//! as contiguous byte buffers of fixed-length records ("temporary tables"),
//! optionally divided into partitions.  All operator kernels walk these
//! buffers with `chunks_exact(tuple_size)` — the array access pattern the
//! generated code of the paper relies on for prefetcher-friendly, cache-
//! resident processing.

use hique_par::{chunk_ranges, ScopedPool};
use hique_types::{HiqueError, Result, Row, Schema};

use crate::kernel::{compare_keys, CompiledKey};

/// Stable-sorted copy of a packed record buffer.
///
/// Stability is load-bearing for the parallel mode: a stable sort of the
/// whole buffer equals chunk-wise stable sorts merged with
/// [`merge_sorted_runs`], so `threads = N` staging produces byte-identical
/// relations to `threads = 1`.
pub(crate) fn sorted_copy(buf: &[u8], ts: usize, keys: &[CompiledKey]) -> Vec<u8> {
    let n = buf.len() / ts;
    if n <= 1 {
        return buf.to_vec();
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by(|&a, &b| {
        let ra = &buf[a as usize * ts..(a as usize + 1) * ts];
        let rb = &buf[b as usize * ts..(b as usize + 1) * ts];
        compare_keys(keys, ra, rb)
    });
    let mut sorted = Vec::with_capacity(buf.len());
    for &i in &idx {
        sorted.extend_from_slice(&buf[i as usize * ts..(i as usize + 1) * ts]);
    }
    sorted
}

/// Merge stable-sorted runs into one sorted buffer, preferring the lowest
/// run index on key ties.
///
/// When the runs are stable-sorted contiguous chunks of one logical buffer
/// (in chunk order), the result is byte-identical to a stable sort of that
/// whole buffer — the mergesort equivalence the parallel sort paths rely on.
pub(crate) fn merge_sorted_runs(
    mut runs: Vec<Vec<u8>>,
    ts: usize,
    keys: &[CompiledKey],
) -> Vec<u8> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    // `live` stays in ascending run order (ties must go to the lowest run)
    // and is pruned as runs drain, so the per-record scan only touches runs
    // that still hold records.  Run counts equal the pool width, so a
    // linear scan beats a loser tree at these sizes.
    let mut live: Vec<usize> = (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect();
    match live.len() {
        0 => return Vec::new(),
        1 => return std::mem::take(&mut runs[live[0]]),
        _ => {}
    }
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(total);
    while !live.is_empty() {
        let mut best = live[0];
        for &r in &live[1..] {
            let rec = &runs[r][cursors[r] * ts..(cursors[r] + 1) * ts];
            let brec = &runs[best][cursors[best] * ts..(cursors[best] + 1) * ts];
            // Strictly-less comparison keeps ties on the lowest run index.
            if compare_keys(keys, rec, brec) == std::cmp::Ordering::Less {
                best = r;
            }
        }
        out.extend_from_slice(&runs[best][cursors[best] * ts..(cursors[best] + 1) * ts]);
        cursors[best] += 1;
        if cursors[best] * ts >= runs[best].len() {
            live.retain(|&r| r != best);
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// A materialized relation: packed records plus optional partitioning.
#[derive(Debug, Clone)]
pub struct StagedRelation {
    schema: Schema,
    tuple_size: usize,
    /// Partitioned record storage; unpartitioned relations use a single
    /// partition 0.
    partitions: Vec<Vec<u8>>,
}

impl StagedRelation {
    /// An empty, unpartitioned relation.
    pub fn new(schema: Schema) -> Self {
        let tuple_size = schema.tuple_size();
        StagedRelation {
            schema,
            tuple_size,
            partitions: vec![Vec::new()],
        }
    }

    /// An empty relation with `n` partitions.
    pub fn with_partitions(schema: Schema, n: usize) -> Self {
        let tuple_size = schema.tuple_size();
        StagedRelation {
            schema,
            tuple_size,
            partitions: vec![Vec::new(); n.max(1)],
        }
    }

    /// Build a relation from pre-filled partition buffers.
    pub fn from_partitions(schema: Schema, partitions: Vec<Vec<u8>>) -> Self {
        let tuple_size = schema.tuple_size();
        let partitions = if partitions.is_empty() {
            vec![Vec::new()]
        } else {
            partitions
        };
        debug_assert!(partitions.iter().all(|p| p.len() % tuple_size == 0));
        StagedRelation {
            schema,
            tuple_size,
            partitions,
        }
    }

    /// The record layout.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Record width in bytes.
    pub fn tuple_size(&self) -> usize {
        self.tuple_size
    }

    /// Number of partitions (1 when unpartitioned).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of records across partitions.
    pub fn num_records(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum::<usize>() / self.tuple_size
    }

    /// Total bytes of record data.
    pub fn data_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Number of records in partition `p`.
    pub fn partition_len(&self, p: usize) -> usize {
        self.partitions[p].len() / self.tuple_size
    }

    /// The packed bytes of partition `p`.
    pub fn partition(&self, p: usize) -> &[u8] {
        &self.partitions[p]
    }

    /// Iterate the records of partition `p`.
    pub fn partition_records(&self, p: usize) -> impl Iterator<Item = &[u8]> {
        self.partitions[p].chunks_exact(self.tuple_size)
    }

    /// Iterate every record across all partitions, partition order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        let ts = self.tuple_size;
        self.partitions.iter().flat_map(move |p| p.chunks_exact(ts))
    }

    /// Records `range` of the partition-order record sequence
    /// [`StagedRelation::records`] yields, as one packed run per partition
    /// the range touches.
    pub fn packed_runs(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &[u8]> {
        let ts = self.tuple_size;
        let (mut skip, mut take) = (range.start * ts, range.len() * ts);
        self.partitions.iter().map(move |p| {
            let start = skip.min(p.len());
            skip -= start;
            let end = (start + take).min(p.len());
            take -= end - start;
            &p[start..end]
        })
    }

    /// Append a record to partition `p`.
    #[inline(always)]
    pub fn push_to(&mut self, p: usize, record: &[u8]) {
        debug_assert_eq!(record.len(), self.tuple_size);
        self.partitions[p].extend_from_slice(record);
    }

    /// Append a record to partition 0 (unpartitioned use).
    #[inline(always)]
    pub fn push(&mut self, record: &[u8]) {
        self.push_to(0, record);
    }

    /// Reserve space in partition 0 for `n` more records.
    pub fn reserve(&mut self, n: usize) {
        self.partitions[0].reserve(n * self.tuple_size);
    }

    /// Sort every partition by `keys` (ascending, major first, stable)
    /// across `pool`.
    ///
    /// This is the engine's "optimized quicksort over cache-fitting
    /// partitions": indices are sorted with the specialized key comparator
    /// and the records gathered into a fresh buffer in one pass.
    /// Multi-partition relations sort one partition per task; a single
    /// partition is chunk-sorted and merged (stable, lowest-chunk ties), so
    /// every pool width produces the serial stable sort byte-for-byte.
    pub fn sort_all(&mut self, keys: &[CompiledKey], pool: &ScopedPool) {
        let ts = self.tuple_size;
        if let [buf] = &mut self.partitions[..] {
            let n = buf.len() / ts;
            if !pool.is_serial() && n > 1 {
                let runs: Vec<Vec<u8>> = pool
                    .map_items(&chunk_ranges(n, pool.threads()), |_, r| {
                        sorted_copy(&buf[r.start * ts..r.end * ts], ts, keys)
                    });
                *buf = merge_sorted_runs(runs, ts, keys);
                return;
            }
        }
        let parts = std::mem::take(&mut self.partitions);
        self.partitions = pool.map_owned(parts, |_, buf| {
            if buf.len() / ts <= 1 {
                buf
            } else {
                sorted_copy(&buf, ts, keys)
            }
        });
    }

    /// Collapse a partitioned relation into a single concatenated partition
    /// (partition order preserved).
    pub fn flatten(&mut self) {
        if self.partitions.len() <= 1 {
            return;
        }
        let total: usize = self.partitions.iter().map(|p| p.len()).sum();
        let mut merged = Vec::with_capacity(total);
        for p in &self.partitions {
            merged.extend_from_slice(p);
        }
        self.partitions = vec![merged];
    }

    /// Decode every record into a [`Row`] (result/test helper — never used
    /// inside operator hot loops).
    pub fn to_rows(&self) -> Vec<Row> {
        self.records()
            .map(|r| Row::from_record(&self.schema, r))
            .collect()
    }

    /// Build an unpartitioned relation from rows (test helper).
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Result<Self> {
        if schema.tuple_size() == 0 {
            return Err(HiqueError::Codegen(
                "cannot stage a relation with a zero-width schema".into(),
            ));
        }
        let mut rel = StagedRelation::new(schema.clone());
        for row in rows {
            let rec = row.to_record(&schema)?;
            rel.push(&rec);
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ])
    }

    fn row(k: i32, v: f64) -> Row {
        Row::new(vec![Value::Int32(k), Value::Float64(v)])
    }

    #[test]
    fn push_and_iterate() {
        let rows: Vec<Row> = (0..10).map(|i| row(i, i as f64)).collect();
        let rel = StagedRelation::from_rows(schema(), &rows).unwrap();
        assert_eq!(rel.num_records(), 10);
        assert_eq!(rel.tuple_size(), 12);
        assert_eq!(rel.data_bytes(), 120);
        assert_eq!(rel.num_partitions(), 1);
        assert_eq!(rel.to_rows(), rows);
        assert_eq!(rel.records().count(), 10);
        assert!(StagedRelation::from_rows(Schema::empty(), &[]).is_err());
    }

    #[test]
    fn partitioned_push_and_flatten() {
        let mut rel = StagedRelation::with_partitions(schema(), 4);
        for i in 0..20 {
            let rec = row(i, 0.0).to_record(&schema()).unwrap();
            rel.push_to((i % 4) as usize, &rec);
        }
        assert_eq!(rel.num_partitions(), 4);
        assert_eq!(rel.partition_len(1), 5);
        assert_eq!(rel.num_records(), 20);
        assert_eq!(rel.partition_records(2).count(), 5);
        rel.flatten();
        assert_eq!(rel.num_partitions(), 1);
        assert_eq!(rel.num_records(), 20);
    }

    #[test]
    fn sort_partition_orders_records() {
        let rows: Vec<Row> = [5, 1, 4, 1, 3]
            .iter()
            .enumerate()
            .map(|(i, &k)| row(k, i as f64))
            .collect();
        let mut rel = StagedRelation::from_rows(schema(), &rows).unwrap();
        let key = CompiledKey::compile(rel.schema(), 0);
        rel.sort_all(&[key], &ScopedPool::serial());
        let sorted: Vec<i32> = rel
            .to_rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as i32)
            .collect();
        assert_eq!(sorted, vec![1, 1, 3, 4, 5]);
        // Multi-key sort: ties on k broken by v descending? (ascending only
        // here; verify stability is not required, just ordering by v).
        let key_v = CompiledKey::compile(rel.schema(), 1);
        let mut rel2 = StagedRelation::from_rows(schema(), &rows).unwrap();
        rel2.sort_all(
            &[CompiledKey::compile(rel2.schema(), 0), key_v],
            &ScopedPool::serial(),
        );
        let pairs: Vec<(i32, f64)> = rel2
            .to_rows()
            .iter()
            .map(|r| {
                (
                    r.get(0).as_i64().unwrap() as i32,
                    r.get(1).as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(pairs[0], (1, 1.0));
        assert_eq!(pairs[1], (1, 3.0));
    }

    #[test]
    fn merge_sorted_runs_equals_stable_sort_of_concatenation() {
        let ts = schema().tuple_size();
        let key = |rel: &StagedRelation| CompiledKey::compile(rel.schema(), 0);
        // Duplicate keys with distinct payloads expose stability violations.
        let keys: Vec<i32> = (0..200).map(|i| (i * 7) % 13).collect();
        let rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| row(k, i as f64))
            .collect();
        let rel = StagedRelation::from_rows(schema(), &rows).unwrap();
        let whole = sorted_copy(rel.partition(0), ts, &[key(&rel)]);
        for chunks in [1, 2, 3, 4, 7] {
            let runs: Vec<Vec<u8>> = chunk_ranges(rows.len(), chunks)
                .into_iter()
                .map(|r| {
                    sorted_copy(
                        &rel.partition(0)[r.start * ts..r.end * ts],
                        ts,
                        &[key(&rel)],
                    )
                })
                .collect();
            assert_eq!(
                merge_sorted_runs(runs.clone(), ts, &[key(&rel)]),
                whole,
                "chunks={chunks}"
            );
        }
        // Degenerate runs: all empty, one non-empty, interleaved empties.
        assert!(merge_sorted_runs(vec![Vec::new(), Vec::new()], ts, &[key(&rel)]).is_empty());
        let single = vec![Vec::new(), whole.clone(), Vec::new()];
        assert_eq!(merge_sorted_runs(single, ts, &[key(&rel)]), whole);
    }

    #[test]
    fn sort_all_is_byte_identical_for_every_pool_width() {
        let rows: Vec<Row> = (0..300).map(|i| row((i * 11) % 23, i as f64)).collect();
        let key = CompiledKey::compile(&schema(), 0);
        // Single partition: chunk-sort + merge path.
        let mut serial = StagedRelation::from_rows(schema(), &rows).unwrap();
        serial.sort_all(&[key], &ScopedPool::serial());
        for threads in [2, 3, 8] {
            let mut par = StagedRelation::from_rows(schema(), &rows).unwrap();
            par.sort_all(&[key], &ScopedPool::new(threads));
            assert_eq!(par.partition(0), serial.partition(0), "threads={threads}");
        }
        // Multi-partition: one task per partition (including empty ones).
        let mut multi = StagedRelation::with_partitions(schema(), 5);
        for (i, r) in rows.iter().enumerate() {
            let rec = r.to_record(&schema()).unwrap();
            multi.push_to(if i % 2 == 0 { 0 } else { 3 }, &rec);
        }
        let mut serial_multi = multi.clone();
        serial_multi.sort_all(&[key], &ScopedPool::serial());
        let mut par_multi = multi.clone();
        par_multi.sort_all(&[key], &ScopedPool::new(4));
        for p in 0..5 {
            assert_eq!(par_multi.partition(p), serial_multi.partition(p), "p={p}");
        }
    }

    #[test]
    fn empty_and_single_record_sorts() {
        let mut rel = StagedRelation::new(schema());
        let key = CompiledKey::compile(rel.schema(), 0);
        rel.sort_all(&[key], &ScopedPool::serial());
        assert_eq!(rel.num_records(), 0);
        rel.push(&row(1, 1.0).to_record(&schema()).unwrap());
        rel.sort_all(&[key], &ScopedPool::serial());
        assert_eq!(rel.num_records(), 1);
    }
}
