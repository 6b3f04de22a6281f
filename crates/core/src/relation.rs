//! Staged relations: packed arrays of fixed-length records.
//!
//! The holistic engine materializes staged inputs and intermediate results
//! as contiguous byte buffers of fixed-length records ("temporary tables"),
//! optionally divided into partitions.  All operator kernels walk these
//! buffers with `chunks_exact(tuple_size)` — the array access pattern the
//! generated code of the paper relies on for prefetcher-friendly, cache-
//! resident processing.

use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::{PartitionSet, PartitionStream};
use hique_types::{HiqueError, Result, Row, Schema};

use crate::kernel::{compare_keys, CompiledKey};

/// Stable sort of a packed record buffer, by key images.
///
/// A buffer whose records are already in order (TPC-H `lineitem` and
/// `orders` by order key are) is returned as it is, after one pass that
/// allocates nothing.  Otherwise the sort neither moves nor compares
/// records: it extracts one `(order image of the major key, row index)`
/// pair per record, sorts the 16-byte pairs and gathers the records once.
/// The image is the whole key for a single numeric, date or `Char(≤ 8)`
/// column; for multi-column keys and wider strings, equal images fall back
/// to the record comparator ([`compare_keys`]), and the row index breaks the
/// remaining ties — which is what makes the unstable pair sort a stable
/// record sort.
///
/// Stability is load-bearing for the parallel mode: a stable sort of the
/// whole buffer equals chunk-wise stable sorts merged with
/// [`merge_sorted_runs`], so `threads = N` staging produces byte-identical
/// relations to `threads = 1`.
pub(crate) fn sorted_copy(buf: Vec<u8>, ts: usize, keys: &[CompiledKey]) -> Vec<u8> {
    let Some((major, minor)) = keys.split_first() else {
        return buf;
    };
    if buf
        .chunks_exact(ts)
        .is_sorted_by(|a, b| compare_keys(keys, a, b).is_le())
    {
        return buf;
    }
    let record = |i: u32| &buf[i as usize * ts..(i as usize + 1) * ts];
    let mut pairs = major.image_pairs(&buf, ts);
    if major.image_is_exact() && minor.is_empty() {
        pairs.sort_unstable();
    } else {
        // What still has to be compared when two images are equal.
        let rest = if major.image_is_exact() { minor } else { keys };
        pairs.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| compare_keys(rest, record(a.1), record(b.1)))
                .then(a.1.cmp(&b.1))
        });
    }
    let mut sorted = Vec::with_capacity(buf.len());
    for &(_, i) in &pairs {
        sorted.extend_from_slice(record(i));
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

    /// Page-at-a-time read views of every partition, in partition order —
    /// the input every aggregation kernel reads.
    pub fn partitions(&self) -> PartitionSet<'_> {
        let ts = self.tuple_size;
        PartitionSet::new(
            self.partitions
                .iter()
                .map(|p| PartitionStream::mem(p, ts))
                .collect(),
        )
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
    /// partitions": every sort goes through `sorted_copy`'s key-image
    /// sort, which leaves an already ordered partition as it is.
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
                        sorted_copy(buf[r.start * ts..r.end * ts].to_vec(), ts, keys)
                    });
                *buf = merge_sorted_runs(runs, ts, keys);
                return;
            }
        }
        let parts = std::mem::take(&mut self.partitions);
        self.partitions = pool.map_owned(parts, |_, buf| sorted_copy(buf, ts, keys));
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
        let whole = sorted_copy(rel.partition(0).to_vec(), ts, &[key(&rel)]);
        for chunks in [1, 2, 3, 4, 7] {
            let runs: Vec<Vec<u8>> = chunk_ranges(rows.len(), chunks)
                .into_iter()
                .map(|r| {
                    sorted_copy(
                        rel.partition(0)[r.start * ts..r.end * ts].to_vec(),
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

    /// The comparator sort `sorted_copy` replaced: the reference the
    /// key-image sort must equal byte for byte, stability included.
    fn comparator_sort(buf: &[u8], ts: usize, keys: &[CompiledKey]) -> Vec<u8> {
        let mut recs: Vec<&[u8]> = buf.chunks_exact(ts).collect();
        recs.sort_by(|a, b| compare_keys(keys, a, b));
        recs.concat()
    }

    #[test]
    fn key_image_sort_equals_the_comparator_sort() {
        // Every key type, with the values an image can get wrong: extremes,
        // signed zeros, NaNs of both signs, infinities, bytes ≥ 0x80,
        // `Char(12)` keys that share their eight-byte image.  `seq` makes
        // every record distinct, so a stability violation changes bytes.
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("l", DataType::Int64),
            Column::new("d", DataType::Date),
            Column::new("f", DataType::Float64),
            Column::new("c3", DataType::Char(3)),
            Column::new("c12", DataType::Char(12)),
            Column::new("seq", DataType::Int32),
        ]);
        let ints = [i32::MIN, -5, -1, 0, 1, 7, i32::MAX];
        let longs = [i64::MIN, -(1 << 40), -1, 0, 1, 1 << 40, i64::MAX];
        let floats = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let shorts = ["", "a", "ab", "b", "\u{e9}", "\u{7f}"];
        let longs12 = [
            "",
            "prefix01",
            "prefix01A",
            "prefix01B",
            "prefix02",
            "\u{e9}\u{e9}",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let rows: Vec<Row> = (0..500)
            .map(|seq| {
                Row::new(vec![
                    Value::Int32(ints[next() % ints.len()]),
                    Value::Int64(longs[next() % longs.len()]),
                    Value::Date(ints[next() % ints.len()]),
                    Value::Float64(floats[next() % floats.len()]),
                    Value::Str(shorts[next() % shorts.len()].into()),
                    Value::Str(longs12[next() % longs12.len()].into()),
                    Value::Int32(seq),
                ])
            })
            .collect();
        let rel = StagedRelation::from_rows(schema.clone(), &rows).unwrap();
        let (buf, ts) = (rel.partition(0), rel.tuple_size());
        let key = |c: usize| CompiledKey::compile(&schema, c);
        let key_sets: Vec<Vec<CompiledKey>> = (0..6)
            .map(|c| vec![key(c)])
            .chain([
                vec![key(0), key(3)],
                vec![key(5), key(4)],
                vec![key(4), key(5), key(1)],
                vec![],
            ])
            .collect();
        for keys in &key_sets {
            let expected = comparator_sort(buf, ts, keys);
            assert_eq!(sorted_copy(buf.to_vec(), ts, keys), expected, "{keys:?}");
            // Already sorted (returned as is), reverse-sorted, and every
            // prefix down to the empty and single-record buffers.
            assert_eq!(
                sorted_copy(expected.clone(), ts, keys),
                expected,
                "{keys:?} sorted"
            );
            let reversed: Vec<u8> = expected.chunks_exact(ts).rev().flatten().copied().collect();
            assert_eq!(
                sorted_copy(reversed.clone(), ts, keys),
                comparator_sort(&reversed, ts, keys),
                "{keys:?} reversed"
            );
            for n in [0, 1, 2, 17] {
                assert_eq!(
                    sorted_copy(buf[..n * ts].to_vec(), ts, keys),
                    comparator_sort(&buf[..n * ts], ts, keys),
                    "{keys:?} first {n}"
                );
            }
        }
        // All-equal keys: the sort must be the identity.
        let equal: Vec<Row> = (0..50)
            .map(|seq| {
                let mut values = rows[0].values().to_vec();
                values[6] = Value::Int32(seq);
                Row::new(values)
            })
            .collect();
        let rel = StagedRelation::from_rows(schema.clone(), &equal).unwrap();
        for keys in &key_sets {
            assert_eq!(
                sorted_copy(rel.partition(0).to_vec(), ts, keys),
                rel.partition(0),
                "{keys:?} all equal"
            );
        }
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
