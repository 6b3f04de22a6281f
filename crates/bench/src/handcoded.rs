//! Hand-coded query implementations for the Figure 5 / Figure 6 comparison.
//!
//! The paper compares five implementations of each micro-benchmark query:
//! generic iterators, optimized iterators, *generic hard-coded*, *optimized
//! hard-coded* and HIQUE-generated code.  The hard-coded variants are
//! hand-written programs for the specific query:
//!
//! * **generic hard-coded** — no iterator interface, but field access and
//!   predicate evaluation still go through the generic `Value` machinery
//!   (the paper's "generic functions for predicate evaluation and tuple
//!   accesses");
//! * **optimized hard-coded** — direct pointer-arithmetic tuple access
//!   (offset reads of primitives), type-specific comparisons, manual
//!   staging; essentially what the holistic generator emits, written by
//!   hand.

use hique_storage::TableHeap;
use hique_types::tuple::{read_f64_at, read_i32_at};
use hique_types::{ExecStats, Row, Value};

/// Which hand-written variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandVariant {
    /// Generic value-based access and comparisons.
    Generic,
    /// Direct offset access and primitive comparisons.
    Optimized,
}

/// Hand-coded merge join on `key` (column 0) counting output pairs
/// (Join Query #1 of Figure 5: both inputs sorted, then merged).
pub fn merge_join_count(
    outer: &TableHeap,
    inner: &TableHeap,
    variant: HandVariant,
    stats: &mut ExecStats,
) -> u64 {
    join_count(outer, inner, 1, variant, stats)
}

/// Hand-coded hybrid hash-sort-merge join counting output pairs
/// (Join Query #2 of Figure 5): a merge join per hash partition.
pub fn hybrid_join_count(
    outer: &TableHeap,
    inner: &TableHeap,
    partitions: usize,
    variant: HandVariant,
    stats: &mut ExecStats,
) -> u64 {
    join_count(outer, inner, partitions.max(1), variant, stats)
}

fn join_count(
    outer: &TableHeap,
    inner: &TableHeap,
    partitions: usize,
    variant: HandVariant,
    stats: &mut ExecStats,
) -> u64 {
    match variant {
        // Every record decoded into a row; keys read back through `Value`.
        HandVariant::Generic => {
            let schema = outer.schema();
            let decode = |rec: &[u8]| Row::from_record(schema, rec);
            #[expect(
                clippy::expect_used,
                reason = "hand-coded baseline kernels on known workload schemas; panic on shape drift is the desired signal"
            )]
            let key = |row: &Row| row.get(0).as_i64().expect("integer join key");
            staged_join(outer, inner, partitions, stats, decode, key)
        }
        // Only the key is staged, read at its offset and compared as `i32`.
        HandVariant::Optimized => {
            let decode = |rec: &[u8]| read_i32_at(rec, 0);
            staged_join(outer, inner, partitions, stats, decode, |&k| k)
        }
    }
}

/// The one join both variants instantiate: scan each input once into `m`
/// hash partitions (one partition = the plain merge join), sort every
/// partition on the key, merge partition pairs.
fn staged_join<T, K: Ord + Copy + Into<i64>>(
    outer: &TableHeap,
    inner: &TableHeap,
    m: usize,
    stats: &mut ExecStats,
    decode: impl Fn(&[u8]) -> T,
    key: impl Fn(&T) -> K,
) -> u64 {
    let mut stage = |heap: &TableHeap| -> Vec<Vec<T>> {
        let mut parts: Vec<Vec<T>> = (0..m).map(|_| Vec::new()).collect();
        for rec in heap.records() {
            stats.add_tuple(rec.len());
            let tuple = decode(rec);
            let hash = (key(&tuple).into() as u64).wrapping_mul(0x9E3779B97F4A7C15);
            parts[hash as usize % m].push(tuple);
        }
        if m > 1 {
            stats.partition_passes += 1;
            stats.add_hashes(heap.num_tuples() as u64);
        }
        for part in &mut parts {
            part.sort_unstable_by_key(&key);
            stats.sort_passes += 1;
        }
        parts
    };
    let (left, right) = (stage(outer), stage(inner));
    left.iter()
        .zip(&right)
        .map(|(l, r)| merge_count(l, r, &key, stats))
        .sum()
}

/// Merge two key-sorted runs, counting the matching pairs by **visiting**
/// them: the paper's Listing 2 loop nest, the job `core::join::merge_buffers`
/// does under `JoinSink::Count` — for each outer tuple of a key group, scan
/// the inner group with one key read and compare per pair.  (Multiplying
/// the two run lengths gives the same count in O(keys); it is not the work
/// a join that hands its pairs to a consumer does, so it is no roofline.
/// Measured: rustc does not fold the rescan into that multiply — fig5's
/// 400 000 pairs cost ≈ 0.3 ms with or without `black_box` on the read.)
fn merge_count<T, K: Ord + Copy>(
    left: &[T],
    right: &[T],
    key: impl Fn(&T) -> K,
    stats: &mut ExecStats,
) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut pairs, mut comparisons) = (0u64, 0u64);
    while i < left.len() && j < right.len() {
        comparisons += 1;
        match key(&left[i]).cmp(&key(&right[j])) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = key(&left[i]);
                let group_start = j;
                while i < left.len() && key(&left[i]) == k {
                    j = group_start;
                    while j < right.len() {
                        comparisons += 1;
                        if key(&right[j]) != k {
                            break;
                        }
                        pairs += 1;
                        j += 1;
                    }
                    comparisons += 1;
                    i += 1;
                }
            }
        }
    }
    stats.add_comparisons(comparisons);
    stats.tuples_processed += (left.len() + right.len()) as u64;
    stats.bytes_touched += (std::mem::size_of_val(left) + std::mem::size_of_val(right)) as u64;
    pairs
}

/// Hand-coded aggregation (two SUMs grouped by column 0) returning
/// (group count, checksum of the sums).  `use_map` selects map aggregation
/// (Aggregation Query #2) versus hybrid hash-sort (Aggregation Query #1).
pub fn aggregate(
    table: &TableHeap,
    distinct_groups: usize,
    use_map: bool,
    variant: HandVariant,
    stats: &mut ExecStats,
) -> (usize, f64) {
    let schema = table.schema();
    match variant {
        HandVariant::Generic => {
            let mut groups: std::collections::BTreeMap<i64, (f64, f64)> = Default::default();
            #[expect(
                clippy::unwrap_used,
                reason = "hand-coded baseline kernels on known workload schemas; panic on shape drift is the desired signal"
            )]
            for rec in table.records() {
                stats.add_tuple(rec.len());
                let row = Row::from_record(schema, rec);
                let k = row.get(0).as_i64().unwrap();
                let v1 = match row.get(2) {
                    Value::Float64(v) => *v,
                    other => other.as_f64().unwrap(),
                };
                let v2 = row.get(3).as_f64().unwrap();
                let e = groups.entry(k).or_insert((0.0, 0.0));
                e.0 += v1;
                e.1 += v2;
            }
            let checksum = groups.values().map(|(a, b)| a + b).sum();
            (groups.len(), checksum)
        }
        HandVariant::Optimized => {
            let (off_k, off_v1, off_v2) = (schema.offset(0), schema.offset(2), schema.offset(3));
            if use_map {
                // Dense arrays indexed by the key (domain known).
                let mut sums1 = vec![0.0f64; distinct_groups];
                let mut sums2 = vec![0.0f64; distinct_groups];
                let mut seen = vec![false; distinct_groups];
                for rec in table.records() {
                    stats.add_tuple(rec.len());
                    let k = read_i32_at(rec, off_k) as usize % distinct_groups.max(1);
                    sums1[k] += read_f64_at(rec, off_v1);
                    sums2[k] += read_f64_at(rec, off_v2);
                    seen[k] = true;
                }
                let groups = seen.iter().filter(|&&s| s).count();
                let checksum = sums1.iter().chain(sums2.iter()).sum();
                (groups, checksum)
            } else {
                // Partition + sort (key, v1, v2) triples, then scan.
                let m = 64usize;
                let mut parts: Vec<Vec<(i32, f64, f64)>> = vec![Vec::new(); m];
                for rec in table.records() {
                    stats.add_tuple(rec.len());
                    let k = read_i32_at(rec, off_k);
                    parts[((k as u64).wrapping_mul(0x9E3779B97F4A7C15) as usize) % m].push((
                        k,
                        read_f64_at(rec, off_v1),
                        read_f64_at(rec, off_v2),
                    ));
                }
                stats.partition_passes += 1;
                stats.add_hashes(table.num_tuples() as u64);
                // One group-boundary key compare per sorted tuple.
                stats.add_comparisons(table.num_tuples() as u64);
                let mut groups = 0usize;
                let mut checksum = 0.0f64;
                for p in &mut parts {
                    p.sort_unstable_by_key(|t| t.0);
                    stats.sort_passes += 1;
                    let mut i = 0usize;
                    while i < p.len() {
                        let k = p[i].0;
                        let (mut s1, mut s2) = (0.0, 0.0);
                        while i < p.len() && p[i].0 == k {
                            s1 += p[i].1;
                            s2 += p[i].2;
                            i += 1;
                        }
                        groups += 1;
                        checksum += s1 + s2;
                    }
                }
                (groups, checksum)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{agg_workload, join_workload};

    #[test]
    fn hand_coded_variants_agree_on_join_counts() {
        let catalog = join_workload(200, 2000, 10).unwrap();
        let outer = &catalog.table("outer_t").unwrap().heap;
        let inner = &catalog.table("inner_t").unwrap().heap;
        let mut stats = ExecStats::new();
        let a = merge_join_count(outer, inner, HandVariant::Generic, &mut stats);
        let b = merge_join_count(outer, inner, HandVariant::Optimized, &mut stats);
        let c = hybrid_join_count(outer, inner, 8, HandVariant::Generic, &mut stats);
        let d = hybrid_join_count(outer, inner, 8, HandVariant::Optimized, &mut stats);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
        // 200 outer rows, each matching 10 inner rows.
        assert_eq!(a, 2000);
    }

    /// The roofline does the engine's job: on an inflationary join (fig5's
    /// Join Query #1 shape, 50 matches per outer tuple) every output pair
    /// costs at least one key comparison, in both joins and both variants.
    #[test]
    fn hand_coded_joins_visit_every_matching_pair() {
        let catalog = join_workload(500, 500, 50).unwrap();
        let outer = &catalog.table("outer_t").unwrap().heap;
        let inner = &catalog.table("inner_t").unwrap().heap;
        for variant in [HandVariant::Generic, HandVariant::Optimized] {
            for partitions in [1, 8] {
                let mut stats = ExecStats::new();
                let pairs = hybrid_join_count(outer, inner, partitions, variant, &mut stats);
                assert_eq!(pairs, 500 * 50);
                assert!(
                    stats.comparisons >= pairs,
                    "{variant:?} x{partitions}: {} comparisons for {pairs} pairs",
                    stats.comparisons
                );
                // Both inputs scanned once, then merged once.
                assert_eq!(stats.tuples_processed, 2 * (500 + 500));
            }
        }
    }

    #[test]
    fn hand_coded_variants_agree_on_aggregation() {
        let catalog = agg_workload(5000, 10).unwrap();
        let table = &catalog.table("agg_t").unwrap().heap;
        let mut stats = ExecStats::new();
        let (g1, c1) = aggregate(table, 10, true, HandVariant::Generic, &mut stats);
        let (g2, c2) = aggregate(table, 10, true, HandVariant::Optimized, &mut stats);
        let (g3, c3) = aggregate(table, 10, false, HandVariant::Optimized, &mut stats);
        assert_eq!(g1, 10);
        assert_eq!(g1, g2);
        assert_eq!(g1, g3);
        assert!((c1 - c2).abs() < 1e-6);
        assert!((c1 - c3).abs() < 1e-6);
        // Every variant visits every tuple: no shortcut to audit away.
        assert_eq!(stats.tuples_processed, 3 * 5000);
    }
}
