//! Join kernels: instantiations of the paper's nested-loops template
//! (Listing 2) for merge join, fine partition join, hybrid hash-sort-merge
//! join and join teams.
//!
//! Every kernel walks packed record buffers and reports matches through a
//! consumer callback, so a join can either stream into the next operator
//! (aggregation, output counting) or materialize into a new
//! [`StagedRelation`] — the latter mirrors the paper's temporary tables
//! between operators, the former its pipelined join teams.

use std::collections::BTreeMap;

use hique_par::ScopedPool;
use hique_types::ExecStats;

use crate::kernel::CompiledKey;
use crate::relation::StagedRelation;
use crate::staging::StagedInput;

/// Where a join kernel sends its matches.
pub enum JoinSink<'a> {
    /// Stream every match pair, in the serial kernel's match order.
    Pairs(&'a mut dyn FnMut(&[u8], &[u8])),
    /// Count matches without materializing them — the paper's
    /// micro-benchmark methodology ("we did not materialize the output").
    /// Workers count locally and the counts are summed, so the final join of
    /// a count-only query has no serial replay stage.
    Count(&'a mut u64),
}

/// The per-task output matching a [`JoinSink`] mode.
enum TaskMatches {
    Pairs(Vec<u8>),
    Count(u64),
}

/// Run `tasks` pair-producing join tasks across `pool` and deliver their
/// matches to `sink` in task order.
///
/// `task` receives (task index, per-match emit callback, counter set).  On
/// a serial pool (or with a single task) the tasks run in order on the
/// caller's thread and emit **straight into the sink** against the caller's
/// counters — nothing is buffered.  Across workers, in `Pairs` mode each
/// task buffers its matches as packed `lts + rts`-byte records which are
/// replayed in task order afterwards, so the consumer sees exactly the
/// serial match sequence and a streaming sink or materialized intermediate
/// is byte-identical for any pool width; in `Count` mode tasks count locally
/// and the counts are summed in task order.
///
/// The `Pairs` buffering bounds peak memory by the join's total output
/// size: every consumer of a parallel join either materializes that output
/// anyway (intermediate relations, collected result rows) — so the
/// parallel mode at most doubles the output's footprint transiently — or
/// is counting, which takes the `Count` path and buffers nothing.
fn run_join_tasks(
    tasks: usize,
    lts: usize,
    rts: usize,
    pool: &ScopedPool,
    stats: &mut ExecStats,
    sink: &mut JoinSink,
    task: impl Fn(usize, &mut dyn FnMut(&[u8], &[u8]), &mut ExecStats) + Sync,
) {
    if pool.is_serial() || tasks <= 1 {
        match sink {
            JoinSink::Pairs(consumer) => {
                for p in 0..tasks {
                    task(p, &mut **consumer, stats);
                }
            }
            JoinSink::Count(total) => {
                let mut n = 0u64;
                for p in 0..tasks {
                    task(p, &mut |_, _| n += 1, stats);
                }
                **total += n;
            }
        }
        return;
    }
    let counting = matches!(sink, JoinSink::Count(_));
    let results: Vec<(TaskMatches, ExecStats)> = pool.map(tasks, |p| {
        let mut local = ExecStats::new();
        let out = if counting {
            let mut n = 0u64;
            task(p, &mut |_, _| n += 1, &mut local);
            TaskMatches::Count(n)
        } else {
            let mut buf: Vec<u8> = Vec::new();
            task(
                p,
                &mut |l, r| {
                    buf.extend_from_slice(l);
                    buf.extend_from_slice(r);
                },
                &mut local,
            );
            TaskMatches::Pairs(buf)
        };
        (out, local)
    });
    for (matches, local) in &results {
        stats.merge(local);
        match (matches, &mut *sink) {
            (TaskMatches::Pairs(buf), JoinSink::Pairs(consumer)) => {
                for pair in buf.chunks_exact(lts + rts) {
                    consumer(&pair[..lts], &pair[lts..]);
                }
            }
            (TaskMatches::Count(n), JoinSink::Count(total)) => **total += n,
            _ => unreachable!("task output mode follows the sink mode"),
        }
    }
}

/// Partition `p` of `rel`, or an empty run when `rel` has fewer partitions.
fn partition_or_empty(rel: &StagedRelation, p: usize) -> &[u8] {
    if p < rel.num_partitions() {
        rel.partition(p)
    } else {
        &[]
    }
}

/// Merge join over two relations sorted on their join keys, partition pair
/// by partition pair across `pool`.
///
/// Each pair is merged independently; matches reach `sink` in partition
/// order, so both the match sequence and the summed [`ExecStats`] are the
/// same for every pool width.
pub fn merge_join(
    left: &StagedRelation,
    right: &StagedRelation,
    left_key: CompiledKey,
    right_key: CompiledKey,
    pool: &ScopedPool,
    stats: &mut ExecStats,
    sink: &mut JoinSink,
) {
    stats.add_calls(1);
    let parts = left.num_partitions().max(right.num_partitions());
    let (lts, rts) = (left.tuple_size(), right.tuple_size());
    run_join_tasks(parts, lts, rts, pool, stats, sink, |p, emit, stats| {
        let lbuf = partition_or_empty(left, p);
        let rbuf = partition_or_empty(right, p);
        merge_buffers(lbuf, lts, rbuf, rts, left_key, right_key, stats, emit);
    });
}

/// Merge two sorted packed buffers (the inner loops of the template, with
/// the merge-join bound updates of Listing 2).
fn merge_buffers(
    lbuf: &[u8],
    lts: usize,
    rbuf: &[u8],
    rts: usize,
    left_key: CompiledKey,
    right_key: CompiledKey,
    stats: &mut ExecStats,
    consumer: &mut dyn FnMut(&[u8], &[u8]),
) {
    let nl = lbuf.len() / lts;
    let nr = rbuf.len() / rts;
    let mut li = 0usize;
    let mut rj = 0usize;
    let mut comparisons: u64 = 0;
    let lrec = |i: usize| &lbuf[i * lts..(i + 1) * lts];
    let rrec = |j: usize| &rbuf[j * rts..(j + 1) * rts];
    while li < nl && rj < nr {
        comparisons += 1;
        match left_key.compare_across(lrec(li), &right_key, rrec(rj)) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => rj += 1,
            std::cmp::Ordering::Equal => {
                // Found a group of matching inner tuples: scan it for this
                // outer tuple, then backtrack for the following outer tuples
                // with the same key (that of `head`).
                let group_start = rj;
                let head = lrec(li);
                let in_group = |key: &CompiledKey, rec: &[u8]| {
                    key.compare_across(rec, &left_key, head).is_eq()
                };
                loop {
                    let mut k = group_start;
                    while k < nr {
                        comparisons += 1;
                        if !in_group(&right_key, rrec(k)) {
                            break;
                        }
                        consumer(lrec(li), rrec(k));
                        k += 1;
                    }
                    li += 1;
                    if li >= nl {
                        break;
                    }
                    comparisons += 1;
                    if !in_group(&left_key, lrec(li)) {
                        break;
                    }
                }
                rj = group_start;
                // Skip the exhausted inner group.
                while rj < nr && in_group(&right_key, rrec(rj)) {
                    rj += 1;
                }
            }
        }
    }
    stats.add_comparisons(comparisons);
    stats.tuples_processed += (nl + nr) as u64;
    stats.bytes_touched += (lbuf.len() + rbuf.len()) as u64;
}

/// Hybrid hash-sort-merge join (paper §V-B): both inputs coarsely
/// partitioned with the same hash function and partition count, each pair of
/// corresponding partitions sorted just before being merge-joined, with the
/// per-partition sorts and the partition-pair merges divided across `pool`.
///
/// Inputs staged with matching partition counts are used as-is; otherwise
/// the side that does not match is repartitioned here (the generated code
/// would have staged it correctly in the first place — this keeps the kernel
/// robust for intermediate results).  Repartitioning stays serial — it is a
/// single memcpy-bound scatter pass — so its counters and partition contents
/// do not depend on the pool width.
pub fn hybrid_join(
    left: &mut StagedRelation,
    right: &mut StagedRelation,
    left_key: CompiledKey,
    right_key: CompiledKey,
    partitions: usize,
    pool: &ScopedPool,
    stats: &mut ExecStats,
    sink: &mut JoinSink,
) {
    stats.add_calls(1);
    let m = partitions
        .max(left.num_partitions())
        .max(right.num_partitions())
        .max(1);
    if left.num_partitions() != m {
        repartition(left, left_key, m, stats);
    }
    if right.num_partitions() != m {
        repartition(right, right_key, m, stats);
    }
    // Sort every partition on the join key (cheap no-op if staging already
    // sorted them).
    stats.sort_passes += (2 * m) as u64;
    left.sort_all(&[left_key], pool);
    right.sort_all(&[right_key], pool);
    let (lts, rts) = (left.tuple_size(), right.tuple_size());
    let (left, right) = (&*left, &*right);
    run_join_tasks(m, lts, rts, pool, stats, sink, |p, emit, stats| {
        let (lbuf, rbuf) = (left.partition(p), right.partition(p));
        merge_buffers(lbuf, lts, rbuf, rts, left_key, right_key, stats, emit);
    });
}

/// Re-partition a relation by hash of `key` into `m` partitions.
fn repartition(rel: &mut StagedRelation, key: CompiledKey, m: usize, stats: &mut ExecStats) {
    stats.partition_passes += 1;
    let ts = rel.tuple_size();
    let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
    for rec in rel.records() {
        stats.add_hashes(1);
        let p = (key.hash(rec) as usize) % m;
        parts[p].extend_from_slice(rec);
    }
    stats.add_materialized(parts.iter().map(|p| p.len()).sum());
    *rel = StagedRelation::from_partitions(rel.schema().clone(), parts);
    debug_assert_eq!(rel.tuple_size(), ts);
}

/// Fine-grained partition join: inputs partitioned by join-key *value*, so
/// corresponding partitions cross-join without further comparisons, the
/// matched partition pairs divided across `pool`.
///
/// The directories are ordered maps, so the matched (key → partition pair)
/// list is in key order and every pool width emits the same match sequence.
pub fn fine_partition_join(
    left: &StagedInput,
    right: &StagedInput,
    left_key: CompiledKey,
    right_key: CompiledKey,
    pool: &ScopedPool,
    stats: &mut ExecStats,
    sink: &mut JoinSink,
) {
    stats.add_calls(1);
    let left_dir = fine_directory_of(left, left_key, stats);
    let right_dir = fine_directory_of(right, right_key, stats);
    let (lts, rts) = (left.relation.tuple_size(), right.relation.tuple_size());
    let pairs: Vec<(usize, usize)> = left_dir
        .0
        .iter()
        .filter_map(|(key, &lp)| right_dir.0.get(key).map(|&rp| (lp, rp)))
        .collect();
    run_join_tasks(
        pairs.len(),
        lts,
        rts,
        pool,
        stats,
        sink,
        |i, emit, stats| {
            let (lp, rp) = pairs[i];
            let lbuf = left_dir
                .1
                .as_ref()
                .map_or_else(|| left.relation.partition(lp), |v| v[lp].as_slice());
            let rbuf = right_dir
                .1
                .as_ref()
                .map_or_else(|| right.relation.partition(rp), |v| v[rp].as_slice());
            stats.tuples_processed += (lbuf.len() / lts + rbuf.len() / rts) as u64;
            stats.bytes_touched += (lbuf.len() + rbuf.len()) as u64;
            for lrec in lbuf.chunks_exact(lts) {
                for rrec in rbuf.chunks_exact(rts) {
                    emit(lrec, rrec);
                }
            }
        },
    );
}

/// The fine directory of a staged input, building one on the fly (plus the
/// backing partition buffers) when the input was not fine-partitioned by
/// staging (e.g. an intermediate join result).
fn fine_directory_of(
    input: &StagedInput,
    key: CompiledKey,
    stats: &mut ExecStats,
) -> (BTreeMap<u64, usize>, Option<Vec<Vec<u8>>>) {
    if let Some(dir) = &input.fine_directory {
        return (dir.clone(), None);
    }
    stats.partition_passes += 1;
    let mut dir: BTreeMap<u64, usize> = BTreeMap::new();
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for rec in input.relation.records() {
        stats.add_hashes(1);
        let k = key.order_image(rec);
        let next = parts.len();
        let p = *dir.entry(k).or_insert_with(|| {
            parts.push(Vec::new());
            next
        });
        parts[p].extend_from_slice(rec);
    }
    (dir, Some(parts))
}

/// Join team: a single set of deeply nested loops over `k` inputs sorted (or
/// partitioned and sorted) on a common key.  For every key value present in
/// *all* inputs, the consumer receives one record per input for each element
/// of the cross product of the matching groups — no intermediate results are
/// materialized (paper §V-B, Figure 7(b)).
pub fn team_join(
    inputs: &[&StagedRelation],
    keys: &[CompiledKey],
    stats: &mut ExecStats,
    consumer: &mut dyn FnMut(&[&[u8]]),
) {
    assert_eq!(inputs.len(), keys.len());
    stats.add_calls(1);
    let max_parts = inputs.iter().map(|r| r.num_partitions()).max().unwrap_or(1);
    let aligned = inputs.iter().all(|r| r.num_partitions() == max_parts);
    let parts = if aligned { max_parts } else { 1 };
    for p in 0..parts {
        team_join_partition(inputs, keys, p, aligned, stats, consumer);
    }
}

fn team_join_partition(
    inputs: &[&StagedRelation],
    keys: &[CompiledKey],
    p: usize,
    aligned: bool,
    stats: &mut ExecStats,
    consumer: &mut dyn FnMut(&[&[u8]]),
) {
    let k = inputs.len();
    // Buffers and cursor state per input.
    let bufs: Vec<&[u8]> = inputs
        .iter()
        .map(|r| {
            if aligned {
                r.partition(p)
            } else {
                r.partition(0)
            }
        })
        .collect();
    let sizes: Vec<usize> = inputs.iter().map(|r| r.tuple_size()).collect();
    let counts: Vec<usize> = bufs
        .iter()
        .zip(&sizes)
        .map(|(b, &ts)| b.len() / ts)
        .collect();
    for (b, c) in bufs.iter().zip(&counts) {
        stats.tuples_processed += *c as u64;
        stats.bytes_touched += b.len() as u64;
    }
    let mut pos = vec![0usize; k];
    let rec = |i: usize, idx: usize| -> &[u8] { &bufs[i][idx * sizes[i]..(idx + 1) * sizes[i]] };

    'outer: loop {
        for i in 0..k {
            if pos[i] >= counts[i] {
                break 'outer;
            }
        }
        // Target key: the maximum of the current keys, input `t`'s; advance
        // every input up to it.
        let mut t = 0;
        for i in 1..k {
            if keys[i]
                .compare_across(rec(i, pos[i]), &keys[t], rec(t, pos[t]))
                .is_gt()
            {
                t = i;
            }
        }
        let target = rec(t, pos[t]);
        let to_target = |i: usize, idx| keys[i].compare_across(rec(i, idx), &keys[t], target);
        let mut all_match = true;
        for i in 0..k {
            while pos[i] < counts[i] && to_target(i, pos[i]).is_lt() {
                stats.comparisons += 1;
                pos[i] += 1;
            }
            if pos[i] >= counts[i] {
                break 'outer;
            }
            stats.comparisons += 1;
            if to_target(i, pos[i]).is_ne() {
                all_match = false;
            }
        }
        if !all_match {
            continue;
        }
        // Group ranges per input for the common key.
        let mut ends = vec![0usize; k];
        for i in 0..k {
            let mut e = pos[i];
            while e < counts[i] && to_target(i, e).is_eq() {
                e += 1;
            }
            ends[i] = e;
        }
        // Cross product of the groups: the deeply nested loops of the
        // instantiated team template, realised with an odometer.
        let mut cursor: Vec<usize> = pos.clone();
        let mut current: Vec<&[u8]> = (0..k).map(|i| rec(i, cursor[i])).collect();
        loop {
            consumer(&current);
            // Advance the odometer from the innermost table.
            let mut level = k;
            loop {
                if level == 0 {
                    break;
                }
                let i = level - 1;
                cursor[i] += 1;
                if cursor[i] < ends[i] {
                    current[i] = rec(i, cursor[i]);
                    break;
                }
                cursor[i] = pos[i];
                current[i] = rec(i, cursor[i]);
                level -= 1;
            }
            if level == 0 {
                break;
            }
        }
        pos[..k].copy_from_slice(&ends[..k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn schema(name: &str) -> Schema {
        Schema::new(vec![
            Column::new(format!("{name}.k"), DataType::Int32),
            Column::new(format!("{name}.p"), DataType::Int32),
        ])
    }

    fn relation(name: &str, keys: &[i32]) -> StagedRelation {
        let s = schema(name);
        let rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Row::new(vec![Value::Int32(k), Value::Int32(i as i32)]))
            .collect();
        StagedRelation::from_rows(s, &rows).unwrap()
    }

    fn sorted_relation(name: &str, keys: &[i32]) -> StagedRelation {
        let mut rel = relation(name, keys);
        let key = CompiledKey::compile(rel.schema(), 0);
        rel.sort_all(&[key], &ScopedPool::serial());
        rel
    }

    fn expected_pairs(l: &[i32], r: &[i32]) -> usize {
        l.iter()
            .map(|lk| r.iter().filter(|rk| *rk == lk).count())
            .sum()
    }

    /// Run a join kernel against a `Pairs` sink, returning its match
    /// sequence as (left bytes, right bytes) pairs.
    fn pair_trace(f: impl FnOnce(&mut JoinSink)) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut trace = Vec::new();
        let mut consumer = |l: &[u8], r: &[u8]| trace.push((l.to_vec(), r.to_vec()));
        f(&mut JoinSink::Pairs(&mut consumer));
        trace
    }

    fn count_matches(f: impl FnOnce(&mut JoinSink)) -> usize {
        pair_trace(f).len()
    }

    #[test]
    fn merge_join_counts_matches_with_duplicates() {
        let lkeys = vec![1, 2, 2, 3, 5, 7, 7, 7];
        let rkeys = vec![2, 2, 3, 3, 4, 7];
        let left = sorted_relation("l", &lkeys);
        let right = sorted_relation("r", &rkeys);
        let lk = CompiledKey::compile(left.schema(), 0);
        let rk = CompiledKey::compile(right.schema(), 0);
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        let n = count_matches(|s| merge_join(&left, &right, lk, rk, &pool, &mut stats, s));
        assert_eq!(n, expected_pairs(&lkeys, &rkeys));
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn merge_join_disjoint_and_empty() {
        let left = sorted_relation("l", &[1, 2, 3]);
        let right = sorted_relation("r", &[10, 20]);
        let lk = CompiledKey::compile(left.schema(), 0);
        let rk = CompiledKey::compile(right.schema(), 0);
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        assert_eq!(
            count_matches(|s| merge_join(&left, &right, lk, rk, &pool, &mut stats, s)),
            0
        );
        let empty = sorted_relation("e", &[]);
        let ek = CompiledKey::compile(empty.schema(), 0);
        assert_eq!(
            count_matches(|s| merge_join(&empty, &right, ek, rk, &pool, &mut stats, s)),
            0
        );
        assert_eq!(
            count_matches(|s| merge_join(&left, &empty, lk, ek, &pool, &mut stats, s)),
            0
        );
    }

    #[test]
    fn hybrid_join_agrees_with_merge_join() {
        let lkeys: Vec<i32> = (0..400).map(|i| i % 37).collect();
        let rkeys: Vec<i32> = (0..150).map(|i| (i * 5) % 41).collect();
        let mut left = relation("l", &lkeys);
        let mut right = relation("r", &rkeys);
        let lk = CompiledKey::compile(left.schema(), 0);
        let rk = CompiledKey::compile(right.schema(), 0);
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        let n =
            count_matches(|s| hybrid_join(&mut left, &mut right, lk, rk, 8, &pool, &mut stats, s));
        assert_eq!(n, expected_pairs(&lkeys, &rkeys));
        assert!(stats.hash_ops >= (lkeys.len() + rkeys.len()) as u64);
        assert!(stats.partition_passes >= 2);
    }

    #[test]
    fn hybrid_join_handles_mismatched_partition_counts() {
        let lkeys: Vec<i32> = (0..100).collect();
        let rkeys: Vec<i32> = (0..100).map(|i| i / 2).collect();
        let mut left = relation("l", &lkeys); // 1 partition
        let mut right = relation("r", &rkeys);
        // Pre-partition the right side into 4.
        let rk = CompiledKey::compile(right.schema(), 0);
        let mut stats = ExecStats::new();
        repartition(&mut right, rk, 4, &mut stats);
        let lk = CompiledKey::compile(left.schema(), 0);
        let pool = ScopedPool::serial();
        let n =
            count_matches(|s| hybrid_join(&mut left, &mut right, lk, rk, 4, &pool, &mut stats, s));
        assert_eq!(n, expected_pairs(&lkeys, &rkeys));
    }

    #[test]
    fn fine_partition_join_matches_merge_join_on_grouped_input() {
        let lkeys = vec![1, 1, 2, 3, 3, 3];
        let rkeys = vec![1, 3, 3, 4];
        let left = StagedInput::unpartitioned(relation("l", &lkeys));
        let right = StagedInput::unpartitioned(relation("r", &rkeys));
        let lk = CompiledKey::compile(left.relation.schema(), 0);
        let rk = CompiledKey::compile(right.relation.schema(), 0);
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        let fine = pair_trace(|s| fine_partition_join(&left, &right, lk, rk, &pool, &mut stats, s));
        assert_eq!(fine.len(), expected_pairs(&lkeys, &rkeys));
        // Merge join emits outer-major; on inputs already sorted by key
        // that is the fine join's key order.
        let merged = pair_trace(|s| {
            merge_join(
                &left.relation,
                &right.relation,
                lk,
                rk,
                &pool,
                &mut stats,
                s,
            )
        });
        assert_eq!(merged, fine);
    }

    #[test]
    fn merge_join_across_workers_replays_the_serial_match_sequence() {
        let lkeys: Vec<i32> = (0..300).map(|i| (i * 3) % 31).collect();
        let rkeys: Vec<i32> = (0..200).map(|i| (i * 5) % 29).collect();
        // Partitioned inputs: hash-partition both sides the same way, sort
        // each partition, so partition pairs merge independently.
        let mut left = relation("l", &lkeys);
        let mut right = relation("r", &rkeys);
        let lk = CompiledKey::compile(left.schema(), 0);
        let rk = CompiledKey::compile(right.schema(), 0);
        let mut setup = ExecStats::new();
        repartition(&mut left, lk, 8, &mut setup);
        repartition(&mut right, rk, 8, &mut setup);
        left.sort_all(&[lk], &ScopedPool::serial());
        right.sort_all(&[rk], &ScopedPool::serial());

        let run = |threads: usize| {
            let pool = ScopedPool::new(threads);
            let mut stats = ExecStats::new();
            let trace = pair_trace(|s| merge_join(&left, &right, lk, rk, &pool, &mut stats, s));
            (trace, stats)
        };
        let serial = run(1);
        assert_eq!(serial.0.len(), expected_pairs(&lkeys, &rkeys));
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn hybrid_join_across_workers_matches_serial_including_stats() {
        let lkeys: Vec<i32> = (0..400).map(|i| i % 37).collect();
        let rkeys: Vec<i32> = (0..150).map(|i| (i * 5) % 41).collect();
        let lk = CompiledKey::compile(relation("l", &lkeys).schema(), 0);
        let rk = CompiledKey::compile(relation("r", &rkeys).schema(), 0);
        let run = |threads: usize| {
            let pool = ScopedPool::new(threads);
            let mut stats = ExecStats::new();
            let (mut l, mut r) = (relation("l", &lkeys), relation("r", &rkeys));
            let trace =
                pair_trace(|s| hybrid_join(&mut l, &mut r, lk, rk, 8, &pool, &mut stats, s));
            (trace, stats)
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn counting_sink_agrees_with_pair_streaming() {
        // The count-only fast path (no pair materialization, no replay) must
        // report exactly as many matches as the streaming mode delivers.
        let lkeys: Vec<i32> = (0..500).map(|i| i % 43).collect();
        let rkeys: Vec<i32> = (0..300).map(|i| (i * 3) % 47).collect();
        let expected = expected_pairs(&lkeys, &rkeys) as u64;
        for threads in [1, 4] {
            let pool = ScopedPool::new(threads);
            let left = StagedInput::unpartitioned(relation("l", &lkeys));
            let right = StagedInput::unpartitioned(relation("r", &rkeys));
            let lk = CompiledKey::compile(left.relation.schema(), 0);
            let rk = CompiledKey::compile(right.relation.schema(), 0);
            let mut count = 0u64;
            let mut stats = ExecStats::new();
            fine_partition_join(
                &left,
                &right,
                lk,
                rk,
                &pool,
                &mut stats,
                &mut JoinSink::Count(&mut count),
            );
            assert_eq!(count, expected, "fine threads={threads}");

            let (mut l, mut r) = (relation("l", &lkeys), relation("r", &rkeys));
            let mut count = 0u64;
            hybrid_join(
                &mut l,
                &mut r,
                lk,
                rk,
                8,
                &pool,
                &mut stats,
                &mut JoinSink::Count(&mut count),
            );
            assert_eq!(count, expected, "hybrid threads={threads}");
        }
    }

    #[test]
    fn fine_partition_join_across_workers_matches_serial_and_handles_empty_inputs() {
        let lkeys = vec![1, 1, 2, 3, 3, 3, 9, 9];
        let rkeys = vec![1, 3, 3, 4, 9];
        let left = StagedInput::unpartitioned(relation("l", &lkeys));
        let right = StagedInput::unpartitioned(relation("r", &rkeys));
        let empty = StagedInput::unpartitioned(relation("e", &[]));
        let lk = CompiledKey::compile(left.relation.schema(), 0);
        let rk = CompiledKey::compile(right.relation.schema(), 0);
        let ek = CompiledKey::compile(empty.relation.schema(), 0);
        let run = |l: &StagedInput, lk: CompiledKey, threads: usize| {
            let pool = ScopedPool::new(threads);
            let mut stats = ExecStats::new();
            let trace =
                pair_trace(|s| fine_partition_join(l, &right, lk, rk, &pool, &mut stats, s));
            (trace, stats)
        };
        let serial = run(&left, lk, 1);
        assert_eq!(serial.0.len(), expected_pairs(&lkeys, &rkeys));
        assert_eq!(run(&left, lk, 4), serial);
        // Empty side: no matches, no panics, stats still mirror serial.
        let serial_empty = run(&empty, ek, 1);
        assert!(serial_empty.0.is_empty());
        assert_eq!(run(&empty, ek, 4), serial_empty);
    }

    #[test]
    fn team_join_three_way_cross_products() {
        // keys: 5 appears (2, 3, 1) times -> 6 combinations; 9 appears
        // (1, 0, 2) times -> 0 (missing from input 1); 7 appears once each -> 1.
        let a = sorted_relation("a", &[5, 5, 7, 9]);
        let b = sorted_relation("b", &[5, 5, 5, 7]);
        let c = sorted_relation("c", &[5, 7, 9, 9]);
        let keys = vec![
            CompiledKey::compile(a.schema(), 0),
            CompiledKey::compile(b.schema(), 0),
            CompiledKey::compile(c.schema(), 0),
        ];
        let mut stats = ExecStats::new();
        let mut count = 0usize;
        let mut seen_keys = Vec::new();
        team_join(&[&a, &b, &c], &keys, &mut stats, &mut |recs| {
            count += 1;
            assert_eq!(recs.len(), 3);
            let k = hique_types::tuple::read_i32_at(recs[0], 0);
            assert!(recs
                .iter()
                .all(|r| hique_types::tuple::read_i32_at(r, 0) == k));
            seen_keys.push(k);
        });
        assert_eq!(count, (2 * 3) + 1);
        assert!(seen_keys.contains(&5));
        assert!(seen_keys.contains(&7));
        assert!(!seen_keys.contains(&9));
    }

    #[test]
    fn team_join_two_way_equals_merge_join() {
        let lkeys: Vec<i32> = (0..300).map(|i| i % 23).collect();
        let rkeys: Vec<i32> = (0..100).map(|i| i % 29).collect();
        let left = sorted_relation("l", &lkeys);
        let right = sorted_relation("r", &rkeys);
        let keys = vec![
            CompiledKey::compile(left.schema(), 0),
            CompiledKey::compile(right.schema(), 0),
        ];
        let mut stats = ExecStats::new();
        let mut count = 0usize;
        team_join(&[&left, &right], &keys, &mut stats, &mut |_| count += 1);
        assert_eq!(count, expected_pairs(&lkeys, &rkeys));
    }
}
