//! Data staging: the instantiation of the paper's scan/filter/project
//! template plus the sorting and partitioning pre-processing.
//!
//! "All input tables are scanned, all selection predicates are applied, and
//! any unnecessary fields are dropped from the input to reduce tuple size
//! and increase cache locality on subsequent processing.  Any pre-processing
//! needed by the following operator, e.g. sorting or partitioning, is
//! performed by interleaving the pre-processing code with the scanning
//! code." (paper §IV)

use std::collections::BTreeMap;
use std::ops::Range;

use hique_par::{chunk_ranges, ScopedPool};
use hique_plan::{StagedTable, StagingStrategy};
use hique_storage::TableHeap;
use hique_types::{CancelToken, ExecStats, Result, Schema};

use crate::kernel::{CompiledFilter, CompiledKey, CompiledProjection, Selection};
use crate::relation::{merge_sorted_runs, StagedRelation};

/// The result of staging one input: the materialized relation plus, for
/// fine-grained partitioning, the value → partition directory needed to
/// align corresponding partitions across join inputs.
#[derive(Debug, Clone)]
pub struct StagedInput {
    /// The staged records (partitioned according to the strategy).
    pub relation: StagedRelation,
    /// Fine-partitioning directory: key value (as its order image, exact
    /// for every key fine partitioning is planned over) → partition.
    pub fine_directory: Option<BTreeMap<u64, usize>>,
}

impl StagedInput {
    /// Convenience constructor for an unpartitioned staged relation.
    pub fn unpartitioned(relation: StagedRelation) -> Self {
        StagedInput {
            relation,
            fine_directory: None,
        }
    }
}

/// The page loop of the paper's Listing 1:
/// fetch each heap page of `pages` by reference, account for its tuples
/// from the page's count (`tuples_processed`, `bytes_touched`), and hand its
/// packed record area to `sweep`.
///
/// Pages come through [`TableHeap::page_guard`], so one loop serves
/// memory-resident heaps (borrowed pages) and pool-backed heaps (pinned
/// frames, unpinned as each page's sweep finishes).  `cancel` is checked
/// once per page, so a cancelled execution stops mid-scan at the next page
/// boundary.
fn sweep_pages(
    heap: &TableHeap,
    pages: Range<usize>,
    cancel: &CancelToken,
    stats: &mut ExecStats,
    mut sweep: impl FnMut(&[u8], &mut ExecStats),
) -> Result<()> {
    let ts = heap.schema().tuple_size();
    for p in pages {
        cancel.check()?;
        let page = heap.page_guard(p)?;
        let data = page.data();
        debug_assert_eq!(
            page.tuple_size(),
            ts,
            "heap page width differs from its schema"
        );
        stats.tuples_processed += (data.len() / ts) as u64;
        stats.bytes_touched += data.len() as u64;
        sweep(data, stats);
    }
    Ok(())
}

/// Bytes to reserve for the staged output of `pages` of `heap`: its share of
/// `min(estimated_rows, heap tuples)` records of `width` bytes — never more
/// than the scan can produce.
fn staged_capacity(
    heap: &TableHeap,
    pages: &Range<usize>,
    estimated_rows: usize,
    width: usize,
) -> usize {
    let rows = estimated_rows.min(heap.num_tuples());
    (rows * pages.len()).div_ceil(heap.num_pages().max(1)) * width
}

/// Concatenate per-worker runs in worker order.  The first run is the base
/// buffer, so a serial scan's single run is staged without a second copy of
/// the relation.
fn concat_runs(runs: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut runs = runs.into_iter();
    let mut data = runs.next().unwrap_or_default();
    runs.for_each(|run| data.extend_from_slice(&run));
    data
}

/// A resolved scan: the instantiated filter and projection kernels of the
/// paper's Listing 1 for one input table, built once per staging call and
/// swept over pages by every worker.
///
/// Every staging call runs [`stage_table`] with one of these, taken from
/// the query's [`crate::KernelSet`]: the generator builds it from the plan
/// ([`ScanKernels::compile`]), the bytecode VM from its verified filter and
/// projection fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanKernels {
    /// Conjunctive filters over the base record, applied in order.
    pub filters: Vec<CompiledFilter>,
    /// The copy plan building the staged record from a base record.
    pub projection: CompiledProjection,
}

impl ScanKernels {
    /// Instantiate the scan of `staged` over base records of `base`: its
    /// filters with baked-in offsets and constants, its kept columns as a
    /// list of constant-width byte-range copies.
    pub fn compile(staged: &StagedTable, base: &Schema) -> Result<Self> {
        Ok(ScanKernels {
            filters: staged
                .filters
                .iter()
                .map(|f| CompiledFilter::compile(f, base))
                .collect::<Result<_>>()?,
            projection: CompiledProjection::compile(base, &staged.keep),
        })
    }

    /// Run the instantiated Listing 1 loop over `pages`: each page's
    /// survivors are projected once, straight onto the tail of `out`, then
    /// `after_page` sees `out` (the partitioning strategies scatter and
    /// clear it; plain and sorted staging leave it to grow into the run).
    ///
    /// Nothing is dispatched or counted per tuple: each filter narrows a
    /// selection vector with one sweep per page, and `comparisons` is the
    /// sum of the selection lengths entering each filter — exactly what a
    /// short-circuiting tuple-at-a-time loop counts.
    fn scan_chunk(
        &self,
        heap: &TableHeap,
        pages: Range<usize>,
        cancel: &CancelToken,
        stats: &mut ExecStats,
        out: &mut Vec<u8>,
        mut after_page: impl FnMut(&mut Vec<u8>, &mut ExecStats),
    ) -> Result<()> {
        let ts = heap.schema().tuple_size();
        let mut sel = Selection::new();
        sweep_pages(heap, pages, cancel, stats, |data, stats| {
            sel.select_all(data.len() / ts);
            for f in &self.filters {
                if sel.is_empty() {
                    break;
                }
                stats.comparisons += sel.len() as u64;
                f.narrow(data, ts, &mut sel);
            }
            self.projection.append(data, ts, sel.rows(), out);
            after_page(out, stats);
        })
    }
}

/// The per-worker output of a fine-partitioning scan chunk: local
/// value→partition directory, the key values in first-occurrence order, and
/// the local partition buffers.
struct FineChunk {
    directory: BTreeMap<u64, usize>,
    order: Vec<u64>,
    parts: Vec<Vec<u8>>,
    stats: ExecStats,
}

/// Stage one base table through a resolved `scan`, dividing the pages
/// across `pool`: the one staging entry point of the executor.
///
/// `staged` supplies the output schema, the row estimate the output buffers
/// are reserved from, and the pre-processing strategy; what runs over each
/// page is `scan` — the instantiated Listing 1 template, whose filters carry
/// baked-in offsets and constants and whose projection is a list of
/// constant-width byte-range copies.  Partitioning and sorting are
/// interleaved with the scan exactly as the generated code would do.
///
/// The parallel decomposition is the paper's partitioning pre-processing
/// read backwards: pages are divided into contiguous per-worker chunks
/// ([`chunk_ranges`] — deterministic in the page and worker counts), each
/// worker runs the same compiled loop over its chunk, and the per-worker
/// outputs are merged in chunk order, the first worker's buffers serving as
/// the base (a serial pool stages without a second copy).  Every strategy's
/// merge reproduces the serial scan order exactly (concatenation, stable
/// sort + run merge, per-partition concatenation, first-occurrence directory
/// renumbering), so the staged relation is byte-identical for every pool
/// width.  Every scan worker checks `cancel` once per heap page.
pub fn stage_table(
    heap: &TableHeap,
    scan: &ScanKernels,
    staged: &StagedTable,
    stats: &mut ExecStats,
    pool: &ScopedPool,
    cancel: &CancelToken,
) -> Result<StagedInput> {
    let out_schema = staged.schema.clone();
    let out_width = scan.projection.output_width();
    // Output bytes to reserve for the run (or, divided by the partition
    // count, the partition buffers) of the worker scanning `pages`.
    let capacity =
        |pages: &Range<usize>| staged_capacity(heap, pages, staged.estimated_rows, out_width);
    let chunks = chunk_ranges(heap.num_pages(), pool.threads());

    // One operator invocation: the generated staging function is one call.
    stats.add_calls(1);

    let mut output = match &staged.strategy {
        StagingStrategy::None | StagingStrategy::Sort { .. } => {
            let sort_keys: Option<Vec<CompiledKey>> = match &staged.strategy {
                StagingStrategy::Sort { key_columns } => Some(
                    key_columns
                        .iter()
                        .map(|&c| CompiledKey::compile(&out_schema, c))
                        .collect(),
                ),
                _ => None,
            };
            let worker_outputs: Vec<Result<(Vec<u8>, ExecStats)>> =
                pool.map_items(&chunks, |_, pages| {
                    let mut local = ExecStats::new();
                    let mut out: Vec<u8> = Vec::with_capacity(capacity(pages));
                    scan.scan_chunk(heap, pages.clone(), cancel, &mut local, &mut out, |_, _| {})?;
                    // Sorting interleaved with the scan: each worker sorts its
                    // chunk (stable) so the merge below only has to interleave
                    // sorted runs.
                    if let Some(keys) = &sort_keys {
                        out = crate::relation::sorted_copy(out, out_width, keys);
                    }
                    Ok((out, local))
                });
            let (runs, worker_stats): (Vec<Vec<u8>>, Vec<ExecStats>) = worker_outputs
                .into_iter()
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .unzip();
            let data = match &sort_keys {
                // Runs are stable-sorted chunks in scan order: the
                // lowest-run-wins merge equals a stable sort of the whole
                // staged buffer (one run, on a serial pool, is that sort).
                Some(keys) => merge_sorted_runs(runs, out_width, keys),
                None => concat_runs(runs),
            };
            let rel = StagedRelation::from_partitions(out_schema.clone(), vec![data]);
            stats.merge(&worker_stats.into_iter().sum());
            stats.add_materialized(rel.data_bytes());
            if sort_keys.is_some() {
                // Sort accounting is derived from the total row count so the
                // counters do not depend on the pool width.
                stats.sort_passes += 1;
                let n = rel.num_records() as f64;
                if n > 1.0 {
                    stats.add_comparisons((n * n.log2()).ceil() as u64);
                }
            }
            StagedInput::unpartitioned(rel)
        }
        StagingStrategy::PartitionThenSort {
            key_column,
            partitions,
        } => {
            let key = CompiledKey::compile(&out_schema, *key_column);
            let m = (*partitions).max(1);
            // A power-of-two partition count masks the hash instead of
            // dividing it (same assignment).
            let mask = m.is_power_of_two().then(|| m - 1);
            stats.partition_passes += 1;
            let worker_outputs: Vec<(Vec<Vec<u8>>, ExecStats)> = pool
                .map_items(&chunks, |_, pages| {
                    let mut local = ExecStats::new();
                    let reserve = capacity(pages) / m;
                    let mut parts: Vec<Vec<u8>> =
                        (0..m).map(|_| Vec::with_capacity(reserve)).collect();
                    let mut page_out: Vec<u8> = Vec::new();
                    scan.scan_chunk(
                        heap,
                        pages.clone(),
                        cancel,
                        &mut local,
                        &mut page_out,
                        |out, local| {
                            local.add_hashes((out.len() / out_width) as u64);
                            for rec in out.chunks_exact(out_width) {
                                let hash = key.hash(rec) as usize;
                                let p = mask.map_or_else(|| hash % m, |mask| hash & mask);
                                parts[p].extend_from_slice(rec);
                            }
                            out.clear();
                        },
                    )?;
                    Ok((parts, local))
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            // Per-partition concatenation in chunk order reproduces the
            // serial scan order within every partition; the first worker's
            // buffers are the base.
            let mut worker_outputs = worker_outputs.into_iter();
            let (mut parts, first) = worker_outputs
                .next()
                .unwrap_or_else(|| (vec![Vec::new(); m], ExecStats::new()));
            stats.merge(&first);
            for (worker_parts, local) in worker_outputs {
                stats.merge(&local);
                for (part, wp) in parts.iter_mut().zip(&worker_parts) {
                    part.extend_from_slice(wp);
                }
            }
            let mut rel = StagedRelation::from_partitions(out_schema.clone(), parts);
            stats.add_materialized(rel.data_bytes());
            stats.sort_passes += rel.num_partitions() as u64;
            rel.sort_all(&[key], pool);
            StagedInput::unpartitioned(rel)
        }
        StagingStrategy::PartitionFine { key_column, .. } => {
            let key = CompiledKey::compile(&out_schema, *key_column);
            stats.partition_passes += 1;
            let worker_outputs: Vec<FineChunk> = pool
                .map_items(&chunks, |_, pages| {
                    let mut chunk = FineChunk {
                        directory: BTreeMap::new(),
                        order: Vec::new(),
                        parts: Vec::new(),
                        stats: ExecStats::new(),
                    };
                    let (directory, order, parts) =
                        (&mut chunk.directory, &mut chunk.order, &mut chunk.parts);
                    let mut page_out: Vec<u8> = Vec::new();
                    scan.scan_chunk(
                        heap,
                        pages.clone(),
                        cancel,
                        &mut chunk.stats,
                        &mut page_out,
                        |out, local| {
                            // Value → partition directory lookup (the sorted-array
                            // binary search of the paper, realised as an ordered map).
                            local.add_hashes((out.len() / out_width) as u64);
                            for rec in out.chunks_exact(out_width) {
                                let k = key.order_image(rec);
                                let next = parts.len();
                                let p = *directory.entry(k).or_insert_with(|| {
                                    parts.push(Vec::new());
                                    order.push(k);
                                    next
                                });
                                parts[p].extend_from_slice(rec);
                            }
                            out.clear();
                        },
                    )?;
                    Ok(chunk)
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            // Renumber partitions by global first occurrence: chunks are in
            // scan order, so visiting each chunk's keys in its local
            // first-occurrence order assigns exactly the ids the serial scan
            // would have.  The first chunk's local ids already are the global
            // ones, so its directory and buffers are the base.
            let mut worker_outputs = worker_outputs.into_iter();
            let (mut directory, mut parts) = match worker_outputs.next() {
                Some(first) => {
                    stats.merge(&first.stats);
                    (first.directory, first.parts)
                }
                None => (BTreeMap::new(), Vec::new()),
            };
            for chunk in worker_outputs {
                stats.merge(&chunk.stats);
                for (k, local_part) in chunk.order.iter().zip(&chunk.parts) {
                    let next = parts.len();
                    let p = *directory.entry(*k).or_insert_with(|| {
                        parts.push(Vec::new());
                        next
                    });
                    parts[p].extend_from_slice(local_part);
                }
            }
            let rel = StagedRelation::from_partitions(out_schema.clone(), parts);
            stats.add_materialized(rel.data_bytes());
            StagedInput {
                relation: rel,
                fine_directory: Some(directory),
            }
        }
    };

    // Empty fine directories still need a valid (empty) relation.
    if output.relation.num_partitions() == 0 {
        output.relation = StagedRelation::new(out_schema);
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_sql::analyze::ColumnFilter;
    use hique_sql::ast::CmpOp;
    use hique_types::{Column, DataType, Row, Schema, Value};

    /// The one staging kernel at a given pool width, never cancelled.
    fn stage(
        heap: &TableHeap,
        desc: &StagedTable,
        stats: &mut ExecStats,
        threads: usize,
    ) -> Result<StagedInput> {
        let scan = ScanKernels::compile(desc, heap.schema())?;
        let pool = ScopedPool::new(threads);
        stage_table(heap, &scan, desc, stats, &pool, &CancelToken::disabled())
    }

    fn heap() -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
            Column::new("pad", DataType::Char(20)),
        ]);
        TableHeap::from_rows(
            schema,
            (0..500).map(|i| {
                Row::new(vec![
                    Value::Int32(i % 25),
                    Value::Float64(i as f64),
                    Value::Str("x".into()),
                ])
            }),
        )
        .unwrap()
    }

    fn descriptor(strategy: StagingStrategy, filters: Vec<ColumnFilter>) -> StagedTable {
        let heap = heap();
        StagedTable {
            table: 0,
            table_name: "t".into(),
            filters,
            keep: vec![0, 1],
            schema: heap.schema().project(&[0, 1]),
            strategy,
            estimated_rows: 100,
        }
    }

    #[test]
    fn plain_scan_filters_and_projects() {
        let heap = heap();
        let filter = ColumnFilter {
            table: 0,
            column: 1,
            op: CmpOp::Lt,
            value: Value::Float64(100.0),
        };
        let mut stats = ExecStats::new();
        let staged = stage(
            &heap,
            &descriptor(StagingStrategy::None, vec![filter]),
            &mut stats,
            1,
        )
        .unwrap();
        assert_eq!(staged.relation.num_records(), 100);
        assert_eq!(staged.relation.tuple_size(), 12);
        assert!(staged.fine_directory.is_none());
        assert_eq!(stats.tuples_processed, 500);
        assert!(stats.bytes_materialized >= 1200);
        assert_eq!(stats.function_calls, 1);
    }

    #[test]
    fn sorted_staging_orders_by_key() {
        let heap = heap();
        let mut stats = ExecStats::new();
        let staged = stage(
            &heap,
            &descriptor(
                StagingStrategy::Sort {
                    key_columns: vec![0],
                },
                vec![],
            ),
            &mut stats,
            1,
        )
        .unwrap();
        let keys: Vec<i64> = staged
            .relation
            .records()
            .map(|r| hique_types::tuple::read_i32_at(r, 0) as i64)
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(stats.sort_passes, 1);
    }

    #[test]
    fn coarse_partitioning_covers_all_rows_and_separates_keys() {
        let heap = heap();
        let mut stats = ExecStats::new();
        let staged = stage(
            &heap,
            &descriptor(
                StagingStrategy::PartitionThenSort {
                    key_column: 0,
                    partitions: 8,
                },
                vec![],
            ),
            &mut stats,
            1,
        )
        .unwrap();
        let rel = &staged.relation;
        assert_eq!(rel.num_partitions(), 8);
        assert_eq!(rel.num_records(), 500);
        // Same key never lands in two partitions.
        let mut seen: std::collections::HashMap<i32, usize> = Default::default();
        for p in 0..rel.num_partitions() {
            for r in rel.partition_records(p) {
                let k = hique_types::tuple::read_i32_at(r, 0);
                if let Some(&prev) = seen.get(&k) {
                    assert_eq!(prev, p, "key {k} split across partitions");
                } else {
                    seen.insert(k, p);
                }
            }
            // Each partition sorted on the key.
            let keys: Vec<i32> = rel
                .partition_records(p)
                .map(|r| hique_types::tuple::read_i32_at(r, 0))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(stats.partition_passes, 1);
        assert_eq!(stats.sort_passes, 8);
        assert_eq!(stats.hash_ops, 500);
    }

    #[test]
    fn fine_partitioning_builds_value_directory() {
        let heap = heap();
        let mut stats = ExecStats::new();
        let staged = stage(
            &heap,
            &descriptor(
                StagingStrategy::PartitionFine {
                    key_column: 0,
                    partitions: 25,
                },
                vec![],
            ),
            &mut stats,
            1,
        )
        .unwrap();
        let dir = staged.fine_directory.as_ref().unwrap();
        assert_eq!(dir.len(), 25);
        assert_eq!(staged.relation.num_partitions(), 25);
        // Every partition holds exactly the rows of its key value.
        let key = CompiledKey::compile(staged.relation.schema(), 0);
        for (&k, &p) in dir {
            assert_eq!(staged.relation.partition_len(p), 20, "key {k}");
            assert!(staged
                .relation
                .partition_records(p)
                .all(|r| key.order_image(r) == k));
        }
    }

    fn all_strategies() -> Vec<StagingStrategy> {
        vec![
            StagingStrategy::None,
            StagingStrategy::Sort {
                key_columns: vec![0, 1],
            },
            StagingStrategy::PartitionThenSort {
                key_column: 0,
                partitions: 8,
            },
            StagingStrategy::PartitionFine {
                key_column: 0,
                partitions: 25,
            },
        ]
    }

    fn assert_identical(a: &StagedInput, b: &StagedInput, context: &str) {
        assert_eq!(
            a.relation.num_partitions(),
            b.relation.num_partitions(),
            "{context}: partition count"
        );
        for p in 0..a.relation.num_partitions() {
            assert_eq!(
                a.relation.partition(p),
                b.relation.partition(p),
                "{context}: partition {p} bytes"
            );
        }
        assert_eq!(a.fine_directory, b.fine_directory, "{context}: directory");
    }

    #[test]
    fn parallel_staging_is_byte_identical_to_serial_with_equal_stats() {
        let heap = heap();
        for strategy in all_strategies() {
            let desc = descriptor(strategy.clone(), vec![]);
            let mut serial_stats = ExecStats::new();
            let serial = stage(&heap, &desc, &mut serial_stats, 1).unwrap();
            for threads in [2, 3, 4, 16] {
                let mut par_stats = ExecStats::new();
                let par = stage(&heap, &desc, &mut par_stats, threads).unwrap();
                let context = format!("{strategy:?} threads={threads}");
                assert_identical(&serial, &par, &context);
                // Per-worker counters must sum exactly to the serial counts.
                assert_eq!(serial_stats, par_stats, "{context}: stats");
            }
        }
    }

    #[test]
    fn parallel_staging_handles_skew_into_one_partition() {
        // Every row carries the same key: fine partitioning yields a single
        // partition fed by every worker, coarse partitioning leaves all but
        // one partition empty.
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ]);
        let heap = TableHeap::from_rows(
            schema.clone(),
            (0..400).map(|i| Row::new(vec![Value::Int32(7), Value::Float64(i as f64)])),
        )
        .unwrap();
        for strategy in [
            StagingStrategy::PartitionFine {
                key_column: 0,
                partitions: 1,
            },
            StagingStrategy::PartitionThenSort {
                key_column: 0,
                partitions: 8,
            },
        ] {
            let desc = StagedTable {
                table: 0,
                table_name: "skew".into(),
                filters: vec![],
                keep: vec![0, 1],
                schema: schema.clone(),
                strategy: strategy.clone(),
                estimated_rows: 400,
            };
            let mut s1 = ExecStats::new();
            let serial = stage(&heap, &desc, &mut s1, 1).unwrap();
            let mut s4 = ExecStats::new();
            let par = stage(&heap, &desc, &mut s4, 4).unwrap();
            assert_identical(&serial, &par, &format!("{strategy:?}"));
            assert_eq!(s1, s4);
            assert_eq!(par.relation.num_records(), 400);
            if matches!(strategy, StagingStrategy::PartitionFine { .. }) {
                assert_eq!(par.relation.num_partitions(), 1);
            }
        }
    }

    #[test]
    fn parallel_staging_of_an_empty_heap() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ]);
        let heap = TableHeap::new(schema.clone()).unwrap();
        for strategy in all_strategies() {
            let desc = StagedTable {
                table: 0,
                table_name: "empty".into(),
                filters: vec![],
                keep: vec![0, 1],
                schema: schema.clone(),
                strategy,
                estimated_rows: 0,
            };
            let mut stats = ExecStats::new();
            let par = stage(&heap, &desc, &mut stats, 4).unwrap();
            assert_eq!(par.relation.num_records(), 0);
            assert!(par.relation.num_partitions() >= 1);
        }
    }

    /// The tuple-at-a-time scan this module ran before it swept pages, kept
    /// as the reference the page sweep must equal byte for byte and counter
    /// for counter: per-tuple `add_tuple`, short-circuit filters charged one
    /// comparison each, per-column copies through a scratch record, a
    /// comparator sort.  Serial; every pool width must reproduce it.
    mod reference {
        use super::*;
        use crate::kernel::compare_keys;
        use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at};

        fn matches(f: &ColumnFilter, schema: &Schema, rec: &[u8]) -> bool {
            let off = schema.offset(f.column);
            let ord = match schema.column(f.column).dtype {
                DataType::Int32 | DataType::Date => {
                    read_i32_at(rec, off).cmp(&(f.value.as_i64().unwrap() as i32))
                }
                DataType::Int64 => read_i64_at(rec, off).cmp(&f.value.as_i64().unwrap()),
                DataType::Float64 => read_f64_at(rec, off).total_cmp(&f.value.as_f64().unwrap()),
                DataType::Char(w) => {
                    let mut needle = f.value.as_str().unwrap().as_bytes().to_vec();
                    needle.resize(w as usize, b' ');
                    rec[off..off + w as usize].cmp(&needle)
                }
            };
            f.op.matches(ord)
        }

        fn scan(
            heap: &TableHeap,
            desc: &StagedTable,
            stats: &mut ExecStats,
            mut emit: impl FnMut(&[u8], &mut ExecStats),
        ) {
            let base = heap.schema();
            let mut buf = vec![0u8; desc.schema.tuple_size()];
            for p in 0..heap.num_pages() {
                let page = heap.page_guard(p).unwrap();
                'tuples: for record in page.records() {
                    stats.add_tuple(base.tuple_size());
                    for f in &desc.filters {
                        stats.add_comparisons(1);
                        if !matches(f, base, record) {
                            continue 'tuples;
                        }
                    }
                    let mut dst = 0;
                    for &c in &desc.keep {
                        let (off, w) = (base.offset(c), base.column(c).dtype.width());
                        buf[dst..dst + w].copy_from_slice(&record[off..off + w]);
                        dst += w;
                    }
                    emit(&buf, stats);
                }
            }
        }

        pub(super) fn sorted(buf: &[u8], ts: usize, keys: &[CompiledKey]) -> Vec<u8> {
            let mut recs: Vec<&[u8]> = buf.chunks_exact(ts).collect();
            recs.sort_by(|a, b| compare_keys(keys, a, b));
            recs.concat()
        }

        pub(super) fn stage(
            heap: &TableHeap,
            desc: &StagedTable,
            stats: &mut ExecStats,
        ) -> StagedInput {
            let (schema, ts) = (desc.schema.clone(), desc.schema.tuple_size());
            let key = |c: usize| CompiledKey::compile(&desc.schema, c);
            stats.add_calls(1);
            let mut directory = None;
            let parts = match &desc.strategy {
                StagingStrategy::None => {
                    let mut out = Vec::new();
                    scan(heap, desc, stats, |rec, _| out.extend_from_slice(rec));
                    stats.add_materialized(out.len());
                    vec![out]
                }
                StagingStrategy::Sort { key_columns } => {
                    let mut out = Vec::new();
                    scan(heap, desc, stats, |rec, _| out.extend_from_slice(rec));
                    let keys: Vec<CompiledKey> = key_columns.iter().map(|&c| key(c)).collect();
                    stats.add_materialized(out.len());
                    stats.sort_passes += 1;
                    let n = (out.len() / ts) as f64;
                    if n > 1.0 {
                        stats.add_comparisons((n * n.log2()).ceil() as u64);
                    }
                    vec![sorted(&out, ts, &keys)]
                }
                StagingStrategy::PartitionThenSort {
                    key_column,
                    partitions,
                } => {
                    let (key, m) = (key(*key_column), (*partitions).max(1));
                    stats.partition_passes += 1;
                    let mut parts = vec![Vec::new(); m];
                    scan(heap, desc, stats, |rec, stats| {
                        stats.add_hashes(1);
                        parts[(key.hash(rec) as usize) % m].extend_from_slice(rec);
                    });
                    stats.add_materialized(parts.iter().map(Vec::len).sum());
                    stats.sort_passes += m as u64;
                    parts.iter().map(|p| sorted(p, ts, &[key])).collect()
                }
                StagingStrategy::PartitionFine { key_column, .. } => {
                    let key = key(*key_column);
                    stats.partition_passes += 1;
                    let mut dir: BTreeMap<u64, usize> = BTreeMap::new();
                    let mut parts: Vec<Vec<u8>> = Vec::new();
                    scan(heap, desc, stats, |rec, stats| {
                        stats.add_hashes(1);
                        let next = parts.len();
                        let p = *dir.entry(key.order_image(rec)).or_insert_with(|| {
                            parts.push(Vec::new());
                            next
                        });
                        parts[p].extend_from_slice(rec);
                    });
                    stats.add_materialized(parts.iter().map(Vec::len).sum());
                    directory = Some(dir);
                    parts
                }
            };
            StagedInput {
                relation: StagedRelation::from_partitions(schema, parts),
                fine_directory: directory,
            }
        }
    }

    /// xorshift64*: the tests' seeded generator.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.max(1);
        move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// One column of every type the sweeps specialise on, strings narrower
    /// and wider than the eight-byte image, and a pad between them so kept
    /// columns can be adjacent or not.
    fn wide_schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("l", DataType::Int64),
            Column::new("d", DataType::Date),
            Column::new("pad", DataType::Char(5)),
            Column::new("f", DataType::Float64),
            Column::new("c1", DataType::Char(1)),
            Column::new("c3", DataType::Char(3)),
            Column::new("c12", DataType::Char(12)),
        ])
    }

    /// Small domains with the values that break naive compares: extremes,
    /// signed zeros, NaN, infinities, bytes ≥ 0x80, strings sharing an
    /// eight-byte prefix.
    fn domain(column: usize) -> Vec<Value> {
        match column {
            0 => [i32::MIN, -7, 0, 3, i32::MAX].map(Value::Int32).to_vec(),
            1 => [i64::MIN, -1, 0, 1 << 40, i64::MAX]
                .map(Value::Int64)
                .to_vec(),
            2 => [-400, 0, 9000, 9001, i32::MAX].map(Value::Date).to_vec(),
            3 => vec![Value::Str("pad".into())],
            4 => [
                f64::NEG_INFINITY,
                -2.5,
                -0.0,
                0.0,
                1e300,
                f64::INFINITY,
                f64::NAN,
            ]
            .map(Value::Float64)
            .to_vec(),
            5 => ["A", "R", "z"].map(|s| Value::Str(s.into())).to_vec(),
            6 => ["", "ab", "abc", "\u{e9}"]
                .map(|s| Value::Str(s.into()))
                .to_vec(),
            _ => [
                "prefix01",
                "prefix01AAAA",
                "prefix01AAAB",
                "\u{e9}t\u{e9}",
                "",
            ]
            .map(|s| Value::Str(s.into()))
            .to_vec(),
        }
    }

    /// `rows` seeded rows over [`wide_schema`]: several pages and a partial
    /// last one.  `paged` moves the heap behind a two-frame pool, so a
    /// scan's guards come back pinned, evicted and re-read, and — at pool
    /// widths above two — bypassed (`PageRef::Owned`).
    fn wide_heap(rows: usize, seed: u64, paged: bool) -> TableHeap {
        let schema = wide_schema();
        let mut next = rng(seed);
        let mut heap = TableHeap::from_rows(
            schema.clone(),
            (0..rows).map(|_| {
                Row::new(
                    (0..schema.len())
                        .map(|c| {
                            let d = domain(c);
                            d[next() as usize % d.len()].clone()
                        })
                        .collect(),
                )
            }),
        )
        .unwrap();
        if paged {
            static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let mut path = std::env::temp_dir();
            path.push(format!(
                "hique_staging_test_{}_{}.tbl",
                std::process::id(),
                SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let disk = std::sync::Arc::new(hique_storage::DiskManager::open(&path).unwrap());
            let pool = std::sync::Arc::new(hique_storage::BufferPool::new(2).unwrap());
            heap.spill_to_disk(&pool, disk).unwrap();
            std::fs::remove_file(&path).ok();
        }
        heap
    }

    fn strategies_for(kept: usize) -> Vec<StagingStrategy> {
        vec![
            StagingStrategy::None,
            StagingStrategy::Sort {
                key_columns: (0..kept.min(2)).collect(),
            },
            StagingStrategy::PartitionThenSort {
                key_column: kept - 1,
                partitions: 3,
            },
            StagingStrategy::PartitionFine {
                key_column: 0,
                partitions: 8,
            },
        ]
    }

    /// Stage `desc` at every pool width and hold bytes, directory and the
    /// whole `ExecStats` to the tuple-at-a-time reference.
    fn assert_matches_reference(heap: &TableHeap, desc: &StagedTable) {
        let mut expected_stats = ExecStats::new();
        let expected = reference::stage(heap, desc, &mut expected_stats);
        for threads in [1, 2, 3, 4, 16] {
            let mut stats = ExecStats::new();
            let staged = stage(heap, desc, &mut stats, threads).unwrap();
            let context = format!(
                "paged={} threads={threads} filters={:?} keep={:?} {:?}",
                heap.is_paged(),
                desc.filters,
                desc.keep,
                desc.strategy
            );
            assert_identical(&expected, &staged, &context);
            assert_eq!(expected_stats, stats, "{context}: stats");
        }
    }

    fn wide_descriptor(
        filters: Vec<ColumnFilter>,
        keep: Vec<usize>,
        strategy: StagingStrategy,
        estimated_rows: usize,
    ) -> StagedTable {
        StagedTable {
            table: 0,
            table_name: "wide".into(),
            filters,
            schema: wide_schema().project(&keep),
            keep,
            strategy,
            estimated_rows,
        }
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];

    #[test]
    fn page_sweep_equals_the_tuple_loop_for_every_operator_and_type() {
        for paged in [false, true] {
            let heap = wide_heap(300, 7, paged);
            assert!(heap.num_pages() > 3);
            for column in [0, 1, 2, 4, 5, 6, 7] {
                for op in OPS {
                    for value in domain(column) {
                        let filter = ColumnFilter {
                            table: 0,
                            column,
                            op,
                            value,
                        };
                        // Adjacent kept columns (one coalesced copy).
                        let desc =
                            wide_descriptor(vec![filter], vec![4, 5, 6], StagingStrategy::None, 40);
                        assert_matches_reference(&heap, &desc);
                    }
                }
            }
        }
    }

    #[test]
    fn page_sweep_equals_the_tuple_loop_for_seeded_scans_and_strategies() {
        let keeps: [&[usize]; 5] = [
            &[0, 1, 2],
            &[7, 0, 4],
            &[6],
            &[5, 1, 0, 3],
            &[2, 3, 4, 5, 6, 7],
        ];
        let mut next = rng(42);
        for paged in [false, true] {
            // 0 rows: no pages at all; 1 row: one partial page; 431 rows:
            // several pages and a partial last one.
            for rows in [0, 1, 431] {
                let heap = wide_heap(rows, 11 + rows as u64, paged);
                for case in 0..10 {
                    // 0–3 filters; early ones often reject, so later ones
                    // see short (and empty) selections.
                    let filters: Vec<ColumnFilter> = (0..case % 4)
                        .map(|_| {
                            let column = [0, 1, 2, 4, 5, 6, 7][next() as usize % 7];
                            let d = domain(column);
                            ColumnFilter {
                                table: 0,
                                column,
                                op: OPS[next() as usize % OPS.len()],
                                value: d[next() as usize % d.len()].clone(),
                            }
                        })
                        .collect();
                    let keep = keeps[next() as usize % keeps.len()].to_vec();
                    // Estimates below, at and far above the heap's size.
                    let estimated_rows = [0, rows, 1 << 20][next() as usize % 3];
                    for strategy in strategies_for(keep.len()) {
                        let desc = wide_descriptor(
                            filters.clone(),
                            keep.clone(),
                            strategy,
                            estimated_rows,
                        );
                        assert_matches_reference(&heap, &desc);
                    }
                }
            }
        }
    }

    #[test]
    fn staged_buffers_are_never_reserved_beyond_what_the_heap_can_produce() {
        let heap = wide_heap(500, 3, false);
        let pages = 0..heap.num_pages();
        assert_eq!(
            staged_capacity(&heap, &pages, usize::MAX >> 8, 12),
            500 * 12
        );
        assert_eq!(staged_capacity(&heap, &pages, 10, 12), 10 * 12);
        assert!(staged_capacity(&heap, &(0..1), 1 << 30, 12) <= 500 * 12);
        let empty = TableHeap::new(wide_schema()).unwrap();
        assert_eq!(staged_capacity(&empty, &(0..0), 100, 12), 0);
    }

    #[test]
    fn filters_that_reject_everything_produce_an_empty_relation() {
        let heap = heap();
        let filter = ColumnFilter {
            table: 0,
            column: 0,
            op: CmpOp::Gt,
            value: Value::Int32(1000),
        };
        let mut stats = ExecStats::new();
        for strategy in [
            StagingStrategy::None,
            StagingStrategy::Sort {
                key_columns: vec![0],
            },
            StagingStrategy::PartitionFine {
                key_column: 0,
                partitions: 4,
            },
            StagingStrategy::PartitionThenSort {
                key_column: 0,
                partitions: 4,
            },
        ] {
            let staged = stage(
                &heap,
                &descriptor(strategy, vec![filter.clone()]),
                &mut stats,
                1,
            )
            .unwrap();
            assert_eq!(staged.relation.num_records(), 0);
        }
    }
}
