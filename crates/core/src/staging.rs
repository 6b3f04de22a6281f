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
use hique_types::{CancelToken, ExecStats, Result};

use crate::kernel::{CompiledFilter, CompiledKey, CompiledProjection};
use crate::relation::{merge_sorted_runs, StagedRelation};

/// The result of staging one input: the materialized relation plus, for
/// fine-grained partitioning, the value → partition directory needed to
/// align corresponding partitions across join inputs.
#[derive(Debug, Clone)]
pub struct StagedInput {
    /// The staged records (partitioned according to the strategy).
    pub relation: StagedRelation,
    /// Fine-partitioning directory: key value (as `i64` image) → partition.
    pub fine_directory: Option<BTreeMap<i64, usize>>,
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

/// The compiled scan/filter/project kernels shared by every worker.
struct ScanKernels {
    filters: Vec<CompiledFilter>,
    projection: CompiledProjection,
    tuple_size: usize,
    /// Checked once per heap page, so a cancelled execution stops mid-scan
    /// at the next page boundary (each worker observes the shared token).
    cancel: CancelToken,
}

impl ScanKernels {
    /// Run the instantiated Listing 1 loop over the heap pages of `pages`,
    /// feeding every surviving projected record to `emit`.
    ///
    /// Pages are fetched through [`TableHeap::page_guard`], so the same
    /// compiled loop serves memory-resident heaps (borrowed pages) and
    /// pool-backed heaps (pinned frames, unpinned as each page's scan
    /// finishes).
    fn scan_chunk(
        &self,
        heap: &TableHeap,
        pages: Range<usize>,
        stats: &mut ExecStats,
        mut emit: impl FnMut(&[u8], &mut ExecStats),
    ) -> Result<()> {
        let mut buf = vec![0u8; self.projection.output_width()];
        // loop over pages / loop over tuples (Listing 1).
        for p in pages {
            self.cancel.check()?;
            let page = heap.page_guard(p)?;
            'tuples: for record in page.records() {
                stats.add_tuple(self.tuple_size);
                for f in &self.filters {
                    stats.add_comparisons(1);
                    if !f.matches(record) {
                        continue 'tuples;
                    }
                }
                self.projection.project_into(record, &mut buf);
                emit(&buf, stats);
            }
        }
        Ok(())
    }
}

/// The per-worker output of a fine-partitioning scan chunk: local
/// value→partition directory, the key values in first-occurrence order, and
/// the local partition buffers.
struct FineChunk {
    directory: BTreeMap<i64, usize>,
    order: Vec<i64>,
    parts: Vec<Vec<u8>>,
    stats: ExecStats,
}

/// Stage one base table according to its plan descriptor, dividing the scan
/// across `pool`.
///
/// The scan/filter/project loop is the instantiated Listing 1 template: the
/// filters are [`CompiledFilter`]s with baked-in offsets and constants, the
/// projection is a list of byte-range copies, and partitioning/sorting are
/// interleaved with the scan exactly as the generated code would do.
///
/// The parallel decomposition is the paper's partitioning pre-processing
/// read backwards: pages are divided into contiguous per-worker chunks
/// ([`chunk_ranges`] — deterministic in the page and worker counts), each
/// worker runs the same compiled loop over its chunk, and the per-worker
/// outputs are merged in chunk order.  Every strategy's merge reproduces the
/// serial scan order exactly (concatenation, stable sort + run merge,
/// per-partition concatenation, first-occurrence directory renumbering), so
/// the staged relation is byte-identical for every pool width.  Every scan
/// worker checks `cancel` once per heap page.
pub fn stage_table(
    heap: &TableHeap,
    staged: &StagedTable,
    stats: &mut ExecStats,
    pool: &ScopedPool,
    cancel: &CancelToken,
) -> Result<StagedInput> {
    let base_schema = heap.schema();
    let kernels = ScanKernels {
        filters: staged
            .filters
            .iter()
            .map(|f| CompiledFilter::compile(f, base_schema))
            .collect::<Result<_>>()?,
        projection: CompiledProjection::compile(base_schema, &staged.keep),
        tuple_size: base_schema.tuple_size(),
        cancel: cancel.clone(),
    };
    let out_schema = staged.schema.clone();
    let out_width = kernels.projection.output_width();
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
                    let mut out: Vec<u8> = Vec::new();
                    kernels.scan_chunk(heap, pages.clone(), &mut local, |rec, _| {
                        out.extend_from_slice(rec)
                    })?;
                    // Sorting interleaved with the scan: each worker sorts its
                    // chunk (stable) so the merge below only has to interleave
                    // sorted runs.
                    if let Some(keys) = &sort_keys {
                        out = crate::relation::sorted_copy(&out, out_width, keys);
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
                // The first run is the base buffer: a serial scan's single run
                // is staged without a second copy of the relation.
                None => {
                    let mut runs = runs.into_iter();
                    let mut data = runs.next().unwrap_or_default();
                    runs.for_each(|run| data.extend_from_slice(&run));
                    data
                }
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
        StagingStrategy::PartitionCoarse {
            key_column,
            partitions,
        }
        | StagingStrategy::PartitionThenSort {
            key_column,
            partitions,
        } => {
            let key = CompiledKey::compile(&out_schema, *key_column);
            let m = (*partitions).max(1);
            stats.partition_passes += 1;
            let worker_outputs: Vec<(Vec<Vec<u8>>, ExecStats)> = pool
                .map_items(&chunks, |_, pages| {
                    let mut local = ExecStats::new();
                    let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
                    kernels.scan_chunk(heap, pages.clone(), &mut local, |rec, local| {
                        local.add_hashes(1);
                        let p = (key.hash(rec) as usize) % m;
                        parts[p].extend_from_slice(rec);
                    })?;
                    Ok((parts, local))
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            // Per-partition concatenation in chunk order reproduces the
            // serial scan order within every partition.
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
            for (worker_parts, local) in &worker_outputs {
                stats.merge(local);
                for (p, wp) in worker_parts.iter().enumerate() {
                    parts[p].extend_from_slice(wp);
                }
            }
            let mut rel = StagedRelation::from_partitions(out_schema.clone(), parts);
            stats.add_materialized(rel.data_bytes());
            if matches!(staged.strategy, StagingStrategy::PartitionThenSort { .. }) {
                stats.sort_passes += rel.num_partitions() as u64;
                rel.sort_all(&[key], pool);
            }
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
                    kernels.scan_chunk(heap, pages.clone(), &mut chunk.stats, |rec, local| {
                        // Value → partition directory lookup (the sorted-array
                        // binary search of the paper, realised as an ordered map).
                        local.add_hashes(1);
                        let k = key.as_i64(rec);
                        let next = parts.len();
                        let p = *directory.entry(k).or_insert_with(|| {
                            parts.push(Vec::new());
                            order.push(k);
                            next
                        });
                        parts[p].extend_from_slice(rec);
                    })?;
                    Ok(chunk)
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            // Renumber partitions by global first occurrence: chunks are in
            // scan order, so visiting each chunk's keys in its local
            // first-occurrence order assigns exactly the ids the serial scan
            // would have.
            let mut directory: BTreeMap<i64, usize> = BTreeMap::new();
            let mut parts: Vec<Vec<u8>> = Vec::new();
            for chunk in &worker_outputs {
                stats.merge(&chunk.stats);
                for &k in &chunk.order {
                    let next = parts.len();
                    directory.entry(k).or_insert_with(|| {
                        parts.push(Vec::new());
                        next
                    });
                }
            }
            for chunk in &worker_outputs {
                for (&k, &local_p) in &chunk.directory {
                    parts[directory[&k]].extend_from_slice(&chunk.parts[local_p]);
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
        let pool = ScopedPool::new(threads);
        stage_table(heap, desc, stats, &pool, &CancelToken::disabled())
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
        for (&k, &p) in dir {
            assert_eq!(staged.relation.partition_len(p), 20, "key {k}");
            assert!(staged
                .relation
                .partition_records(p)
                .all(|r| hique_types::tuple::read_i32_at(r, 0) as i64 == k));
        }
    }

    fn all_strategies() -> Vec<StagingStrategy> {
        vec![
            StagingStrategy::None,
            StagingStrategy::Sort {
                key_columns: vec![0, 1],
            },
            StagingStrategy::PartitionCoarse {
                key_column: 0,
                partitions: 8,
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
