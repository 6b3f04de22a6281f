//! Spilling staged inputs and join temporaries through the buffer pool.
//!
//! The paper stages every input (and materializes join intermediates) as
//! "temporary tables inside the buffer pool" (§IV).  When the plan carries a
//! `memory_budget_pages` and the catalog runs in paged mode, the executor
//! routes exactly those temporaries through the catalog's `TempSpace` via
//! the shared [`SpillContext`] policy: a staged relation larger than a
//! fraction of the budget is written out as pool pages (dirty frames that
//! the LRU policy evicts to disk under pressure).
//!
//! Consumption goes through the pipeline substrate instead of a
//! whole-relation reload: [`StagedSlot::partitions`] hands out the same
//! [`PartitionSet`] a resident relation gives its consumers, whose
//! [`PartitionStream`]s yield records **page-at-a-time through pool pin
//! guards**, so the aggregation kernels, the output decoding and the
//! scatter passes run one code path for both and never re-materialize a
//! spilled partition; the set reads a spilled input with one worker
//! ([`PartitionSet::readers`]).  Consumers that genuinely need random
//! access (the join kernels' merge cursors and sorts) materialize
//! explicitly with [`StagedSlot::into_input`], which gathers one partition
//! at a time through the same guards.  The spill decision depends only on
//! the relation's byte size, so `threads = N` spills exactly what
//! `threads = 1` spills, and results and work counters stay identical for
//! every budget.

use std::collections::BTreeMap;

use hique_pipeline::{PartitionSet, PartitionStream, SpillContext};
use hique_storage::SpillHandle;
use hique_types::{HiqueError, Result, Schema};

use crate::relation::StagedRelation;
use crate::staging::StagedInput;

/// A staged relation written out as pool pages, partition structure and
/// fine directory preserved.
pub struct SpilledInput {
    schema: Schema,
    parts: Vec<SpillHandle>,
    fine_directory: Option<BTreeMap<u64, usize>>,
}

/// A staged input that is either memory-resident or spilled to the pool.
pub enum StagedSlot {
    /// Resident packed buffers.
    Mem(StagedInput),
    /// Partition page-ranges in the catalog's spill space.
    Spilled(SpilledInput),
}

fn no_spill_context() -> HiqueError {
    HiqueError::Execution("spilled input consumed without an active spill context".into())
}

impl StagedSlot {
    /// Wrap a freshly staged input, spilling it when a context is active
    /// and the relation exceeds the threshold.
    pub fn stage(input: StagedInput, ctx: Option<&SpillContext>) -> Result<StagedSlot> {
        let Some(ctx) = ctx else {
            return Ok(StagedSlot::Mem(input));
        };
        if !ctx.should_spill(input.relation.data_bytes()) {
            return Ok(StagedSlot::Mem(input));
        }
        let rel = &input.relation;
        let ts = rel.tuple_size();
        let parts: Vec<SpillHandle> = (0..rel.num_partitions())
            .map(|p| ctx.spill(rel.partition(p), ts))
            .collect::<Result<_>>()?;
        Ok(StagedSlot::Spilled(SpilledInput {
            schema: rel.schema().clone(),
            parts,
            fine_directory: input.fine_directory,
        }))
    }

    /// The record layout of the staged relation.
    pub fn schema(&self) -> &Schema {
        match self {
            StagedSlot::Mem(input) => input.relation.schema(),
            StagedSlot::Spilled(s) => &s.schema,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match self {
            StagedSlot::Mem(input) => input.relation.num_partitions(),
            StagedSlot::Spilled(s) => s.parts.len(),
        }
    }

    /// Total bytes of record data across partitions.
    pub fn data_bytes(&self) -> usize {
        match self {
            StagedSlot::Mem(input) => input.relation.data_bytes(),
            StagedSlot::Spilled(s) => s
                .parts
                .iter()
                .map(|h| h.records * h.tuple_size)
                .sum::<usize>(),
        }
    }

    /// True when the input currently lives in the spill space.
    pub fn is_spilled(&self) -> bool {
        matches!(self, StagedSlot::Spilled(_))
    }

    /// Page-at-a-time read views of every partition, in partition order.
    ///
    /// This is the page-pipeline consumption path: spilled partitions are
    /// pinned one pool page at a time, memory partitions are sliced into
    /// the same page-shaped chunks, and a consumer written against the set
    /// behaves identically for both — no whole-partition reload anywhere.
    pub fn partitions<'a>(&'a self, ctx: Option<&'a SpillContext>) -> Result<PartitionSet<'a>> {
        match self {
            StagedSlot::Mem(input) => Ok(input.relation.partitions()),
            StagedSlot::Spilled(s) => {
                let ctx = ctx.ok_or_else(no_spill_context)?;
                Ok(PartitionSet::new(
                    s.parts
                        .iter()
                        .map(|&h| PartitionStream::spilled(ctx, h))
                        .collect(),
                ))
            }
        }
    }

    /// Materialize the input for a consumer that needs random access (the
    /// join kernels' merge cursors and sorts).  Spilled partitions are
    /// gathered one at a time through pool pin guards; streaming consumers
    /// should use [`StagedSlot::partitions`] instead and never pay this.
    pub fn into_input(self, ctx: Option<&SpillContext>) -> Result<StagedInput> {
        match self {
            StagedSlot::Mem(input) => Ok(input),
            StagedSlot::Spilled(spilled) => {
                let ctx = ctx.ok_or_else(no_spill_context)?;
                // Hold every partition's residency registration until the
                // whole relation is assembled, so the meter's high-water
                // reflects the cumulative materialization — the honest
                // footprint of a random-access consumer.
                let mut guards = Vec::with_capacity(spilled.parts.len());
                let mut parts: Vec<Vec<u8>> = Vec::with_capacity(spilled.parts.len());
                for &h in &spilled.parts {
                    let (buf, guard) = PartitionStream::spilled(ctx, h).gather_tracked()?;
                    guards.extend(guard);
                    parts.push(buf);
                }
                Ok(StagedInput {
                    relation: StagedRelation::from_partitions(spilled.schema, parts),
                    fine_directory: spilled.fine_directory,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_storage::{BufferPool, TempSpace};
    use hique_types::{CancelToken, Column, DataType, Row, Schema, Value};
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ])
    }

    fn staged(partitions: usize, rows: usize) -> StagedInput {
        let mut rel = StagedRelation::with_partitions(schema(), partitions);
        for i in 0..rows {
            let rec = Row::new(vec![Value::Int32(i as i32), Value::Float64(i as f64)])
                .to_record(&schema())
                .unwrap();
            rel.push_to(i % partitions, &rec);
        }
        StagedInput {
            relation: rel,
            fine_directory: Some((0..3u64).map(|k| (k, k as usize)).collect()),
        }
    }

    fn temp_space(name: &str, budget: usize) -> (Arc<TempSpace>, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hique_spill_ctx_{}_{name}.spill",
            std::process::id()
        ));
        let pool = Arc::new(BufferPool::new(budget).unwrap());
        (Arc::new(TempSpace::create(pool, &path).unwrap()), path)
    }

    #[test]
    fn spill_and_materialize_preserve_partitions_and_directory() {
        let (temp, path) = temp_space("roundtrip", 2);
        // Tiny budget: everything spills.
        let ctx = SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space is free");
        let input = staged(3, 500);
        let original = input.relation.clone();
        let slot = StagedSlot::stage(input, Some(&ctx)).unwrap();
        assert!(slot.is_spilled());
        assert_eq!(slot.num_partitions(), 3);
        assert_eq!(slot.data_bytes(), original.data_bytes());
        assert_eq!(ctx.spill_count(), 3);
        let reloaded = slot.into_input(Some(&ctx)).unwrap();
        assert_eq!(reloaded.relation.num_partitions(), 3);
        for p in 0..3 {
            assert_eq!(reloaded.relation.partition(p), original.partition(p));
        }
        assert_eq!(
            reloaded.fine_directory.as_ref().map(|d| d.len()),
            Some(3usize)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spilled_slot_streams_page_at_a_time_under_budget() {
        let (temp, path) = temp_space("stream", 2);
        let ctx = SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space is free");
        let input = staged(2, 2000);
        let original = input.relation.clone();
        let slot = StagedSlot::stage(input, Some(&ctx)).unwrap();
        assert!(slot.is_spilled());

        // Stream every record back in partition order; contents match the
        // original relation byte for byte.
        let set = slot.partitions(Some(&ctx)).unwrap();
        let mut streamed = Vec::new();
        set.for_each_record(|rec| streamed.extend_from_slice(rec))
            .unwrap();
        let mut expect = Vec::new();
        for p in 0..original.num_partitions() {
            expect.extend_from_slice(original.partition(p));
        }
        assert_eq!(streamed, expect);

        // The streaming consumer held exactly one page materialized at a
        // time — the contract whole-partition reload could never offer.
        assert_eq!(ctx.meter().peak(), 1);
        // Consuming without a context is a typed error.
        assert!(slot.partitions(None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_relations_stay_resident_and_no_context_means_no_spill() {
        let (temp, path) = temp_space("resident", 4);
        // Large budget: the 500-row relation is below a quarter of it.
        let ctx =
            SpillContext::acquire(&temp, 4096, CancelToken::disabled()).expect("space is free");
        assert!(ctx.threshold_bytes() > 500 * 12);
        let slot = StagedSlot::stage(staged(1, 500), Some(&ctx)).unwrap();
        assert!(!slot.is_spilled());
        let slot = StagedSlot::stage(staged(1, 500), None).unwrap();
        assert!(!slot.is_spilled());
        assert_eq!(slot.into_input(None).unwrap().relation.num_records(), 500);
        std::fs::remove_file(&path).ok();
    }
}
