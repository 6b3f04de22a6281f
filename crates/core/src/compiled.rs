//! The holistic kernel provider: a [`GeneratedQuery`]'s statically compiled
//! kernels plugged into the evaluate-query driver ([`crate::exec::run`]).
//!
//! Staging is the instantiated scan/filter/project template with the
//! plan's pre-processing interleaved; a join step is the plan's algorithm
//! (merge, fine partition, hybrid hash-sort-merge) or the whole join
//! team's deeply nested loops in one call; aggregation is
//! the plan's algorithm over a resident input, or its page-at-a-time stream
//! form when the input sits in the spill space.

use hique_plan::{AggAlgorithm, AggregateSpec, JoinAlgorithm, StagingStrategy};
use hique_storage::TableHeap;
use hique_types::{HiqueError, Result, Row, Value};

use crate::exec::{Kernels, RecordSink, Run};
use crate::generator::{GeneratedQuery, OutputKernel};
use crate::join::{fine_partition_join, hybrid_join, merge_join, team_join, JoinSink};
use crate::kernel::CompiledKey;
use crate::relation::StagedRelation;
use crate::spill::StagedSlot;
use crate::staging::{stage_table, ScanKernels, StagedInput};

impl Kernels for GeneratedQuery {
    const FUSES_JOIN_TEAMS: bool = true;

    fn stage(&self, t: usize, heap: &TableHeap, run: &mut Run<'_>) -> Result<StagedInput> {
        let desc = &run.plan.staged[t];
        let scan = ScanKernels::compile(desc, heap.schema())?;
        stage_table(heap, &scan, desc, &mut run.stats, &run.pool, run.cancel)
    }

    fn join(
        &self,
        step: usize,
        left: StagedInput,
        mut rights: Vec<StagedInput>,
        run: &mut Run<'_>,
        sink: &mut RecordSink<'_, impl FnMut(&[u8]) -> Row>,
    ) -> Result<()> {
        let plan = run.plan;
        if let Some(team) = &plan.join_team {
            // The team's deeply nested loops cursor over every input at
            // once (random access within key groups).
            let inputs: Vec<&StagedRelation> = std::iter::once(&left)
                .chain(&rights)
                .map(|input| &input.relation)
                .collect();
            let keys: Vec<CompiledKey> = team
                .members
                .iter()
                .zip(&team.key_columns)
                .map(|(&m, &kc)| CompiledKey::compile(&plan.staged[m].schema, kc))
                .collect();
            let mut buf = vec![0u8; plan.joined_schema.tuple_size()];
            team_join(&inputs, &keys, &mut run.stats, &mut |records| {
                let mut off = 0usize;
                for r in records {
                    buf[off..off + r.len()].copy_from_slice(r);
                    off += r.len();
                }
                sink.push(&buf);
            });
            return Ok(());
        }

        // A cascade step has exactly one right input.
        let right = rights.swap_remove(0);
        let mut buf = vec![0u8; left.relation.tuple_size() + right.relation.tuple_size()];
        match sink {
            // A counting sink goes to the kernels as a counting sink:
            // workers count locally with nothing concatenated or replayed
            // (the paper's micro-benchmark methodology).
            RecordSink::Count(n) => self.join_pair(step, left, right, run, &mut JoinSink::Count(n)),
            sink => {
                let mut consume = |lrec: &[u8], rrec: &[u8]| {
                    buf[..lrec.len()].copy_from_slice(lrec);
                    buf[lrec.len()..].copy_from_slice(rrec);
                    sink.push(&buf);
                };
                self.join_pair(step, left, right, run, &mut JoinSink::Pairs(&mut consume))
            }
        }
        Ok(())
    }

    fn aggregate(
        &self,
        spec: &AggregateSpec,
        slot: StagedSlot,
        run: &mut Run<'_>,
    ) -> Result<Vec<Row>> {
        let plan = run.plan;
        let Some(compiled) = &self.aggregation else {
            return Err(HiqueError::Execution(
                "aggregate plan without generated aggregation kernels".into(),
            ));
        };
        let (pool, stats) = (&run.pool, &mut run.stats);
        // Did staging already produce exactly the interesting order sort
        // aggregation needs?
        let already_sorted = plan.staged.len() == 1
            && matches!(
                &plan.staged[plan.join_order[0]].strategy,
                StagingStrategy::Sort { key_columns } if *key_columns == spec.group_columns
            );
        let hybrid_partitions = |partitions: usize, data_bytes: usize| {
            partitions.max((data_bytes / (1 << 20)).next_power_of_two())
        };
        // A spilled aggregation input is consumed page-at-a-time through
        // the pipeline substrate — except when sort aggregation must first
        // sort it, which requires random access and therefore an explicit
        // gather.
        let stream = slot.is_spilled() && (spec.algorithm != AggAlgorithm::Sort || already_sorted);
        let group_rows = if stream {
            let set = slot.partitions(run.spill)?;
            match spec.algorithm {
                AggAlgorithm::Map => compiled.map_aggregate_stream(&set, stats)?,
                AggAlgorithm::HybridHashSort => {
                    let partitions = hybrid_partitions(slot.num_partitions(), slot.data_bytes());
                    compiled.hybrid_aggregate_stream(
                        &set,
                        slot.schema(),
                        partitions,
                        pool,
                        stats,
                    )?
                }
                AggAlgorithm::Sort => compiled.sort_aggregate_stream(&set, stats)?,
            }
        } else {
            let mut rel = slot.into_input(run.spill)?.relation;
            match spec.algorithm {
                AggAlgorithm::Map => compiled.map_aggregate(&rel, pool, stats)?,
                AggAlgorithm::HybridHashSort => {
                    let partitions = hybrid_partitions(rel.num_partitions(), rel.data_bytes());
                    compiled.hybrid_aggregate(&rel, partitions, pool, stats)
                }
                AggAlgorithm::Sort => {
                    if !already_sorted {
                        let group_keys: Vec<CompiledKey> = spec
                            .group_columns
                            .iter()
                            .map(|&c| CompiledKey::compile(&plan.joined_schema, c))
                            .collect();
                        rel.flatten();
                        stats.sort_passes += 1;
                        rel.sort_all(&group_keys, pool);
                    }
                    compiled.sort_aggregate(&rel, pool, stats)
                }
            }
        };
        // Map aggregation rows to output columns.
        let group_count = spec.group_columns.len();
        Ok(group_rows
            .into_iter()
            .map(|grow| {
                Row::new(
                    self.outputs
                        .iter()
                        .map(|k| match k {
                            OutputKernel::GroupPosition(p) => grow.get(*p).clone(),
                            OutputKernel::AggregatePosition(i) => grow.get(group_count + i).clone(),
                            _ => unreachable!("scalar output in aggregate query"),
                        })
                        .collect(),
                )
            })
            .collect())
    }

    fn decoder(&self) -> impl FnMut(&[u8]) -> Row {
        |record| {
            let values: Vec<Value> = self
                .outputs
                .iter()
                .map(|k| match k {
                    OutputKernel::Column(key) => key.value(record),
                    OutputKernel::Expr(expr, dtype) => Value::from_f64(expr.eval(record), *dtype),
                    OutputKernel::GroupPosition(_) | OutputKernel::AggregatePosition(_) => {
                        unreachable!("aggregate kernels in a non-aggregate sink")
                    }
                })
                .collect();
            Row::new(values)
        }
    }
}

impl GeneratedQuery {
    /// One binary step of the cascade with the plan's algorithm.
    fn join_pair(
        &self,
        step: usize,
        left: StagedInput,
        right: StagedInput,
        run: &mut Run<'_>,
        sink: &mut JoinSink,
    ) {
        let plan = run.plan;
        let (pool, stats) = (&run.pool, &mut run.stats);
        let join = &plan.joins[step];
        let right_desc = &plan.staged[join.right];
        let left_key = CompiledKey::compile(left.relation.schema(), join.left_key);
        let right_key = CompiledKey::compile(&right_desc.schema, join.right_key);
        match join.algorithm {
            JoinAlgorithm::Merge => {
                // Which column the running intermediate is sorted on: the
                // first input's staging order, or the previous step's key
                // when that was a merge join (its output is key-ordered).
                let sorted_on = match step.checked_sub(1) {
                    None => match &plan.staged[plan.join_order[0]].strategy {
                        StagingStrategy::Sort { key_columns } => key_columns.first().copied(),
                        _ => None,
                    },
                    Some(prev) => match plan.joins[prev].algorithm {
                        JoinAlgorithm::Merge => Some(plan.joins[prev].left_key),
                        _ => None,
                    },
                };
                let mut left_rel = left.relation;
                if sorted_on != Some(join.left_key) {
                    left_rel.flatten();
                    stats.sort_passes += 1;
                    left_rel.sort_all(&[left_key], pool);
                }
                merge_join(
                    &left_rel,
                    &right.relation,
                    left_key,
                    right_key,
                    pool,
                    stats,
                    sink,
                );
            }
            JoinAlgorithm::Partition => {
                fine_partition_join(&left, &right, left_key, right_key, pool, stats, sink);
            }
            JoinAlgorithm::HybridHashSortMerge => {
                let partitions = match &right_desc.strategy {
                    StagingStrategy::PartitionThenSort { partitions, .. } => *partitions,
                    _ => 64,
                };
                let (mut left_rel, mut right_rel) = (left.relation, right.relation);
                hybrid_join(
                    &mut left_rel,
                    &mut right_rel,
                    left_key,
                    right_key,
                    partitions,
                    pool,
                    stats,
                    sink,
                );
            }
        }
    }
}
