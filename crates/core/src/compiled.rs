//! The kernel set: the query's instantiated templates, resolved once, that
//! the evaluate-query driver ([`crate::exec::run`]) runs.
//!
//! Staging is the instantiated scan/filter/project template with the
//! plan's pre-processing interleaved; a join step is the plan's algorithm
//! (merge, fine partition, hybrid hash-sort-merge) or the whole join
//! team's deeply nested loops in one call; aggregation is
//! the plan's algorithm over the input's partition set, one kernel whether
//! the input is resident or sits in the spill space (sort aggregation over
//! unsorted input, and hybrid aggregation over input it need not
//! re-partition, gather it first: their sorts need random access).
//!
//! A set has two builders: the generator instantiates it from the plan
//! ([`crate::generate`]), and the bytecode VM resolves it from its verified
//! fragments and constant pool.  What runs is the same either way.

use hique_plan::{AggAlgorithm, AggregateSpec, JoinAlgorithm, StagingStrategy};
use hique_types::{HiqueError, Result, Row, Value};

use crate::agg::{eval_registers, AggNode, CompiledAgg};
use crate::exec::{RecordSink, Run};
use crate::generator::OutputKernel;
use crate::join::{fine_partition_join, hybrid_join, merge_join, team_join, JoinSink};
use crate::kernel::CompiledKey;
use crate::relation::StagedRelation;
use crate::spill::StagedSlot;
use crate::staging::{ScanKernels, StagedInput};

/// The per-query kernels the driver plugs into the evaluate-query skeleton,
/// resolved once per query.
///
/// The driver calls into the set once per phase or step, never per record;
/// the inner loops are the kernels' own, and every one is deterministic in
/// the pool width: same records in the same order, same counters.
#[derive(Debug, Clone)]
pub struct KernelSet {
    /// Per staged table, indexed like [`hique_plan::PhysicalPlan::staged`]:
    /// its filters and copy plan over the base record.
    pub scans: Vec<ScanKernels>,
    /// Per binary step, indexed like
    /// [`hique_plan::PhysicalPlan::binary_steps`]: the key of the running
    /// intermediate (left) and of the staged input (right).  A join team's
    /// steps all key on member 0's column, so its member keys are the first
    /// left key followed by every right key ([`KernelSet::team_keys`]).
    pub joins: Vec<(CompiledKey, CompiledKey)>,
    /// Group keys and aggregate program of an aggregate query.
    pub aggregation: Option<CompiledAgg>,
    /// One output kernel per output column.
    pub outputs: Vec<OutputKernel>,
    /// The register program of the scalar output expressions over the
    /// joined record: node `i` defines register `i` (empty when no output
    /// is arithmetic).
    pub output_program: Vec<AggNode>,
}

impl KernelSet {
    /// The join team's member keys, in member order.
    pub fn team_keys(&self) -> Vec<CompiledKey> {
        let first = self.joins.first().map(|&(left, _)| left);
        first
            .into_iter()
            .chain(self.joins.iter().map(|&(_, right)| right))
            .collect()
    }

    /// Cascade step `step`: join the running intermediate with the staged
    /// `rights` (one input, or every other member of a join team), pushing
    /// each output record — the inputs' records concatenated, left first —
    /// into `sink` in the one order every pool width produces.
    pub(crate) fn join(
        &self,
        step: usize,
        left: StagedInput,
        mut rights: Vec<StagedInput>,
        run: &mut Run<'_>,
        sink: &mut RecordSink<'_, impl FnMut(&[u8]) -> Row>,
    ) -> Result<()> {
        let plan = run.plan;
        if plan.join_team.is_some() {
            // The team's deeply nested loops cursor over every input at
            // once (random access within key groups).
            let inputs: Vec<&StagedRelation> = std::iter::once(&left)
                .chain(&rights)
                .map(|input| &input.relation)
                .collect();
            let keys = self.team_keys();
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

    /// Aggregate the joined records into result rows in output-column order.
    pub(crate) fn aggregate(
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
        let (pool, spill, stats) = (&run.pool, run.spill, &mut run.stats);
        // Did staging already produce exactly the interesting order sort
        // aggregation needs?
        let already_sorted = plan.staged.len() == 1
            && matches!(
                &plan.staged[plan.join_order[0]].strategy,
                StagingStrategy::Sort { key_columns } if *key_columns == spec.group_columns
            );
        let group_rows = match spec.algorithm {
            AggAlgorithm::Map => compiled.map_aggregate(&slot.partitions(spill)?, pool, stats)?,
            AggAlgorithm::HybridHashSort => {
                let partitions = slot
                    .num_partitions()
                    .max((slot.data_bytes() / (1 << 20)).next_power_of_two());
                compiled.hybrid_aggregate(slot, partitions, spill, pool, stats)?
            }
            AggAlgorithm::Sort if already_sorted => {
                compiled.sort_aggregate(&slot.partitions(spill)?, pool, stats)?
            }
            AggAlgorithm::Sort => {
                // Sorting needs random access: a spilled input is gathered.
                let mut rel = slot.into_input(spill)?.relation;
                rel.flatten();
                stats.sort_passes += 1;
                rel.sort_all(compiled.group_keys(), pool);
                compiled.sort_aggregate(&rel.partitions(), pool, stats)?
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

    /// A decoder turning one joined record into a result row (non-aggregate
    /// queries).  Each parallel decode worker takes its own.
    pub(crate) fn decoder(&self) -> impl FnMut(&[u8]) -> Row + '_ {
        let mut regs = vec![0.0; self.output_program.len()];
        move |record| {
            eval_registers(&self.output_program, record, &mut regs);
            let values: Vec<Value> = self
                .outputs
                .iter()
                .map(|k| match k {
                    OutputKernel::Column(key) => key.value(record),
                    OutputKernel::Expr(reg, dtype) => Value::from_f64(regs[*reg as usize], *dtype),
                    OutputKernel::GroupPosition(_) | OutputKernel::AggregatePosition(_) => {
                        unreachable!("aggregate kernels in a non-aggregate sink")
                    }
                })
                .collect();
            Row::new(values)
        }
    }

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
        let (left_key, right_key) = self.joins[step];
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
