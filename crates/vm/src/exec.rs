//! The bytecode kernel provider: a compiled [`VmProgram`] plugged into the
//! evaluate-query driver ([`hique_holistic::exec::run`]).
//!
//! The driver walks the same skeleton for this engine as for the holistic
//! one (stage every input → join cascade → aggregation → output,
//! DESIGN.md "Executor") and owns everything around the kernels — options,
//! run envelope, slot spilling, sinks, timings, finalization.  What lives
//! here is what is the VM's own: every per-record kernel — filter,
//! projection, key image, argument expression, output decode — is
//! interpreted bytecode from the program instead of a statically compiled
//! Rust kernel, and join steps and aggregation run as deterministic hash
//! algorithms over the same order-preserving `i64` key images the static
//! kernels use: build the right input in staging order, probe the left
//! input in staging order, emit left-major — one fixed order for every
//! thread count and budget, which is what keeps results bit-identical
//! across the conformance matrix.  A join team is walked as a cascade of
//! such hash joins over the shared key.

use std::collections::HashMap;

use hique_holistic::agg::Accum;
use hique_holistic::exec::{self, Kernels, RecordSink, Run};
use hique_holistic::kernel::{CompiledKey, Selection};
use hique_holistic::spill::StagedSlot;
use hique_holistic::staging::{concat_runs, staged_capacity, sweep_pages, StagedInput};
use hique_holistic::{ExecOptions, GeneratedQuery, StagedRelation};
use hique_par::chunk_ranges;
use hique_plan::{AggregateSpec, JoinAlgorithm};
use hique_storage::{Catalog, TableHeap};
use hique_types::{CancelToken, ExecStats, HiqueError, QueryResult, Result, Row, Value};

use crate::bytecode::{run_expr, run_filter, run_image, Op};
use crate::program::{OutputOp, VmProgram};
use crate::vector::{
    copy_plan, for_each_ref_batch, resolve_filter, run_expr_batch, run_filter_batch,
    run_image_batch, Batch, BATCH,
};

/// Probe-side records between cancellation checks in a hash join.
const CANCEL_BATCH: usize = 4096;

/// FxHash-style multiply hasher for the `i64` key-image maps (join tables
/// and group directories).  The images are already order-preserving values,
/// not adversarial input, so the std SipHash default buys nothing here and
/// costs measurably on large build sides; a rotate-xor-multiply over each
/// written word is the standard interner hash for exactly this shape.
#[derive(Default)]
struct ImageHasher(u64);

impl ImageHasher {
    #[inline(always)]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for ImageHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.0
    }
    /// Word-at-a-time: an `[i64]` key hashes through here as raw bytes.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.add(u64::from_ne_bytes(word));
        }
        for &b in words.remainder() {
            self.add(b as u64);
        }
    }
    #[inline(always)]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline(always)]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
    #[inline(always)]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type ImageMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<ImageHasher>>;

/// Which interpreter dispatches the bytecode (DESIGN.md §15).
///
/// Both tiers produce bit-identical results and [`hique_types::ExecStats`]
/// work counters; they differ only in dispatch cost (and in the
/// `vm_batches`/`vm_fused_ops` counters recording which tier ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Batch interpretation: each op dispatched once per batch of tuples,
    /// filters narrowing a selection vector, fused superinstructions
    /// covering hot op pairs.  Fragments without a vectorized lowering
    /// fall back to the scalar loops per fragment, never per row.  The
    /// default tier.
    #[default]
    Vectorized,
    /// The original row-at-a-time reference interpreter.
    Scalar,
}

impl VmProgram {
    /// Execute this program on the default (vectorized) tier; see
    /// [`VmProgram::execute_with_tier`].
    pub fn execute(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
        options: &ExecOptions,
    ) -> Result<QueryResult> {
        self.execute_with_tier(generated, catalog, options, Tier::default())
    }

    /// Execute this program on an explicit interpreter tier.
    ///
    /// `generated` must be the query the program was compiled for (or
    /// rebound to via [`VmProgram::bind`]): the plan-shape signature is
    /// re-derived and checked, so executing bytecode against a foreign plan
    /// is a typed error instead of garbage decoding.
    pub fn execute_with_tier(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
        options: &ExecOptions,
        tier: Tier,
    ) -> Result<QueryResult> {
        if crate::program::plan_signature(generated, catalog)? != self.signature {
            return Err(HiqueError::Execution(
                "bytecode program does not match the prepared plan shape".into(),
            ));
        }
        let kernels = Interpreter {
            program: self,
            tier,
        };
        exec::run(&kernels, generated.plan(), catalog, options)
    }
}

/// A program on one interpreter tier: the driver's kernel provider.
struct Interpreter<'a> {
    program: &'a VmProgram,
    tier: Tier,
}

impl Kernels for Interpreter<'_> {
    const FUSES_JOIN_TEAMS: bool = false;

    /// Scan one base table through its bytecode filter/projection fragments,
    /// dividing the heap pages across the pool.  Page chunks are merged in
    /// chunk order (the first worker's run is the base buffer), so the
    /// staged relation is byte-identical for every thread count; workers
    /// observe the shared cancellation token once per page.
    ///
    /// The fragments are resolved once per call, then swept over pages
    /// ([`sweep_pages`], the loop the compiled provider runs): the
    /// projection's verified `Copy` list becomes the compiled kernels' copy
    /// plan, and on the vectorized tier each test of the fused filter becomes
    /// a page sweep narrowing a selection vector.  The scalar tier — the
    /// reference interpreter — selects rows by running the filter fragment
    /// row at a time; everything around the selection is shared.  The batch
    /// is one heap page's packed record area, and page boundaries are
    /// invariant across `chunk_ranges` splits, so `vm_batches` is
    /// deterministic per thread count.
    fn stage(&self, t: usize, heap: &TableHeap, run: &mut Run<'_>) -> Result<StagedInput> {
        let program = self.program;
        let (desc, frags) = (&run.plan.staged[t], &program.tables[t]);
        let (tier, code, consts) = (self.tier, &program.code[..], &program.pool);
        let (stats, pool, cancel) = (&mut run.stats, &run.pool, run.cancel);
        // A fragment without a vectorized lowering falls back to the scalar
        // filter loop per fragment, never per row.
        let sweeps = match (tier, program.vec.filters.get(t)) {
            (Tier::Vectorized, Some(Some(steps))) => Some(resolve_filter(steps, consts)),
            _ => None,
        };
        let copies = copy_plan(frags.project.ops(code));
        let base_ts = heap.schema().tuple_size();
        let out_width = desc.schema.tuple_size();
        let chunks = chunk_ranges(heap.num_pages(), pool.threads());
        // One operator invocation: the compiled staging fragment is one call.
        stats.add_calls(1);
        let worker_outputs: Vec<Result<(Vec<u8>, ExecStats)>> =
            pool.map_items(&chunks, |_, pages| {
                let mut local = ExecStats::new();
                let mut out: Vec<u8> = Vec::with_capacity(staged_capacity(
                    heap,
                    pages,
                    desc.estimated_rows,
                    out_width,
                ));
                let mut sel = Selection::new();
                // The verifier proved every fragment access in-bounds for the
                // base schema; `sweep_pages` asserts the pages really hold
                // records of that width.
                sweep_pages(heap, pages.clone(), cancel, &mut local, |data, local| {
                    if tier == Tier::Vectorized {
                        local.vm_batches += 1;
                    }
                    match &sweeps {
                        Some(sweeps) => run_filter_batch(
                            sweeps,
                            data,
                            base_ts,
                            &mut sel,
                            &mut local.comparisons,
                            &mut local.vm_fused_ops,
                        ),
                        None => {
                            sel.clear();
                            for (r, record) in data.chunks_exact(base_ts).enumerate() {
                                if run_filter(
                                    frags.filter.ops(code),
                                    consts,
                                    record,
                                    &mut local.comparisons,
                                ) {
                                    sel.push(r as u32);
                                }
                            }
                        }
                    }
                    copies.append(data, base_ts, sel.rows(), &mut out);
                })?;
                Ok((out, local))
            });
        let (runs, worker_stats): (Vec<Vec<u8>>, Vec<ExecStats>) = worker_outputs
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        stats.merge(&worker_stats.into_iter().sum());
        let rel = StagedRelation::from_partitions(desc.schema.clone(), vec![concat_runs(runs)]);
        stats.add_materialized(rel.data_bytes());
        Ok(StagedInput::unpartitioned(rel))
    }

    fn join(
        &self,
        step: usize,
        left: StagedInput,
        rights: Vec<StagedInput>,
        run: &mut Run<'_>,
        sink: &mut RecordSink<'_, impl FnMut(&[u8]) -> Row>,
    ) -> Result<()> {
        let (program, plan) = (self.program, run.plan);
        // A team over a shared key is a cascade of hash joins whose left
        // key is always member 0's key column (its offset is stable —
        // member 0 stays the record prefix as the intermediate grows).
        let (left_image, right_image, algorithm) = match &plan.join_team {
            Some(team) => (
                program.team_images[0],
                program.team_images[step + 1],
                team.algorithm,
            ),
            None => {
                let frags = &program.joins[step];
                (
                    frags.left_image,
                    frags.right_image,
                    plan.joins[step].algorithm,
                )
            }
        };
        if algorithm == JoinAlgorithm::NestedLoops {
            return Err(HiqueError::Unsupported(
                "nested-loops cross products are not generated".into(),
            ));
        }
        let (left, right) = (&left.relation, &rights[0].relation);
        let mut buf = vec![0u8; left.tuple_size() + right.tuple_size()];
        hash_join(
            left,
            right,
            left_image.ops(&program.code),
            right_image.ops(&program.code),
            self.tier,
            &mut run.stats,
            run.cancel,
            &mut |lrec, rrec| {
                buf[..lrec.len()].copy_from_slice(lrec);
                buf[lrec.len()..].copy_from_slice(rrec);
                sink.push(&buf);
            },
        )
    }

    /// Hash aggregation in first-occurrence order: group identity is the tuple
    /// of key images (the same identity the static kernels use for directories
    /// and sort grouping).  Aggregate arguments are the shared DAG fragment,
    /// evaluated once per tuple (scalar) or once per page batch (vectorized);
    /// the program's accumulator slots fold its registers.
    fn aggregate(
        &self,
        spec: &AggregateSpec,
        slot: StagedSlot,
        run: &mut Run<'_>,
    ) -> Result<Vec<Row>> {
        let program = self.program;
        let (plan, spill, stats) = (run.plan, run.spill, &mut run.stats);
        let (code, consts) = (&program.code[..], &program.pool);
        let frags = program
            .agg
            .as_ref()
            .expect("aggregation fragments compiled");
        let (dag, layout) = (frags.dag.ops(code), &frags.layout);
        let tuple_size = plan.joined_schema.tuple_size();
        let mut groups = Groups {
            keys: spec
                .group_columns
                .iter()
                .map(|&c| CompiledKey::compile(&plan.joined_schema, c))
                .collect(),
            slots: layout.slots().len(),
            index: ImageMap::default(),
            values: Vec::new(),
            accums: Vec::new(),
        };
        let mut key: Vec<i64> = vec![0; frags.group_images.len()];
        let set = slot.partitions(spill)?;
        match (self.tier, &program.vec.agg_dag) {
            (Tier::Vectorized, Some(steps)) => {
                // Page-batched aggregation: the batch is one page's packed
                // record area — for spilled inputs one *pinned* page at a time
                // (through the same guard the scalar consumer uses, so
                // `spill_consumer_peak_pages` stays 1), for in-memory inputs
                // the same page-shaped chunks.  Group-key images and the DAG
                // evaluate into columnar lanes once per batch; rows then find
                // their groups in input order and each slot sweeps the batch.
                let mut gimgs: Vec<Vec<i64>> = vec![Vec::new(); key.len()];
                let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); program.float_registers];
                let mut bases: Vec<usize> = Vec::new();
                for stream in set.streams() {
                    stream.for_each_page(|data| {
                        let batch = Batch::Packed {
                            data,
                            width: tuple_size,
                        };
                        let n = batch.len();
                        stats.vm_batches += 1;
                        stats.tuples_processed += n as u64;
                        stats.bytes_touched += (n * tuple_size) as u64;
                        stats.add_hashes(n as u64);
                        for (g, f) in frags.group_images.iter().enumerate() {
                            run_image_batch(f.ops(code), &batch, &mut gimgs[g]);
                        }
                        run_expr_batch(steps, consts, &batch, &mut lanes, &mut stats.vm_fused_ops);
                        bases.clear();
                        for r in 0..n {
                            for (k, images) in key.iter_mut().zip(&gimgs) {
                                *k = images[r];
                            }
                            bases.push(groups.base(&key, batch.rec(r)));
                        }
                        layout.accumulate_batch(&mut groups.accums, &bases, |reg| {
                            &lanes[reg as usize][..n]
                        });
                    })?;
                }
            }
            // The scalar tier, and the vectorized tier's fallback for a DAG
            // fragment without a batch lowering: page-at-a-time for either
            // source, a spilled input aggregates straight off pinned pages.
            _ => {
                let mut regs = vec![0.0f64; program.float_registers];
                set.for_each_record(|rec| {
                    stats.add_tuple(tuple_size);
                    stats.add_hashes(1);
                    for (k, f) in key.iter_mut().zip(&frags.group_images) {
                        *k = run_image(f.ops(code), rec);
                    }
                    let base = groups.base(&key, rec);
                    run_expr(dag, consts, rec, &mut regs);
                    layout.accumulate(&mut groups.accums[base..base + groups.slots], |reg| {
                        regs[reg as usize]
                    });
                })?;
            }
        }
        Ok(groups
            .values
            .iter()
            .enumerate()
            .map(|(g, values)| {
                let accums = &groups.accums[g * groups.slots..(g + 1) * groups.slots];
                Row::new(
                    program
                        .outputs
                        .iter()
                        .map(|o| match o {
                            OutputOp::Group(p) => values[*p].clone(),
                            OutputOp::Aggregate(i) => layout.finish(*i, accums),
                            _ => unreachable!("scalar output in aggregate query"),
                        })
                        .collect(),
                )
            })
            .collect())
    }

    fn decoder(&self) -> impl FnMut(&[u8]) -> Row {
        let program = self.program;
        let mut regs = vec![0.0f64; program.float_registers];
        move |record| {
            let values: Vec<Value> = program
                .outputs
                .iter()
                .map(|o| match o {
                    OutputOp::Column(key) => key.value(record),
                    OutputOp::Expr(frag, dtype) => Value::from_f64(
                        run_expr(frag.ops(&program.code), &program.pool, record, &mut regs),
                        *dtype,
                    ),
                    OutputOp::Group(_) | OutputOp::Aggregate(_) => {
                        unreachable!("aggregate kernels in a non-aggregate sink")
                    }
                })
                .collect();
            Row::new(values)
        }
    }
}

/// The groups of a hash aggregation in first-occurrence order: decoded key
/// values and accumulator slots per group, indexed by the key-image tuple.
struct Groups {
    keys: Vec<CompiledKey>,
    slots: usize,
    index: ImageMap<Vec<i64>, usize>,
    values: Vec<Vec<Value>>,
    accums: Vec<Accum>,
}

impl Groups {
    /// Where the slots of `key`'s group start in `accums`, entering the
    /// group (decoded from `rec`, its first tuple) when it is new.
    #[inline]
    fn base(&mut self, key: &[i64], rec: &[u8]) -> usize {
        if let Some(&g) = self.index.get(key) {
            return g * self.slots;
        }
        let g = self.values.len();
        self.values
            .push(self.keys.iter().map(|k| k.value(rec)).collect());
        self.accums
            .resize(self.accums.len() + self.slots, Accum::new());
        self.index.insert(key.to_vec(), g);
        g * self.slots
    }
}

/// Deterministic hash join over key images: build the right input in its
/// staging order, probe the left input in its staging order, emit matches
/// left-major with build-order ties — one fixed emission order regardless
/// of thread count or partitioning, matching every staging strategy the
/// planner may have chosen for the inputs (the images are the keys the
/// strategies organise by).
fn hash_join(
    left: &StagedRelation,
    right: &StagedRelation,
    left_image: &[Op],
    right_image: &[Op],
    tier: Tier,
    stats: &mut ExecStats,
    cancel: &CancelToken,
    emit: &mut impl FnMut(&[u8], &[u8]),
) -> Result<()> {
    // One generated join function per step.
    stats.add_calls(1);
    let rrecs: Vec<&[u8]> = right.records().collect();
    let mut table: ImageMap<i64, Vec<u32>> = ImageMap::default();
    if tier == Tier::Vectorized {
        // Key images evaluate into an `i64` lane once per batch; inserts,
        // probes and emission then run row-major in the exact build/probe
        // order of the scalar loops, so the emitted stream is identical.
        let mut keys: Vec<i64> = Vec::new();
        for (c, chunk) in rrecs.chunks(BATCH).enumerate() {
            stats.vm_batches += 1;
            run_image_batch(right_image, &Batch::Refs(chunk), &mut keys);
            let base = c * BATCH;
            for (j, rec) in chunk.iter().enumerate() {
                stats.add_tuple(rec.len());
                stats.add_hashes(1);
                table.entry(keys[j]).or_default().push((base + j) as u32);
            }
        }
        let mut scratch: Vec<&[u8]> = Vec::new();
        for_each_ref_batch(left.records(), &mut scratch, |batch| {
            cancel.check()?;
            stats.vm_batches += 1;
            run_image_batch(left_image, &Batch::Refs(batch), &mut keys);
            for (j, lrec) in batch.iter().enumerate() {
                stats.add_tuple(lrec.len());
                stats.add_hashes(1);
                if let Some(matches) = table.get(&keys[j]) {
                    stats.add_comparisons(matches.len() as u64);
                    for &ri in matches {
                        emit(lrec, rrecs[ri as usize]);
                    }
                }
            }
            Ok(())
        })?;
        return Ok(());
    }
    for (i, rec) in rrecs.iter().enumerate() {
        stats.add_tuple(rec.len());
        stats.add_hashes(1);
        table
            .entry(run_image(right_image, rec))
            .or_default()
            .push(i as u32);
    }
    let mut since_check = 0usize;
    for lrec in left.records() {
        since_check += 1;
        if since_check >= CANCEL_BATCH {
            since_check = 0;
            cancel.check()?;
        }
        stats.add_tuple(lrec.len());
        stats.add_hashes(1);
        if let Some(matches) = table.get(&run_image(left_image, lrec)) {
            stats.add_comparisons(matches.len() as u64);
            for &ri in matches {
                emit(lrec, rrecs[ri as usize]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_holistic::staging::stage_table;
    use hique_par::ScopedPool;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig, StagedTable, StagingStrategy};
    use hique_types::{Column, DataType, Schema};

    /// One table with a column of every type a test op exists for, values
    /// drawn (seeded) from small domains that include the extremes.
    fn catalog(paged: bool) -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Column::new("i", DataType::Int32),
                Column::new("l", DataType::Int64),
                Column::new("d", DataType::Date),
                Column::new("f", DataType::Float64),
                Column::new("c1", DataType::Char(1)),
                Column::new("c12", DataType::Char(12)),
                Column::new("pad", DataType::Char(30)),
            ]),
        )
        .unwrap();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % n
        };
        let heap = &mut cat.table_mut("t").unwrap().heap;
        for _ in 0..700 {
            heap.append_row(&Row::new(vec![
                Value::Int32([i32::MIN, -3, 0, 4, i32::MAX][pick(5)]),
                Value::Int64([i64::MIN, -1, 0, 1 << 40, i64::MAX][pick(5)]),
                Value::Date([8000, 9000, 9001, 9500][pick(4)]),
                Value::Float64([-2.5, -0.0, 0.0, 1e300][pick(4)]),
                Value::Str(["A", "N", "R"][pick(3)].into()),
                Value::Str(["prefix01", "prefix01AAAA", "prefix01AAAB", ""][pick(4)].into()),
                Value::Str("x".into()),
            ]))
            .unwrap();
        }
        cat.analyze_table("t").unwrap();
        if paged {
            // Two frames: guards come back pinned, evicted and bypassed.
            cat.spill_to_disk(2).unwrap();
        }
        cat
    }

    /// The `stage` hook on both tiers and every pool width stages exactly
    /// what the compiled provider's scan stages — bytes and work counters —
    /// which `core::staging`'s tests hold to the tuple-at-a-time reference.
    #[test]
    fn both_tiers_stage_what_the_compiled_scan_stages() {
        let predicates = [
            "",
            "where i < 4",
            "where l >= 0 and d <> date '1994-08-23'",
            "where f <= 0.0",
            "where c1 = 'R'",
            "where c1 <> 'N' and i > -3 and f > -1.0",
            "where c12 > 'prefix01AAAA'",
            "where c12 = 'prefix01' and l < 0",
            "where d >= date '1994-08-23' and d < date '1994-08-24' and c1 = 'A' and i = 0",
            "where i > 2147483646 and l = 5",
        ];
        let selects = [
            "select f, c1, c12 from t",
            "select l, i from t",
            "select c12, d, i, l from t",
        ];
        for paged in [false, true] {
            let cat = catalog(paged);
            let heap = &cat.table("t").unwrap().heap;
            for (select, predicate) in selects.iter().flat_map(|s| predicates.map(|p| (*s, p))) {
                let sql = format!("{select} {predicate}");
                let parsed = hique_sql::parse_query(&sql).unwrap();
                let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(&cat)).unwrap();
                let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
                let generated = hique_holistic::generate(&plan).unwrap();
                let desc = StagedTable {
                    strategy: StagingStrategy::None,
                    ..plan.staged[0].clone()
                };
                assert_eq!(desc.filters.is_empty(), predicate.is_empty(), "{sql}");
                let cancel = CancelToken::disabled();
                let mut expected_stats = ExecStats::new();
                let expected = stage_table(
                    heap,
                    &desc,
                    &mut expected_stats,
                    &ScopedPool::serial(),
                    &cancel,
                )
                .unwrap();
                for mode in [crate::CompileMode::Specialized, crate::CompileMode::Pooled] {
                    let program = crate::compile(&generated, &cat, mode).unwrap();
                    for tier in [Tier::Scalar, Tier::Vectorized] {
                        for threads in [1, 2, 3, 4, 16] {
                            let mut run = Run {
                                plan: &plan,
                                stats: ExecStats::new(),
                                pool: ScopedPool::new(threads),
                                cancel: &cancel,
                                spill: None,
                            };
                            let interpreter = Interpreter {
                                program: &program,
                                tier,
                            };
                            let staged = interpreter.stage(0, heap, &mut run).unwrap();
                            let context =
                                format!("{sql} paged={paged} {mode:?} {tier:?} x{threads}");
                            assert_eq!(
                                staged.relation.partition(0),
                                expected.relation.partition(0),
                                "{context}: bytes"
                            );
                            // The tiers differ only in their own telemetry.
                            let mut stats = run.stats;
                            if tier == Tier::Vectorized {
                                assert_eq!(stats.vm_batches, heap.num_pages() as u64, "{context}");
                            }
                            (stats.vm_batches, stats.vm_fused_ops) = (0, 0);
                            assert_eq!(stats, expected_stats, "{context}: stats");
                        }
                    }
                }
            }
        }
    }
}
