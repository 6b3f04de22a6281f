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
//! algorithms over the static kernels' key images, a hit confirmed on the
//! key bytes where the image is not the whole key: build the right input
//! in staging order, probe the left input in staging order, emit
//! left-major — one fixed order for every
//! thread count and budget, which is what keeps results bit-identical
//! across the conformance matrix.  A join team is walked as a cascade of
//! such hash joins over the shared key.

use hique_holistic::agg::{AccumLayout, GroupAccums, KeyRuns, PageFold};
use hique_holistic::exec::{self, Kernels, RecordSink, Run};
use hique_holistic::kernel::{compare_keys, CompiledKey};
use hique_holistic::spill::StagedSlot;
use hique_holistic::staging::{stage_table, sweep_pages, StagedInput};
use hique_holistic::{GeneratedQuery, StagedRelation};
use hique_plan::{AggregateSpec, StagedTable, StagingStrategy};
use hique_storage::{Catalog, TableHeap};
use hique_types::{
    CancelToken, ExecOptions, ExecStats, HiqueError, QueryResult, Result, Row, Value,
};

use crate::bytecode::{image_key, run_expr, run_filter, run_image, run_project, Op};
use crate::program::{OutputOp, VmProgram};
use crate::vector::{resolve_agg_dag, resolve_scan, run_image_batch, BATCH};

/// Probe-side records between cancellation checks in a scalar hash join.
const CANCEL_BATCH: usize = 4096;

/// One step of the FxHash-style multiply hasher of the key-image tables
/// (the join table and the group table): fold `image` into `hash`.  The
/// images are already order-preserving values, not adversarial input, so a
/// rotate-xor-multiply per image is enough; the well-mixed bits of the
/// product are its top ones, which is where the tables take their index.
#[inline(always)]
fn mix(hash: u64, image: u64) -> u64 {
    (hash.rotate_left(5) ^ image).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Which interpreter runs the bytecode (DESIGN.md §15).
///
/// Both tiers produce bit-identical results and [`hique_types::ExecStats`]
/// work counters; they differ only in dispatch cost (and in the
/// `vm_batches` counter recording which tier ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The verified fragments resolved, once per hook call, into the
    /// compiled kernels' objects — filter sweeps and copy plan staged
    /// through core's scan loop, the page fold, key-image sweeps — and run
    /// a page or batch at a time.  The default tier.
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

    /// Scan one base table through its filter and projection fragments.
    ///
    /// The vectorized tier resolves the fragments into a scan
    /// ([`resolve_scan`]: one page sweep per test, the `Copy` list as a copy
    /// plan) and stages through core's one staging function, unpartitioned —
    /// the hash join needs no pre-processing.  Core divides the pages across
    /// the pool and merges in chunk order, so the staged relation is
    /// byte-identical for every thread count; the page is the batch, so
    /// `vm_batches` is the table's page count.  The scalar tier — the
    /// reference interpreter — is one serial page loop selecting rows by
    /// `run_filter` and building them by `run_project`, one record at a
    /// time.  Staged bytes and counters are the same on both tiers and at
    /// every pool width.
    fn stage(&self, t: usize, heap: &TableHeap, run: &mut Run<'_>) -> Result<StagedInput> {
        let program = self.program;
        let (desc, frags) = (&run.plan.staged[t], &program.tables[t]);
        let (code, consts) = (&program.code[..], &program.pool);
        if self.tier == Tier::Vectorized {
            let scan = resolve_scan(frags, code, consts);
            let desc = StagedTable {
                strategy: StagingStrategy::None,
                ..desc.clone()
            };
            let staged = stage_table(heap, &scan, &desc, &mut run.stats, &run.pool, run.cancel)?;
            run.stats.vm_batches += heap.num_pages() as u64;
            return Ok(staged);
        }
        // One operator invocation: the compiled staging fragment is one call.
        run.stats.add_calls(1);
        let (filter, project) = (frags.filter.ops(code), frags.project.ops(code));
        let base_ts = heap.schema().tuple_size();
        let (mut out, mut record) = (Vec::new(), vec![0u8; desc.schema.tuple_size()]);
        // The verifier proved every fragment access in-bounds for the base
        // schema; `sweep_pages` asserts the pages really hold records of
        // that width.
        sweep_pages(
            heap,
            0..heap.num_pages(),
            run.cancel,
            &mut run.stats,
            |data, stats| {
                for base in data.chunks_exact(base_ts) {
                    if run_filter(filter, consts, base, &mut stats.comparisons) {
                        run_project(project, base, &mut record);
                        out.extend_from_slice(&record);
                    }
                }
            },
        )?;
        let rel = StagedRelation::from_partitions(desc.schema.clone(), vec![out]);
        run.stats.add_materialized(rel.data_bytes());
        Ok(StagedInput::unpartitioned(rel))
    }

    fn join(
        &self,
        step: usize,
        left: StagedInput,
        mut rights: Vec<StagedInput>,
        run: &mut Run<'_>,
        sink: &mut RecordSink<'_, impl FnMut(&[u8]) -> Row>,
    ) -> Result<()> {
        let (program, frags) = (self.program, self.program.joins[step]);
        // A cascade step has exactly one right input.
        let (left, right) = (left.relation, rights.swap_remove(0).relation);
        let mut buf = vec![0u8; left.tuple_size() + right.tuple_size()];
        hash_join(
            &left,
            right,
            frags.left_image.ops(&program.code),
            frags.right_image.ops(&program.code),
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

    /// Hash aggregation in first-occurrence order: group identity is the
    /// tuple of keys, found by images (`Groups::group`).  On the
    /// vectorized tier the aggregate DAG fragment and the program's
    /// accumulator slots resolve, once per call, into the page fold the
    /// compiled kernels run ([`PageFold`]); the scalar tier evaluates the
    /// fragment and folds its registers row at a time.
    fn aggregate(
        &self,
        spec: &AggregateSpec,
        slot: StagedSlot,
        run: &mut Run<'_>,
    ) -> Result<Vec<Row>> {
        let program = self.program;
        let (plan, spill, stats) = (run.plan, run.spill, &mut run.stats);
        let (code, consts) = (&program.code[..], &program.pool);
        let Some(frags) = &program.agg else {
            return Err(HiqueError::Execution(
                "aggregate plan without generated aggregation kernels".into(),
            ));
        };
        let tuple_size = plan.joined_schema.tuple_size();
        let mut groups = Groups::new(
            spec.group_columns
                .iter()
                .map(|&c| CompiledKey::compile(&plan.joined_schema, c))
                .collect(),
            &frags.layout,
        );
        let set = slot.partitions(spill)?;
        match self.tier {
            Tier::Vectorized => {
                // Page-batched aggregation: the batch is one page's packed
                // record area — for spilled inputs one *pinned* page at a time
                // (through the same guard the scalar consumer uses, so
                // `spill_consumer_peak_pages` stays 1), for in-memory inputs
                // the same page-shaped chunks.  Group-key images fill one lane
                // per grouping attribute, the page is cut into runs of equal
                // keys — on the lanes where every image is exact, on the key
                // bytes otherwise — each run finds its group (in input
                // order), and the fold adds the page's rows to their groups.
                let exact = groups.firsts.is_none();
                let nodes = resolve_agg_dag(frags.dag.ops(code), consts);
                let mut fold = PageFold::new(&nodes, &frags.layout, tuple_size);
                let mut images: Vec<Vec<u64>> = vec![Vec::new(); frags.group_images.len()];
                let (mut runs, mut ids) = (KeyRuns::new(), Vec::new());
                set.for_each_page(|data| {
                    let n = fold.fill(data);
                    stats.vm_batches += 1;
                    stats.tuples_processed += n as u64;
                    stats.bytes_touched += (n * tuple_size) as u64;
                    stats.add_hashes(n as u64);
                    for (lane, f) in images.iter_mut().zip(&frags.group_images) {
                        lane.clear();
                        run_image_batch(f.ops(code), data, tuple_size, lane);
                    }
                    if exact {
                        runs.cut(&images, n);
                    } else {
                        runs.cut_records(&groups.keys, data, tuple_size);
                    }
                    ids.clear();
                    for &row in runs.starts() {
                        let row = row as usize;
                        let rec = &data[row * tuple_size..(row + 1) * tuple_size];
                        ids.push(groups.group(|i| images[i][row], rec));
                    }
                    fold.fold(&runs, &ids, &mut groups.accums);
                    Ok(())
                })?;
            }
            // The scalar tier: record-at-a-time for either source, a
            // spilled input aggregates straight off pinned pages.
            Tier::Scalar => {
                let dag = frags.dag.ops(code);
                let mut key: Vec<u64> = vec![0; frags.group_images.len()];
                let mut regs = vec![0.0f64; program.float_registers];
                set.for_each_record(|rec| {
                    stats.add_tuple(tuple_size);
                    stats.add_hashes(1);
                    for (k, f) in key.iter_mut().zip(&frags.group_images) {
                        *k = run_image(f.ops(code), rec);
                    }
                    let g = groups.group(|i| key[i], rec);
                    run_expr(dag, consts, rec, &mut regs);
                    groups
                        .accums
                        .accumulate_row(g as usize, |reg| regs[reg as usize]);
                })?;
            }
        }
        Ok(groups
            .values
            .iter()
            .enumerate()
            .map(|(g, values)| {
                Row::new(
                    program
                        .outputs
                        .iter()
                        .map(|o| match o {
                            OutputOp::Group(p) => values[*p].clone(),
                            OutputOp::Aggregate(i) => groups.accums.finish(*i, g),
                            _ => unreachable!("scalar output in aggregate query"),
                        })
                        .collect(),
                )
            })
            .collect())
    }

    fn decoder(&self) -> impl FnMut(&[u8]) -> Row {
        let program = self.program;
        let dag = program.output_dag.ops(&program.code);
        let mut regs = vec![0.0f64; program.float_registers];
        move |record| {
            run_expr(dag, &program.pool, record, &mut regs);
            let values: Vec<Value> = program
                .outputs
                .iter()
                .map(|o| match o {
                    OutputOp::Column(key) => key.value(record),
                    OutputOp::Expr(reg, dtype) => Value::from_f64(regs[*reg as usize], *dtype),
                    OutputOp::Group(_) | OutputOp::Aggregate(_) => {
                        unreachable!("aggregate kernels in a non-aggregate sink")
                    }
                })
                .collect();
            Row::new(values)
        }
    }
}

/// The groups of a hash aggregation in first-occurrence order: key-image
/// tuple, decoded key values and accumulator slots per group, found through
/// a flat open-addressing table over the image tuples.
struct Groups {
    keys: Vec<CompiledKey>,
    /// Group number + 1 per slot, 0 = empty; a power of two of slots, at
    /// most half of them taken, probed linearly.
    table: Vec<u32>,
    /// One image per grouping attribute per group.
    images: Vec<u64>,
    /// Where some image is not the whole key: every group's first record,
    /// on whose key bytes an image hit is confirmed.
    firsts: Option<Vec<u8>>,
    values: Vec<Vec<Value>>,
    accums: GroupAccums,
}

impl Groups {
    fn new(keys: Vec<CompiledKey>, layout: &AccumLayout) -> Self {
        let exact = keys.iter().all(CompiledKey::image_is_exact);
        Groups {
            keys,
            table: vec![0; 16],
            images: Vec::new(),
            firsts: (!exact).then(Vec::new),
            values: Vec::new(),
            accums: GroupAccums::new(layout),
        }
    }

    /// The table slot probing for an image tuple starts at.
    #[inline(always)]
    fn home(&self, image: impl Fn(usize) -> u64) -> usize {
        let hash = (0..self.keys.len()).fold(0, |hash, i| mix(hash, image(i)));
        (hash >> (64 - self.table.len().ilog2())) as usize
    }

    /// The number of the group of `rec`, whose key images are
    /// `image(0..)`, entering the group (decoded from `rec`, its first
    /// tuple) when it is new.  Two tuples that meet in the table are told
    /// apart by comparing every image, and where an image is not the whole
    /// key, the keys.
    #[inline]
    fn group(&mut self, image: impl Fn(usize) -> u64, rec: &[u8]) -> u32 {
        let k = self.keys.len();
        let mask = self.table.len() - 1;
        let mut slot = self.home(&image);
        while let Some(g) = self.table[slot].checked_sub(1) {
            let (g_at, ts) = (g as usize, rec.len());
            let known = &self.images[g_at * k..(g_at + 1) * k];
            if known.iter().enumerate().all(|(i, &v)| v == image(i))
                && self.firsts.as_ref().is_none_or(|firsts| {
                    compare_keys(&self.keys, &firsts[g_at * ts..][..ts], rec).is_eq()
                })
            {
                return g;
            }
            slot = (slot + 1) & mask;
        }
        let g = self.accums.push_group() as u32;
        self.table[slot] = g + 1;
        self.images.extend((0..k).map(&image));
        if let Some(firsts) = &mut self.firsts {
            firsts.extend_from_slice(rec);
        }
        self.values
            .push(self.keys.iter().map(|key| key.value(rec)).collect());
        if self.values.len() * 2 > self.table.len() {
            self.grow();
        }
        g
    }

    /// Double the table and re-enter every group.
    #[cold]
    fn grow(&mut self) {
        self.table = vec![0; self.table.len() * 2];
        let (k, mask) = (self.keys.len(), self.table.len() - 1);
        for g in 0..self.values.len() {
            let mut slot = self.home(|i| self.images[g * k + i]);
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = g as u32 + 1;
        }
    }
}

/// No row: the end of a chain.
const NIL: u32 = u32::MAX;

/// The build side of a hash join: a flat chained table over the rows' key
/// images.  `heads` (a power of two of buckets, at least one per row) holds
/// the first row of each bucket's chain, `next` the chain links.  Rows are
/// linked in from the last to the first, each at the head of its chain, so
/// an insert is O(1) under any skew and a chain reads in build order.
struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    keys: Vec<u64>,
}

impl JoinTable {
    fn build(keys: Vec<u64>) -> Self {
        let mut table = JoinTable {
            heads: vec![NIL; keys.len().next_power_of_two().max(2)],
            next: vec![NIL; keys.len()],
            keys,
        };
        for row in (0..table.keys.len()).rev() {
            let bucket = table.bucket(table.keys[row]);
            table.next[row] = std::mem::replace(&mut table.heads[bucket], row as u32);
        }
        table
    }

    #[inline(always)]
    fn bucket(&self, key: u64) -> usize {
        (mix(0, key) >> (64 - self.heads.len().ilog2())) as usize
    }

    /// The build rows whose key image is `key`, in build order.
    #[inline(always)]
    fn matches(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mut row = self.heads[self.bucket(key)];
        std::iter::from_fn(move || {
            while row != NIL {
                let at = row as usize;
                row = self.next[at];
                if self.keys[at] == key {
                    return Some(at);
                }
            }
            None
        })
    }
}

/// Deterministic hash join over key images: build the right input in its
/// staging order, probe the left input in its staging order, emit matches
/// left-major with build-order ties — one fixed emission order regardless
/// of thread count or partitioning, matching every staging strategy the
/// planner may have chosen for the inputs (the images are the keys the
/// strategies organise by).  Both inputs are walked as packed batches of
/// at most [`BATCH`] records straight off the staged relations.
fn hash_join(
    left: &StagedRelation,
    mut right: StagedRelation,
    left_image: &[Op],
    right_image: &[Op],
    tier: Tier,
    stats: &mut ExecStats,
    cancel: &CancelToken,
    emit: &mut impl FnMut(&[u8], &[u8]),
) -> Result<()> {
    // One generated join function per step.
    stats.add_calls(1);
    let (lts, rts) = (left.tuple_size(), right.tuple_size());
    // Emission reads build rows at random, so the build side is one packed
    // buffer — which it already is (a no-op flatten): this provider stages
    // every input and the driver every intermediate unpartitioned.
    right.flatten();
    let build = right.partition(0);
    let (build_rows, probe_rows) = (build.len() / rts, left.num_records());
    for (rows, ts) in [(build_rows, rts), (probe_rows, lts)] {
        stats.tuples_processed += rows as u64;
        stats.bytes_touched += (rows * ts) as u64;
        stats.add_hashes(rows as u64);
    }

    let mut keys: Vec<u64> = Vec::with_capacity(build_rows);
    match tier {
        // Key images evaluate into a `u64` lane once per batch; inserts,
        // probes and emission then run row-major in the exact build/probe
        // order of the scalar loops, so the emitted stream is identical.
        Tier::Vectorized => {
            for batch in build.chunks(BATCH * rts) {
                stats.vm_batches += 1;
                run_image_batch(right_image, batch, rts, &mut keys);
            }
        }
        Tier::Scalar => keys.extend(
            build
                .chunks_exact(rts)
                .map(|rec| run_image(right_image, rec)),
        ),
    }
    let table = JoinTable::build(keys);
    // An image hit is a match where the images are the whole keys, and is
    // confirmed on the key bytes where they are not.
    let (lkey, rkey) = (image_key(left_image), image_key(right_image));
    let exact = lkey.image_is_exact() && rkey.image_is_exact();
    let mut probe = |key: u64, lrec: &[u8], stats: &mut ExecStats| {
        for row in table.matches(key) {
            let rrec = &build[row * rts..(row + 1) * rts];
            if exact || lkey.compare_across(lrec, &rkey, rrec).is_eq() {
                stats.add_comparisons(1);
                emit(lrec, rrec);
            }
        }
    };
    match tier {
        Tier::Vectorized => {
            let mut keys: Vec<u64> = Vec::with_capacity(BATCH);
            for start in (0..probe_rows).step_by(BATCH) {
                cancel.check()?;
                stats.vm_batches += 1;
                // One run per partition the batch touches.
                for run in left.packed_runs(start..probe_rows.min(start + BATCH)) {
                    keys.clear();
                    run_image_batch(left_image, run, lts, &mut keys);
                    for (lrec, &key) in run.chunks_exact(lts).zip(&keys) {
                        probe(key, lrec, stats);
                    }
                }
            }
        }
        Tier::Scalar => {
            for (i, lrec) in left.records().enumerate() {
                if (i + 1) % CANCEL_BATCH == 0 {
                    cancel.check()?;
                }
                probe(run_image(left_image, lrec), lrec, stats);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_holistic::staging::ScanKernels;
    use hique_par::ScopedPool;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
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
                    &ScanKernels::compile(&desc, heap.schema()).unwrap(),
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
                            stats.vm_batches = 0;
                            assert_eq!(stats, expected_stats, "{context}: stats");
                        }
                    }
                }
            }
        }
    }

    // ---- The flat join table ----------------------------------------------

    /// `(k, seq)` records — `k` an `Int64` or a `Float64` — cut into
    /// partitions after the given record counts.
    fn keyed(keys: &[Value], cuts: &[usize]) -> StagedRelation {
        let schema = Schema::new(vec![
            Column::new("k", keys.first().map_or(DataType::Int64, Value::data_type)),
            Column::new("seq", DataType::Int32),
        ]);
        let records: Vec<Vec<u8>> = keys
            .iter()
            .zip(0..)
            .map(|(k, seq)| {
                Row::new(vec![k.clone(), Value::Int32(seq)])
                    .to_record(&schema)
                    .unwrap()
            })
            .collect();
        let mut parts: Vec<Vec<u8>> = Vec::new();
        let mut at = 0;
        for &cut in cuts.iter().chain([&keys.len()]) {
            parts.push(records[at..cut.max(at)].concat());
            at = cut.max(at);
        }
        StagedRelation::from_partitions(schema, parts)
    }

    fn seq(record: &[u8]) -> i32 {
        hique_types::tuple::read_i32_at(record, 8)
    }

    /// Both tiers emit exactly what a reference join over an ordered map of
    /// build-row lists emits — left-major, build-order ties — and count the
    /// same work.
    fn assert_joins_like_the_reference(left: &StagedRelation, right: &StagedRelation, image: Op) {
        use std::collections::BTreeMap;
        let mut table: BTreeMap<u64, Vec<&[u8]>> = BTreeMap::new();
        for rec in right.records() {
            table.entry(run_image(&[image], rec)).or_default().push(rec);
        }
        let mut expected: Vec<(i32, i32)> = Vec::new();
        for lrec in left.records() {
            for rrec in table.get(&run_image(&[image], lrec)).into_iter().flatten() {
                expected.push((seq(lrec), seq(rrec)));
            }
        }
        let (nl, nr) = (left.num_records() as u64, right.num_records() as u64);
        for tier in [Tier::Scalar, Tier::Vectorized] {
            let mut stats = ExecStats::new();
            let mut emitted: Vec<(i32, i32)> = Vec::new();
            hash_join(
                left,
                right.clone(),
                &[image],
                &[image],
                tier,
                &mut stats,
                &CancelToken::disabled(),
                &mut |l, r| emitted.push((seq(l), seq(r))),
            )
            .unwrap();
            assert!(emitted == expected, "{tier:?}: {nl} x {nr} rows");
            let batches = match tier {
                Tier::Vectorized => nl.div_ceil(BATCH as u64) + nr.div_ceil(BATCH as u64),
                Tier::Scalar => 0,
            };
            let expected_stats = ExecStats {
                function_calls: 1,
                tuples_processed: nl + nr,
                bytes_touched: (nl + nr) * 12,
                hash_ops: nl + nr,
                comparisons: expected.len() as u64,
                vm_batches: batches,
                ..ExecStats::new()
            };
            assert_eq!(stats, expected_stats, "{tier:?}: {nl} x {nr} rows");
        }
    }

    #[test]
    fn hash_join_emits_the_reference_stream() {
        let ints = |n: usize, f: fn(usize) -> i64| -> Vec<Value> {
            (0..n).map(|i| Value::Int64(f(i))).collect()
        };
        let image = Op::ImageI64 { offset: 0 };
        // Duplicate-heavy on both sides, batch boundaries inside each side,
        // partitions cut at uneven places (a batch spans two of them).
        let left = keyed(&ints(2500, |i| (i * 7 % 13) as i64), &[1, 1, 1030]);
        let right = keyed(&ints(1100, |i| (i % 9) as i64 - 2), &[700]);
        assert_joins_like_the_reference(&left, &right, image);
        assert_joins_like_the_reference(&right, &left, image);
        // Extremes and keys that differ only in high bits.
        let extremes = |i: usize| [i64::MIN, -1, 0, 1 << 40, i64::MAX, -(1 << 40), 1 << 41][i % 7];
        let left = keyed(&ints(300, extremes), &[]);
        let right = keyed(&ints(50, |i| [i64::MAX, i64::MIN, 1 << 41, 5][i % 4]), &[]);
        assert_joins_like_the_reference(&left, &right, image);
        // Empty build, empty probe, both.
        let empty = keyed(&[], &[]);
        assert_joins_like_the_reference(&left, &empty, image);
        assert_joins_like_the_reference(&empty, &right, image);
        assert_joins_like_the_reference(&empty, &empty, image);
        // Float keys join on their images: -0.0 and 0.0 are two keys, a NaN
        // is itself.
        let floats = |n: usize| -> Vec<Value> {
            let values = [
                0.0,
                -0.0,
                f64::NAN,
                1.5,
                f64::INFINITY,
                -1.5,
                f64::NEG_INFINITY,
            ];
            (0..n).map(|i| Value::Float64(values[i * 5 % 7])).collect()
        };
        let image = Op::ImageF64 { offset: 0 };
        assert_joins_like_the_reference(
            &keyed(&floats(90), &[40]),
            &keyed(&floats(30), &[]),
            image,
        );
    }

    #[test]
    fn a_build_side_of_one_key_builds_and_probes_in_linear_time() {
        // Every insert goes to the head of one chain: 100 000 build rows
        // cost 100 000 steps, and the three probes read the chain in build
        // order.  (A table that appended to its chains, or re-walked them on
        // insert, would take 10¹⁰ steps here.)
        let build = keyed(&vec![Value::Int64(-7); 100_000], &[]);
        let probe = keyed(&[Value::Int64(-7), Value::Int64(3), Value::Int64(-7)], &[]);
        assert_joins_like_the_reference(&probe, &build, Op::ImageI64 { offset: 0 });
    }

    // ---- The flat group table ---------------------------------------------

    #[test]
    fn groups_number_image_tuples_in_first_occurrence_order() {
        use hique_holistic::agg::AggProgram;
        use hique_plan::AggAlgorithm;
        use std::collections::BTreeMap;
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::new("b", DataType::Int32),
        ]);
        let spec = AggregateSpec {
            group_columns: vec![0, 1],
            aggregates: vec![],
            algorithm: AggAlgorithm::Map,
        };
        let layout = AggProgram::compile(&spec, &schema)
            .unwrap()
            .layout()
            .clone();
        let keys = vec![
            CompiledKey::compile(&schema, 0),
            CompiledKey::compile(&schema, 1),
        ];
        let mut groups = Groups::new(keys, &layout);
        // Tuples that swap their images, share one image, or differ only in
        // the last: far more of them than the table has slots at any size,
        // so most probes pass over other groups' slots and must tell the
        // tuples apart by comparing every image.
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 60) as i64 - 30
        };
        let mut reference: BTreeMap<(i64, i64), u32> = BTreeMap::new();
        for i in 0..20_000 {
            let (a, b) = (next() << (33 * (i % 2)), next());
            let record = Row::new(vec![Value::Int64(a), Value::Int32(b as i32)])
                .to_record(&schema)
                .unwrap();
            let image = |i: usize| [a, b][i] as u64;
            let entered = reference.len() as u32;
            let want = *reference.entry((a, b)).or_insert(entered);
            assert_eq!(groups.group(image, &record), want, "({a}, {b})");
            // Decoded from the group's first tuple.
            let decoded = &groups.values[want as usize];
            assert_eq!(decoded[0], Value::Int64(a));
            assert_eq!(decoded[1], Value::Int32(b as i32));
        }
        assert!(reference.len() > 6000, "most of both domains was seen");
        assert_eq!(groups.accums.groups(), reference.len());
        assert!(groups.table.len() >= 2 * reference.len());
        assert!(groups.table.len().is_power_of_two());
    }

    // ---- Both tiers, the compiled kernels, one answer -----------------------

    /// Rows as exact text: floats by bit pattern.
    fn exact(rows: &[Row]) -> Vec<String> {
        rows.iter()
            .map(|row| {
                let values = row.values().iter().map(|v| match v {
                    Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                });
                values.collect::<Vec<_>>().join("|")
            })
            .collect()
    }

    #[test]
    fn both_tiers_and_the_compiled_kernels_aggregate_bit_identically() {
        // `(g, tag, v, d, n)`: sums that cancel differently in another order,
        // signed zeros and — in every fourth group — NaN and infinities;
        // more groups than a page has rows; a join cascade underneath (the
        // three steps of a Q10-shaped query) in the last statement.
        let mut cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Column::new("g", DataType::Int32),
                Column::new("tag", DataType::Char(10)),
                Column::new("v", DataType::Float64),
                Column::new("d", DataType::Date),
                Column::new("n", DataType::Int32),
            ]),
        )
        .unwrap();
        for (name, payload) in [("c", "nk"), ("o", "ck"), ("nat", "name")] {
            cat.create_table(
                name,
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new(payload, DataType::Int32),
                ]),
            )
            .unwrap();
        }
        let floats = [0.1, -0.0, 0.0, 1e16, -1e16, 2.5, -7.25, 1.0, 3e-9];
        let specials = [f64::NAN, f64::INFINITY, 0.5, f64::NEG_INFINITY, -0.0];
        let mut append = |table: &str, values: Vec<Value>| {
            let heap = &mut cat.table_mut(table).unwrap().heap;
            heap.append_row(&Row::new(values)).unwrap();
        };
        for i in 0..3000usize {
            let g = (i * 7919 % 400) as i32 - 200;
            let v = if g % 4 == 0 && i % 3 == 0 {
                specials[(i * 7 + i / 13) % specials.len()]
            } else {
                floats[(i * 7 + i / 13) % floats.len()]
            };
            append(
                "t",
                vec![
                    Value::Int32(g),
                    Value::Str(["east", "west", "north"][i % 3].into()),
                    Value::Float64(v),
                    Value::Date(8000 + (i as i32 * 37) % 2000 - 1000),
                    Value::Int32((i as i32 * 7919) % 1000 - 500),
                ],
            );
        }
        for i in 0..400 {
            append("o", vec![Value::Int32(i - 200), Value::Int32(i % 37)]);
        }
        for i in 0..37 {
            append("c", vec![Value::Int32(i), Value::Int32(i % 5)]);
        }
        for i in 0..5 {
            append("nat", vec![Value::Int32(i), Value::Int32(100 + i)]);
        }
        for table in ["t", "c", "o", "nat"] {
            cat.analyze_table(table).unwrap();
        }
        cat.spill_to_disk(64).unwrap();

        let aggregates = "sum(t.v) as s, sum(t.v * (1 - t.n)) as s2, avg(t.v) as a,                           count(*) as c, min(t.n) as lo, max(t.d) as hi, min(t.v) as lo_v,                           max(t.v * (1 - t.n)) as hi_v";
        let statements = [
            format!("select g, tag, {aggregates} from t group by g, tag"),
            format!("select tag, {aggregates} from t group by tag"),
            format!("select {aggregates} from t"),
            format!(
                "select nat.name, c.k, {aggregates} from t, o, c, nat \
                 where t.g = o.k and o.ck = c.k and c.nk = nat.k group by nat.name, c.k"
            ),
        ];
        let options = ExecOptions::default();
        for sql in &statements {
            // Resident, and with every temporary spilled (a one-page budget).
            for budget in [0, 1] {
                let config = PlannerConfig::default().with_memory_budget_pages(budget);
                let plan = hique_plan::plan_sql(sql, &cat, &config).unwrap();
                let generated = hique_holistic::generate(&plan).unwrap();
                let program =
                    crate::compile(&generated, &cat, crate::CompileMode::Specialized).unwrap();
                let run = |tier| {
                    program
                        .execute_with_tier(&generated, &cat, &options, tier)
                        .unwrap()
                };
                let (scalar, vectorized) = (run(Tier::Scalar), run(Tier::Vectorized));
                assert!(!scalar.rows.is_empty(), "{sql}");
                assert_eq!(exact(&vectorized.rows), exact(&scalar.rows), "{sql}");
                assert_eq!(
                    vectorized.stats.spilled_temporaries > 0,
                    budget > 0,
                    "{sql}: budget {budget}"
                );
                // The compiled kernels group in another order; the groups
                // themselves carry the same bits.
                let compiled = generated.execute_with(&cat, &options).unwrap();
                let sorted = |rows: &[Row]| {
                    let mut rows = exact(rows);
                    rows.sort();
                    rows
                };
                assert_eq!(sorted(&compiled.rows), sorted(&scalar.rows), "{sql}");
            }
        }
    }
}
