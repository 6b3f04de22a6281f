//! Aggregation kernels: sort, hybrid hash-sort and map aggregation over
//! packed record buffers (paper §V-B).
//!
//! The kernels are instantiated with compiled group-key accessors and the
//! query's aggregate program ([`AggProgram`]: every aggregate's argument in
//! one shared-subexpression register DAG, plus function-specialised
//! accumulator slots), resolved once per kernel call into page sweeps
//! ([`PageFold`]).  Every form — resident or streamed, serial or chunked
//! across a pool — walks its input one packed page at a time: the page's
//! argument registers are filled by one loop per DAG node, one boundary
//! sweep per grouping attribute cuts it into runs of rows of one group,
//! each run finds its group once (a directory probe per attribute for map
//! aggregation, the next group number for sorted input), and the rows are
//! added to their groups' slots.  No per-tuple dispatch, no function calls,
//! no boxed values (those appear only when the handful of result groups is
//! converted to output rows).

use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::PartitionSet;
use hique_plan::AggregateSpec;
use hique_storage::records_per_page;
use hique_types::{ExecStats, HiqueError, Result, Row, Schema, Value};

pub use crate::agg_program::{
    AccumLayout, AccumSlot, AggNode, AggProgram, GroupAccums, KeyRuns, PageFold,
};
use crate::kernel::{compare_keys, CompiledKey};
use crate::relation::StagedRelation;

/// A compiled aggregation: group-key accessors plus the query's aggregate
/// program, instantiated against the input relation's schema.
#[derive(Debug, Clone)]
pub struct CompiledAgg {
    group_keys: Vec<CompiledKey>,
    program: AggProgram,
    /// Width of an input record.
    tuple_size: usize,
}

/// A packed buffer as the page-shaped batches a spill of it would yield.
fn pages(buf: &[u8], ts: usize) -> impl Iterator<Item = &[u8]> {
    buf.chunks(records_per_page(ts).max(1) * ts)
}

/// Visit the pages of every stream of `set`, in partition order, until `f`
/// fails.
fn try_for_each_page(set: &PartitionSet<'_>, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    let mut outcome = Ok(());
    for stream in set.streams() {
        stream.for_each_page(|page| {
            if outcome.is_ok() {
                outcome = f(page);
            }
        })?;
    }
    outcome
}

/// The single group of a global aggregate (no grouping columns): one
/// accumulator set plus the tuples it has seen.  Empty input yields no
/// group, the convention shared by the iterator and DSM engines.
struct GlobalGroup {
    fold: PageFold,
    accums: GroupAccums,
    tuples: u64,
}

impl GlobalGroup {
    fn new(agg: &CompiledAgg) -> Self {
        let mut accums = agg.fresh_accums();
        accums.push_group();
        GlobalGroup {
            fold: agg.page_fold(),
            accums,
            tuples: 0,
        }
    }

    fn fold_page(&mut self, page: &[u8]) {
        let n = self.fold.fill(page);
        self.fold.fold_range(0..n, 0, &mut self.accums);
        self.tuples += n as u64;
    }

    fn combine(&mut self, other: &GlobalGroup) {
        self.tuples += other.tuples;
        self.accums.combine(0, &other.accums, 0);
    }

    fn finish(self, agg: &CompiledAgg, stats: &mut ExecStats) -> Vec<Row> {
        stats.tuples_processed += self.tuples;
        stats.bytes_touched += self.tuples * agg.tuple_size as u64;
        if self.tuples == 0 {
            return Vec::new();
        }
        vec![agg.finish_row(Vec::new(), &self.accums, 0)]
    }
}

/// The value directories of map aggregation (paper Figure 4), grown on
/// first occurrence during the one scan: per grouping attribute the
/// distinct key images seen so far, sorted, each with the id it was given
/// on discovery.  A tuple's ids, weighted by the |M_i| products of Figure
/// 4(b), are its offset in the dense cell array, which names its group.
///
/// The products are taken over per-attribute *capacities* (powers of two)
/// rather than the current directory sizes, so the array is laid out again
/// only when a directory outgrows its capacity — a handful of times per
/// attribute — and accumulators never move.
struct MapDirectory {
    values: Vec<Vec<(i64, u32)>>,
    /// Per attribute, a direct-mapped memo of recent `(image, id)` pairs in
    /// front of the directory's binary search.
    memo: Vec<[(i64, u32); MEMO]>,
    capacity: Vec<usize>,
    multipliers: Vec<usize>,
    /// Group number + 1 per offset; 0 = no tuple seen yet.
    cells: Vec<u32>,
}

/// Entries per directory memo.
const MEMO: usize = 64;
/// No directory hands this id out, so it marks an empty memo entry.
const NO_ID: u32 = u32::MAX;

/// The id of image `v` in directory `d`, entering it when unseen.
#[inline(always)]
fn directory_id(d: &mut Vec<(i64, u32)>, memo: &mut [(i64, u32); MEMO], v: i64) -> u32 {
    // Fibonacci hashing: the top bits of the product.
    let slot = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO.ilog2());
    let memo = &mut memo[slot as usize];
    if memo.0 != v || memo.1 == NO_ID {
        let id = match d.binary_search_by_key(&v, |&(value, _)| value) {
            Ok(pos) => d[pos].1,
            Err(pos) => {
                let id = d.len() as u32;
                d.insert(pos, (v, id));
                id
            }
        };
        *memo = (v, id);
    }
    memo.1
}

impl MapDirectory {
    fn new(group_keys: usize) -> Self {
        MapDirectory {
            values: vec![Vec::new(); group_keys],
            memo: vec![[(0, NO_ID); MEMO]; group_keys],
            capacity: vec![1; group_keys],
            multipliers: vec![1; group_keys],
            cells: vec![0],
        }
    }

    /// One probe sweep per attribute over the key images of a page's key
    /// runs (`images[i][r]` is the image of attribute `i` in row `r`, `rows`
    /// the first row of every run), entering unseen values: `offsets[j]`
    /// becomes run `j`'s offset in the cell array.  When an entered value
    /// makes a directory outgrow its capacity, the cell array is laid out
    /// again for `groups` (one image per attribute per group seen so far,
    /// in group order) and the sweeps repeat as pure lookups.
    fn offsets(
        &mut self,
        images: &[Vec<i64>],
        rows: &[u32],
        groups: &[i64],
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        if !self.probe(images, rows, offsets) {
            self.grow(groups)?;
            self.probe(images, rows, offsets);
        }
        Ok(())
    }

    /// The sweeps of [`MapDirectory::offsets`] under the current layout;
    /// whether every directory still fits its capacity (when not, the
    /// offsets are meaningless until [`MapDirectory::grow`] ran).
    fn probe(&mut self, images: &[Vec<i64>], rows: &[u32], offsets: &mut Vec<usize>) -> bool {
        offsets.clear();
        offsets.resize(rows.len(), 0);
        let mut fits = true;
        for (i, (d, lane)) in self.values.iter_mut().zip(images).enumerate() {
            let (memo, multiplier) = (&mut self.memo[i], self.multipliers[i]);
            for (offset, &row) in offsets.iter_mut().zip(rows) {
                *offset += directory_id(d, memo, lane[row as usize]) as usize * multiplier;
            }
            fits &= d.len() <= self.capacity[i];
        }
        fits
    }

    /// Size the cell array for the grown directories and re-enter `groups`.
    /// A layout the address space (or the allocator) cannot hold is a typed
    /// error: map aggregation was planned for domains the data has
    /// outgrown.
    #[cold]
    fn grow(&mut self, groups: &[i64]) -> Result<()> {
        for (cap, d) in self.capacity.iter_mut().zip(&self.values) {
            *cap = d.len().next_power_of_two();
        }
        let too_large = || {
            HiqueError::Execution(format!(
                "map aggregation cannot lay out its cell array: the value directories hold {:?} \
                 distinct values per grouping attribute",
                self.values.iter().map(Vec::len).collect::<Vec<_>>()
            ))
        };
        let n = self.values.len();
        let cells = self
            .capacity
            .iter()
            .try_fold(1usize, |cells, &cap| cells.checked_mul(cap))
            .ok_or_else(too_large)?;
        let mut laid_out: Vec<u32> = Vec::new();
        laid_out.try_reserve_exact(cells).map_err(|_| too_large())?;
        laid_out.resize(cells, 0);
        for i in (0..n.saturating_sub(1)).rev() {
            self.multipliers[i] = self.multipliers[i + 1] * self.capacity[i + 1];
        }
        self.cells = laid_out;
        for (g, group) in groups.chunks_exact(n).enumerate() {
            let offset: usize = (0..n)
                .map(|i| {
                    directory_id(&mut self.values[i], &mut self.memo[i], group[i]) as usize
                        * self.multipliers[i]
                })
                .sum();
            self.cells[offset] = g as u32 + 1;
        }
        Ok(())
    }

    /// Directory searches one tuple costs: Σ⌈log₂|dᵢ|⌉, a one-value
    /// directory counting as one probe.
    fn comparisons_per_tuple(&self) -> u64 {
        self.values
            .iter()
            .map(|d| u64::from((d.len().max(2) - 1).ilog2() + 1))
            .sum()
    }
}

/// The groups of map aggregation in discovery order: per group its key
/// images, its accumulator slots and a copy of its first record (to decode
/// the group's attribute values for the output).
struct MapGroups<'a> {
    agg: &'a CompiledAgg,
    fold: PageFold,
    dir: MapDirectory,
    images: Vec<i64>,
    accums: GroupAccums,
    representatives: Vec<u8>,
    tuples: u64,
    // Scratch of one page: per attribute the rows' key images, then the
    // key runs and each run's cell offset and group number.
    lanes: Vec<Vec<i64>>,
    runs: KeyRuns,
    offsets: Vec<usize>,
    groups: Vec<u32>,
}

impl<'a> MapGroups<'a> {
    fn new(agg: &'a CompiledAgg) -> Self {
        MapGroups {
            agg,
            fold: agg.page_fold(),
            dir: MapDirectory::new(agg.group_keys.len()),
            images: Vec::new(),
            accums: agg.fresh_accums(),
            representatives: Vec::new(),
            tuples: 0,
            lanes: vec![Vec::new(); agg.group_keys.len()],
            runs: KeyRuns::new(),
            offsets: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Number the groups of the key `runs` of the image `lanes`, in row
    /// order; a run that is its group's first enters the group with
    /// `record(row)` as its representative.
    fn assign<'r>(&mut self, record: impl Fn(usize) -> &'r [u8]) -> Result<()> {
        let starts = self.runs.starts();
        self.dir
            .offsets(&self.lanes, starts, &self.images, &mut self.offsets)?;
        self.groups.clear();
        for (&offset, &row) in self.offsets.iter().zip(starts) {
            let cell = &mut self.dir.cells[offset];
            if *cell == 0 {
                let row = row as usize;
                self.images.extend(self.lanes.iter().map(|lane| lane[row]));
                self.representatives.extend_from_slice(record(row));
                *cell = self.accums.push_group() as u32 + 1;
            }
            self.groups.push(*cell - 1);
        }
        Ok(())
    }

    fn fold_page(&mut self, page: &[u8]) -> Result<()> {
        let ts = self.agg.tuple_size;
        for (key, lane) in self.agg.group_keys.iter().zip(&mut self.lanes) {
            lane.clear();
            key.images_into(page, ts, lane);
        }
        let rows = self.fold.fill(page);
        self.runs.cut(&self.lanes, rows);
        self.assign(|row| &page[row * ts..(row + 1) * ts])?;
        self.tuples += rows as u64;
        self.fold.fold(&self.runs, &self.groups, &mut self.accums);
        Ok(())
    }

    /// Fold a later chunk's groups in; the earlier representative wins.
    fn combine(&mut self, other: &MapGroups) -> Result<()> {
        self.tuples += other.tuples;
        let (k, ts) = (self.lanes.len(), self.agg.tuple_size);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            lane.clear();
            lane.extend(other.images.iter().skip(i).step_by(k));
        }
        self.runs.cut(&self.lanes, other.accums.groups());
        self.assign(|g| &other.representatives[g * ts..(g + 1) * ts])?;
        for (from, &g) in self.groups.iter().enumerate() {
            self.accums.combine(g as usize, &other.accums, from);
        }
        Ok(())
    }

    /// One output row per group, in offset order of the sorted directories
    /// (= lexicographic order of the groups' key images), charging the
    /// scan's work to `stats`: every tuple searched every final directory.
    fn emit(&self, stats: &mut ExecStats) -> Vec<Row> {
        let (agg, k, ts) = (self.agg, self.lanes.len(), self.agg.tuple_size);
        stats.tuples_processed += self.tuples;
        stats.bytes_touched += self.tuples * ts as u64;
        stats.comparisons += self.tuples * self.dir.comparisons_per_tuple();
        let mut order: Vec<usize> = (0..self.accums.groups()).collect();
        order.sort_unstable_by_key(|&g| &self.images[g * k..(g + 1) * k]);
        order
            .into_iter()
            .map(|g| {
                let rep = &self.representatives[g * ts..(g + 1) * ts];
                agg.finish_row(agg.group_values(rep), &self.accums, g)
            })
            .collect()
    }
}

/// The linear group-boundary scan of sort aggregation over one sorted
/// partition, a page at a time: one boundary sweep per grouping attribute
/// cuts the page into its groups' runs, the groups that end inside the page
/// become output rows, and the last one is carried — its slots and one
/// record — into the next page.
struct SortScan<'a> {
    agg: &'a CompiledAgg,
    fold: PageFold,
    /// The groups of the page being scanned; group 0 is the carried one.
    accums: GroupAccums,
    /// The last record scanned (empty before the first).
    last: Vec<u8>,
    // Scratch of one page: its runs and their groups.
    runs: KeyRuns,
    groups: Vec<u32>,
}

impl<'a> SortScan<'a> {
    fn new(agg: &'a CompiledAgg) -> Self {
        SortScan {
            agg,
            fold: agg.page_fold(),
            accums: agg.fresh_accums(),
            last: Vec::new(),
            runs: KeyRuns::new(),
            groups: Vec::new(),
        }
    }

    fn scan_page(&mut self, page: &[u8], stats: &mut ExecStats, out: &mut Vec<Row>) {
        let (agg, ts) = (self.agg, self.agg.tuple_size);
        let rows = self.fold.fill(page);
        if rows == 0 {
            return;
        }
        let record = |row: usize| &page[row * ts..(row + 1) * ts];
        // Every record but the partition's first is compared with its
        // predecessor.
        let carried = !self.last.is_empty();
        stats.tuples_processed += rows as u64;
        stats.bytes_touched += (rows * ts) as u64;
        stats.comparisons += ((rows - 1 + carried as usize) * agg.group_keys.len()) as u64;
        self.runs.begin(rows);
        for key in &agg.group_keys {
            key.mark_changes(page, ts, self.runs.boundaries_mut());
        }
        self.runs.finish();
        // Run `i` is group `i` of the page, after the carried group unless
        // the first run continues it.
        let continues = carried && compare_keys(&agg.group_keys, &self.last, record(0)).is_eq();
        let ended_before = carried as usize - continues as usize;
        self.groups.clear();
        for g in ended_before..ended_before + self.runs.starts().len() {
            if g == self.accums.groups() {
                self.accums.push_group();
            }
            self.groups.push(g as u32);
        }
        self.fold.fold(&self.runs, &self.groups, &mut self.accums);
        // Every group but the last has ended.
        for g in 0..self.accums.groups() - 1 {
            let rep = match g.checked_sub(ended_before) {
                Some(run) => record(self.runs.starts()[run] as usize),
                None => &self.last[..],
            };
            out.push(agg.finish_row(agg.group_values(rep), &self.accums, g));
        }
        self.accums.retain_last();
        self.last.clear();
        self.last.extend_from_slice(record(rows - 1));
    }

    /// The partition ended: its last group becomes a row.
    fn finish(self, out: &mut Vec<Row>) {
        if !self.last.is_empty() {
            let values = self.agg.group_values(&self.last);
            out.push(self.agg.finish_row(values, &self.accums, 0));
        }
    }
}

impl CompiledAgg {
    /// Instantiate the aggregation templates for `spec` over `input_schema`.
    pub fn compile(spec: &AggregateSpec, input_schema: &Schema) -> Result<Self> {
        Ok(CompiledAgg {
            group_keys: spec
                .group_columns
                .iter()
                .map(|&c| CompiledKey::compile(input_schema, c))
                .collect(),
            program: AggProgram::compile(spec, input_schema)?,
            tuple_size: input_schema.tuple_size(),
        })
    }

    /// Number of aggregates.
    pub fn num_aggregates(&self) -> usize {
        self.program.layout().num_aggregates()
    }

    /// The aggregate program — exposed so alternative back ends (the
    /// bytecode VM) lower the *same* DAG and slots instead of re-deriving
    /// them from the plan.
    pub fn program(&self) -> &AggProgram {
        &self.program
    }

    /// The program's page sweeps, resolved for one kernel call (or one
    /// worker of it).
    fn page_fold(&self) -> PageFold {
        PageFold::new(self.program.nodes(), self.program.layout(), self.tuple_size)
    }

    fn fresh_accums(&self) -> GroupAccums {
        GroupAccums::new(self.program.layout())
    }

    fn group_values(&self, record: &[u8]) -> Vec<Value> {
        self.group_keys.iter().map(|k| k.value(record)).collect()
    }

    fn finish_row(&self, group: Vec<Value>, accums: &GroupAccums, g: usize) -> Row {
        let mut values = group;
        values.extend((0..self.num_aggregates()).map(|i| accums.finish(i, g)));
        Row::new(values)
    }

    // ---- Resident-input kernels ------------------------------------------
    //
    // Each divides its work across `pool`; a serial pool runs the same code
    // inline, which is the serial form.

    /// Sort aggregation: the input must already be ordered on the grouping
    /// columns (each partition independently); a single linear scan per
    /// partition detects group boundaries.
    ///
    /// Each partition's groups are found and accumulated entirely by one
    /// task and the per-partition row vectors are concatenated in partition
    /// order, so the output — including floating-point accumulation order —
    /// is the same for every pool width.  A global aggregate (no grouping
    /// columns) is one group spanning every partition and is scanned
    /// serially.
    pub fn sort_aggregate(
        &self,
        input: &StagedRelation,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        stats.add_calls(1);
        let ts = self.tuple_size;
        if self.group_keys.is_empty() {
            let mut group = GlobalGroup::new(self);
            for p in 0..input.num_partitions() {
                pages(input.partition(p), ts).for_each(|page| group.fold_page(page));
            }
            return group.finish(self, stats);
        }
        // Groups never span partitions (hash or fine partitioning is on a
        // grouping attribute), so partitions aggregate independently — the
        // unit of work of the partition-parallel mode.
        let results: Vec<(Vec<Row>, ExecStats)> = pool.map(input.num_partitions(), |p| {
            let mut local = ExecStats::new();
            let mut rows = Vec::new();
            let mut scan = SortScan::new(self);
            for page in pages(input.partition(p), ts) {
                scan.scan_page(page, &mut local, &mut rows);
            }
            scan.finish(&mut rows);
            (rows, local)
        });
        let mut out = Vec::new();
        for (rows, local) in results {
            stats.merge(&local);
            out.extend(rows);
        }
        out
    }

    /// Hybrid hash-sort aggregation: partition on the first grouping column,
    /// sort each partition on all grouping columns, then scan (paper §V-B),
    /// with the scatter, the per-partition sorts and the per-partition scans
    /// divided across `pool`.
    ///
    /// The scatter chunks each source partition's records in scan order and
    /// concatenates the per-chunk buckets in chunk order, so every staged
    /// partition holds its records in exactly the serial scatter order; the
    /// sorts are stable and the scans partition-local, making the result
    /// (including float accumulation) the same for every pool width.
    pub fn hybrid_aggregate(
        &self,
        input: &StagedRelation,
        partitions: usize,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.sort_aggregate(input, pool, stats);
        }
        let first = self.group_keys[0];
        let m = partitions.max(1);
        let mut staged = if input.num_partitions() == m {
            input.clone()
        } else {
            stats.partition_passes += 1;
            let parts = par_scatter(input, first, m, pool, stats);
            stats.add_materialized(parts.iter().map(|p| p.len()).sum());
            StagedRelation::from_partitions(input.schema().clone(), parts)
        };
        stats.sort_passes += staged.num_partitions() as u64;
        staged.sort_all(&self.group_keys, pool);
        self.sort_aggregate(&staged, pool, stats)
    }

    /// Map aggregation: one value directory per grouping attribute maps each
    /// tuple to an offset in a dense array; a single scan, no staging
    /// (paper §V-B, Figure 4).  The directories grow on first occurrence
    /// during that scan (`MapDirectory`) — the paper assumes the domains
    /// are known from the catalogue; here they are discovered as they
    /// appear, without a second look at the input.  Domains the cell array
    /// cannot be laid out for (the plan's statistics have gone stale, or
    /// the algorithm was forced) are a typed error.
    ///
    /// The scan divides across `pool`: workers process contiguous record
    /// chunks (deterministic chunking) into thread-local directories and
    /// groups, merged in chunk order — the union of the directories,
    /// [`GroupAccums::combine`] of the slots, the lowest-index
    /// representative — so groups, representatives and integer aggregates
    /// are the same for every pool width, while SUM/AVG re-associate
    /// floating-point addition deterministically per width (DESIGN.md §7).
    pub fn map_aggregate(
        &self,
        input: &StagedRelation,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        let ts = self.tuple_size;
        let ranges = chunk_ranges(input.num_records(), pool.threads());
        let chunk_pages = |range: &std::ops::Range<usize>| {
            input
                .packed_runs(range.clone())
                .flat_map(move |run| pages(run, ts))
        };

        if self.group_keys.is_empty() {
            let chunks: Vec<GlobalGroup> = pool.map_items(&ranges, |_, range| {
                let mut group = GlobalGroup::new(self);
                chunk_pages(range).for_each(|page| group.fold_page(page));
                group
            });
            let mut chunks = chunks.into_iter();
            let mut group = chunks.next().unwrap_or_else(|| GlobalGroup::new(self));
            chunks.for_each(|chunk| group.combine(&chunk));
            return Ok(group.finish(self, stats));
        }

        let chunks: Vec<Result<MapGroups>> = pool.map_items(&ranges, |_, range| {
            let mut groups = MapGroups::new(self);
            chunk_pages(range).try_for_each(|page| groups.fold_page(page))?;
            Ok(groups)
        });
        let mut chunks = chunks.into_iter();
        let mut groups = chunks.next().unwrap_or_else(|| Ok(MapGroups::new(self)))?;
        for chunk in chunks {
            groups.combine(&chunk?)?;
        }
        Ok(groups.emit(stats))
    }

    // ---- Page-at-a-time stream kernels -----------------------------------
    //
    // The stream entry points consume a spilled (or memory) relation through
    // the pipeline substrate's `PartitionSet`: records arrive one pinned
    // pool page at a time and are never re-materialized as a whole
    // partition.  They run the *serial* accumulation order, so a budgeted
    // execution is identical for every thread count (and agrees with the
    // unbudgeted kernels up to the documented SUM/AVG re-association of the
    // parallel map path).

    /// [`CompiledAgg::sort_aggregate`] over a partition-sorted stream: the
    /// linear group-boundary scan, keeping only the pinned page and the
    /// previous record (not the partition) resident.
    pub fn sort_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let mut out = Vec::new();
        for stream in set.streams() {
            let mut scan = SortScan::new(self);
            stream.for_each_page(|page| scan.scan_page(page, stats, &mut out))?;
            scan.finish(&mut out);
        }
        Ok(out)
    }

    /// [`CompiledAgg::map_aggregate`] over a stream: the same single scan,
    /// walking the pages once; only the directories, the groups' slots and
    /// one representative record per group stay resident.
    pub fn map_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let mut groups = MapGroups::new(self);
        try_for_each_page(set, |page| groups.fold_page(page))?;
        Ok(groups.emit(stats))
    }

    /// [`CompiledAgg::hybrid_aggregate`] over a stream: one streaming
    /// scatter pass hash-partitions the records on the first grouping
    /// column, then the partitions sort and scan as resident input
    /// (deterministic for any pool width).
    pub fn hybrid_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        schema: &Schema,
        partitions: usize,
        pool: &ScopedPool,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        stats.add_calls(1);
        if self.group_keys.is_empty() {
            return self.global_aggregate_stream(set, stats);
        }
        let first = self.group_keys[0];
        let m = partitions.max(1);
        stats.partition_passes += 1;
        let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
        set.for_each_record(|rec| {
            stats.hash_ops += 1;
            parts[(first.hash(rec) as usize) % m].extend_from_slice(rec);
        })?;
        stats.add_materialized(parts.iter().map(|p| p.len()).sum());
        let mut staged = StagedRelation::from_partitions(schema.clone(), parts);
        stats.sort_passes += staged.num_partitions() as u64;
        staged.sort_all(&self.group_keys, pool);
        Ok(self.sort_aggregate(&staged, pool, stats))
    }

    /// Global aggregate (no grouping columns) over a stream: one pass, one
    /// accumulator set.
    fn global_aggregate_stream(
        &self,
        set: &PartitionSet<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        let mut group = GlobalGroup::new(self);
        try_for_each_page(set, |page| {
            group.fold_page(page);
            Ok(())
        })?;
        Ok(group.finish(self, stats))
    }
}

/// Hash-scatter `rel`'s records into `m` buckets across `pool`,
/// reproducing the serial scatter order: tasks are (partition, record
/// range) chunks in partition-major scan order and each bucket
/// concatenates the per-task buckets in that order.
fn par_scatter(
    rel: &StagedRelation,
    key: CompiledKey,
    m: usize,
    pool: &ScopedPool,
    stats: &mut ExecStats,
) -> Vec<Vec<u8>> {
    let ts = rel.tuple_size();
    let mut tasks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for p in 0..rel.num_partitions() {
        for range in chunk_ranges(rel.partition_len(p), pool.threads()) {
            tasks.push((p, range));
        }
    }
    let locals: Vec<(Vec<Vec<u8>>, u64)> = pool.map_items(&tasks, |_, (p, range)| {
        let buf = &rel.partition(*p)[range.start * ts..range.end * ts];
        let mut parts: Vec<Vec<u8>> = vec![Vec::new(); m];
        let mut hashes = 0u64;
        for rec in buf.chunks_exact(ts) {
            hashes += 1;
            parts[(key.hash(rec) as usize) % m].extend_from_slice(rec);
        }
        (parts, hashes)
    });
    // The first task's buckets become the result (a serial pool over an
    // unpartitioned input has no other task, so nothing is copied twice).
    let mut locals = locals.into_iter();
    let (mut parts, hashes) = locals.next().unwrap_or_else(|| (vec![Vec::new(); m], 0));
    stats.add_hashes(hashes);
    for (local_parts, hashes) in locals {
        stats.add_hashes(hashes);
        for (bucket, local) in parts.iter_mut().zip(&local_parts) {
            bucket.extend_from_slice(local);
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CompiledExpr;
    use hique_plan::AggAlgorithm;
    use hique_sql::analyze::{BoundAggregate, ScalarExpr};
    use hique_sql::ast::{AggFunc, BinOp};
    use hique_types::{result::sort_rows, Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("g1", DataType::Int32),
            Column::new("g2", DataType::Char(1)),
            Column::new("v", DataType::Float64),
        ])
    }

    fn relation(n: usize) -> StagedRelation {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32((i % 5) as i32),
                    Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
                    Value::Float64((i % 10) as f64),
                ])
            })
            .collect();
        StagedRelation::from_rows(schema(), &rows).unwrap()
    }

    fn spec() -> AggregateSpec {
        AggregateSpec {
            group_columns: vec![0, 1],
            aggregates: vec![
                BoundAggregate {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Count,
                    arg: None,
                    dtype: DataType::Int64,
                },
                BoundAggregate {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::Binary {
                        op: BinOp::Mul,
                        left: Box::new(ScalarExpr::Column {
                            index: 2,
                            dtype: DataType::Float64,
                        }),
                        right: Box::new(ScalarExpr::Literal(Value::Int32(2))),
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Min,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::Column {
                        index: 2,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
            ],
            algorithm: AggAlgorithm::Map,
        }
    }

    fn normalized(mut rows: Vec<Row>) -> Vec<Row> {
        sort_rows(&mut rows, &[(0, true), (1, true)]);
        rows
    }

    #[test]
    fn all_three_algorithms_agree() {
        let input = relation(1000);
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        assert_eq!(compiled.num_aggregates(), 5);
        let pool = ScopedPool::serial();

        let mut s1 = ExecStats::new();
        let mut sorted_input = input.clone();
        sorted_input.sort_all(
            &[
                CompiledKey::compile(input.schema(), 0),
                CompiledKey::compile(input.schema(), 1),
            ],
            &pool,
        );
        let sort_res = normalized(compiled.sort_aggregate(&sorted_input, &pool, &mut s1));

        let mut s2 = ExecStats::new();
        let hybrid_res = normalized(compiled.hybrid_aggregate(&input, 16, &pool, &mut s2));

        let mut s3 = ExecStats::new();
        let map_res = normalized(compiled.map_aggregate(&input, &pool, &mut s3).unwrap());

        assert_eq!(sort_res.len(), 10);
        assert_eq!(sort_res, hybrid_res);
        assert_eq!(sort_res, map_res);
        // Group (0, "A"): i in {0,10,20,...,990} intersect i%5==0 and even ->
        // i % 10 == 0, 100 rows, each v = 0.0.
        let g0a = &sort_res[0];
        assert_eq!(g0a.get(0), &Value::Int32(0));
        assert_eq!(g0a.get(1), &Value::Str("A".into()));
        assert_eq!(g0a.get(2), &Value::Float64(0.0));
        assert_eq!(g0a.get(3), &Value::Int64(100));
        assert!(s2.sort_passes > 0);
        assert!(s3.comparisons > 0);
    }

    fn global_spec() -> AggregateSpec {
        let mut s = spec();
        s.group_columns = vec![];
        s
    }

    #[test]
    fn global_aggregate_without_groups() {
        let input = relation(100);
        let compiled = CompiledAgg::compile(&global_spec(), input.schema()).unwrap();
        let pool = ScopedPool::serial();
        let mut stats = ExecStats::new();
        for rows in [
            compiled.map_aggregate(&input, &pool, &mut stats).unwrap(),
            compiled.sort_aggregate(&input, &pool, &mut stats),
            compiled.hybrid_aggregate(&input, 4, &pool, &mut stats),
        ] {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].get(1), &Value::Int64(100));
        }
    }

    #[test]
    fn empty_input_produces_no_groups_at_any_pool_width() {
        // The PR-1 bug class × N threads: zero rows in must be zero rows out
        // on every kernel, grouped or global.
        let input = StagedRelation::new(schema());
        for s in [spec(), global_spec()] {
            let compiled = CompiledAgg::compile(&s, input.schema()).unwrap();
            for threads in [1, 2, 4, 16] {
                let pool = ScopedPool::new(threads);
                let mut stats = ExecStats::new();
                assert!(compiled
                    .sort_aggregate(&input, &pool, &mut stats)
                    .is_empty());
                assert!(compiled
                    .hybrid_aggregate(&input, 4, &pool, &mut stats)
                    .is_empty());
                assert!(compiled
                    .map_aggregate(&input, &pool, &mut stats)
                    .unwrap()
                    .is_empty());
            }
        }
        // And a non-empty global aggregate still yields exactly one row.
        let filled = relation(100);
        let compiled = CompiledAgg::compile(&global_spec(), filled.schema()).unwrap();
        let rows = compiled
            .map_aggregate(&filled, &ScopedPool::new(4), &mut ExecStats::new())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(100));
    }

    #[test]
    fn every_algorithm_is_identical_across_pool_widths() {
        let input = relation(1000);
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        let group_keys = [
            CompiledKey::compile(input.schema(), 0),
            CompiledKey::compile(input.schema(), 1),
        ];
        // Sort aggregation over a partitioned, per-partition-sorted input.
        let mut staged = {
            let mut s = ExecStats::new();
            let parts = super::par_scatter(&input, group_keys[0], 8, &ScopedPool::serial(), &mut s);
            StagedRelation::from_partitions(input.schema().clone(), parts)
        };
        staged.sort_all(&group_keys, &ScopedPool::serial());
        let run = |threads: usize| {
            let pool = ScopedPool::new(threads);
            let (mut s, mut h, mut m) = (ExecStats::new(), ExecStats::new(), ExecStats::new());
            let sort = compiled.sort_aggregate(&staged, &pool, &mut s);
            let hybrid = compiled.hybrid_aggregate(&input, 16, &pool, &mut h);
            // Map: thread-local arrays merged with the combine logic.  The
            // test values are integer-valued floats, so even the SUM/AVG
            // accumulators match exactly here.
            let map = compiled.map_aggregate(&input, &pool, &mut m).unwrap();
            ((sort, s), (hybrid, h), (map, m))
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            // Partitions aggregate independently and the scatter, the sorts
            // and the scans are order-preserving: rows and stats both match.
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_groups() {
        // 2 groups (g2 only), 16 threads: the merge must not invent or drop
        // groups when most thread-locals stay empty.
        let input = relation(500);
        let mut s = spec();
        s.group_columns = vec![1];
        let compiled = CompiledAgg::compile(&s, input.schema()).unwrap();
        let (serial, wide) = (ScopedPool::serial(), ScopedPool::new(16));
        let mut st = ExecStats::new();
        let expected = normalized(compiled.map_aggregate(&input, &serial, &mut st).unwrap());
        assert_eq!(expected.len(), 2);
        let map = normalized(compiled.map_aggregate(&input, &wide, &mut st).unwrap());
        assert_eq!(map, expected);
        let hybrid = normalized(compiled.hybrid_aggregate(&input, 8, &wide, &mut st));
        assert_eq!(hybrid, expected);
    }

    #[test]
    fn skew_into_one_group() {
        // Every record in one group: a single partition/offset receives all
        // updates from every worker.
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(1),
                    Value::Str("A".into()),
                    Value::Float64((i % 10) as f64),
                ])
            })
            .collect();
        let input = StagedRelation::from_rows(schema(), &rows).unwrap();
        let compiled = CompiledAgg::compile(&spec(), input.schema()).unwrap();
        let (serial, wide) = (ScopedPool::serial(), ScopedPool::new(4));
        let expected = compiled
            .map_aggregate(&input, &serial, &mut ExecStats::new())
            .unwrap();
        assert_eq!(expected.len(), 1);
        assert_eq!(expected[0].get(3), &Value::Int64(600));
        let map = compiled
            .map_aggregate(&input, &wide, &mut ExecStats::new())
            .unwrap();
        assert_eq!(map, expected);
        let hybrid = compiled.hybrid_aggregate(&input, 8, &wide, &mut ExecStats::new());
        assert_eq!(hybrid, expected);
    }

    #[test]
    fn string_min_max_rejected() {
        let mut s = spec();
        s.aggregates.push(BoundAggregate {
            func: AggFunc::Min,
            arg: Some(ScalarExpr::Column {
                index: 1,
                dtype: DataType::Char(1),
            }),
            dtype: DataType::Char(1),
        });
        assert!(CompiledAgg::compile(&s, &schema()).is_err());
    }

    // ---- Single-pass map aggregation ≡ the two-pass form ------------------

    /// The map aggregation this crate shipped before the single scan, kept
    /// as the oracle: a directory pre-pass over every record, sealed
    /// directories, dense per-chunk arrays of four-field accumulators fed
    /// by tree-walking argument evaluation, merged in chunk order onto
    /// fresh arrays, one row per occupied offset.
    fn two_pass_map_aggregate(
        spec: &AggregateSpec,
        input: &StagedRelation,
        threads: usize,
    ) -> (Vec<Row>, ExecStats) {
        #[derive(Clone, Copy)]
        struct Old {
            sum: f64,
            count: i64,
            min: f64,
            max: f64,
        }
        let fresh = Old {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        let keys: Vec<CompiledKey> = spec
            .group_columns
            .iter()
            .map(|&c| CompiledKey::compile(input.schema(), c))
            .collect();
        let args: Vec<Option<CompiledExpr>> = spec
            .aggregates
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| CompiledExpr::compile(e, input.schema()).unwrap())
            })
            .collect();
        let records: Vec<&[u8]> = input.records().collect();
        let mut stats = ExecStats::new();
        stats.add_calls(1);

        let mut dirs: Vec<Vec<i64>> = vec![Vec::new(); keys.len()];
        for rec in &records {
            for (d, k) in dirs.iter_mut().zip(&keys) {
                if let Err(pos) = d.binary_search(&k.as_i64(rec)) {
                    d.insert(pos, k.as_i64(rec));
                }
            }
        }
        let mut multipliers = vec![1usize; keys.len()];
        for i in (0..keys.len().saturating_sub(1)).rev() {
            multipliers[i] = multipliers[i + 1] * dirs[i + 1].len().max(1);
        }
        let total: usize = dirs.iter().map(|d| d.len().max(1)).product();

        let mut merged = vec![vec![fresh; args.len()]; total];
        let mut reps: Vec<Option<usize>> = vec![None; total];
        for range in chunk_ranges(records.len(), threads) {
            let mut local = vec![vec![fresh; args.len()]; total];
            let mut local_reps: Vec<Option<usize>> = vec![None; total];
            for ri in range {
                let rec = records[ri];
                stats.add_tuple(rec.len());
                let mut offset = 0usize;
                for ((d, k), m) in dirs.iter().zip(&keys).zip(&multipliers) {
                    stats.comparisons += (d.len().max(2) as f64).log2().ceil() as u64;
                    offset += d.binary_search(&k.as_i64(rec)).unwrap() * m;
                }
                for (acc, arg) in local[offset].iter_mut().zip(&args) {
                    match arg {
                        Some(expr) => {
                            let v = expr.eval(rec);
                            acc.sum += v;
                            acc.count += 1;
                            if v < acc.min {
                                acc.min = v;
                            }
                            if v > acc.max {
                                acc.max = v;
                            }
                        }
                        None => acc.count += 1,
                    }
                }
                local_reps[offset].get_or_insert(ri);
            }
            for (m, l) in merged.iter_mut().zip(&local) {
                for (a, o) in m.iter_mut().zip(l) {
                    a.sum += o.sum;
                    a.count += o.count;
                    if o.min < a.min {
                        a.min = o.min;
                    }
                    if o.max > a.max {
                        a.max = o.max;
                    }
                }
            }
            for (m, l) in reps.iter_mut().zip(&local_reps) {
                if m.is_none() {
                    *m = *l;
                }
            }
        }

        let mut rows = Vec::new();
        for (offset, rep) in reps.iter().enumerate() {
            let Some(ri) = *rep else { continue };
            let mut values: Vec<Value> = keys.iter().map(|k| k.value(records[ri])).collect();
            for (acc, a) in merged[offset].iter().zip(&spec.aggregates) {
                values.push(match a.func {
                    AggFunc::Count => Value::Int64(acc.count),
                    AggFunc::Sum => Value::from_f64(acc.sum, a.dtype),
                    AggFunc::Avg => Value::Float64(acc.sum / acc.count as f64),
                    // Typed since this PR (the old form answered Float64).
                    AggFunc::Min => Value::from_f64(acc.min, a.dtype),
                    AggFunc::Max => Value::from_f64(acc.max, a.dtype),
                });
            }
            rows.push(Row::new(values));
        }
        (rows, stats)
    }

    /// Rows as exact text: floats by bit pattern, every other value with
    /// its variant (`Value`'s own equality compares across numeric types).
    fn exact(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// [`schema`] with a string key wider than its 8-byte image.
    fn wide_schema() -> Schema {
        Schema::new(vec![
            Column::new("g1", DataType::Int32),
            Column::new("g2", DataType::Char(10)),
            Column::new("v", DataType::Float64),
        ])
    }

    /// `(g1, g2, v)` rows.  `g2` repeats its letter eight times and then
    /// spells the record number: records of one letter are one group (the
    /// key image is the first eight bytes) whose output spelling tells
    /// which record represented it.
    fn relation_of(keys: impl Iterator<Item = (i32, char)>) -> StagedRelation {
        let rows: Vec<Row> = keys
            .enumerate()
            .map(|(i, (g1, g2))| {
                Row::new(vec![
                    Value::Int32(g1),
                    Value::Str(format!("{}{:02}", g2.to_string().repeat(8), i % 100)),
                    Value::Float64(i as f64 * 0.125 - 7.0),
                ])
            })
            .collect();
        StagedRelation::from_rows(wide_schema(), &rows).unwrap()
    }

    /// A spec over [`schema`] whose aggregates share nodes and slots.
    fn sharing_spec(group_columns: Vec<usize>) -> AggregateSpec {
        let v = || ScalarExpr::Column {
            index: 2,
            dtype: DataType::Float64,
        };
        let g1 = || ScalarExpr::Column {
            index: 0,
            dtype: DataType::Int32,
        };
        let bin = |op, l: ScalarExpr, r: ScalarExpr| ScalarExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
            dtype: DataType::Float64,
        };
        let one = || ScalarExpr::Literal(Value::Int32(1));
        let disc = || bin(BinOp::Mul, v(), bin(BinOp::Sub, one(), g1()));
        let agg = |func, arg: Option<ScalarExpr>, dtype| BoundAggregate { func, arg, dtype };
        AggregateSpec {
            group_columns,
            aggregates: vec![
                agg(AggFunc::Sum, Some(v()), DataType::Float64),
                agg(AggFunc::Sum, Some(disc()), DataType::Float64),
                agg(
                    AggFunc::Sum,
                    Some(bin(BinOp::Div, disc(), bin(BinOp::Add, one(), g1()))),
                    DataType::Float64,
                ),
                agg(AggFunc::Avg, Some(v()), DataType::Float64),
                agg(AggFunc::Count, None, DataType::Int64),
                agg(AggFunc::Min, Some(g1()), DataType::Int32),
                agg(AggFunc::Max, Some(disc()), DataType::Float64),
                agg(AggFunc::Sum, Some(g1()), DataType::Int64),
            ],
            algorithm: AggAlgorithm::Map,
        }
    }

    fn assert_single_pass_matches_two_pass(spec: &AggregateSpec, input: &StagedRelation) {
        let compiled = CompiledAgg::compile(spec, input.schema()).unwrap();
        for threads in [1, 2, 3, 4, 16] {
            let (rows, stats) = two_pass_map_aggregate(spec, input, threads);
            let mut got_stats = ExecStats::new();
            let got = compiled
                .map_aggregate(input, &ScopedPool::new(threads), &mut got_stats)
                .unwrap();
            // Rows, their order, and (through `g2`'s spelling) which record
            // represents each group.
            assert_eq!(exact(&got), exact(&rows), "rows, threads={threads}");
            assert_eq!(got_stats, stats, "stats, threads={threads}");
        }
    }

    #[test]
    fn single_pass_map_aggregation_matches_the_two_pass_form() {
        let mut rng = XorShift(0x5EED_CAFE);
        // Random keys over a small domain: every directory is complete early.
        let random = relation_of((0..3000).map(|_| {
            let r = rng.next();
            ((r % 7) as i32 - 3, (b'A' + (r >> 8) as u8 % 5) as char)
        }));
        // Directories that keep growing until the last record: each record
        // brings a new g1 value (descending, so every insert lands at the
        // front) and the last one a new g2 value.
        let n = 700;
        let growing = relation_of((0..n).map(|i| (n - i, if i + 1 == n { 'Z' } else { 'A' })));
        // One-group skew, and more threads than groups (or records).
        let skew = relation_of((0..600).map(|_| (1, 'A')));
        let tiny = relation_of([(5, 'B'), (5, 'A'), (4, 'B')].into_iter());
        let empty = StagedRelation::new(wide_schema());
        for input in [&random, &growing, &skew, &tiny, &empty] {
            for group_columns in [vec![0, 1], vec![1, 0], vec![1], vec![0]] {
                assert_single_pass_matches_two_pass(&sharing_spec(group_columns), input);
            }
        }
    }

    #[test]
    fn multi_partition_input_chunks_like_the_flat_record_sequence() {
        // `packed_runs` must cut exactly the ranges a flat record vector
        // would: partitions of uneven size, chunk boundaries inside them.
        let flat = relation_of((0..1000).map(|i| (i % 11, (b'A' + (i % 3) as u8) as char)));
        let ts = flat.tuple_size();
        let buf = flat.partition(0);
        let cuts = [0, 13, 13, 400, 1000];
        let parts: Vec<Vec<u8>> = cuts
            .windows(2)
            .map(|w| buf[w[0] * ts..w[1] * ts].to_vec())
            .collect();
        let partitioned = StagedRelation::from_partitions(wide_schema(), parts);
        assert_single_pass_matches_two_pass(&sharing_spec(vec![0, 1]), &partitioned);
    }

    #[test]
    fn streamed_map_aggregation_reads_a_spilled_input_once() {
        use hique_pipeline::SpillContext;
        use hique_storage::{BufferPool, TempSpace};
        use std::sync::Arc;

        let input = relation_of((0..4000).map(|i| (i % 13, (b'A' + (i % 4) as u8) as char)));
        let spec = sharing_spec(vec![0, 1]);
        let compiled = CompiledAgg::compile(&spec, input.schema()).unwrap();
        let (rows, stats) = two_pass_map_aggregate(&spec, &input, 1);

        let mut path = std::env::temp_dir();
        path.push(format!("hique_agg_stream_{}.spill", std::process::id()));
        // Two frames: no page of the first pass could survive to a second.
        let pool = Arc::new(BufferPool::new(2).unwrap());
        let temp = Arc::new(TempSpace::create(Arc::clone(&pool), &path).unwrap());
        let ctx = SpillContext::acquire(&temp, 1).expect("space is free");
        let slot = crate::spill::StagedSlot::stage(
            crate::staging::StagedInput::unpartitioned(input.clone()),
            Some(&ctx),
        )
        .unwrap();
        assert!(slot.is_spilled());
        let pages = slot
            .data_bytes()
            .div_ceil(hique_pipeline::page_data_bytes() / input.tuple_size() * input.tuple_size());

        let before = pool.stats();
        let mut got_stats = ExecStats::new();
        let got = compiled
            .map_aggregate_stream(&slot.partitions(Some(&ctx)).unwrap(), &mut got_stats)
            .unwrap();
        let io = pool.stats().since(&before);
        assert_eq!(exact(&got), exact(&rows));
        assert_eq!(got_stats, stats);
        assert_eq!(
            io.pages_read, pages as u64,
            "one pass over the spilled pages"
        );
        assert_eq!(ctx.meter().peak(), 1);
        drop(slot);
        std::fs::remove_file(&path).ok();
    }

    // ---- The page fold ≡ the row-at-a-time fold ---------------------------

    /// Sort aggregation as every kernel ran it before the page fold — the
    /// linear boundary scan, one `eval` and one `accumulate_row` per record
    /// — kept as the reference over per-partition record lists.
    fn row_at_a_time_sort_scan(agg: &CompiledAgg, partitions: &[Vec<&[u8]>]) -> Vec<Row> {
        let mut out = Vec::new();
        for records in partitions {
            let mut accums = agg.fresh_accums();
            for (i, rec) in records.iter().enumerate() {
                if i == 0 || compare_keys(&agg.group_keys, records[i - 1], rec).is_ne() {
                    if let Some(prev) = i.checked_sub(1) {
                        let values = agg.group_values(records[prev]);
                        out.push(agg.finish_row(values, &accums, accums.groups() - 1));
                    }
                    accums.push_group();
                }
                let regs = agg.program.eval(rec);
                accums.accumulate_row(accums.groups() - 1, |r| regs[r as usize]);
            }
            if let Some(last) = records.last() {
                out.push(agg.finish_row(agg.group_values(last), &accums, accums.groups() - 1));
            }
        }
        out
    }

    /// Map (and, without group keys, global) aggregation row at a time:
    /// chunks of the record sequence fold into groups found through an
    /// ordered map, merged in chunk order, one row per group in image order.
    fn row_at_a_time_map(agg: &CompiledAgg, records: &[&[u8]], threads: usize) -> Vec<Row> {
        use std::collections::BTreeMap;
        let mut merged: BTreeMap<Vec<i64>, (usize, usize)> = BTreeMap::new();
        let mut accums = agg.fresh_accums();
        for range in chunk_ranges(records.len(), threads) {
            let mut groups: BTreeMap<Vec<i64>, (usize, usize)> = BTreeMap::new();
            let mut local = agg.fresh_accums();
            for i in range {
                let images: Vec<i64> = agg
                    .group_keys
                    .iter()
                    .map(|k| k.as_i64(records[i]))
                    .collect();
                let (g, _) = *groups
                    .entry(images)
                    .or_insert_with(|| (local.push_group(), i));
                let regs = agg.program.eval(records[i]);
                local.accumulate_row(g, |r| regs[r as usize]);
            }
            for (images, (from, rep)) in groups {
                let (g, _) = *merged
                    .entry(images)
                    .or_insert_with(|| (accums.push_group(), rep));
                accums.combine(g, &local, from);
            }
        }
        merged
            .values()
            .map(|&(g, rep)| agg.finish_row(agg.group_values(records[rep]), &accums, g))
            .collect()
    }

    /// `(g1 Int32, g2 Char(10), v Float64, d Date, n Int32)`: 30-byte
    /// records, 136 to a page.
    fn fold_schema() -> Schema {
        Schema::new(vec![
            Column::new("g1", DataType::Int32),
            Column::new("g2", DataType::Char(10)),
            Column::new("v", DataType::Float64),
            Column::new("d", DataType::Date),
            Column::new("n", DataType::Int32),
        ])
    }

    /// Rows with the given keys; values cycle through the floats a fold can
    /// get wrong — sums that cancel differently in another order, signed
    /// zeros and, in the groups whose `g1` is a multiple of four (they would
    /// drown every other group's sums), NaN and the infinities — dates and
    /// ints through both signs.  `g2` spells the row number after its
    /// eight-byte image, so representatives are visible in the output.
    fn fold_relation(keys: impl Iterator<Item = (i32, char)>) -> StagedRelation {
        let floats = [0.1, -0.0, 0.0, 1e16, -1e16, 2.5, -7.25, 1.0, 3e-9];
        let specials = [f64::NAN, f64::INFINITY, 0.5, f64::NEG_INFINITY, -0.0];
        let rows: Vec<Row> = keys
            .enumerate()
            .map(|(i, (g1, g2))| {
                let at = i * 7 + i / 13;
                Row::new(vec![
                    Value::Int32(g1),
                    Value::Str(format!("{}{:02}", g2.to_string().repeat(8), i % 100)),
                    Value::Float64(if g1 % 4 == 0 && i % 3 == 0 {
                        specials[at % specials.len()]
                    } else {
                        floats[at % floats.len()]
                    }),
                    Value::Date(8000 + (i as i32 * 37) % 2000 - 1000),
                    Value::Int32((i as i32 * 7919) % 1000 - 500),
                ])
            })
            .collect();
        StagedRelation::from_rows(fold_schema(), &rows).unwrap()
    }

    /// SUMs over shared nodes, AVG, COUNT, MIN/MAX on `Int32`, `Date` and
    /// an arithmetic node.
    fn fold_spec(group_columns: Vec<usize>) -> AggregateSpec {
        let col = |index: usize| ScalarExpr::Column {
            index,
            dtype: fold_schema().column(index).dtype,
        };
        let bin = |op, l: ScalarExpr, r: ScalarExpr| ScalarExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
            dtype: DataType::Float64,
        };
        let one = || ScalarExpr::Literal(Value::Int32(1));
        let scaled = || bin(BinOp::Mul, col(2), bin(BinOp::Sub, one(), col(4)));
        let agg = |func, arg: Option<ScalarExpr>, dtype| BoundAggregate { func, arg, dtype };
        AggregateSpec {
            group_columns,
            aggregates: vec![
                agg(AggFunc::Sum, Some(col(2)), DataType::Float64),
                agg(AggFunc::Sum, Some(scaled()), DataType::Float64),
                agg(
                    AggFunc::Sum,
                    Some(bin(BinOp::Div, scaled(), col(3))),
                    DataType::Float64,
                ),
                agg(AggFunc::Avg, Some(col(2)), DataType::Float64),
                agg(AggFunc::Count, None, DataType::Int64),
                agg(AggFunc::Min, Some(col(4)), DataType::Int32),
                agg(AggFunc::Max, Some(col(3)), DataType::Date),
                agg(AggFunc::Min, Some(col(2)), DataType::Float64),
                agg(AggFunc::Max, Some(scaled()), DataType::Float64),
                agg(AggFunc::Sum, Some(col(4)), DataType::Int64),
            ],
            algorithm: AggAlgorithm::Map,
        }
    }

    /// `rel` spilled through a two-frame pool, handed to `consume` as the
    /// partition set a budgeted execution streams; the consumer may never
    /// hold more than the pinned page.
    fn with_spilled<T>(rel: &StagedRelation, consume: impl FnOnce(&PartitionSet<'_>) -> T) -> T {
        use hique_pipeline::SpillContext;
        use hique_storage::{BufferPool, TempSpace};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hique_agg_fold_{}_{}.spill",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let pool = Arc::new(BufferPool::new(2).unwrap());
        let temp = Arc::new(TempSpace::create(Arc::clone(&pool), &path).unwrap());
        let ctx = SpillContext::acquire(&temp, 1).expect("space is free");
        let input = crate::staging::StagedInput::unpartitioned(rel.clone());
        let slot = crate::spill::StagedSlot::stage(input, Some(&ctx)).unwrap();
        // (A relation of a few records stays resident and streams as one
        // memory page.)
        assert_eq!(slot.is_spilled(), ctx.should_spill(rel.data_bytes()));
        let out = consume(&slot.partitions(Some(&ctx)).unwrap());
        assert_eq!(
            ctx.meter().peak(),
            slot.is_spilled() as usize,
            "one pinned page at a time"
        );
        drop(slot);
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn every_form_folds_bit_identically_to_the_row_at_a_time_fold() {
        let mut rng = XorShift(0xF01D_A6E5);
        let per_page = records_per_page(fold_schema().tuple_size());
        // One group; every row its own group; more groups than a page has
        // rows, revisited at random; sorted runs of every length up to two
        // pages, so runs cross page boundaries; the small cases.
        let one_group = fold_relation((0..600).map(|_| (1, 'A')));
        let one_special_group = fold_relation((0..600).map(|_| (4, 'A')));
        let all_distinct = fold_relation((0..700).map(|i| (i, 'A')));
        let many_groups = fold_relation((0..3000).map(|_| {
            let r = rng.next();
            ((r % 200) as i32 - 100, (b'A' + (r >> 16) as u8 % 3) as char)
        }));
        assert!(600 > 3 * per_page);
        let crossing = fold_relation(
            (1..=2 * per_page as i32 + 3)
                .step_by(17)
                .flat_map(|len| (0..len).map(move |_| (len, 'R'))),
        );
        let tiny = fold_relation([(5, 'B'), (5, 'A'), (4, 'B')].into_iter());
        let empty = StagedRelation::new(fold_schema());
        assert!(with_spilled(&one_group, |set| {
            set.for_each_record(|_| {}).unwrap();
            set.streams()[0].is_spilled()
        }));
        let inputs = [
            &one_group,
            &one_special_group,
            &all_distinct,
            &many_groups,
            &crossing,
            &tiny,
            &empty,
        ];

        for (input, group_columns) in inputs
            .into_iter()
            .flat_map(|input| [vec![0, 1], vec![1], vec![]].map(|g| (input, g)))
        {
            let spec = fold_spec(group_columns.clone());
            let agg = CompiledAgg::compile(&spec, input.schema()).unwrap();
            let records: Vec<&[u8]> = input.records().collect();
            let context = format!("{} records by {group_columns:?}", records.len());
            let spillable = !records.is_empty();

            // Map (and global) aggregation: chunked scans and their combine.
            for threads in [1, 2, 4] {
                let want = exact(&row_at_a_time_map(&agg, &records, threads));
                let pool = ScopedPool::new(threads);
                let got = agg.map_aggregate(input, &pool, &mut ExecStats::new());
                assert_eq!(exact(&got.unwrap()), want, "map x{threads}, {context}");
            }
            let want_map = exact(&row_at_a_time_map(&agg, &records, 1));
            if spillable {
                let got = with_spilled(input, |set| {
                    agg.map_aggregate_stream(set, &mut ExecStats::new())
                });
                assert_eq!(exact(&got.unwrap()), want_map, "map stream, {context}");
            }

            // Sort aggregation over the sorted input (global: any order).
            let mut sorted = input.clone();
            sorted.sort_all(&agg.group_keys, &ScopedPool::serial());
            let sorted_records = vec![sorted.records().collect::<Vec<_>>()];
            let want_sort = exact(&if group_columns.is_empty() {
                row_at_a_time_map(&agg, &sorted_records[0], 1)
            } else {
                row_at_a_time_sort_scan(&agg, &sorted_records)
            });
            for threads in [1, 2, 4] {
                let pool = ScopedPool::new(threads);
                let got = agg.sort_aggregate(&sorted, &pool, &mut ExecStats::new());
                assert_eq!(exact(&got), want_sort, "sort x{threads}, {context}");
            }
            if spillable {
                let got = with_spilled(&sorted, |set| {
                    agg.sort_aggregate_stream(set, &mut ExecStats::new())
                });
                assert_eq!(exact(&got.unwrap()), want_sort, "sort stream, {context}");
            }

            // Hybrid: the scatter and the sorts are not under test, so the
            // reference scans the partitions they produce.
            let want_hybrid = exact(&if group_columns.is_empty() {
                row_at_a_time_map(&agg, &records, 1)
            } else {
                let mut stats = ExecStats::new();
                let parts = par_scatter(
                    input,
                    agg.group_keys[0],
                    8,
                    &ScopedPool::serial(),
                    &mut stats,
                );
                let mut staged = StagedRelation::from_partitions(input.schema().clone(), parts);
                staged.sort_all(&agg.group_keys, &ScopedPool::serial());
                let partitions: Vec<Vec<&[u8]>> = (0..staged.num_partitions())
                    .map(|p| staged.partition_records(p).collect())
                    .collect();
                row_at_a_time_sort_scan(&agg, &partitions)
            });
            for threads in [1, 2, 4] {
                let pool = ScopedPool::new(threads);
                let got = agg.hybrid_aggregate(input, 8, &pool, &mut ExecStats::new());
                assert_eq!(exact(&got), want_hybrid, "hybrid x{threads}, {context}");
                if spillable {
                    let got = with_spilled(input, |set| {
                        agg.hybrid_aggregate_stream(
                            set,
                            input.schema(),
                            8,
                            &pool,
                            &mut ExecStats::new(),
                        )
                    });
                    assert_eq!(
                        exact(&got.unwrap()),
                        want_hybrid,
                        "hybrid stream x{threads}, {context}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cell_array_that_cannot_be_laid_out_is_a_typed_error() {
        // Map aggregation planned for small domains the data has outgrown:
        // every attribute all-distinct, so the first page already asks for
        // 128 cells per attribute — 2^56 cells over eight attributes (more
        // than the address space: the reservation fails), 2^70 over ten
        // (the product overflows).
        for attributes in [8usize, 10] {
            let mut columns: Vec<Column> = (0..attributes)
                .map(|a| Column::new(format!("g{a}"), DataType::Int32))
                .collect();
            columns.push(Column::new("v", DataType::Float64));
            let schema = Schema::new(columns);
            let rows: Vec<Row> = (0..200)
                .map(|i| {
                    let mut values = vec![Value::Int32(i); attributes];
                    values.push(Value::Float64(i as f64));
                    Row::new(values)
                })
                .collect();
            let input = StagedRelation::from_rows(schema, &rows).unwrap();
            let spec = AggregateSpec {
                group_columns: (0..attributes).collect(),
                aggregates: vec![BoundAggregate {
                    func: AggFunc::Count,
                    arg: None,
                    dtype: DataType::Int64,
                }],
                algorithm: AggAlgorithm::Map,
            };
            let compiled = CompiledAgg::compile(&spec, input.schema()).unwrap();
            for threads in [1, 4] {
                let pool = ScopedPool::new(threads);
                let err = compiled
                    .map_aggregate(&input, &pool, &mut ExecStats::new())
                    .unwrap_err();
                let HiqueError::Execution(message) = &err else {
                    panic!("{attributes} attributes: {err}");
                };
                assert!(message.contains("map aggregation"), "{message}");
                // The directory sizes, one per attribute.
                assert_eq!(message.matches(", ").count(), attributes - 1, "{message}");
            }
            // The other algorithms answer the same input.
            let sorted =
                compiled.hybrid_aggregate(&input, 4, &ScopedPool::serial(), &mut ExecStats::new());
            assert_eq!(sorted.len(), 200);
        }
    }
}
